"""Write perfbench/pinned.json: the expected outputs the benchmark checks.

    python3 perfbench/pin.py

Pins the digest (see ``workloads.op_digest``) of the generators and seed
generators of every j in both grids, and the SHA-256 of each campaign's
``simulate --json`` output for the default seed at the full and smoke trial
counts.  They were taken once, when the benchmark was defined; a later
change that alters these outputs should fail the checks, not re-pin them.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile

import run
from tracer import NULL

run.import_program()

import workloads  # noqa: E402
from stabforge import family  # noqa: E402


def main() -> None:
    full, smoke = workloads.FULL, workloads.SMOKE
    codes = {}
    for j in sorted(set(full.build_js + full.spec_js + smoke.build_js + smoke.spec_js)):
        code = family.build_code(j)
        codes[str(j)] = {
            "generators": workloads.op_digest(code.generators),
            "seed_generators": workloads.op_digest(code.seed_generators),
        }
        del code
    campaigns = {}
    run.OUT_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="pin-", dir=run.OUT_DIR)
    try:
        path = os.path.join(workdir, "code8.json")
        family.build_code(3).save(path)
        for trials in sorted({full.trials, smoke.trials}):
            digests = {}
            for tag, model in workloads.MODELS:
                argv = workloads.campaign_argv(path, model, trials, workloads.DEFAULT_SEED)
                rc, out, _ = workloads.run_cli(NULL, tag, argv)
                if rc != 0:
                    raise SystemExit(f"simulate {model} exited {rc}")
                digests[tag] = workloads.sha256(out.encode())
            campaigns[f"trials={trials}"] = digests
    finally:
        shutil.rmtree(workdir)
    pinned = {"seed": workloads.DEFAULT_SEED, "codes": codes, "campaigns": campaigns}
    (run.BENCH_DIR / "pinned.json").write_text(json.dumps(pinned, indent=2) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
