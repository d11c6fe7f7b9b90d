"""stabforge benchmark: build, CodeSpec I/O + verify, and simulation.

    python3 perfbench/run.py --workload build-large --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seconds 20   # every metric, every workload
    python3 perfbench/selftest.py                          # smoke run of the benchmark itself

Run from the root of a checkout; stabforge is imported from its ``src/``.
The load is a closed loop: one caller in this process issues each call after
the previous one returns, with no threads of its own (numpy's BLAS keeps its
default thread count).  A run sets its workload up, then repeats passes of
the workload for ``--seconds`` and reports medians over the passes.
``setup_s`` is the median of several fresh processes (``--setup-only``),
each timing its own import and input generation.

Both reported times are paced (see pace.py): each measured step is scaled
by a fixed reference loop timed right around it, giving its seconds on a
host where that loop takes ``pace.REF_S``.  This cancels most of the
host's speed drift.  The raw seconds are in the detail record
(``raw_wall_s``, ``raw_setup_s`` and the per-stage times).

With ``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` untraced and traced passes alternate for half the time, then
the workload's step-by-step replay runs, and the last line carries every
per-layer metric (0 for layers the workload does not call).  The line
before it is a detail record with provenance, all workload metrics and the
failed checks; the same record, with the spans of a traced run, is written
to ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import median

from pace import REF_S, Pace, paced
from tracer import NULL, Tracer

# numpy and stabforge are imported inside functions, after import_program(),
# so that a set-up probe's timer covers their import.
ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".perfbench"
SETUP_PROBES = 9
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


def import_program():
    """Import stabforge from this checkout's src/, or exit without a result."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import stabforge
    except ImportError as exc:
        raise SystemExit(f"error: cannot import stabforge from {src}: {exc}")
    if not Path(stabforge.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"error: stabforge was imported from {stabforge.__file__}, not {src}")
    return stabforge


def load_pinned() -> dict:
    return json.loads((BENCH_DIR / "pinned.json").read_text(encoding="utf-8"))


def setup_only(name: str, seed: int) -> dict[str, float]:
    """Time a fresh import plus the workload's input generation, with a
    reference tick on each side."""
    pace = Pace()
    pace.tick()
    t = time.perf_counter()
    import_program()
    import workloads

    OUT_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="setup-", dir=OUT_DIR)
    try:
        workloads.WORKLOADS[name](workloads.FULL, seed, workdir, load_pinned(), workloads.Checks(), Pace())
        dt = time.perf_counter() - t
    finally:
        shutil.rmtree(workdir)
    pace.tick()
    return {"setup_s": dt, "ref_s": sum(pace.ticks) / len(pace.ticks)}


def setup_samples(name: str, seed: int) -> list[dict[str, float]]:
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed), "--setup-only"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        samples.append(json.loads(proc.stdout.splitlines()[-1]))
    return samples


def _git(*args) -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _blas_threads() -> int | None:
    """OpenBLAS's own thread count, read from the library numpy loaded."""
    import ctypes
    import numpy as np

    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def provenance(seed: int, samples: dict[str, int]) -> dict:
    import numpy as np

    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "git_rev": _git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "src_sha256": _src_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("name"),
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "load": "closed loop: one caller, one process, no extra threads",
        "pace_nominal_ref_s": REF_S,
        "seed": seed,
        "samples": samples,
    }


def measure(workload, seconds: float, tracer):
    """Repeat passes for ``seconds`` after one warm-up pass; a tracer makes
    traced passes alternate with untraced ones for half the time, then
    replays for the rest.  Returns the untraced passes' stage times and
    paced totals, the traced passes' stage times and the pooled samples."""
    untraced, untraced_paced, traced = [], [], []
    start = time.perf_counter()
    workload.run_pass(NULL)  # warm-up: first-pass checks and lazy set-up, not reported
    workload.pace.take()
    pass_end = start + (seconds / 2 if tracer else seconds)
    pooled: dict[str, list[float]] = {}  # extra samples of the untraced passes
    while not untraced or (tracer and not traced) or time.perf_counter() < pass_end:
        use = tracer if tracer and len(traced) < len(untraced) else NULL
        with use.span("bench.pass"):
            stages, extra = workload.run_pass(use)
        paced_total = workload.pace.take()
        if use is tracer:
            traced.append(stages)
        else:
            untraced.append(stages)
            untraced_paced.append(paced_total)
            for key, values in extra.items():
                pooled.setdefault(key, []).extend(values)
    if tracer:
        while True:
            with tracer.span("bench.replay"):
                workload.replay(tracer)
            if time.perf_counter() >= start + seconds:
                break
    return untraced, untraced_paced, traced, pooled


def run_workload(name: str, seed: int, seconds: float, trace: bool, sizes=None, pinned=None):
    """One benchmark run; returns (result line, detail record)."""
    import workloads

    sizes = sizes or workloads.FULL
    pinned = pinned if pinned is not None else load_pinned()
    setup = setup_samples(name, seed)
    checks = workloads.Checks()
    OUT_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"work-{name}-", dir=OUT_DIR)
    tracer = Tracer(f"{name}-seed{seed}-{os.getpid()}") if trace else None
    pace = Pace()
    try:
        workload = workloads.WORKLOADS[name](sizes, seed, workdir, pinned, checks, pace)
        untraced, untraced_paced, traced, pooled = measure(workload, seconds, tracer)
    finally:
        shutil.rmtree(workdir)

    walls = [sum(p.values()) for p in untraced]
    metrics = {
        "setup_s": (median(paced(p["setup_s"], p["ref_s"]) for p in setup), "s", len(setup)),
        "wall_s": (median(untraced_paced), "s", len(untraced_paced)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1),
        "raw_setup_s": (median(p["setup_s"] for p in setup), "s", len(setup)),
        "raw_wall_s": (median(walls), "s", len(walls)),
        "pace_ref_s": (median(pace.ticks), "s", len(pace.ticks)),
    }
    for stage in untraced[0]:
        values = [p[stage] for p in untraced]
        metrics[stage] = (median(values), "s", len(values))
    metrics.update(workload.extra_metrics(pooled))
    metrics["failed_ratio"] = (checks.failed / checks.attempted, "ratio", checks.attempted)

    detail = {
        "workload": name,
        "trace": int(trace),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
        "checks": {"attempted": checks.attempted, "failed": checks.failed, "failures": checks.failures},
    }
    samples = {k: n for k, (_, _, n) in metrics.items()}
    if trace:
        units = workloads.layer_metrics(sizes)
        durations, observed = tracer.durations(), tracer.observed
        overhead = median(sum(p.values()) for p in traced) - median(walls)
        layers = {}
        for key, unit in units.items():
            values = durations.get(key) or observed.get(key) or []
            layers[key] = {"value": median(values) if values else 0.0, "unit": unit}
            samples[key] = len(values)
        layers[workloads.TRACE_OVERHEAD]["value"] = overhead
        samples[workloads.TRACE_OVERHEAD] = len(traced)
        detail["layers"] = layers
        detail["spans"] = tracer.summary()
        reported = layers
    else:
        reported = {k: {"value": metrics[k][0], "unit": u} for k, u in END_TO_END_UNITS.items()}

    detail["provenance"] = provenance(seed, samples)
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": reported,
    }
    results = OUT_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    record = dict(detail, result=result, passes={"untraced": untraced, "untraced_paced": untraced_paced, "traced": traced})
    record["span_records"] = tracer.dump() if trace else []
    (results / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(record) + "\n", encoding="utf-8")
    return result, detail


def run_all(args) -> int:
    """Each workload in its own process, then one table of every metric."""
    import workloads

    failed = 0
    print(f"{'workload':<12} {'metric':<44} {'value':>14}  unit")
    for name in workloads.WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            print(f"{name}: exited {proc.returncode}: {proc.stderr.strip()[-500:]}", file=sys.stderr)
            return proc.returncode
        *_, detail_line, result_line = proc.stdout.splitlines()
        detail, result = json.loads(detail_line), json.loads(result_line)
        failed += result["failed"]
        shown = dict(detail["metrics"], **detail.get("layers", {}))
        for metric, m in shown.items():
            print(f"{name:<12} {metric:<44} {m['value']:>14.6g}  {m['unit']}")
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["build-large", "spec-verify", "simulate-n8", "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-only", action="store_true", help="time set-up once in this process and exit")
    args = parser.parse_args(argv)

    if args.setup_only:
        if args.workload == "all":
            parser.error("--setup-only needs one workload")
        print(json.dumps(setup_only(args.workload, args.seed)))
        return 0
    import_program()
    if args.workload == "all":
        return run_all(args)
    result, detail = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
