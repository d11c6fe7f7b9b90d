"""The three benchmark workloads.

Each drives stabforge only through its public functions and ``cli.main``,
in-process, as one closed-loop caller: every call is issued after the
previous one returns.  A workload is set up once (its constructor), then
``run_pass`` is repeated for the measured time.  It returns the seconds of
each timed stage, which sum to the pass's wall time, and any further
samples to pool over passes.  After each timed step of a pass it hands the
step's seconds to its ``Pace``, which times the host-speed reference around
it (see pace.py).  A traced run also calls ``replay``, which
repeats the same work through finer public steps so that each layer gets
its own span.  Every pass checks its outputs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import time
from dataclasses import dataclass
from statistics import median, quantiles

import numpy as np

from pace import Pace
from stabforge import cli, codewords, ecc_sim, family, oracle, stabilizer
from stabforge.pauli import single

DEFAULT_SEED = 0


@dataclass(frozen=True)
class Sizes:
    build_js: tuple[int, ...]
    spec_js: tuple[int, ...]
    trials: int  # per depolarizing/matrix campaign, and per Simulator.trial loop
    replay_trials: int  # per model in one traced replay round


FULL = Sizes(build_js=(3, 8, 12, 16), spec_js=(3, 8, 10, 11), trials=1000, replay_trials=200)
SMOKE = Sizes(build_js=(3, 8), spec_js=(3, 8), trials=20, replay_trials=10)


class Checks:
    """Output checks behind ``failed_ratio``; keeps the first few failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)
        return ok


def op_digest(ops) -> str:
    """SHA-256 over each operator's sign and length-prefixed x/z bit vectors.

    It does not depend on the CodeSpec text format, and it stays cheap at
    n = 65536, where the formatted seed strings would be about 4.3 GB.
    """
    h = hashlib.sha256()
    for op in ops:
        h.update(b"+" if op.sign == 1 else b"-")
        for bits in (op.x_bits, op.z_bits):
            raw = bits.to_bytes((bits.bit_length() + 7) // 8, "little")
            h.update(len(raw).to_bytes(4, "little"))
            h.update(raw)
    return h.hexdigest()


def check_code(checks: Checks, pinned: dict, j: int, code) -> None:
    want = pinned["codes"][str(j)]
    n = 1 << j
    checks.check((code.n, code.k, code.j) == (n, n - j - 2, j), f"j={j}: wrong (n, k, j)")
    checks.check(op_digest(code.generators) == want["generators"], f"j={j}: generator digest differs")
    checks.check(
        op_digest(code.seed_generators) == want["seed_generators"], f"j={j}: seed digest differs"
    )


def timed(tracer, name: str, fn, *args, **kwargs):
    """Call fn inside a span; return (result, seconds including the span)."""
    t = time.perf_counter()
    with tracer.span(name):
        result = fn(*args, **kwargs)
    return result, time.perf_counter() - t


def run_cli(tracer, name: str, argv: list[str]) -> tuple[int, str, float]:
    """``cli.main(argv)`` with stdout captured; returns (exit code, stdout, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    t = time.perf_counter()
    with tracer.span(name), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), time.perf_counter() - t


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _times(names, js) -> dict[str, str]:
    return {f"{fn}.s.j{j}": "s" for j in js for fn in names}


class Workload:
    """Set up in the constructor; ``run_pass`` and ``replay`` take a tracer."""

    name: str
    why: str  # one line, copied into BENCHMARK.json

    def __init__(self, sizes: Sizes, seed: int, workdir: str, pinned: dict, checks: Checks, pace: Pace):
        raise NotImplementedError

    def run_pass(self, tracer) -> tuple[dict[str, float], dict[str, list[float]]]:
        raise NotImplementedError

    def replay(self, tracer) -> None:
        raise NotImplementedError

    @staticmethod
    def extra_metrics(samples: dict[str, list[float]]) -> dict[str, tuple[float, str, int]]:
        """Workload metrics from the pooled samples: name -> (value, unit, sample count)."""
        return {}

    @staticmethod
    def layer_metrics(sizes: Sizes) -> dict[str, str]:
        """Per-layer metric names of this workload, with units."""
        raise NotImplementedError


class BuildLarge(Workload):
    name = "build-large"
    why = "family.build_code plus correctability and seed checks at j=3,8,12,16 in memory; seed_generators at j=16 dominates"

    def __init__(self, sizes: Sizes, seed: int, workdir: str, pinned: dict, checks: Checks, pace: Pace):
        self.js = sizes.build_js
        self.pinned = pinned
        self.checks = checks
        self.pace = pace
        self.fingerprints: dict[int, int] = {}  # j -> hash of a digest-checked build

    def run_pass(self, tracer) -> tuple[dict[str, float], dict[str, list[float]]]:
        build_s = check_s = 0.0
        for j in self.js:
            code, dt = timed(tracer, f"family.build_code.s.j{j}", family.build_code, j)
            self.pace.step(dt)
            build_s += dt
            group, dt1 = timed(
                tracer, f"stabilizer.validate.s.j{j}", stabilizer.validate, code.n, code.generators
            )
            self.pace.step(dt1)
            report, dt2 = timed(
                tracer,
                f"stabilizer.check_correctability.s.j{j}",
                stabilizer.check_correctability,
                group,
                1,
            )
            self.pace.step(dt2)
            problems, dt3 = timed(
                tracer, f"codewords.check_seeds.s.j{j}", codewords.check_seeds, group, code.seed_generators
            )
            self.pace.step(dt3)
            check_s += dt1 + dt2 + dt3
            self._check(j, code, group, report, problems)
            tracer.observe(f"stabilizer.check_correctability.errors.j{j}", report.total_errors)
            del code, group, report
        return {"build_s": build_s, "check_s": check_s}, {}

    def _check(self, j, code, group, report, problems) -> None:
        # The full digest takes most of a second at j=16, so it runs on the
        # first build only; later builds must hash equal to that checked one.
        fingerprint = hash((code.generators, code.seed_generators))
        if j not in self.fingerprints:
            check_code(self.checks, self.pinned, j, code)
            self.fingerprints[j] = fingerprint
        else:
            self.checks.check(fingerprint == self.fingerprints[j], f"j={j}: build differs between passes")
        errors = 1 + 3 * code.n
        self.checks.check(group.a == j + 2, f"j={j}: validate kept {group.a} generators")
        self.checks.check(
            report.ok and report.total_errors == errors and report.distinct_syndromes == errors,
            f"j={j}: correctability report {report.ok}, {report.distinct_syndromes}/{report.total_errors}",
        )
        self.checks.check(problems == [], f"j={j}: check_seeds reported {problems[:3]}")

    def replay(self, tracer) -> None:
        """build_code step by step: assign, derive, validate, seed_generators."""
        for j in self.js:
            assignment, _ = timed(tracer, f"family.assign_numbers.s.j{j}", family.assign_numbers, j)
            gens, _ = timed(tracer, f"family.derive_generators.s.j{j}", family.derive_generators, assignment)
            group, _ = timed(tracer, f"stabilizer.validate.s.j{j}", stabilizer.validate, assignment.n, gens)
            seeds, _ = timed(tracer, f"codewords.seed_generators.s.j{j}", codewords.seed_generators, group)
            tracer.observe(f"codewords.seed_generators.seeds.j{j}", len(seeds))
            self.checks.check(
                hash((tuple(gens), tuple(seeds))) == self.fingerprints.get(j),
                f"j={j}: step-by-step build differs from build_code",
            )
            del assignment, gens, group, seeds

    @staticmethod
    def layer_metrics(sizes: Sizes) -> dict[str, str]:
        out = _times(
            (
                "family.build_code",
                "family.assign_numbers",
                "family.derive_generators",
                "stabilizer.validate",
                "codewords.seed_generators",
                "stabilizer.check_correctability",
                "codewords.check_seeds",
            ),
            sizes.build_js,
        )
        for j in sizes.build_js:
            out[f"codewords.seed_generators.seeds.j{j}"] = "count"
            out[f"stabilizer.check_correctability.errors.j{j}"] = "count"
        return out


ORACLE_J = 3  # the dense oracle is capped at n = 12, so it runs on the n = 8 code


class SpecVerify(Workload):
    name = "spec-verify"
    why = "family --out then verify --t 1 at j=3,8,10,11 plus the dense oracle at n=8; CodeSpec format and parse share one workload"

    def __init__(self, sizes: Sizes, seed: int, workdir: str, pinned: dict, checks: Checks, pace: Pace):
        if ORACLE_J not in sizes.spec_js:
            raise ValueError(f"spec-verify needs j={ORACLE_J} in its grid")
        self.js = sizes.spec_js
        self.pinned = pinned
        self.checks = checks
        self.pace = pace
        self.paths = {j: os.path.join(workdir, f"code{j}.json") for j in self.js}
        self.replay_path = os.path.join(workdir, "replay.json")
        self.code8 = family.build_code(ORACLE_J)
        self.file_digests: dict[int, str] = {}  # j -> sha256 of a digest-checked CodeSpec file

    def run_pass(self, tracer) -> tuple[dict[str, float], dict[str, list[float]]]:
        write_s = verify_s = oracle_s = 0.0
        for j in self.js:
            rc, _, dt = run_cli(tracer, f"cli.family.s.j{j}", ["family", "--j", str(j), "--out", self.paths[j]])
            self.pace.step(dt)
            write_s += dt
            self.checks.check(rc == 0, f"family --j {j} --out exited {rc}")
        for j in self.js:
            rc, out, dt = run_cli(tracer, f"cli.verify.s.j{j}", ["verify", self.paths[j], "--t", "1", "--json"])
            self.pace.step(dt)
            verify_s += dt
            payload = json.loads(out) if rc == 0 else {}
            n = 1 << j
            self.checks.check(
                payload.get("ok") is True
                and payload.get("failures") == []
                and (payload.get("n"), payload.get("k")) == (n, n - j - 2),
                f"verify j={j} --t 1 exited {rc}: {out[:200]!r}",
            )
        rc, out, dt = run_cli(
            tracer, "cli.verify_oracle.s.t1", ["verify", self.paths[ORACLE_J], "--t", "1", "--oracle", "--json"]
        )
        self.pace.step(dt)
        oracle_s += dt
        payload = json.loads(out) if rc == 0 else {}
        self.checks.check(
            payload.get("ok") is True
            and payload.get("oracle") == {"rank": 200, "num_vectors": 200, "dimension": 256},
            f"verify --oracle exited {rc}: {out[:200]!r}",
        )
        report, dt = timed(tracer, "oracle.verify_code.s.t2", oracle.verify_code, self.code8, 2)
        self.pace.step(dt)
        oracle_s += dt
        tracer.observe("oracle.verify_code.vectors.t2", report.num_vectors)
        # n = 8 has only 256 dimensions for 2216 weight-<=2 error images.
        self.checks.check(
            not report.ok and report.rank == 256 and report.num_vectors == 2216,
            f"verify_code t=2: ok={report.ok} rank {report.rank}/{report.num_vectors}",
        )
        for j in self.js:
            self._check_file(j)
        return {"spec_write_s": write_s, "spec_verify_s": verify_s, "oracle_s": oracle_s}, {}

    def _check_file(self, j: int) -> None:
        with open(self.paths[j], "rb") as f:
            digest = sha256(f.read())
        if j in self.file_digests:
            self.checks.check(digest == self.file_digests[j], f"j={j}: CodeSpec file differs between passes")
            return
        # First pass: read the file back through the public loader, so the
        # check holds for any CodeSpec version the loader accepts.
        check_code(self.checks, self.pinned, j, family.CodeSpec.load(self.paths[j]))
        self.file_digests[j] = digest

    def replay(self, tracer) -> None:
        """The CodeSpec steps inside family --out / verify, one public call each."""
        for j in self.js:
            code = family.build_code(j)
            timed(tracer, f"family.CodeSpec.to_json_dict.s.j{j}", code.to_json_dict)
            timed(tracer, f"family.CodeSpec.save.s.j{j}", code.save, self.replay_path)
            with open(self.replay_path, "rb") as f:
                raw = f.read()
            tracer.observe(f"family.CodeSpec.save.bytes.j{j}", len(raw))
            self.checks.check(sha256(raw) == self.file_digests.get(j), f"j={j}: CodeSpec.save differs from family --out")
            data = json.loads(raw)
            spec, _ = timed(tracer, f"family.CodeSpec.from_json_dict.s.j{j}", family.CodeSpec.from_json_dict, data)
            self.checks.check(spec == code, f"j={j}: from_json_dict does not round-trip")
            spec, _ = timed(tracer, f"family.CodeSpec.load.s.j{j}", family.CodeSpec.load, self.replay_path)
            self.checks.check(spec == code, f"j={j}: load does not round-trip")
            del code, data, spec, raw
        report, _ = timed(tracer, "oracle.verify_code.s.t1", oracle.verify_code, self.code8, 1)
        tracer.observe("oracle.verify_code.vectors.t1", report.num_vectors)
        self.checks.check(
            report.ok and report.rank == report.num_vectors == 200,
            f"verify_code t=1: ok={report.ok} rank {report.rank}/{report.num_vectors}",
        )

    @staticmethod
    def layer_metrics(sizes: Sizes) -> dict[str, str]:
        out = _times(
            (
                "cli.family",
                "cli.verify",
                "family.CodeSpec.to_json_dict",
                "family.CodeSpec.save",
                "family.CodeSpec.from_json_dict",
                "family.CodeSpec.load",
            ),
            sizes.spec_js,
        )
        for j in sizes.spec_js:
            out[f"family.CodeSpec.save.bytes.j{j}"] = "bytes"
        out["cli.verify_oracle.s.t1"] = "s"
        for t in (1, 2):
            out[f"oracle.verify_code.s.t{t}"] = "s"
            out[f"oracle.verify_code.vectors.t{t}"] = "count"
        return out


# (tag used in metric names, --model argument)
MODELS = (
    ("depolarizing", "depolarizing:0.05"),
    ("exhaustive", "exhaustive"),
    ("matrix", "matrix:0.5,0.1j,1,0@3"),
)
REPLAY_PAULI = "pauli:+IIIIIYII"
ANNIHILATED_NORM = 1e-15  # Simulator.trial's zero-state threshold


def campaign_argv(path: str, model: str, trials: int, seed: int) -> list[str]:
    return ["simulate", path, "--model", model, "--trials", str(trials), "--seed", str(seed), "--json"]


class SimulateN8(Workload):
    name = "simulate-n8"
    why = "simulate --json campaigns on the n=8 code (depolarizing, exhaustive, matrix) and a Simulator.trial latency loop"

    def __init__(self, sizes: Sizes, seed: int, workdir: str, pinned: dict, checks: Checks, pace: Pace):
        self.seed = seed
        self.trials = sizes.trials
        self.replay_trials = sizes.replay_trials
        self.checks = checks
        self.pace = pace
        self.pinned = pinned["campaigns"].get(f"trials={sizes.trials}") if seed == DEFAULT_SEED else None
        self.code = family.build_code(3)
        self.path = os.path.join(workdir, "code8.json")
        self.code.save(self.path)
        self.sim = ecc_sim.Simulator(self.code)
        self.specs = {
            tag: ecc_sim.parse_error_spec(model, self.code.n)
            for tag, model in MODELS + (("pauli", REPLAY_PAULI),)
            if tag != "exhaustive"
        }

    def run_pass(self, tracer) -> tuple[dict[str, float], dict[str, list[float]]]:
        campaign_s = 0.0
        stats = {}
        for tag, model in MODELS:
            rc, out, dt = run_cli(
                tracer, f"cli.simulate.s.{tag}", campaign_argv(self.path, model, self.trials, self.seed)
            )
            self.pace.step(dt)
            campaign_s += dt
            stats[tag] = self._check_campaign(tag, rc, out)
        trials = sum(s["trials"] for s in stats.values())

        spec = self.specs["depolarizing"]
        loop_s, successes, histogram, latencies = 0.0, 0, {}, []
        for i in range(self.trials):
            rng = ecc_sim.trial_rng(self.seed, i)
            t = time.perf_counter()
            with tracer.span("ecc_sim.Simulator.trial.s"):
                report = self.sim.trial(spec, rng)
            dt = time.perf_counter() - t
            loop_s += dt
            latencies.append(dt)
            successes += report.success
            key = str(report.syndrome) if report.syndrome is not None else "annihilated"
            histogram[key] = histogram.get(key, 0) + 1
        self.pace.step(loop_s)
        depolarizing = stats["depolarizing"]
        self.checks.check(
            depolarizing["successes"] == successes and depolarizing["syndrome_histogram"] == histogram,
            "Simulator.trial loop disagrees with the depolarizing campaign",
        )

        tracer.observe("ecc_sim.trial.count", trials)
        tracer.observe(
            "ecc_sim.trial.annihilated",
            sum(s["syndrome_histogram"].get("annihilated", 0) for s in stats.values()),
        )
        for tag, s in stats.items():
            if s["trials"]:
                tracer.observe(f"ecc_sim.trial.success_ratio.{tag}", s["successes"] / s["trials"])
        samples = {"trials_per_s": [trials / campaign_s], "trial_latency_s": latencies}
        return {"campaign_s": campaign_s, "trial_loop_s": loop_s}, samples

    def _check_campaign(self, tag: str, rc: int, out: str) -> dict:
        if not self.checks.check(rc == 0, f"simulate {tag} exited {rc}"):
            return {"trials": 0, "successes": 0, "syndrome_histogram": {}}
        stats = json.loads(out)
        hist = stats["syndrome_histogram"]
        self.checks.check(sum(hist.values()) == stats["trials"], f"{tag}: histogram total != trials")
        self.checks.check(math.isfinite(stats["min_fidelity"]), f"{tag}: min_fidelity {stats['min_fidelity']}")
        if tag == "exhaustive":
            self.checks.check(
                stats["trials"] == stats["successes"] == 192 and len(hist) == 24 and set(hist.values()) == {8},
                f"exhaustive: {stats['successes']}/{stats['trials']} over {len(hist)} syndromes",
            )
        else:
            self.checks.check(stats["trials"] == self.trials, f"{tag}: ran {stats['trials']} trials")
        if self.pinned is not None:
            self.checks.check(
                sha256(out.encode()) == self.pinned[tag], f"{tag}: campaign JSON differs from the pinned digest"
            )
        return stats

    def replay(self, tracer) -> None:
        """Simulator set-up, then trials split into their public steps."""
        timed(tracer, "ecc_sim.Simulator.init.s", ecc_sim.Simulator, self.code)
        table, _ = timed(tracer, "ecc_sim.build_syndrome_table.s", ecc_sim.build_syndrome_table, self.code, 1)
        words, _ = timed(tracer, "codewords.basis.s", codewords.basis, self.sim.group, self.code.seed_generators)
        self.checks.check(table == self.sim.table and len(words) == 8, "Simulator set-up differs on replay")

        calls = 0
        index = 0
        for i in range(1, self.code.n + 1):  # the exhaustive campaign's trial order
            for letter in "XYZ":
                error = ecc_sim.PauliError(single(self.code.n, i, letter))
                for word in range(len(self.sim.basis)):
                    calls += self._replay_trial(tracer, error, index, word)
                    index += 1
        for tag in ("matrix", "pauli"):
            for index in range(self.replay_trials):
                calls += self._replay_trial(tracer, self.specs[tag], index, None)
        tracer.observe("ecc_sim.measure_syndrome.calls", calls)
        # depolarizing sampling is private to Simulator.trial, so time it whole
        for index in range(self.replay_trials):
            timed(
                tracer,
                "ecc_sim.trial.depolarizing.s",
                self.sim.trial,
                self.specs["depolarizing"],
                ecc_sim.trial_rng(self.seed, index),
            )

    def _replay_trial(self, tracer, error, index: int, logical) -> int:
        """One trial through the public steps; returns measure_syndrome calls made."""
        sim = self.sim
        rng = ecc_sim.trial_rng(self.seed, index)
        measured = 0
        with tracer.span("ecc_sim.trial.replayed.s"):
            with tracer.span("ecc_sim.trial.logical.s"):
                psi = sim.random_logical(rng) if logical is None else sim.basis[logical]
            with tracer.span("ecc_sim.trial.error.s"):
                if isinstance(error, ecc_sim.PauliError):
                    damaged = oracle.apply_pauli(error.op, psi)
                else:
                    damaged = oracle.apply_single_qubit(error.matrix, error.qubit, psi)
            if damaged.norm() < ANNIHILATED_NORM:
                report = ecc_sim.RecoveryReport(None, None, 0.0, False)
            else:
                with tracer.span("ecc_sim.trial.measure.s"):
                    syn, collapsed = ecc_sim.measure_syndrome(damaged, sim.group, rng)
                measured = 1
                with tracer.span("ecc_sim.trial.correct.s"):
                    corr = sim.table.correction(syn)
                    out = collapsed if corr is None else oracle.apply_pauli(corr, collapsed)
                fidelity = float(abs(np.vdot(psi.amplitudes, out.amplitudes)))
                success = corr is not None and fidelity >= 1.0 - ecc_sim.FIDELITY_TOL
                report = ecc_sim.RecoveryReport(syn, corr, fidelity, success)
        expected = sim.trial(error, ecc_sim.trial_rng(self.seed, index), logical=logical)
        self.checks.check(report == expected, f"replayed trial {index} ({error}) differs from Simulator.trial")
        return measured

    @staticmethod
    def extra_metrics(samples: dict[str, list[float]]) -> dict[str, tuple[float, str, int]]:
        """trials_per_s per pass; trial latency percentiles over every untraced trial."""
        rates, lat = samples["trials_per_s"], samples["trial_latency_s"]
        out = {"trials_per_s": (median(rates), "1/s", len(rates))}
        if len(lat) >= 2:
            pct = quantiles(lat, n=100)
            out["trial_p50_ms"] = (pct[49] * 1e3, "ms", len(lat))
            out["trial_p99_ms"] = (pct[98] * 1e3, "ms", len(lat))
        return out

    @staticmethod
    def layer_metrics(sizes: Sizes) -> dict[str, str]:
        out = {
            f"{fn}.s": "s"
            for fn in (
                "ecc_sim.Simulator.init",
                "ecc_sim.build_syndrome_table",
                "codewords.basis",
                "ecc_sim.Simulator.trial",
                "ecc_sim.trial.logical",
                "ecc_sim.trial.error",
                "ecc_sim.trial.measure",
                "ecc_sim.trial.correct",
                "ecc_sim.trial.depolarizing",
            )
        }
        for tag, _ in MODELS:
            out[f"cli.simulate.s.{tag}"] = "s"
            out[f"ecc_sim.trial.success_ratio.{tag}"] = "ratio"
        out["ecc_sim.trial.count"] = "count"
        out["ecc_sim.trial.annihilated"] = "count"
        out["ecc_sim.measure_syndrome.calls"] = "count"
        return out


WORKLOADS = {w.name: w for w in (BuildLarge, SpecVerify, SimulateN8)}

TRACE_OVERHEAD = "bench.trace_overhead.s"


def layer_metrics(sizes: Sizes) -> dict[str, str]:
    """Every per-layer metric name with its unit, the same for every workload."""
    out = {}
    for w in WORKLOADS.values():
        out.update(w.layer_metrics(sizes))
    out[TRACE_OVERHEAD] = "s"
    return out
