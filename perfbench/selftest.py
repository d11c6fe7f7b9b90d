"""Smoke self-test of the benchmark (j <= 8, a few trials).

    python3 perfbench/selftest.py

Runs every workload once untraced and once traced at the smoke sizes and
asserts that every named metric appears with a unit and a finite value and
that no output check fails.  Then it tampers with pinned digests and shows
that the checks catch the wrong output (failed_ratio > 0).  It also checks
that BENCHMARK.json lists exactly the metrics the benchmark reports.
"""

from __future__ import annotations

import copy
import json
import math

import run

run.import_program()

import workloads  # noqa: E402


def _assert_metrics(got: dict, expected: dict, where: str) -> None:
    assert set(got) == set(expected), f"{where}: metric names {sorted(set(got) ^ set(expected))}"
    for name, m in got.items():
        assert m["unit"] == expected[name], f"{where}: {name} has unit {m['unit']!r}"
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), f"{where}: {name}"


def main() -> None:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    assert end_to_end == run.END_TO_END_UNITS, "BENCHMARK.json end_to_end is out of date"
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert per_layer == workloads.layer_metrics(workloads.FULL), "BENCHMARK.json per_layer is out of date"

    smoke_layers = workloads.layer_metrics(workloads.SMOKE)
    pinned = run.load_pinned()
    for name in workloads.WORKLOADS:
        for trace in (False, True):
            where = f"{name} trace={int(trace)}"
            result, detail = run.run_workload(name, 0, 0.1, trace, workloads.SMOKE, pinned)
            assert result["correct"] and result["failed"] == 0, f"{where}: {detail['checks']}"
            assert result["attempted"] > 0
            _assert_metrics(result["metrics"], smoke_layers if trace else end_to_end, where)
            for metric, m in detail["metrics"].items():
                assert m["unit"] and math.isfinite(m["value"]), f"{where}: {metric}"
            assert detail["metrics"]["failed_ratio"]["value"] == 0.0
            print(f"selftest: {where}: {result['attempted']} checks passed, {len(result['metrics'])} metrics")

    for name, path in (
        ("build-large", ("codes", "3", "seed_generators")),
        ("spec-verify", ("codes", "8", "generators")),
        ("simulate-n8", ("campaigns", f"trials={workloads.SMOKE.trials}", "matrix")),
    ):
        tampered = copy.deepcopy(pinned)
        leaf = tampered[path[0]][path[1]]
        leaf[path[2]] = "0" * 64
        result, detail = run.run_workload(name, 0, 0.1, False, workloads.SMOKE, tampered)
        ratio = detail["metrics"]["failed_ratio"]["value"]
        assert not result["correct"] and ratio > 0, f"{name}: tampered digest {path} not caught"
        print(f"selftest: {name}: tampered pin {'/'.join(path)} caught, failed_ratio={ratio:.3f}")
    print("selftest: ok")


if __name__ == "__main__":
    main()
