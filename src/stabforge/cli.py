"""Command-line front end; plain-text output is layout-stable so it can be
diffed against golden files, --json emits the machine form.

Exit codes: 0 success/pass, 1 verification failure, 2 usage or input error.
Every exit 2, with no exception, is a UsageError that main alone prints as
one ``error:`` line.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import sys

from . import bounds, codewords, ecc_sim, family, oracle, pauli, stabilizer

MAX_TEXT_QUBITS = 64  # generator listings above this go to --out / --json only; verify names errors sparsely
MAX_GRID_QUBITS = 32  # same for the per-qubit syndrome grid

# work caps, each checked before the loop it bounds
BOUND_MAX_TERMS = 1 << 17  # bound: binomial terms, max_n * (min(t, max_n) + 1)
DEGENERATE_MAX_N = 1 << 16  # degenerate-bound: one output row per l < n
VERIFY_MAX_ERRORS = 1 << 22  # verify: errors the correctability walk may visit


class UsageError(Exception):
    """Bad input: main prints it as one ``error:`` line and returns 2."""


# line breaks that str.splitlines honours, escaped so an echoed input cannot split the error line
_ESCAPED_BREAKS = {ord(c): repr(c)[1:-1] for c in "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _load_spec(path) -> family.CodeSpec:
    try:
        return family.CodeSpec.load(path)
    except (OSError, ValueError) as exc:
        raise UsageError(str(exc)) from exc


def _syndrome_grid(assignment: family.NumberAssignment) -> str:
    lines = []
    n = assignment.n
    for start in range(1, n + 1, 4):
        block = range(start, min(start + 4, n + 1))
        for letter, values in (("X", assignment.fx), ("Z", assignment.fz), ("Y", assignment.fy)):
            lines.append(
                "  ".join(f"{letter}_{i} {assignment.as_string(int(values[i - 1]))}" for i in block)
            )
        lines.append("")
    return "\n".join(lines).rstrip("\n")


def _operator_rows(prefix: str, ops) -> str:
    ops = list(ops)
    width = len(f"{prefix}_{len(ops)}")
    return "\n".join(
        f"{f'{prefix}_{idx}':<{width}}  {pauli.format(op)}" for idx, op in enumerate(ops, 1)
    )


def _codeword_listing(states) -> str:
    lines = []
    for i, state in enumerate(states):
        parts = []
        for row in state.to_rows():
            sign = "+" if row["coeff"] > 0 else "-"
            parts.append(f"{sign}|{row['label']}>")
        lines.append(f"psi_{i} = " + " ".join(parts))
    return "\n".join(lines)


def _sparse_error(op: pauli.PauliOperator) -> str:
    """A +1 error as its letters on 1-based qubits, e.g. "X_1 Y_2"; "I" for the identity."""
    support = op.x_bits | op.z_bits
    names = []
    while support:
        i = (support & -support).bit_length()
        names.append(f"{pauli.letter(op, i)}_{i}")
        support &= support - 1
    return " ".join(names) or "I"


def cmd_family(args) -> int:
    if not family.MIN_J <= args.j <= family.MAX_J:
        raise UsageError(f"--j must lie in [{family.MIN_J}, {family.MAX_J}]")
    if args.emit == "codewords" and (1 << args.j) > oracle.MAX_QUBITS:
        raise UsageError(f"--emit codewords requires n <= {oracle.MAX_QUBITS}")
    if args.emit == "codewords" and args.json:
        raise UsageError("--emit codewords has no --json form")
    code = family.build_code(args.j)
    if args.out:
        try:
            code.save(args.out)
        except OSError as exc:
            raise UsageError(str(exc)) from exc
    if args.json:
        print(code.to_json())
    else:
        assignment = family.assign_numbers(args.j)
        print(f"family code j={args.j}: n={code.n}, k={code.k}, a={args.j + 2}")
        print()
        if code.n <= MAX_GRID_QUBITS:
            print("single-qubit error syndromes f(X_i), f(Z_i), f(Y_i):")
            print(_syndrome_grid(assignment))
            print()
        if code.n <= MAX_TEXT_QUBITS:
            print("generators:")
            print(_operator_rows("M", code.generators))
            print()
            print("seed generators:")
            print(_operator_rows("N", code.seed_generators))
        else:
            print(f"(n={code.n}: use --out or --json for the generator listing)")
        if args.out:
            print()
            print(f"wrote {args.out}")
    if args.emit == "codewords":
        group = code.group()
        states = codewords.basis(group, code.seed_generators)
        print()
        print("code words:")
        print(_codeword_listing(states))
    return 0


def cmd_verify(args) -> int:
    if args.t < 0:
        raise UsageError("--t must be non-negative")
    code = _load_spec(args.code)
    a = len(code.generators)
    # a repeat among the 2^a syndrome values comes within 2^a + 1 errors
    if (1 << a) + 1 > VERIFY_MAX_ERRORS and any(
        s > VERIFY_MAX_ERRORS for s in itertools.accumulate(bounds.hamming_terms(code.n, args.t))
    ):
        raise UsageError(
            f"the correctability walk at t={args.t} (n={code.n}, a={a}) may exceed {VERIFY_MAX_ERRORS} errors"
        )

    failures = []
    lines = [f"code: n={code.n}, k={code.k}, a={a}", "validate: ok"]  # the CodeSpec constructor validated
    group = code.group()
    report = stabilizer.check_correctability(group, args.t)
    if report.ok:
        lines.append(
            f"correctability t={args.t}: ok "
            f"({report.distinct_syndromes} distinct syndromes over {report.total_errors} errors)"
        )
    else:
        first, second = report.collision
        name = str if code.n <= MAX_TEXT_QUBITS else _sparse_error
        lines.append(
            f"correctability t={args.t}: FAIL "
            f"({name(first)} and {name(second)} share syndrome {stabilizer.syndrome(group, first)})"
        )
        failures.append("correctability")

    seed_problems = codewords.check_seeds(group, code.seed_generators)
    if seed_problems:
        lines.append(f"seed generators: FAIL ({'; '.join(seed_problems)})")
        failures.append("seeds")
    else:
        lines.append("seed generators: ok")

    oracle_report = None
    if args.oracle:
        if failures:
            lines.append("oracle: skipped (an earlier check failed)")
        elif code.n > oracle.MAX_QUBITS:
            lines.append(f"oracle: skipped (n={code.n} exceeds cap {oracle.MAX_QUBITS})")
        else:
            oracle_report = oracle.verify_code(code, args.t)
            lines.append(str(oracle_report))
            if not oracle_report.ok:
                failures.append("oracle")

    ok = not failures
    lines.append("result: PASS" if ok else "result: FAIL")
    if args.json:
        payload = {
            "n": code.n,
            "k": code.k,
            "t": args.t,
            "ok": ok,
            "failures": failures,
            "correctability": {
                "total_errors": report.total_errors,
                "distinct_syndromes": report.distinct_syndromes,
            },
        }
        if not report.ok:
            payload["correctability"]["collision"] = [_sparse_error(op) for op in report.collision]
        if oracle_report is not None:
            payload["oracle"] = {
                "rank": oracle_report.rank,
                "num_vectors": oracle_report.num_vectors,
                "dimension": oracle_report.dimension,
            }
        print(json.dumps(payload, indent=2))
    else:
        print("\n".join(lines))
    return 0 if ok else 1


def cmd_bound(args) -> int:
    if args.max_n < 1:
        raise UsageError("--max-n must be at least 1")
    if args.t < 0:
        raise UsageError("--t must be non-negative")
    if args.max_n * (min(args.t, args.max_n) + 1) > BOUND_MAX_TERMS:
        raise UsageError(f"--max-n * (min(--t, --max-n) + 1) must be at most {BOUND_MAX_TERMS}")
    rows = bounds.qhb_table(args.max_n, args.t)
    if args.json:
        print(json.dumps([{"n": n, "t": args.t, "max_k": k} for n, k in rows], indent=2))
    else:
        print(f"quantum Hamming bound: maximum k for t={args.t} (-1 means no code)")
        width = max(len(str(args.max_n)), 2)
        print(f"{'n':>{width}}  max_k")
        for n, k in rows:
            print(f"{n:>{width}}  {k}")
    return 0


def cmd_degenerate_bound(args) -> int:
    if args.n < 2:
        raise UsageError("--n must be at least 2")
    if args.n > DEGENERATE_MAX_N:
        raise UsageError(f"--n must be at most {DEGENERATE_MAX_N}")
    rows = [(l, bounds.degenerate_max_k(args.n, l)) for l in range(args.n)]
    holds, witness = bounds.degenerate_never_beats_qhb(args.n)
    qhb = bounds.qhb_max_k(args.n, 1)
    if args.json:
        print(
            json.dumps(
                {
                    "n": args.n,
                    "qhb_max_k": qhb,
                    "rows": [{"n": args.n, "l": l, "max_k": k} for l, k in rows],
                    "never_beats_qhb": holds,
                    "witness_l": witness,
                },
                indent=2,
            )
        )
    else:
        print(f"degenerate-code bound for n={args.n} (t=1); quantum Hamming bound k={qhb}")
        width = max(len(str(args.n - 1)), 2)
        print(f"{'l':>{width}}  max_k")
        for l, k in rows:
            print(f"{l:>{width}}  {k}")
        verdict = "yes" if holds else "NO"
        print(f"never beats quantum Hamming bound: {verdict} (max at l={witness})")
    return 0 if holds else 1


def cmd_syndrome(args) -> int:
    code = _load_spec(args.code)
    try:
        err = pauli.parse(args.error)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    if err.n != code.n:
        raise UsageError(f"error acts on {err.n} qubits, code has {code.n}")
    syn = stabilizer.syndrome(code.group(), err)
    if args.json:
        print(json.dumps({"error": pauli.format(err), "syndrome": str(syn)}, indent=2))
    else:
        print(f"error: {pauli.format(err)}")
        print(f"syndrome: {syn}")
    return 0


def cmd_simulate(args) -> int:
    seed, source = args.seed, "--seed"
    if seed is None:
        text, source = os.environ.get("STABFORGE_SEED", "0"), "STABFORGE_SEED"
        try:
            seed = int(text)
        except ValueError:
            raise UsageError(f"STABFORGE_SEED must be an integer, got {text!r}") from None
    if seed < 0:
        raise UsageError(f"{source} must be non-negative, got {seed}")
    code = _load_spec(args.code)
    try:
        stats = ecc_sim.run_campaign(code, args.model, args.trials, seed)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    if args.json:
        print(stats.to_json())
    else:
        print(f"model: {stats.model}")
        print(f"seed: {stats.seed}")
        print(f"trials: {stats.trials}")
        print(f"successes: {stats.successes}")
        print(f"success rate: {stats.success_rate:.6f}")
        print(f"min fidelity: {stats.min_fidelity:.12f}")
        print("syndrome histogram:")
        for key in sorted(stats.syndrome_histogram):
            print(f"  {key}: {stats.syndrome_histogram[key]}")
    return 0


BOUND_TABLE_MAX_N = 13


def cmd_tables(args) -> int:
    assignment = family.assign_numbers(3)
    code = family.build_code(3)
    rows = [(n, k) for n, k in bounds.qhb_table(BOUND_TABLE_MAX_N, 1) if n >= 5]
    if args.json:
        payload = {
            "syndromes": {
                name: [assignment.as_string(int(v)) for v in values]
                for name, values in (("fx", assignment.fx), ("fz", assignment.fz), ("fy", assignment.fy))
            },
            "code": {
                "generators": [pauli.format(g) for g in code.generators],
                "seed_generators": [pauli.format(g) for g in code.seed_generators],
            },
            "bound": [{"n": n, "max_k": k} for n, k in rows],
        }
        print(json.dumps(payload, indent=2))
    else:
        print("single-qubit error syndromes f(X_i), f(Z_i), f(Y_i) for n=8:")
        print(_syndrome_grid(assignment))
        print()
        print("generators and seed generators for n=8:")
        print(_operator_rows("M", code.generators))
        print(_operator_rows("N", code.seed_generators))
        print()
        print("maximum k allowed by the quantum Hamming bound (t=1):")
        print(" n  k")
        for n, k in rows:
            print(f"{n:>2}  {k}")
    return 0


@functools.cache  # built on first use, once per process; parse_args keeps no state in it
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="stabforge",
        description="construct, verify and simulate stabilizer error-correcting codes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("family", help="build a code from the 2^j family")
    p.add_argument("--j", type=int, required=True, help="exponent, n = 2^j (3..16)")
    p.add_argument("--emit", choices=["codewords"], help="also print the code words (n <= 12)")
    p.add_argument("--out", help="write the code spec JSON to this path")
    p.add_argument("--json", action="store_true", help="print the code spec JSON")
    p.set_defaults(func=cmd_family)

    p = sub.add_parser("verify", help="check a code spec file")
    p.add_argument("code", help="code spec JSON path")
    p.add_argument("--t", type=int, default=1, help="error weight to verify (default 1)")
    p.add_argument("--oracle", action="store_true", help="also run the dense oracle (n <= 12)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bound", help="quantum Hamming bound table")
    p.add_argument("--max-n", type=int, default=13)
    p.add_argument("--t", type=int, default=1)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("degenerate-bound", help="degenerate-code bound by condition count")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_degenerate_bound)

    p = sub.add_parser("syndrome", help="syndrome of a Pauli error against a code")
    p.add_argument("code", help="code spec JSON path")
    p.add_argument("--error", required=True, help="Pauli string, e.g. +XIIIIIII")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_syndrome)

    p = sub.add_parser("simulate", help="run error-correction trials")
    p.add_argument("code", help="code spec JSON path")
    p.add_argument(
        "--model",
        required=True,
        help="exhaustive | pauli:STR | matrix:a,b,c,d@i | depolarizing:p",
    )
    p.add_argument("--trials", type=int, default=100)
    p.add_argument(
        "--seed",
        type=int,
        help="master seed (default: STABFORGE_SEED or 0)",
    )
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("tables", help="print the reference tables")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_tables)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {str(exc).translate(_ESCAPED_BREAKS)}", file=sys.stderr)
        return 2
    except SystemExit:  # --help has printed its text
        return 0


if __name__ == "__main__":
    sys.exit(main())
