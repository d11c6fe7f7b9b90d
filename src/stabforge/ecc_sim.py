"""End-to-end error-correction protocol: encode, corrupt, measure, correct.

The syndrome measurement is modeled as a sequence of projective measurements
of the generators M_1..M_a in order; the ancilla of the physical protocol is
kept as classical measurement record only, which is equivalent and halves
the simulable size.  Coherent errors need not be unitary: the measurement
collapses any single-qubit error matrix onto one of its Pauli components,
each of which the table then corrects.

Randomness contract: every trial uses a numpy Generator derived from
(master seed, trial index), so campaigns are reproducible and the trials
are order-independent.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from . import codewords
from .oracle import StateVector, apply_pauli, apply_single_qubit, dense_from_formal
from .pauli import PauliOperator, identity, multiply, parse as parse_pauli, single
from .stabilizer import (
    StabilizerGroup,
    Syndrome,
    iter_errors,
    syndrome as syndrome_of,
    validate,
)

FIDELITY_TOL = 1e-10
_PROB_EPS = 1e-12


class DegenerateSyndromesError(ValueError):
    """Two errors of weight <= t share a syndrome; no lookup table exists."""


@dataclass(frozen=True)
class SyndromeTable:
    """Minimal-weight correction per syndrome; zero syndrome -> identity."""

    t: int
    entries: dict[Syndrome, PauliOperator]

    def correction(self, syn: Syndrome) -> Optional[PauliOperator]:
        return self.entries.get(syn)


@dataclass(frozen=True)
class RecoveryReport:
    syndrome: Optional[Syndrome]
    correction: Optional[PauliOperator]
    fidelity: float
    success: bool


@dataclass(frozen=True)
class PauliError:
    op: PauliOperator


@dataclass(frozen=True, eq=False)
class MatrixError:
    matrix: np.ndarray
    qubit: int


@dataclass(frozen=True)
class DepolarizingError:
    p: float


ErrorSpec = Union[PauliError, MatrixError, DepolarizingError]


def parse_error_spec(text: str, n: int) -> ErrorSpec:
    """Parse "pauli:STR", "matrix:a,b,c,d@i" or "depolarizing:p"."""
    kind, sep, rest = text.partition(":")
    if not sep:
        raise ValueError(f"bad error model {text!r}")
    if kind == "pauli":
        op = parse_pauli(rest)
        if op.n != n:
            raise ValueError(f"error acts on {op.n} qubits, code has {n}")
        return PauliError(op)
    if kind == "matrix":
        entries, sep, qubit = rest.partition("@")
        if not sep:
            raise ValueError("matrix error needs @qubit, e.g. matrix:1,0,0,1@3")
        texts = entries.split(",")
        if len(texts) != 4:
            raise ValueError(f"matrix error needs 4 comma-separated entries, got {len(texts)}")
        try:
            a, b, c, d = (complex(x) for x in texts)
        except ValueError:
            raise ValueError(f"matrix entries must be complex numbers, got {entries!r}") from None
        if not all(cmath.isfinite(x) for x in (a, b, c, d)):
            raise ValueError(f"matrix entries must be finite, got {entries!r}")
        try:
            i = int(qubit)
        except ValueError:
            raise ValueError(f"matrix qubit must be an integer, got {qubit!r}") from None
        if not 1 <= i <= n:
            raise ValueError(f"qubit {i} out of range 1..{n}")
        return MatrixError(np.array([[a, b], [c, d]]), i)
    if kind == "depolarizing":
        try:
            p = float(rest)
        except ValueError:
            raise ValueError(f"depolarizing probability must be a number, got {rest!r}") from None
        if not 0 <= p <= 1:
            raise ValueError(f"depolarizing probability must lie in [0, 1], got {p}")
        return DepolarizingError(p)
    raise ValueError(f"unknown error model kind {kind!r}")


def build_syndrome_table(code, t: int) -> SyndromeTable:
    """Enumerate errors in increasing weight and record one correction per
    syndrome; a repeated syndrome means the code cannot correct t errors."""
    group = validate(code.n, code.generators)
    entries: dict[Syndrome, PauliOperator] = {}
    for err in iter_errors(code.n, t):
        syn = syndrome_of(group, err)
        if syn in entries:
            raise DegenerateSyndromesError(
                f"syndrome {syn} of {err} already assigned to {entries[syn]}"
            )
        entries[syn] = err
    return SyndromeTable(t, entries)


def measure_syndrome(
    v: StateVector, group: StabilizerGroup, rng: np.random.Generator
) -> tuple[Syndrome, StateVector]:
    """Projectively measure each generator in order, collapsing the state.

    Bit r of the syndrome is 0 for outcome +1.  Outcome probabilities within
    1e-12 of 0 or 1 are taken as exact so eigenstates measure
    deterministically regardless of roundoff.
    """
    if v.n != group.n:
        raise ValueError("state and group qubit counts differ")
    nrm = v.norm()
    if nrm < 1e-15:
        raise ValueError("cannot measure the zero state")
    amps = v.amplitudes / nrm
    value = 0
    for g in group.generators:
        moved = apply_pauli(g, StateVector(v.n, amps)).amplitudes
        plus = (amps + moved) / 2.0
        p_plus = float(np.linalg.norm(plus) ** 2)
        if p_plus >= 1.0 - _PROB_EPS:
            outcome_plus = True
        elif p_plus <= _PROB_EPS:
            outcome_plus = False
        else:
            outcome_plus = rng.random() < p_plus
        if outcome_plus:
            amps = plus / np.sqrt(p_plus)
            value = value << 1
        else:
            minus = (amps - moved) / 2.0
            amps = minus / np.sqrt(1.0 - p_plus)
            value = (value << 1) | 1
    return Syndrome(value, group.a), StateVector(v.n, amps)


def _unit_scaled(m: np.ndarray) -> np.ndarray:
    """m times the power of two that puts its largest real or imaginary
    part in [1, 2); an all-zero m stays zero.

    The syndrome measurement normalizes the damaged state, so the scale
    only matters for keeping it finite and away from zero: huge entries
    would overflow to inf and tiny ones would read as annihilation.  A
    power of two is exact for every entry that stays a normal float, and a
    matrix already in range is not touched.  Parts rather than moduli set
    the scale, because |x + iy| can overflow when x and y do not.
    """
    m = np.ascontiguousarray(m, dtype=np.complex128)
    parts = m.view(np.float64)  # real and imaginary parts side by side
    shift = 1 - math.frexp(float(np.abs(parts).max()))[1]
    return m if shift == 0 else np.ldexp(parts, shift).view(np.complex128)


class Simulator:
    """Reusable context for one code: group, dense basis, syndrome table."""

    def __init__(self, code, t: int = 1):
        self.code = code
        self.group = validate(code.n, code.generators)
        self.table = build_syndrome_table(code, t)
        formal = codewords.basis(self.group, code.seed_generators)
        self.basis = [dense_from_formal(s) for s in formal]
        self.k = code.n - self.group.a
        self._basis_matrix = np.stack([s.amplitudes for s in self.basis])

    def logical_state(self, coeffs: np.ndarray) -> StateVector:
        coeffs = np.asarray(coeffs, dtype=np.complex128)
        amps = coeffs @ self._basis_matrix
        return StateVector(self.code.n, amps)

    def random_logical(self, rng: np.random.Generator) -> StateVector:
        c = rng.standard_normal(1 << self.k) + 1j * rng.standard_normal(1 << self.k)
        return self.logical_state(c / np.linalg.norm(c))

    def _apply_error(self, error: ErrorSpec, v: StateVector, rng) -> StateVector:
        if isinstance(error, PauliError):
            return apply_pauli(error.op, v)
        if isinstance(error, MatrixError):
            return apply_single_qubit(_unit_scaled(error.matrix), error.qubit, v)
        if isinstance(error, DepolarizingError):
            op = identity(self.code.n)
            for i in range(1, self.code.n + 1):
                if rng.random() < error.p:
                    op = multiply(op, single(self.code.n, i, "XYZ"[rng.integers(3)]))
            return apply_pauli(op, v)
        raise TypeError(f"unsupported error spec {error!r}")

    def trial(self, error: ErrorSpec, rng: np.random.Generator, logical=None) -> RecoveryReport:
        """One encode / corrupt / measure / correct round.

        ``logical`` is a basis-word index, an amplitude vector over the
        logical words, or None for a random superposition.  An error that
        annihilates the state or a syndrome outside the table is reported,
        not raised.
        """
        if logical is None:
            psi_in = self.random_logical(rng)
        elif isinstance(logical, (int, np.integer)):
            psi_in = self.basis[int(logical)]
        else:
            psi_in = self.logical_state(logical)

        damaged = self._apply_error(error, psi_in, rng)
        if damaged.norm() < 1e-15:
            return RecoveryReport(None, None, 0.0, False)
        syn, collapsed = measure_syndrome(damaged, self.group, rng)
        corr = self.table.correction(syn)
        out = collapsed if corr is None else apply_pauli(corr, collapsed)
        fidelity = float(abs(np.vdot(psi_in.amplitudes, out.amplitudes)))
        success = corr is not None and fidelity >= 1.0 - FIDELITY_TOL
        return RecoveryReport(syn, corr, fidelity, success)


def run_trial(code, error: ErrorSpec, rng: np.random.Generator, logical=None) -> RecoveryReport:
    return Simulator(code).trial(error, rng, logical=logical)


def trial_rng(seed: int, index: int) -> np.random.Generator:
    """Independent stream for one trial, keyed by (master seed, trial index)."""
    return np.random.default_rng([seed, index])


@dataclass(frozen=True)
class CampaignStats:
    model: str
    seed: int
    trials: int
    successes: int
    success_rate: float
    min_fidelity: float
    syndrome_histogram: dict[str, int]

    def to_json(self) -> str:
        data = {
            "model": self.model,
            "seed": self.seed,
            "trials": self.trials,
            "successes": self.successes,
            "success_rate": self.success_rate,
            "min_fidelity": self.min_fidelity,
            "syndrome_histogram": dict(sorted(self.syndrome_histogram.items())),
        }
        return json.dumps(data, indent=2)


def run_campaign(code, model: str, trials: int, seed: int) -> CampaignStats:
    """Aggregate run_trial over a model; same seed gives identical output.

    The "exhaustive" model ignores ``trials`` and runs every single-qubit
    Pauli error against every logical basis word.
    """
    if trials < 0:
        raise ValueError(f"trials must be non-negative, got {trials}")
    sim = Simulator(code)
    reports = []
    if model == "exhaustive":
        index = 0
        for i in range(1, code.n + 1):
            for letter in "XYZ":
                err = PauliError(single(code.n, i, letter))
                for word in range(1 << sim.k):
                    reports.append(sim.trial(err, trial_rng(seed, index), logical=word))
                    index += 1
    else:
        spec = parse_error_spec(model, code.n)
        for index in range(trials):
            reports.append(sim.trial(spec, trial_rng(seed, index)))

    histogram: dict[str, int] = {}
    for r in reports:
        key = str(r.syndrome) if r.syndrome is not None else "annihilated"
        histogram[key] = histogram.get(key, 0) + 1
    successes = sum(r.success for r in reports)
    return CampaignStats(
        model=model,
        seed=seed,
        trials=len(reports),
        successes=successes,
        success_rate=successes / len(reports) if reports else 0.0,
        min_fidelity=min((r.fidelity for r in reports), default=0.0),
        syndrome_histogram=histogram,
    )
