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
import functools
import itertools
import json
import math
import sys
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from . import codewords
from .oracle import StateVector, _check_n, dense_from_formal, pauli_action, single_qubit_product
from .pauli import PauliOperator, parse as parse_pauli
from .stabilizer import (
    StabilizerGroup, Syndrome, check_correctability, error_syndromes, iter_errors, materialize, syndrome, validate,
)

FIDELITY_TOL = 1e-10
# trials simulated together as rows of one (rows, 2^n) array; bounds the
# extra memory of a campaign to a few such arrays
TRIAL_BLOCK_ROWS = 8
_PROB_EPS = 1e-12
_ZERO_NORM = 1e-15


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
    """Map the syndrome of each error of weight <= t to that error.

    check_correctability decides whether the syndromes are distinct; if two
    collide, DegenerateSyndromesError names its witness pair.  Otherwise
    the entries come from stabilizer.error_syndromes in its order, weight
    ascending, so each is a minimal-weight correction.
    """
    return _syndrome_table(validate(code.n, code.generators), t)


def _syndrome_table(group: StabilizerGroup, t: int) -> SyndromeTable:
    """build_syndrome_table on an already validated group."""
    report = check_correctability(group, t)
    if not report.ok:
        first, second = report.collision
        raise DegenerateSyndromesError(
            f"syndrome {syndrome(group, second)} of {second} already assigned to {first}"
        )
    entries = {
        Syndrome(value, group.a): materialize(group.n, desc) for desc, value in error_syndromes(group, t)
    }
    return SyndromeTable(t, entries)


@functools.lru_cache(maxsize=8)
def _generator_actions(group: StabilizerGroup) -> tuple:
    """Each generator's gather form, read-only, cached so that measure_syndrome
    (given only the group) reuses the actions its Simulator holds."""
    actions = tuple(pauli_action(group.n, g.x_bits, g.z_bits, g.sign) for g in group.generators)
    for perm, coef in actions:
        perm.flags.writeable = coef.flags.writeable = False
    return actions


def _sqnorm(row: np.ndarray) -> float:
    """np.linalg.norm(row) ** 2 before its square root, reduced the same way."""
    re, im = row.real, row.imag
    return float(re.dot(re)) + float(im.dot(im))


def _outcome_plus(p_plus: float, rng: np.random.Generator) -> bool:
    """Probabilities within _PROB_EPS of 0 or 1 are exact, so eigenstates
    measure deterministically regardless of roundoff."""
    if p_plus >= 1.0 - _PROB_EPS:
        return True
    if p_plus <= _PROB_EPS:
        return False
    return rng.random() < p_plus


def _measure_rows(amps, norms, actions, rngs) -> tuple[list[int], np.ndarray]:
    """Projectively measure each generator in order on every row of amps.

    Row r has norm norms[r] > 0 and draws only from rngs[r].  The
    arithmetic is element-wise or per row, so each row gets the floats it
    would get alone.  Returns the syndrome values and the collapsed rows.
    """
    amps = amps / norms[:, None]
    values = [0] * len(rngs)
    for perm, coef in actions:
        # in place where a temporary can be reused: a campaign's peak memory
        # is mostly these (rows, 2^n) arrays
        moved = amps.take(perm, axis=1)
        moved *= coef
        plus = amps + moved
        plus /= 2.0
        keep_plus, kept = [], []
        for r, rng in enumerate(rngs):
            # math.sqrt and ** are the correctly rounded sqrt and the libm
            # pow that np.linalg.norm(plus) ** 2 uses
            p_plus = math.sqrt(_sqnorm(plus[r])) ** 2
            up = _outcome_plus(p_plus, rng)
            keep_plus.append(up)
            kept.append(p_plus if up else 1.0 - p_plus)
            values[r] = (values[r] << 1) | (not up)
        if all(keep_plus):
            amps = plus
        else:
            amps -= moved
            amps /= 2.0  # the minus projection
            amps = np.where(np.array(keep_plus)[:, None], plus, amps)
        amps /= np.sqrt(kept)[:, None]
    return values, amps


def measure_syndrome(
    v: StateVector, group: StabilizerGroup, rng: np.random.Generator
) -> tuple[Syndrome, StateVector]:
    """Projectively measure each generator in order, collapsing the state.

    Bit r of the syndrome is 0 for outcome +1.  Outcome probabilities within
    1e-12 of 0 or 1 are taken as exact so eigenstates measure
    deterministically regardless of roundoff.  This is the trial kernel's
    measurement on one row.
    """
    if v.n != group.n:
        raise ValueError("state and group qubit counts differ")
    nrm = v.norm()
    if nrm < _ZERO_NORM:
        raise ValueError("cannot measure the zero state")
    values, amps = _measure_rows(v.amplitudes[None, :], np.array([nrm]), _generator_actions(group), [rng])
    return Syndrome(values[0], group.a), StateVector(v.n, amps[0])


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
        _check_n(code.n)  # before the 2^k basis, which a large code cannot hold
        self.code = code
        self.group = validate(code.n, code.generators)
        self.table = _syndrome_table(self.group, t)
        problems = codewords.check_seeds(self.group, code.seed_generators)
        if problems:  # the logical basis is built from the seeds
            raise ValueError("; ".join(problems))
        formal = codewords.basis(self.group, code.seed_generators)
        self.basis = [dense_from_formal(s) for s in formal]
        self.k = code.n - self.group.a
        self._basis_matrix = np.stack([s.amplitudes for s in self.basis])
        self._generator_actions = _generator_actions(self.group)
        # syndrome value -> (syndrome, correction, its gather form), so that
        # a trial looks its correction's action up instead of rebuilding it
        self._corrections = {
            syn.value: (syn, corr, pauli_action(corr.n, corr.x_bits, corr.z_bits, corr.sign))
            for syn, corr in self.table.entries.items()
        }

    def _encode(self, coeffs) -> np.ndarray:
        return np.asarray(coeffs, dtype=np.complex128) @ self._basis_matrix

    def random_logical(self, rng: np.random.Generator) -> StateVector:
        return StateVector(self.code.n, self._random_amplitudes(rng))

    def _random_amplitudes(self, rng: np.random.Generator) -> np.ndarray:
        c = rng.standard_normal(1 << self.k) + 1j * rng.standard_normal(1 << self.k)
        return self._encode(c / math.sqrt(_sqnorm(c)))  # np.linalg.norm(c), inlined

    def _input_amplitudes(self, logical, rng) -> np.ndarray:
        if logical is None:
            return self._random_amplitudes(rng)
        if isinstance(logical, (int, np.integer)):
            return self._basis_matrix[int(logical)]
        return self._encode(logical)

    def _depolarizing_action(self, p: float, rng) -> tuple[np.ndarray, np.ndarray]:
        # one draw per qubit, then a letter for each hit; the qubits are
        # distinct, so the product of the single-qubit letters has sign +1
        x = z = 0
        for bit in range(self.code.n):
            if rng.random() < p:
                letter = rng.integers(3)  # X, Y, Z
                x |= (letter != 2) << bit
                z |= (letter != 0) << bit
        return pauli_action(self.code.n, x, z)

    def _damage(self, error: ErrorSpec, psi: np.ndarray, rngs) -> np.ndarray:
        if isinstance(error, PauliError):
            op = error.op
            perm, coef = pauli_action(op.n, op.x_bits, op.z_bits, op.sign)
            damaged = psi.take(perm, axis=1)
            damaged *= coef
            return damaged
        if isinstance(error, MatrixError):
            return single_qubit_product(_unit_scaled(error.matrix), error.qubit, psi)
        if isinstance(error, DepolarizingError):
            damaged = np.empty_like(psi)
            for r, rng in enumerate(rngs):
                perm, coef = self._depolarizing_action(error.p, rng)
                damaged[r] = coef * psi[r, perm]
            return damaged
        raise TypeError(f"unsupported error spec {error!r}")

    def trial(self, error: ErrorSpec, rng: np.random.Generator, logical=None) -> RecoveryReport:
        """One encode / corrupt / measure / correct round.

        ``logical`` is a basis-word index, an amplitude vector over the
        logical words, or None for a random superposition.  An error that
        annihilates the state or a syndrome outside the table is reported,
        not raised.
        """
        return self._trial_block(error, [rng], [logical])[0]

    def _trial_block(self, error: ErrorSpec, rngs, logicals) -> list[RecoveryReport]:
        """Simulator.trial for each (rng, logical) pair, as one row each.

        Row r draws only from rngs[r], in the order of a lone trial: the
        logical amplitudes, then the error, then the measurement.
        """
        psi = np.stack([self._input_amplitudes(lg, rng) for lg, rng in zip(logicals, rngs)])
        damaged = self._damage(error, psi, rngs)
        norms = np.sqrt([_sqnorm(row) for row in damaged])
        live = np.flatnonzero(norms >= _ZERO_NORM)
        reports = [RecoveryReport(None, None, 0.0, False)] * len(rngs)
        values, out = _measure_rows(
            damaged[live], norms[live], self._generator_actions, [rngs[r] for r in live]
        )
        for i, r in enumerate(live):
            hit = self._corrections.get(values[i])
            if hit is None:
                syn, corr = Syndrome(values[i], self.group.a), None
            else:
                syn, corr, (perm, coef) = hit
                out[i] = coef * out[i, perm]
            fidelity = float(abs(np.vdot(psi[r], out[i])))
            success = corr is not None and fidelity >= 1.0 - FIDELITY_TOL
            reports[r] = RecoveryReport(syn, corr, fidelity, success)
        return reports


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


def _blocks(indices: range):
    """Consecutive slices of at most TRIAL_BLOCK_ROWS indices."""
    for start in range(0, len(indices), TRIAL_BLOCK_ROWS):
        yield indices[start : start + TRIAL_BLOCK_ROWS]


def run_campaign(code, model: str, trials: int, seed: int) -> CampaignStats:
    """Aggregate Simulator.trial over a model; same seed gives identical output.

    The "exhaustive" model ignores ``trials`` and runs every single-qubit
    Pauli error against every logical basis word.
    """
    if not 0 <= trials <= sys.maxsize:  # a range longer than sys.maxsize has no len()
        raise ValueError(f"trials must lie in [0, {sys.maxsize}], got {trials}")
    sim = Simulator(code)
    reports = []
    if model == "exhaustive":
        index = 0
        for op in itertools.islice(iter_errors(code.n, 1), 1, None):  # the identity comes first
            err = PauliError(op)
            for words in _blocks(range(1 << sim.k)):
                rngs = [trial_rng(seed, index + j) for j in range(len(words))]
                reports += sim._trial_block(err, rngs, list(words))
                index += len(words)
    else:
        spec = parse_error_spec(model, code.n)
        for block in _blocks(range(trials)):
            reports += sim._trial_block(spec, [trial_rng(seed, i) for i in block], [None] * len(block))

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
