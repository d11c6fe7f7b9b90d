"""End-to-end error-correction protocol: encode, corrupt, measure, correct.

The syndrome measurement is modeled as a sequence of projective measurements
of the generators M_1..M_a in order; the ancilla of the physical protocol is
kept as classical measurement record only, which is equivalent and halves
the simulable size.  Coherent errors need not be unitary: the measurement
collapses any single-qubit error matrix onto one of its Pauli components,
each of which the table then corrects.

Randomness contract: every trial uses a numpy Generator derived from
(master seed, trial index), so campaigns are reproducible and the trials
are order-independent.  Every campaign (an int seed >= 0) seeds them in
bulk, by a vectorized port of numpy's seeding checked against trial_rng.

Kernel: a block of trials is one (rows, 2^n) complex array, worked on
through its float64 view.  The Paulis of all rows are one gather and real
+-1 signs from oracle.pauli_action, which verify_code shares; a Simulator
caches its table's correction gathers, read-only.  The squared norms of all
rows come from one np.vecdot, one BLAS dot per row over its real parts plus
one over its imaginary parts, as np.linalg.norm reduces them; a division by
a real is a product with its reciprocal, as numpy divides a complex by a
real.  No float of a row depends on the other rows, so the output of a
campaign does not depend on how its trials are split into blocks.  A
Pauli-damaged row is an exact joint eigenstate: the basis rows are exact +1
eigenvectors with disjoint supports and one magnitude, a gemv adds only
exact zeros to c_w B[w, x], gathers are exact and rounding is symmetric in
sign.  So one gather at its largest float reads every outcome, and of the
projections only the rescales by 1 / sqrt(p) stay, one per +1 outcome until
that factor is 1.0: a row that never settles pays all of them.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import json
import math
import numbers
import sys
from dataclasses import asdict, dataclass
from typing import Optional, Union

import numpy as np

from . import codewords
from .oracle import StateVector, _check_n, dense_from_formal, pauli_action, single_qubit_product
from .pauli import PauliOperator, _integer, _json_name, parse as parse_pauli
from .stabilizer import (
    StabilizerGroup, Syndrome, check_correctability, error_syndromes, iter_errors, materialize, syndrome, validate,
)

FIDELITY_TOL = 1e-10
# trials simulated together as rows of one (rows, 2^n) complex array, 2 MiB
# at n = 12; the extra memory of a campaign is a few such arrays
TRIAL_BLOCK_ROWS = 32
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


_ANNIHILATED = RecoveryReport(None, None, 0.0, False)


@dataclass(frozen=True)
class PauliError:
    op: PauliOperator


@dataclass(frozen=True, eq=False)
class MatrixError:
    """A 2 x 2 matrix of finite complex entries on one qubit, an integer
    (stored as an int); the qubit's range is checked against the code."""

    matrix: np.ndarray
    qubit: int

    def __post_init__(self):
        try:
            ok = np.shape(self.matrix) == (2, 2) and np.isfinite(np.asarray(self.matrix, np.complex128)).all()
        except (TypeError, ValueError):
            ok = False
        if not ok:
            raise ValueError("matrix error needs a 2 x 2 matrix of finite complex entries")
        object.__setattr__(self, "qubit", _integer(self.qubit, "matrix qubit"))


@dataclass(frozen=True)
class DepolarizingError:
    """Each qubit independently takes X, Y or Z, each with probability p / 3 (p real, not a bool)."""

    p: float

    def __post_init__(self):
        if isinstance(self.p, bool) or not isinstance(self.p, numbers.Real):
            raise TypeError(f"depolarizing probability must be a real number, got {_json_name(self.p)}")
        if not 0 <= self.p <= 1:  # nan too
            raise ValueError(f"depolarizing probability must lie in [0, 1], got {self.p}")


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
def _generator_actions(group: StabilizerGroup) -> tuple[np.ndarray, np.ndarray]:
    """The generators as real gathers and +-1 signs on the float64 view, one
    (a, 2^(n+1)) array each, read-only and cached for measure_syndrome."""
    table = np.array([(g.x_bits, g.z_bits, g.sign) for g in group.generators], np.int64).reshape(-1, 3)
    perm, coef = pauli_action(group.n, *table.T[:, :, None])
    perms, signs = (2 * perm[:, :, None] + (0, 1)).reshape(group.a, 2 << group.n), np.repeat(coef, 2, axis=1)
    perms.flags.writeable = signs.flags.writeable = False
    return perms, signs


def _row_sqnorms(f: np.ndarray) -> list[float]:
    """np.linalg.norm(row) ** 2 of each complex row of the float64 view f, summed
    the same way: a BLAS dot of its strided real parts plus one of its imaginary."""
    parts = f.reshape(len(f), -1, 2)
    return [re + im for re, im in np.vecdot(parts, parts, axis=1).tolist()]


def _row_factors(scales: list[float]):
    """scales as a factor that multiplies row r by scales[r]; a lone row's is a float."""
    return scales[0] if len(scales) == 1 else np.array(scales)[:, None]


def _apply_paulis(amps: np.ndarray, paulis, gathers) -> np.ndarray:
    """Row r of amps under paulis[r] = (x_bits, z_bits, sign), by one pauli_action gather, or gathers[P]
    if one Pauli P in it acts on every row; the identity returns amps itself, equal up to the sign of a zero."""
    rows, size = amps.shape
    if paulis.count(paulis[0]) == len(paulis):
        if paulis[0] == (0, 0, 1):  # the identity moves no amplitude
            return amps
        perm, coef = gathers.get(paulis[0]) or pauli_action(size.bit_length() - 1, *paulis[0])
        out = amps.take(perm, axis=1)
    else:
        perm, coef = pauli_action(size.bit_length() - 1, *np.array(paulis).T[:, :, None])
        out = amps.take(perm + np.arange(0, rows * size, size)[:, None])  # flat index of label perm in each row
    out *= coef
    return out


def _eigen_rows(f, perms, signs) -> Optional[tuple[list[int], np.ndarray]]:
    """The eigenstate step of _measure_rows on the scaled rows f, or None."""
    i0, base = np.abs(f).argmax(axis=1), np.arange(0, f.size, f.shape[1])
    moved = f.take(perms.take(i0, axis=1) + base) * signs.take(i0, axis=1)  # [j, r]: (M_j f_r) at label i0[r]
    values = []
    for f0, images in zip(f.take(i0 + base).tolist(), moved.T.tolist()):
        value = 0
        for m in images:
            if (m == f0) == (m == -f0):  # a zero f0 matches both signs, a nan neither
                return None
            value = value << 1 | (m != f0)
        values.append(value)
    # round i rescales by 1 / sqrt(p) each row with at least i +1 outcomes (0 bits) and no factor of 1.0 yet
    out, pending, i = f.copy(), [r for r, v in enumerate(values) if v.bit_count() < len(perms)], 0
    while pending:  # a row copy keeps its strides, so its dot and its floats are those in out
        sub = out if len(pending) == len(f) else out[pending]
        scales = []
        for sq in _row_sqnorms(sub):
            if (p := math.sqrt(sq) ** 2) < 1.0 - _PROB_EPS:
                return None  # a projection would draw its outcome
            scales.append(1.0 / math.sqrt(p))
        sub *= _row_factors(scales)
        if sub is not out:
            out[pending] = sub
        i += 1
        pending = [r for r, c in zip(pending, scales) if c != 1.0 and values[r].bit_count() < len(perms) - i]
    return values, out.view(np.complex128)


def _measure_rows(amps, norms, actions, rngs, eigen=False) -> tuple[list[int], np.ndarray]:
    """Projectively measure each generator in order on every row of amps.

    Row r has norm norms[r] > 0 and draws only from rngs[r].  The arithmetic
    is element-wise or per row, so each row gets the floats it would get
    alone.  Returns the syndrome values and the collapsed rows.  With eigen
    (Pauli-damaged code states, see above), bit j is 1 if generator j maps a
    row's largest float to exactly minus itself, 0 if to itself; -1 keeps the
    row, +1 rescales it by 1 / sqrt(p) as its projection does, up to the
    first 1.0.  A row that matches neither sign projects the whole block.
    """
    # numpy divides a complex by a real c as the product of both parts with
    # 1.0 / c, so scaling the float64 view gives the same floats up to the
    # sign of a zero, which no output can see
    f = amps.view(np.float64) * _row_factors([1.0 / nrm for nrm in norms])
    if eigen and (measured := _eigen_rows(f, *actions)):
        return measured
    values = [0] * len(rngs)
    for perm, sign in zip(*actions):
        moved = f.take(perm, axis=1)  # in place below: peak memory is these arrays
        moved *= sign
        plus = f + moved
        plus *= 0.5
        keep_plus, scales = [], []
        for r, (sq, rng) in enumerate(zip(_row_sqnorms(plus), rngs)):
            # the correctly rounded sqrt and libm pow of np.linalg.norm(plus) ** 2;
            # within _PROB_EPS of 0 or 1 is exact, so eigenstates measure
            # deterministically regardless of roundoff
            p_plus = math.sqrt(sq) ** 2
            up = p_plus >= 1.0 - _PROB_EPS or (p_plus > _PROB_EPS and rng.random() < p_plus)
            keep_plus.append(up)
            scales.append(1.0 / math.sqrt(p_plus if up else 1.0 - p_plus))
            values[r] = (values[r] << 1) | (not up)
        if not all(keep_plus):
            f -= moved
            f *= 0.5  # the minus projection
            np.copyto(plus, f, where=~np.array(keep_plus)[:, None])
        plus *= _row_factors(scales)
        f = plus
    return values, f.view(np.complex128)


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
    values, amps = _measure_rows(v.amplitudes[None, :], [nrm], _generator_actions(group), [rng])
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
        keys = [(c.x_bits, c.z_bits, c.sign) for c in self.table.entries.values()]  # each correction as a Pauli
        perms, coefs = pauli_action(code.n, *np.array(keys).T[:, :, None])  # and its gather, cached read-only
        perms.flags.writeable = coefs.flags.writeable = False
        self._gathers = dict(zip(keys, zip(perms, coefs)))
        self._corrections = {syn.value: (syn, c, key) for (syn, c), key in zip(self.table.entries.items(), keys)}

    def random_logical(self, rng: np.random.Generator) -> StateVector:
        return StateVector(self.code.n, self._logical_amplitudes([rng], [None])[0])

    def _logical_amplitudes(self, rngs, logicals) -> np.ndarray:
        """Row r encodes basis word logicals[r], the unit amplitudes
        logicals[r] over the words, or for None a random superposition whose
        real parts, then imaginary parts, are drawn from rngs[r]."""
        size = 1 << self.k
        parts = np.zeros((len(rngs), 2, size))
        for r, (logical, rng) in enumerate(zip(logicals, rngs)):
            if logical is None:
                rng.standard_normal(out=parts[r])
            elif isinstance(logical, (int, np.integer)):
                if isinstance(logical, bool) or not 0 <= logical < size:
                    raise ValueError(f"logical word must be an integer in 0..{size - 1}, got {logical!r}")
                parts[r, 0, logical] = 1.0  # the gemv adds only exact zeros to its basis row
            else:
                vec = np.asarray(logical, dtype=np.complex128)
                norm = float(np.linalg.norm(vec))
                if vec.shape != (size,) or not abs(norm - 1.0) <= FIDELITY_TOL:
                    raise ValueError(
                        f"logical amplitudes need length {size}, got shape {vec.shape}" if vec.shape != (size,)
                        else f"logical amplitudes need 2-norm 1 within {FIDELITY_TOL}, got {norm}"
                    )
                parts[r] = vec.real, vec.imag
        # one interleaving copy: a + 1j * b rounds nothing, and a zero's sign no output sees
        f = parts.transpose(0, 2, 1).reshape(len(rngs), 2 * size)
        coeffs = f.view(np.complex128)
        f *= _row_factors([1.0 / math.sqrt(sq) if lg is None else 1.0 for sq, lg in zip(_row_sqnorms(f), logicals)])
        return np.matmul(coeffs[:, None, :], self._basis_matrix)[:, 0]  # one gemv per row

    def _damage(self, error: ErrorSpec, psi: np.ndarray, rngs) -> np.ndarray:
        if isinstance(error, PauliError):
            op = error.op
            if op.n != self.code.n:
                raise ValueError(f"error acts on {op.n} qubits, code has {self.code.n}")
            return _apply_paulis(psi, [(op.x_bits, op.z_bits, op.sign)], self._gathers)
        if isinstance(error, MatrixError):
            if not 1 <= error.qubit <= self.code.n:
                raise ValueError(f"qubit {error.qubit} out of range 1..{self.code.n}")
            return single_qubit_product(_unit_scaled(error.matrix), error.qubit, psi)
        if isinstance(error, DepolarizingError):
            # one draw per qubit, then a letter for each hit; the qubits are
            # distinct, so the product of the single-qubit letters has sign +1
            paulis, p = [], error.p
            for rng in rngs:
                x = z = 0
                for bit in range(self.code.n):
                    if rng.random() < p:
                        letter = rng.integers(3)  # X, Y, Z
                        x |= int(letter != 2) << bit
                        z |= int(letter != 0) << bit
                paulis.append((x, z, 1))
            return _apply_paulis(psi, paulis, self._gathers)
        raise TypeError(f"unsupported error spec {error!r}")

    def trial(self, error: ErrorSpec, rng: np.random.Generator, logical=None) -> RecoveryReport:
        """One encode / corrupt / measure / correct round.

        ``logical`` is a basis-word index, a unit amplitude vector over the
        logical words, or None for a random superposition; anything else
        raises ValueError.  An error that annihilates the state or a
        syndrome outside the table is reported, not raised.
        """
        return self._trial_block(error, [rng], [logical])[0]

    def _trial_block(self, error: ErrorSpec, rngs, logicals) -> list[RecoveryReport]:
        """Simulator.trial for each (rng, logical) pair, as one row each.

        Row r draws only from rngs[r], in the order of a lone trial: the
        logical amplitudes, then the error, then the measurement.
        """
        psi = self._logical_amplitudes(rngs, logicals)
        damaged = self._damage(error, psi, rngs)
        norms = [math.sqrt(sq) for sq in _row_sqnorms(damaged.view(np.float64))]
        live = [r for r, nrm in enumerate(norms) if nrm >= _ZERO_NORM]
        reports = [_ANNIHILATED] * len(rngs)
        if not live:
            return reports
        if len(live) < len(rngs):
            psi, damaged, norms, rngs = psi[live], damaged[live], [norms[r] for r in live], [rngs[r] for r in live]
        values, out = _measure_rows(damaged, norms, self._generator_actions, rngs, not isinstance(error, MatrixError))
        found = [self._corrections.get(v) or (Syndrome(v, self.group.a), None, (0, 0, 1)) for v in values]
        out = _apply_paulis(out, [key for _, _, key in found], self._gathers)
        for r, (syn, corr, _), overlap in zip(live, found, np.vecdot(psi, out).tolist()):
            fidelity = abs(overlap)
            reports[r] = RecoveryReport(syn, corr, fidelity, corr is not None and fidelity >= 1.0 - FIDELITY_TOL)
        return reports


def trial_rng(seed: int, index: int) -> np.random.Generator:
    """Independent stream for one trial, keyed by (master seed, trial index)."""
    return np.random.default_rng([seed, index])


# numpy's SeedSequence hash constants and PCG64's 128-bit multiplier
_MASK32, _INIT_A, _MULT_A, _INIT_B, _MULT_B = 0xFFFFFFFF, 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R, _PCG_MULT, _MASK128 = 0xCA01F9DD, 0x4973F715, 0x2360ED051FC65DA44385DF649FCCF645, (1 << 128) - 1
_SEED_CHUNK = 4096  # trial streams keyed per vectorized pass


def _words(value: int) -> list[int]:
    """value's 32-bit words, lowest first, as SeedSequence splits an int; never loops."""
    return [value >> s & _MASK32 for s in range(0, max(value.bit_length(), 1), 32)]


def _hasher(const: int, mult: int):
    """SeedSequence's hashmix on a 32-bit word or column, its constant running on."""
    def hashmix(value):
        nonlocal const
        value = (value ^ const) * (const := const * mult & _MASK32) & _MASK32
        return value ^ value >> 16
    return hashmix


def _mix(x, y):
    r = (_MIX_L * x - _MIX_R * y) & _MASK32
    return r ^ r >> 16


def _pcg64_seeds(seed: int, start: int, stop: int) -> list[tuple[int, int]]:
    """The PCG64 (state, inc) of trial_rng(seed, i) for i in range(start, stop):
    numpy's SeedSequence (mix_entropy into 4 words, generate_state(4, uint64))
    on the words of seed then i, and PCG64's srandom, ported with i's lowest
    word as a uint64 column masked to 32 bits and the 128-bit step on ints."""
    if stop > (cut := (start | _MASK32) + 1):  # i's higher words change at multiples of 2^32
        return _pcg64_seeds(seed, start, cut) + _pcg64_seeds(seed, cut, stop)
    low = np.arange(max(stop - start, 0), dtype=np.uint64) + (start & _MASK32)
    words = [*_words(seed), low, *(_words(start >> 32) if start >> 32 else [])]
    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(w) for w in (words + [0] * 4)[:4]]
    for src, dst in itertools.permutations(range(4), 2):
        pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for w, dst in itertools.product(words[4:], range(4)):
        pool[dst] = _mix(pool[dst], hashmix(w))
    hashmix = _hasher(_INIT_B, _MULT_B)
    out = [hashmix(pool[i % 4]) for i in range(8)]
    seeds = []
    for a, b, c, d in zip(*((out[i] | out[i + 1] << 32).tolist() for i in range(0, 8, 2))):
        inc = (c << 65 | d << 1 | 1) & _MASK128
        seeds.append((((a << 64 | b) + inc) * _PCG_MULT + inc & _MASK128, inc))
    return seeds


def _trial_streams(seed: int, count: int):
    """trial_rng(seed, i) for i in range(count), lazily and in order: a pool
    of TRIAL_BLOCK_ROWS Generators from trial_rng, handed out in turn, each
    good until TRIAL_BLOCK_ROWS more are drawn and each keyed, from stream 0
    on, by _pcg64_seeds, which must match trial_rng's stream 0 first."""
    pool = [trial_rng(seed, i) for i in range(min(count, TRIAL_BLOCK_ROWS))]
    if pool and _pcg64_seeds(seed, 0, 1)[0] != tuple(pool[0].bit_generator.state["state"].values()):
        raise AssertionError("the bulk trial streams differ from trial_rng")
    key = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0}
    for start in range(0, count, _SEED_CHUNK):
        for i, (state, inc) in enumerate(_pcg64_seeds(seed, start, min(start + _SEED_CHUNK, count)), start):
            key["state"] = {"state": state, "inc": inc}
            pool[i % len(pool)].bit_generator.state = key
            yield pool[i % len(pool)]


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
        data = asdict(self)  # the fields in order
        data["syndrome_histogram"] = dict(sorted(self.syndrome_histogram.items()))
        return json.dumps(data, indent=2)


def _blocks(indices: range):
    """Consecutive slices of at most TRIAL_BLOCK_ROWS indices."""
    for start in range(0, len(indices), TRIAL_BLOCK_ROWS):
        yield indices[start : start + TRIAL_BLOCK_ROWS]


def run_campaign(code, model: str, trials: int, seed: int) -> CampaignStats:
    """Aggregate Simulator.trial over a model; same seed gives identical output.

    The "exhaustive" model ignores ``trials`` and runs every single-qubit
    Pauli error against every logical basis word.  ``seed`` and ``trials``
    must be integers, not bools (TypeError), and the seed non-negative
    (ValueError); a numpy integer is read, and reported, as an int.
    """
    seed, trials = _integer(seed, "seed"), _integer(trials, "trials")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {_json_name(seed)}")
    if not 0 <= trials <= sys.maxsize:  # a range longer than sys.maxsize has no len()
        raise ValueError(f"trials must lie in [0, {sys.maxsize}], got {_json_name(trials)}")
    sim = Simulator(code)
    streams = _trial_streams(seed, 3 * code.n << sim.k if model == "exhaustive" else trials)  # index = trials so far
    if model == "exhaustive":
        errors = itertools.islice(iter_errors(code.n, 1), 1, None)  # the identity comes first
        blocks = ((PauliError(op), list(words)) for op in errors for words in _blocks(range(1 << sim.k)))
    else:
        spec = parse_error_spec(model, code.n)
        blocks = ((spec, [None] * len(block)) for block in _blocks(range(trials)))
    count = successes = 0
    min_fidelity, histogram = math.inf, {}
    for error, logicals in blocks:  # folded in as each block finishes, so memory does not grow with the trials
        reports = sim._trial_block(error, list(itertools.islice(streams, len(logicals))), logicals)
        count += len(reports)
        successes += sum(r.success for r in reports)
        min_fidelity = min(min_fidelity, *(r.fidelity for r in reports))
        for r in reports:
            key = str(r.syndrome) if r.syndrome is not None else "annihilated"
            histogram[key] = histogram.get(key, 0) + 1
    return CampaignStats(
        model=model,
        seed=seed,
        trials=count,
        successes=successes,
        success_rate=successes / count if count else 0.0,
        min_fidelity=min_fidelity if count else 0.0,
        syndrome_histogram=histogram,
    )
