"""Validated stabilizer groups, syndromes and the correctability criterion.

A stabilizer group is given by an ordered list of generators M_1..M_a that
pairwise commute, square to +1 and are independent over GF(2) as symplectic
rows.  The syndrome of an error E is the a-bit string whose r-th bit (M_1
leftmost) records whether E anticommutes with M_r; the code corrects all
errors of weight <= t without degeneracy iff those syndromes are pairwise
distinct over the errors of weight <= t.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from . import gf2
from .pauli import PauliOperator, _integer, commutes, identity, multiply, single, square_sign


class StabilizerValidationError(ValueError):
    """Base class for generator-list rejections."""


class NotAbelianError(StabilizerValidationError):
    def __init__(self, r: int, s: int):
        self.r, self.s = r, s
        super().__init__(f"generators {r} and {s} anticommute")


class SquaresToMinusOneError(StabilizerValidationError):
    def __init__(self, r: int):
        self.r = r
        super().__init__(f"generator {r} squares to -1")


class DependentGeneratorError(StabilizerValidationError):
    def __init__(self, r: int):
        self.r = r
        super().__init__(f"generator {r} is a product of earlier generators")


class MinusIdentityError(StabilizerValidationError):
    def __init__(self, r: int):
        self.r = r
        super().__init__(f"a product of generators up to {r} equals -identity; the fixed space is empty")


class GroupTooLargeError(ValueError):
    pass


@dataclass(frozen=True)
class StabilizerGroup:
    """Validated generator list; construct through :func:`validate`."""

    n: int
    generators: tuple[PauliOperator, ...]

    @property
    def a(self) -> int:
        return len(self.generators)


@dataclass(frozen=True)
class Syndrome:
    """a-bit anticommutation record; bit of M_1 is the leftmost string bit."""

    value: int
    length: int

    def __str__(self) -> str:
        if self.length == 0:
            return ""
        return format(self.value, f"0{self.length}b")


class SignedEchelon:
    """Signed GF(2) echelon form of Pauli operators.

    Rows are keyed by the highest set bit of x << n | z, so X-parts are
    eliminated before Z-parts.  Reduction multiplies op on the right by
    stored rows, so the residue is exactly that product, sign included.
    """

    def __init__(self, rows=()):
        self.rows: dict[int, PauliOperator] = {}
        for row in rows:
            self.insert(row)

    @staticmethod
    def _key(op: PauliOperator) -> int:
        if op.x_bits:
            return op.n + op.x_bits.bit_length() - 1
        return op.z_bits.bit_length() - 1  # -1 for +-identity, never a key

    def reduce(self, op: PauliOperator) -> PauliOperator:
        """op times stored rows until no row shares its leading bit; a
        +-identity residue means op lies in the span, up to that sign."""
        while (row := self.rows.get(self._key(op))) is not None:
            op = multiply(op, row)
        return op

    def insert(self, op: PauliOperator) -> PauliOperator:
        """Reduce op and store the residue unless it is +-identity."""
        residue = self.reduce(op)
        key = self._key(residue)
        if key >= 0:
            self.rows[key] = residue
        return residue


def validate(n: int, generators) -> StabilizerGroup:
    """Check the stabilizer conditions and return the validated group.

    Raises NotAbelianError, SquaresToMinusOneError, or, for a generator that
    is a product of earlier ones, DependentGeneratorError (the product is
    +identity) or MinusIdentityError (-identity: the code is empty).
    """
    gens = tuple(generators)
    for r, g in enumerate(gens, 1):
        if g.n != n:
            raise ValueError(f"generator {r} acts on {g.n} qubits, expected {n}")
        if square_sign(g) == -1:
            raise SquaresToMinusOneError(r)
    for (r, g), (s, h) in itertools.combinations(enumerate(gens, 1), 2):
        if not commutes(g, h):
            raise NotAbelianError(r, s)

    # A dependent generator reduces to +-identity.  The generators commute,
    # so the sign of that product does not depend on the pivot order.
    echelon = SignedEchelon()
    for r, g in enumerate(gens, 1):
        residue = echelon.insert(g)
        if not (residue.x_bits or residue.z_bits):
            raise (MinusIdentityError if residue.sign == -1 else DependentGeneratorError)(r)
    return StabilizerGroup(n, gens)


def syndrome(group: StabilizerGroup, e: PauliOperator) -> Syndrome:
    """f(E): bit r is 0 iff E commutes with M_r.  f is a homomorphism."""
    if e.n != group.n:
        raise ValueError(f"error acts on {e.n} qubits, expected {group.n}")
    value = 0
    for g in group.generators:
        value = (value << 1) | (0 if commutes(g, e) else 1)
    return Syndrome(value, group.a)


def enumerate_elements(group: StabilizerGroup) -> list[PauliOperator]:
    """All 2^a signed subset products of the generators."""
    if group.a > 24:
        raise GroupTooLargeError(f"2^{group.a} elements is too many to enumerate")
    elems = [identity(group.n)]
    for g in group.generators:
        elems += [multiply(e, g) for e in elems]
    return elems


@dataclass(frozen=True)
class CorrectabilityReport:
    ok: bool
    t: int
    total_errors: int
    distinct_syndromes: int
    collision: Optional[tuple[PauliOperator, PauliOperator]] = None


def _descriptors(n: int, lo: int, t: int) -> Iterator[tuple]:
    """(qubit, letter) tuples of weight lo..min(t, n): weight ascending, then qubits, then XYZ."""
    for ell in range(lo, min(t, n) + 1):
        for qubits in itertools.combinations(range(1, n + 1), ell):
            for letters in itertools.product("XYZ", repeat=ell):
                yield tuple(zip(qubits, letters))


def iter_errors(n: int, t: int) -> Iterator[PauliOperator]:
    """Pauli errors of weight <= t: weight ascending, then qubits, then XYZ."""
    for desc in _descriptors(n, 0, max(t, 0)):
        yield materialize(n, desc)


def weight_one_syndromes(group: StabilizerGroup) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Syndrome values of (X_i, Y_i, Z_i) for all i at once.

    A single-qubit error anticommutes with M_r exactly when M_r carries the
    conjugate component on that qubit, so the syndromes are bit columns of
    the generators: f(X_i)_r = z-bit of M_r at i, f(Z_i)_r = x-bit at i.
    Returns arrays (sx, sy, sz) indexed by i-1, M_1 as the high bit: int64
    when a <= 62, else object arrays of Python ints, so any a works.
    """
    n, gens = group.n, group.generators
    sx = _column_values(gf2.bits([g.z_bits for g in gens], n))
    sz = _column_values(gf2.bits([g.x_bits for g in gens], n))
    return sx, sx ^ sz, sz


# float32 sums of distinct powers of two are exact below 2^24
_EXACT_ROWS = 24
# columns per float32 product, so no (a, n) float array is made
_CHUNK_COLUMNS = 4096


def _column_values(rows: np.ndarray) -> np.ndarray:
    """Each column of an (a, n) 0/1 array as an a-bit number, row 0 the high
    bit: int64 when a <= 62, else Python ints in an object array.  Groups of
    up to 24 rows are read by an exact float32 product and shifted in."""
    a, n = rows.shape
    dtype = np.int64 if a <= 62 else object
    out = np.zeros(n, dtype=dtype)
    for start in range(0, n, _CHUNK_COLUMNS):
        chunk = rows[:, start : start + _CHUNK_COLUMNS]
        value = out[start : start + _CHUNK_COLUMNS]
        for top in range(0, a, _EXACT_ROWS):
            group = chunk[top : top + _EXACT_ROWS]
            weights = np.ldexp(np.float32(1), np.arange(len(group) - 1, -1, -1, dtype=np.int32))
            value = value << len(group) | (weights @ group.astype(np.float32)).astype(np.int64)
        out[start : start + _CHUNK_COLUMNS] = value
    return out


def materialize(n: int, desc) -> PauliOperator:
    """The error named by a descriptor of (qubit, letter) pairs."""
    err = identity(n)
    for i, L in desc:
        err = multiply(err, single(n, i, L))
    return err


def _light_syndromes(group: StabilizerGroup, t: int) -> np.ndarray:
    """Syndrome values of I, X_1, Y_1, Z_1, X_2, ... (iter_errors order), or
    of I alone when t < 1."""
    if t < 1:
        return np.zeros(1, dtype=np.int64)
    sx, sy, sz = weight_one_syndromes(group)
    light = np.zeros(1 + 3 * group.n, dtype=sx.dtype)
    light[1::3], light[2::3], light[3::3] = sx, sy, sz
    return light


def _light_descriptor(m: int) -> tuple:
    """Descriptor of error m of the weight <= 1 walk I, X_1, Y_1, Z_1, X_2, ..."""
    return () if m == 0 else (((m - 1) // 3 + 1, "XYZ"[(m - 1) % 3]),)


def _heavy_syndromes(n: int, light: list, t: int) -> Iterator[tuple[tuple, int]]:
    """(descriptor, syndrome value) of the errors of weight 2..t in iter_errors
    order: f is a homomorphism, so each value is the XOR of the light values
    of the error's letters, and no operator is built."""
    for desc in _descriptors(n, 2, t):
        value = 0
        for i, L in desc:
            value ^= light[3 * i - 2 + "XYZ".index(L)]
        yield desc, value


def error_syndromes(group: StabilizerGroup, t: int) -> Iterator[tuple[tuple, int]]:
    """(descriptor, syndrome value) of every error of weight <= t in
    iter_errors order: the one walk over errors and their syndromes.  Values
    are bit columns (weight_one_syndromes) and, above weight 1, their XORs."""
    light = _light_syndromes(group, t).tolist()
    for m, value in enumerate(light):  # just I when t < 1
        yield _light_descriptor(m), value
    yield from _heavy_syndromes(group.n, light, t)


def check_correctability(group: StabilizerGroup, t: int) -> CorrectabilityReport:
    """Verify that f is injective on errors of weight <= t.

    A collision is a report outcome, not an exception; the first colliding
    pair in enumeration order is returned as the witness.  This is the one
    first-repeat rule: build_syndrome_table takes its verdict.  The values
    are error_syndromes'.

    The N errors of weight <= 1 are checked as one array against a table
    with one slot per syndrome value, which holds the walk index of the
    first error with that value: the first repeat is the first index m
    whose value's slot does not hold m, found with no sort.  Heavier errors
    are streamed; each looks its value up in that table and in a dict of
    the heavy values seen so far, so the scan stops at the first repeat
    without holding them all.  Witnesses are rebuilt from walk indices.
    When the values are Python ints (a > 62) or the 2^a slots would
    outnumber the N errors more than 8 to 1, a sort (np.unique) and a dict
    from each light value to its index stand in for the table.
    """
    t = _integer(t, "t")
    if t < 0:
        raise ValueError("t must be non-negative")
    n = group.n
    light = _light_syndromes(group, t)
    size = len(light)
    # walk indices and the table in the narrowest type that holds size: the largest arrays here
    walk = np.arange(size, dtype=np.min_scalar_type(size))
    if light.dtype == object or (1 << group.a) > 8 * size:
        _, first_index, inverse = np.unique(light, return_index=True, return_inverse=True)
        first_of = first_index[inverse.ravel()]
        table = None
    else:
        table = np.full(1 << group.a, size, dtype=walk.dtype)  # size: no error of weight <= 1 has this value
        np.minimum.at(table, light, walk)
        first_of = table[light]
    repeats = np.flatnonzero(first_of != walk)
    if repeats.size:
        m = int(repeats[0])
        pair = (materialize(n, _light_descriptor(int(first_of[m]))), materialize(n, _light_descriptor(m)))
        return CorrectabilityReport(False, t, m + 1, m, pair)
    if t < 2:
        return CorrectabilityReport(True, t, size, size)
    values = light.tolist()
    index = dict(zip(values, range(size))) if table is None else None  # the values are distinct here
    heavy = {}
    total = size
    for desc, value in _heavy_syndromes(n, values, t):
        total += 1
        m = table.item(value) if index is None else index.get(value, size)
        if m < size:
            earlier = _light_descriptor(m)
        elif value in heavy:
            earlier = heavy[value]
        else:
            heavy[value] = desc
            continue
        return CorrectabilityReport(False, t, total, total - 1, (materialize(n, earlier), materialize(n, desc)))
    return CorrectabilityReport(True, t, total, total)
