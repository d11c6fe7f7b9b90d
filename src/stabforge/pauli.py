"""Exact sign-tracking algebra of the n-qubit Pauli group.

Operators are stored in binary-symplectic form: two n-bit integers
``x_bits`` and ``z_bits`` plus a sign in {+1, -1}.  Bit ``i-1`` of
``x_bits`` (``z_bits``) is set iff the operator has an X (Z) component
on qubit ``i``; qubit indices are 1-based in every interface.  The
represented operator is::

    sign * prod_i X_i^{x_i} Z_i^{z_i}

with the per-qubit convention Y := X*Z, i.e. the real matrix
[[0, -1], [1, 0]].  All four basis matrices are real, so products only
ever pick up signs, never imaginary phases.

Text form: an explicit "+" or "-" followed by one character per qubit
from {I, X, Y, Z}, qubit 1 leftmost, e.g. "+XIXIZYZY".  ``parse`` also
reads an unsigned string as +1 and U+2212 "−" as a minus sign.

``PureX`` holds a +1 pure-X operator as its qubit support instead, so a
seed X_1 X_c on 65,536 qubits costs a 2-tuple, not two 8 KB ints;
``PureXList`` holds many as one flat array, making each on access.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
import re
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .gf2 import bits

# (x_bit, z_bit) per letter
_LETTER_BITS = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
# letters indexed by the per-qubit code x | z << 1
_CODE_ORDER = "IXZY"
_CODE_LETTERS = np.frombuffer(_CODE_ORDER.encode("ascii"), dtype=np.uint8)
_ILLEGAL = re.compile("[^IXYZ]")
# letter -> x bit and letter -> z bit, as binary digits
_X_DIGITS = str.maketrans("IXYZ", "0110")
_Z_DIGITS = str.maketrans("IXYZ", "0011")


@dataclass(frozen=True)
class PauliOperator:
    """Immutable n-qubit Pauli group element; safe to share across tasks."""

    n: int
    x_bits: int
    z_bits: int
    sign: int = 1

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"qubit count must be positive, got {self.n}")
        if self.sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {self.sign}")
        if self.x_bits < 0 or self.x_bits >> self.n:
            raise ValueError("x_bits out of range for n qubits")
        if self.z_bits < 0 or self.z_bits >> self.n:
            raise ValueError("z_bits out of range for n qubits")

    def __str__(self) -> str:
        return format(self)


class PureX:
    """Immutable +1 pure-X operator on n qubits, held as its support: the
    strictly ascending 1-based qubits on which it acts as X.

    It reads like a PauliOperator (``n``, ``x_bits``, ``z_bits``, ``sign``,
    all read-only), so the functions of this module take it, but it is a
    plain (n, support) record: it equals and hashes as that pair, and never
    equals a PauliOperator.  ``x_bits`` is built on each access and not kept.
    """

    __slots__ = ("_n", "_support")
    z_bits = 0
    sign = 1

    def __init__(self, n: int, support):
        self._support = pure_xs(n, [support])[0].support
        self._n = n

    n = property(operator.attrgetter("_n"))
    support = property(operator.attrgetter("_support"))

    @property
    def x_bits(self) -> int:
        return sum(1 << (q - 1) for q in self.support)  # the bits are distinct

    def __eq__(self, other):
        if isinstance(other, PureX):
            return self.n == other.n and self.support == other.support
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.n, self.support))

    def __repr__(self) -> str:
        return f"PureX(n={self.n}, support={self.support})"

    def __str__(self) -> str:
        return format(self)


class PureXList(Sequence):
    """Immutable sequence of +1 pure-X operators on n qubits, held as the
    read-only arrays ``qubits``, every support one after another, and
    ``ends``, where each ends.  Items are PureX made on access (a slice is
    a tuple of them).  It equals only another PureXList with the same n and
    arrays, and hashes like the tuple of its items.

    The constructor is the one check of supports: 1 <= n < 2^63, integer
    entries only (a float or bool raises TypeError), ``ends`` non-decreasing
    from 0 to the qubit count, and each support strictly ascending in 1..n,
    a range error anywhere before an order error, whose ``support_index`` is
    the bad support's 1-based position.  Only then are qubits narrowed
    (int32 if n < 2^31).
    """

    __slots__ = ("_n", "_ends", "_qubits")

    def __init__(self, n: int, ends, qubits):
        if not 1 <= n < 1 << 63:
            raise ValueError(f"qubit count must lie in 1..2^63 - 1, got {n}")
        ends, qubits = np.asarray(ends), np.asarray(qubits)
        for name, a in (("ends", ends), ("qubits", qubits)):  # an object array holds pure_xs' out-of-range ints
            if a.size and a.dtype.kind not in "iu" and not (a.dtype == object and set(map(type, a.flat)) <= {int}):
                raise TypeError(f"{name} must hold integers, got {a.dtype} entries")
        ends = np.array(ends, dtype=np.int64)
        if (np.diff(ends, prepend=0) < 0).any() or (ends[-1] if ends.size else 0) != qubits.size:
            raise ValueError(f"ends must rise from 0 to {qubits.size}, the qubit count")
        rising = np.diff(qubits) > 0
        # a step from the last qubit of one support to the first of the next is not an order check
        rising[ends[(ends > 0) & (ends < qubits.size)] - 1] = True
        if qubits.size and (qubits.min() < 1 or qubits.max() > n):
            exc, position = ValueError(f"support out of range 1..{n}"), np.flatnonzero((qubits < 1) | (qubits > n))[0]
        elif not rising.all():
            exc, position = ValueError("support must be strictly ascending"), np.argmin(rising)
        else:
            self._n, self._ends = n, ends
            self._qubits = qubits.astype(np.int32 if n < 1 << 31 else np.int64)
            ends.flags.writeable = self._qubits.flags.writeable = False
            return
        exc.support_index = int(np.searchsorted(ends, position, side="right")) + 1
        raise exc

    n = property(operator.attrgetter("_n"))
    ends = property(operator.attrgetter("_ends"))
    qubits = property(operator.attrgetter("_qubits"))

    def __len__(self) -> int:
        return len(self._ends)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(map(self.__getitem__, range(len(self))[index]))
        i = range(len(self))[index]
        return self._item(int(self._ends[i - 1]) if i else 0, int(self._ends[i]))

    def __iter__(self):  # lazy: all the supports at once would be one more copy of the list
        ends = self._ends.tolist()
        return itertools.starmap(self._item, zip(itertools.chain((0,), ends), ends))

    def _item(self, start: int, end: int) -> PureX:
        p = object.__new__(PureX)
        p._n, p._support = self._n, tuple(self._qubits[start:end].tolist())
        return p

    def supports(self) -> list[list[int]]:
        """Every support as a list of qubits, from one pass over the arrays."""
        flat, ends = self._qubits.tolist(), self._ends.tolist()
        return list(map(flat.__getitem__, map(slice, itertools.chain((0,), ends), ends)))

    def __eq__(self, other):
        if not isinstance(other, PureXList):
            return NotImplemented
        return self._n == other.n and np.array_equal(self._ends, other.ends) and np.array_equal(self._qubits, other.qubits)

    def __hash__(self) -> int:
        return hash(tuple(self))  # perfbench's build-large fingerprint hashes tuple(seeds)

    def __repr__(self) -> str:
        return f"PureXList(n={self._n}, {len(self)} supports)"


def pure_xs(n: int, supports) -> PureXList:
    """PureXList of PureX(n, s) for s in supports, which must hold integers
    (not bools); a TypeError's ``support_index`` names the bad support.

    One pass over the supports flattens them and records where each ends;
    only when some qubit is not a Python int (numpy integers, or bad input)
    are the qubits checked and converted support by support."""
    flat, ends = [], []
    extend, end = flat.extend, ends.append
    for support in supports:
        extend(support)
        end(len(flat))
    if set(map(type, flat)) - {int}:
        for index, (start, stop) in enumerate(zip([0, *ends], ends)):
            try:
                flat[start:stop] = map(_integer, flat[start:stop])
            except TypeError as exc:
                exc.support_index = index + 1
                raise
    try:
        qubits = np.array(flat, dtype=np.int64)
    except OverflowError:  # out of range, so kept as Python ints for the check to name
        qubits = np.array(flat, dtype=object)
    return PureXList(n, ends, qubits)


def _integer(value, name: str = "a qubit") -> int:
    """value as an int (operator.index, bools refused), else a TypeError naming it."""
    try:
        if not isinstance(value, bool):
            return operator.index(value)
    except TypeError:
        pass
    raise TypeError(f"{name} must be an integer, got {_json_name(value)}")


def _json_name(value) -> str:
    """A JSON value as one short phrase: null, true, false or the number as
    written (an integer of over 40 characters by its digit count, found
    without str(), which refuses over 4,300 digits), else "a string", "an
    array" or "an object"; any other Python value by its type name."""
    if isinstance(value, int) and not -(10**39) < value < 10**40:
        digits = max(0, int(abs(value).bit_length() * math.log10(2)) - 1)  # not above the digit count
        while abs(value) >= 10**digits:
            digits += 1
        return f"{'a negative' if value < 0 else 'an'} integer of {digits} digits"
    if value is None or isinstance(value, (bool, int, float)):
        return json.dumps(value)
    return {str: "a string", list: "an array", dict: "an object"}.get(type(value), type(value).__name__)


def identity(n: int) -> PauliOperator:
    """The +1 identity on n qubits."""
    return PauliOperator(n, 0, 0, 1)


def single(n: int, i: int, letter: str) -> PauliOperator:
    """Single-qubit X_i, Y_i or Z_i on n qubits (1-based i)."""
    if not 1 <= i <= n:
        raise ValueError(f"qubit index {i} out of range 1..{n}")
    if letter not in ("X", "Y", "Z"):
        raise ValueError(f"letter must be X, Y or Z, got {letter!r}")
    x, z = _LETTER_BITS[letter]
    bit = 1 << (i - 1)
    return PauliOperator(n, x * bit, z * bit, 1)


def multiply(p: PauliOperator, q: PauliOperator) -> PauliOperator:
    """Product PQ.

    Commuting P's Z-components past Q's X-components gives one -1 per
    overlapping qubit, hence sign = p.sign * q.sign * (-1)^popcount(p.z & q.x).
    """
    if p.n != q.n:
        raise ValueError(f"qubit count mismatch: {p.n} != {q.n}")
    swaps = (p.z_bits & q.x_bits).bit_count()
    sign = p.sign * q.sign * (1 if swaps % 2 == 0 else -1)
    return PauliOperator(p.n, p.x_bits ^ q.x_bits, p.z_bits ^ q.z_bits, sign)


def commutes(p: PauliOperator, q: PauliOperator) -> bool:
    """True iff PQ = QP; signs are irrelevant."""
    if p.n != q.n:
        raise ValueError(f"qubit count mismatch: {p.n} != {q.n}")
    return ((p.x_bits & q.z_bits) ^ (p.z_bits & q.x_bits)).bit_count() % 2 == 0


def weight(p: PauliOperator) -> int:
    """Number of qubits on which p acts non-trivially."""
    return (p.x_bits | p.z_bits).bit_count()


def square_sign(p: PauliOperator) -> int:
    """Sign of p*p: +1 iff the number of Y positions is even."""
    return 1 if (p.x_bits & p.z_bits).bit_count() % 2 == 0 else -1


def letter(p: PauliOperator, i: int) -> str:
    """Letter (I, X, Y or Z) of p on qubit i."""
    if not 1 <= i <= p.n:
        raise ValueError(f"qubit index {i} out of range 1..{p.n}")
    bit = i - 1
    return _CODE_ORDER[((p.x_bits >> bit) & 1) | ((p.z_bits >> bit) & 1) << 1]


def parse(s: str) -> PauliOperator:
    """Parse a sign-prefixed letter string; the sign prefix is optional."""
    if not s:
        raise ValueError("empty Pauli string")
    sign = 1
    if s[0] in "+-−":
        sign = 1 if s[0] == "+" else -1
        s = s[1:]
    if not s:
        raise ValueError("Pauli string has a sign but no letters")
    bad = _ILLEGAL.search(s)
    if bad:
        raise ValueError(f"illegal character {bad.group()!r} in Pauli string")
    # qubit 1 is bit 0, so the leftmost letter is the least significant digit
    body = s[::-1]
    x_bits = int(body.translate(_X_DIGITS), 2)
    z_bits = int(body.translate(_Z_DIGITS), 2)
    return PauliOperator(len(s), x_bits, z_bits, sign)


def format(p: PauliOperator) -> str:
    """Canonical text form: explicit sign, then one letter per qubit."""
    codes = bits(p.x_bits, p.n)[0]
    if p.z_bits:  # seeds are pure X
        codes |= bits(p.z_bits, p.n)[0] << 1
    return ("+" if p.sign == 1 else "-") + _CODE_LETTERS[codes].tobytes().decode("ascii")
