"""Exact code words as signed integer sums of computational basis labels.

Generators are first classified: type-1 generators keep an independent
X-part after Gaussian elimination (each maps a basis label to a new label),
type-2 generators are pure products of Z's with sign +1 (each fixes labels
up to sign).  A code word is the orbit sum of a seed label under the group,
computed over type-1 subset products only; it has exactly 2^b terms with
coefficients +/-1, or is zero when a type-2 generator has eigenvalue -1 on
the seed.

Basis labels are ints with qubit i at bit i-1; their text form writes
qubit 1 leftmost, matching the Pauli string convention.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import gf2
from .pauli import PauliOperator, PureXList
from .stabilizer import GroupTooLargeError, SignedEchelon, StabilizerGroup, enumerate_elements


class MinusSignPureZError(ValueError):
    """A generator reduced to a pure-Z operator with sign -1.

    The all-zeros seed then produces no code word, so the seed-based
    construction cannot proceed.
    """


@dataclass(frozen=True)
class GeneratorClassification:
    type1: tuple[PauliOperator, ...]
    type2: tuple[PauliOperator, ...]

    @property
    def b(self) -> int:
        return len(self.type1)


@dataclass
class FormalState:
    """Unnormalized integer combination of basis labels; {} is the zero vector."""

    n: int
    terms: dict[int, int] = field(default_factory=dict)

    def canonical(self) -> "FormalState":
        """Flip the global sign so the lexicographically smallest label has +1."""
        if not self.terms:
            return FormalState(self.n, {})
        smallest = min(self.terms, key=lambda lab: label_to_string(lab, self.n))
        if self.terms[smallest] > 0:
            return FormalState(self.n, dict(self.terms))
        return FormalState(self.n, {lab: -c for lab, c in self.terms.items()})

    def to_rows(self) -> list[dict]:
        """Serial form: [{"label": bits, "coeff": c}, ...], labels sorted ascending."""
        return [
            {"label": label_to_string(lab, self.n), "coeff": self.terms[lab]}
            for lab in sorted(self.terms, key=lambda lab: label_to_string(lab, self.n))
        ]


def label_to_string(label: int, n: int) -> str:
    return "".join("1" if (label >> b) & 1 else "0" for b in range(n))


def classify_generators(group: StabilizerGroup) -> GeneratorClassification:
    """Split the generators into type-1 and type-2 by eliminating X-parts.

    Generators are multiplied together (signs tracked) until each either has
    an X-part independent of the earlier type-1 ones or is a pure product of
    Z's.  A pure-Z result with sign -1 raises MinusSignPureZError.
    """
    type1: list[PauliOperator] = []
    type2: list[PauliOperator] = []
    echelon = SignedEchelon()  # holds the type-1 rows only
    for g in group.generators:
        cur = echelon.reduce(g)
        if cur.x_bits:
            echelon.insert(cur)
            type1.append(cur)
        else:
            if cur.sign == -1:
                raise MinusSignPureZError(f"generator {g} reduces to {cur}")
            if cur.z_bits:  # a +identity residue adds nothing
                type2.append(cur)
    return GeneratorClassification(tuple(type1), tuple(type2))


def seed_generators(group: StabilizerGroup) -> PureXList:
    """Pure-X operators N_1..N_{n-a} whose products seed all the code words.

    The X-vectors are (i) orthogonal over GF(2) to the Z-vector of every
    type-2 generator, so the seeds keep eigenvalue +1, and (ii) coset
    representatives of that kernel K modulo the span of the type-1 X-parts
    T, taken in ascending order of the X-vector read as an integer (qubit 1
    the low bit).  For the 2^j family this rule lands on the X_1 X_c pairs.

    K has the basis v_c of :func:`gf2.nullspace_rref`, one per free column c.
    In that basis a kernel vector's coordinates are its bits on the free
    columns, v_c becomes the unit vector e_c, and the highest bit stays the
    same: it is the highest free column present.  T lies inside K: a type-1
    generator commutes with every type-2 generator, which is pure Z, so its
    X-part is orthogonal to their Z-parts.  Hence v_c lies in the span of T
    and the v_c' with c' < c exactly when c is the highest bit of some
    vector of span(T), a pivot of T's echelon form; the other v_c are the
    seeds.  Classification leaves the type-1 X-parts in echelon form, so
    those pivots are their highest bits.

    The seeds are one PureXList on the arrays from nullspace_rref, those
    pivots skipped; no seed is an n-bit int or an object of its own.
    """
    cls = classify_generators(group)
    pivots = [g.x_bits.bit_length() - 1 for g in cls.type1]
    return PureXList(group.n, *gf2.nullspace_rref([g.z_bits for g in cls.type2], group.n, skip=pivots))


def check_seeds(group: StabilizerGroup, seeds: PureXList) -> list[str]:
    """Problems with a claimed seed list, one PureXList on n qubits (anything
    else raises TypeError); empty means valid.

    In seed order each seed must commute with every type-2 generator and be
    independent modulo the type-1 X-parts and the seeds before it; a seed's
    problem is the first of these it fails.  Type-2 parities and leading X
    bits come at once from the arrays.  Vectors with distinct leading bits are
    independent, and the type-1 X-parts are in echelon form, so SignedEchelon,
    the one independence decision, runs only when a commuting seed is the
    identity or shares its leading bit with a type-1 pivot or another seed.

    A group outside the seed construction (MinusSignPureZError) is one more
    problem, after the count check.
    """
    n = group.n
    problems = _require_seeds(seeds, n, n - group.a)
    try:
        cls = classify_generators(group)
    except MinusSignPureZError as exc:
        return problems + [str(exc)]
    odd, leads = _support_checks(seeds, cls.type2, n)
    found: dict[int, str] = {}  # seed index -> its problem
    for idx in (np.flatnonzero(odd) + 1).tolist():
        found[idx] = f"seed {idx} anticommutes with a type-2 generator"
    pivots = [g.x_bits.bit_length() - 1 for g in cls.type1]
    counts = np.bincount(np.concatenate((np.array(pivots, dtype=np.int64), leads[~odd])) + 1, minlength=1)
    if counts[0] or counts.max() > 1:  # bin 0 counts identities, leading bit -1
        span = SignedEchelon(cls.type1)
        for idx in (np.flatnonzero(~odd) + 1).tolist():
            if not span.insert(seeds[idx - 1]).x_bits:
                found[idx] = f"seed {idx} is dependent modulo the type-1 X-parts"
    return problems + [found[idx] for idx in sorted(found)]


def _require_seeds(seeds, n: int, k: int | None = None) -> list[str]:
    """The one seed rule, for CodeSpec, check_seeds, encode and basis: seeds
    must be one PureXList on n qubits (else TypeError).  Given k, the result
    is check_seeds' count problem if seeds does not hold k seeds."""
    if not (isinstance(seeds, PureXList) and seeds.n == n):
        raise TypeError(
            f"seeds must be a PureXList on {n} qubits: a CodeSpec's seed_generators, "
            "or pauli.pure_xs of their qubit supports"
        )
    return [] if k is None or len(seeds) == k else [f"expected {k} seed generators, got {len(seeds)}"]


def _support_checks(seeds: PureXList, type2, n: int) -> tuple[np.ndarray, np.ndarray]:
    """For each seed, whether it anticommutes with some type-2 generator,
    and its leading bit (its highest qubit minus one; -1 for the identity)."""
    ends = seeds.ends
    starts = ends - np.diff(ends, prepend=0)
    bits = seeds.qubits - 1
    # prefix XORs of the type-2 Z bits along the concatenated supports: a
    # support's parities are the XOR of the prefixes at its two ends
    zbits = gf2.bits([g.z_bits for g in type2], n)
    prefix = np.zeros((len(type2), len(bits) + 1), dtype=np.uint8)
    np.bitwise_xor.accumulate(zbits[:, bits], axis=1, out=prefix[:, 1:])
    odd = (prefix[:, ends] ^ prefix[:, starts]).any(axis=0)
    leading = np.full(len(ends), -1, dtype=np.int64)
    nonempty = ends > starts
    leading[nonempty] = bits[ends[nonempty] - 1]
    return odd, leading


def _as_label(seed, n: int) -> int:
    """seed as a basis label: an integer, not a bool, in 0..2^n - 1 (else ValueError)."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or not 0 <= seed < 1 << n:
        raise ValueError(f"seed label must be an integer in 0..2^{n} - 1, got {seed!r}")
    return int(seed)


def _seed_label(xs, bits) -> int:
    """The XOR of the seed X-parts xs that the logical bits select."""
    label = 0
    for x, bit in zip(xs, bits):
        if bit:
            label ^= x
    return label


def codeword(group: StabilizerGroup, seed, _cls: GeneratorClassification | None = None) -> FormalState:
    """Orbit sum of an integer seed label under the group, canonically signed.

    Returns the zero state iff some type-2 generator has eigenvalue -1 on
    the seed; otherwise exactly 2^b terms with coefficients +/-1.
    """
    if group.a > 24:
        raise GroupTooLargeError(f"2^{group.a} group elements is too many")
    label = _as_label(seed, group.n)
    cls = _cls if _cls is not None else classify_generators(group)
    for g in cls.type2:
        if (g.z_bits & label).bit_count() % 2:
            return FormalState(group.n, {})
    terms: dict[int, int] = {}
    for p in enumerate_elements(StabilizerGroup(group.n, cls.type1)):
        phase = -1 if (p.z_bits & label).bit_count() % 2 else 1
        terms[label ^ p.x_bits] = p.sign * phase
    return FormalState(group.n, terms).canonical()


def encode(group: StabilizerGroup, seeds: PureXList, logical) -> FormalState:
    """Encode a k-bit logical word c_1..c_k (k = n - a) as a code word.

    The seeds are one PureXList of k seeds on n qubits (anything else raises
    TypeError, a wrong count ValueError).  The seed label is
    N_1^{c_1}..N_k^{c_k}|0..0>; the result is the unnormalized orbit sum
    (the 2^{b/2} normalization is left to callers).  The word is a string
    of "0"/"1" or a sequence of integers 0 or 1, not bools; anything else,
    a bare integer or None included, raises ValueError.
    """
    k = group.n - group.a
    if problems := _require_seeds(seeds, group.n, k):
        raise ValueError(problems[0])
    try:
        bits = [int(ch) if ch in "01" else None for ch in logical] if isinstance(logical, str) else list(logical)
    except TypeError:  # not a sequence, such as 5 or None
        bits = [None]
    if not all(isinstance(b, (int, np.integer)) and not isinstance(b, bool) and b in (0, 1) for b in bits):
        raise ValueError(f"bad logical word {logical!r}")
    if len(bits) != k:
        raise ValueError(f"logical word length {len(bits)} does not match k = {k}")
    return codeword(group, _seed_label([s.x_bits for s in seeds], bits))


def basis(group: StabilizerGroup, seeds: PureXList) -> list[FormalState]:
    """All 2^{n-a} encodings, logical word index i with c_1 as its low bit;
    the seeds are one PureXList of k = n - a seeds on n qubits (anything else
    raises TypeError, a wrong count ValueError)."""
    k = group.n - group.a
    if problems := _require_seeds(seeds, group.n, k):
        raise ValueError(problems[0])
    xs = [s.x_bits for s in seeds]
    cls = classify_generators(group)
    return [codeword(group, _seed_label(xs, ((i >> r) & 1 for r in range(k))), _cls=cls) for i in range(1 << k)]
