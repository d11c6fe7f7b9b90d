"""Hypothesis strategies, random operators and a reference GF(2) echelon
shared by the tests."""

from hypothesis import strategies as st

from stabforge.pauli import PauliOperator, commutes
from stabforge.stabilizer import validate


class IntEchelon:
    """Unsigned GF(2) row space of int bitsets, rows keyed by highest set bit.

    Kept separate from the library's signed elimination so that tests check
    it against an independent reference.
    """

    def __init__(self, rows=()):
        self.pivots: dict[int, int] = {}
        for row in rows:
            self.insert(row)

    def reduce(self, v: int) -> int:
        """Reduce v against the stored rows; 0 means v is in the span."""
        while v and (row := self.pivots.get(v.bit_length() - 1)) is not None:
            v ^= row
        return v

    def insert(self, v: int) -> int:
        """Reduce v and store the residue if nonzero; returns the residue."""
        r = self.reduce(v)
        if r:
            self.pivots[r.bit_length() - 1] = r
        return r


def random_op(rng, n):
    """A uniformly random signed Pauli operator on n qubits, from a numpy Generator."""
    return PauliOperator(
        n, int(rng.integers(0, 1 << n)), int(rng.integers(0, 1 << n)), int(rng.choice([1, -1]))
    )


def rank(rows) -> int:
    """Rank of a collection of int-bitset rows over GF(2)."""
    return len(IntEchelon(rows).pivots)


@st.composite
def valid_groups(draw):
    """A validated group on n <= 7 qubits with random signs.

    About half the candidates are pure Z, so type-2 generators are common.
    Candidates are kept greedily when they square to +1, commute with the
    generators kept so far and are independent of them, so validate keeps
    every one of them.
    """
    n = draw(st.integers(1, 7))
    bits = st.integers(0, (1 << n) - 1)
    signs = st.sampled_from([1, -1])
    candidate = st.tuples(bits, bits, signs, st.booleans())
    candidates = draw(st.lists(candidate, min_size=1, max_size=2 * n))
    gens = []
    rows = IntEchelon()
    for x, z, sign, pure_z in candidates:
        if pure_z:  # signed pure-Z generators mostly fall to MinusSignPureZError
            x, sign = 0, 1
        op = PauliOperator(n, x, z, sign)
        if (x & z).bit_count() % 2 or not all(commutes(op, g) for g in gens):
            continue
        if rows.insert(x | (z << n)):
            gens.append(op)
    return validate(n, gens)
