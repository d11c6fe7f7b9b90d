"""Hypothesis strategies, random operators and a reference GF(2) echelon
shared by the tests."""

from hypothesis import strategies as st

from stabforge.pauli import PauliOperator, commutes, multiply, parse
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


T1_CODES = (
    (("+XZZXI", "+IXZZX", "+XIXZZ", "+ZXIXZ"), "+XXXXX"),  # the [[5,1,3]] code and a logical X
    (("+IIIXXXX", "+IXXIIXX", "+XIXIXIX", "+IIIZZZZ", "+IZZIIZZ", "+ZIZIZIZ"), "+ZZZZZZZ"),  # Steane's [[7,1,3]]
)


def _permuted(op: PauliOperator, perm) -> PauliOperator:
    """op with its qubit at bit i moved to bit perm[i]."""
    x, z = (sum(1 << perm[i] for i in range(op.n) if bits >> i & 1) for bits in (op.x_bits, op.z_bits))
    return PauliOperator(op.n, x, z, op.sign)


@st.composite
def t1_groups(draw):
    """A validated group on 5 or 7 qubits with a t = 1 syndrome table.

    It is the [[5,1,3]] code or Steane's [[7,1,3]] code, with its logical
    operator as one more generator (k = 0) about half the time, on permuted
    qubits, its generators multiplied together and their signs drawn.  More
    generators only split syndromes, so the weight <= 1 errors keep distinct
    syndromes.  A random group on n <= 7 qubits almost never has them.
    """
    texts, logical = draw(st.sampled_from(T1_CODES))
    gens = [parse(text) for text in texts + ((logical,) if draw(st.booleans()) else ())]
    n, count = gens[0].n, len(gens)
    perm = draw(st.permutations(range(n)))
    gens = [_permuted(g, perm) for g in gens]
    for i, j in draw(st.lists(st.tuples(st.integers(0, count - 1), st.integers(0, count - 1)), max_size=2 * count)):
        if i != j:  # the generators commute, so the product is another +-1-squaring generator
            gens[i] = multiply(gens[i], gens[j])
    signs = draw(st.lists(st.sampled_from([1, -1]), min_size=count, max_size=count))
    return validate(n, [PauliOperator(n, g.x_bits, g.z_bits, g.sign * s) for g, s in zip(gens, signs)])
