"""Hypothesis strategies shared by the differential tests."""

from hypothesis import strategies as st

from stabforge import gf2
from stabforge.pauli import PauliOperator, commutes
from stabforge.stabilizer import validate


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
    rows = gf2.Echelon()
    for x, z, sign, pure_z in candidates:
        if pure_z:  # signed pure-Z generators mostly fall to MinusSignPureZError
            x, sign = 0, 1
        op = PauliOperator(n, x, z, sign)
        if (x & z).bit_count() % 2 or not all(commutes(op, g) for g in gens):
            continue
        if rows.insert(x | (z << n)):
            gens.append(op)
    return validate(n, gens)
