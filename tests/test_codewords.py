import dataclasses
import hashlib
import tracemalloc

import pytest
from hypothesis import given, strategies as st

import table_data
from reference import apply_pauli_formal, seed_list
from strategies import IntEchelon, rank, valid_groups
from stabforge import codewords, pauli
from stabforge.codewords import (
    FormalState,
    MinusSignPureZError,
    basis,
    check_seeds,
    classify_generators,
    codeword,
    encode,
    label_to_string,
    seed_generators,
)
from stabforge.pauli import PauliOperator, multiply, parse, pure_xs
from stabforge.stabilizer import enumerate_elements, validate


def test_label_text_puts_qubit_1_leftmost():
    assert label_to_string(0b11, 8) == "11000000"
    assert label_to_string(1, 2) == "10"


def test_classify_family(group8, code8):
    cls = classify_generators(group8)
    assert cls.b == 4
    assert cls.type2 == (code8.generators[1],)  # M_2, the all-Z row
    # elimination may replace generators by products, but the X-part span
    # must match that of the original type-1 rows M_1, M_3, M_4, M_5
    original = IntEchelon(code8.generators[i].x_bits for i in (0, 2, 3, 4))
    assert all(original.reduce(g.x_bits) == 0 for g in cls.type1)
    assert rank([g.x_bits for g in cls.type1]) == 4


def test_classify_pure_z():
    group = validate(2, [parse("ZZ")])
    cls = classify_generators(group)
    assert cls.b == 0
    assert [str(g) for g in cls.type2] == ["+ZZ"]


def test_classify_mixed():
    group = validate(2, [parse("XX"), parse("ZZ")])
    cls = classify_generators(group)
    assert cls.b == 1
    # dimension cross-check: one type-2 generator leaves 2^{n-a} = 1 code word
    assert len(basis(group, seed_generators(group))) == 1


def test_classify_type3_to_type2():
    # second generator's X-part is dependent; elimination leaves a pure-Z row
    group = validate(2, [parse("XX"), parse("YY")])
    cls = classify_generators(group)
    assert cls.b == 1
    assert len(cls.type2) == 1
    assert cls.type2[0].x_bits == 0


def test_classify_minus_sign_pure_z():
    group = validate(1, [parse("-Z")])
    with pytest.raises(MinusSignPureZError):
        classify_generators(group)


def test_seed_generators_family(group8):
    assert [str(s) for s in seed_generators(group8)] == table_data.SEED_GENERATORS


def test_seed_generators_full_group():
    group = validate(2, [parse("ZI"), parse("IZ")])
    assert seed_generators(group).supports() == []


def test_seed_generators_repetition_code():
    group = validate(2, [parse("ZZ")])
    seeds = seed_generators(group)
    assert [str(s) for s in seeds] == ["+XX"]


def test_j16_seeds_build_and_check_in_little_memory():
    """The 65,518 seeds of the j = 16 code are held as supports: building the
    code and checking its seeds peaks well under the 275 MiB that the seeds
    took as dense n-bit ints."""
    from stabforge import family

    tracemalloc.start()
    try:
        code = family.build_code(16)
        problems = check_seeds(validate(code.n, code.generators), code.seed_generators)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert problems == []
    assert peak < 64 * 2**20


# sha256 of repr([s.support for s in build_code(16).seed_generators]), taken
# before seed_generators and pure_xs stopped visiting the seeds one by one
J16_SEEDS_SHA256 = "c6ee160937329aa3c51710c5448a752dde43438b9fa85a239707dcac1c22b7cf"


def test_j16_seeds_are_pinned():
    from stabforge import family

    supports = [s.support for s in family.build_code(16).seed_generators]
    assert len(supports) == 65518 and supports[0] == (1, 2) and supports[-1] == (1, 65533)
    assert hashlib.sha256(repr(supports).encode()).hexdigest() == J16_SEEDS_SHA256


def test_check_seeds(group8, code8):
    seeds = code8.seed_generators
    assert check_seeds(group8, seeds) == []
    # wrong count
    assert check_seeds(group8, pure_xs(8, seeds.supports()[:2])) == ["expected 3 seed generators, got 2"]
    # not pure X: no PureXList holds it, and a CodeSpec takes nothing else
    bad = [parse("+ZXIIIIII"), *seeds[1:]]
    with pytest.raises(TypeError, match="seeds must be a PureXList on 8 qubits: a CodeSpec's seed_generators"):
        dataclasses.replace(code8, seed_generators=bad)
    # anticommutes with the type-2 generator
    bad[0] = parse("+XIIIIIII")
    assert any("type-2" in p for p in check_seeds(group8, seed_list(8, bad)))
    # dependent modulo type-1 X-parts
    dep = [*seeds, multiply(seeds[1], seeds[2])]
    assert any("dependent" in p for p in check_seeds(group8, seed_list(8, dep)))


def test_check_seeds_takes_only_a_pure_x_list_on_n(group8, code8):
    seeds = code8.seed_generators
    # a list, a tuple (a PureXList slice is one) and a PureXList on 9 qubits
    for other in (list(seeds), seeds[:], pure_xs(9, seeds.supports())):
        with pytest.raises(TypeError, match="seeds must be a PureXList on 8 qubits: a CodeSpec's seed_generators"):
            check_seeds(group8, other)


def test_encode_and_basis_take_only_a_pure_x_list_on_n(group8, code8):
    seeds = code8.seed_generators
    # -XXZIIIII has seed 1's X-part; a Z part and sign must not be dropped silently
    signed = [PauliOperator(8, seeds[0].x_bits, 0b100, -1), *seeds[1:]]
    assert pauli.format(signed[0]) == "-XXZIIIII"
    for other in (signed, list(seeds), seeds[:], pure_xs(9, seeds.supports())):
        with pytest.raises(TypeError, match="seeds must be a PureXList on 8 qubits: a CodeSpec's seed_generators"):
            encode(group8, other, "100")
        with pytest.raises(TypeError, match="seeds must be a PureXList on 8 qubits: a CodeSpec's seed_generators"):
            basis(group8, other)


@pytest.mark.parametrize("count", [2, 4])
def test_encode_and_basis_check_the_seed_count(group8, code8, count):
    # too few seeds used to raise a bare IndexError, too many were cut to k
    seeds = pure_xs(8, (code8.seed_generators.supports() + [[1, 5]])[:count])
    message = f"expected 3 seed generators, got {count}"
    assert check_seeds(group8, seeds)[0] == message
    with pytest.raises(ValueError, match=f"^{message}$"):
        encode(group8, seeds, "100")
    with pytest.raises(ValueError, match=f"^{message}$"):
        basis(group8, seeds)


def test_codeword_group_size_guard():
    from stabforge.pauli import single
    from stabforge.stabilizer import GroupTooLargeError, StabilizerGroup

    big = StabilizerGroup(30, tuple(single(30, i, "Z") for i in range(1, 26)))
    with pytest.raises(GroupTooLargeError):
        codeword(big, 0)


def test_codeword_killed_seed():
    group = validate(2, [parse("ZZ")])
    assert not codeword(group, 0b10).terms  # "01": qubit 2 set, so ZZ has eigenvalue -1
    assert codeword(group, 0).terms == {0: 1}


def test_codeword_psi0_golden(group8):
    state = codeword(group8, 0)
    expected = table_data.canonical_word(table_data.CODE_WORDS[0])
    assert {label_to_string(l, 8): c for l, c in state.terms.items()} == expected


def test_encode_all_words_golden(group8, code8):
    seeds = code8.seed_generators
    for i, word in enumerate(table_data.CODE_WORDS):
        bits = [(i >> r) & 1 for r in range(3)]
        state = encode(group8, seeds, bits)
        got = {label_to_string(l, 8): c for l, c in state.terms.items()}
        assert got == table_data.canonical_word(word), f"psi_{i} mismatch"


def test_encode_all_zeros_is_codeword(group8, code8):
    assert encode(group8, code8.seed_generators, "000") == codeword(group8, 0)


def test_encode_rejects_wrong_length(group8, code8):
    with pytest.raises(ValueError):
        encode(group8, code8.seed_generators, "0000")


@pytest.mark.parametrize(
    "word", [[2, 0, 0], [0.7, 0, 0], [-1, 0, 0], [True, False, False], [1.0, 0, 0], "0a1", ["0", "1", "1"]]
)
def test_encode_refuses_entries_that_are_not_integer_bits(group8, code8, word):
    # int() or truthiness would misread each of these as a bit
    with pytest.raises(ValueError, match=r"^bad logical word "):
        encode(group8, code8.seed_generators, word)


@pytest.mark.parametrize("word", [5, None, 1.5])
def test_encode_refuses_a_word_that_is_not_a_sequence(group8, code8, word):
    # list(word) used to escape as a bare TypeError ("'int' object is not iterable")
    with pytest.raises(ValueError, match=rf"^bad logical word {word!r}$"):
        encode(group8, code8.seed_generators, word)


def test_encode_takes_text_lists_and_arrays_alike(group8, code8):
    import numpy as np

    want = encode(group8, code8.seed_generators, "011")
    assert want == codeword(group8, code8.seed_generators[1].x_bits ^ code8.seed_generators[2].x_bits)
    assert encode(group8, code8.seed_generators, [0, 1, 1]) == want
    assert encode(group8, code8.seed_generators, np.array([0, 1, 1])) == want


@pytest.mark.parametrize("label", [True, 1.5, "01", -1, 2**8])
def test_codeword_takes_only_integer_labels_in_range(group8, label):
    # a bool is not a label, and a float would fail inside & with a bare TypeError
    with pytest.raises(ValueError, match=r"^seed label must be an integer in 0\.\.2\^8 - 1, got .+$"):
        codeword(group8, label)


def test_codeword_takes_numpy_integer_labels(group8):
    import numpy as np

    assert codeword(group8, np.int64(255)) == codeword(group8, 255)


def test_basis_matches_golden_words(group8, code8):
    states = basis(group8, code8.seed_generators)
    assert len(states) == 8
    for state, word in zip(states, table_data.CODE_WORDS):
        got = {label_to_string(l, 8): c for l, c in state.terms.items()}
        assert got == table_data.canonical_word(word)


def test_basis_repetition_code():
    group = validate(2, [parse("ZZ")])
    states = basis(group, seed_generators(group))
    assert [s.terms for s in states] == [{0: 1}, {3: 1}]


def test_basis_trivial_code():
    group = validate(2, [parse("ZI"), parse("IZ")])
    states = basis(group, pure_xs(2, []))
    assert len(states) == 1 and states[0].terms == {0: 1}


def test_stabilization_exact(group8, code8):
    states = basis(group8, code8.seed_generators)
    for m in enumerate_elements(group8):
        for s in states:
            assert apply_pauli_formal(m, s).terms == s.terms


def test_term_counts_and_coeffs(group8, code8):
    cls = classify_generators(group8)
    for s in basis(group8, code8.seed_generators):
        assert len(s.terms) == 2**cls.b
        assert set(s.terms.values()) <= {1, -1}


def test_support_partition(group8, code8):
    cls = classify_generators(group8)
    states = basis(group8, code8.seed_generators)
    supports = [frozenset(s.terms) for s in states]
    for i in range(len(supports)):
        for j in range(i + 1, len(supports)):
            assert not supports[i] & supports[j]
    union = frozenset().union(*supports)
    assert len(union) == 2 ** (8 - (group8.a - cls.b))


def test_seed_equivalence(group8):
    # replacing the seed by M|seed> changes the word by at most a global sign
    base = codeword(group8, 0)
    for m in enumerate_elements(group8)[:8]:
        moved = 0 ^ m.x_bits
        again = codeword(group8, moved)
        assert again.terms == base.terms  # canonical signing absorbs the global sign


def test_apply_pauli_formal_signs():
    state = FormalState(2, {0b10: 1})  # "01"
    flipped = apply_pauli_formal(parse("IZ"), state)  # Z on qubit 2, which is set
    assert flipped.terms == {0b10: -1}
    untouched = apply_pauli_formal(parse("ZI"), state)  # Z on qubit 1, which is 0
    assert untouched.terms == {0b10: 1}
    moved = apply_pauli_formal(parse("XI"), state)
    assert moved.terms == {0b11: 1}  # "11"


def test_to_rows_sorted():
    state = FormalState(2, {0b01: -1, 0b10: 1})  # "10" and "01"
    rows = state.to_rows()
    assert [r["label"] for r in rows] == ["01", "10"]


@given(st.dictionaries(st.integers(0, 15), st.sampled_from([1, -1]), min_size=1, max_size=8))
def test_canonical_fixes_global_sign(terms):
    state = FormalState(4, dict(terms))
    canon = state.canonical()
    flipped = FormalState(4, {l: -c for l, c in terms.items()}).canonical()
    assert canon.terms == flipped.terms  # global sign is absorbed
    smallest = min(canon.terms, key=lambda lab: label_to_string(lab, 4))
    assert canon.terms[smallest] > 0
    assert canon.canonical().terms == canon.terms  # idempotent


def test_canonical_of_the_zero_state_is_zero():
    assert FormalState(4, {}).canonical() == FormalState(4, {})


def test_negative_sign_type1_generator():
    # H = {-X} stabilizes (|0> - |1>)/sqrt(2); the sign must survive encoding
    group = validate(1, [parse("-X")])
    states = basis(group, seed_generators(group))
    assert len(states) == 1
    assert states[0].terms == {0: 1, 1: -1}
    assert apply_pauli_formal(parse("-X"), states[0]).terms == states[0].terms


def _random_valid_group(rng, n, a):
    """Rejection-sample a commuting independent generator set, +1 signs."""
    from stabforge.pauli import PauliOperator, commutes

    for _ in range(400):
        gens = []
        rows = []
        tries = 0
        while len(gens) < a and tries < 200:
            tries += 1
            cand = PauliOperator(n, int(rng.integers(0, 1 << n)), int(rng.integers(0, 1 << n)), 1)
            if cand.x_bits == 0 and cand.z_bits == 0:
                continue
            if (cand.x_bits & cand.z_bits).bit_count() % 2:
                continue
            if not all(commutes(cand, g) for g in gens):
                continue
            if rank(rows + [cand.x_bits | (cand.z_bits << n)]) != len(rows) + 1:
                continue
            gens.append(cand)
            rows.append(cand.x_bits | (cand.z_bits << n))
        if len(gens) == a:
            return validate(n, gens)
    raise AssertionError("could not sample a valid group")


def test_random_groups_full_construction(rng):
    """The whole seed/basis machinery on arbitrary small valid groups."""
    from stabforge.oracle import dense_from_formal, gram
    import numpy as np

    for trial in range(30):
        n = int(rng.integers(2, 6))
        a = int(rng.integers(1, n + 1))
        group = _random_valid_group(rng, n, a)
        try:
            cls = classify_generators(group)
        except MinusSignPureZError:
            continue  # legal group, but outside the all-zeros-seed construction
        seeds = seed_generators(group)
        assert check_seeds(group, seeds) == []
        states = basis(group, seeds)
        assert len(states) == 1 << (n - group.a)
        supports = [frozenset(s.terms) for s in states]
        for s in states:
            assert len(s.terms) == 1 << cls.b
            assert set(s.terms.values()) <= {1, -1}
            for m in enumerate_elements(group):
                assert apply_pauli_formal(m, s).terms == s.terms
        for i in range(len(states)):
            for j in range(i + 1, len(states)):
                assert not supports[i] & supports[j]
        dense = [dense_from_formal(s) for s in states]
        assert np.allclose(gram(dense), np.eye(len(dense)), atol=1e-12)


def _texts(ops):
    return [pauli.format(op) for op in ops]


def reference_seed_generators(group):
    """The seed rule column by column: each nullspace vector v_c of the type-2
    Z-constraints is kept when it is independent of the type-1 X-parts and
    of the v_c' before it."""
    from stabforge.pauli import PauliOperator

    cls = classify_generators(group)
    n = group.n
    pivot_rows = {}
    for row in (g.z_bits for g in cls.type2):
        while row:
            low = (row & -row).bit_length() - 1
            if low not in pivot_rows:
                pivot_rows[low] = row
                break
            row ^= pivot_rows[low]
    for low in sorted(pivot_rows):
        for other in pivot_rows:
            if other != low and (pivot_rows[other] >> low) & 1:
                pivot_rows[other] ^= pivot_rows[low]
    span = IntEchelon(g.x_bits for g in cls.type1)
    seeds = []
    for c in range(n):
        if c in pivot_rows:
            continue
        v = 1 << c
        for low, row in pivot_rows.items():
            if (row >> c) & 1:
                v |= 1 << low
        if span.insert(v):
            seeds.append(PauliOperator(n, v, 0, 1))
    return seeds


@pytest.mark.parametrize("j", range(3, 13))
def test_seed_generators_match_reference_family(j):
    from stabforge import family

    group = family.build_code(j).group()
    assert _texts(seed_generators(group)) == _texts(reference_seed_generators(group))


@given(valid_groups())
def test_seed_generators_match_reference_random(group):
    try:
        expected = reference_seed_generators(group)
    except MinusSignPureZError:
        with pytest.raises(MinusSignPureZError):
            seed_generators(group)
        return
    assert _texts(seed_generators(group)) == _texts(expected)
