import numpy as np
import pytest
from hypothesis import given, strategies as st

from reference import MAT_X, MAT_Y, MAT_Z, pauli_matrix
from strategies import random_op
from stabforge import codewords, family, gf2, pauli
from stabforge.pauli import (
    PauliOperator,
    PureX,
    PureXList,
    pure_xs,
    commutes,
    identity,
    letter,
    multiply,
    parse,
    single,
    square_sign,
    weight,
)


@st.composite
def pauli_pairs(draw, max_n=6):
    n = draw(st.integers(1, max_n))
    def one():
        return PauliOperator(
            n,
            draw(st.integers(0, (1 << n) - 1)),
            draw(st.integers(0, (1 << n) - 1)),
            draw(st.sampled_from([1, -1])),
        )
    return one(), one()


def test_identity():
    assert pauli.format(identity(1)) == "+I"
    assert pauli.format(identity(8)) == "+IIIIIIII"
    with pytest.raises(ValueError):
        identity(0)


def test_identity_is_neutral(rng):
    for _ in range(50):
        p = random_op(rng, 3)
        assert multiply(identity(3), p) == p
        assert multiply(p, identity(3)) == p


def test_single():
    assert pauli.format(single(8, 1, "X")) == "+XIIIIIII"
    assert pauli.format(single(2, 2, "Y")) == "+IY"
    # Y := X * Z forces the single-qubit Y to be the XZ product
    assert single(8, 6, "Y") == multiply(single(8, 6, "X"), single(8, 6, "Z"))
    with pytest.raises(ValueError):
        single(2, 3, "X")
    with pytest.raises(ValueError):
        single(2, 0, "X")
    with pytest.raises(ValueError):
        single(2, 1, "I")


def test_multiply_squares():
    assert pauli.format(multiply(parse("+Y"), parse("+Y"))) == "-I"
    assert pauli.format(multiply(parse("+X"), parse("+X"))) == "+I"
    assert pauli.format(multiply(parse("+Z"), parse("+Z"))) == "+I"


def test_multiply_zx_matches_matrix_arithmetic():
    # oracle: Z @ X = [[0,1],[-1,0]] = -Y under the printed basis
    assert np.array_equal(MAT_Z @ MAT_X, -MAT_Y)
    assert pauli.format(multiply(parse("+Z"), parse("+X"))) == "-Y"
    assert np.array_equal(MAT_X @ MAT_Z, MAT_Y)
    assert pauli.format(multiply(parse("+X"), parse("+Z"))) == "+Y"


def test_multiply_rejects_mismatched_n():
    with pytest.raises(ValueError):
        multiply(identity(2), identity(3))
    with pytest.raises(ValueError):
        commutes(identity(2), identity(3))


def test_commutes_examples(group8):
    assert not commutes(single(1, 1, "X"), single(1, 1, "Z"))
    assert commutes(single(2, 1, "X"), single(2, 2, "X"))
    m1, m2 = group8.generators[0], group8.generators[1]
    assert commutes(m1, m2)


def test_weight(code8):
    assert weight(parse("+IIIIIIII")) == 0
    assert weight(code8.generators[2]) == 6  # M_3 = XIXIZYZY has two identities
    for r in range(3, 6):
        assert weight(code8.generators[r - 1]) == 3 * 2 ** (3 - 2)


def test_square_sign(code8):
    assert square_sign(parse("+Y")) == -1
    assert square_sign(parse("+XZ")) == 1
    assert all(square_sign(g) == 1 for g in code8.generators)
    # independent of the stored sign
    assert square_sign(parse("-ZZ")) == 1


def test_parse_format_golden(code8):
    assert parse("XIXIZYZY") == code8.generators[2]
    assert pauli.format(identity(3)) == "+III"
    assert square_sign(parse("-ZZ")) == 1
    assert pauli.format(parse("-ZZ")) == "-ZZ"
    assert pauli.format(parse("−ZZ")) == "-ZZ"


@pytest.mark.parametrize("bad", ["", "+", "XQ", "1X", "+XYZW"])
def test_parse_rejects(bad):
    with pytest.raises(ValueError):
        parse(bad)


@given(pauli_pairs())
def test_format_parse_roundtrip(pair):
    p, _ = pair
    assert parse(pauli.format(p)) == p


@given(pauli_pairs())
def test_self_inverse_up_to_sign(pair):
    p, _ = pair
    sq = multiply(p, p)
    assert sq.x_bits == 0 and sq.z_bits == 0
    assert sq.sign == square_sign(p)


def test_associativity_bulk(rng):
    for _ in range(10_000):
        n = int(rng.integers(1, 5))
        p, q, r = (random_op(rng, n) for _ in range(3))
        assert multiply(multiply(p, q), r) == multiply(p, multiply(q, r))


def test_commutation_bilinearity_bulk(rng):
    # the anticommutation indicator against a fixed P is a homomorphism
    for _ in range(10_000):
        n = int(rng.integers(1, 6))
        p, q, r = (random_op(rng, n) for _ in range(3))
        lhs = not commutes(p, multiply(q, r))
        rhs = (not commutes(p, q)) ^ (not commutes(p, r))
        assert lhs == rhs


@given(st.integers(1, 300).filter(lambda n: n % 8), st.data())
def test_commutes_matches_the_two_count_form(n, data):
    # one count of (x1 & z2) ^ (z1 & x2) has the parity of the two counts summed;
    # n is no multiple of 8 or 64, so the top word is partial
    bits = st.integers(0, (1 << n) - 1)
    p, q = (PauliOperator(n, data.draw(bits), data.draw(bits)) for _ in range(2))
    two_counts = ((p.x_bits & q.z_bits).bit_count() + (p.z_bits & q.x_bits).bit_count()) % 2 == 0
    assert commutes(p, q) == commutes(q, p) == two_counts


def test_matrix_oracle_equivalence(rng):
    for _ in range(1000):
        n = int(rng.integers(1, 4))
        p, q = random_op(rng, n), random_op(rng, n)
        mp, mq = pauli_matrix(p), pauli_matrix(q)
        assert np.array_equal(pauli_matrix(multiply(p, q)), mp @ mq)
        assert commutes(p, q) == np.array_equal(mp @ mq, mq @ mp)
        assert np.array_equal(mp @ mp, square_sign(p) * np.eye(1 << n))


def closure(generators):
    elems = set(generators)
    frontier = set(generators)
    while frontier:
        new = set()
        for a in frontier:
            for b in list(elems):
                for prod in (multiply(a, b), multiply(b, a)):
                    if prod not in elems and prod not in new:
                        new.add(prod)
        elems |= new
        frontier = new
    return elems


def test_group_order():
    one = closure([single(1, 1, "X"), single(1, 1, "Z")])
    assert len(one) == 8
    two = closure([single(2, i, L) for i in (1, 2) for L in ("X", "Z")])
    assert len(two) == 32


def dense_twin(p):
    return PauliOperator(p.n, sum(1 << (q - 1) for q in p.support), 0, 1)


@pytest.mark.parametrize(
    "n, support",
    [
        (1, ()),
        (8, (1, 3)),
        (8, (1, 2, 3, 4, 5, 6, 7, 8)),
        (64, (61, 62, 64)),
        (200, (1, 61, 62, 122, 123, 183, 200)),
        (65536, (1, 65536)),
        (65536, (61, 122, 40000, 65535)),
    ],
)
def test_pure_x_matches_dense_twin(n, support):
    p = PureX(n, support)
    dense = dense_twin(p)
    assert (p.n, p.x_bits, p.z_bits, p.sign) == (dense.n, dense.x_bits, 0, 1)
    # a plain (n, support) record: same value, but never equal to the PauliOperator
    assert p != dense and dense != p and not p == dense and not dense == p
    assert hash(p) == hash((n, support)) and p not in {dense}
    assert str(p) == str(dense) == pauli.format(p)
    assert p == PureX(n, list(support)) and hash(p) == hash(PureX(n, support))
    assert multiply(p, dense) == PauliOperator(n, 0, 0, 1)
    assert weight(p) == len(support)


@given(st.integers(1, 130).flatmap(lambda n: st.tuples(st.just(n), st.sets(st.integers(1, n)))))
def test_pure_x_matches_dense_twin_random(case):
    n, qubits = case
    p = PureX(n, sorted(qubits))
    dense = dense_twin(p)
    assert (p.n, p.x_bits, p.z_bits, p.sign) == (dense.n, dense.x_bits, dense.z_bits, dense.sign)
    assert p != dense and str(p) == str(dense)


def test_pure_x_differs_from_other_values():
    p = PureX(8, (1, 3))
    assert p != PureX(8, (1, 4)) and p != PureX(9, (1, 3))
    assert p != PauliOperator(8, 0b101, 0, -1) and p != PauliOperator(8, 0b101, 1, 1)
    assert p != PauliOperator(9, 0b101, 0, 1) and p != "+XIXIIIII"
    assert (PureX(8, (1, 3)) == PauliOperator(8, 0b101, 0, 1)) is False
    assert (PauliOperator(8, 0b101, 0, 1) == PureX(8, (1, 3))) is False


@pytest.mark.parametrize(
    "n, support",
    [
        (8, (3, 1)),  # unsorted
        (8, (1, 1)),  # duplicate
        (8, (1, 3, 3)),
        (8, (0, 1)),  # out of range: qubits are 1-based
        (8, (1, 9)),
        (8, (-1,)),
        (0, ()),  # no qubits
        (8, (1.0, 2)),  # not an integer
        (8, (True, 2)),
    ],
)
def test_pure_x_rejects_bad_supports(n, support):
    with pytest.raises((ValueError, TypeError)) as single:
        PureX(n, support)
    # the batch check gives the same error, alone or between good supports
    for supports in ([support], [(1,), support, (n,)]):
        with pytest.raises(single.type) as batch:
            pure_xs(n, supports)
        assert str(batch.value) == str(single.value)


def _outcome(make):
    """The PureX values made, or the type and text of the error raised."""
    try:
        return [(p.n, p.support) for p in make()]
    except (ValueError, TypeError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize(
    "support",
    [
        (2**63,),  # past int64, so out of range
        (1, 2**63),
        (-(2**63) - 1,),
        (np.uint64(2**64 - 1),),
        (np.int64(1), np.int64(3)),
        (np.int64(3), np.int64(1)),
        (np.int32(1), 2),
        (True,),
        (1, False),
        (np.True_,),
        (),
        [1, 3],
        [3, 1],
        [1, 2**63],
    ],
)
def test_pure_xs_matches_pure_x_on_edge_qubits(support):
    n = 8
    want = _outcome(lambda: [PureX(n, support)])
    assert _outcome(lambda: pure_xs(n, [support])) == want
    batch = [(1,), support, (n,)]
    if isinstance(want, list):
        assert _outcome(lambda: pure_xs(n, batch)) == [(n, (1,))] + want + [(n, (n,))]
        return
    assert _outcome(lambda: pure_xs(n, batch)) == want
    with pytest.raises(want[0]) as bad:
        pure_xs(n, batch)
    assert bad.value.support_index == 2


def test_pure_xs_names_the_first_bad_support():
    # a range error anywhere comes before an order error
    with pytest.raises(ValueError, match="out of range") as bad:
        pure_xs(8, [(1, 2), (3, 1), (), (1, 9), (0,)])
    assert bad.value.support_index == 4
    with pytest.raises(ValueError, match="strictly ascending") as bad:
        pure_xs(8, [(), (1, 2), (), (2, 4, 4), (3, 1)])
    assert bad.value.support_index == 4
    with pytest.raises(TypeError) as bad:
        pure_xs(8, [(1, 9), (1, 2.0)])
    assert bad.value.support_index == 2


SUPPORTS = st.lists(st.lists(st.integers(-1, 10), max_size=4), max_size=6)


@given(st.integers(1, 9), SUPPORTS)
def test_pure_xs_matches_pure_x(n, supports):
    def outcome(make):
        try:
            return list(make())
        except (ValueError, TypeError) as exc:
            return type(exc)
    # the batch reports a range error anywhere first, so only the kinds of error are compared
    want = outcome(lambda: [PureX(n, s) for s in supports])
    assert outcome(lambda: pure_xs(n, supports)) == want


def test_pure_x_is_read_only():
    p = PureX(8, (1, 3))
    for name, value in (("n", 9), ("support", (2,)), ("x_bits", 2), ("z_bits", 1), ("sign", -1), ("other", 0)):
        with pytest.raises(AttributeError):
            setattr(p, name, value)
    assert p == PureX(8, (1, 3))


def test_pure_x_list_equals_only_a_pure_x_list_and_hashes_like_the_tuple_of_its_items():
    xs = pure_xs(8, [(1, 2), (), (3, 5, 8)])
    items = (PureX(8, (1, 2)), PureX(8, ()), PureX(8, (3, 5, 8)))
    dense = [PauliOperator(8, 0b11, 0, 1), PauliOperator(8, 0, 0, 1), PauliOperator(8, 0b10010100, 0, 1)]
    same = (pure_xs(8, [[1, 2], [], [3, 5, 8]]), PureXList(8, [2, 2, 5], np.array([1, 2, 3, 5, 8], np.uint16)))
    for other in same:
        assert xs == other and other == xs and not xs != other and not other != xs
        assert hash(xs) == hash(other)
    assert tuple(xs) == items and list(xs) == list(items)
    assert [pauli.format(p) for p in xs] == [pauli.format(p) for p in dense]
    assert hash(xs) == hash(tuple(xs)) == hash(items)
    unequal = (items, list(items), dense, tuple(dense), items[:2], dense[::-1])
    unequal += (pure_xs(9, [(1, 2), (), (3, 5, 8)]), pure_xs(8, [(1, 2), (), (3, 5, 7)]), pure_xs(8, [(1, 2), (3, 5, 8)]))
    for other in unequal + ("+XXIIIIII", None):
        assert xs != other and other != xs and (xs == other) is False and (other == xs) is False


@pytest.mark.parametrize("j", [3, 4, 6, 8])
def test_pure_x_list_equals_version_1_dense_seeds(j):
    code = family.build_code(j)
    seeds = code.seed_generators
    assert isinstance(seeds, PureXList)
    # perfbench's build-large fingerprint: a spec's seeds against a step-by-step build
    assert hash(seeds) == hash(tuple(seeds)) == hash(tuple(codewords.seed_generators(code.group())))
    dense = tuple(parse(pauli.format(s)) for s in seeds)
    assert [pauli.format(s) for s in seeds] == [pauli.format(d) for d in dense]
    assert seeds != dense and dense != seeds
    v1 = family.CodeSpec.from_json_dict(
        {**code.to_json_dict(), "seed_generators": [pauli.format(s) for s in dense], "version": 1}
    )
    assert isinstance(v1.seed_generators, PureXList) and v1.seed_generators.n == code.n
    assert v1 == code and code == v1 and hash(v1) == hash(code)


def test_pure_x_items_carry_no_dict():
    xs = pure_xs(8, [(1, 2), (3,)])
    for p in (PureX(8, (1, 3)), xs[0], *xs, *xs[:]):
        assert type(p) is PureX and not hasattr(p, "__dict__")


def test_pure_x_list_indexing():
    xs = pure_xs(8, [(1, 2), (), (3, 5, 8)])
    assert len(xs) == 3 and xs[0] == PureX(8, (1, 2)) and xs[1] == PureX(8, ()) and xs[2] == PureX(8, (3, 5, 8))
    assert xs[-1] == xs[2] and xs[-3] == xs[0] and xs[np.int64(1)] == xs[1]
    assert xs[1:] == (xs[1], xs[2]) and xs[::-2] == (xs[2], xs[0]) and xs[5:] == () and xs[:] == tuple(xs)
    assert list(xs) == [xs[0], xs[1], xs[2]] and list(reversed(xs)) == [xs[2], xs[1], xs[0]]
    assert PureX(8, ()) in xs and xs.index(PureX(8, (3, 5, 8))) == 2 and PureX(8, (1,)) not in xs
    for past in (3, -4, 2**70):
        with pytest.raises(IndexError):
            xs[past]
    with pytest.raises(TypeError):
        xs["1"]
    assert len(pure_xs(8, [])) == 0 and list(pure_xs(8, [])) == [] and pure_xs(8, []) == PureXList(8, [], [])


def test_pure_x_list_is_read_only():
    xs = pure_xs(8, [(1, 2), (3,)])
    for name in ("n", "ends", "qubits", "other"):
        with pytest.raises(AttributeError):
            setattr(xs, name, None)
    for array in (xs.ends, xs.qubits):
        with pytest.raises(ValueError):
            array[0] = 4
    ends, qubits = np.array([2, 3]), np.array([1, 2, 3])
    copied = PureXList(8, ends, qubits)
    ends[0] = qubits[0] = 5  # the list keeps its own arrays
    assert list(copied) == [PureX(8, (1, 2)), PureX(8, (3,))] and copied == pure_xs(8, [(1, 2), (3,)])


def test_pure_x_list_items_hold_python_ints():
    n = 12
    constraints = [0b101101, 0b110000001111]
    lists = [
        pure_xs(n, [(np.int64(1), np.int32(3)), [np.uint16(12)]]),
        PureXList(n, *gf2.nullspace_rref(constraints, n)),
        PureXList(n, np.array([2]), np.array([1, 5], dtype=np.uint16)),
        codewords.seed_generators(family.build_code(4).group()),
    ]
    for xs in lists:
        assert len(xs) and all(type(q) is int for p in xs for q in p.support)
        assert all(type(q) is int for p in (xs[0], xs[-1]) for q in p.support)
        assert all(type(q) is int for support in xs.supports() for q in support)


def test_pure_x_list_keeps_qubits_past_int32():
    xs = pure_xs(2**40, [(1, 2**35)])
    assert xs[0].support == (1, 2**35) and xs.supports() == [[1, 2**35]] and xs.qubits.dtype == np.int64
    with pytest.raises(ValueError, match="strictly ascending") as bad:
        pure_xs(2**40, [(2**35, 1)])
    assert bad.value.support_index == 1
    assert pure_xs(2**31 - 1, [(1, 2**31 - 1)]).qubits.dtype == np.int32
    assert pure_xs(2**63 - 1, [(1, 2**63 - 1)])[0].support == (1, 2**63 - 1)
    for n in (0, 2**63, 2**70):  # qubits are held as int64
        with pytest.raises(ValueError, match="qubit count must lie in 1..2\\^63 - 1"):
            pure_xs(n, [(1, 2)])


@pytest.mark.parametrize(
    "ends, qubits",
    [
        ([2], [1, 2, 3]),  # a qubit that no support holds
        ([3, 1], [1, 2, 3]),  # falling
        ([-1, 3], [1, 2, 3]),
        ([4], [1, 2, 3]),
        ([], [1, 2, 3]),
    ],
)
def test_pure_x_list_checks_its_ends(ends, qubits):
    with pytest.raises(ValueError, match="ends must rise from 0 to 3, the qubit count"):
        PureXList(8, ends, qubits)
    assert PureXList(8, [0, 3, 3], qubits).supports() == [[], [1, 2, 3], []]


@pytest.mark.parametrize(
    "ends, qubits, message",
    [
        ([1], [1.5], "^qubits must hold integers, got float64 entries$"),
        ([1.7], [1], "^ends must hold integers, got float64 entries$"),
        ([True], [3], "^ends must hold integers, got bool entries$"),
        ([1], [True], "^qubits must hold integers, got bool entries$"),
        ([1], ["1"], "^qubits must hold integers"),
        ([2], [1, 2.0**70], "^qubits must hold integers, got float64 entries$"),
        ([2], np.array([1, 2.5], dtype=object), "^qubits must hold integers, got object entries$"),
    ],
)
def test_pure_x_list_refuses_entries_that_are_not_integers(ends, qubits, message):
    with pytest.raises(TypeError, match=message):
        PureXList(8, ends, qubits)


def test_pauli_operator_and_letter_guards():
    with pytest.raises(ValueError, match=r"^sign must be \+1 or -1, got 0$"):
        PauliOperator(2, 0, 0, 0)
    with pytest.raises(ValueError, match="^x_bits out of range for n qubits$"):
        PauliOperator(2, 4, 0)
    with pytest.raises(ValueError, match="^z_bits out of range for n qubits$"):
        PauliOperator(2, 0, 4)
    with pytest.raises(ValueError, match=r"^qubit index 0 out of range 1\.\.3$"):
        letter(parse("XYZ"), 0)
