import random

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import table_data
from strategies import random_op, valid_groups
from stabforge import codewords, family, gf2, oracle, stabilizer
from stabforge.pauli import PauliOperator, identity, multiply, parse, single
from stabforge.stabilizer import (
    CorrectabilityReport,
    DependentGeneratorError,
    MinusIdentityError,
    NotAbelianError,
    SquaresToMinusOneError,
    StabilizerGroup,
    Syndrome,
    check_correctability,
    enumerate_elements,
    error_syndromes,
    iter_errors,
    materialize,
    syndrome,
    validate,
    weight_one_syndromes,
)


def test_validate_family(code8, group8):
    assert group8.a == 5
    assert group8.generators == code8.generators


def test_validate_not_abelian():
    with pytest.raises(NotAbelianError) as exc:
        validate(2, [parse("XX"), parse("ZX")])
    assert (exc.value.r, exc.value.s) == (1, 2)


def test_validate_squares_to_minus_one():
    with pytest.raises(SquaresToMinusOneError):
        validate(1, [parse("Y")])


def test_validate_minus_identity():
    with pytest.raises(MinusIdentityError):
        validate(2, [parse("+ZZ"), parse("-ZZ")])


def test_validate_refuses_a_redundant_generator():
    with pytest.raises(DependentGeneratorError) as exc:
        validate(2, [parse("+ZZ"), parse("+ZZ")])
    assert exc.value.r == 2


def test_signed_echelon_tracks_signs_and_x_first_pivots():
    echelon = stabilizer.SignedEchelon([parse("ZZ"), parse("XX")])
    # X-parts are keyed above Z-parts, so the XX row sits above the ZZ row
    assert sorted(echelon.rows) == [1, 3]
    assert str(echelon.reduce(parse("-YY"))) == "-II"  # -YY * XX * ZZ
    assert str(echelon.reduce(parse("ZY"))) == "+YZ"  # ZY * XX = (-Y)(-Z)
    residue = echelon.insert(parse("ZI"))
    assert str(residue) == "+ZI" and echelon.rows[0] == residue
    assert str(echelon.insert(parse("-IZ"))) == "-II"  # -IZ * ZZ * ZI
    assert len(echelon.rows) == 3


def test_validate_rejects_wrong_n():
    with pytest.raises(ValueError):
        validate(3, [parse("ZZ")])


def test_syndrome_single_qubit_golden(group8):
    for i in range(8):
        assert str(syndrome(group8, single(8, i + 1, "X"))) == table_data.FX[i]
        assert str(syndrome(group8, single(8, i + 1, "Z"))) == table_data.FZ[i]
        assert str(syndrome(group8, single(8, i + 1, "Y"))) == table_data.FY[i]


def test_syndrome_identity_and_xor(group8):
    assert str(syndrome(group8, identity(8))) == "00000"
    e = multiply(single(8, 1, "X"), single(8, 2, "Z"))
    assert str(syndrome(group8, e)) == "11000"
    assert syndrome(group8, e).value == syndrome(group8, single(8, 1, "X")).value ^ syndrome(
        group8, single(8, 2, "Z")
    ).value


def test_syndrome_homomorphism_bulk(group8, rng):
    for _ in range(10_000):
        e, f = random_op(rng, 8), random_op(rng, 8)
        assert syndrome(group8, multiply(e, f)).value == syndrome(group8, e).value ^ syndrome(group8, f).value


@given(
    st.integers(0, 255), st.integers(0, 255),
    st.integers(0, 255), st.integers(0, 255),
)
def test_syndrome_homomorphism_property(group8, ex, ez, fx, fz):
    e = PauliOperator(8, ex, ez, 1)
    f = PauliOperator(8, fx, fz, 1)
    assert syndrome(group8, multiply(e, f)).value == syndrome(group8, e).value ^ syndrome(group8, f).value


def test_syndrome_string_round_trip():
    s = Syndrome(0b01001, 5)
    assert str(s) == "01001"
    assert str(Syndrome(0, 0)) == ""


def test_enumerate_small():
    group = validate(2, [parse("ZZ")])
    elems = {str(e) for e in enumerate_elements(group)}
    assert elems == {"+II", "+ZZ"}
    assert [str(e) for e in enumerate_elements(validate(2, []))] == ["+II"]


def test_enumerate_family(group8):
    elems = enumerate_elements(group8)
    assert len(elems) == 32
    assert len({(e.x_bits, e.z_bits, e.sign) for e in elems}) == 32
    # membership: every element has the zero syndrome
    assert all(syndrome(group8, e).value == 0 for e in elems)


def test_enumerate_guard():
    group = stabilizer.StabilizerGroup(30, tuple(single(30, i, "Z") for i in range(1, 26)))
    with pytest.raises(stabilizer.GroupTooLargeError):
        enumerate_elements(group)


def test_correctability_t1_passes(group8):
    report = check_correctability(group8, 1)
    assert report.ok
    assert report.total_errors == 25
    assert report.distinct_syndromes == 25


def test_correctability_t2_fails_with_witness(group8):
    report = check_correctability(group8, 2)
    assert not report.ok
    first, second = report.collision
    assert syndrome(group8, first) == syndrome(group8, second)
    assert first != second


def test_correctability_pigeonhole():
    group = validate(2, [parse("ZZ")])
    report = check_correctability(group, 1)
    assert not report.ok


def test_correctability_counting(group8):
    # a pass implies 2^a is at least the number of errors enumerated
    report = check_correctability(group8, 1)
    assert report.ok
    assert 2**group8.a >= report.total_errors


def test_iter_errors_order_and_count():
    errs = list(iter_errors(3, 1))
    assert [str(e) for e in errs[:4]] == ["+III", "+XII", "+YII", "+ZII"]
    assert len(errs) == 10
    assert len(list(iter_errors(3, 2))) == 1 + 9 + 27


def test_iter_errors_stops_at_weight_n():
    # no error has weight above n: t = 10**30 walks the 4^n errors and stops
    assert len(list(iter_errors(2, 10**30))) == 16


def test_weight_one_fast_path_matches_syndrome(group8):
    sx, sy, sz = weight_one_syndromes(group8)
    for i in range(1, 9):
        assert int(sx[i - 1]) == syndrome(group8, single(8, i, "X")).value
        assert int(sy[i - 1]) == syndrome(group8, single(8, i, "Y")).value
        assert int(sz[i - 1]) == syndrome(group8, single(8, i, "Z")).value


def test_weight_one_fast_path_matches_syndrome_j4():
    from stabforge import family

    code = family.build_code(4)
    group = code.group()
    sx, sy, sz = weight_one_syndromes(group)
    rng = np.random.default_rng(7)
    for i in map(int, rng.integers(1, 17, size=12)):
        assert int(sx[i - 1]) == syndrome(group, single(16, i, "X")).value
        assert int(sy[i - 1]) == syndrome(group, single(16, i, "Y")).value
        assert int(sz[i - 1]) == syndrome(group, single(16, i, "Z")).value


def five_qubit_copies(copies, logical_zs):
    # copies of the [[5,1,3]] code, the first logical_zs of them with their
    # logical Z added: every weight-1 error still has its own syndrome, and
    # two errors on one copy collide.
    blocks = ["XZZXI", "IXZZX", "XIXZZ", "ZXIXZ"]
    n = 5 * copies
    gens = [
        parse("I" * (5 * c) + b + "I" * (n - 5 * c - 5)) for c in range(copies) for b in blocks
    ] + [parse("I" * (5 * c) + "ZZZZZ" + "I" * (n - 5 * c - 5)) for c in range(logical_zs)]
    return validate(n, gens)


def group_a63():
    # a = 63, so the weight-1 syndromes no longer fit an int64
    group = five_qubit_copies(13, 11)
    assert group.a == 63
    return group


def group_a33():
    # a = 33: int64 syndromes, but 2^a slots outnumber the 1 + 3n = 106
    # errors of weight <= 1 far more than 8 to 1
    group = five_qubit_copies(7, 5)
    assert group.a == 33 and (1 << group.a) > 8 * (1 + 3 * group.n)
    assert weight_one_syndromes(group)[0].dtype == np.int64
    return group


def test_weight_one_fast_path_matches_syndrome_above_62_generators():
    group = group_a63()
    sx, sy, sz = weight_one_syndromes(group)
    assert sx.dtype == object
    for i in range(1, group.n + 1):
        assert sx[i - 1] == syndrome(group, single(group.n, i, "X")).value
        assert sy[i - 1] == syndrome(group, single(group.n, i, "Y")).value
        assert sz[i - 1] == syndrome(group, single(group.n, i, "Z")).value


def reference_weight_one_syndromes(group):
    """The per-generator form: each generator's bit row times its weight, summed."""
    n, a = group.n, group.a
    dtype = np.int64 if a <= 62 else object
    sx, sz = np.zeros((2, n), dtype=dtype)
    for r, g in enumerate(group.generators):
        w = 1 << (a - 1 - r)
        sx += gf2.bits(g.z_bits, n)[0].astype(dtype) * w
        sz += gf2.bits(g.x_bits, n)[0].astype(dtype) * w
    return sx, sx ^ sz, sz


def assert_same_weight_one_syndromes(group):
    got, want = weight_one_syndromes(group), reference_weight_one_syndromes(group)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert g.tolist() == w.tolist()


@given(valid_groups())
def test_weight_one_syndromes_match_the_per_generator_sum(group):
    assert_same_weight_one_syndromes(group)


@pytest.mark.parametrize("a, copies, logical_zs", [(24, 6, 0), (25, 6, 1), (33, 7, 5), (48, 12, 0), (62, 13, 10), (63, 13, 11)])
def test_weight_one_syndromes_match_the_per_generator_sum_at_row_group_edges(a, copies, logical_zs):
    # 24 rows are read per exact float32 product; int64 holds a <= 62
    group = five_qubit_copies(copies, logical_zs)
    assert group.a == a
    assert_same_weight_one_syndromes(group)


@pytest.mark.parametrize("a", [1, 24, 25, 63])
def test_weight_one_syndromes_match_the_per_generator_sum_across_column_chunks(a):
    # n = 2 * 8192 + 77: two full column chunks and a partial one; the rows
    # need not form a valid group for the bit columns to be read
    rng = random.Random(a)
    n = 2 * 8192 + 77
    gens = tuple(PauliOperator(n, rng.getrandbits(n), rng.getrandbits(n)) for _ in range(a))
    assert_same_weight_one_syndromes(StabilizerGroup(n, gens))


@given(valid_groups(), st.integers(0, 3))
def test_error_syndromes_match_generic_syndrome(group, t):
    # the walk's XORs of bit columns against syndrome() on every error
    walk = [(materialize(group.n, desc), value) for desc, value in error_syndromes(group, t)]
    assert walk == [(err, syndrome(group, err).value) for err in iter_errors(group.n, t)]


def reference_check_correctability(group, t):
    """Injectivity of f by brute force: every error of weight <= t through
    the generic syndrome, in iter_errors order, stopping at the first repeat."""
    seen = {}
    total = 0
    for err in iter_errors(group.n, t):
        total += 1
        value = syndrome(group, err).value
        if value in seen:
            return CorrectabilityReport(False, t, total, len(seen), (seen[value], err))
        seen[value] = err
    return CorrectabilityReport(True, t, total, len(seen))


@pytest.mark.parametrize("j", range(3, 13))
def test_correctability_matches_reference_family(j):
    from stabforge import family

    group = family.build_code(j).group()
    for t in (0, 1, 2):
        assert check_correctability(group, t) == reference_check_correctability(group, t)


@given(valid_groups(), st.integers(0, 3))
def test_correctability_matches_reference_random(group, t):
    assert check_correctability(group, t) == reference_check_correctability(group, t)


def test_correctability_matches_reference_above_62_generators():
    group = group_a63()
    for t in (1, 2):
        assert check_correctability(group, t) == reference_check_correctability(group, t)
    assert check_correctability(group, 1).ok


def test_correctability_matches_reference_with_too_many_slots_for_a_table():
    group = group_a33()
    for t in (1, 2):
        assert check_correctability(group, t) == reference_check_correctability(group, t)
    assert check_correctability(group, 1).ok


def test_correctability_t2_early_exit_j16():
    from stabforge import family

    group = family.build_code(16).group()
    assert check_correctability(group, 1) == CorrectabilityReport(True, 1, 196_609, 196_609)
    report = check_correctability(group, 2)
    assert not report.ok
    assert (report.total_errors, report.distinct_syndromes) == (196_611, 196_610)
    first, second = report.collision
    assert (first.x_bits, first.z_bits, first.sign) == (0, 0b1000, 1)  # +IIIZ...
    assert (second.x_bits, second.z_bits, second.sign) == (0b11, 0b10, 1)  # +XY...


def css_group(n, x_rows, z_rows):
    """The CSS group of one X-stabilizer per row of x_rows and one
    Z-stabilizer per row of z_rows, bit q-1 on qubit q."""
    return validate(n, [PauliOperator(n, r, 0, 1) for r in x_rows] + [PauliOperator(n, 0, r, 1) for r in z_rows])


def golay_group():
    """The [[23,1,7]] CSS code of the cyclic Golay code: its X- and
    Z-stabilizers are the 11 shifts of h(x) = (x + 1)(x^11 + x^9 + x^7 +
    x^6 + x^5 + x + 1)."""
    g = 0b101011100011  # x^11 + x^9 + x^7 + x^6 + x^5 + x + 1
    rows = [(g ^ (g << 1)) << s for s in range(11)]
    assert all(r.bit_count() == 8 and r < 1 << 23 for r in rows)
    return css_group(23, rows, rows)


# the [[8,0,4]] CSS state of the extended Hamming code, which is self-dual
HAMMING8_ROWS = (0b11110000, 0b11001100, 0b10101010, 0b11111111)

# t -> (ok, total_errors, distinct_syndromes, collision)
GOLAY_REPORTS = {
    2: (True, 2347, 2347, None),
    3: (True, 50164, 50164, None),
    # the first weight-4 error shares a syndrome with a weight-3 one
    4: (False, 50165, 50164, ("+IIIIIIIIIXIIXIIIIIIIIXI", "+XXXXIIIIIIIIIIIIIIIIIII")),
}


def _summary(report):
    pair = report.collision and tuple(map(str, report.collision))
    return report.ok, report.total_errors, report.distinct_syndromes, pair


@pytest.mark.parametrize("t", [2, 3, 4])
def test_correctability_walks_heavy_errors_of_golay_code(t):
    group = golay_group()
    report = check_correctability(group, t)
    assert _summary(report) == GOLAY_REPORTS[t]
    assert report == reference_check_correctability(group, t)


def test_correctability_finds_two_heavy_errors_colliding():
    group = css_group(8, HAMMING8_ROWS, HAMMING8_ROWS)
    report = check_correctability(group, 2)
    assert _summary(report) == (False, 89, 88, ("+XIIXIIII", "+IXXIIIII"))
    assert report == reference_check_correctability(group, 2)


def _oracle_ok(group, t):
    seeds = codewords.seed_generators(group)
    assert codewords.check_seeds(group, seeds) == []
    code = family.CodeSpec(group.n, group.n - group.a, 0, group.generators, seeds)
    return oracle.verify_code(code, t).ok


@settings(max_examples=400, deadline=None)
@given(valid_groups(), st.integers(0, 2))
def test_correctability_agrees_with_dense_oracle(group, t):
    try:
        oracle_ok = _oracle_ok(group, t)
    except codewords.MinusSignPureZError:  # no seeds: outside the seed construction
        assume(False)
    assert check_correctability(group, t).ok == oracle_ok


def test_correctability_agrees_with_dense_oracle_on_hamming_state():
    group = css_group(8, HAMMING8_ROWS, HAMMING8_ROWS)
    assert check_correctability(group, 1).ok and _oracle_ok(group, 1)
    assert not check_correctability(group, 2).ok and not _oracle_ok(group, 2)


def test_correctability_and_syndrome_guards(group8):
    with pytest.raises(ValueError, match="^t must be non-negative$"):
        check_correctability(group8, -1)
    for t, name in ((1.5, "1.5"), (True, "true"), ("1", "a string")):
        with pytest.raises(TypeError, match=f"^t must be an integer, got {name}$"):
            check_correctability(group8, t)
    report = check_correctability(group8, np.int64(1))
    assert type(report.t) is int and report == check_correctability(group8, 1)
    with pytest.raises(ValueError, match="^error acts on 4 qubits, expected 8$"):
        syndrome(group8, single(4, 1, "X"))
