"""Differential test of the signed elimination against frozen reference code.

The reference functions below are copies of the elimination code that came
before ``stabilizer.SignedEchelon``: the inline signed loop of
``validate`` (keyed by the highest bit of z << n | x), the inline X-part loop
of ``classify_generators``, and the unsigned echelon (here ``IntEchelon``)
behind the seed pivots and the ``check_seeds`` span.  ``nullspace_rref`` is
the int-yielding nullspace from before the seeds were held as ``PureX``
supports (``reference_supports`` puts it in the library's return form),
``reference_nullspace_columns`` builds the library's arrays by one
np.nonzero, as ``gf2.nullspace_rref`` did before it scattered each pivot
row, and ``reference_check_seeds`` reduces every seed one at a time, as
``check_seeds`` did before it took the leading bits of all seeds at once.
``reference_validate`` refuses a dependent generator, as ``validate`` does
since it stopped dropping one with a warning.  They are frozen here so
that any change in kept generators, rejections, classification, seeds or
seed problems shows up.
"""

import itertools
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reference import seed_list
from strategies import IntEchelon
from stabforge import family, gf2, pauli
from stabforge.codewords import (
    GeneratorClassification,
    MinusSignPureZError,
    check_seeds,
    classify_generators,
    seed_generators,
)
from stabforge.pauli import PauliOperator, PureX, commutes, multiply, parse, square_sign
from stabforge.stabilizer import (
    DependentGeneratorError,
    MinusIdentityError,
    NotAbelianError,
    SquaresToMinusOneError,
    StabilizerGroup,
    StabilizerValidationError,
    validate,
)


def reference_validate(n, generators):
    gens = list(generators)
    for r, g in enumerate(gens, 1):
        if g.n != n:
            raise ValueError(f"generator {r} acts on {g.n} qubits, expected {n}")
        if square_sign(g) == -1:
            raise SquaresToMinusOneError(r)
    for (r, g), (s, h) in itertools.combinations(enumerate(gens, 1), 2):
        if not commutes(g, h):
            raise NotAbelianError(r, s)

    echelon = {}
    for r, g in enumerate(gens, 1):
        v = g.x_bits | (g.z_bits << n)
        prod = g
        while v:
            h = v.bit_length() - 1
            if h not in echelon:
                break
            row, row_prod = echelon[h]
            v ^= row
            prod = multiply(prod, row_prod)
        if v == 0:
            raise (MinusIdentityError if prod.sign == -1 else DependentGeneratorError)(r)
        echelon[v.bit_length() - 1] = (v, prod)
    return StabilizerGroup(n, tuple(gens))


def reference_classify(group):
    type1 = []
    type2 = []
    pivots = {}  # high bit of x-part -> index into type1
    for g in group.generators:
        cur = g
        while cur.x_bits:
            h = cur.x_bits.bit_length() - 1
            if h not in pivots:
                break
            cur = multiply(cur, type1[pivots[h]])
        if cur.x_bits:
            pivots[cur.x_bits.bit_length() - 1] = len(type1)
            type1.append(cur)
        else:
            if cur.sign == -1:
                raise MinusSignPureZError(f"generator {g} reduces to {cur}")
            if cur.z_bits:
                type2.append(cur)
    return GeneratorClassification(tuple(type1), tuple(type2))


def nullspace_rref(constraints, n_cols):
    pivot_rows = {}
    for row in constraints:
        r = row
        while r:
            low = (r & -r).bit_length() - 1
            if low in pivot_rows:
                r ^= pivot_rows[low]
            else:
                pivot_rows[low] = r
                break
    for low in sorted(pivot_rows):
        for other in pivot_rows:
            if other != low and (pivot_rows[other] >> low) & 1:
                pivot_rows[other] ^= pivot_rows[low]
    correction = [0] * n_cols
    for low, row in pivot_rows.items():
        bit = 1 << low
        for c in np.flatnonzero(gf2.bits(row, n_cols)).tolist():
            correction[c] |= bit
    for c in range(n_cols):
        if c not in pivot_rows:
            yield c, (1 << c) | correction[c]


def reference_supports(constraints, n_cols, skip=()):
    """The frozen nullspace in the return form of gf2.nullspace_rref: the
    1-based support of each v_c, free columns in skip left out."""
    return [
        tuple((np.flatnonzero(gf2.bits(vec, n_cols)) + 1).tolist())
        for c, vec in nullspace_rref(constraints, n_cols)
        if c not in skip
    ]


def reference_nullspace_columns(constraints, n_cols, skip=()):
    """gf2.nullspace_rref's (ends, qubits) as one np.nonzero over the
    transposed pivot-row bits of the kept columns built them, with a row of
    ones for each column itself, before the per-pivot scatter."""
    pivot_rows = {}
    for row in constraints:
        r = row
        while r:
            low = (r & -r).bit_length() - 1
            if low in pivot_rows:
                r ^= pivot_rows[low]
            else:
                pivot_rows[low] = r
                break
    for low in sorted(pivot_rows):
        for other in pivot_rows:
            if other != low and (pivot_rows[other] >> low) & 1:
                pivot_rows[other] ^= pivot_rows[low]
    lows = np.array(sorted(pivot_rows), dtype=np.int64)
    kept = np.ones(n_cols, dtype=bool)
    kept[lows] = False
    kept[np.array(skip, dtype=np.int64)] = False
    cols = np.flatnonzero(kept)
    rows = np.ones((len(lows) + 1, len(cols)), dtype=np.uint8)
    for r, low in enumerate(lows.tolist()):
        rows[r] = gf2.bits(pivot_rows[low], n_cols)[0][cols]
    col, row = np.nonzero(rows.T)
    qubits = np.where(row < len(lows), np.append(lows, 0)[row], cols[col]) + 1
    return np.cumsum(np.bincount(col, minlength=len(cols))), qubits


def assert_same_nullspace_columns(constraints, n_cols, skip):
    ends, qubits = gf2.nullspace_rref(constraints, n_cols, skip=skip)
    want_ends, want_qubits = reference_nullspace_columns(constraints, n_cols, skip)
    assert (ends.dtype, qubits.dtype) == (want_ends.dtype, want_qubits.dtype)
    assert ends.tolist() == want_ends.tolist() and qubits.tolist() == want_qubits.tolist()


def split(columns):
    """The supports that gf2.nullspace_rref returns as (ends, qubits), as tuples."""
    ends, qubits = columns
    return [tuple(qubits[start:end].tolist()) for start, end in zip([0, *ends[:-1]], ends)]


def reference_seed_generators(group):
    cls = reference_classify(group)
    n = group.n
    constraints = [g.z_bits for g in cls.type2]
    dropped = IntEchelon(g.x_bits for g in cls.type1).pivots
    return [
        PauliOperator(n, vec, 0, 1)
        for c, vec in nullspace_rref(constraints, n)
        if c not in dropped
    ]


def reference_check_seeds(group, seeds):
    seeds = list(seeds)
    problems = []
    k = group.n - group.a
    if len(seeds) != k:
        problems.append(f"expected {k} seed generators, got {len(seeds)}")
    cls = reference_classify(group)
    span = IntEchelon(g.x_bits for g in cls.type1)
    for idx, s in enumerate(seeds, 1):
        if s.n != group.n:
            problems.append(f"seed {idx} acts on {s.n} qubits, expected {group.n}")
            continue
        if s.z_bits or s.sign != 1:
            problems.append(f"seed {idx} is not a +1 pure-X operator")
            continue
        if any((s.x_bits & g.z_bits).bit_count() % 2 for g in cls.type2):
            problems.append(f"seed {idx} anticommutes with a type-2 generator")
            continue
        if not span.insert(s.x_bits):
            problems.append(f"seed {idx} is dependent modulo the type-1 X-parts")
    return problems


def _validation(fn, n, gens):
    """(outcome, group): the generators kept, or the rejection."""
    try:
        group = fn(n, gens)
    except StabilizerValidationError as exc:
        return ("rejected", type(exc), exc.r, str(exc)), None
    return ("kept", group.generators), group


def _classification(fn, group):
    try:
        cls = fn(group)
    except MinusSignPureZError as exc:
        return str(exc)
    return cls.type1, cls.type2


def _reference_problems(group, seeds):
    """Seed problems; a classification failure, which the reference raised,
    is the last problem after the count check."""
    try:
        return reference_check_seeds(group, seeds)
    except MinusSignPureZError as exc:
        k = group.n - group.a
        count = [] if len(seeds) == k else [f"expected {k} seed generators, got {len(seeds)}"]
        return count + [str(exc)]


def _same_validation(n, gens):
    outcome, group = _validation(validate, n, gens)
    ref_outcome, ref_group = _validation(reference_validate, n, gens)
    assert outcome == ref_outcome and group == ref_group
    return outcome, group


def assert_same_as_reference(n, gens, claimed_seeds=()):
    """The first outcome, and the classification of the independent
    sublist: a generator refused as dependent (+identity) is dropped and
    the rest validated again, until they are accepted or refused otherwise."""
    gens = list(gens)
    outcome, group = first = _same_validation(n, gens)
    while outcome[1] is DependentGeneratorError:
        gens = gens[: outcome[2] - 1] + gens[outcome[2] :]
        outcome, group = _same_validation(n, gens)
    if group is None:
        return first[0], None
    cls = _classification(classify_generators, group)
    assert cls == _classification(reference_classify, group)
    seed_lists = [list(claimed_seeds)]
    if not isinstance(cls, str):
        seeds = seed_generators(group)
        assert [pauli.format(s) for s in seeds] == [pauli.format(s) for s in reference_seed_generators(group)]
        seed_lists += collision_lists(n, cls, seeds)
    for seeds in seed_lists:
        assert_seed_problems_match_reference(group, seeds)
    return first[0], cls


def assert_seed_problems_match_reference(group, claimed):
    """A claimed list of +1 pure-X seeds on n, as one PureXList, has the
    reference's problems, which are returned, and a version 1 file of it
    loads to that PureXList.  Any other list is refused: check_seeds and
    CodeSpec raise TypeError, and the version 1 file names the first bad
    seed."""
    n = group.n
    claimed = list(claimed)
    v1 = {
        "n": n, "k": n - group.a, "j": 0, "generators": [pauli.format(g) for g in group.generators],
        "seed_generators": [pauli.format(s) for s in claimed], "version": 1,
    }
    bad = [idx for idx, s in enumerate(claimed, 1) if s.n != n or s.z_bits or s.sign != 1]
    if not bad:
        seeds = seed_list(n, claimed)
        assert family.CodeSpec.from_json_dict(v1).seed_generators == seeds
        problems = check_seeds(group, seeds)
        assert problems == _reference_problems(group, claimed)
        return problems
    with pytest.raises(TypeError, match=f"seeds must be a PureXList on {n} qubits"):
        check_seeds(group, claimed)
    with pytest.raises(TypeError, match=f"seeds must be a PureXList on {n} qubits"):
        family.CodeSpec(n, n - group.a, 0, group.generators, claimed)
    message = f"malformed code spec: seed generator {bad[0]} is not a +1 pure-X operator on {n} qubits"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        family.CodeSpec.from_json_dict(v1)
    return None


def pure_x(n, x_bits):
    return PureX(n, [q for q in range(1, n + 1) if (x_bits >> (q - 1)) & 1])


def collision_lists(n, cls, seeds):
    """The constructed seeds, then lists whose leading bits collide, so that
    check_seeds must run its echelon: a dense product of two seeds, a
    repeated seed, a seed on a type-1 pivot, and dense and PureX seeds
    mixed with a dense duplicate."""
    type1 = cls[0]
    lists = [seeds]
    items = list(seeds)
    if len(seeds) >= 2:  # one more seed, dependent on two others
        lists.append(items + [multiply(seeds[0], seeds[1])])
    if seeds:
        lists.append(items + [seeds[0]])
        dense = [PauliOperator(n, s.x_bits, 0, 1) for s in seeds]
        lists.append(dense[::2] + items[1::2] + [dense[-1]])
    if type1:  # the X-part of a type-1 generator lies in their span
        lists.append([pure_x(n, type1[0].x_bits)] + items)
    return lists


@st.composite
def candidate_lists(draw):
    """Raw generator candidates on n <= 7 qubits with random signs.

    About half the fresh candidates are pure Z; about a quarter of all
    candidates are a product of earlier ones with a random sign, so
    dependent (+identity) and -identity cases are common.  Most lists keep
    only candidates that square to +1 and commute with those before, so
    validate accepts them; the rest are left raw to exercise the
    rejections too.  Claimed seeds are dense operators or PureX supports,
    some of them on another qubit count.
    """
    n = draw(st.integers(1, 7))
    bits = st.integers(0, (1 << n) - 1)
    commuting = draw(st.integers(0, 3)) > 0
    gens = []
    for _ in range(draw(st.integers(0, 2 * n))):
        sign = draw(st.sampled_from([1, -1]))
        if gens and draw(st.integers(0, 3)) == 0:
            subset = draw(st.lists(st.sampled_from(gens), min_size=1, max_size=3))
            x = z = 0
            for g in subset:
                x, z = x ^ g.x_bits, z ^ g.z_bits
        else:
            x = 0 if draw(st.booleans()) else draw(bits)
            z = draw(bits)
        op = PauliOperator(n, x, z, sign)
        if commuting and (square_sign(op) == -1 or not all(commutes(op, g) for g in gens)):
            continue
        gens.append(op)
    dense = st.builds(
        lambda x, z, sign: PauliOperator(n, x, z, sign),
        bits,
        st.just(0) | bits,
        st.just(1) | st.just(-1),
    )
    sparse = st.builds(lambda x, m: pure_x(m, x & ((1 << m) - 1)), bits, st.just(n) | st.integers(1, 7))
    claimed = draw(st.lists(dense | sparse, max_size=n + 1))
    return n, gens, claimed


@pytest.mark.parametrize("j", range(3, 7))
def test_collision_lists_match_reference(j):
    """Every collision list takes check_seeds' echelon and finds a dependent seed."""
    code = family.build_code(j)
    group = validate(code.n, code.generators)
    cls = classify_generators(group)
    seeds = list(code.seed_generators)
    assert all(isinstance(s, PureX) for s in seeds)
    for claimed in collision_lists(code.n, (cls.type1, cls.type2), seeds)[1:]:
        problems = assert_seed_problems_match_reference(group, claimed)
        assert any("dependent modulo the type-1 X-parts" in p for p in problems)


def test_seed_problems_keep_their_order():
    """Problems of every kind, from dense and PureX seeds, come out in seed order."""
    group = validate(8, family.build_code(3).generators)
    claimed = [
        PureX(8, (1, 2)),
        parse("+XXIIIIII"),  # a dense duplicate of seed 1
        PureX(8, (1,)),  # X_1 anticommutes with the all-Z generator
        PureX(8, ()),  # the identity
        parse("+XIXIIIII"),
    ]
    problems = check_seeds(group, seed_list(8, claimed))
    assert problems == _reference_problems(group, claimed)
    assert problems == [
        "expected 3 seed generators, got 5",
        "seed 2 is dependent modulo the type-1 X-parts",
        "seed 3 anticommutes with a type-2 generator",
        "seed 4 is dependent modulo the type-1 X-parts",
    ]


@settings(max_examples=400, deadline=None)
@given(candidate_lists())
def test_elimination_matches_reference(case):
    n, gens, claimed = case
    assert_same_as_reference(n, gens, claimed)


@pytest.mark.parametrize(
    "texts, expected",
    [
        (["XX", "ZZ", "YY"], ("rejected", DependentGeneratorError, 3, 2)),  # XX * ZZ = +YY, so YY is redundant
        (["XX", "ZZ", "-YY"], ("rejected", MinusIdentityError, 3)),
        (["ZZI", "IZZ", "ZIZ", "XXX"], ("rejected", DependentGeneratorError, 3, 3)),
        (["-ZZ"], "generator -ZZ reduces to -ZZ"),
        (["XXX", "-ZZI", "IZZ"], "generator -ZZI reduces to -ZZI"),
        (["XX", "-YY"], "generator -YY reduces to -ZZ"),
    ],
)
def test_elimination_examples(texts, expected):
    from stabforge.pauli import parse

    gens = [parse(t) for t in texts]
    outcome, cls = assert_same_as_reference(gens[0].n, gens)
    if isinstance(expected, str):
        assert cls == expected
    elif expected[1] is DependentGeneratorError:  # and the independent rest, of this many generators, classified
        assert outcome[:3] == expected[:3] and sum(map(len, cls)) == expected[3]
    else:
        assert outcome[:3] == expected


@pytest.mark.parametrize("j", range(3, 11))
def test_family_matches_reference(j):
    code = family.build_code(j)
    assert_same_as_reference(code.n, code.generators, code.seed_generators)


@pytest.mark.parametrize("j", range(3, 13))
def test_family_seeds_match_column_by_column_reference(j):
    code = family.build_code(j)
    group = validate(code.n, code.generators)
    cls = classify_generators(group)
    constraints = [g.z_bits for g in cls.type2]
    pivots = IntEchelon(g.x_bits for g in cls.type1).pivots
    assert split(gf2.nullspace_rref(constraints, code.n, skip=list(pivots))) == reference_supports(
        constraints, code.n, pivots
    )
    assert [pauli.format(s) for s in seed_generators(group)] == [
        pauli.format(s) for s in reference_seed_generators(group)
    ]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_nullspace_matches_reference(data):
    """Any constraints, and any columns to skip, pivots among them."""
    n = data.draw(st.integers(1, 12))
    constraints = data.draw(st.lists(st.integers(0, (1 << n) - 1), max_size=n + 2))
    skip = data.draw(st.sets(st.integers(0, n - 1)))
    supports = split(gf2.nullspace_rref(constraints, n, skip=sorted(skip)))
    assert supports == reference_supports(constraints, n, skip)


@pytest.mark.parametrize("seed", range(3))
def test_nullspace_matches_reference_past_64_pivot_rows(seed):
    """More pivot rows than one 64-bit word holds."""
    rng = random.Random(seed)
    n = 100
    constraints = [rng.getrandbits(n) for _ in range(80)]
    skip = rng.sample(range(n), 10)
    assert split(gf2.nullspace_rref(constraints, n, skip=skip)) == reference_supports(constraints, n, skip)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_nullspace_arrays_match_the_nonzero_construction(data):
    """Any constraints, and any skip list: unsorted, repeated, pivots among them."""
    n = data.draw(st.integers(1, 150))
    constraints = data.draw(st.lists(st.integers(0, (1 << n) - 1), max_size=12))
    skip = data.draw(st.lists(st.integers(0, n - 1), max_size=n))
    assert_same_nullspace_columns(constraints, n, skip)


@pytest.mark.parametrize("seed", range(3))
def test_nullspace_arrays_match_the_nonzero_construction_on_wide_sparse_rows(seed):
    # many pivot rows of a few bits each, so supports differ in size
    rng = random.Random(seed)
    n = 1000 + seed
    constraints = [sum(1 << q for q in rng.sample(range(n), rng.randint(1, 6))) for _ in range(120)]
    assert_same_nullspace_columns(constraints, n, rng.sample(range(n), 200))


@pytest.mark.parametrize("j", [3, 8, 12, 16])
def test_nullspace_arrays_match_the_nonzero_construction_on_the_family(j):
    cls = classify_generators(family.build_code(j).group())
    pivots = [g.x_bits.bit_length() - 1 for g in cls.type1]
    assert_same_nullspace_columns([g.z_bits for g in cls.type2], 1 << j, pivots)
