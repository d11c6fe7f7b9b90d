import dataclasses
import gc
import hashlib
import json

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import table_data
from strategies import valid_groups
from stabforge import bounds, codewords, family, pauli, stabilizer
from stabforge.family import (
    CodeSpec,
    assign_numbers,
    build_code,
    commutes_by_disagreement,
    derive_generators,
    letter_census,
)
from stabforge.pauli import (
    PauliOperator,
    PureX,
    PureXList,
    commutes,
    identity,
    letter,
    multiply,
    pure_xs,
    single,
    square_sign,
)


def test_assign_numbers_golden():
    a = assign_numbers(3)
    for i in range(1, 9):
        assert a.as_string(int(a.fx[i - 1])) == table_data.FX[i - 1]
        assert a.as_string(int(a.fz[i - 1])) == table_data.FZ[i - 1]
        assert a.as_string(int(a.fy[i - 1])) == table_data.FY[i - 1]


def test_assign_numbers_prefixes_and_xor():
    for j in (3, 4, 5):
        a = assign_numbers(j)
        n = a.n
        assert all(v >> j == 0b01 for v in a.fx)
        assert all(v >> j == 0b10 for v in a.fz)
        assert all(v >> j == 0b11 for v in a.fy)
        assert np.array_equal(a.fy, a.fx ^ a.fz)
        assert a.fx[0] == 0b01 << j
        assert a.fx[n - 1] == (0b01 << j) | (n - 1)


def test_assign_numbers_distinct_j4_to_j10():
    for j in range(4, 11):
        a = assign_numbers(j)
        values = np.concatenate([a.fx, a.fz, a.fy])
        assert len(np.unique(values)) == 3 * a.n


def test_assign_numbers_rejects_small_j():
    with pytest.raises(ValueError):
        assign_numbers(2)


def test_derive_generators_golden():
    gens = derive_generators(assign_numbers(3))
    assert [pauli.format(g) for g in gens] == table_data.GENERATORS


@pytest.mark.parametrize("j", range(3, 17))
def test_derive_generators_match_the_int64_bit_planes(j):
    # M_r's X / Z bits are bit (width - r) of f(Z_i) / f(X_i), read here from the int64 numbers
    a = assign_numbers(j)
    want = []
    for shift in range(a.bit_width - 1, -1, -1):
        x, z = (np.packbits(((f >> shift) & 1).astype(np.uint8), bitorder="little") for f in (a.fz, a.fx))
        want.append(PauliOperator(a.n, int.from_bytes(x.tobytes(), "little"), int.from_bytes(z.tobytes(), "little")))
    assert derive_generators(a) == want


def test_build_code_j3_golden(code8):
    assert (code8.n, code8.k, code8.j) == (8, 3, 3)
    assert [pauli.format(g) for g in code8.generators] == table_data.GENERATORS
    assert [pauli.format(s) for s in code8.seed_generators] == table_data.SEED_GENERATORS


def test_build_code_j4():
    code = build_code(4)
    assert (code.n, code.k) == (16, 10)
    group = code.group()
    assert group.a == 6
    assert stabilizer.check_correctability(group, 1).ok
    assert codewords.check_seeds(group, code.seed_generators) == []


def test_build_code_validates_the_generators_once(code8, monkeypatch):
    calls = []

    def counting_validate(n, generators):
        calls.append(n)
        return stabilizer.validate(n, generators)

    monkeypatch.setattr(family, "validate", counting_validate)
    assert build_code(3) == code8
    assert calls == [8]
    dataclasses.replace(code8)  # that one call is the constructor's
    assert calls == [8, 8]


def test_build_code_range():
    with pytest.raises(ValueError):
        build_code(2)
    with pytest.raises(ValueError):
        build_code(17)


def test_letter_census(code8):
    assert letter_census(code8.generators[2]) == (2, 2, 2, 2)
    assert letter_census(code8.generators[0]) == (0, 8, 0, 0)
    assert letter_census(code8.generators[1]) == (0, 0, 0, 8)
    code = build_code(5)
    for g in code.generators[2:]:
        assert letter_census(g) == (8, 8, 8, 8)


def test_commutes_by_disagreement_examples(code8):
    assert commutes_by_disagreement(code8.generators[0], code8.generators[1])
    assert not commutes_by_disagreement(single(1, 1, "X"), single(1, 1, "Z"))
    with pytest.raises(ValueError, match="^qubit count mismatch: 1 != 2$"):
        commutes_by_disagreement(single(1, 1, "X"), single(2, 1, "X"))


def test_commutes_by_disagreement_matches_symplectic(rng):
    for _ in range(10_000):
        p = PauliOperator(8, int(rng.integers(0, 256)), int(rng.integers(0, 256)),
                          int(rng.choice([1, -1])))
        q = PauliOperator(8, int(rng.integers(0, 256)), int(rng.integers(0, 256)),
                          int(rng.choice([1, -1])))
        assert commutes_by_disagreement(p, q) == commutes(p, q)


def _invert_positions(j, n):
    half = 1 << (j - 1)
    for i in range(1, n + 1):
        if j % 2 == 0:
            yield i, i % 2 == 1
        else:
            yield i, (i % 2 == 1) if i <= half else (i % 2 == 0)


def reference_generator(j, r):
    """Rebuild M_r from the block-cycle description: letters cycle
    I -> Z -> X -> Y in blocks of 2^{j-(r-2)}, with I<->X and Z<->Y swapped
    wherever the NOT applies."""
    n = 1 << j
    if r == 1:
        return "X" * n
    if r == 2:
        return "Z" * n
    block = 1 << (j - (r - 2))
    cycle = "IZXY"
    swap = {"I": "X", "X": "I", "Z": "Y", "Y": "Z"}
    out = []
    for i, inverted in _invert_positions(j, n):
        L = cycle[((i - 1) // block) % 4]
        out.append(swap[L] if inverted else L)
    return "".join(out)


def test_generators_match_cycle_structure():
    for j in range(3, 7):
        gens = derive_generators(assign_numbers(j))
        for r, g in enumerate(gens, 1):
            expected = reference_generator(j, r)
            got = "".join(letter(g, i) for i in range(1, g.n + 1))
            assert got == expected, f"j={j} M_{r}"


def test_family_sweep_small():
    for j in (3, 4, 5, 6):
        code = build_code(j)
        group = code.group()
        n = code.n
        assert group.a == j + 2
        assert all(square_sign(g) == 1 for g in group.generators)
        report = stabilizer.check_correctability(group, 1)
        assert report.ok and report.distinct_syndromes == 3 * n + 1
        assert code.k == bounds.qhb_max_k(n, 1) == n - j - 2


def test_codespec_json_round_trip(code8, tmp_path):
    path = tmp_path / "code8.json"
    code8.save(path)
    data = json.loads(path.read_text())
    assert list(data) == ["n", "k", "j", "generators", "seed_generators", "construction", "version"]
    assert data["generators"] == table_data.GENERATORS
    assert data["seed_generators"] == [[1, 2], [1, 3], [1, 5]]
    assert data["version"] == 2
    loaded = CodeSpec.load(path)
    assert loaded == code8
    assert isinstance(loaded.seed_generators, PureXList)
    assert all(isinstance(s, PureX) for s in loaded.seed_generators)
    assert [pauli.format(s) for s in loaded.seed_generators] == table_data.SEED_GENERATORS


def test_codespec_load_rejects_garbage(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ValueError):
        CodeSpec.load(path)
    path.write_text(json.dumps({"n": 8}))
    with pytest.raises(ValueError):
        CodeSpec.load(path)
    path.write_text(json.dumps({"n": 8, "k": 3, "j": 3, "generators": ["+XQ"],
                                "seed_generators": []}))
    with pytest.raises(ValueError):
        CodeSpec.load(path)


@pytest.mark.parametrize("j", range(3, 13))
def test_codespec_family_out_round_trip_byte_identical(j, tmp_path):
    from stabforge import cli

    path = tmp_path / "code.json"
    assert cli.main(["family", "--j", str(j), "--out", str(path), "--json"]) == 0
    again = tmp_path / "again.json"
    loaded = CodeSpec.load(path)
    assert loaded == build_code(j)
    loaded.save(again)
    assert again.read_bytes() == path.read_bytes()


@pytest.mark.parametrize(
    "change",
    [
        {"n": 8.9},
        {"n": 8.0},
        {"n": "8"},
        {"n": True},
        {"k": True},
        {"j": 3.0},
        {"version": True},
        {"version": "1"},
        {"k": 4},
        {"n": 0, "k": -5},
        {"n": 9, "k": 4},
        {"generators": "+XXXXXXXX"},
        {"generators": [["+XXXXXXXX"]]},
        {"seed_generators": [7]},
        {"seed_generators": ["+XXII"]},
        {"version": 0},
        {"version": 3},
        {"version": 1},  # version 1 seeds are Pauli strings
        {"seed_generators": "[[1, 2]]"},
        {"seed_generators": [[1, 2], [1, 3], "+XIIIXIII"]},
        {"seed_generators": ["+XXIIIIII", "+XIXIIIII", "+XIIIXIII"]},  # version 1 strings under version 2
        {"seed_generators": [[1, 2], [1, 3], (1, 5)]},  # JSON has no tuples
        {"seed_generators": [[1, 2], [3, 1], [1, 5]]},
        {"seed_generators": [[1, 2], [1, 1], [1, 5]]},
        {"seed_generators": [[1, 2], [1, 3], [0, 5]]},
        {"seed_generators": [[1, 2], [1, 3], [1, 9]]},
        {"seed_generators": [[1, 2], [1, 3], [1, 10**30]]},
        {"seed_generators": [[1, 2], [1, 3], [True, 5]]},
        {"seed_generators": [[1, 2], [1, 3], [1, 5.0]]},
        {"seed_generators": [[1, 2], [1, 3], [1, [5]]]},
        {"seed_generators": [[1, 2], [1, 3], [1, None]]},
        {"version": 1, "seed_generators": ["+XXIIIIII", "+XIXIIIII", "+ZIIIIIII"]},  # not pure X
        {"version": 1, "seed_generators": ["+XXIIIIII", "+XIXIIIII", "-XIIIXIII"]},
        {"version": 1, "seed_generators": ["+XXIIIIII", "+XIXIIIII", "+XIIIX"]},
        {"construction": None},
        {"construction": 5},
        {"construction": ["x"]},
    ],
)
def test_codespec_load_is_strict(code8, change):
    data = {**code8.to_json_dict(), **change}
    with pytest.raises(ValueError, match="malformed code spec"):
        CodeSpec.from_json_dict(data)


@pytest.mark.parametrize(
    "seeds, message",
    [
        ([[1, 2], [3, 1], [1, 5]], "seed generator 2: support must be strictly ascending"),
        ([[1, 2], [1, 3], [1, 9]], "seed generator 3: support out of range 1..8"),
        ([[1, 2], [1, 2**63], [1, 5]], "seed generator 2: support out of range 1..8"),
        ([[1, 2], [3, 1], [0, 5]], "seed generator 3: support out of range 1..8"),
        ([[1, True], [1, 3], [1, 5]], "seed generator 1: a qubit must be an integer, got true"),
    ],
)
def test_codespec_load_names_the_bad_seed(code8, seeds, message):
    data = {**code8.to_json_dict(), "seed_generators": seeds}
    with pytest.raises(ValueError) as bad:
        CodeSpec.from_json_dict(data)
    assert str(bad.value) == f"malformed code spec: {message}"


@pytest.mark.parametrize("data, got", [([1, 2], "list"), ("abc", "str"), (5, "int"), (None, "null")])
def test_codespec_load_wants_a_json_object(data, got):
    with pytest.raises(ValueError) as bad:
        CodeSpec.from_json_dict(data)
    assert str(bad.value) == f"malformed code spec: expected a JSON object, got {got}"


@pytest.mark.parametrize("key", ["n", "k", "j", "generators", "seed_generators"])
def test_codespec_load_names_a_missing_field(code8, key):
    data = code8.to_json_dict()
    del data[key]
    with pytest.raises(ValueError) as bad:
        CodeSpec.from_json_dict(data)
    assert str(bad.value) == f"malformed code spec: missing field {key!r}"


def test_codespec_load_rejects_short_generator(code8):
    data = code8.to_json_dict()
    data["generators"][2] = data["generators"][2][:-1]
    with pytest.raises(ValueError, match="generator 3 acts on 7 qubits, expected 8"):
        CodeSpec.from_json_dict(data)


def test_codespec_version_defaults_to_1(code8):
    data = {**code8.to_json_dict(), "seed_generators": table_data.SEED_GENERATORS}
    del data["version"]
    assert CodeSpec.from_json_dict(data) == code8


def test_codespec_rejects_a_seed_that_is_not_pure_x(code8):
    # neither file version can hold such a seed, and no CodeSpec holds one
    for bad in ("+ZXIIIIII", "-XXIIIIII", "+XX"):
        seeds = (pauli.parse(bad),) + code8.seed_generators[1:]
        with pytest.raises(TypeError, match="^seeds must be a PureXList on 8 qubits: a CodeSpec's seed_generators"):
            dataclasses.replace(code8, seed_generators=seeds)
        data = {**code8.to_json_dict(), "seed_generators": [pauli.format(s) for s in seeds], "version": 1}
        with pytest.raises(ValueError) as malformed:
            CodeSpec.from_json_dict(data)
        assert str(malformed.value) == "malformed code spec: seed generator 1 is not a +1 pure-X operator on 8 qubits"


def test_codespec_seeds_are_one_pure_x_list(code8, tmp_path):
    path = tmp_path / "code8.json"
    code8.save(path)
    v1 = {**code8.to_json_dict(), "seed_generators": table_data.SEED_GENERATORS, "version": 1}
    specs = [
        code8,
        CodeSpec.load(path),
        CodeSpec.from_json_dict(v1),
        dataclasses.replace(code8, seed_generators=pure_xs(8, code8.seed_generators.supports())),
        dataclasses.replace(code8, seed_generators=pure_xs(8, [])),
    ]
    for spec in specs:
        assert isinstance(spec.seed_generators, PureXList) and spec.seed_generators.n == 8
    assert specs[1:4] == [code8] * 3 and hash(specs[2]) == hash(specs[3]) == hash(code8)
    assert specs[4].to_json_dict()["seed_generators"] == []


def test_codespec_takes_only_a_pure_x_list_on_n(code8):
    seeds = code8.seed_generators
    # a list, a tuple (a PureXList slice is one), an empty tuple and a PureXList on 9 qubits
    for other in (list(seeds), seeds[:], (), pure_xs(9, seeds.supports())):
        with pytest.raises(TypeError, match="^seeds must be a PureXList on 8 qubits: a CodeSpec's seed_generators"):
            dataclasses.replace(code8, seed_generators=other)
        with pytest.raises(TypeError, match="^seeds must be a PureXList on 8 qubits"):
            CodeSpec(8, 3, 3, code8.generators, other)


def _version_1(n, texts):
    """A version 1 spec dict on n qubits, no generators, with these seed strings."""
    return {"n": n, "k": n, "j": 0, "generators": [], "seed_generators": texts, "version": 1}


@st.composite
def version_1_seeds(draw):
    """(n, supports, texts): qubit supports on n <= 9 qubits, any number of
    them, empty ones too, and their version 1 strings, signed or unsigned."""
    n = draw(st.integers(1, 9))
    supports = draw(st.lists(st.sets(st.integers(1, n)).map(sorted), max_size=12))
    signs = draw(st.lists(st.sampled_from(["+", ""]), min_size=len(supports), max_size=len(supports)))
    texts = [sign + "".join("X" if q in s else "I" for q in range(1, n + 1)) for sign, s in zip(signs, supports)]
    return n, supports, texts


@settings(max_examples=200, deadline=None)
@given(version_1_seeds())
def test_version_1_seeds_load_as_their_supports(case):
    n, supports, texts = case
    seeds = CodeSpec.from_json_dict(_version_1(n, texts)).seed_generators
    want = pure_xs(n, supports)
    assert seeds == want and hash(seeds) == hash(want)


@settings(max_examples=200, deadline=None)
@given(version_1_seeds(), st.data())
def test_version_1_seed_that_is_not_pure_x_on_n_is_malformed(case, data):
    n, _, texts = case
    letters = list(data.draw(st.sampled_from(texts)).lstrip("+") if texts else "I" * n)
    defect = data.draw(st.sampled_from(["Z", "Y", "-", "\u2212", "longer"] + (["shorter"] if n > 1 else [])))
    if defect in ("Z", "Y"):
        letters[data.draw(st.integers(0, n - 1))] = defect
    elif defect == "longer":
        letters.append(data.draw(st.sampled_from("IX")))
    elif defect == "shorter":
        letters.pop()
    bad = (defect if defect in ("-", "\u2212") else data.draw(st.sampled_from(["+", ""]))) + "".join(letters)
    idx = data.draw(st.integers(0, len(texts)))
    texts.insert(idx, bad)
    with pytest.raises(ValueError) as malformed:
        CodeSpec.from_json_dict(_version_1(n, texts))
    assert str(malformed.value) == f"malformed code spec: seed generator {idx + 1} is not a +1 pure-X operator on {n} qubits"


@pytest.mark.parametrize("n", [1, 7, 64, 65, 130, 200])
def test_version_1_seeds_convert_word_by_word(n):
    # the loader reads the qubits of all the seeds from their 64-bit words at once
    rng = np.random.default_rng(5)
    xs = [0, 1, 1 << (n - 1), (1 << n) - 1] + [int.from_bytes(rng.bytes(n // 8 + 1), "little") % (1 << n) for _ in range(6)]
    texts = [pauli.format(PauliOperator(n, x, 0, 1)) for x in xs]
    seeds = CodeSpec.from_json_dict(_version_1(n, texts)).seed_generators
    assert seeds.supports() == [[q for q in range(1, n + 1) if x >> (q - 1) & 1] for x in xs]


def test_codespec_names_a_construction_that_is_not_a_string(code8):
    for bad, got in ((None, "null"), (5, "5"), (["x"], "an array")):
        with pytest.raises(ValueError) as malformed:
            CodeSpec.from_json_dict({**code8.to_json_dict(), "construction": bad})
        assert str(malformed.value) == f"malformed code spec: construction must be a string, got {got}"


# a field or seed entry of the wrong JSON type, and the words that name it
JSON_VALUE_ERRORS = [
    ({"n": None}, "n must be an integer, got null"),
    ({"k": True}, "k must be an integer, got true"),
    ({"j": False}, "j must be an integer, got false"),
    ({"j": 1.5}, "j must be an integer, got 1.5"),
    ({"version": "2"}, "version must be an integer, got a string"),
    ({"n": list(range(3000))}, "n must be an integer, got an array"),
    ({"k": {"a": 1}}, "k must be an integer, got an object"),
    ({"construction": None}, "construction must be a string, got null"),
    ({"construction": 10**300}, "construction must be a string, got an integer of 301 digits"),
    ({"seed_generators": [[1, None]]}, "seed generator 1: a qubit must be an integer, got null"),
    ({"seed_generators": [[1, 2], [1.5]]}, "seed generator 2: a qubit must be an integer, got 1.5"),
    ({"seed_generators": [["2"]]}, "seed generator 1: a qubit must be an integer, got a string"),
    ({"seed_generators": [[True]]}, "seed generator 1: a qubit must be an integer, got true"),
    ({"seed_generators": [[1, [2]]]}, "seed generator 1: a qubit must be an integer, got an array"),
    # integers JSON allows (up to 4,300 digits) that would make a message longer than 1 KB
    ({"n": 10**4000}, "n must be at most 65536, got an integer of 4001 digits"),
    ({"n": -(10**500)}, "n must be positive, got a negative integer of 501 digits"),
    ({"version": 10**999}, "version must be 1 or 2, got an integer of 1000 digits"),
    ({"k": 10**2000}, "k = an integer of 2001 digits but n - len(generators) = 3"),
]


@pytest.mark.parametrize("change, message", JSON_VALUE_ERRORS)
def test_codespec_names_a_json_value_in_json_words(code8, change, message):
    with pytest.raises(ValueError) as malformed:
        CodeSpec.from_json_dict({**code8.to_json_dict(), **change})
    assert str(malformed.value) == f"malformed code spec: {message}"
    assert "\n" not in str(malformed.value) and len(str(malformed.value)) < 1024


@pytest.mark.parametrize("construction", [None, "", "another name"])
def test_codespec_construction_is_a_json_string(code8, construction):
    data = code8.to_json_dict()
    if construction is None:
        del data["construction"]
    else:
        data["construction"] = construction
    spec = CodeSpec.from_json_dict(data)
    assert spec.construction == (family.CONSTRUCTION_NAME if construction is None else construction)
    assert spec.to_json_dict()["construction"] == spec.construction


def test_codespec_names_an_integer_too_long_for_str(code8):
    # str() refuses more than 4,300 digits, so the digit count must come without it
    with pytest.raises(ValueError) as malformed:
        CodeSpec.from_json_dict({**code8.to_json_dict(), "n": 10**5000})
    assert str(malformed.value) == "malformed code spec: n must be at most 65536, got an integer of 5001 digits"


def test_codespec_reads_a_numpy_integer_field_as_an_int(code8):
    spec = CodeSpec.from_json_dict({**code8.to_json_dict(), "n": np.int64(8), "k": np.uint16(3)})
    assert spec == code8 and type(spec.n) is int and type(spec.k) is int


DEPENDENT_MESSAGE = "malformed code spec: generator {} is a product of earlier generators, up to sign"


@pytest.mark.parametrize("second", ["+ZZ", "-ZZ"])
def test_codespec_refuses_a_generator_that_is_a_product_of_earlier_ones(second):
    # k = n - len(generators) holds, but the rank is 1, so k would overstate the code
    data = {"n": 2, "k": 0, "j": 1, "generators": ["+ZZ", second], "seed_generators": []}
    with pytest.raises(ValueError) as malformed:
        CodeSpec.from_json_dict(data)
    assert str(malformed.value) == DEPENDENT_MESSAGE.format(2)


@settings(max_examples=150, deadline=None)
@given(valid_groups(), st.data())
def test_codespec_names_an_inserted_product_of_earlier_generators(group, data):
    gens = list(group.generators)
    p = data.draw(st.integers(1, len(gens) + 1), label="position")
    subset = data.draw(st.integers(0, (1 << (p - 1)) - 1), label="subset of the generators before p")
    product = identity(group.n)
    for i, g in enumerate(gens[: p - 1]):
        if subset >> i & 1:
            product = multiply(product, g)
    sign = data.draw(st.sampled_from([1, -1]), label="sign")
    gens.insert(p - 1, PauliOperator(group.n, product.x_bits, product.z_bits, sign * product.sign))
    spec = {"n": group.n, "k": group.n - len(gens), "j": 0, "generators": list(map(pauli.format, gens)), "seed_generators": []}
    with pytest.raises(ValueError) as malformed:
        CodeSpec.from_json_dict(spec)
    assert str(malformed.value) == DEPENDENT_MESSAGE.format(p)


ZZ = pauli.parse("+ZZ")
ZZ_SPEC = CodeSpec(2, 1, 1, (ZZ,), pure_xs(2, [[1, 2]]))  # a valid spec to change field by field

PRODUCT_OF_EARLIER = "generator 2 is a product of earlier generators, up to sign"

# field changes that the constructor refuses, each with the text load gives
# for the same change to the file
REFUSED_FIELDS = [
    ("zz", {"k": 0, "generators": (ZZ, ZZ), "seed_generators": pure_xs(2, [])}, PRODUCT_OF_EARLIER),
    ("zz", {"k": 0, "generators": (ZZ, pauli.parse("-ZZ")), "seed_generators": pure_xs(2, [])}, PRODUCT_OF_EARLIER),
    ("zz", {"k": 5}, "k = 5 but n - len(generators) = 1"),
    ("zz", {"generators": (pauli.parse("+ZZZ"),)}, "generator 1 acts on 3 qubits, expected 2"),
    ("zz", {"n": 70000}, "n must be at most 65536, got 70000"),
    ("code8", {"k": True}, "k must be an integer, got true"),
    ("code8", {"j": 3.0}, "j must be an integer, got 3.0"),
    ("code8", {"construction": None}, "construction must be a string, got null"),
    ("zz", {"n": 1, "k": 0, "generators": (pauli.parse("+Y"),), "seed_generators": pure_xs(1, [])}, "generator 1 squares to -1"),
    ("code8", {"generators": tuple(map(pauli.parse, ["+ZXXXXXXX"] + table_data.GENERATORS[1:]))}, "generators 1 and 2 anticommute"),
]


def _json_fields(change: dict) -> dict:
    """A change of CodeSpec fields, in the JSON form."""
    out = dict(change)
    if "generators" in change:
        out["generators"] = [pauli.format(g) for g in change["generators"]]
    if "seed_generators" in change:
        out["seed_generators"] = change["seed_generators"].supports()
    return out


@pytest.mark.parametrize("base, change, message", REFUSED_FIELDS)
def test_codespec_constructor_refuses_what_load_refuses(code8, base, change, message):
    spec = code8 if base == "code8" else ZZ_SPEC
    with pytest.raises(ValueError) as malformed:
        CodeSpec.from_json_dict({**spec.to_json_dict(), **_json_fields(change)})
    assert str(malformed.value) == f"malformed code spec: {message}"
    fields = {**{f.name: getattr(spec, f.name) for f in dataclasses.fields(CodeSpec)}, **change}
    for build in (lambda: CodeSpec(**fields), lambda: dataclasses.replace(spec, **change)):
        with pytest.raises((TypeError, ValueError)) as refused:
            build()
        assert type(refused.value) is type(malformed.value.__cause__) and str(refused.value) == message


def test_codespec_stores_numpy_integers_as_ints(code8, tmp_path):
    spec = dataclasses.replace(code8, n=np.int64(8), k=np.uint16(3), j=np.int8(3))
    assert spec == code8 and all(type(v) is int for v in (spec.n, spec.k, spec.j))
    spec.save(tmp_path / "code8.json")
    assert CodeSpec.load(tmp_path / "code8.json") == code8


def test_codespec_stores_its_generators_as_a_tuple(code8, tmp_path):
    spec = dataclasses.replace(code8, generators=list(code8.generators))
    assert type(spec.generators) is tuple and spec == code8 and hash(spec) == hash(code8)
    spec.save(tmp_path / "code8.json")
    assert CodeSpec.load(tmp_path / "code8.json") == spec


def test_codespec_refuses_a_generator_that_is_not_a_pauli_operator(code8):
    with pytest.raises(TypeError) as refused:
        dataclasses.replace(code8, generators=tuple(table_data.GENERATORS))
    assert str(refused.value) == "generator 1 must be a PauliOperator, got a string"


@settings(max_examples=100, deadline=None)
@given(valid_groups(), st.integers(-(10**20), 10**20), st.text(max_size=12))
def test_codespec_round_trips_byte_for_byte(tmp_path_factory, group, j, construction):
    """load(save(spec)) == spec, and saving it again writes the same bytes."""
    try:
        seeds = codewords.seed_generators(group)
    except codewords.MinusSignPureZError:
        assume(False)
    spec = CodeSpec(group.n, group.n - group.a, j, group.generators, seeds, construction)
    directory = tmp_path_factory.mktemp("spec")
    spec.save(directory / "first.json")
    loaded = CodeSpec.load(directory / "first.json")
    assert loaded == spec
    loaded.save(directory / "second.json")
    assert (directory / "second.json").read_bytes() == (directory / "first.json").read_bytes()


def test_codespec_load_names_an_undecodable_file(tmp_path):
    path = tmp_path / "spec.json"
    path.write_bytes(b'{"n": \xff}')
    with pytest.raises(ValueError) as malformed:
        CodeSpec.load(path)
    assert str(malformed.value) == (
        "malformed code spec file: 'utf-8' codec can't decode byte 0xff in position 6: invalid start byte"
    )
    path.write_text('{"n": ' + "9" * 5000 + "}")
    with pytest.raises(ValueError) as malformed:
        CodeSpec.load(path)
    message = str(malformed.value)  # int()'s own words, or the n check where the digit limit is lifted
    assert message.startswith("malformed code spec") and "\n" not in message and len(message) < 1024


# sha256 of the j = 16 file that CodeSpec.save (and so `family --j 16 --out`)
# writes, taken while every seed was still an object of its own
J16_FILE_SHA256 = "c6e7df948677b34d40f06df77cc9a7675b7c0f91fdc4c12f173e89e0e4cb3449"


def test_j16_file_is_pinned(tmp_path):
    code = build_code(16)
    path = tmp_path / "c16.json"
    code.save(path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == J16_FILE_SHA256
    assert CodeSpec.load(path) == code


def _new_objects(make):
    """What make() returns, and how many more GC-tracked objects there are after it."""
    gc.collect()
    before = len(gc.get_objects())
    made = make()
    gc.collect()
    return made, len(gc.get_objects()) - before


def test_j16_seeds_are_not_objects_of_their_own(tmp_path):
    """The 65,518 seeds of build_code(16), built or loaded, leave no object each."""
    code, count = _new_objects(lambda: build_code(16))
    assert count < 100
    path = tmp_path / "c16.json"
    code.save(path)
    loaded, count = _new_objects(lambda: CodeSpec.load(path))
    assert count < 100
    assert loaded == code
