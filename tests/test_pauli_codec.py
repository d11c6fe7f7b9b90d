"""Differential tests of the Pauli text codec against a per-character reference.

The reference below is the straightforward loop over every letter; the
library's ``format``/``parse`` must agree with it on every operator, on every
string it accepts, and on the exact ``ValueError`` message of every string it
rejects.
"""

import json

import pytest
from hypothesis import example, given, settings, strategies as st

from stabforge import cli, family, pauli
from stabforge.pauli import PauliOperator

_LETTER_BITS = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
# the letter of each pair of an x digit and a z digit
_DIGITS_LETTER = {f"{x}{z}": letter for letter, (x, z) in _LETTER_BITS.items()}


def ref_parse(s):
    if not s:
        raise ValueError("empty Pauli string")
    sign = 1
    if s[0] in "+-−":
        sign = 1 if s[0] == "+" else -1
        s = s[1:]
    if not s:
        raise ValueError("Pauli string has a sign but no letters")
    x_bits = 0
    z_bits = 0
    for pos, ch in enumerate(s):
        try:
            x, z = _LETTER_BITS[ch]
        except KeyError:
            raise ValueError(f"illegal character {ch!r} in Pauli string") from None
        x_bits |= x << pos
        z_bits |= z << pos
    return PauliOperator(len(s), x_bits, z_bits, sign)


def ref_format(p):
    # qubit 1 is bit 0, so each n-digit binary string is read lowest digit first
    x_digits, z_digits = (format(bits, f"0{p.n}b")[::-1] for bits in (p.x_bits, p.z_bits))
    body = "".join(_DIGITS_LETTER[x + z] for x, z in zip(x_digits, z_digits))
    return ("+" if p.sign == 1 else "-") + body


def outcome(fn, s):
    try:
        return fn(s)
    except ValueError as exc:
        return ("ValueError", str(exc))


@st.composite
def operators(draw, max_n=300):
    n = draw(st.integers(1, max_n))
    bits = st.integers(0, (1 << n) - 1)
    return PauliOperator(n, draw(bits), draw(bits), draw(st.sampled_from([1, -1])))


@settings(max_examples=300)
@given(operators())
def test_format_and_parse_match_reference(op):
    text = pauli.format(op)
    assert text == ref_format(op)
    assert pauli.parse(text) == op
    # the sign prefix is optional, and U+2212 also reads as minus
    assert pauli.parse(text[1:]) == PauliOperator(op.n, op.x_bits, op.z_bits, 1)
    assert pauli.parse("−" + text[1:]) == PauliOperator(op.n, op.x_bits, op.z_bits, -1)


# int(..., 2) accepts "_", surrounding whitespace and non-ASCII digits, so
# they must be rejected before the digits are converted
_NOISE = st.sampled_from(list("IXYZ" * 4 + "ixyz01_ \t\n+-−") + ["١", "é", "Ｘ", " "])


@settings(max_examples=200)
@given(st.one_of(st.text(_NOISE, max_size=40), st.text(max_size=20)))
@example("")
@example("+")
@example("-")
@example("−")
@example("+-X")
@example("X_X")
@example("0101")
@example(" XX")
@example("XX\n")
@example("١")
def test_parse_matches_reference_on_any_text(s):
    assert outcome(pauli.parse, s) == outcome(ref_parse, s)


def test_round_trip_above_int_digit_limit(rng):
    # 65,536 letters is far above CPython's 4,300-digit int/str limit, which
    # exempts base 2 only
    n = 1 << 16
    op = PauliOperator(
        n,
        int.from_bytes(rng.bytes(n // 8), "little"),
        int.from_bytes(rng.bytes(n // 8), "little"),
        -1,
    )
    text = pauli.format(op)
    assert text == ref_format(op)
    assert pauli.parse(text) == op


def _cli_output(capsys, argv):
    assert cli.main(argv) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("j", range(3, 13))
def test_codespec_version_1_file_loads_and_resaves_as_version_2(tmp_path, capsys, j):
    code = family.build_code(j)
    # the codec writes every family generator and seed as the reference does
    gens = [pauli.format(g) for g in code.generators]
    seeds = [pauli.format(s) for s in code.seed_generators]
    assert gens == [ref_format(g) for g in code.generators]
    assert seeds == [ref_format(s) for s in code.seed_generators]
    dense = [PauliOperator(s.n, s.x_bits, s.z_bits, s.sign) for s in code.seed_generators]
    assert [pauli.parse(s) for s in seeds] == dense
    # a version 1 file, byte for byte as version 1 was written
    data = {
        "n": code.n,
        "k": code.k,
        "j": code.j,
        "generators": gens,
        "seed_generators": seeds,
        "construction": code.construction,
        "version": 1,
    }
    v1 = tmp_path / "v1.json"
    v1.write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")
    loaded = family.CodeSpec.load(v1)
    assert loaded == code
    v2 = tmp_path / "v2.json"
    loaded.save(v2)
    assert family.CodeSpec.load(v2) == code
    assert v2.read_bytes() == (code.to_json() + "\n").encode("utf-8")
    for flags in (["--t", "1"], ["--t", "1", "--json"]):
        assert _cli_output(capsys, ["verify", str(v1), *flags]) == _cli_output(capsys, ["verify", str(v2), *flags])
