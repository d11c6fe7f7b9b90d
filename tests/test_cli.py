import hashlib
import json
import random
import re
import sys
import time
import warnings
from pathlib import Path

import pytest

import table_data
from stabforge import cli, family, oracle, pauli, stabilizer
from stabforge.stabilizer import materialize

GOLDEN = Path(__file__).parent / "golden"
# sha256 of the whole `tables --json` output, trailing newline included
TABLES_JSON_SHA256 = "0c1c1d9e8d29a9b75a5833f53d5db80443ee749d013ea6fba002db437bdfb69a"


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_family_text(capsys):
    code, out, _ = run_cli(capsys, "family", "--j", "3")
    assert code == 0
    for s in table_data.FX + table_data.FZ + table_data.FY:
        assert s in out
    for g in table_data.GENERATORS + table_data.SEED_GENERATORS:
        assert g in out


def test_family_json(capsys):
    code, out, _ = run_cli(capsys, "family", "--j", "3", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["n"] == 8 and data["k"] == 3
    assert data["generators"] == table_data.GENERATORS
    assert data["construction"] == "gottesman-hamming-saturating"


def test_family_out_file(capsys, tmp_path):
    path = tmp_path / "code.json"
    code, _, _ = run_cli(capsys, "family", "--j", "4", "--out", str(path))
    assert code == 0
    data = json.loads(path.read_text())
    assert data["n"] == 16 and data["k"] == 10
    assert len(data["generators"]) == 6


def test_family_rejects_j2(capsys):
    code, _, err = run_cli(capsys, "family", "--j", "2")
    assert code == 2
    assert "j" in err


def test_family_emit_codewords(capsys):
    code, out, _ = run_cli(capsys, "family", "--j", "3", "--emit", "codewords")
    assert code == 0
    assert out.count("psi_") == 8
    # psi_0 in canonical form: all 16 signs positive
    psi0_line = next(line for line in out.splitlines() if line.startswith("psi_0"))
    assert psi0_line.count("+|") == 16
    assert "+|00000000>" in psi0_line


def test_family_emit_codewords_respects_cap(capsys):
    code, _, err = run_cli(capsys, "family", "--j", "4", "--emit", "codewords")
    assert code == 2
    assert "12" in err


def test_tables_golden(capsys):
    code, out, _ = run_cli(capsys, "tables")
    assert code == 0
    assert out == (GOLDEN / "tables.txt").read_text()


def test_tables_json(capsys):
    code, out, _ = run_cli(capsys, "tables", "--json")
    data = json.loads(out)
    assert data["syndromes"]["fx"] == table_data.FX
    assert data["code"]["generators"] == table_data.GENERATORS
    assert [row["max_k"] for row in data["bound"]] == [1, 1, 2, 3, 4, 5, 5, 6, 7]
    assert hashlib.sha256(out.encode()).hexdigest() == TABLES_JSON_SHA256


@pytest.fixture()
def code_path(tmp_path, capsys):
    path = tmp_path / "code8.json"
    assert cli.main(["family", "--j", "3", "--out", str(path), "--json"]) == 0
    capsys.readouterr()
    return path


def test_verify_pass(capsys, code_path):
    code, out, _ = run_cli(capsys, "verify", str(code_path), "--t", "1", "--oracle")
    assert code == 0
    assert "result: PASS" in out
    assert "rank: 200/200" in out


def test_verify_oracle_json(capsys, code_path):
    code, out, _ = run_cli(capsys, "verify", str(code_path), "--oracle", "--json")
    assert code == 0
    assert json.loads(out)["oracle"] == {"rank": 200, "num_vectors": 200, "dimension": 256}


def test_verify_t2_fails(capsys, code_path):
    code, out, _ = run_cli(capsys, "verify", str(code_path), "--t", "2")
    assert code == 1
    assert "share syndrome" in out
    assert "result: FAIL" in out


def test_verify_oracle_skipped_after_a_failed_check(capsys, code_path):
    code, out, _ = run_cli(capsys, "verify", str(code_path), "--t", "2", "--oracle")
    assert code == 1
    assert out.splitlines()[-2:] == ["oracle: skipped (an earlier check failed)", "result: FAIL"]
    code, out, _ = run_cli(capsys, "verify", str(code_path), "--t", "2", "--oracle", "--json")
    assert code == 1
    data = json.loads(out)
    assert data["failures"] == ["correctability"] and "oracle" not in data


def test_verify_reports_a_failing_oracle(capsys, code_path, monkeypatch):
    failing = oracle.VerificationReport(
        ok=False, num_vectors=200, rank=199, dimension=256,
        stabilization_ok=True, orthogonality_ok=True, rank_ok=False,
    )
    monkeypatch.setattr(oracle, "verify_code", lambda code, t: failing)
    code, out, _ = run_cli(capsys, "verify", str(code_path), "--oracle")
    assert code == 1
    assert "oracle verification: FAIL" in out.splitlines()
    assert out.splitlines()[-1] == "result: FAIL"
    code, out, _ = run_cli(capsys, "verify", str(code_path), "--oracle", "--json")
    assert code == 1
    data = json.loads(out)
    assert data["failures"] == ["oracle"]
    assert data["oracle"] == {"rank": 199, "num_vectors": 200, "dimension": 256}


def test_verify_json(capsys, code_path):
    code, out, _ = run_cli(capsys, "verify", str(code_path), "--json")
    assert code == 0
    data = json.loads(out)
    assert data["ok"] is True and data["failures"] == []
    assert data["correctability"] == {"total_errors": 25, "distinct_syndromes": 25}


def test_verify_json_names_the_text_witness(capsys, code_path):
    code, text, _ = run_cli(capsys, "verify", str(code_path), "--t", "2")
    assert code == 1
    witness = re.search(r"FAIL \((\S+) and (\S+) share syndrome", text).groups()
    code, out, _ = run_cli(capsys, "verify", str(code_path), "--t", "2", "--json")
    assert code == 1
    data = json.loads(out)["correctability"]
    assert (data["total_errors"], data["distinct_syndromes"]) == (27, 26)
    assert data["collision"] == ["Z_4", "X_1 Y_2"]
    named = []
    for sparse in data["collision"]:
        desc = () if sparse == "I" else tuple((int(q), L) for L, q in (s.split("_") for s in sparse.split()))
        named.append(pauli.format(materialize(8, desc)))
    assert tuple(named) == witness


@pytest.mark.parametrize("j", [6, 7])
def test_verify_text_names_the_witness_sparsely_above_64_qubits(capsys, tmp_path, j):
    # n = 64 = cli.MAX_TEXT_QUBITS keeps the full Pauli strings; n = 128 names the --json pair
    n, path = 1 << j, tmp_path / f"code{j}.json"
    assert run_cli(capsys, "family", "--j", str(j), "--out", str(path))[0] == 0
    code, text, _ = run_cli(capsys, "verify", str(path), "--t", "2")
    assert code == 1
    code, out, _ = run_cli(capsys, "verify", str(path), "--t", "2", "--json")
    assert code == 1
    pair = json.loads(out)["correctability"]["collision"]
    assert pair == ["Z_4", "X_1 Y_2"]
    if n <= cli.MAX_TEXT_QUBITS:
        pair = [pauli.format(materialize(n, desc)) for desc in (((4, "Z"),), ((1, "X"), (2, "Y")))]
    syndrome = stabilizer.syndrome(family.CodeSpec.load(path).group(), materialize(n, ((4, "Z"),)))
    assert f"\ncorrectability t=2: FAIL ({pair[0]} and {pair[1]} share syndrome {syndrome})\n" in text
    assert (max(map(len, text.splitlines())) < 100) == (n > cli.MAX_TEXT_QUBITS)


def test_verify_tampered_spec(capsys, code_path, tmp_path):
    data = json.loads(code_path.read_text())
    # flip one generator letter: X -> Z on qubit 1 of M_1
    data["generators"][0] = "+ZXXXXXXX"
    bad = tmp_path / "tampered.json"
    bad.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, "verify", str(bad))
    assert code == 2 and out == ""
    assert err.splitlines() == ["error: malformed code spec: generators 1 and 2 anticommute"]


@pytest.mark.parametrize(
    "n, generators, seeds, message",
    [
        (2, ["-ZZ"], ["+XX"], "generator -ZZ reduces to -ZZ"),
        (3, ["+ZZI", "-IZZ"], ["+XXX"], "generator -IZZ reduces to -IZZ"),
    ],
)
def test_verify_minus_sign_pure_z_is_a_seed_failure(capsys, tmp_path, n, generators, seeds, message):
    # a legal group outside the all-zeros-seed construction
    spec = {"n": n, "k": 1, "j": 1, "generators": generators, "seed_generators": seeds, "version": 1}
    path = tmp_path / "minus_z.json"
    path.write_text(json.dumps(spec))
    code, out, err = run_cli(capsys, "verify", str(path))
    assert code == 1
    assert f"seed generators: FAIL ({message})" in out
    assert "result: FAIL" in out and err == ""
    code, out, _ = run_cli(capsys, "verify", str(path), "--json")
    assert code == 1
    assert "seeds" in json.loads(out)["failures"]


def test_verify_oracle_skipped_above_cap(capsys, tmp_path):
    path = tmp_path / "code16.json"
    assert cli.main(["family", "--j", "4", "--out", str(path)]) == 0
    capsys.readouterr()
    code, out, _ = run_cli(capsys, "verify", str(path), "--oracle")
    assert code == 0
    assert "oracle: skipped" in out
    assert "result: PASS" in out


def test_verify_malformed_file(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    code, _, err = run_cli(capsys, "verify", str(bad))
    assert code == 2
    assert "malformed" in err


def test_verify_names_a_reversed_seed(capsys, tmp_path):
    path = tmp_path / "code8.json"
    assert run_cli(capsys, "family", "--j", "3", "--out", str(path))[0] == 0
    data = json.loads(path.read_text())
    data["seed_generators"][1].reverse()  # [1, 3] -> [3, 1]
    path.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, "verify", str(path))
    assert (code, out) == (2, "")
    assert err == "error: malformed code spec: seed generator 2: support must be strictly ascending\n"


def test_verify_missing_file(capsys, tmp_path):
    code, _, _ = run_cli(capsys, "verify", str(tmp_path / "nope.json"))
    assert code == 2


def test_bound_table(capsys):
    code, out, _ = run_cli(capsys, "bound", "--max-n", "13")
    assert code == 0
    lines = out.splitlines()
    assert any(line.split() == ["8", "3"] for line in lines)
    assert any(line.split() == ["13", "7"] for line in lines)


def test_bound_json(capsys):
    code, out, _ = run_cli(capsys, "bound", "--max-n", "8", "--json")
    rows = json.loads(out)
    assert rows[-1] == {"n": 8, "t": 1, "max_k": 3}


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--t", "-1", "--max-n", "3"], "error: --t must be non-negative"),
        (["--max-n", "0"], "error: --max-n must be at least 1"),
        (["--max-n", "-5", "--t", "2"], "error: --max-n must be at least 1"),
    ],
    ids=["negative-t", "zero-max-n", "negative-max-n"],
)
@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
def test_bound_bad_input_exit_2(capsys, argv, message, json_flag):
    code, out, err = run_cli(capsys, "bound", *argv, *json_flag)
    assert code == 2 and out == ""
    assert err.splitlines() == [message]


def test_degenerate_bound(capsys):
    code, out, _ = run_cli(capsys, "degenerate-bound", "--n", "6")
    assert code == 0
    assert any(line.split() == ["2", "1"] for line in out.splitlines())
    assert "never beats quantum Hamming bound: yes" in out


def test_degenerate_bound_refuses_n_below_2(capsys):
    code, out, err = run_cli(capsys, "degenerate-bound", "--n", "1")
    assert code == 2 and out == "" and err.splitlines() == ["error: --n must be at least 2"]


def test_degenerate_bound_json(capsys):
    code, out, _ = run_cli(capsys, "degenerate-bound", "--n", "4", "--json")
    data = json.loads(out)
    assert data["never_beats_qhb"] is True
    assert {"n": 4, "l": 1, "max_k": 0} in data["rows"]


def test_syndrome_command(capsys, code_path):
    code, out, _ = run_cli(capsys, "syndrome", str(code_path), "--error", "XIIIIIII")
    assert code == 0
    assert "syndrome: 01000" in out
    code, out, _ = run_cli(capsys, "syndrome", str(code_path), "--error", "+IIIIIYII")
    assert "syndrome: 11000" in out


def test_syndrome_wrong_size(capsys, code_path):
    code, _, err = run_cli(capsys, "syndrome", str(code_path), "--error", "XX")
    assert code == 2


def test_syndrome_json(capsys, code_path):
    code, out, _ = run_cli(capsys, "syndrome", str(code_path), "--error", "XIIIIIII", "--json")
    assert json.loads(out) == {"error": "+XIIIIIII", "syndrome": "01000"}


def test_simulate_exhaustive(capsys, code_path):
    code, out, _ = run_cli(capsys, "simulate", str(code_path), "--model", "exhaustive")
    assert code == 0
    assert "success rate: 1.000000" in out


def test_simulate_json_deterministic(capsys, code_path):
    args = ["simulate", str(code_path), "--model", "depolarizing:0.1",
            "--trials", "30", "--seed", "7", "--json"]
    code, first, _ = run_cli(capsys, *args)
    assert code == 0
    code, second, _ = run_cli(capsys, *args)
    assert first == second
    data = json.loads(first)
    assert data["trials"] == 30


def test_simulate_env_seed(capsys, code_path, monkeypatch):
    monkeypatch.setenv("STABFORGE_SEED", "123")
    code, out, _ = run_cli(capsys, "simulate", str(code_path), "--model",
                           "pauli:+XIIIIIII", "--trials", "5", "--json")
    assert code == 0
    assert json.loads(out)["seed"] == 123


def test_cached_parser_carries_no_state_between_calls(capsys, code_path, monkeypatch):
    assert cli.build_parser() is cli.build_parser()
    monkeypatch.setenv("STABFORGE_SEED", "123")
    simulate = ["simulate", str(code_path), "--model", "depolarizing:0.1", "--trials", "5", "--json"]
    sequence = [
        ["family"],  # usage error: no --j
        simulate + ["--seed", "5"],
        simulate,
        ["verify", str(code_path), "--json"],
    ]
    rounds = [[run_cli(capsys, *argv) for argv in sequence] for _ in range(2)]
    assert rounds[0] == rounds[1]
    assert [code for code, _, _ in rounds[0]] == [2, 0, 0, 0]
    assert [json.loads(rounds[0][i][1])["seed"] for i in (1, 2)] == [5, 123]
    # the variable is read when simulate runs, not when the parser is built
    monkeypatch.setenv("STABFORGE_SEED", "9")
    assert json.loads(run_cli(capsys, *simulate)[1])["seed"] == 9


def test_simulate_bad_model(capsys, code_path):
    code, _, err = run_cli(capsys, "simulate", str(code_path), "--model", "bogus:1")
    assert code == 2


def test_usage_errors_exit_2(capsys):
    assert cli.main(["family"]) == 2  # missing --j
    capsys.readouterr()
    assert cli.main(["unknown-command"]) == 2
    capsys.readouterr()


def _one_line_error(err):
    lines = err.splitlines()
    return len(lines) == 1 and lines[0].startswith("error: ")


def test_verify_negative_t_exit_2(capsys, code_path):
    code, out, err = run_cli(capsys, "verify", str(code_path), "--t", "-1")
    assert code == 2 and out == ""
    assert _one_line_error(err)


def test_verify_generator_length_mismatch_exit_2(capsys, code_path, tmp_path):
    data = json.loads(code_path.read_text())
    data["generators"][0] += "I"
    bad = tmp_path / "long.json"
    bad.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, "verify", str(bad))
    assert code == 2 and out == ""
    assert _one_line_error(err) and "malformed code spec" in err


def test_syndrome_invalid_group_exit_2(capsys, code_path, tmp_path):
    data = json.loads(code_path.read_text())
    data["generators"][0] = "+ZXXXXXXX"  # anticommutes with M_2
    bad = tmp_path / "tampered.json"
    bad.write_text(json.dumps(data))
    code, _, err = run_cli(capsys, "syndrome", str(bad), "--error", "XIIIIIII")
    assert code == 2
    assert _one_line_error(err) and "anticommute" in err


# a repeated generator: k = n - 2 counts it, but the rank is 1, so the spec does not load
DEPENDENT_SPEC = {"n": 2, "k": 0, "j": 1, "generators": ["+ZZ", "+ZZ"], "seed_generators": [], "version": 1}
DEPENDENT_MESSAGE = "malformed code spec: generator 2 is a product of earlier generators, up to sign"


@pytest.fixture
def dependent_path(tmp_path):
    path = tmp_path / "dependent.json"
    path.write_text(json.dumps(DEPENDENT_SPEC))
    return path


def test_verify_dependent_generators_fail_validate(capsys, recwarn, dependent_path):
    for argv in (["verify", str(dependent_path)], ["verify", str(dependent_path), "--json"]):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err.splitlines() == [f"error: {DEPENDENT_MESSAGE}"]
    assert len(recwarn) == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["syndrome", "--error", "+XI"],
        ["syndrome", "--error", "+XI", "--json"],
        ["simulate", "--model", "exhaustive"],
        ["simulate", "--model", "exhaustive", "--json"],
    ],
)
def test_dependent_generators_exit_2(capsys, recwarn, dependent_path, argv):
    code, out, err = run_cli(capsys, argv[0], str(dependent_path), *argv[1:])
    assert code == 2 and out == ""
    assert err.splitlines() == [f"error: {DEPENDENT_MESSAGE}"]
    assert len(recwarn) == 0


def _long_int_load_line():
    """The load line of a spec whose n has 5,000 digits: int() refuses that
    many digits unless the limit is lifted, and then n is too large."""
    try:
        int("9" * 5000)
    except ValueError as exc:
        return f"malformed code spec file: {exc}"
    return "malformed code spec: n must be at most 65536, got an integer of 5000 digits"


# more files that no command may load, and the one line each is refused with
REFUSED_AT_LOAD = {
    "negated": (json.dumps({**DEPENDENT_SPEC, "generators": ["+ZZ", "-ZZ"]}).encode(), DEPENDENT_MESSAGE),
    "anticommuting": (
        json.dumps({**family.build_code(3).to_json_dict(), "generators": ["+ZXXXXXXX"] + table_data.GENERATORS[1:]}).encode(),
        "malformed code spec: generators 1 and 2 anticommute",
    ),
    "squares-to-minus-one": (
        b'{"n": 1, "k": 0, "j": 0, "generators": ["+Y"], "seed_generators": []}',
        "malformed code spec: generator 1 squares to -1",
    ),
    "not-utf8": (
        b'{"n": 2, "construction": "\xff"}',
        "malformed code spec file: 'utf-8' codec can't decode byte 0xff in position 26: invalid start byte",
    ),
    "long-n": (b'{"n": ' + b"9" * 5000 + b', "k": 0, "j": 1, "generators": [], "seed_generators": []}', None),
}


@pytest.mark.parametrize("name", REFUSED_AT_LOAD)
@pytest.mark.parametrize(
    "argv",
    [["verify"], ["verify", "--json"], ["syndrome", "--error", "+XI"], ["simulate", "--model", "exhaustive"]],
    ids=["verify", "verify-json", "syndrome", "simulate"],
)
def test_spec_refused_at_load_exit_2(capsys, recwarn, tmp_path, name, argv):
    content, message = REFUSED_AT_LOAD[name]
    path = tmp_path / "spec.json"
    path.write_bytes(content)
    code, out, err = run_cli(capsys, argv[0], str(path), *argv[1:])
    assert code == 2 and out == ""
    assert err.splitlines() == [f"error: {message or _long_int_load_line()}"]
    assert len(err) < 1024 and len(recwarn) == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["--model", "depolarizing:0.1", "--trials", "-1"],
        ["--model", "exhaustive", "--trials", "-3"],
        ["--model", "depolarizing:0.1", "--trials", str(10**30)],  # past the C ssize_t range
        ["--model", "exhaustive", "--trials", str(2**63)],
        ["--model", "matrix:nan,0,0,1@1", "--json"],
        ["--model", "matrix:1,inf,0,1@2", "--json"],
        ["--model", "matrix:1,0,0,nanj@3"],
    ],
)
def test_simulate_bad_input_exit_2(capsys, code_path, argv):
    code, out, err = run_cli(capsys, "simulate", str(code_path), *argv)
    assert code == 2 and out == ""
    assert _one_line_error(err)


def test_simulate_trials_past_ssize_t_exit_2(capsys, code_path):
    code, out, err = run_cli(capsys, "simulate", str(code_path), "--model", "depolarizing:0.1",
                             "--trials", str(10**30))
    assert code == 2 and out == ""
    assert err == f"error: trials must lie in [0, {sys.maxsize}], got {10**30}\n"


def test_simulate_negative_seed_names_the_flag(capsys, code_path):
    code, out, err = run_cli(capsys, "simulate", str(code_path), "--model", "exhaustive", "--seed", "-1")
    assert code == 2 and out == ""
    assert err == "error: --seed must be non-negative, got -1\n"


def test_simulate_negative_env_seed_names_the_variable(capsys, code_path, monkeypatch):
    monkeypatch.setenv("STABFORGE_SEED", "-1")
    code, out, err = run_cli(capsys, "simulate", str(code_path), "--model", "exhaustive")
    assert code == 2 and out == ""
    assert err == "error: STABFORGE_SEED must be non-negative, got -1\n"


def test_simulate_bad_env_seed_exit_2(capsys, code_path, monkeypatch):
    monkeypatch.setenv("STABFORGE_SEED", "1.5")
    code, out, err = run_cli(capsys, "simulate", str(code_path), "--model", "exhaustive")
    assert code == 2 and out == ""
    assert _one_line_error(err) and "STABFORGE_SEED" in err
    # an explicit --seed does not read the variable
    code, out, _ = run_cli(capsys, "simulate", str(code_path), "--model", "pauli:+XIIIIIII",
                           "--trials", "2", "--seed", "4", "--json")
    assert code == 0 and json.loads(out)["seed"] == 4


@pytest.mark.parametrize(
    "model, message",
    [
        ("matrix:1,0,0@1", "error: matrix error needs 4 comma-separated entries, got 3"),
        ("matrix:1,0,0,1@x", "error: matrix qubit must be an integer, got 'x'"),
        ("matrix:1,a,0,1@1", "error: matrix entries must be complex numbers, got '1,a,0,1'"),
        ("depolarizing:abc", "error: depolarizing probability must be a number, got 'abc'"),
    ],
)
def test_simulate_malformed_model_message(capsys, code_path, model, message):
    code, out, err = run_cli(capsys, "simulate", str(code_path), "--model", model)
    assert code == 2 and out == ""
    assert err.splitlines() == [message]


@pytest.mark.parametrize("scale", ["1e200", "1e-200"])
def test_simulate_scaled_identity_matrix(capsys, code_path, scale):
    # the identity up to a huge or tiny factor must neither overflow nor
    # read as annihilation
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, _ = run_cli(capsys, "simulate", str(code_path), "--model",
                               f"matrix:{scale},0,0,{scale}@1", "--trials", "3", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["successes"] == 3
    assert data["syndrome_histogram"] == {"00000": 3}


def test_simulate_large_code_exits_2_quickly(capsys, tmp_path):
    # j = 5 has n = 32 and 2^25 code words; the 12-qubit dense cap must stop
    # simulate before any of them is built
    path = tmp_path / "c32.json"
    code, _, _ = run_cli(capsys, "family", "--j", "5", "--out", str(path))
    assert code == 0
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "simulate", str(path), "--model", "depolarizing:0.1", "--trials", "3")
    assert time.perf_counter() - start < 2.0
    assert code == 2 and out == ""
    assert err.splitlines() == ["error: dense oracle is capped at 12 qubits, got 32"]


def _refused_quickly(capsys, *argv):
    """Run argv and return its one-line error message, requiring exit 2, no
    stdout and a run under 2 s."""
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 2.0
    assert code == 2 and out == ""
    assert _one_line_error(err)
    return err


def test_bound_t_above_n_counts_every_error_quickly(capsys):
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "bound", "--max-n", "13", "--t", "20000", "--json")
    assert time.perf_counter() - start < 2.0
    assert code == 0
    # t >= n counts all 4^n > 2^n errors, so no n admits a code
    assert [row["max_k"] for row in json.loads(out)] == [-1] * 13


@pytest.mark.parametrize("max_n, t", [("2000", "1000"), ("200000", "2"), ("1000000", "1000000")])
def test_bound_work_cap_exit_2(capsys, max_n, t):
    err = _refused_quickly(capsys, "bound", "--max-n", max_n, "--t", t)
    assert err == f"error: --max-n * (min(--t, --max-n) + 1) must be at most {cli.BOUND_MAX_TERMS}\n"


def test_bound_at_work_cap_runs(capsys):
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "bound", "--max-n", str(cli.BOUND_MAX_TERMS // 2), "--t", "1")
    assert time.perf_counter() - start < 2.0
    # the j = 16 family code meets the bound: k = n - j - 2
    assert code == 0 and out.splitlines()[-1].split() == ["65536", "65518"]


def test_degenerate_bound_cap_exit_2(capsys):
    err = _refused_quickly(capsys, "degenerate-bound", "--n", str(cli.DEGENERATE_MAX_N + 1))
    assert err == f"error: --n must be at most {cli.DEGENERATE_MAX_N}\n"


def test_family_spec_output_at_j16(capsys, tmp_path):
    # version 2 writes each seed as its qubit support, so the largest family code fits in 2.5 MB
    path = tmp_path / "c16.json"
    start = time.perf_counter()
    code, _, err = run_cli(capsys, "family", "--j", "16", "--out", str(path))
    assert code == 0 and err == ""
    code, out, err = run_cli(capsys, "verify", str(path), "--t", "1")
    assert time.perf_counter() - start < 2.0
    assert code == 0 and err == "" and out.endswith("result: PASS\n")
    assert path.stat().st_size <= 2_500_000
    code, out, err = run_cli(capsys, "family", "--j", "16", "--json")
    assert code == 0 and err == ""
    assert out == path.read_text()


def test_family_unwritable_out_exit_2(capsys, tmp_path):
    err = _refused_quickly(capsys, "family", "--j", "3", "--out", str(tmp_path / "missing" / "c.json"))
    assert "No such file or directory" in err


def test_verify_nested_file_exit_2(capsys, tmp_path):
    path = tmp_path / "nested.json"
    path.write_text("[" * 100000 + "]" * 100000)
    err = _refused_quickly(capsys, "verify", str(path))
    assert err == "error: malformed code spec: JSON nested too deeply\n"


@pytest.mark.parametrize("command", [["verify"], ["simulate", "--model", "exhaustive"]], ids=["verify", "simulate"])
@pytest.mark.parametrize(
    "text, message",
    [
        ("[1, 2]", "expected a JSON object, got list"),
        ('"abc"', "expected a JSON object, got str"),
        ("5", "expected a JSON object, got int"),
        ("null", "expected a JSON object, got null"),
        (None, "missing field 'k'"),  # the n = 8 spec without k
    ],
)
def test_spec_that_is_not_a_code_object_exit_2(capsys, code_path, tmp_path, command, text, message):
    if text is None:
        data = json.loads(code_path.read_text())
        del data["k"]
        text = json.dumps(data)
    path = tmp_path / "bad.json"
    path.write_text(text)
    err = _refused_quickly(capsys, *command, str(path))
    assert err == f"error: malformed code spec: {message}\n"


@pytest.mark.parametrize("command", [["verify"], ["simulate", "--model", "exhaustive"]], ids=["verify", "simulate"])
@pytest.mark.parametrize(
    "change, message",
    [
        ({"n": None}, "n must be an integer, got null"),
        ({"k": True}, "k must be an integer, got true"),
        ({"n": list(range(3000))}, "n must be an integer, got an array"),
        ({"construction": None}, "construction must be a string, got null"),
        ({"seed_generators": [[1, None]]}, "seed generator 1: a qubit must be an integer, got null"),
        ({"seed_generators": [[1.5]]}, "seed generator 1: a qubit must be an integer, got 1.5"),
        ({"seed_generators": [["2"]]}, "seed generator 1: a qubit must be an integer, got a string"),
        ({"seed_generators": [[True]]}, "seed generator 1: a qubit must be an integer, got true"),
    ],
    ids=["n-null", "k-true", "n-array", "construction-null", "seed-null", "seed-float", "seed-string", "seed-true"],
)
def test_spec_json_value_named_in_json_words_exit_2(capsys, code_path, tmp_path, command, change, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({**json.loads(code_path.read_text()), **change}))
    err = _refused_quickly(capsys, *command, str(path))
    assert err == f"error: malformed code spec: {message}\n" and len(err) < 1024


def test_verify_huge_n_exit_2(capsys, tmp_path):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"n": 10**30, "k": 10**30, "j": 1, "generators": [], "seed_generators": []}))
    err = _refused_quickly(capsys, "verify", str(path))
    assert err == f"error: malformed code spec: n must be at most 65536, got {10**30}\n"


def _graph_state_spec(n, degree, seed):
    """A CodeSpec for a random graph state: generator v is X_v times Z_u
    over the neighbours u of v, so all n generators commute and k = 0."""
    rng = random.Random(seed)
    edges = {frozenset(rng.sample(range(n), 2)) for _ in range(n * degree // 2)}
    gens = []
    for v in range(n):
        letters = ["I"] * n
        letters[v] = "X"
        for e in edges:
            if v in e:
                (u,) = e - {v}
                letters[u] = "Z"
        gens.append("+" + "".join(letters))
    return {"n": n, "k": 0, "j": 0, "generators": gens, "seed_generators": [], "version": 1}


def test_verify_walk_cap_exit_2(capsys, tmp_path):
    # 40 generators: a repeat is only forced after 2^40 + 1 errors, and there
    # are hamming_sum(40, 5) = 1.6e8 errors of weight <= 5
    path = tmp_path / "graph40.json"
    path.write_text(json.dumps(_graph_state_spec(40, 6, seed=3)))
    err = _refused_quickly(capsys, "verify", str(path), "--t", "5")
    assert err == (
        f"error: the correctability walk at t=5 (n=40, a=40) may exceed {cli.VERIFY_MAX_ERRORS} errors\n"
    )
    # t = 3 has 273,901 errors and stays accepted
    code, out, _ = run_cli(capsys, "verify", str(path), "--t", "3", "--json")
    assert code in (0, 1) and json.loads(out)["t"] == 3


def test_verify_walk_cap_skips_few_generators(capsys, code_path):
    # a = 5: a repeat is forced within 33 errors, whatever t asks for
    code, out, _ = run_cli(capsys, "verify", str(code_path), "--t", str(10**30))
    assert code == 1
    assert "correctability t=1000000000000000000000000000000: FAIL" in out


@pytest.mark.parametrize(
    "argv, message",
    [
        (["family"], "error: the following arguments are required: --j"),
        (["bound", "--t", "x"], "error: argument --t: invalid int value: 'x'"),
        (["verify"], "error: the following arguments are required: code"),
        (["unknown-command"], None),
    ],
)
def test_argparse_errors_are_one_line(capsys, argv, message):
    err = _refused_quickly(capsys, *argv)
    if message is not None:
        assert err == message + "\n"


def test_help_exits_0(capsys):
    code, out, err = run_cli(capsys, "bound", "--help")
    assert code == 0 and "--max-n" in out and err == ""


def test_family_emit_codewords_json_exit_2(capsys):
    # the code words have no JSON form, so the two flags would mix text into --json output
    err = _refused_quickly(capsys, "family", "--j", "3", "--json", "--emit", "codewords")
    assert err == "error: --emit codewords has no --json form\n"


def test_error_line_escapes_line_breaks(capsys):
    err = _refused_quickly(capsys, "bound", "extra\rline\n")
    assert err == "error: unrecognized arguments: extra\\rline\\n\n"


@pytest.mark.parametrize(
    "version, seeds, message",
    [
        (2, [], "error: expected 3 seed generators, got 0"),
        (
            1,
            ["+XXIIIIII", "+XIXIIIII", "+ZIIIIIII"],
            "error: malformed code spec: seed generator 3 is not a +1 pure-X operator on 8 qubits",
        ),
        (1, ["+XXIIIIII", "+XIXIIIII", "+XXIIIIII"], "error: seed 3 is dependent modulo the type-1 X-parts"),
        (2, [[1, 2], [1, 3], [1, 2]], "error: seed 3 is dependent modulo the type-1 X-parts"),
    ],
    ids=["missing", "not-pure-x", "dependent", "dependent-v2"],
)
def test_simulate_bad_seeds_exit_2(capsys, code_path, tmp_path, version, seeds, message):
    # the logical basis is built from the seeds, so a spec whose seeds verify rejects cannot be simulated
    data = json.loads(code_path.read_text())
    data["seed_generators"] = seeds
    data["version"] = version  # only version 1 can write a seed that is not pure X
    bad = tmp_path / "seeds.json"
    bad.write_text(json.dumps(data))
    err = _refused_quickly(capsys, "simulate", str(bad), "--model", "exhaustive", "--json")
    assert err == message + "\n"


def test_version_1_seed_that_is_not_pure_x_is_malformed(capsys, code_path, tmp_path):
    # loading refuses it, so verify, syndrome and simulate all exit 2 with the same line
    data = json.loads(code_path.read_text())
    data["seed_generators"], data["version"] = ["+XXIIIIII", "+XIXIIIII", "+ZIIIIIII"], 1
    bad = tmp_path / "seeds.json"
    bad.write_text(json.dumps(data))
    message = "error: malformed code spec: seed generator 3 is not a +1 pure-X operator on 8 qubits\n"
    for argv in (
        ["verify", str(bad)],
        ["verify", str(bad), "--json"],
        ["syndrome", str(bad), "--error", "XIIIIIII"],
        ["simulate", str(bad), "--model", "exhaustive"],
    ):
        assert _refused_quickly(capsys, *argv) == message
