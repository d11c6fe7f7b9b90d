"""Fuzz the command line in-process.

Every input must end in one of two ways: accepted (exit 0 or 1, and any
--json output is strict JSON) or refused (exit 2, empty stdout and exactly
one ``error:`` line).  ``cli.main`` must never raise, and each case must
finish within BUDGET_S seconds.  The inputs are argv for every subcommand,
mutated CodeSpec files of both versions and error-model strings.
"""

import contextlib
import io
import json
import time

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from stabforge import cli, codewords, family, pauli
from strategies import valid_groups

BUDGET_S = 5.0
FUZZ = settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])

# small values, the edges of each cap, and values no command should accept
INTS = st.one_of(
    st.integers(-3, 20),
    st.sampled_from([-(10**30), 10**30, 1 << 16, (1 << 16) + 1, 1 << 17, 1 << 22]),
)
TRIALS = st.one_of(st.integers(-3, 50), st.just(-(10**30)))
NUMBER_TEXT = st.one_of(
    st.floats().map(repr),
    st.sampled_from(["nan", "inf", "-inf", "1e308", "1e-320", "1j", "nanj", "0", "1", "-1", ""]),
    st.text(max_size=5),
)
PAULI_TEXT = st.one_of(st.text(alphabet="+-−IXYZ", max_size=10), st.text(max_size=10))
MODELS = st.one_of(
    st.text(max_size=20),
    st.just("exhaustive"),
    PAULI_TEXT.map(lambda s: "pauli:" + s),
    st.builds(
        lambda entries, qubit: f"matrix:{','.join(entries)}@{qubit}",
        st.lists(NUMBER_TEXT, max_size=5),
        st.one_of(INTS.map(str), st.text(max_size=3)),
    ),
    NUMBER_TEXT.map(lambda p: "depolarizing:" + p),
)
JSON_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.floats(),
    INTS,
    st.text(max_size=10),
    st.lists(st.integers(-2, 2), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
)
KEYS = ["n", "k", "j", "generators", "seed_generators", "construction", "version"]


def _reject_constant(name):
    raise ValueError(f"{name} in --json output")


def check_main(argv):
    """Run cli.main(argv) and check the contract above."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert time.perf_counter() - start < BUDGET_S, argv
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err
    if code == 2:
        assert out == "", argv
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), (argv, err)
    elif "--json" in argv:
        json.loads(out, parse_constant=_reject_constant)


def _spec_dict(group, version):
    try:
        seeds = codewords.seed_generators(group)
    except ValueError:
        seeds = []
    return {
        "n": group.n,
        "k": group.n - group.a,
        "j": 0,
        "generators": [pauli.format(g) for g in group.generators],
        "seed_generators": [pauli.format(s) if version == 1 else list(s.support) for s in seeds],
        "version": version,
    }


def _mutated_generator(draw, texts):
    if not texts:
        return texts
    i = draw(st.integers(0, len(texts) - 1))
    text = texts[i]
    edit = draw(st.sampled_from(["truncate", "extend", "replace"]))
    if edit == "truncate":
        text = text[: draw(st.integers(0, len(text)))]
    elif edit == "extend":
        text += draw(st.text(alphabet="IXYZ", min_size=1, max_size=3))
    else:
        at = draw(st.integers(0, len(text)))  # at == len(text) appends
        text = text[:at] + draw(st.characters()) + text[at + 1 :]
    return texts[:i] + [text] + texts[i + 1 :]


def _mutated_support(draw, supports):
    if not supports:
        return supports
    i = draw(st.integers(0, len(supports) - 1))
    qubits = list(supports[i])
    edit = draw(st.sampled_from(["drop", "insert", "reverse", "replace"]))
    at = draw(st.integers(0, len(qubits)))
    if edit == "drop":
        del qubits[at : at + 1]
    elif edit == "insert":
        qubits.insert(at, draw(st.one_of(INTS, JSON_VALUES)))
    elif edit == "reverse":
        qubits.reverse()
    else:
        qubits[at : at + 1] = [draw(JSON_VALUES)]
    return supports[:i] + [qubits] + supports[i + 1 :]


def _spec_text(draw, data):
    """JSON text of data after a few random mutations."""
    depth = 0
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["value", "drop", "generator", "wrap", "nest"]))
        key = draw(st.sampled_from(KEYS))
        if kind == "value":
            data[key] = draw(JSON_VALUES)
        elif kind == "drop":
            data.pop(key, None)
        elif kind == "generator":
            field = draw(st.sampled_from(["generators", "seed_generators"]))
            if isinstance(data.get(field), list) and all(isinstance(s, str) for s in data[field]):
                data[field] = _mutated_generator(draw, data[field])
            elif isinstance(data.get(field), list) and all(isinstance(s, list) for s in data[field]):
                data[field] = _mutated_support(draw, data[field])
        elif kind == "wrap":
            data[key] = [data.get(key)]
        else:
            depth = draw(st.sampled_from([1, 50, 2000, 100000]))
    text = json.dumps(data)
    return "[" * depth + text + "]" * depth


@st.composite
def argvs(draw, spec_path):
    """argv for one subcommand, with optional flags and stray values."""
    commands = ["family", "verify", "bound", "degenerate-bound", "syndrome", "simulate", "tables"]
    command = draw(st.sampled_from(commands))
    options = {
        "family": [
            ("--j", INTS),
            ("--emit", st.sampled_from(["codewords", "words"])),
            ("--out", st.just(spec_path + ".out.json")),
        ],
        "verify": [("--t", INTS), ("--oracle", None)],
        "bound": [("--max-n", INTS), ("--t", INTS)],
        "degenerate-bound": [("--n", INTS)],
        "syndrome": [("--error", PAULI_TEXT)],
        "simulate": [("--model", MODELS), ("--trials", TRIALS), ("--seed", INTS)],
        "tables": [],
    }[command] + [("--json", None)]
    argv = [command]
    if command in ("verify", "syndrome", "simulate") and draw(st.integers(0, 9)):
        argv.append(spec_path)
    for flag, values in options:
        if draw(st.booleans()):
            argv += [flag] if values is None else [flag, str(draw(values))]
    if not draw(st.integers(0, 9)):
        argv.insert(draw(st.integers(0, len(argv))), draw(st.text(max_size=8)))
    return argv


def test_fuzz_argv(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("fuzz") / "code8.json")
    family.build_code(3).save(path)

    @FUZZ
    @given(argvs(path))
    def run(argv):
        check_main(argv)

    run()


def test_fuzz_codespec(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "spec.json"
    v2 = family.build_code(3).to_json_dict()
    v1 = {**v2, "seed_generators": [pauli.format(pauli.PureX(8, s)) for s in v2["seed_generators"]], "version": 1}

    @FUZZ
    @given(st.data())
    def run(data):
        spec = data.draw(
            st.one_of(st.sampled_from([v1, v2]), st.builds(_spec_dict, valid_groups(), st.sampled_from([1, 2])))
        )
        path.write_text(_spec_text(data.draw, dict(spec)), encoding="utf-8")
        command = data.draw(
            st.sampled_from(
                [
                    ["verify", "--t", "1"],
                    ["verify", "--t", "2", "--oracle"],
                    ["verify", "--json"],
                    ["syndrome", "--error", "+" + "X" * spec["n"]],
                    ["simulate", "--model", "exhaustive", "--json"],
                    ["simulate", "--model", "depolarizing:0.2", "--trials", "20"],
                ]
            )
        )
        check_main([command[0], str(path), *command[1:]])

    run()


def test_fuzz_error_models(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("fuzz") / "code8.json")
    family.build_code(3).save(path)

    @FUZZ
    @given(MODELS, TRIALS, st.booleans())
    def run(model, trials, as_json):
        argv = ["simulate", path, "--model", model, "--trials", str(trials), "--seed", "5"]
        check_main(argv + ["--json"] * as_json)

    run()
