import itertools
import json
import math
import os
import pickle
import re
import resource
import subprocess
import sys
import time
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from stabforge import codewords, ecc_sim, family
from stabforge.ecc_sim import (
    TRIAL_BLOCK_ROWS,
    CampaignStats,
    DegenerateSyndromesError,
    DepolarizingError,
    MatrixError,
    PauliError,
    RecoveryReport,
    Simulator,
    SyndromeTable,
    build_syndrome_table,
    measure_syndrome,
    parse_error_spec,
    run_campaign,
    trial_rng,
)
from stabforge.oracle import StateVector, apply_pauli, apply_single_qubit, pauli_action, single_qubit_product
from stabforge.pauli import PauliOperator, identity, multiply, parse, pure_xs, single
from stabforge.stabilizer import StabilizerGroup, Syndrome, enumerate_elements, syndrome, validate
from reference import depolarizing_success, depolarizing_syndrome_distribution, stabilizer_weights
from strategies import IntEchelon, valid_groups


@pytest.fixture(scope="module")
def sim(code8):
    return Simulator(code8)


def test_table_size_and_entries(code8, group8):
    table = build_syndrome_table(code8, 1)
    assert len(table.entries) == 25
    assert str(table.correction(Syndrome(0b00000, 5))) == "+IIIIIIII"
    assert str(table.correction(Syndrome(0b11100, 5))) == "+IIYIIIII"  # Y_3
    assert table.correction(Syndrome(0b00111, 5)) is None  # 00... is never a weight-1 syndrome


def test_table_rejects_t2(code8):
    with pytest.raises(DegenerateSyndromesError):
        build_syndrome_table(code8, 2)


def test_measure_syndrome_deterministic_on_error_image(sim, group8, rng):
    psi0 = sim.basis[0]
    damaged = apply_pauli(single(8, 3, "X"), psi0)
    syn, collapsed = measure_syndrome(damaged, group8, rng)
    assert str(syn) == "01010"  # f(X_3)
    assert np.allclose(collapsed.amplitudes, damaged.amplitudes, atol=1e-12)


def test_measure_syndrome_stabilized_state(sim, group8, rng):
    psi0 = sim.basis[0]
    syn, collapsed = measure_syndrome(psi0, group8, rng)
    assert syn.value == 0
    assert np.allclose(collapsed.amplitudes, psi0.amplitudes, atol=1e-12)


def test_measure_syndrome_rejects_zero(group8, rng):
    with pytest.raises(ValueError):
        measure_syndrome(StateVector(8, np.zeros(256)), group8, rng)


def test_measure_syndrome_coherent_superposition_collapse(sim, group8):
    # (X_1 + Z_1)/sqrt(2) on psi_0 collapses to one pure error image
    psi0 = sim.basis[0]
    x_image = apply_pauli(single(8, 1, "X"), psi0)
    z_image = apply_pauli(single(8, 1, "Z"), psi0)
    damaged = StateVector(8, (x_image.amplitudes + z_image.amplitudes) / np.sqrt(2))

    # the projector norms give exactly 1/2 before any sampling
    m1 = group8.generators[0]
    plus = (damaged.amplitudes + apply_pauli(m1, damaged).amplitudes) / 2
    assert np.linalg.norm(plus) ** 2 == pytest.approx(0.5, abs=1e-12)

    seen = set()
    for trial in range(40):
        syn, collapsed = measure_syndrome(damaged, group8, trial_rng(99, trial))
        seen.add(str(syn))
        target = x_image if str(syn) == "01000" else z_image
        assert str(syn) in ("01000", "10111")
        overlap = abs(np.vdot(collapsed.amplitudes, target.amplitudes))
        assert overlap == pytest.approx(1.0, abs=1e-10)
    assert seen == {"01000", "10111"}


def test_trial_pauli_corrects(sim, rng):
    report = sim.trial(PauliError(single(8, 6, "Y")), rng)
    assert report.success
    assert str(report.syndrome) == "11000"  # f(Y_6)
    assert report.fidelity == pytest.approx(1.0, abs=1e-10)


def test_trial_identity(sim, rng):
    report = sim.trial(PauliError(identity(8)), rng)
    assert report.success and report.fidelity == pytest.approx(1.0)
    assert report.syndrome.value == 0


def test_trial_weight2_unrecoverable(sim, rng):
    from stabforge.pauli import multiply

    err = multiply(single(8, 1, "X"), single(8, 2, "Z"))  # syndrome 11000 = f(Y_6)
    report = sim.trial(PauliError(err), rng, logical=0)
    # the decoder applies Y_6, which is the wrong correction here
    assert not report.success


def test_trial_annihilating_matrix(sim, rng):
    report = sim.trial(MatrixError(np.zeros((2, 2)), 1), rng)
    assert not report.success
    assert report.syndrome is None and report.fidelity == 0.0


def test_trial_projector_error(sim):
    # (I+Z)/2 collapses qubit 4 but recovery still succeeds
    proj = np.array([[1.0, 0.0], [0.0, 0.0]])
    for t in range(20):
        report = sim.trial(MatrixError(proj, 4), trial_rng(5, t))
        assert report.success
        assert str(report.syndrome) in ("00000", str(syndrome(sim.group, single(8, 4, "Z"))))


def test_trial_random_matrix_errors(sim):
    for t in range(100):
        rng = trial_rng(1234, t)
        m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        qubit = int(rng.integers(1, 9))
        report = sim.trial(MatrixError(m, qubit), rng)
        assert report.success, f"trial {t} fidelity {report.fidelity}"


@pytest.mark.parametrize("exponent", [-1000, -600, -3, 3, 600, 1000])
def test_trial_matrix_scale_invariant(sim, exponent):
    # a power-of-two multiple of an error matrix is the same error; huge and
    # tiny multiples must neither overflow nor read as annihilation
    for t in range(10):
        rng = trial_rng(77, t)
        m = rng.standard_normal((2, 2))
        if t % 2:
            m = m + 1j * rng.standard_normal((2, 2))
        with np.errstate(all="raise"):
            got = sim.trial(MatrixError(m * 2.0**exponent, 4), trial_rng(78, t))
        assert got == sim.trial(MatrixError(m, 4), trial_rng(78, t))
        assert got.success


def test_trial_superposition_logical(sim):
    rng = trial_rng(42, 0)
    c = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    report = sim.trial(PauliError(single(8, 2, "X")), rng, logical=c / np.linalg.norm(c))
    assert report.success


def test_campaign_exhaustive(code8):
    stats = run_campaign(code8, "exhaustive", trials=0, seed=0)
    assert stats.trials == 24 * 8
    assert stats.success_rate == 1.0
    assert stats.min_fidelity >= 1.0 - 1e-10
    assert sum(stats.syndrome_histogram.values()) == stats.trials
    assert len(stats.syndrome_histogram) == 24


def test_campaign_depolarizing_p0(code8):
    stats = run_campaign(code8, "depolarizing:0", trials=25, seed=3)
    assert stats.success_rate == 1.0
    assert stats.syndrome_histogram == {"00000": 25}


def test_campaign_seed_determinism(code8):
    a = run_campaign(code8, "depolarizing:0.05", trials=40, seed=11)
    b = run_campaign(code8, "depolarizing:0.05", trials=40, seed=11)
    assert a.to_json() == b.to_json()
    c = run_campaign(code8, "depolarizing:0.05", trials=40, seed=12)
    assert c.to_json() != a.to_json()


def test_trial_unmatched_syndrome_reported(sim, rng):
    from stabforge.pauli import multiply

    # X_1 X_2 has syndrome 00001, which no weight-1 error produces
    err = multiply(single(8, 1, "X"), single(8, 2, "X"))
    assert str(syndrome(sim.group, err)) == "00001"
    report = sim.trial(PauliError(err), rng, logical=0)
    assert report.correction is None
    assert not report.success


def test_parse_error_spec(code8):
    spec = parse_error_spec("pauli:+IXIIIIII", 8)
    assert isinstance(spec, PauliError) and str(spec.op) == "+IXIIIIII"
    spec = parse_error_spec("matrix:1,0,0,0@3", 8)
    assert isinstance(spec, MatrixError) and spec.qubit == 3
    assert spec.matrix[0, 0] == 1 and spec.matrix[1, 1] == 0
    spec = parse_error_spec("matrix:0.5+0.5j,0,1j,2@1", 8)
    assert spec.matrix[0, 0] == 0.5 + 0.5j
    spec = parse_error_spec("depolarizing:0.25", 8)
    assert isinstance(spec, DepolarizingError) and spec.p == 0.25
    for bad in ("nope", "pauli:+XX", "matrix:1,0,0,1", "matrix:1,0,0,1@9",
                "depolarizing:2", "exhaustive"):
        with pytest.raises(ValueError):
            parse_error_spec(bad, 8)


# ---------------------------------------------------------------------------
# Differential tests: the blocked trial kernel against a frozen copy of the
# per-trial dense path it replaced.  Reports, fidelities included, and
# campaign JSON must be identical, not merely close.

B = TRIAL_BLOCK_ROWS


def _ref_and_parity(values, mask):
    v = values & mask
    for shift in (32, 16, 8, 4, 2, 1):
        v ^= v >> shift
    return v & 1


def _ref_apply_pauli(op, amps):
    idx = np.arange(len(amps), dtype=np.int64)
    signs = 1.0 - 2.0 * _ref_and_parity(idx, op.z_bits)
    out = np.empty_like(amps)
    out[idx ^ op.x_bits] = op.sign * signs * amps
    return out


def _ref_unit_scaled(m):
    m = np.ascontiguousarray(m, dtype=np.complex128)
    parts = m.view(np.float64)
    shift = 1 - math.frexp(float(np.abs(parts).max()))[1]
    return m if shift == 0 else np.ldexp(parts, shift).view(np.complex128)


def _ref_table(group: StabilizerGroup, t: int) -> SyndromeTable:
    n = group.n
    entries = {}
    errors = [identity(n)]
    for ell in range(1, t + 1):
        for qubits in itertools.combinations(range(1, n + 1), ell):
            for letters in itertools.product("XYZ", repeat=ell):
                err = identity(n)
                for i, L in zip(qubits, letters):
                    err = multiply(err, single(n, i, L))
                errors.append(err)
    for err in errors:
        syn = syndrome(group, err)
        if syn in entries:
            raise DegenerateSyndromesError(f"syndrome {syn} of {err} already assigned to {entries[syn]}")
        entries[syn] = err
    return SyndromeTable(t, entries)


def _ref_measure(amps, group, rng):
    amps = amps / float(np.linalg.norm(amps))
    value = 0
    for g in group.generators:
        moved = _ref_apply_pauli(g, amps)
        plus = (amps + moved) / 2.0
        p_plus = float(np.linalg.norm(plus) ** 2)
        if p_plus >= 1.0 - 1e-12:
            outcome_plus = True
        elif p_plus <= 1e-12:
            outcome_plus = False
        else:
            outcome_plus = rng.random() < p_plus
        if outcome_plus:
            amps = plus / np.sqrt(p_plus)
            value = value << 1
        else:
            minus = (amps - moved) / 2.0
            amps = minus / np.sqrt(1.0 - p_plus)
            value = (value << 1) | 1
    return Syndrome(value, group.a), amps


def _ref_trial(sim, error, rng, logical=None) -> RecoveryReport:
    n = sim.code.n
    basis = np.stack([s.amplitudes for s in sim.basis])
    if logical is None:
        c = rng.standard_normal(1 << sim.k) + 1j * rng.standard_normal(1 << sim.k)
        psi = np.asarray(c / np.linalg.norm(c), dtype=np.complex128) @ basis
    elif isinstance(logical, (int, np.integer)):
        psi = sim.basis[int(logical)].amplitudes
    else:
        psi = np.asarray(logical, dtype=np.complex128) @ basis
    if isinstance(error, PauliError):
        damaged = _ref_apply_pauli(error.op, psi)
    elif isinstance(error, MatrixError):
        m = _ref_unit_scaled(error.matrix)
        cube = psi.reshape(-1, 2, 1 << (error.qubit - 1))
        damaged = np.einsum("ab,xbz->xaz", m, cube).reshape(-1)
    else:
        op = identity(n)
        for i in range(1, n + 1):
            if rng.random() < error.p:
                op = multiply(op, single(n, i, "XYZ"[rng.integers(3)]))
        damaged = _ref_apply_pauli(op, psi)
    if float(np.linalg.norm(damaged)) < 1e-15:
        return RecoveryReport(None, None, 0.0, False)
    syn, collapsed = _ref_measure(damaged, sim.group, rng)
    corr = _ref_table(sim.group, sim.table.t).correction(syn)
    out = collapsed if corr is None else _ref_apply_pauli(corr, collapsed)
    fidelity = float(abs(np.vdot(psi, out)))
    return RecoveryReport(syn, corr, fidelity, corr is not None and fidelity >= 1.0 - 1e-10)


def _lone_trial(sim, error, rng, logical=None) -> RecoveryReport:
    return sim.trial(error, rng, logical=logical)


def _ref_campaign(code, model, trials, seed) -> str:
    return _ref_stats(code, model, trials, seed).to_json()


def _ref_stats(code, model, trials, seed, trial=_ref_trial) -> CampaignStats:
    """The campaign from one trial(sim, error, trial_rng(seed, index), logical) call per trial."""
    sim = Simulator(code)
    reports = []
    if model == "exhaustive":
        index = 0
        for i in range(1, code.n + 1):
            for letter in "XYZ":
                err = PauliError(single(code.n, i, letter))
                for word in range(1 << sim.k):
                    reports.append(trial(sim, err, trial_rng(seed, index), logical=word))
                    index += 1
    else:
        spec = parse_error_spec(model, code.n)
        for index in range(trials):
            reports.append(trial(sim, spec, trial_rng(seed, index)))
    histogram = {}
    for r in reports:
        key = str(r.syndrome) if r.syndrome is not None else "annihilated"
        histogram[key] = histogram.get(key, 0) + 1
    successes = sum(r.success for r in reports)
    return CampaignStats(
        model=model,
        seed=seed,
        trials=len(reports),
        successes=successes,
        success_rate=successes / len(reports) if reports else 0.0,
        min_fidelity=min((r.fidelity for r in reports), default=0.0),
        syndrome_histogram=histogram,
    )


def _matrix_model(m, qubit):
    return "matrix:" + ",".join(repr(complex(x)) for x in np.ravel(m)) + f"@{qubit}"


_RANDOM_COMPLEX = np.array([[0.3 + 1.1j, -0.7], [0.2j, 1 - 0.4j]])
CAMPAIGN_MODELS = [
    "pauli:+IIIIIYII",
    "pauli:+XXIIIIII",  # syndrome 00001, outside the table
    "pauli:-ZIIIIIIX",
    "depolarizing:0",
    "depolarizing:0.05",
    "depolarizing:0.3",
    "depolarizing:1",
    "matrix:0.5,0.1j,1,0@3",
    _matrix_model(_RANDOM_COMPLEX, 8),
    "matrix:1,0,0,0@4",  # projector
    "matrix:0,0,0,0@1",  # annihilates every trial
    _matrix_model(_RANDOM_COMPLEX * 2.0**600, 2),
    _matrix_model(_RANDOM_COMPLEX * 2.0**-600, 5),
]


@pytest.mark.parametrize("trials", [0, 1, B - 1, B, B + 1])
@pytest.mark.parametrize("model", CAMPAIGN_MODELS)
@settings(max_examples=4, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(seed=st.integers(0, 2**32 - 1))
def test_campaign_matches_per_trial_reference(code8, model, trials, seed):
    got = run_campaign(code8, model, trials, seed).to_json()
    assert got == _ref_campaign(code8, model, trials, seed)


@pytest.mark.parametrize("seed", [0, 1, 99])
def test_exhaustive_campaign_matches_per_trial_reference(code8, seed):
    assert run_campaign(code8, "exhaustive", 0, seed).to_json() == _ref_campaign(code8, "exhaustive", 0, seed)


def _error_specs():
    rng = np.random.default_rng(5)
    m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    return [
        PauliError(parse("+IIXIIIII")),
        PauliError(parse("-YIIIIIIZ")),
        DepolarizingError(0.0),
        DepolarizingError(0.05),
        DepolarizingError(0.3),
        DepolarizingError(1.0),
        MatrixError(m, 6),
        MatrixError(m * 2.0**600, 1),
        MatrixError(m * 2.0**-600, 8),
        MatrixError(np.array([[0.0, 0.0], [0.0, 1.0]]), 3),  # projector
        MatrixError(np.zeros((2, 2)), 2),
    ]


ERROR_SPECS = _error_specs()


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    seed=st.integers(0, 2**32 - 1),
    error=st.sampled_from(ERROR_SPECS),
    logical=st.one_of(st.none(), st.integers(0, 7), st.integers(0, 2**32 - 1).map(lambda s: s + 1j)),
)
def test_trial_matches_per_trial_reference(sim, seed, error, logical):
    if isinstance(logical, complex):  # a vector over the logical words
        r = np.random.default_rng(int(logical.real))
        logical = r.standard_normal(8) + 1j * r.standard_normal(8)
        logical /= np.linalg.norm(logical)
    got = sim.trial(error, trial_rng(seed, 3), logical=logical)
    assert got == _ref_trial(sim, error, trial_rng(seed, 3), logical=logical)


@pytest.mark.parametrize("error", ERROR_SPECS, ids=lambda e: type(e).__name__)
def test_block_rows_match_lone_trials(sim, error):
    # one block mixing every kind of logical input; each row must match the
    # same trial run alone, whatever the other rows do
    vec = np.arange(8) + 1j * np.arange(8)[::-1]
    logicals = [None, 0, 5, vec / np.linalg.norm(vec), None, 7, None]
    rngs = [trial_rng(11, i) for i in range(len(logicals))]
    block = sim._trial_block(error, rngs, logicals)
    for i, logical in enumerate(logicals):
        assert block[i] == sim.trial(error, trial_rng(11, i), logical=logical)
        assert block[i] == _ref_trial(sim, error, trial_rng(11, i), logical=logical)


def test_measure_syndrome_matches_reference(sim, group8):
    for t in range(30):
        rng = trial_rng(8, t)
        m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        damaged = apply_single_qubit(m, int(rng.integers(1, 9)), sim.random_logical(rng))
        syn, collapsed = measure_syndrome(damaged, group8, trial_rng(9, t))
        ref_syn, ref_amps = _ref_measure(damaged.amplitudes, group8, trial_rng(9, t))
        assert syn == ref_syn
        assert np.array_equal(collapsed.amplitudes.view(np.float64), ref_amps.view(np.float64))


def test_measure_syndrome_reuses_the_simulator_actions(code8, group8):
    """measure_syndrome gets only the group, so the actions are cached per
    group; an equal group finds the Simulator's, and nothing may write them."""
    sim = Simulator(code8)
    actions = ecc_sim._generator_actions(StabilizerGroup(8, group8.generators))
    assert actions is sim._generator_actions
    perms, signs = actions
    assert perms.shape == signs.shape == (group8.a, 2 << 8)
    for array in actions:
        with pytest.raises(ValueError):
            array[0, 0] = 0
    # the table's corrections are gathered once, read-only, as oracle.pauli_action gathers each
    assert len(sim._gathers) == len(sim.table.entries) == 3 * 8 + 1
    for corr in sim.table.entries.values():
        gather = sim._gathers[(corr.x_bits, corr.z_bits, corr.sign)]
        for got, want in zip(gather, pauli_action(8, corr.x_bits, corr.z_bits, corr.sign)):
            assert got.dtype == want.dtype and np.array_equal(got, want)
            with pytest.raises(ValueError):
                got[0] = 0


def _simulator_for(group: StabilizerGroup) -> Simulator:
    """A t = 1 Simulator on the group, t = 0 if its syndromes collide; a
    group whose seeds fall to MinusSignPureZError is skipped."""
    try:
        seeds = codewords.seed_generators(group)
    except codewords.MinusSignPureZError:
        assume(False)
    code = SimpleNamespace(n=group.n, generators=group.generators, seed_generators=seeds)
    try:
        return Simulator(code, t=1)
    except DegenerateSyndromesError:
        return Simulator(code, t=0)


@settings(max_examples=40, deadline=None)
@given(group=valid_groups(), seed=st.integers(0, 2**32 - 1), p=st.sampled_from([0.1, 0.5]))
def test_random_groups_match_per_trial_reference(group, seed, p):
    # signed generators and codes of every shape on n <= 7 qubits
    sim = _simulator_for(group)
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    for error in (DepolarizingError(p), MatrixError(m, int(rng.integers(1, group.n + 1)))):
        rngs = [trial_rng(seed, i) for i in range(5)]
        block = sim._trial_block(error, rngs, [None] * 5)
        assert block == [_ref_trial(sim, error, trial_rng(seed, i)) for i in range(5)]


@pytest.mark.parametrize("t", [0, 1, 2])
def test_table_matches_reference_code8(code8, group8, t):
    try:
        expected = _ref_table(group8, t)
    except DegenerateSyndromesError as exc:
        with pytest.raises(DegenerateSyndromesError, match=re.escape(str(exc))):
            build_syndrome_table(code8, t)
    else:
        assert build_syndrome_table(code8, t) == expected


def test_simulator_validates_the_group_once(code8, monkeypatch):
    calls = []

    def counting_validate(n, generators):
        calls.append(n)
        return validate(n, generators)

    monkeypatch.setattr(ecc_sim, "validate", counting_validate)
    sim = Simulator(code8)
    assert calls == [8]
    assert sim.table == build_syndrome_table(code8, 1)


@given(valid_groups(), st.integers(0, 3))
def test_table_matches_reference_random(group, t):
    code = SimpleNamespace(n=group.n, generators=group.generators)
    try:
        expected = _ref_table(group, t)
    except DegenerateSyndromesError as exc:
        with pytest.raises(DegenerateSyndromesError) as info:
            build_syndrome_table(code, t)
        assert str(info.value) == str(exc)
    else:
        assert build_syndrome_table(code, t) == expected


def _toy_code():
    # <ZZ> on two qubits: logical words |00> and |11>, so a |1><1| projector
    # on qubit 1 annihilates word 0 and keeps word 1
    return family.CodeSpec(n=2, k=1, j=0, generators=(parse("+ZZ"),), seed_generators=pure_xs(2, [[1, 2]]))


def test_kernel_raises_no_numpy_warnings(code8):
    toy = Simulator(_toy_code(), t=0)
    projector = MatrixError(np.array([[0.0, 0.0], [0.0, 1.0]]), 1)
    with np.errstate(all="raise"), warnings.catch_warnings():
        warnings.simplefilter("error")
        for model in ("matrix:0,0,0,0@1", "depolarizing:0", "depolarizing:1", "depolarizing:0.3"):
            for trials in (1, B + 1):
                run_campaign(code8, model, trials, 4)
        # dead and live rows in one block
        reports = toy._trial_block(projector, [trial_rng(2, i) for i in range(4)], [0, 1, 0, None])
    assert reports[0] == reports[2] == RecoveryReport(None, None, 0.0, False)
    assert reports[1].syndrome is not None and reports[1].success
    for i, logical in enumerate([0, 1, 0, None]):
        assert reports[i] == _ref_trial(toy, projector, trial_rng(2, i), logical=logical)


def test_simulator_rejects_large_code_before_building_it():
    code = family.build_code(5)  # n = 32: 2^25 code words if the cap came late
    start = time.perf_counter()
    with pytest.raises(ValueError, match="dense oracle is capped at 12 qubits, got 32"):
        Simulator(code)
    assert time.perf_counter() - start < 2.0


def test_measure_syndrome_rejects_a_state_on_other_qubits(group8):
    state = StateVector(4, np.eye(16)[0])
    with pytest.raises(ValueError, match="^state and group qubit counts differ$"):
        measure_syndrome(state, group8, np.random.default_rng(0))


@pytest.mark.parametrize(
    "logical, message",
    [
        (-1, r"^logical word must be an integer in 0\.\.7, got -1$"),
        (8, r"^logical word must be an integer in 0\.\.7, got 8$"),
        (np.int64(8), r"^logical word must be an integer in 0\.\.7, got np\.int64\(8\)$"),
        (True, r"^logical word must be an integer in 0\.\.7, got True$"),
        ([1] * 8, r"^logical amplitudes need 2-norm 1 within 1e-10, got 2\.828427"),
        ([float("nan")] * 8, r"^logical amplitudes need 2-norm 1 within 1e-10, got nan$"),
        (np.ones(7) / np.sqrt(7), r"^logical amplitudes need length 8, got shape \(7,\)$"),
        ([np.eye(8)[0]], r"^logical amplitudes need length 8, got shape \(1, 8\)$"),
    ],
)
def test_trial_rejects_bad_logical_input(sim, logical, message):
    # these used to wrap round, run as word 1, report fidelity 2.83 as a
    # success, or raise a bare IndexError or a matmul error
    with pytest.raises(ValueError, match=message):
        sim.trial(PauliError(single(8, 2, "X")), trial_rng(0, 0), logical=logical)
    with pytest.raises(ValueError, match=message):  # wherever the row sits in a block
        sim._trial_block(PauliError(single(8, 2, "X")), [trial_rng(0, i) for i in range(3)], [None, 0, logical])


def test_trial_accepts_logical_input_within_the_tolerance(sim):
    err = PauliError(single(8, 2, "X"))
    assert sim.trial(err, trial_rng(0, 0), logical=np.int64(7)).success
    nearly_unit = np.eye(8)[3] * (1 + 0.5e-10)
    assert sim.trial(err, trial_rng(0, 0), logical=nearly_unit).success



@pytest.mark.parametrize(
    "error, message",
    [
        (PauliError(single(4, 2, "X")), r"^error acts on 4 qubits, code has 8$"),
        (PauliError(single(9, 9, "X")), r"^error acts on 9 qubits, code has 8$"),
        (MatrixError(np.eye(2), 9), r"^qubit 9 out of range 1\.\.8$"),
        (MatrixError(np.eye(2), 0), r"^qubit 0 out of range 1\.\.8$"),
    ],
)
def test_trial_rejects_an_error_on_other_qubits(sim, error, message):
    # a gather on the flat block would otherwise read a Pauli on 4 qubits as
    # one on 8, and a two-row block would mix its rows under qubit 9
    for rows in (1, 2):
        with pytest.raises(ValueError, match=message):
            sim._trial_block(error, [trial_rng(0, i) for i in range(rows)], [None] * rows)


@pytest.mark.parametrize(
    "fields, error, message",
    [
        ((2.0,), ValueError, r"^depolarizing probability must lie in \[0, 1\], got 2\.0$"),
        ((-0.25,), ValueError, r"^depolarizing probability must lie in \[0, 1\], got -0\.25$"),
        ((math.nan,), ValueError, r"^depolarizing probability must lie in \[0, 1\], got nan$"),
        ((np.array([[np.nan, 0], [0, 1]]), 1), ValueError, "^matrix error needs a 2 x 2 matrix of finite complex entries$"),
        ((np.array([[1, 0], [0, complex(0, math.inf)]]), 1), ValueError, "^matrix error needs a 2 x 2"),
        ((np.eye(3), 1), ValueError, "^matrix error needs a 2 x 2"),
        (([1, 0, 0, 1], 1), ValueError, "^matrix error needs a 2 x 2"),
        ((np.eye(2), 1.5), TypeError, r"^matrix qubit must be an integer, got 1\.5$"),
        ((np.eye(2), True), TypeError, "^matrix qubit must be an integer, got true$"),
        (("0.5",), TypeError, "^depolarizing probability must be a real number, got a string$"),
        ((None,), TypeError, "^depolarizing probability must be a real number, got null$"),
        ((0.5 + 0j,), TypeError, "^depolarizing probability must be a real number, got complex$"),
        ((True,), TypeError, "^depolarizing probability must be a real number, got true$"),
    ],
    ids=[
        "p-above-1", "p-below-0", "p-nan", "matrix-nan", "matrix-inf", "matrix-3x3", "matrix-flat", "qubit-float", "qubit-bool",
        "p-string", "p-none", "p-complex", "p-bool",
    ],
)
def test_error_models_refuse_bad_fields_when_built(fields, error, message):
    model = DepolarizingError if len(fields) == 1 else MatrixError
    with pytest.raises(error, match=message):
        model(*fields)


def test_error_models_keep_good_fields(sim):
    error = MatrixError([[0, 1], [1, 0]], np.int64(3))  # a nested list reads as the 2 x 2 array it spells
    assert type(error.qubit) is int and error.qubit == 3
    assert sim.trial(error, trial_rng(0, 0)) == sim.trial(PauliError(single(8, 3, "X")), trial_rng(0, 0))
    assert [DepolarizingError(p).p for p in (0, 0.0, 1.0)] == [0, 0.0, 1.0]


def test_trial_rejects_an_unsupported_error_spec(sim):
    with pytest.raises(TypeError, match="^unsupported error spec 'depolarizing:0.1'$"):
        sim.trial("depolarizing:0.1", trial_rng(0, 0))


def _float_rule_blocks(count=200, seed=19):
    """Random complex blocks of 1 to 300 rows and 2 to 4096 columns, both
    log-uniform so that small blocks are common; most widths are not a
    multiple of 8."""
    gen = np.random.default_rng(seed)
    for _ in range(count):
        rows, width = int(2 ** gen.uniform(0, math.log2(301))), int(2 ** gen.uniform(1, 12))
        a = gen.standard_normal((rows, width)) + 1j * gen.standard_normal((rows, width))
        b = gen.standard_normal((rows, width)) + 1j * gen.standard_normal((rows, width))
        yield gen, a, b


def test_block_kernel_float_identities():
    """The rules that make the block kernel's floats equal those of the
    per-row forms of the per-trial reference, each counted on its own so
    that a numpy or BLAS upgrade that breaks one fails here by name.

    These forms look equivalent but change bits (numpy 2.4 with OpenBLAS
    0.3.31 on x86-64, counted over the same 200 blocks of 9,004 rows), and
    must not be used in the kernel:
    - a plain ``c @ B`` for the block (one gemm): 3,981,084 amplitudes
      differ from the per-row ``c[r] @ B`` (gemv);
    - ``np.einsum('ij,ij->i')`` for the row sums of squares: 5,422 rows;
    - ``np.abs`` on the array of complex overlaps instead of scalar
      ``abs``: 3,077 rows;
    - a numpy square of ``np.sqrt(s)`` instead of ``math.sqrt(s) ** 2``:
      5 rows.
    """
    mismatches = dict.fromkeys(["vecdot_sqnorm", "row_sqnorms", "vecdot_overlap", "abs", "matmul", "scaling"], 0)
    for gen, a, b in _float_rule_blocks():
        rows, width = a.shape
        sq = [float(r.real.dot(r.real)) + float(r.imag.dot(r.imag)) for r in a]
        got = np.vecdot(a.real, a.real) + np.vecdot(a.imag, a.imag)
        mismatches["vecdot_sqnorm"] += sum(x != y for x, y in zip(got.tolist(), sq))
        mismatches["row_sqnorms"] += sum(x != y for x, y in zip(ecc_sim._row_sqnorms(a.view(np.float64)), sq))

        overlaps = np.vecdot(a, b).tolist()
        mismatches["vecdot_overlap"] += sum(complex(np.vdot(a[r], b[r])) != overlaps[r] for r in range(rows))
        mismatches["abs"] += sum(float(abs(np.vdot(a[r], b[r]))) != abs(overlaps[r]) for r in range(rows))

        k = int(gen.integers(1, 17))
        c = gen.standard_normal((rows, k)) + 1j * gen.standard_normal((rows, k))
        basis = gen.standard_normal((k, width)) + 1j * gen.standard_normal((k, width))
        stacked = np.matmul(c[:, None, :], basis)[:, 0]
        mismatches["matmul"] += sum(not np.array_equal(stacked[r], c[r] @ basis) for r in range(rows))

        # complex / real and the float view times the reciprocal agree up to
        # the sign of a zero, which no output of the kernel can see
        scaled = a.view(np.float64) * (1.0 / np.sqrt(sq))[:, None]
        divided = np.stack([a[r] / math.sqrt(sq[r]) for r in range(rows)]).view(np.float64)
        mismatches["scaling"] += int(np.count_nonzero(np.abs(scaled) != np.abs(divided)))
    assert mismatches == dict.fromkeys(mismatches, 0)


@pytest.mark.parametrize("model", CAMPAIGN_MODELS + ["exhaustive"])
def test_campaign_output_does_not_depend_on_the_block_split(code8, model, monkeypatch):
    trial_counts = [0] if model == "exhaustive" else [0, 1, 130]
    expected = {trials: run_campaign(code8, model, trials, 5).to_json() for trials in trial_counts}
    for rows in (1, 3, 8, 32, 64):
        monkeypatch.setattr(ecc_sim, "TRIAL_BLOCK_ROWS", rows)
        for trials in trial_counts:
            assert run_campaign(code8, model, trials, 5).to_json() == expected[trials], (rows, trials)


def _campaign_peak_bytes(code, trials: int) -> int:
    tracemalloc.start()
    try:
        run_campaign(code, "depolarizing:0.05", trials, 0)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_campaign_memory_does_not_grow_with_the_trials(code8):
    # each block's reports are folded into the counts as it finishes; holding
    # every report took about 140 B a trial, 570 KB more at 8,192 than at 4,128.
    # Both counts take a whole chunk of bulk-seeded streams, whose size is
    # bounded, and a first campaign warms what is made once.
    run_campaign(code8, "depolarizing:0.05", 64, 0)
    small = _campaign_peak_bytes(code8, ecc_sim._SEED_CHUNK + ecc_sim.TRIAL_BLOCK_ROWS)
    large = _campaign_peak_bytes(code8, 8192)
    assert large - small < 256 * 1024, (small, large)


# ---------------------------------------------------------------------------
# The eigenstate step: a row damaged by a Pauli is read at one label and only
# rescaled, with no projection gathers.  Its reports must still equal the
# frozen per-trial reference bit for bit, fidelities compared with ==.


def _logical_inputs(k: int, seed: int, words: int) -> list:
    """None, the first `words` basis words and two unit amplitude vectors."""
    gen = np.random.default_rng(seed)
    vecs = [gen.standard_normal(1 << k) + 1j * gen.standard_normal(1 << k) for _ in range(2)]
    return [None, *range(min(words, 1 << k)), *(v / np.linalg.norm(v) for v in vecs)]


EIGEN_ERRORS = (
    [PauliError(single(8, i, letter)) for i in range(1, 9) for letter in "XYZ"]
    + [PauliError(parse(text)) for text in ("-XIIIIIII", "-IIIIYIII", "-IIIIIIIZ", "-IIIIIIII", "+XXIIIIII", "-YZXIIIYX")]
    + [DepolarizingError(p) for p in (0.0, 0.05, 0.3, 1.0)]
)


@pytest.mark.parametrize("error", EIGEN_ERRORS, ids=lambda e: str(e.op) if isinstance(e, PauliError) else str(e.p))
def test_eigen_step_matches_reference_on_code8(sim, error):
    logicals = _logical_inputs(sim.k, 7, words=8)
    block = sim._trial_block(error, [trial_rng(21, i) for i in range(len(logicals))], logicals)
    assert block == [_ref_trial(sim, error, trial_rng(21, i), logical=lg) for i, lg in enumerate(logicals)]


@settings(max_examples=60, deadline=None)
@given(group=valid_groups(), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_eigen_step_matches_reference_on_random_groups(group, seed, data):
    sim = _simulator_for(group)
    n, bits = group.n, st.integers(0, (1 << group.n) - 1)
    op = PauliOperator(n, data.draw(bits), data.draw(bits), data.draw(st.sampled_from([1, -1])))
    logicals = _logical_inputs(sim.k, seed, words=4)
    for error in (PauliError(op), DepolarizingError(data.draw(st.sampled_from([0.0, 0.2, 1.0])))):
        block = sim._trial_block(error, [trial_rng(seed, i) for i in range(len(logicals))], logicals)
        assert block == [_ref_trial(sim, error, trial_rng(seed, i), logical=lg) for i, lg in enumerate(logicals)]


@pytest.mark.parametrize("n", [1, 3])
def test_eigen_step_on_the_empty_group(n):
    # a = 0: no generator, every row has syndrome 0 and is rescaled by nothing
    sim = _simulator_for(validate(n, []))
    assert sim.group.a == 0 and sim._generator_actions[0].shape == (0, 2 << n)
    logicals = _logical_inputs(sim.k, 3, words=4)
    for error in (PauliError(PauliOperator(n, 1, 1, -1)), DepolarizingError(0.5)):
        block = sim._trial_block(error, [trial_rng(6, i) for i in range(len(logicals))], logicals)
        assert block == [_ref_trial(sim, error, trial_rng(6, i), logical=lg) for i, lg in enumerate(logicals)]


def test_pauli_rows_skip_the_projections_and_matrix_rows_take_them(code8, monkeypatch):
    steps = []
    eigen_rows = ecc_sim._eigen_rows

    def spy(f, perms, signs):
        measured = eigen_rows(f, perms, signs)
        steps.append(measured is not None)
        return measured

    monkeypatch.setattr(ecc_sim, "_eigen_rows", spy)
    for model in ("exhaustive", "depolarizing:0.05", "depolarizing:1", "pauli:-ZIIIIIIX", "pauli:+XXIIIIII"):
        run_campaign(code8, model, 3 * B + 1, 2)
    assert len(steps) > 30 and all(steps)  # no Pauli block fell back
    steps.clear()
    for model in ("matrix:0,1,1,0@3", "matrix:0.5,0.1j,1,0@3", "matrix:1,0,0,0@4"):
        run_campaign(code8, model, 3 * B + 1, 2)
    assert steps == []  # matrix rows go straight to the projections


def test_a_row_off_the_premise_sends_its_block_through_the_projections(sim):
    """A matrix-damaged row is no eigenstate, and rows scaled by twice their
    norm would draw their outcomes: either way the eigenstate step gives up
    and the whole block is projected, with the same floats and draws."""
    psi = sim._logical_amplitudes([trial_rng(4, i) for i in range(3)], [None, 2, None])
    mixed = psi.copy()
    mixed[1] = single_qubit_product(np.array([[0.6, 0.2j], [0.1, 1.0]]), 3, psi[1:2])[0]
    true_norms = [math.sqrt(sq) for sq in ecc_sim._row_sqnorms(psi.view(np.float64))]
    mixed_norms = [math.sqrt(sq) for sq in ecc_sim._row_sqnorms(mixed.view(np.float64))]
    for amps, norms in ((mixed, mixed_norms), (psi, [2.0 * nrm for nrm in true_norms])):
        f = amps.view(np.float64) * np.array([[1.0 / nrm] for nrm in norms])
        assert ecc_sim._eigen_rows(f, *sim._generator_actions) is None
        eigen_rngs, projected_rngs = ([trial_rng(5, i) for i in range(3)] for _ in range(2))
        values, out = ecc_sim._measure_rows(amps, norms, sim._generator_actions, eigen_rngs, True)
        want_values, want = ecc_sim._measure_rows(amps, norms, sim._generator_actions, projected_rngs)
        assert values == want_values and np.array_equal(out.view(np.float64), want.view(np.float64))
        assert [r.random() for r in eigen_rngs] == [r.random() for r in projected_rngs]
    # the code states themselves, scaled by their own norms, take the eigenstate step
    f = psi.view(np.float64) * np.array([[1.0 / nrm] for nrm in true_norms])
    assert ecc_sim._eigen_rows(f, *sim._generator_actions) is not None


@pytest.mark.parametrize("error", [PauliError(parse("+IIIIIIII")), PauliError(parse("+IIXIIIII"))], ids=lambda e: str(e.op))
def test_rescales_run_until_a_factor_of_one_or_through_every_plus_outcome(sim, error, monkeypatch):
    """Round i of the eigenstate step rescales a row for its i-th +1 outcome
    by 1 / sqrt(p), and the row leaves once that factor is 1.0.  Some random
    code8 states never reach 1.0 and pay one rescale per +1 outcome.  Rows
    of both kinds must equal the per-trial reference bit for bit."""
    factors = []
    row_sqnorms = ecc_sim._row_sqnorms

    def spy(f):
        sqs = row_sqnorms(f)
        factors.append(1.0 / math.sqrt(math.sqrt(sqs[0]) ** 2))
        return sqs

    monkeypatch.setattr(ecc_sim, "_row_sqnorms", spy)
    plus = sim.group.a - syndrome(sim.group, error.op).value.bit_count()
    ends = set()
    for i in range(300):
        factors.clear()
        got = sim.trial(error, trial_rng(0, i))
        rescales = factors[2:]  # the logical coefficients and the damaged norm come first
        assert 1 <= len(rescales) <= plus and 1.0 not in rescales[:-1]
        settled = rescales[-1] == 1.0
        assert settled or len(rescales) == plus
        ends.add(settled)
        assert got == _ref_trial(sim, error, trial_rng(0, i))
    assert ends == {True, False}  # the sweep holds rows that settle and rows that never do


@pytest.mark.parametrize(
    "matrix, pauli",
    [("matrix:0,1,1,0@3", "pauli:+IIXIIIII"), ("matrix:0,-1j,1j,0@5", "pauli:+IIIIYIII"), ("matrix:1,0,0,-1@8", "pauli:+IIIIIIIZ")],
)
def test_matrix_and_pauli_forms_of_one_error_give_one_campaign(code8, matrix, pauli):
    # the matrix rows take the projections and the Pauli rows the eigenstate
    # step, so this checks one branch against the other
    def without_model(model):
        return [line for line in run_campaign(code8, model, 1000, 0).to_json().splitlines() if '"model"' not in line]

    assert without_model(matrix) == without_model(pauli)


@pytest.mark.parametrize("j", range(3, 17))
def test_family_stabilizers_have_three_weights(j):
    n = 1 << j
    assert stabilizer_weights(family.build_code(j).group()) == {0: 1, 3 * n // 4: (1 << (j + 2)) - 4, n: 3}


@settings(max_examples=100, deadline=None)
@given(valid_groups().filter(lambda group: group.n <= 6))
def test_stabilizer_weights_count_the_span_by_brute_force(group):
    n = group.n
    span = IntEchelon(g.x_bits | g.z_bits << n for g in group.generators)
    counts = {}
    for x, z in itertools.product(range(1 << n), repeat=2):
        if not span.reduce(x | z << n):
            counts[(x | z).bit_count()] = counts.get((x | z).bit_count(), 0) + 1
    assert stabilizer_weights(group) == dict(sorted(counts.items()))


def test_exact_depolarizing_success_is_the_brute_force_sum(code8, group8):
    table = build_syndrome_table(code8, 1)
    stabilizers = {(g.x_bits, g.z_bits) for g in enumerate_elements(group8)}
    decoded = [0] * 9  # of the 4^8 Paulis of each weight, those the table maps into S up to phase
    for x, z in itertools.product(range(256), repeat=2):
        correction = table.correction(syndrome(group8, PauliOperator(8, x, z, 1)))
        if correction is not None and (x ^ correction.x_bits, z ^ correction.z_bits) in stabilizers:
            decoded[(x | z).bit_count()] += 1
    weights = stabilizer_weights(group8)
    for p, want in ((0.05, 0.942755542068), (0.2, 0.503451122890)):
        brute = sum(count * (p / 3) ** w * (1 - p) ** (8 - w) for w, count in enumerate(decoded))
        exact = depolarizing_success(8, weights, p)
        assert abs(exact - brute) <= 1e-12 and abs(exact - want) <= 1e-12


@pytest.mark.parametrize("seed", [0, 1])
def test_depolarizing_campaign_is_within_4_sigma_of_the_exact_rate(code8, group8, seed):
    trials, exact = 20_000, depolarizing_success(8, stabilizer_weights(group8), 0.05)
    stats = run_campaign(code8, "depolarizing:0.05", trials, seed)
    assert abs(stats.success_rate - exact) <= 4 * math.sqrt(exact * (1 - exact) / trials)


def _syndrome_classes(code):
    """The zero syndrome, the table's 3n nonzero syndromes and the others."""
    table = {syn.value for syn in build_syndrome_table(code, 1).entries} - {0}
    a = len(code.generators)
    return [{0}, table, set(range(1, 1 << a)) - table]


def test_exact_depolarizing_syndrome_distribution_takes_three_values(code8, group8):
    probs = depolarizing_syndrome_distribution(group8, 0.05)
    zero, table, others = _syndrome_classes(code8)
    assert (len(table), len(others)) == (24, 7) and abs(sum(probs) - 1) <= 1e-12
    # each to the digits given: within half a unit of the last
    for cls, want, tol in ((zero, 0.663635, 5e-7), (table, 0.0132553, 5e-8), (others, 0.00260540, 5e-9)):
        assert all(abs(probs[s] - want) <= tol for s in cls), want


@pytest.mark.parametrize("seed", [0, 1])
def test_depolarizing_campaign_syndromes_fit_the_exact_distribution(code8, group8, seed):
    # chi^2 with 2 degrees of freedom over the three syndrome classes; 13.82 is p = 0.001
    trials, probs = 20_000, depolarizing_syndrome_distribution(group8, 0.05)
    histogram = run_campaign(code8, "depolarizing:0.05", trials, seed).syndrome_histogram
    classes = _syndrome_classes(code8)
    observed = [sum(histogram.get(str(Syndrome(s, group8.a)), 0) for s in cls) for cls in classes]
    expected = [trials * sum(probs[s] for s in cls) for cls in classes]
    assert sum(observed) == trials
    assert sum((o - e) ** 2 / e for o, e in zip(observed, expected)) <= 13.82


# ---------------------------------------------------------------------------
# Bulk-seeded trial streams: run_campaign keys the (seed, index) streams of
# trial_rng in vectorized chunks, and they must be trial_rng's bit for bit.

BULK_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**96 + 7, 2**200 + 5]


def _state(rng):
    return tuple(rng.bit_generator.state["state"].values())


@pytest.mark.parametrize("seed", BULK_SEEDS)
@pytest.mark.parametrize("start, stop", [(0, 70), (2**32 - 40, 2**32 + 30), (2**33 + 5, 2**33 + 45)])
def test_bulk_stream_states_and_draws_are_trial_rngs(seed, start, stop):
    keyed = ecc_sim._pcg64_seeds(seed, start, stop)
    assert keyed == [_state(trial_rng(seed, i)) for i in range(start, stop)]
    gen = np.random.Generator(np.random.PCG64())
    for i, (state, inc) in zip(range(start, stop, 7), keyed[::7]):
        gen.bit_generator.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc}, "has_uint32": 0, "uinteger": 0}
        want = trial_rng(seed, i)
        assert np.array_equal(gen.standard_normal(16), want.standard_normal(16))
        assert gen.random() == want.random() and gen.integers(3) == want.integers(3)


@pytest.mark.parametrize("seed", [0, 2**32, 2**64 + 1])
def test_bulk_streams_are_trial_rngs_in_order_across_a_chunk(seed):
    count = ecc_sim._SEED_CHUNK + 2 * TRIAL_BLOCK_ROWS + 3
    for i, rng in enumerate(ecc_sim._trial_streams(seed, count)):
        assert _state(rng) == _state(trial_rng(seed, i)), i
    assert i == count - 1


@pytest.mark.parametrize("seed", [2**32, 2**64 + 1])
@pytest.mark.parametrize("model", ["depolarizing:0.3", "matrix:0.5,0.1j,1,0@3", "exhaustive"])
def test_bulk_seeded_campaign_is_lone_trials_on_trial_rng(code8, model, seed):
    counts = [0] if model == "exhaustive" else [1, 33, ecc_sim._SEED_CHUNK + TRIAL_BLOCK_ROWS + 5]  # the last crosses a chunk
    for trials in counts:
        got = run_campaign(code8, model, trials, seed).to_json()
        assert got == _ref_stats(code8, model, trials, seed, trial=_lone_trial).to_json(), trials


_SEED_CHILD = """
import pickle, sys
import numpy as np
from stabforge import ecc_sim, family
code, out = family.build_code(3), []
for trials in map(int, sys.argv[2:]):
    try:
        out.append(ecc_sim.run_campaign(code, "depolarizing:0.1", trials, eval(sys.argv[1])))
    except Exception as exc:
        out.append(exc)
sys.stdout.buffer.write(pickle.dumps(out))
"""


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize(
    "text, seed", [("-1", -1), ("1.5", 1.5), ("None", None), ("True", True), ("np.int64(3)", np.int64(3)), ("'3'", "3")]
)
def test_campaign_seed_handling_is_lone_trial_rngs(code8, text, seed):
    """run_campaign reads a numpy integer seed as the int it holds and refuses
    any other seed that is not a non-negative int, at every trial count; run
    in a child process under a timeout and a memory cap, so a seed conversion
    that loops fails."""
    counts = [0, 3, TRIAL_BLOCK_ROWS + 8]
    src = os.path.dirname(os.path.dirname(ecc_sim.__file__))
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}
    child = subprocess.run(
        [sys.executable, "-c", _SEED_CHILD, text, *map(str, counts)],
        capture_output=True, timeout=60, env=env, preexec_fn=_limit_memory, check=True,
    )
    refusals = {
        "-1": ValueError("seed must be non-negative, got -1"),
        "1.5": TypeError("seed must be an integer, got 1.5"),
        "None": TypeError("seed must be an integer, got null"),
        "True": TypeError("seed must be an integer, got true"),
        "'3'": TypeError("seed must be an integer, got a string"),
    }
    for trials, got in zip(counts, pickle.loads(child.stdout), strict=True):
        if text in refusals:
            want = refusals[text]
            assert type(got) is type(want) and str(got) == str(want), (trials, got)
        else:
            assert got == _ref_stats(code8, "depolarizing:0.1", trials, 3, trial=_lone_trial), trials
            assert type(got.seed) is int and json.loads(got.to_json())["seed"] == 3, trials


@pytest.mark.parametrize(
    "seed, trials, error, message",
    [
        (True, 3, TypeError, "seed must be an integer, got true"),
        (-1, 0, ValueError, "seed must be non-negative, got -1"),
        (0, True, TypeError, "trials must be an integer, got true"),
        (0, 2.0, TypeError, "trials must be an integer, got 2.0"),
        (0, "3", TypeError, "trials must be an integer, got a string"),
        (0, -1, ValueError, f"trials must lie in [0, {sys.maxsize}], got -1"),
    ],
)
def test_campaign_refuses_a_bad_seed_or_trial_count_before_building_a_simulator(seed, trials, error, message):
    # code=None would fail in Simulator, so each refusal comes first
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        run_campaign(None, "depolarizing:0.1", trials, seed)


@pytest.mark.parametrize(
    "trials, seed, message",
    [
        (1, -(10**5000), "seed must be non-negative, got a negative integer of 5001 digits"),
        (10**5000, 0, f"trials must lie in [0, {sys.maxsize}], got an integer of 5001 digits"),
    ],
    ids=["seed", "trials"],
)
def test_campaign_names_an_integer_too_long_for_str(code8, trials, seed, message):
    # str() refuses more than 4,300 digits, so the digit count must come without it
    with pytest.raises(ValueError) as bad:
        run_campaign(code8, "depolarizing:0.1", trials, seed)
    assert str(bad.value) == message


def test_numpy_integer_trial_count_is_an_int(code8):
    stats = run_campaign(code8, "depolarizing:0.1", np.int64(5), 0)
    assert stats == run_campaign(code8, "depolarizing:0.1", 5, 0) and type(stats.trials) is int
