import numpy as np
import pytest

from stabforge import ecc_sim
from stabforge.ecc_sim import (
    DegenerateSyndromesError,
    DepolarizingError,
    MatrixError,
    PauliError,
    Simulator,
    build_syndrome_table,
    measure_syndrome,
    parse_error_spec,
    run_campaign,
    run_trial,
    trial_rng,
)
from stabforge.oracle import StateVector, apply_pauli
from stabforge.pauli import identity, parse, single
from stabforge.stabilizer import Syndrome, syndrome


@pytest.fixture(scope="module")
def sim(code8):
    return Simulator(code8)


def test_table_size_and_entries(code8, group8):
    table = build_syndrome_table(code8, 1)
    assert len(table.entries) == 25
    assert str(table.correction(Syndrome.from_string("00000"))) == "+IIIIIIII"
    assert str(table.correction(Syndrome.from_string("11100"))) == "+IIYIIIII"  # Y_3
    assert table.correction(Syndrome.from_string("00111")) is None  # 00... is never a weight-1 syndrome


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


def test_run_trial_function(code8, rng):
    report = run_trial(code8, PauliError(single(8, 1, "Z")), rng, logical=0)
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
