import numpy as np
import pytest

from stabforge import codewords, oracle
from stabforge.codewords import FormalState, basis
from stabforge.oracle import (
    StateVector,
    TooManyQubitsError,
    apply_pauli,
    apply_single_qubit,
    basis_state,
    dense_from_formal,
    gram,
    pauli_matrix,
    verify_code,
)
from stabforge.pauli import PauliOperator, parse, single
from stabforge.stabilizer import validate


def random_op(rng, n):
    return PauliOperator(
        n, int(rng.integers(0, 1 << n)), int(rng.integers(0, 1 << n)), int(rng.choice([1, -1]))
    )


@pytest.fixture(scope="module")
def dense_basis(code8, group8):
    return [dense_from_formal(s) for s in basis(group8, code8.seed_generators)]


def test_dense_from_formal_table3(code8, group8, dense_basis):
    psi0 = dense_basis[0]
    nonzero = np.flatnonzero(psi0.amplitudes)
    assert len(nonzero) == 16
    assert np.allclose(np.abs(psi0.amplitudes[nonzero]), 0.25)
    assert psi0.norm() == pytest.approx(1.0)


def test_dense_from_formal_simple():
    e0 = dense_from_formal(FormalState(2, {0: 1}))
    assert np.array_equal(e0.amplitudes, basis_state(2, 0).amplitudes)
    zero = dense_from_formal(FormalState(2, {}))
    assert zero.norm() == 0.0


def test_dense_cap():
    with pytest.raises(TooManyQubitsError):
        dense_from_formal(FormalState(13, {0: 1}))


def test_apply_single_qubit_y_column():
    # Y|0> = |1> for the real Y matrix
    out = apply_single_qubit([[0, -1], [1, 0]], 1, basis_state(1, 0))
    assert np.allclose(out.amplitudes, basis_state(1, 1).amplitudes)
    out = apply_single_qubit([[0, -1], [1, 0]], 1, basis_state(1, 1))
    assert np.allclose(out.amplitudes, -basis_state(1, 0).amplitudes)


def test_apply_single_qubit_projector_idempotent(rng):
    proj = [[1, 0], [0, 0]]
    v = StateVector(3, rng.standard_normal(8) + 1j * rng.standard_normal(8))
    once = apply_single_qubit(proj, 2, v)
    twice = apply_single_qubit(proj, 2, once)
    assert np.allclose(once.amplitudes, twice.amplitudes)


def test_apply_pauli_matches_matrix(rng):
    for _ in range(200):
        n = int(rng.integers(1, 4))
        op = random_op(rng, n)
        v = StateVector(n, rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n))
        direct = apply_pauli(op, v).amplitudes
        via_matrix = pauli_matrix(op) @ v.amplitudes
        assert np.allclose(direct, via_matrix, atol=1e-12)


def test_apply_pauli_matches_single_qubit_composition(rng):
    from stabforge.oracle import LETTER_MATRICES
    from stabforge.pauli import letter

    for _ in range(100):
        n = int(rng.integers(1, 5))
        op = random_op(rng, n)
        v = StateVector(n, rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n))
        composed = v
        for i in range(1, n + 1):
            composed = apply_single_qubit(LETTER_MATRICES[letter(op, i)], i, composed)
        scaled = op.sign * composed.amplitudes
        assert np.allclose(apply_pauli(op, v).amplitudes, scaled, atol=1e-12)


def test_stabilization_dense(code8, group8, dense_basis):
    for g in group8.generators:
        for v in dense_basis:
            assert np.allclose(apply_pauli(g, v).amplitudes, v.amplitudes, atol=1e-12)


def test_gram_identity_for_basis(dense_basis):
    g = gram(dense_basis)
    assert np.allclose(g, np.eye(8), atol=1e-12)


def test_gram_duplicates_and_negation(dense_basis):
    v = dense_basis[0]
    neg = StateVector(v.n, -v.amplitudes)
    g = gram([v, v, neg])
    assert g[0, 1] == pytest.approx(1.0)
    assert g[0, 2] == pytest.approx(-1.0)
    assert np.allclose(g, g.conj().T)


def test_verify_code_t1(code8):
    report = verify_code(code8, 1)
    assert report.ok
    assert report.num_vectors == 200
    assert report.rank == 200
    assert report.dimension == 256


def test_verify_code_t2_fails(code8):
    report = verify_code(code8, 2)
    assert not report.ok
    assert not report.orthogonality_ok or not report.rank_ok
    assert report.witness is not None
    e, i, e2, i2 = report.witness
    assert parse(e).n == 8 and parse(e2).n == 8


@pytest.mark.parametrize("t", [1, 2])
def test_verify_code_blocked_gram_matches_one_block(code8, monkeypatch, t):
    # one block is the whole Gram matrix; the first witness is row-major
    monkeypatch.setattr(oracle, "GRAM_BLOCK_ROWS", 1 << 20)
    whole = verify_code(code8, t)
    for block in (1, 7, 256):
        monkeypatch.setattr(oracle, "GRAM_BLOCK_ROWS", block)
        assert verify_code(code8, t) == whole


def test_verify_trivial_code():
    from stabforge.family import CodeSpec

    code = CodeSpec(n=1, k=0, j=0, generators=(parse("Z"),), seed_generators=())
    report = verify_code(code, 0)
    assert report.ok
    assert report.num_vectors == 1


def test_eigenspace_dimension(group8):
    # the joint +1 eigenspace of the generators has dimension 2^{n-a} = 8
    proj = np.eye(256)
    for g in group8.generators:
        proj = proj @ (np.eye(256) + pauli_matrix(g)) / 2.0
    assert np.trace(proj) == pytest.approx(8.0, abs=1e-9)
