import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from reference import LETTER_MATRICES, pauli_matrix
from strategies import random_op, valid_groups
from stabforge import bounds, codewords, oracle, stabilizer
from stabforge.family import CodeSpec
from stabforge.codewords import FormalState, basis
from stabforge.oracle import (
    StateVector,
    TooManyQubitsError,
    apply_pauli,
    apply_single_qubit,
    dense_from_formal,
    gram,
    verify_code,
)
from stabforge.pauli import parse, pure_xs, single
from stabforge.stabilizer import iter_errors, materialize, syndrome, validate


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
    assert np.array_equal(e0.amplitudes, np.eye(4)[0])
    zero = dense_from_formal(FormalState(2, {}))
    assert zero.norm() == 0.0


def test_dense_cap():
    with pytest.raises(TooManyQubitsError):
        dense_from_formal(FormalState(13, {0: 1}))


def test_apply_single_qubit_y_column():
    # Y|0> = |1> for the real Y matrix
    ket0, ket1 = (StateVector(1, np.eye(2)[label]) for label in (0, 1))
    out = apply_single_qubit([[0, -1], [1, 0]], 1, ket0)
    assert np.allclose(out.amplitudes, ket1.amplitudes)
    out = apply_single_qubit([[0, -1], [1, 0]], 1, ket1)
    assert np.allclose(out.amplitudes, -ket0.amplitudes)


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


@pytest.mark.parametrize("n", range(1, 7))
def test_batched_pauli_action_is_single_calls_and_matrices(rng, n):
    ops = [random_op(rng, n) for _ in range(24)]
    assert {op.sign for op in ops} == {1, -1}
    x, z, sign = np.array([(op.x_bits, op.z_bits, op.sign) for op in ops]).T[:, :, None]
    perm, coef = oracle.pauli_action(n, x, z, sign)
    assert perm.shape == coef.shape == (len(ops), 1 << n) and coef.dtype == np.float64
    v = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    for op, row_perm, row_coef in zip(ops, perm, coef):
        single_perm, single_coef = oracle.pauli_action(n, op.x_bits, op.z_bits, op.sign)
        assert np.array_equal(row_perm, single_perm) and np.array_equal(row_coef, single_coef)
        assert np.array_equal(row_coef * v[row_perm], pauli_matrix(op) @ v)
    empty = np.zeros((0, 1), np.int64)
    perm, coef = oracle.pauli_action(n, empty, empty, empty)
    assert perm.shape == coef.shape == (0, 1 << n)
    with pytest.raises(TooManyQubitsError):
        oracle.pauli_action(13, x, z, sign)


def test_apply_pauli_matches_single_qubit_composition(rng):
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
    assert gram([]).shape == (0, 0)


KET0 = StateVector(1, [1, 0])


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: StateVector(2, np.zeros(3)), r"^expected 4 amplitudes, got shape \(3,\)$"),
        (lambda: apply_pauli(parse("+XX"), KET0), "^qubit count mismatch$"),
        (lambda: apply_single_qubit(np.eye(3), 1, KET0), r"^expected a 2x2 matrix, got shape \(3, 3\)$"),
        (lambda: apply_single_qubit(np.eye(2), 2, KET0), r"^qubit index 2 out of range 1\.\.1$"),
        (lambda: gram([KET0, StateVector(2, np.eye(4)[0])]), "^states act on different qubit counts$"),
    ],
)
def test_dense_inputs_are_checked(call, message):
    with pytest.raises(ValueError, match=message):
        call()


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
    for block in (1, 7, 64, 256):
        monkeypatch.setattr(oracle, "GRAM_BLOCK_ROWS", block)
        assert verify_code(code8, t) == whole


def test_verify_code_t2_report_is_pinned(code8):
    report = verify_code(code8, 2)
    assert report.witness == ("+XIIIIIII", 0, "+IYIZIIII", 1)
    assert (report.rank, report.num_vectors, report.dimension) == (256, 2216, 256)
    assert not report.orthogonality_ok and not report.rank_ok
    assert str(report) == "\n".join(
        [
            "oracle verification: FAIL",
            "  stabilization: ok",
            "  orthogonality: FAIL",
            "  rank: 256/2216 in dimension 256 (FAIL)",
            "  witness: <+XIIIIIII psi_0 | +IYIZIIII psi_1> != 0",
        ]
    )


def test_verify_code_t3_report_is_pinned(code8):
    # past weight 2 the error table must still follow iter_errors order
    report = verify_code(code8, 3)
    assert (report.rank, report.num_vectors) == (256, 14312)
    assert str(report).splitlines()[-2:] == [
        "  rank: 256/14312 in dimension 256 (FAIL)",
        "  witness: <+IIIIIIII psi_0 | +YXZIIIII psi_1> != 0",
    ]


def test_verify_code_t2_memory_peak(code8):
    verify_code(code8, 2)  # first-call allocations are not the oracle's
    tracemalloc.start()
    try:
        verify_code(code8, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # v alone is 2216 x 256 float64, 4.33 MiB; the gathers add one block at a time
    assert peak <= 7.5 * 2**20


def test_verify_code_materializes_only_the_witness(code8, monkeypatch):
    calls = []

    def counting(n, desc):
        calls.append(desc)
        return materialize(n, desc)

    monkeypatch.setattr(oracle, "materialize", counting)
    monkeypatch.setattr(stabilizer, "materialize", counting)
    assert verify_code(code8, 2).witness is not None
    assert len(calls) <= 2


def reference_verify_code(code, t):
    """verify_code as it was before the images were batched and made real:
    one complex apply_pauli per (error, basis state) and the SVD rank of the
    image matrix, kept frozen as the reference."""
    group = validate(code.n, code.generators)
    states = [dense_from_formal(s) for s in basis(group, code.seed_generators)]
    stab_ok = all(
        np.allclose(apply_pauli(g, s).amplitudes, s.amplitudes, atol=oracle.ATOL)
        for g in group.generators
        for s in states
    )
    images = []
    meta = []
    for e in iter_errors(code.n, t):
        sval = syndrome(group, e).value
        for i, s in enumerate(states):
            images.append(apply_pauli(e, s).amplitudes)
            meta.append((e, sval, i))
    v = np.stack(images)
    num = len(images)
    svals = np.array([m[1] for m in meta])
    lidx = np.array([m[2] for m in meta])
    witness = None
    for start in range(0, num, oracle.GRAM_BLOCK_ROWS):
        rows = slice(start, start + oracle.GRAM_BLOCK_ROWS)
        g = v[rows].conj() @ v.T
        must_vanish = (svals[rows, None] != svals[None, :]) | (lidx[rows, None] != lidx[None, :])
        violations = must_vanish & (np.abs(g) > oracle.ATOL)
        if violations.any():
            row, col = map(int, np.argwhere(violations)[0])
            e_r, _, i_r = meta[start + row]
            e_c, _, i_c = meta[col]
            witness = (str(e_r), i_r, str(e_c), i_c)
            break
    orth_ok = witness is None
    rank = int(np.linalg.matrix_rank(v, tol=oracle.ATOL))
    rank_ok = rank == num
    return oracle.VerificationReport(
        ok=stab_ok and orth_ok and rank_ok,
        num_vectors=num,
        rank=rank,
        dimension=1 << code.n,
        stabilization_ok=stab_ok,
        orthogonality_ok=orth_ok,
        rank_ok=rank_ok,
        witness=witness,
    )


# k = 0 on 4 qubits: the rank is deficient in both Gram branches, v v^T at
# t = 1 (5 of 13 images in dimension 16) and v^T v at t = 2 (11 of 67)
Z4_CODE = CodeSpec(
    n=4, k=0, j=0, generators=tuple(parse(s) for s in "+ZIII,+IZII,+IIZI,+IIIZ".split(",")),
    seed_generators=pure_xs(4, []),
)
Z4_RANKS = {0: (1, 1), 1: (5, 13), 2: (11, 67)}


@pytest.mark.parametrize("t", [0, 1, 2])
def test_verify_code_matches_per_image_reference_on_family(code8, t):
    assert verify_code(code8, t) == reference_verify_code(code8, t)
    report = verify_code(Z4_CODE, t)
    assert report == reference_verify_code(Z4_CODE, t)
    assert (report.rank, report.num_vectors) == Z4_RANKS[t]


@pytest.mark.parametrize("rows", [1, 3, 8, 64, 4096])
def test_verify_code_gather_split_matches_shipped(code8, monkeypatch, rows):
    # GRAM_BLOCK_ROWS // 2^k errors per gather; at 1 or 3 rows each gather still takes one whole error
    cases = [(code, t) for code in (code8, Z4_CODE) for t in (0, 1, 2)]
    shipped = [verify_code(code, t) for code, t in cases]
    monkeypatch.setattr(oracle, "GRAM_BLOCK_ROWS", rows)
    assert [verify_code(code, t) for code, t in cases] == shipped


@settings(max_examples=40, deadline=None)
@given(valid_groups(), st.integers(0, 2))
def test_verify_code_matches_per_image_reference(group, t):
    try:
        seeds = codewords.seed_generators(group)
    except codewords.MinusSignPureZError:
        assume(False)
    k = group.n - group.a
    # keep the images to a few thousand rows, so the Gram matrix stays small
    while t and bounds.hamming_sum(group.n, t) << k > 4096:
        t -= 1
    code = CodeSpec(n=group.n, k=k, j=0, generators=group.generators, seed_generators=seeds)
    assert verify_code(code, t) == reference_verify_code(code, t)


@settings(max_examples=40, deadline=None)
@given(valid_groups(), st.integers(0, 2))
def test_dense_images_are_real_with_integer_gram_spectrum(group, t):
    # what verify_code's real arithmetic and eigenvalue rank rely on
    try:
        seeds = codewords.seed_generators(group)
    except codewords.MinusSignPureZError:
        assume(False)
    k = group.n - group.a
    while t and bounds.hamming_sum(group.n, t) << k > 4096:
        t -= 1
    states = np.stack([dense_from_formal(s).amplitudes for s in basis(group, seeds)])
    assert not states.imag.any()
    errors = list(iter_errors(group.n, t))
    actions = [
        oracle.pauli_action(group.n, op.x_bits, op.z_bits, op.sign) for op in (*group.generators, *errors)
    ]
    assert not any(coef.imag.any() for _, coef in actions)
    v = np.concatenate([coef * states[:, perm] for perm, coef in actions[group.a :]])
    small = v.conj() @ v.T if len(v) <= v.shape[1] else v.conj().T @ v
    eig = np.linalg.eigvalsh(small)
    assert np.allclose(eig, np.round(eig), rtol=0, atol=1e-9)


def test_verify_trivial_code():
    code = CodeSpec(n=1, k=0, j=0, generators=(parse("Z"),), seed_generators=pure_xs(1, []))
    report = verify_code(code, 0)
    assert report.ok
    assert report.num_vectors == 1


def test_verify_code_refuses_a_negative_t(code8):
    # the same error as check_correctability's
    for t in (-1, -5):
        with pytest.raises(ValueError, match="^t must be non-negative$"):
            verify_code(code8, t)


def test_verify_code_refuses_a_t_that_is_not_an_integer(code8):
    # the same error as check_correctability's, before any basis is built
    for t, name in ((1.5, "1.5"), (True, "true"), (None, "null")):
        with pytest.raises(TypeError, match=f"^t must be an integer, got {name}$"):
            verify_code(code8, t)


def test_eigenspace_dimension(group8):
    # the joint +1 eigenspace of the generators has dimension 2^{n-a} = 8
    proj = np.eye(256)
    for g in group8.generators:
        proj = proj @ (np.eye(256) + pauli_matrix(g)) / 2.0
    assert np.trace(proj) == pytest.approx(8.0, abs=1e-9)
