"""Dense state-vector ground truth for small codes (n <= 12).

Everything here is independent of the bit-level algebra: states are 2^n
complex amplitude vectors, operators act by explicit linear algebra, and
code claims are checked with Gram matrices and numerical rank.  Amplitude
index = basis label as an int (qubit i at bit i-1).

verify_code works in real arithmetic (the code basis and every Pauli are
real under Y = XZ).  Its errors are one int64 (x, z) table in iter_errors
order, with syndromes taken as parities against the generators, and their
images fill v by one gather per about GRAM_BLOCK_ROWS rows.  The rank is
the count of eigenvalues sigma^2 > ATOL of the smaller real Gram matrix,
v v^T or v^T v.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .codewords import FormalState, basis as codeword_basis
from .pauli import PauliOperator, _integer
from .stabilizer import _descriptors, materialize, validate

MAX_QUBITS = 12
ATOL = 1e-10
GRAM_BLOCK_ROWS = 64


class TooManyQubitsError(ValueError):
    pass


def _check_n(n: int) -> None:
    if n > MAX_QUBITS:
        raise TooManyQubitsError(f"dense oracle is capped at {MAX_QUBITS} qubits, got {n}")


@dataclass(frozen=True)
class StateVector:
    """Immutable dense state; the norm is reported, never silently enforced."""

    n: int
    amplitudes: np.ndarray

    def __post_init__(self):
        _check_n(self.n)
        amps = np.asarray(self.amplitudes, dtype=np.complex128)
        if amps.shape != (1 << self.n,):
            raise ValueError(f"expected {1 << self.n} amplitudes, got shape {amps.shape}")
        amps = amps.copy()
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


def dense_from_formal(state: FormalState) -> StateVector:
    """Unit-normalized dense vector of a formal state; zero stays zero."""
    _check_n(state.n)
    amps = np.zeros(1 << state.n, dtype=np.complex128)
    for label, coeff in state.terms.items():
        amps[label] = coeff
    nrm = np.linalg.norm(amps)
    if nrm > 0:
        amps /= nrm
    return StateVector(state.n, amps)


def _parity_signs(n: int) -> np.ndarray:
    """(-1)^popcount(label) for labels 0 .. 2^n - 1: setting the top bit of
    a label flips its parity, so each qubit doubles the table."""
    signs = np.ones(1)
    for _ in range(n):
        signs = np.concatenate((signs, -signs))
    return signs


_PARITY_SIGNS = _parity_signs(MAX_QUBITS)


def pauli_action(n: int, x_bits, z_bits, sign=1) -> tuple[np.ndarray, np.ndarray]:
    """Gather form of a Pauli on n qubits: op|v> = coef * v[perm].

    Label j receives the amplitude of j ^ x_bits, times sign and -1 for
    each Z-component on a set bit of j ^ x_bits.  Integer arrays of shape
    (m, 1) in place of ints give m rows; coef is real float64 +-1.
    """
    _check_n(n)
    perm = np.arange(1 << n, dtype=np.int64) ^ x_bits
    return perm, sign * _PARITY_SIGNS[perm & z_bits]


def apply_pauli(op: PauliOperator, v: StateVector) -> StateVector:
    """Exact action: label -> label ^ x_bits with sign from the Z-components."""
    if op.n != v.n:
        raise ValueError("qubit count mismatch")
    perm, coef = pauli_action(v.n, op.x_bits, op.z_bits, op.sign)
    return StateVector(v.n, coef * v.amplitudes[perm])


def apply_single_qubit(matrix, i: int, v: StateVector) -> StateVector:
    """Apply an arbitrary 2x2 complex matrix (not necessarily unitary) to qubit i."""
    m = np.asarray(matrix, dtype=np.complex128)
    if m.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {m.shape}")
    if not 1 <= i <= v.n:
        raise ValueError(f"qubit index {i} out of range 1..{v.n}")
    return StateVector(v.n, single_qubit_product(m, i, v.amplitudes))


def single_qubit_product(m: np.ndarray, i: int, amps: np.ndarray) -> np.ndarray:
    """The 2x2 complex matrix m on qubit i of every row of amps (..., 2^n)."""
    cube = amps.reshape(-1, 2, 1 << (i - 1))
    return np.einsum("ab,xbz->xaz", m, cube).reshape(amps.shape)


def gram(states: Sequence[StateVector]) -> np.ndarray:
    """Conjugate-symmetric matrix of inner products <psi_i | psi_j>."""
    if not states:
        return np.zeros((0, 0), dtype=np.complex128)
    n = states[0].n
    if any(s.n != n for s in states):
        raise ValueError("states act on different qubit counts")
    v = np.stack([s.amplitudes for s in states])
    return v.conj() @ v.T


@dataclass(frozen=True)
class VerificationReport:
    ok: bool
    num_vectors: int
    rank: int
    dimension: int
    stabilization_ok: bool
    orthogonality_ok: bool
    rank_ok: bool
    witness: tuple | None = None

    def __str__(self) -> str:
        status = "pass" if self.ok else "FAIL"
        lines = [
            f"oracle verification: {status}",
            f"  stabilization: {'ok' if self.stabilization_ok else 'FAIL'}",
            f"  orthogonality: {'ok' if self.orthogonality_ok else 'FAIL'}",
            f"  rank: {self.rank}/{self.num_vectors} in dimension {self.dimension}"
            f" ({'ok' if self.rank_ok else 'FAIL'})",
        ]
        if self.witness is not None:
            e, i, e2, i2 = self.witness
            lines.append(f"  witness: <{e} psi_{i} | {e2} psi_{i2}> != 0")
        return "\n".join(lines)


def verify_code(code, t: int) -> VerificationReport:
    """Exhaustive dense check of a code against all errors of weight <= t.

    Builds the 2^k basis vectors and verifies that (i) every generator fixes
    every basis vector, (ii) error images are orthogonal whenever syndromes
    or logical indices differ, and (iii) the whole image collection has full
    numerical rank.

    The arithmetic is real: Y = XZ is a real matrix, Pauli signs are +-1 and
    formal-state terms are integers, so the basis amplitudes and the +-1
    signs of each gather (pauli_action's, with no PauliOperator per error)
    are float64.  The rank is the count of eigenvalues sigma^2 > ATOL of the
    smaller of the two Gram matrices v v^T and v^T v of the image matrix v.
    For a valid code v^T v is the sum over syndromes s of m_s P_s, with P_s
    the projector onto the syndrome-s space and m_s the number of errors
    with syndrome s, so every eigenvalue is a nonnegative integer.
    """
    t = _integer(t, "t")
    if t < 0:
        raise ValueError("t must be non-negative")
    n = code.n
    _check_n(n)
    group = validate(n, code.generators)
    states = np.stack(
        [dense_from_formal(s).amplitudes.real for s in codeword_basis(group, code.seed_generators)]
    )
    count = len(states)

    def images(x: np.ndarray, z: np.ndarray):
        """(first, block): +1 Paulis (x, z)[first:] on each basis state, about GRAM_BLOCK_ROWS rows."""
        per = max(1, GRAM_BLOCK_ROWS // count)
        for first in range(0, len(x), per):
            perm, coef = pauli_action(n, x[first : first + per, None], z[first : first + per, None])
            yield first, (np.take(states, perm, axis=1) * coef).swapaxes(0, 1)

    gens = group.generators
    gx, gz, gsign = np.array([(g.x_bits, g.z_bits, g.sign) for g in gens], dtype=np.int64).reshape(-1, 3).T
    stab_ok = all(np.allclose(b, gsign[i : i + len(b), None, None] * states, atol=ATOL) for i, b in images(gx, gz))

    # the error table, in iter_errors order; each error is +1, as its letters sit on distinct qubits
    descs = list(_descriptors(n, 0, t))
    ex = np.array([sum(1 << (i - 1) for i, L in d if L in "XY") for d in descs], dtype=np.int64)
    ez = np.array([sum(1 << (i - 1) for i, L in d if L in "YZ") for d in descs], dtype=np.int64)
    # syndrome bit r is set iff the error anticommutes with M_r; M_1 is the high bit
    anti = np.bitwise_count((ex & gz[:, None]) ^ (ez & gx[:, None])).astype(np.int64) & 1
    svals = np.repeat((anti << np.arange(len(gens) - 1, -1, -1)[:, None]).sum(axis=0), count)
    # rows error-major, then basis state: row r is error r // count on psi_(r % count)
    v = np.empty((len(descs), count, 1 << n))
    for first, block in images(ex, ez):
        v[first : first + len(block)] = block
    v = v.reshape(-1, 1 << n)
    lidx = np.tile(np.arange(count), len(descs))

    num = len(v)
    # Gram matrix in row blocks, so peak memory stays O(block * num); the
    # scan stops at the block holding the first row-major violation
    witness = None
    for start in range(0, num, GRAM_BLOCK_ROWS):
        rows = slice(start, start + GRAM_BLOCK_ROWS)
        g = v[rows] @ v.T
        must_vanish = (svals[rows, None] != svals[None, :]) | (lidx[rows, None] != lidx[None, :])
        violations = must_vanish & (np.abs(g) > ATOL)
        if violations.any():
            row, col = map(int, np.argwhere(violations)[0])
            (e_r, i_r), (e_c, i_c) = divmod(start + row, count), divmod(col, count)
            witness = (str(materialize(n, descs[e_r])), i_r, str(materialize(n, descs[e_c])), i_c)
            break
    orth_ok = witness is None

    # v v^T and v^T v share their nonzero eigenvalues; take the smaller one
    small_gram = v @ v.T if num <= v.shape[1] else v.T @ v
    rank = int(np.count_nonzero(np.linalg.eigvalsh(small_gram) > ATOL))
    rank_ok = rank == num
    return VerificationReport(
        ok=stab_ok and orth_ok and rank_ok,
        num_vectors=num,
        rank=rank,
        dimension=1 << n,
        stabilization_ok=stab_ok,
        orthogonality_ok=orth_ok,
        rank_ok=rank_ok,
        witness=witness,
    )
