"""Reference implementations the tests compare the library against.

They are written for clarity, not speed: a Pauli as its explicit 2^n x 2^n
Kronecker matrix, a Pauli acting on a formal state term by term, and
pure-X operators as a PureXList, read qubit by qubit.
"""

import numpy as np

from stabforge.codewords import FormalState
from stabforge.oracle import MAX_QUBITS, TooManyQubitsError
from stabforge.pauli import PauliOperator, PureXList, letter, pure_xs

# the real single-qubit basis matrices; Y = X @ Z
MAT_I = np.array([[1.0, 0.0], [0.0, 1.0]])
MAT_X = np.array([[0.0, 1.0], [1.0, 0.0]])
MAT_Y = np.array([[0.0, -1.0], [1.0, 0.0]])
MAT_Z = np.array([[1.0, 0.0], [0.0, -1.0]])
LETTER_MATRICES = {"I": MAT_I, "X": MAT_X, "Y": MAT_Y, "Z": MAT_Z}


def pauli_matrix(op: PauliOperator) -> np.ndarray:
    """Dense 2^n x 2^n matrix of op (Kronecker product, qubit n first)."""
    if op.n > MAX_QUBITS:
        raise TooManyQubitsError(f"dense matrices are capped at {MAX_QUBITS} qubits, got {op.n}")
    m = np.array([[1.0]])
    for i in range(op.n, 0, -1):
        m = np.kron(m, LETTER_MATRICES[letter(op, i)])
    return op.sign * m


def apply_pauli_formal(op: PauliOperator, state: FormalState) -> FormalState:
    """Exact action of a Pauli on a formal state (label permutation with signs)."""
    if op.n != state.n:
        raise ValueError("qubit count mismatch")
    out: dict[int, int] = {}
    for label, coeff in state.terms.items():
        phase = -1 if (op.z_bits & label).bit_count() % 2 else 1
        out[label ^ op.x_bits] = coeff * op.sign * phase
    return FormalState(state.n, out)


def seed_list(n: int, ops) -> PureXList:
    """ops, +1 pure-X operators on n qubits (dense or PureX), as one PureXList."""
    assert all(op.n == n and not op.z_bits and op.sign == 1 for op in ops), "not +1 pure-X operators on n qubits"
    # bit q - 1 of x_bits is qubit q, so the reversed binary digits list qubit 1 first
    return pure_xs(n, [[q for q, bit in enumerate(reversed(f"{op.x_bits:b}"), 1) if bit == "1"] for op in ops])
