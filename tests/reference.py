"""Reference implementations the tests compare the library against.

They are written for clarity, not speed: a Pauli as its explicit 2^n x 2^n
Kronecker matrix, a Pauli acting on a formal state term by term, pure-X
operators as a PureXList, read qubit by qubit, and the exact success rate
of table decoding under depolarizing noise from a weight enumerator.
"""

from collections import Counter

import numpy as np

from stabforge.codewords import FormalState
from stabforge.oracle import MAX_QUBITS, TooManyQubitsError
from stabforge.pauli import PauliOperator, PureXList, letter, pure_xs
from stabforge.stabilizer import enumerate_elements

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


def stabilizer_weights(group) -> dict[int, int]:
    """The weight enumerator {w: A_w} of the 2^a elements of group, by a
    Gray-code walk: step m multiplies in the generator at m's lowest set
    bit, one XOR of its bits, so no element is held but the current one."""
    x = z = 0
    counts = Counter([0])  # the identity
    for m in range(1, 1 << group.a):
        g = group.generators[(m & -m).bit_length() - 1]
        x, z = x ^ g.x_bits, z ^ g.z_bits
        counts[(x | z).bit_count()] += 1
    return dict(sorted(counts.items()))


def depolarizing_success(n: int, weights: dict[int, int], p: float) -> float:
    """Exact success rate of weight <= 1 table decoding under depolarizing:p.

    Decoding succeeds exactly when the error is C g, up to phase, for the
    table's correction C and some g in S; distinct corrections have
    distinct syndromes, so these cosets are disjoint.  For g of weight w,
    C = I gives weight w, a letter on one of the w qubits of g gives
    weight w - 1 (the same letter) or w (the two others), and one of the 3
    letters on one of the n - w others gives weight w + 1.  An error of
    weight w has probability P_w = (p/3)^w (1 - p)^(n - w).
    """
    prob = [(p / 3) ** w * (1 - p) ** (n - w) for w in range(n + 1)] + [0.0]  # prob[-1] = prob[n + 1] = 0
    return sum(
        a * (prob[w] + w * (prob[w - 1] + 2 * prob[w]) + 3 * (n - w) * prob[w + 1]) for w, a in weights.items()
    )


def depolarizing_syndrome_distribution(group, p: float) -> list[float]:
    """Exact P(s) of each syndrome value s of group under depolarizing:p.

    Let g_c be the product of the generators whose syndrome bits are set in
    c.  An error anticommutes with g_c exactly when s.c is odd, and each
    qubit of g_c's support flips that parity with probability 2p/3, so
    E[(-1)^(s.c)] = (1 - 4p/3)^wt(g_c), and P(s) is the inverse transform
    2^-a sum_c (-1)^(s.c) (1 - 4p/3)^wt(g_c).
    """
    a, chars = group.a, {}
    for e, g in enumerate(enumerate_elements(group)):  # bit j of e: generator j, syndrome bit a - 1 - j
        c = sum(1 << (a - 1 - j) for j in range(a) if e >> j & 1)
        chars[c] = (1 - 4 * p / 3) ** (g.x_bits | g.z_bits).bit_count()
    return [sum(-x if (s & c).bit_count() % 2 else x for c, x in chars.items()) / 2**a for s in range(1 << a)]
