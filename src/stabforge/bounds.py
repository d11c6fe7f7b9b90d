"""Quantum Hamming bound, its asymptotic rate form, and the degenerate-code
bound for t=1.  All bound decisions use exact integer arithmetic; the return
value -1 means no code exists even at k=0."""

from __future__ import annotations

import math
from collections.abc import Iterator


def hamming_terms(n: int, t: int) -> Iterator[int]:
    """Number of Pauli errors of each weight l = 0..min(t, n) on n qubits:
    3^l C(n,l).  No error has weight above n, so larger t adds nothing."""
    if t < 0:
        raise ValueError(f"t must be non-negative, got {t}")
    return (3**ell * math.comb(n, ell) for ell in range(min(t, n) + 1))


def hamming_sum(n: int, t: int) -> int:
    """Number of Pauli errors of weight <= t on n qubits: sum 3^l C(n,l)."""
    return sum(hamming_terms(n, t))


def qhb_max_k(n: int, t: int) -> int:
    """Largest k with 2^k * hamming_sum(n, t) <= 2^n, or -1 if none."""
    return _max_k_satisfying(hamming_sum(n, t), n)


def qhb_table(max_n: int, t: int) -> list[tuple[int, int]]:
    """(n, max k) rows for n = 1..max_n."""
    if max_n < 1:
        raise ValueError("max_n must be at least 1")
    return [(n, qhb_max_k(n, t)) for n in range(1, max_n + 1)]


def rate_bound(t_over_n) -> float:
    """Asymptotic rate limit 1 - x*log2(3) - H(x) for x = t/n in [0, 1/2)."""
    x = float(t_over_n)
    if not 0 <= x < 0.5:
        raise ValueError(f"t/n must lie in [0, 1/2), got {x}")
    if x == 0.0:
        return 1.0
    h = -x * math.log2(x) - (1 - x) * math.log2(1 - x)
    return 1.0 - x * math.log2(3) - h


def _max_k_satisfying(factor: int, m: int) -> int:
    """Largest k >= 0 with factor * 2^k <= 2^m, or -1 if none.

    That is k = m - ceil(log2 factor), read off factor's bit length, so no
    2^m-sized integer is built.
    """
    k = m - (factor - 1).bit_length()
    return k if k >= 0 else -1


def degenerate_max_k(n: int, l: int) -> int:
    """Bound on k for a 1-error code with l one-qubit degeneracy conditions.

    Cases: l=0 reduces to the quantum Hamming bound; l=n-1 forces k=0;
    for l <= n/2 the counting bound [1+3(n-2l)]*2^k <= 2^{n-l} applies, and
    for 0 < l < n-1 the pairwise refinement k <= n-l-2 also applies; the
    minimum of the applicable bounds is returned.
    """
    if not 0 <= l <= n - 1:
        raise ValueError(f"l must lie in [0, {n - 1}], got {l}")
    if l == 0:
        return qhb_max_k(n, 1)
    if l == n - 1:
        return 0
    bounds = [n - l - 2]
    if 2 * l <= n:
        bounds.append(_max_k_satisfying(1 + 3 * (n - 2 * l), n - l))
    return min(bounds)


def degenerate_never_beats_qhb(n: int) -> tuple[bool, int]:
    """Whether max_l degenerate_max_k(n, l) <= qhb_max_k(n, 1), with the
    maximizing l as witness."""
    if n < 2:
        raise ValueError("n must be at least 2")
    best_l = max(range(n), key=lambda l: degenerate_max_k(n, l))
    return degenerate_max_k(n, best_l) <= qhb_max_k(n, 1), best_l
