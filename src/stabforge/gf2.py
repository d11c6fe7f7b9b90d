"""GF(2) linear algebra on int bitsets (bit k of a row = column k)."""

from __future__ import annotations

import numpy as np


def bits(v: int, n: int) -> np.ndarray:
    """The low n bits of v as a uint8 array, bit k at index k."""
    raw = np.frombuffer(v.to_bytes((n + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(raw, bitorder="little", count=n)


def nullspace_rref(constraints, n_cols: int):
    """Nullspace basis of a constraint system, one vector v_c per free column c.

    Constraints are echelonized with the *lowest* set bit as pivot and fully
    reduced, so v_c = e_c + (pivot corrections) has c as its highest set bit
    and no other free column.  Hence the coordinates of a kernel vector in
    this basis are its bits on the free columns, and its highest bit is the
    highest free column among them.  Yields (c, v_c) in ascending c.
    """
    pivot_rows: dict[int, int] = {}
    for row in constraints:
        r = row
        while r:
            low = (r & -r).bit_length() - 1
            if low in pivot_rows:
                r ^= pivot_rows[low]
            else:
                pivot_rows[low] = r
                break
    # full reduction: clear every pivot bit from the other rows
    for low in sorted(pivot_rows):
        for other in pivot_rows:
            if other != low and (pivot_rows[other] >> low) & 1:
                pivot_rows[other] ^= pivot_rows[low]
    # column c's correction sets bit `low` of every pivot row with a 1 in column c
    correction = [0] * n_cols
    for low, row in pivot_rows.items():
        bit = 1 << low
        for c in np.flatnonzero(bits(row, n_cols)).tolist():
            correction[c] |= bit
    for c in range(n_cols):
        if c not in pivot_rows:
            yield c, (1 << c) | correction[c]
