"""GF(2) linear algebra on int bitsets (bit k of a row = column k)."""

from __future__ import annotations

import numpy as np


def bits(v: int, n: int) -> np.ndarray:
    """The low n bits of v as a uint8 array, bit k at index k."""
    raw = np.frombuffer(v.to_bytes((n + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(raw, bitorder="little", count=n)


def nullspace_rref(constraints, n_cols: int, skip=()) -> tuple[np.ndarray, np.ndarray]:
    """Nullspace basis of a constraint system, one vector v_c per free column c.

    Constraints are echelonized with the *lowest* set bit as pivot and fully
    reduced, so v_c = e_c + (pivot corrections) has c as its highest set bit
    and no other free column.  Hence the coordinates of a kernel vector in
    this basis are its bits on the free columns, and its highest bit is the
    highest free column among them.  Returns, in ascending c and without
    the free columns in skip, each v_c's support numbered from 1 (the
    pivots whose reduced row has a 1 in column c, then c) as the arrays
    (ends, qubits) of a pauli.PureXList, from one np.nonzero over the
    pivot-row bits of the kept columns and a row of ones for c itself.
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
    lows = np.array(sorted(pivot_rows), dtype=np.int64)
    kept = np.ones(n_cols, dtype=bool)
    kept[lows] = False
    kept[np.array(skip, dtype=np.int64)] = False
    cols = np.flatnonzero(kept)
    # row r holds the r-th lowest pivot row's bits on the kept columns; the last, each column itself
    rows = np.ones((len(lows) + 1, len(cols)), dtype=np.uint8)
    for r, low in enumerate(lows.tolist()):
        rows[r] = bits(pivot_rows[low], n_cols)[cols]
    col, row = np.nonzero(rows.T)  # by column, then by row: ascending qubits
    qubits = np.where(row < len(lows), np.append(lows, 0)[row], cols[col]) + 1
    return np.cumsum(np.bincount(col, minlength=len(cols))), qubits
