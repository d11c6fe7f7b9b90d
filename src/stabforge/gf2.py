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
    highest free column among them.  Yields (c, support) in ascending c,
    where support is the ascending tuple of v_c's columns: the pivots whose
    reduced row has a 1 in column c, then c itself.  Free columns with the
    same pattern of pivot-row bits share one tuple of pivots, so no vector
    is built as an int.
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
    free = np.ones(n_cols, dtype=bool)
    free[lows] = False
    free_cols = np.flatnonzero(free)
    # row r holds the bits of the r-th lowest pivot row on the free columns;
    # one row at least, so that each column's packed key is a byte or more
    rows = np.zeros((max(len(lows), 1), len(free_cols)), dtype=np.uint8)
    for r, low in enumerate(lows.tolist()):
        rows[r] = bits(pivot_rows[low], n_cols)[free_cols]
    packed = np.ascontiguousarray(np.packbits(rows, axis=0, bitorder="little").T)
    width = packed.shape[1]
    keys, which = np.unique(packed.view(f"V{width}").ravel(), return_inverse=True)
    masks = np.unpackbits(
        keys.view(np.uint8).reshape(len(keys), width), axis=1, count=len(lows), bitorder="little"
    )
    heads = [tuple(lows[mask.astype(bool)].tolist()) for mask in masks]
    for c, h in zip(free_cols.tolist(), which.ravel().tolist()):
        yield c, heads[h] + (c,)
