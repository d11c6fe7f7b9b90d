"""GF(2) linear algebra on int bitsets (bit k of a row = column k)."""

from __future__ import annotations

import operator

import numpy as np


def bits(v: int, n: int) -> np.ndarray:
    """The low n bits of v as a uint8 array, bit k at index k."""
    raw = np.frombuffer(v.to_bytes((n + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(raw, bitorder="little", count=n)


def nullspace_rref(constraints, n_cols: int, skip=()) -> list[tuple[int, ...]]:
    """Nullspace basis of a constraint system, one vector v_c per free column c.

    Constraints are echelonized with the *lowest* set bit as pivot and fully
    reduced, so v_c = e_c + (pivot corrections) has c as its highest set bit
    and no other free column.  Hence the coordinates of a kernel vector in
    this basis are its bits on the free columns, and its highest bit is the
    highest free column among them.  Returns, in ascending c and without
    the free columns in skip, each v_c's support: its columns numbered from
    1, i.e. the pivots whose reduced row has a 1 in column c, then c.  Free
    columns with the same pattern of pivot-row bits share one tuple of
    pivots, numbered once; no vector is built as an int, and no Python loop
    visits the vectors one by one.
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
    # row r holds the bits of the r-th lowest pivot row on the kept columns
    rows = np.zeros((len(lows), len(cols)), dtype=np.uint8)
    for r, low in enumerate(lows.tolist()):
        rows[r] = bits(pivot_rows[low], n_cols)[cols]
    # each column's key: its rows packed into whole 64-bit words; np.unique
    # sorts a one-word key as an integer, several times faster than as void
    width = 8 * max(1, -(-len(lows) // 64))
    packed = np.zeros((len(cols), width), dtype=np.uint8)
    packed[:, : (len(lows) + 7) // 8] = np.packbits(rows, axis=0, bitorder="little").T
    keys, which = np.unique(packed.view("<u8" if width == 8 else f"V{width}").ravel(), return_inverse=True)
    masks = np.unpackbits(
        keys.view(np.uint8).reshape(len(keys), width), axis=1, count=len(lows), bitorder="little"
    )
    heads = [tuple((lows[mask.astype(bool)] + 1).tolist()) for mask in masks]
    # head + (c + 1,) for every kept column, concatenated in C
    return list(map(operator.add, map(heads.__getitem__, which.ravel().tolist()), zip((cols + 1).tolist())))
