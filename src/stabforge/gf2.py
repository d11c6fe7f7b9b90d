"""GF(2) linear algebra on int bitsets (bit k of a row = column k)."""

from __future__ import annotations

import numpy as np


def bits(values, n: int) -> np.ndarray:
    """The low n bits of each int in values (or of values, one int) as the
    rows of a uint8 array, bit k of row r at [r, k]."""
    values = (values,) if isinstance(values, int) else values
    width = (n + 7) // 8
    raw = np.frombuffer(b"".join(v.to_bytes(width, "little") for v in values), dtype=np.uint8)
    return np.unpackbits(raw.reshape(len(values), width), axis=1, count=n, bitorder="little")


def nullspace_rref(constraints, n_cols: int, skip=()) -> tuple[np.ndarray, np.ndarray]:
    """Nullspace basis of a constraint system, one vector v_c per free column c.

    Constraints are echelonized with the *lowest* set bit as pivot and fully
    reduced, so v_c = e_c + (pivot corrections) has c as its highest set bit
    and no other free column.  Hence the coordinates of a kernel vector in
    this basis are its bits on the free columns, and its highest bit is the
    highest free column among them.  Returns, in ascending c and without
    the free columns in skip, each v_c's support numbered from 1 (the
    pivots whose reduced row has a 1 in column c, then c) as the arrays
    (ends, qubits) of a pauli.PureXList.  Each support's size is its
    column's count of pivot-row bits plus one, so ``ends`` is their running
    sum, and one scatter per pivot row, lowest first, then one for the
    columns themselves, fill the supports in ascending qubit order.
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
    lows = sorted(pivot_rows)
    kept = np.ones(n_cols, dtype=bool)
    kept[np.array(lows, dtype=np.int64)] = False
    kept[np.array(skip, dtype=np.int64)] = False
    cols = np.flatnonzero(kept)
    # row r: the r-th lowest pivot row's bits on the kept columns
    rows = bits([pivot_rows[low] for low in lows], n_cols)[:, cols]
    sizes = rows.sum(axis=0, dtype=np.int64) + 1
    ends = np.cumsum(sizes)
    qubits = np.empty(ends[-1] if ends.size else 0, dtype=np.int64)
    at = ends - sizes  # where each support's next qubit goes
    for low, row in zip(lows, rows):
        qubits[at[row.view(bool)]] = low + 1
        at += row
    qubits[at] = cols + 1
    return ends, qubits
