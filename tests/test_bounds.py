import math

import pytest

import table_data
from stabforge.bounds import (
    degenerate_max_k,
    degenerate_never_beats_qhb,
    hamming_sum,
    qhb_max_k,
    qhb_table,
    rate_bound,
)


def test_qhb_examples():
    assert qhb_max_k(8, 1) == 3
    assert qhb_max_k(5, 1) == 1
    assert qhb_max_k(13, 1) == 7


def test_qhb_sentinel():
    assert qhb_max_k(2, 1) == -1
    assert qhb_max_k(4, 1) == 0  # k=0 allowed, distinct from the sentinel


def test_qhb_exactness():
    # the returned k satisfies the bound and k+1 does not
    for n in range(4, 40):
        k = qhb_max_k(n, 1)
        s = hamming_sum(n, 1)
        assert (1 << k) * s <= (1 << n)
        assert (1 << (k + 1)) * s > (1 << n)


def test_qhb_table_golden():
    rows = dict(qhb_table(13, 1))
    for n, k in table_data.MAX_K_BY_N.items():
        assert rows[n] == k


def test_qhb_table_family_points():
    rows = dict(qhb_table(1 << 5, 1))
    for j in (3, 4, 5):
        assert rows[1 << j] == (1 << j) - j - 2


def test_qhb_t0():
    assert all(k == n for n, k in qhb_table(20, 0))


def test_qhb_table_rejects():
    with pytest.raises(ValueError):
        qhb_table(0, 1)


def test_rate_bound_endpoints():
    assert rate_bound(0) == 1.0
    with pytest.raises(ValueError):
        rate_bound(0.5)
    with pytest.raises(ValueError):
        rate_bound(-0.01)


def test_rate_bound_eighth():
    x = 1 / 8
    h = -x * math.log2(x) - (1 - x) * math.log2(1 - x)
    expected = 1 - x * math.log2(3) - h
    assert rate_bound(x) == pytest.approx(expected, abs=1e-12)
    assert rate_bound(x) == pytest.approx(0.2581, abs=5e-4)


def test_rate_bound_matches_exact_count():
    # finite-n cross-check: k/n from the exact bound at n=1024, t=128
    k = qhb_max_k(1024, 128)
    assert abs(k / 1024 - rate_bound(1 / 8)) < 0.02


def test_rate_bound_monotone_on_prefix():
    xs = [i / 100 for i in range(11)]
    vals = [rate_bound(x) for x in xs]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_degenerate_examples():
    assert degenerate_max_k(6, 2) == 1
    assert degenerate_max_k(4, 1) == 0
    assert degenerate_max_k(8, 0) == 3


def test_degenerate_l0_matches_qhb():
    for n in range(2, 65):
        assert degenerate_max_k(n, 0) == qhb_max_k(n, 1)


def test_degenerate_terminal_case():
    for n in range(2, 30):
        assert degenerate_max_k(n, n - 1) == 0


def test_degenerate_range_check():
    with pytest.raises(ValueError):
        degenerate_max_k(6, 6)
    with pytest.raises(ValueError):
        degenerate_max_k(6, -1)


def test_degenerate_never_beats_qhb_sweep():
    for n in range(4, 65):
        holds, witness = degenerate_never_beats_qhb(n)
        assert holds, f"bound beaten at n={n}, l={witness}"
        assert 0 <= witness <= n - 1


def test_degenerate_never_beats_examples():
    assert degenerate_never_beats_qhb(6)[0]
    assert degenerate_never_beats_qhb(13)[0]
    with pytest.raises(ValueError, match="^n must be at least 2$"):
        degenerate_never_beats_qhb(1)


def test_hamming_sum_stops_at_weight_n():
    # no error has weight above n, so every t >= n counts all 4^n errors
    for n in range(1, 12):
        assert hamming_sum(n, n) == 4**n
        assert hamming_sum(n, n + 1) == hamming_sum(n, 10**30) == 4**n
    assert qhb_max_k(13, 20000) == qhb_max_k(13, 13) == -1
    assert qhb_table(5, 10**30) == qhb_table(5, 5)


@pytest.mark.parametrize("call", [hamming_sum, qhb_max_k, qhb_table])
def test_negative_t_rejected(call):
    with pytest.raises(ValueError, match="t must be non-negative"):
        call(5, -1)
