import math

import pytest

from subblock import (Composition, DomainError, cscc_rate_lower_bound_bsc,
                      lsd_point, lsd_rate_bsc, q_function, qinv)


def test_qinv_examples():
    assert qinv(0.5) == 0.0
    assert abs(q_function(qinv(0.1)) - 0.1) <= 1e-12
    # root of the Gaussian tail at 1e-3, located independently by bisection
    lo, hi = 0.0, 10.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if q_function(mid) > 1e-3:
            lo = mid
        else:
            hi = mid
    assert abs(qinv(1e-3) - 0.5 * (lo + hi)) < 1e-9
    assert abs(qinv(1e-3) - 3.0902323061678136) < 1e-9


def test_qinv_roundtrip_grid():
    for eps in (1e-6, 1e-4, 1e-2, 0.2, 0.5, 0.8, 0.99):
        assert abs(q_function(qinv(eps)) - eps) <= 1e-12
    for eps in (1e-15, 1e-12, 1e-9):
        assert abs(q_function(qinv(eps)) - eps) <= 1e-12 * eps
    for eps in (1e-15, 1e-12, 1e-9, 1e-6, 1e-4, 1e-2, 0.2, 0.5):
        # 1 - eps rounds; its exact complement is the tail it really names
        upper = 1.0 - eps
        assert abs(qinv(upper) + qinv(1.0 - upper)) <= 1e-12


def test_qinv_domain():
    for bad in (0.0, 1.0, -0.5, 2.0):
        with pytest.raises(DomainError):
            qinv(bad)


def test_lsd_rate_examples():
    p, n = 0.11, 128
    capacity = 1.0 + p * math.log2(p) + (1 - p) * math.log2(1 - p)
    # Qinv(0.5) = 0 leaves only the log-term correction
    assert abs(lsd_rate_bsc(p, n, 0.5)
               - (capacity + math.log2(n) / (2 * n))) <= 1e-12
    # large blocklengths approach capacity
    assert abs(lsd_rate_bsc(p, 2**26, 1e-3) - capacity) < 1e-3
    rate = lsd_rate_bsc(p, n, 1e-3)
    assert rate < capacity
    assert rate < cscc_rate_lower_bound_bsc(p, Composition((n // 2, n // 2)))


def test_lsd_rate_monotone_in_epsilon():
    p, n = 0.11, 256
    rates = [lsd_rate_bsc(p, n, eps) for eps in (1e-6, 1e-4, 1e-3, 1e-2, 0.1)]
    assert all(a < b for a, b in zip(rates, rates[1:]))


def test_lsd_sqrt_scaling():
    p = 0.11
    capacity = 1.0 + p * math.log2(p) + (1 - p) * math.log2(1 - p)
    scaled = [(capacity - lsd_rate_bsc(p, 2**k, 1e-4)) * math.sqrt(2**k)
              for k in (10, 11, 12)]
    assert abs(scaled[2] - scaled[0]) / scaled[0] <= 0.02


def test_lsd_domain():
    with pytest.raises(DomainError):
        lsd_rate_bsc(0.6, 128, 1e-3)
    with pytest.raises(DomainError):
        lsd_rate_bsc(0.11, 0, 1e-3)
    with pytest.raises(DomainError):
        lsd_rate_bsc(0.11, 128, 0.0)


def test_lsd_point():
    point = lsd_point(0.11, 64, 1e-3)
    assert point.n == 64 and point.epsilon == 1e-3
    assert point.rate == lsd_rate_bsc(0.11, 64, 1e-3)
