import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subblock import (AbsoluteContinuityViolation, Channel, DomainError,
                      as_distribution, conditional_entropy,
                      divergence_conditional, entropy, mutual_information,
                      output_distribution)


def test_entropy_examples():
    assert entropy([0.5, 0.5]) == 1.0
    assert entropy([1.0, 0.0]) == 0.0
    expected = -(0.1 * math.log2(0.1) + 0.9 * math.log2(0.9))
    assert abs(entropy([0.1, 0.9]) - expected) < 1e-15


def test_mutual_information_examples():
    useless = Channel.bsc(0.5)
    assert mutual_information([0.5, 0.5], useless) == 0.0
    noiseless = Channel.noiseless(2, (0.0, 1.0))
    assert abs(mutual_information([0.5, 0.5], noiseless) - 1.0) < 1e-15
    bsc = Channel.bsc(0.1)
    expected = 1.0 - (-(0.1 * math.log2(0.1) + 0.9 * math.log2(0.9)))
    assert abs(mutual_information([0.5, 0.5], bsc) - expected) < 1e-12


def test_divergence_conditional_examples():
    w = np.array([[0.1, 0.9], [0.4, 0.6]])
    p = [0.3, 0.7]
    assert divergence_conditional(w, w, p) == 0.0
    v = np.array([[0.2, 0.8], [0.4, 0.6]])
    assert divergence_conditional(v, w, [0.0, 1.0]) == 0.0
    expected = 0.2 * math.log2(2.0) + 0.8 * math.log2(8.0 / 9.0)
    got = divergence_conditional([[0.2, 0.8]], [[0.1, 0.9]], [1.0])
    assert abs(got - expected) < 1e-15


def test_divergence_conditional_absolute_continuity():
    v = [[0.5, 0.5]]
    w = [[1.0, 0.0]]
    with pytest.raises(AbsoluteContinuityViolation):
        divergence_conditional(v, w, [1.0])
    # zero-weight rows may violate support freely
    assert divergence_conditional([v[0], [1.0, 0.0]],
                                  [w[0], [1.0, 0.0]], [0.0, 1.0]) == 0.0


def test_mutual_information_nonnegative_and_concave():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n_in, n_out = rng.integers(2, 5, size=2)
        ch = Channel(rng.dirichlet(np.ones(n_out), size=n_in), np.zeros(n_in))
        p1 = rng.dirichlet(np.ones(n_in))
        p2 = rng.dirichlet(np.ones(n_in))
        alpha = float(rng.uniform(0.05, 0.95))
        mix = alpha * p1 + (1 - alpha) * p2
        i1, i2 = mutual_information(p1, ch), mutual_information(p2, ch)
        assert i1 >= 0.0 and i2 >= 0.0
        assert mutual_information(mix, ch) >= alpha * i1 + (1 - alpha) * i2 - 1e-9


def test_mutual_information_zero_for_equal_rows():
    ch = Channel([[0.3, 0.7], [0.3, 0.7], [0.3, 0.7]], np.zeros(3))
    rng = np.random.default_rng(3)
    for _ in range(10):
        value = mutual_information(rng.dirichlet(np.ones(3)), ch)
        assert 0.0 <= value <= 1e-12


def test_channel_validation():
    with pytest.raises(DomainError):
        Channel([[0.5, 0.6]], [0.0])  # row sum 1.1
    with pytest.raises(DomainError):
        Channel([[1.2, -0.2]], [0.0])  # entries outside [0, 1]
    with pytest.raises(DomainError):
        Channel([[0.5, 0.5]], [-1.0])  # negative energy
    # row sums within 1e-12 are renormalized
    ch = Channel([[0.5 + 2e-13, 0.5]], [0.0])
    assert abs(ch.w.sum() - 1.0) < 1e-15
    assert Channel.bsc(0.1).energy_varies
    assert not Channel.bsc(0.1, energy=(1.0, 1.0)).energy_varies


def test_channel_rejects_non_finite_entries(tmp_path):
    with pytest.raises(DomainError, match="finite"):
        Channel([[0.9, math.nan], [0.1, 0.9]], [0.0, 1.0])
    path = tmp_path / "nan.txt"
    path.write_text("2 2\n0.9 nan\n0.1 0.9\n0 1\n")
    with pytest.raises(DomainError, match="finite"):
        Channel.load(path)
    for energy in ([math.nan, 1.0], [0.0, math.inf]):
        with pytest.raises(DomainError, match="finite"):
            Channel.bsc(0.1, energy)


def test_channel_text_format():
    text = """
    # a binary symmetric channel
    2 2
    0.9 0.1   # x = 0
    0.1 0.9   # x = 1
    0 1       # harvested energies
    """
    ch = Channel.from_text(text)
    assert ch.input_size == 2 and ch.output_size == 2
    assert np.allclose(ch.w, [[0.9, 0.1], [0.1, 0.9]])
    assert list(ch.energy) == [0.0, 1.0]
    with pytest.raises(DomainError):
        Channel.from_text("2 2\n0.9 0.1\n0.1 0.9")  # missing energies


def test_distribution_validation():
    with pytest.raises(DomainError):
        as_distribution([0.5, 0.6])
    with pytest.raises(DomainError):
        as_distribution([-0.1, 1.1])
    p = as_distribution([0.25, 0.75])
    assert p.sum() == 1.0
    py = output_distribution([0.5, 0.5], Channel.bsc(0.1))
    assert np.allclose(py, [0.5, 0.5])
    assert abs(conditional_entropy(Channel.bsc(0.1), [0.5, 0.5])
               - (-(0.1 * math.log2(0.1) + 0.9 * math.log2(0.9)))) < 1e-15


def test_distribution_rejects_non_finite_entries():
    for bad in ([math.nan, 1.0], [math.inf, 0.0], [0.5, -math.inf, 0.5]):
        with pytest.raises(DomainError, match="finite"):
            as_distribution(bad)
    with pytest.raises(DomainError, match="finite"):
        mutual_information([math.nan, 0.5], Channel.bsc(0.1))
    with pytest.raises(DomainError, match=r"sums to 1\.1, not 1$"):
        as_distribution([0.5, 0.6])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=8)
       .filter(lambda x: sum(x) > 0.0))
def test_as_distribution_is_idempotent(weights):
    once = as_distribution(np.array(weights) / np.sum(weights))
    assert as_distribution(once).tobytes() == once.tobytes()


def test_channel_rows_are_normalized_once():
    rng = np.random.default_rng(17)
    for _ in range(500):
        shape = tuple(rng.integers(2, 5, size=2))
        ch = Channel(rng.dirichlet(np.ones(shape[1]), shape[0]), rng.random(shape[0]))
        assert Channel(ch.w, ch.energy).w.tobytes() == ch.w.tobytes()
