"""Tests of the benchmark's own helpers (no service is started)."""

import numpy as np
import pytest

from perfbench.benchstats import (
    due_time_latency,
    in_fault_window,
    lateness,
    poisson_due_times,
    samples_beyond,
    supported_percentile,
    word_uniform_layers,
)


@pytest.mark.parametrize(
    "count, expected",
    [
        (19, None),
        (20, 50.0),
        (49, 50.0),
        (50, 80.0),
        (100, 90.0),
        (199, 90.0),
        (200, 95.0),
        (999, 95.0),
        (1000, 99.0),
        (9999, 99.0),
        (10000, 99.9),
    ],
)
def test_supported_percentile_keeps_ten_samples_beyond(count, expected):
    assert supported_percentile(count) == expected
    if expected is not None:
        assert samples_beyond(count, expected) >= 10


def test_due_time_latency_charges_generator_lateness():
    due = np.array([0.0, 0.010, 0.020])
    # The sender stalled: all three went out at 0.030 and completed 1 ms later.
    sent = np.array([0.030, 0.030, 0.030])
    completed = sent + 0.001
    assert np.allclose(due_time_latency(due, completed), [0.031, 0.021, 0.011])
    assert np.allclose(lateness(due, sent), [0.030, 0.020, 0.010])
    # Sending early is not negative lateness.
    assert lateness(np.array([1.0]), np.array([0.5]))[0] == 0.0


def test_poisson_due_times_is_seeded_and_bounded():
    first = poisson_due_times(np.random.default_rng(7), 500.0, 4.0)
    again = poisson_due_times(np.random.default_rng(7), 500.0, 4.0)
    assert np.array_equal(first, again)
    assert len(first) == 2000
    assert 0.0 <= first[0] and first[-1] < 4.0 and np.all(np.diff(first) >= 0)
    # Poisson gaps are exponential: their spread equals their mean.
    gaps = np.diff(first)
    assert abs(gaps.std() / gaps.mean() - 1.0) < 0.1


def test_word_uniform_draw_follows_weight_shares():
    counts = [36864, 576, 320, 72, 32, 10, 8, 8]
    draws = word_uniform_layers(np.random.default_rng(3), counts, 200_000)
    realized = np.bincount(draws, minlength=len(counts)) / len(draws)
    expected = np.asarray(counts) / sum(counts)
    # Binomial standard error of each share, with a 5-sigma margin.
    sigma = np.sqrt(expected * (1 - expected) / len(draws))
    assert np.all(np.abs(realized - expected) <= 5 * sigma + 1e-12)
    assert realized[0] > 0.97
    with pytest.raises(ValueError):
        word_uniform_layers(np.random.default_rng(0), [0, 0], 1)


def test_fault_window_covers_any_overlap_with_the_serving_interval():
    windows = [(10.0, 11.0), (20.0, 20.5)]
    enqueued = np.array([9.0, 9.0, 10.5, 11.0, 11.5, 19.0, 20.6])
    completed = np.array([9.9, 10.0, 10.6, 11.2, 11.6, 25.0, 20.7])
    assert in_fault_window(enqueued, completed, windows).tolist() == [
        False,  # done before the fault began
        True,  # completed just as the flip began: its forward may have seen it
        True,  # entirely inside
        True,  # enqueued as the heal was seen
        False,  # enqueued after the heal
        True,  # spans the whole second window
        False,  # after the second window
    ]
    assert not in_fault_window(enqueued, completed, []).any()
    # An unhealed fault's window never closes.
    assert in_fault_window(np.array([99.0]), np.array([100.0]), [(5.0, np.inf)]).all()

