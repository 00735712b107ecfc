"""Pure helpers of the benchmark: percentiles, open-loop timing, fault draws
and the output oracle's fault windows.

Nothing here touches the service, so the rules the benchmark reports by are
testable on their own (``perfbench/test_benchstats.py``).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

#: Percentiles the benchmark may report as a distribution's tail.
PERCENTILE_LADDER: tuple[float, ...] = (50.0, 80.0, 90.0, 95.0, 99.0, 99.9)

#: A tail percentile is only reported when at least this many samples lie
#: beyond it; fewer would make it the reading of one or two outliers.
MIN_SAMPLES_BEYOND = 10


def samples_beyond(count: int, q: float) -> int:
    """Number of samples strictly above percentile ``q`` of ``count`` samples."""
    # The epsilon absorbs float error in ``100 - q`` (e.g. 99.9).
    return int(count * (100.0 - q) / 100.0 + 1e-6)


def supported_percentile(
    count: int, ladder: Sequence[float] = PERCENTILE_LADDER
) -> Optional[float]:
    """Highest percentile of ``ladder`` with at least ten samples beyond it.

    ``None`` when even the lowest rung is unsupported (fewer than 20 samples
    for the median).
    """
    best = None
    for q in ladder:
        if samples_beyond(count, q) >= MIN_SAMPLES_BEYOND:
            best = q
    return best


def percentile(values: Sequence[float], q: float) -> float:
    """Percentile ``q`` (0-100) with linear interpolation; 0.0 for no values."""
    if len(values) == 0:
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def due_time_latency(due_at: np.ndarray, completed_at: np.ndarray) -> np.ndarray:
    """Open-loop latency: completion minus the time the request was *due*.

    Timing from the due time rather than from the actual send charges a
    generator stall (or a blocked submit) to every request it delayed, which
    a send-time latency would silently hide.
    """
    return np.asarray(completed_at, dtype=np.float64) - np.asarray(due_at, dtype=np.float64)


def lateness(due_at: np.ndarray, sent_at: np.ndarray) -> np.ndarray:
    """How late the generator sent each request (never negative)."""
    late = np.asarray(sent_at, dtype=np.float64) - np.asarray(due_at, dtype=np.float64)
    return np.maximum(late, 0.0)


def poisson_due_times(rng: np.random.Generator, rate: float, duration: float) -> np.ndarray:
    """Sorted arrival offsets (s) of a Poisson process over ``duration``.

    The process is conditioned on its expected count, ``round(rate *
    duration)``: given the count, Poisson arrival times are uniform order
    statistics.  Arrivals stay as bursty as Poisson, but every seed offers
    the same load, so throughput and tail latency do not swing with the luck
    of the count.
    """
    return np.sort(rng.uniform(0.0, duration, size=int(round(rate * duration))))


def word_uniform_layers(
    rng: np.random.Generator, weight_counts: Sequence[int], draws: int
) -> np.ndarray:
    """Positions into ``weight_counts``, each drawn with its share of the words.

    A fault site drawn uniformly over every weight word of the model lands on
    a layer with probability equal to that layer's share of the words, which
    is the paper's RBER model.  Returns one position per draw.
    """
    counts = np.asarray(weight_counts, dtype=np.float64)
    if counts.ndim != 1 or counts.size == 0 or np.any(counts < 0) or counts.sum() <= 0:
        raise ValueError("weight_counts must be a non-empty list of non-negative counts")
    return rng.choice(counts.size, size=draws, p=counts / counts.sum())


def in_fault_window(
    enqueued_at: np.ndarray,
    completed_at: np.ndarray,
    windows: Sequence[tuple[float, float]],
) -> np.ndarray:
    """Mask of responses whose forward may have run on corrupted weights.

    A response's forward ran somewhere inside ``[enqueued_at, completed_at]``;
    a fault window runs from the moment injection began to the moment the
    layer was seen healed.  The two overlap unless one ends before the other
    starts.  Responses outside every window must match the reference.
    """
    enq = np.asarray(enqueued_at, dtype=np.float64)
    done = np.asarray(completed_at, dtype=np.float64)
    mask = np.zeros(enq.shape, dtype=bool)
    for start, end in windows:
        mask |= (done >= start) & (enq <= end)
    return mask
