"""The benchmark's workloads, why each exists, and its seeded inputs.

Every workload runs the shipped ``SelfHealingService`` with the default
``ServiceConfig``.  The service only ever sees generated inputs: a seeded
request pool, seeded arrival times and seeded fault sites.

Which metrics each workload should move, and which it should leave alone.
The per-layer names are the spans and counts the traced run reports.

``saturate-mnist`` -- ``mnist_reduced``, closed loop, 64 requests outstanding
    from one thread, no faults.  Every batch runs at full occupancy 16, so the
    forward kernels and the per-request engine cost set throughput, and the
    batch-gather wait is bypassed.  Moves ``throughput_rps`` through
    ``engine.submit_us.p50``, ``engine.occupancy.mean`` (about 16) and
    ``plan.forward_us_per_sample.occ9-16``.  ``detect.busy_share`` stays near
    0, so a faster detector should not move it.

``faults-mnist`` -- ``mnist_reduced``, open-loop Poisson at 500 req/s, plus
    one fault thread that injects a detectable exponent-bit flip in every 3 s
    of the window at a site drawn uniformly over all weight words.  This is the write path
    beside reads: detect, quarantine, repair, plan revalidation.  The
    word-uniform draw follows the paper's RBER model and lands about 97% of
    faults on ``head1_dense``, whose repair runs the solver path (hundreds of
    ms, holding the model lock); every other layer repairs in milliseconds.
    That stall sets the latency tail here (through ``repair.quarantine_ms``,
    ``repair.solver_ms`` and ``registry.clear_ms``), while ``latency_p50_ms``
    still measures the healthy low-occupancy path, where the 2 ms gather
    timeout (``engine.wait_ms.p50``) is most of the latency.  With a fault
    every 2 s the model sat in quarantine about 40% of the time, the median
    fell on the edge between healthy and stalled requests, and it spread by
    50% between seeds; 3 s keeps it on the healthy side.  Heal time, wrong
    answers and generator lateness are printed as details of every run.

``scrub-large`` -- ``cifar_large`` (paper Table III, 2.39 M parameters), two
    clients in a closed loop, no faults.  The only workload where detection
    and set-up dominate: detection slices take the model lock away from a
    conv forward of about 7 ms/sample, so ``detect.call_ms`` and
    ``detect.pass_ms`` (the paper's ``Td``) move the latency tail, and
    protection init plus plan warm/certify (``setup.protect_s``,
    ``plan.warm_s``) move ``setup_s``.  On ``mnist_reduced`` a detection pass
    costs about 2 ms, so without this workload detection under load would go
    unmeasured.  It is a closed loop because an open loop at 50-80 req/s
    (35-60% busy) amplified host noise through queueing: its median spread
    by 11-24% and its p99 by 27-58% between seeds, the tail set by a few
    arrival bursts per run.

No latency tail is gated, only the median.  Every run prints p90, p95 and
p99 with the other details, but over ten seeds on a shared 2-core host
their spread between runs was 20-56% (the host's speed drifts by about 20%
over minutes, and a tail amplifies it: on faults-mnist p90 sits inside the
heal stalls, on saturate-mnist p99 is set by scrubber and scheduler
stalls), beyond the largest bound a benchmark may set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from perfbench.benchstats import poisson_due_times, word_uniform_layers

#: Requests are drawn from a pool of this many seeded samples.
POOL_SIZE = 64

#: Unmeasured traffic before the timed window, so caches fill and the
#: scrubber reaches its steady phase first.
WARMUP_SECONDS = 1.0


@dataclass(frozen=True)
class Workload:
    name: str
    network: str
    #: ``"closed"``: a fixed number of requests outstanding; ``"open"``:
    #: Poisson arrivals at ``rate_rps`` regardless of completions.
    loop: str
    why: str
    outstanding: int = 0
    rate_rps: float = 0.0
    #: Seconds between fault injections (``None``: no faults).
    fault_interval_s: Optional[float] = None


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "saturate-mnist",
            "mnist_reduced",
            "closed",
            "closed loop of 64 outstanding requests, no faults: full-occupancy "
            "batches, so forward kernels and per-request engine cost set throughput",
            outstanding=64,
        ),
        Workload(
            "faults-mnist",
            "mnist_reduced",
            "open",
            "Poisson 500 req/s plus a word-uniform exponent-bit flip every 3 s: "
            "detect, quarantine, repair and plan revalidation beside reads",
            rate_rps=500.0,
            fault_interval_s=3.0,
        ),
        Workload(
            "scrub-large",
            "cifar_large",
            "closed",
            "two clients in a closed loop on the 2.39M-parameter cifar_large, no faults: "
            "detection slices contend with 7 ms/sample forwards, set-up takes seconds",
            outstanding=2,
        ),
    )
}


@dataclass(frozen=True)
class Inputs:
    """Everything the service receives in one run, generated from the seed."""

    pool: np.ndarray
    #: Offsets (s) from the start of traffic at which requests are due (open
    #: loop), and the pool index each request sends.
    due: np.ndarray
    pool_index: np.ndarray
    #: Offsets (s) at which faults are due and the parameterized-layer
    #: position (into the model's parameterized layers) each one targets.
    fault_due: np.ndarray
    fault_layer: np.ndarray
    #: Seed of each layer's fault driver (which word and bit it flips).
    driver_seeds: tuple[int, ...]


def make_inputs(
    workload: Workload,
    seed: int,
    seconds: float,
    input_shape: Sequence[int],
    weight_counts: Sequence[int],
) -> Inputs:
    """Seeded inputs for one run of ``workload`` (same seed, same inputs)."""
    index = list(WORKLOADS).index(workload.name)
    rng = np.random.default_rng([seed, index])
    pool = rng.random((POOL_SIZE, *input_shape)).astype(np.float32)
    span = WARMUP_SECONDS + seconds
    if workload.loop == "open":
        # Warm-up and timed window each get their expected count.
        due = np.concatenate([
            poisson_due_times(rng, workload.rate_rps, WARMUP_SECONDS),
            WARMUP_SECONDS + poisson_due_times(rng, workload.rate_rps, seconds),
        ])
    else:
        due = np.zeros(0)
    # Closed-loop requests have no due time but still pick pool samples.
    requests = max(len(due), int(20000 * span))
    pool_index = rng.integers(POOL_SIZE, size=requests)
    if workload.fault_interval_s is not None:
        # One fault in each interval of the timed window, at a seeded point
        # of its middle half: every run carries the same number of faults,
        # and each heals before the next one or the window's end.
        interval = workload.fault_interval_s
        count = int(seconds // interval)
        offsets = interval * (np.arange(count) + rng.uniform(0.25, 0.75, count))
        fault_due = WARMUP_SECONDS + offsets
    else:
        fault_due = np.zeros(0)
    fault_layer = word_uniform_layers(rng, weight_counts, len(fault_due))
    driver_seeds = tuple(int(s) for s in rng.integers(2**31, size=len(weight_counts)))
    return Inputs(pool, due, pool_index, fault_due, fault_layer, driver_seeds)
