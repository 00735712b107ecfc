"""Configuration of the self-healing inference service runtime."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.nn.plan import DEFAULT_ULP_BOUND
from repro.obs.telemetry import TelemetryConfig

__all__ = ["ServiceConfig"]


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables of the service runtime (batching, scrubbing, repair, SLA).

    Attributes:
        max_batch: Inference requests are queued individually and executed as
            batches of up to this many samples.  The worker never waits to
            fill a batch: it serves whatever is queued when it becomes idle,
            so occupancy follows load.  Batches execute at their actual
            occupancy through a per-batch-size compiled forward plan; set
            ``fixed_batch_shape`` to restore the old pad-to-``max_batch``
            behaviour.  The default of 16 sits where the fused per-sample
            forward cost has saturated on the zoo networks while the queue
            depth (and hence worst-case batching latency) stays small.
        fixed_batch_shape: Pad every partial batch to ``max_batch`` samples so
            each forward pass has one fixed shape (one plan, but up to
            ``max_batch - 1`` wasted sample computations per batch).  Off by
            default: variable-occupancy batches are served unpadded and the
            padded/real sample split is observable in ``RequestStats``.
        fused_forward: Serve batches through the fused forward plan (affines
            folded into the adjacent matmul, each stride-1 conv in the
            formulation -- direct strided GEMM or chunked im2col -- that a
            compile-time probe measured faster at that batch size,
            conv→ReLU→maxpool chain fusion).  On by default, but gated per
            network by ULP certification (see ``certify_fusion``): a network
            that fails certification at a batch size silently falls back to
            the bit-exact plan at that size.  Set ``False`` to pin every
            serve to the bit-exact plan.
        certify_fusion: Require a passing ULP certification before a fused
            plan may serve (on by default).  Certification runs a seeded
            calibration batch through the fused and bit-exact plans once per
            ``(weight state, batch size)`` and caches the certificate; with
            this off, ``fused_forward`` serves fused plans unconditionally
            (the legacy opt-in behaviour).
        fusion_ulp_bound: Maximum ULP divergence between the fused and
            bit-exact calibration outputs for certification to pass.
            Propagated to every registered model.
        precompile_plans: Warm every serving occupancy's forward plan (and,
            with fused serving on, its fused plan plus ULP certification)
            when a model's worker starts, so no live request ever pays a
            plan compile or a calibration run.
        scrub_period_seconds: Period of the background detection scrubber.
            The default follows the availability model: detection on the
            reduced networks costs ~1 ms, so a 0.25 s period keeps the
            detection duty cycle (and hence the availability loss) below 1%.
        scrub_chunk_layers: Number of parameterized layers checked per
            detection slice.  Smaller chunks hold the model lock for shorter
            stretches, letting inference interleave with scrubbing.
        repair_rtol: Relative tolerance used by the bit-exact repair step when
            deciding whether a stored (possibly corrupted) weight agrees with
            the solver's recovered estimate.
        repair_atol: Absolute companion to ``repair_rtol``.
        repair_max_flips: Maximum number of simultaneous bit flips per weight
            the repair step searches for when snapping a corrupted word back
            to the solver estimate.
        sparse_repair_max_support: Per-filter support bound of the
            residual-guided sparse kernel repair (max simultaneously corrupted
            kernel rows it can isolate).
        max_recovery_attempts: After this many recovery attempts that still
            fail verification, a layer is released from quarantine in
            *degraded* state (best-effort weights, counted in the SLA report)
            so one unhealable layer cannot pin availability to zero.
        quarantine_wait_seconds: How long an inference worker waits for a
            quarantined model to become healthy before failing its requests.
        yearly_accuracy_floor: Accuracy-degradation floor fed into the
            availability model (normalized accuracy after one year of
            unrecovered errors).
        recovery_async: Run recovery jobs on a dedicated worker thread so the
            scrubber keeps checking other models/layers while one heals.
        store_conv_crc: Initialize managed models with 2-D CRC codes on every
            convolution layer (``MILRConfig.always_store_conv_crc``).  The
            codes make convolution repair self-contained -- corrupted words
            are localized and their bit-flip corrections verified without
            golden passes through (possibly corrupted) neighbour layers.
        max_queue_depth: Bound of each model's request queue.  ``0`` (the
            default) keeps the legacy unbounded queue; with a bound set, the
            admission controller applies ``admission_policy`` when the queue
            is full instead of letting backlog (and memory) grow without
            limit under overload.
        admission_policy: What ``submit`` does when a bounded queue is full:
            ``"reject"`` raises :class:`~repro.exceptions.ServiceOverloadError`
            immediately (load shedding); ``"block"`` waits up to
            ``admission_block_timeout_seconds`` for space, then raises the
            same error.  Ignored while ``max_queue_depth`` is 0.
        admission_block_timeout_seconds: Longest a ``"block"``-policy submit
            waits for queue space before shedding the request.
        default_deadline_seconds: Deadline attached to every request that
            does not pass one explicitly (``None`` = no deadline).  Requests
            whose deadline has already passed when their batch is assembled
            are dropped before compute and counted as shed.
        breaker_enabled: Arm a per-model :class:`~repro.service.breaker.
            CircuitBreaker` that sheds load at admission when the model's
            rolling p99 latency or quarantine depth crosses its threshold,
            then probes recovery half-open after a seeded-jitter exponential
            backoff.  Off by default (chaos/overload deployments opt in).
        breaker_p99_threshold_seconds: Rolling-window p99 latency above which
            the breaker opens.
        breaker_quarantine_depth: Quarantined-layer count at or above which
            the breaker opens (early shed while recovery is in flight).
        breaker_window: Completed-request latencies retained in the rolling
            window the p99 is computed over.
        breaker_min_samples: Latency samples required before the p99 trip
            condition is evaluated (prevents opening on the first slow
            request after start).
        breaker_backoff_seconds: Initial open-state backoff before the first
            half-open probe round; doubles on every failed probe round.
        breaker_backoff_max_seconds: Cap of the exponential backoff.
        breaker_half_open_probes: Requests admitted per half-open probe
            round; the round must complete them all under the p99 threshold
            to close the breaker.
        breaker_jitter: Fraction of the backoff added as seeded uniform
            jitter to each reopen delay (decorrelates probe storms across
            models).
        slo_availability_target: Availability objective of admitted requests
            used by :class:`~repro.service.sla.SLOReport` for error-budget
            burn accounting.  Must be in ``(0, 1)``.
        repeat_offender_threshold: Number of bit-exact repairs of the *same
            memory cell* (word index, bit position) of a layer after which the
            scrubber blacklists the cell as stuck-at hardware: the golden word
            is remembered and rewritten by a cheap remap pass at the start of
            every scrub, without waiting for full detection to flag the layer
            again.
        telemetry: Configuration of the unified telemetry layer
            (:mod:`repro.obs`): span tracing, fault-lifecycle chains and the
            metrics registry.  ``TelemetryConfig(enabled=False)`` removes the
            whole layer -- the runtime then follows exactly the
            pre-instrumentation code paths.
    """

    max_batch: int = 16
    fixed_batch_shape: bool = False
    fused_forward: bool = True
    certify_fusion: bool = True
    fusion_ulp_bound: int = DEFAULT_ULP_BOUND
    precompile_plans: bool = True
    scrub_period_seconds: float = 0.25
    scrub_chunk_layers: int = 4
    repair_rtol: float = 1e-3
    repair_atol: float = 1e-5
    repair_max_flips: int = 2
    sparse_repair_max_support: int = 8
    max_recovery_attempts: int = 3
    quarantine_wait_seconds: float = 30.0
    yearly_accuracy_floor: float = 0.5
    recovery_async: bool = True
    store_conv_crc: bool = True
    repeat_offender_threshold: int = 2
    max_queue_depth: int = 0
    admission_policy: str = "reject"
    admission_block_timeout_seconds: float = 1.0
    default_deadline_seconds: Optional[float] = None
    breaker_enabled: bool = False
    breaker_p99_threshold_seconds: float = 0.25
    breaker_quarantine_depth: int = 4
    breaker_window: int = 256
    breaker_min_samples: int = 32
    breaker_backoff_seconds: float = 0.1
    breaker_backoff_max_seconds: float = 2.0
    breaker_half_open_probes: int = 8
    breaker_jitter: float = 0.2
    slo_availability_target: float = 0.99
    telemetry: TelemetryConfig = field(default_factory=TelemetryConfig)

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ValueError("max_batch must be at least 1")
        if self.fusion_ulp_bound < 0:
            raise ValueError("fusion_ulp_bound must be non-negative")
        if self.scrub_period_seconds <= 0:
            raise ValueError("scrub_period_seconds must be positive")
        if self.scrub_chunk_layers < 1:
            raise ValueError("scrub_chunk_layers must be at least 1")
        if self.repair_rtol < 0 or self.repair_atol < 0:
            raise ValueError("repair tolerances must be non-negative")
        if self.repair_max_flips < 1:
            raise ValueError("repair_max_flips must be at least 1")
        if self.sparse_repair_max_support < 1:
            raise ValueError("sparse_repair_max_support must be at least 1")
        if self.max_recovery_attempts < 1:
            raise ValueError("max_recovery_attempts must be at least 1")
        if self.quarantine_wait_seconds <= 0:
            raise ValueError("quarantine_wait_seconds must be positive")
        if not 0.0 <= self.yearly_accuracy_floor <= 1.0:
            raise ValueError("yearly_accuracy_floor must be in [0, 1]")
        if self.repeat_offender_threshold < 1:
            raise ValueError("repeat_offender_threshold must be at least 1")
        if self.max_queue_depth < 0:
            raise ValueError("max_queue_depth must be non-negative (0 = unbounded)")
        if self.admission_policy not in ("reject", "block"):
            raise ValueError("admission_policy must be 'reject' or 'block'")
        if self.admission_block_timeout_seconds <= 0:
            raise ValueError("admission_block_timeout_seconds must be positive")
        if self.default_deadline_seconds is not None and self.default_deadline_seconds <= 0:
            raise ValueError("default_deadline_seconds must be positive (or None)")
        if self.breaker_p99_threshold_seconds <= 0:
            raise ValueError("breaker_p99_threshold_seconds must be positive")
        if self.breaker_quarantine_depth < 1:
            raise ValueError("breaker_quarantine_depth must be at least 1")
        if self.breaker_window < 1:
            raise ValueError("breaker_window must be at least 1")
        if self.breaker_min_samples < 1:
            raise ValueError("breaker_min_samples must be at least 1")
        if self.breaker_backoff_seconds <= 0:
            raise ValueError("breaker_backoff_seconds must be positive")
        if self.breaker_backoff_max_seconds < self.breaker_backoff_seconds:
            raise ValueError(
                "breaker_backoff_max_seconds must be at least breaker_backoff_seconds"
            )
        if self.breaker_half_open_probes < 1:
            raise ValueError("breaker_half_open_probes must be at least 1")
        if not 0.0 <= self.breaker_jitter <= 1.0:
            raise ValueError("breaker_jitter must be in [0, 1]")
        if not 0.0 < self.slo_availability_target < 1.0:
            raise ValueError("slo_availability_target must be in (0, 1)")
