"""Batching inference engine.

Requests arrive one sample at a time (as they would from network handlers),
are queued per model, and a dedicated worker thread per model serves them in
batches.  The gather is work-conserving: the worker blocks for the first
request only, takes whatever else is already queued (up to ``max_batch``) and
dispatches at once.  An idle worker never waits for batch-mates; under load
the queue refills while the previous batch computes, so batches still fill.
Batches execute through :meth:`Sequential.predict_served` -- the
plan-compiled fast path, one cached plan per batch occupancy, so partial
batches are not padded to ``max_batch`` (unless
``ServiceConfig.fixed_batch_shape`` is set).  Every request carries
wall-clock latency accounting from enqueue to completion.

Worker loop contract: a batch only executes while the model's quarantine set
is empty.  The worker takes the model lock, waits on the health condition if
needed, and runs the forward pass under the lock -- so recovery never rewrites
weights mid-batch and no request is answered through a quarantined layer.

Overload protection: with ``ServiceConfig.max_queue_depth`` set, each model's
queue is bounded and :meth:`InferenceEngine.submit` becomes an admission
controller -- a full queue either rejects the request with
:class:`~repro.exceptions.ServiceOverloadError` or blocks the caller for a
bounded wait, and an armed circuit breaker sheds at admission when p99
latency or quarantine depth trips it.  Requests may carry deadlines: a
request whose deadline already passed when its batch is assembled is dropped
before compute (counted as shed, failed with
:class:`~repro.exceptions.DeadlineExceededError`).
"""

from __future__ import annotations

import queue
import threading
import time
from typing import Optional

import numpy as np

from repro.exceptions import (
    DeadlineExceededError,
    ExperimentError,
    ServiceOverloadError,
    ShapeError,
)
from repro.service.config import ServiceConfig
from repro.service.registry import ManagedModel, ModelRegistry
from repro.types import FLOAT_DTYPE

__all__ = ["InferenceRequest", "InferenceEngine"]

#: Sentinel that tells a worker to drain out.
_STOP = object()


class InferenceRequest:
    """A single-sample prediction request with latency accounting."""

    __slots__ = (
        "model_name",
        "sample",
        "enqueued_at",
        "deadline",
        "completed_at",
        "latency_seconds",
        "_done",
        "_result",
        "_error",
    )

    def __init__(
        self,
        model_name: str,
        sample: np.ndarray,
        deadline_seconds: Optional[float] = None,
    ):
        self.model_name = model_name
        self.sample = sample
        self.enqueued_at = time.perf_counter()
        #: Absolute monotonic-clock deadline (``None`` = no deadline).
        self.deadline: Optional[float] = (
            self.enqueued_at + deadline_seconds
            if deadline_seconds is not None
            else None
        )
        self.completed_at: Optional[float] = None
        self.latency_seconds: Optional[float] = None
        self._done = threading.Event()
        self._result: Optional[np.ndarray] = None
        self._error: Optional[BaseException] = None

    # ------------------------------------------------------------------ #
    def _complete(self, result: np.ndarray, at: Optional[float] = None) -> None:
        # Requests of one batch complete together; the worker passes a shared
        # timestamp so the hot path reads the clock once per batch.
        self.completed_at = time.perf_counter() if at is None else at
        self.latency_seconds = self.completed_at - self.enqueued_at
        self._result = result
        self._done.set()

    def _fail(self, error: BaseException) -> None:
        self.completed_at = time.perf_counter()
        self.latency_seconds = self.completed_at - self.enqueued_at
        self._error = error
        self._done.set()

    # ------------------------------------------------------------------ #
    def done(self) -> bool:
        return self._done.is_set()

    @property
    def failed(self) -> bool:
        return self._done.is_set() and self._error is not None

    def result(self, timeout: Optional[float] = None) -> np.ndarray:
        """Block until the prediction is available and return it."""
        if not self._done.wait(timeout=timeout):
            raise TimeoutError(
                f"request against model {self.model_name!r} did not complete "
                f"within {timeout}s"
            )
        if self._error is not None:
            raise self._error
        assert self._result is not None
        return self._result


class InferenceEngine:
    """Queues single-sample requests and serves them as variable-occupancy batches."""

    def __init__(self, registry: ModelRegistry, config: Optional[ServiceConfig] = None):
        self._registry = registry
        self._config = config or registry.config
        self._telemetry = registry.telemetry
        self._queues: dict[str, "queue.Queue"] = {}
        self._workers: dict[str, threading.Thread] = {}
        self._running = False
        self._lock = threading.Lock()
        #: Guards shed-counter bumps (entry.lock would serialize admission
        #: behind in-flight batch compute; self._lock is sometimes held when
        #: a shed happens, so neither can cover this path).
        self._shed_lock = threading.Lock()
        #: Models whose worker thread died with an unexpected exception;
        #: submits against them fail fast instead of queueing forever.
        self._dead_workers: set[str] = set()

    @property
    def running(self) -> bool:
        return self._running

    # ------------------------------------------------------------------ #
    def start(self) -> None:
        """Spawn one worker thread per registered model."""
        with self._lock:
            if self._running:
                return
            self._running = True
            self._dead_workers.clear()
            for entry in self._registry:
                self._start_worker(entry)

    def add_worker(self, entry: ManagedModel) -> None:
        """Start serving a model registered after :meth:`start` was called."""
        with self._lock:
            if self._running and entry.name not in self._workers:
                self._start_worker(entry)

    def _start_worker(self, entry: ManagedModel) -> None:
        # maxsize=0 (the default config) keeps the legacy unbounded queue.
        q: "queue.Queue" = queue.Queue(maxsize=self._config.max_queue_depth)
        worker = threading.Thread(
            target=self._worker_loop,
            args=(entry, q),
            name=f"infer-{entry.name}",
            daemon=True,
        )
        self._queues[entry.name] = q
        self._workers[entry.name] = worker
        entry.tracker.start()
        worker.start()

    def stop(self) -> None:
        """Stop all workers, failing any requests still queued behind the stop."""
        with self._lock:
            if not self._running:
                return
            self._running = False
            queues = dict(self._queues)
            workers = dict(self._workers)
            self._queues.clear()
            self._workers.clear()
        for q in queues.values():
            q.put(_STOP)
        for name, worker in workers.items():
            worker.join(timeout=30.0)
            if worker.is_alive():
                # The worker is wedged past the join timeout (e.g. deep in a
                # quarantine wait).  Leave its queue alone: draining here could
                # consume the _STOP sentinel it still needs to terminate.
                continue
            # Anything enqueued after the sentinel is failed, not dropped.
            q = queues[name]
            while True:
                try:
                    item = q.get_nowait()
                except queue.Empty:
                    break
                if item is not _STOP:
                    item._fail(ExperimentError("inference engine stopped"))

    # ------------------------------------------------------------------ #
    @staticmethod
    def _abort_probe(breaker) -> None:
        """Tell the breaker an admitted-by-``allow`` request never queued.

        A half-open breaker counts every ``allow`` as an in-flight probe; an
        admission that fails afterwards (queue full, engine stopping, dead
        worker) must report the probe as failed or the probe budget leaks and
        the breaker sheds forever in half-open.
        """
        if breaker is not None:
            breaker.record(0.0, failed=True)

    def _shed(self, entry: ManagedModel, reason: str, count: int = 1) -> None:
        """Account ``count`` shed requests against one model."""
        with self._shed_lock:
            stats = entry.stats
            if reason == "queue_full":
                stats.shed_queue_full += count
            elif reason == "breaker_open":
                stats.shed_breaker += count
            else:
                stats.shed_deadline += count
        entry.tracker.record_shed(reason, count)
        telemetry = self._telemetry
        if telemetry is not None and telemetry.enabled:
            for _ in range(count):
                telemetry.request_shed(entry.name, reason)

    def submit(
        self,
        model_name: str,
        sample: np.ndarray,
        deadline_seconds: Optional[float] = None,
    ) -> InferenceRequest:
        """Enqueue one sample; returns a request handle with ``result()``.

        Raises :class:`ServiceOverloadError` when overload protection sheds
        the request (full bounded queue under the ``"reject"`` policy, block
        timeout expiry under ``"block"``, or an open circuit breaker), and
        :class:`ExperimentError` when the engine is stopped or the model's
        worker has died.  ``deadline_seconds`` (default
        ``ServiceConfig.default_deadline_seconds``) starts the request's
        latency budget at admission.
        """
        entry = self._registry.get(model_name)
        config = self._config
        sample = np.asarray(sample, dtype=FLOAT_DTYPE)
        if sample.shape != entry.model.input_shape:
            raise ShapeError(
                f"model {model_name!r} expects per-sample shape "
                f"{entry.model.input_shape}, got {sample.shape}"
            )
        breaker = entry.breaker
        if breaker is not None and not breaker.allow(len(entry.quarantined)):
            self._shed(entry, "breaker_open")
            raise ServiceOverloadError(
                f"model {model_name!r} circuit breaker is open",
                reason="breaker_open",
            )
        if deadline_seconds is None:
            deadline_seconds = config.default_deadline_seconds
        request = InferenceRequest(model_name, sample, deadline_seconds)
        # Enqueue under the engine lock: a concurrent stop() (which also takes
        # the lock) can then never drain-and-join between our running check
        # and the put, which would strand the request until its timeout.
        blocked = False
        with self._lock:
            if not self._running:
                self._abort_probe(breaker)
                raise ExperimentError("inference engine is not running")
            if model_name in self._dead_workers:
                self._abort_probe(breaker)
                raise ExperimentError(
                    f"worker for model {model_name!r} died; restart the engine"
                )
            q = self._queues.get(model_name)
            if q is None:
                self._abort_probe(breaker)
                raise ExperimentError(f"no worker running for model {model_name!r}")
            try:
                q.put_nowait(request)
            except queue.Full:
                if config.admission_policy == "reject":
                    self._shed(entry, "queue_full")
                    self._abort_probe(breaker)
                    raise ServiceOverloadError(
                        f"model {model_name!r} queue is full "
                        f"(depth {config.max_queue_depth})",
                        reason="queue_full",
                    ) from None
                blocked = True
            else:
                depth = q.qsize()
                if depth > entry.stats.queue_depth_highwater:
                    entry.stats.queue_depth_highwater = depth
        if blocked:
            # Block policy: wait for queue space OUTSIDE the engine lock so a
            # full queue behind a quarantine-wedged worker can never hold up
            # stop() or other models' submits.  Short put timeouts let us
            # re-check for shutdown/worker death while waiting.
            give_up = time.perf_counter() + config.admission_block_timeout_seconds
            while True:
                remaining = give_up - time.perf_counter()
                if remaining <= 0:
                    self._shed(entry, "queue_full")
                    self._abort_probe(breaker)
                    raise ServiceOverloadError(
                        f"model {model_name!r} queue stayed full for "
                        f"{config.admission_block_timeout_seconds}s",
                        reason="queue_full",
                    )
                if not self._running or model_name in self._dead_workers:
                    self._abort_probe(breaker)
                    raise ExperimentError(
                        "inference engine stopped while waiting for queue space"
                    )
                try:
                    q.put(request, timeout=min(0.05, remaining))
                    break
                except queue.Full:
                    continue
            with self._lock:
                depth = q.qsize()
                if depth > entry.stats.queue_depth_highwater:
                    entry.stats.queue_depth_highwater = depth
                if not request.done() and (
                    not self._running or model_name in self._dead_workers
                ):
                    # stop() or a worker death may have drained the queue
                    # before our put landed; fail the request rather than
                    # strand it to its timeout.
                    request._fail(
                        ExperimentError(
                            "inference engine stopped while the request was queued"
                        )
                    )
        entry.tracker.record_admitted()
        return request

    # ------------------------------------------------------------------ #
    def _instruments(self, entry: ManagedModel) -> Optional[dict]:
        """Prefetched per-model metric handles for the serve hot path.

        Instrument lookup hashes names and takes the registry lock; doing it
        once per worker (not per batch) keeps the per-batch telemetry cost to
        a few lock-guarded adds.  Returns ``None`` when telemetry is off,
        which short-circuits every hot-path hook to one ``is None`` check.
        """
        telemetry = self._telemetry
        if telemetry is None or not telemetry.enabled:
            return None
        buckets = telemetry.config.latency_buckets
        metrics = telemetry.metrics
        return {
            "tracer": telemetry.tracer,
            "batch_seconds": metrics.histogram(
                "repro_serve_batch_seconds", buckets=buckets, model=entry.name
            ),
            "request_seconds": metrics.histogram(
                "repro_serve_request_seconds", buckets=buckets, model=entry.name
            ),
            "requests": metrics.counter(
                "repro_serve_requests_total", model=entry.name
            ),
            "failed": metrics.counter(
                "repro_serve_requests_failed_total", model=entry.name
            ),
            "batches": metrics.counter(
                "repro_serve_batches_total", model=entry.name
            ),
            "fused": metrics.counter(
                "repro_serve_fused_total", model=entry.name
            ),
            "fused_fallback": metrics.counter(
                "repro_serve_fused_fallback_total", model=entry.name
            ),
            "certifications": metrics.counter(
                "repro_fusion_certifications_total", model=entry.name
            ),
        }

    def _warm_plans(self, entry: ManagedModel) -> None:
        """Precompile (and certify) the plans variable-occupancy serving uses.

        Runs once per worker before it accepts requests: every occupancy
        ``1..max_batch`` gets its bit-exact plan -- and, with fused serving
        on, its fused plan plus ULP certification -- compiled up front, so no
        live request ever pays a plan compile or a calibration run.  Skipped
        while the model is quarantined (plans would be dropped on the
        quarantine lift anyway); serving then warms lazily as before.
        """
        config = self._config
        if not config.precompile_plans:
            return
        with entry.lock:
            if not entry.is_healthy():
                return
            probe = np.zeros((1,) + entry.model.input_shape, dtype=FLOAT_DTYPE)
            occupancies = (
                [config.max_batch]
                if config.fixed_batch_shape
                else range(1, config.max_batch + 1)
            )
            for occupancy in occupancies:
                batch = np.broadcast_to(probe, (occupancy,) + probe.shape[1:])
                _outputs, serve_info = entry.model.predict_served(
                    batch,
                    fused=config.fused_forward,
                    certify=config.certify_fusion,
                )
                if serve_info["certified_now"]:
                    entry.stats.fusion_certifications += 1

    def _worker_loop(self, entry: ManagedModel, q: "queue.Queue") -> None:
        try:
            self._serve_loop(entry, q)
        except BaseException:
            # The worker died with an unexpected error (not the clean _STOP
            # path).  Fail everything still queued and poison future submits
            # so callers fail fast instead of queueing against a dead model.
            self._on_worker_death(entry, q)
            raise

    def _serve_loop(self, entry: ManagedModel, q: "queue.Queue") -> None:
        config = self._config
        instruments = self._instruments(entry)
        self._warm_plans(entry)
        while True:
            item = q.get()
            if item is _STOP:
                return
            # Work-conserving gather: take what is already queued, never wait.
            batch = [item]
            stopping = False
            while len(batch) < config.max_batch:
                try:
                    extra = q.get_nowait()
                except queue.Empty:
                    break
                if extra is _STOP:
                    stopping = True
                    break
                batch.append(extra)
            batch = self._drop_expired(entry, batch)
            if batch:
                self._execute(entry, batch, instruments)
            if stopping:
                return

    def _drop_expired(
        self, entry: ManagedModel, batch: list[InferenceRequest]
    ) -> list[InferenceRequest]:
        """Drop deadline-passed requests before compute; they count as shed."""
        now = time.perf_counter()
        live = [r for r in batch if r.deadline is None or now < r.deadline]
        expired = len(batch) - len(live)
        if expired:
            breaker = entry.breaker
            for request in batch:
                if request.deadline is not None and now >= request.deadline:
                    request._fail(
                        DeadlineExceededError(
                            f"request against model {entry.name!r} missed its "
                            "deadline before compute"
                        )
                    )
                    if breaker is not None:
                        breaker.record(0.0, failed=True)
            self._shed(entry, "deadline", expired)
        return live

    def _on_worker_death(self, entry: ManagedModel, q: "queue.Queue") -> None:
        # Mark dead under the engine lock FIRST: any submit serialized after
        # this point fails fast, and any put that already landed is drained
        # below -- no request can be stranded in between.
        with self._lock:
            self._dead_workers.add(entry.name)
        failures = 0
        while True:
            try:
                item = q.get_nowait()
            except queue.Empty:
                break
            if item is _STOP:
                continue
            item._fail(
                ExperimentError(f"inference worker for model {entry.name!r} died")
            )
            failures += 1
        if failures:
            with entry.lock:
                entry.stats.requests_failed += failures
            entry.tracker.record_request_failures(failures)

    def _execute(
        self,
        entry: ManagedModel,
        batch: list[InferenceRequest],
        instruments: Optional[dict] = None,
    ) -> None:
        config = self._config
        began = time.perf_counter() if instruments is not None else 0.0
        try:
            with entry.lock:
                if not entry.wait_healthy(timeout=config.quarantine_wait_seconds):
                    raise ExperimentError(
                        f"model {entry.name!r} stayed quarantined for more than "
                        f"{config.quarantine_wait_seconds}s"
                    )
                if not entry.is_healthy():  # pragma: no cover - invariant guard
                    entry.stats.served_during_quarantine += len(batch)
                stacked = np.stack([request.sample for request in batch])
                # Batches execute at their actual occupancy: the compiled
                # forward plans accept any batch size (one cached plan per
                # size), so padding to max_batch -- which computed up to
                # max_batch - 1 throwaway samples per partial batch -- is only
                # done when a fixed-shape plan is explicitly configured.
                if config.fixed_batch_shape and stacked.shape[0] < config.max_batch:
                    pad = np.zeros(
                        (config.max_batch - stacked.shape[0],) + stacked.shape[1:],
                        dtype=stacked.dtype,
                    )
                    stacked = np.concatenate([stacked, pad], axis=0)
                    entry.stats.samples_padded += pad.shape[0]
                # The production forward: fused by default, but only served
                # through a plan whose network passed ULP certification at
                # this batch size -- anything else silently falls back to the
                # bit-exact plan (attributed below).
                outputs, serve_info = entry.model.predict_served(
                    stacked,
                    fused=config.fused_forward,
                    certify=config.certify_fusion,
                )
                outputs = outputs[: len(batch)]
                entry.stats.batches_executed += 1
                entry.stats.samples_served += len(batch)
                # A serve through repaired-but-inexact (degraded) layers still
                # answers, but the SLO report separates it from healthy serves.
                degraded_serving = bool(entry.degraded)
                if degraded_serving:
                    entry.stats.served_degraded += len(batch)
                mode = serve_info["mode"]
                if mode == "fused":
                    entry.stats.fused_served += len(batch)
                    if serve_info["uncertified"]:
                        entry.stats.uncertified_fused_served += len(batch)
                elif mode == "fallback":
                    entry.stats.fused_fallbacks += len(batch)
                if serve_info["certified_now"]:
                    entry.stats.fusion_certifications += 1
        except BaseException as error:  # noqa: BLE001 - forwarded to requests
            with entry.lock:
                entry.stats.requests_failed += len(batch)
            for request in batch:
                request._fail(error)
            entry.tracker.record_request_failures(len(batch))
            breaker = entry.breaker
            if breaker is not None:
                for _ in batch:
                    breaker.record(0.0, failed=True)
            if instruments is not None:
                instruments["failed"].inc(len(batch))
                instruments["tracer"].record(
                    "serve.batch",
                    start=began,
                    attrs={
                        "model": entry.name,
                        "occupancy": len(batch),
                        "error": type(error).__name__,
                    },
                )
            return
        completed_at = time.perf_counter()
        for request, output in zip(batch, outputs):
            request._complete(output, at=completed_at)
        latencies = [request.latency_seconds or 0.0 for request in batch]
        with entry.lock:
            entry.stats.requests_completed += len(batch)
            for latency in latencies:
                entry.stats.total_latency_seconds += latency
                entry.stats.max_latency_seconds = max(
                    entry.stats.max_latency_seconds, latency
                )
        entry.tracker.record_served(len(batch), degraded_serving, latencies)
        breaker = entry.breaker
        if breaker is not None:
            for latency in latencies:
                breaker.record(latency)
        if instruments is not None:
            ended = time.perf_counter()
            instruments["batches"].inc()
            instruments["requests"].inc(len(batch))
            instruments["batch_seconds"].observe(ended - began)
            instruments["request_seconds"].observe_many(latencies)
            mode = serve_info["mode"]
            if mode == "fused":
                instruments["fused"].inc(len(batch))
            elif mode == "fallback":
                instruments["fused_fallback"].inc(len(batch))
            if serve_info["certified_now"]:
                certificate = serve_info["certificate"]
                instruments["certifications"].inc()
                # The calibration ran inside this batch's forward; backdate
                # the span so its duration is the measured calibration cost.
                instruments["tracer"].record(
                    "plan.certify",
                    start=ended - certificate.calibration_seconds,
                    end=ended,
                    attrs={
                        "model": entry.name,
                        "batch_size": certificate.batch_size,
                        "certified": certificate.certified,
                        "max_ulp": certificate.max_ulp,
                        "ulp_bound": certificate.ulp_bound,
                    },
                )
            instruments["tracer"].record(
                "serve.batch",
                start=began,
                end=ended,
                attrs={
                    "model": entry.name,
                    "occupancy": len(batch),
                    "mode": mode,
                },
            )
