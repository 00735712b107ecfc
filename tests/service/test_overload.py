"""Tests for overload protection: admission control, deadlines, breaker,
and the work-conserving batch gather.

The wedge idiom: quarantining the model parks its worker inside
``wait_healthy`` (holding the model lock) so the bounded queue fills under
test control; clearing the quarantine releases the worker and everything
drains.  ``scrub_period_seconds`` is set high enough that the scrubber never
interferes, and ``max_batch=1`` makes the worker hold exactly one in-flight
request.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.exceptions import (
    DeadlineExceededError,
    ExperimentError,
    ServiceOverloadError,
)
from repro.service import engine as engine_module
from repro.service import (
    CircuitBreaker,
    SelfHealingService,
    ServiceConfig,
)

pytestmark = pytest.mark.filterwarnings("ignore::pytest.PytestUnhandledThreadExceptionWarning")


def wedged_service(**overrides):
    """A service whose worker is parked in ``wait_healthy`` by a quarantine."""
    fields = dict(
        max_batch=1,
        max_queue_depth=1,
        quarantine_wait_seconds=5.0,
        scrub_period_seconds=30.0,
        recovery_async=False,
    )
    fields.update(overrides)
    service = SelfHealingService(ServiceConfig(**fields))
    entry = service.load_model("mnist_reduced")
    entry.quarantine([entry.parameterized_indices[0]])
    service.start(scrub=False)
    return service, entry


def sample_for(entry) -> np.ndarray:
    return np.zeros(entry.model.input_shape, dtype=np.float32)


def wait_for_worker_pickup(service, entry, timeout=2.0):
    """Block until the wedged worker has popped the head-of-line request."""
    q = service.engine._queues[entry.name]
    deadline = time.perf_counter() + timeout
    while q.qsize() > 0:
        if time.perf_counter() > deadline:
            raise AssertionError("worker never picked up the head request")
        time.sleep(0.001)
    # The pop happens before the worker reaches wait_healthy; give it a beat
    # so follow-up submits purely fill the queue.
    time.sleep(0.05)


class TestBoundedQueueAdmission:
    def test_reject_policy_sheds_with_queue_full_reason(self):
        service, entry = wedged_service()
        try:
            first = service.submit(entry.name, sample_for(entry))
            wait_for_worker_pickup(service, entry)
            second = service.submit(entry.name, sample_for(entry))
            with pytest.raises(ServiceOverloadError) as excinfo:
                service.submit(entry.name, sample_for(entry))
            assert excinfo.value.reason == "queue_full"
            assert entry.stats.shed_queue_full == 1
            assert entry.stats.requests_shed == 1
            assert entry.stats.queue_depth_highwater == 1
            entry.clear_quarantine([entry.parameterized_indices[0]])
            first.result(timeout=10.0)
            second.result(timeout=10.0)
        finally:
            service.stop()

    def test_block_policy_times_out_then_sheds(self):
        service, entry = wedged_service(
            admission_policy="block", admission_block_timeout_seconds=0.2
        )
        try:
            service.submit(entry.name, sample_for(entry))
            wait_for_worker_pickup(service, entry)
            service.submit(entry.name, sample_for(entry))
            began = time.perf_counter()
            with pytest.raises(ServiceOverloadError) as excinfo:
                service.submit(entry.name, sample_for(entry))
            waited = time.perf_counter() - began
            assert excinfo.value.reason == "queue_full"
            assert waited >= 0.2
            assert entry.stats.shed_queue_full == 1
            entry.clear_quarantine([entry.parameterized_indices[0]])
        finally:
            service.stop()

    def test_block_policy_admits_when_space_frees(self):
        service, entry = wedged_service(
            admission_policy="block", admission_block_timeout_seconds=5.0
        )
        try:
            first = service.submit(entry.name, sample_for(entry))
            wait_for_worker_pickup(service, entry)
            second = service.submit(entry.name, sample_for(entry))
            releaser = threading.Timer(
                0.2,
                entry.clear_quarantine,
                args=([entry.parameterized_indices[0]],),
            )
            releaser.start()
            # Blocks against the full queue until the release drains it.
            third = service.submit(entry.name, sample_for(entry))
            releaser.join()
            for request in (first, second, third):
                request.result(timeout=10.0)
            assert entry.stats.requests_shed == 0
        finally:
            service.stop()

    def test_queue_full_admission_race_conserves_requests(self):
        """Concurrent submitters against a full queue: admitted + shed == sent."""
        service, entry = wedged_service(max_queue_depth=4)
        admitted: list = []
        shed = threading.Semaphore(0)
        shed_count = [0]
        lock = threading.Lock()

        def submitter(n):
            for _ in range(n):
                try:
                    request = service.submit(entry.name, sample_for(entry))
                except ServiceOverloadError:
                    with lock:
                        shed_count[0] += 1
                else:
                    with lock:
                        admitted.append(request)

        try:
            head = service.submit(entry.name, sample_for(entry))
            wait_for_worker_pickup(service, entry)
            threads = [
                threading.Thread(target=submitter, args=(10,)) for _ in range(6)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10.0)
                assert not thread.is_alive(), "submitter hung"
            assert len(admitted) + shed_count[0] == 60
            # The queue bound held while the worker was wedged.
            assert entry.stats.queue_depth_highwater <= 4
            assert entry.stats.shed_queue_full == shed_count[0]
            entry.clear_quarantine([entry.parameterized_indices[0]])
            head.result(timeout=10.0)
            for request in admitted:
                request.result(timeout=10.0)
        finally:
            service.stop()

    def test_unbounded_default_never_sheds(self):
        service, entry = wedged_service(max_queue_depth=0)
        try:
            requests = [
                service.submit(entry.name, sample_for(entry)) for _ in range(32)
            ]
            assert entry.stats.requests_shed == 0
            entry.clear_quarantine([entry.parameterized_indices[0]])
            for request in requests:
                request.result(timeout=10.0)
        finally:
            service.stop()


class TestDeadlines:
    def test_expired_request_dropped_before_compute(self):
        service, entry = wedged_service(max_queue_depth=0)
        try:
            head = service.submit(entry.name, sample_for(entry))
            wait_for_worker_pickup(service, entry)
            doomed = service.submit(
                entry.name, sample_for(entry), deadline_seconds=0.05
            )
            time.sleep(0.2)
            entry.clear_quarantine([entry.parameterized_indices[0]])
            head.result(timeout=10.0)
            with pytest.raises(DeadlineExceededError):
                doomed.result(timeout=10.0)
            assert doomed.failed
            assert entry.stats.shed_deadline == 1
            # A deadline drop is shed, not a request failure.
            assert entry.stats.requests_failed == 0
        finally:
            service.stop()

    def test_default_deadline_comes_from_config(self):
        service, entry = wedged_service(
            max_queue_depth=0, default_deadline_seconds=0.05
        )
        try:
            head = service.submit(entry.name, sample_for(entry))
            wait_for_worker_pickup(service, entry)
            doomed = service.submit(entry.name, sample_for(entry))
            assert doomed.deadline is not None
            time.sleep(0.2)
            entry.clear_quarantine([entry.parameterized_indices[0]])
            with pytest.raises(DeadlineExceededError):
                doomed.result(timeout=10.0)
        finally:
            service.stop()

    def test_lone_deadline_request_is_served_not_shed(self):
        # A lone request never waits for batch-mates, so a 0.2 s deadline
        # leaves its whole budget to compute.
        service = SelfHealingService(ServiceConfig(scrub_period_seconds=30.0))
        entry = service.load_model("mnist_reduced")
        service.start(scrub=False)
        try:
            request = service.submit(
                entry.name, sample_for(entry), deadline_seconds=0.2
            )
            request.result(timeout=1.0)
            assert request.latency_seconds < 0.5
            assert entry.stats.shed_deadline == 0
        finally:
            service.stop()


class TestWorkConservingGather:
    """Batch composition with the worker parked on a quarantine (no sleeps).

    The worker takes the head request, then blocks in ``wait_healthy``;
    everything submitted after that queues up behind it.  Lifting the
    quarantine releases the worker, whose occupancies are then fixed by the
    queue contents alone.
    """

    @staticmethod
    def parked_service(monkeypatch):
        service, entry = wedged_service(max_batch=16, max_queue_depth=0)
        parked = threading.Event()
        wait_healthy = entry.wait_healthy

        def signalling_wait_healthy(timeout=None):
            parked.set()
            return wait_healthy(timeout=timeout)

        occupancies: list[int] = []
        predict_served = entry.model.predict_served

        def recording_predict_served(batch, **kwargs):
            occupancies.append(len(batch))
            return predict_served(batch, **kwargs)

        monkeypatch.setattr(entry, "wait_healthy", signalling_wait_healthy)
        monkeypatch.setattr(entry.model, "predict_served", recording_predict_served)
        head = service.submit(entry.name, sample_for(entry))
        assert parked.wait(timeout=10.0), "worker never reached wait_healthy"
        return service, entry, head, occupancies

    def test_serves_what_is_queued_up_to_max_batch(self, monkeypatch):
        service, entry, head, occupancies = self.parked_service(monkeypatch)
        try:
            queued = [service.submit(entry.name, sample_for(entry)) for _ in range(20)]
            entry.clear_quarantine([entry.parameterized_indices[0]])
            for request in [head, *queued]:
                request.result(timeout=10.0)
            assert occupancies == [1, 16, 4]
            assert entry.stats.batches_executed == 3
        finally:
            service.stop()

    def test_stop_mid_drain_serves_the_drained_batch(self, monkeypatch):
        service, entry, head, occupancies = self.parked_service(monkeypatch)
        worker = service.engine._workers[entry.name]
        try:
            queued = [service.submit(entry.name, sample_for(entry)) for _ in range(3)]
            service.engine._queues[entry.name].put(engine_module._STOP)
            entry.clear_quarantine([entry.parameterized_indices[0]])
            for request in [head, *queued]:
                request.result(timeout=10.0)
            worker.join(timeout=10.0)
            assert not worker.is_alive()
            assert occupancies == [1, 3]
        finally:
            service.stop()


class TestWorkerFailure:
    def test_wait_healthy_expiry_fails_the_batch(self):
        service, entry = wedged_service(
            max_queue_depth=0, quarantine_wait_seconds=0.15
        )
        try:
            request = service.submit(entry.name, sample_for(entry))
            with pytest.raises(ExperimentError, match="stayed quarantined"):
                request.result(timeout=10.0)
            assert entry.stats.requests_failed == 1
            # The worker survives the expiry and keeps serving.
            entry.clear_quarantine([entry.parameterized_indices[0]])
            service.submit(entry.name, sample_for(entry)).result(timeout=10.0)
        finally:
            service.stop()

    def test_worker_death_fails_queued_requests_fast(self, monkeypatch):
        service, entry = wedged_service(max_queue_depth=0)
        entry.clear_quarantine([entry.parameterized_indices[0]])
        release = threading.Event()

        def crash(entry_, batch, instruments=None):
            # Hold the worker inside the batch (like a wedged forward) until
            # the test has queued requests behind it, then die.
            for request in batch:
                request._fail(RuntimeError("boom"))
            release.wait(timeout=10.0)
            raise RuntimeError("boom")

        monkeypatch.setattr(service.engine, "_execute", crash)
        try:
            head = service.submit(entry.name, sample_for(entry))
            wait_for_worker_pickup(service, entry)
            queued = [service.submit(entry.name, sample_for(entry)) for _ in range(3)]
            release.set()
            with pytest.raises(RuntimeError):
                head.result(timeout=10.0)
            # Queued requests fail fast with the death diagnostic, not a hang.
            for request in queued:
                with pytest.raises(ExperimentError, match="died"):
                    request.result(timeout=10.0)
            # Later submits fail fast instead of queueing against the corpse.
            deadline = time.perf_counter() + 5.0
            while time.perf_counter() < deadline:
                try:
                    service.submit(entry.name, sample_for(entry))
                except ExperimentError as error:
                    assert "died" in str(error)
                    break
                time.sleep(0.01)
            else:
                raise AssertionError("submit never failed fast after worker death")
            assert entry.stats.requests_failed >= 3
        finally:
            service.stop()  # must not hang on the dead worker


class TestCircuitBreakerUnit:
    """Breaker state machine under an injected clock (no sleeps)."""

    @staticmethod
    def make(config=None, **kwargs):
        clock = [0.0]
        breaker = CircuitBreaker(
            "m",
            config
            or ServiceConfig(
                breaker_enabled=True,
                breaker_p99_threshold_seconds=0.25,
                breaker_quarantine_depth=4,
                breaker_min_samples=32,
                breaker_window=64,
                breaker_backoff_seconds=0.1,
                breaker_backoff_max_seconds=2.0,
                breaker_half_open_probes=4,
                breaker_jitter=0.2,
            ),
            seed=5,
            clock=lambda: clock[0],
            **kwargs,
        )
        return breaker, clock

    def test_trips_on_quarantine_depth(self):
        breaker, _ = self.make()
        assert breaker.allow(quarantine_depth=3)
        assert not breaker.allow(quarantine_depth=4)
        assert breaker.state == "open"
        assert breaker.opens == 1
        assert breaker.shed == 1
        assert breaker.first_opened_at == 0.0

    def test_trips_on_rolling_p99(self):
        breaker, _ = self.make()
        # Below min_samples nothing trips, whatever the latencies.
        for _ in range(31):
            breaker.record(1.0)
        assert breaker.allow()
        breaker.record(1.0)  # 32nd record refreshes the cached p99
        assert breaker.rolling_p99() > 0.25
        assert not breaker.allow()
        assert breaker.state == "open"

    def test_open_sheds_until_backoff_then_half_open_probes(self):
        breaker, clock = self.make()
        assert not breaker.allow(quarantine_depth=10)
        assert not breaker.allow()  # still inside the backoff window
        # Backoff 0.1 s plus at most 20% jitter.
        clock[0] = 0.13
        # A bounded probe round is admitted, then half-open sheds again.
        assert all(breaker.allow() for _ in range(4))
        assert breaker.state == "half_open"
        assert not breaker.allow()
        # A clean probe round closes the breaker and resets the window.
        for _ in range(4):
            breaker.record(0.01)
        assert breaker.state == "closed"
        assert breaker.closes == 1
        assert breaker.rolling_p99() == 0.0
        assert breaker.allow()

    def test_probe_failure_reopens_with_doubled_backoff(self):
        breaker, clock = self.make()
        assert not breaker.allow(quarantine_depth=10)
        clock[0] = 0.13
        assert breaker.allow()  # half-open probe
        breaker.record(0.0, failed=True)
        assert breaker.state == "open"
        assert breaker.opens == 2
        # Doubled backoff: 0.2 s (+ jitter) from the re-trip.
        clock[0] = 0.13 + 0.15
        assert not breaker.allow()
        clock[0] = 0.13 + 0.25
        assert breaker.allow()

    def test_slow_probe_counts_as_failure(self):
        breaker, clock = self.make()
        assert not breaker.allow(quarantine_depth=10)
        clock[0] = 0.13
        assert breaker.allow()
        breaker.record(0.5)  # above the p99 threshold
        assert breaker.state == "open"

    def test_first_opened_at_records_the_first_trip_only(self):
        breaker, clock = self.make()
        clock[0] = 1.0
        assert not breaker.allow(quarantine_depth=10)
        assert breaker.first_opened_at == 1.0
        clock[0] = 2.0
        breaker.allow()
        breaker.record(0.0, failed=True)
        assert breaker.first_opened_at == 1.0

    def test_snapshot_is_json_shaped(self):
        breaker, _ = self.make()
        snapshot = breaker.snapshot()
        assert snapshot["state"] == "closed"
        assert set(snapshot) >= {"opens", "closes", "shed", "rolling_p99_seconds"}


class TestCircuitBreakerInEngine:
    def test_open_breaker_sheds_at_submit(self):
        service = SelfHealingService(
            ServiceConfig(
                breaker_enabled=True,
                breaker_quarantine_depth=1,
                scrub_period_seconds=30.0,
            )
        )
        entry = service.load_model("mnist_reduced")
        assert entry.breaker is not None
        service.start(scrub=False)
        try:
            entry.quarantine([entry.parameterized_indices[0]])
            with pytest.raises(ServiceOverloadError) as excinfo:
                service.submit(entry.name, sample_for(entry))
            assert excinfo.value.reason == "breaker_open"
            assert entry.breaker.state == "open"
            assert entry.stats.shed_breaker == 1
            entry.clear_quarantine([entry.parameterized_indices[0]])
        finally:
            service.stop()

    def test_breaker_disabled_by_default(self):
        service = SelfHealingService(ServiceConfig(scrub_period_seconds=30.0))
        entry = service.load_model("mnist_reduced")
        assert entry.breaker is None

    def test_probe_budget_survives_admission_failure(self):
        """An allow() that never queues must not leak the half-open probe."""
        breaker, clock = TestCircuitBreakerUnit.make()
        assert not breaker.allow(quarantine_depth=10)
        clock[0] = 0.13
        for _ in range(10):
            allowed = breaker.allow()
            if allowed:
                # Simulate the engine failing admission post-allow.
                breaker.record(0.0, failed=True)
        # Probe failures re-trip the breaker rather than wedging half-open
        # with leaked in-flight probes.
        assert breaker.state == "open"
