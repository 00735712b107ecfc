"""Tests for the scrubber (detection/quarantine/recovery) and the SLA tracker."""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager

import numpy as np
import pytest

from repro.analysis.availability import AvailabilityModel
from repro.core.checkpoint import weight_fingerprint
from repro.service import SLATracker
from repro.service.pressure import FaultPressureDriver


def bit_identical(current: np.ndarray, golden: np.ndarray) -> bool:
    return bool(
        np.array_equal(current.view(np.uint32), np.asarray(golden).view(np.uint32))
    )


def _corrupt(entry, index: int, word: int, bit: int) -> None:
    layer = entry.model.layers[index]
    weights = layer.get_weights()
    bits = weights.view(np.uint32).ravel().copy()
    bits[word] ^= np.uint32(1 << bit)
    layer.set_weights(bits.view(np.float32).reshape(weights.shape))


class TestScrubber:
    @pytest.mark.parametrize("kind", ["conv", "bias", "dense"])
    def test_single_corruption_recovers_bit_exact(
        self, sync_service, golden_weights, kind
    ):
        service, entry = sync_service
        from repro.nn.layers import Bias, Conv2D, Dense

        layer_type = {"conv": Conv2D, "bias": Bias, "dense": Dense}[kind]
        index = next(
            i
            for i in entry.parameterized_indices
            if isinstance(entry.model.layers[i], layer_type)
        )
        _corrupt(entry, index, word=1, bit=29)
        service.scrub_now(entry.name)
        assert entry.is_healthy()
        assert index in entry.ever_quarantined
        assert bit_identical(
            entry.model.layers[index].get_weights(), golden_weights[index]
        )
        report = entry.tracker.report(0.25)
        assert report.error_events_detected >= 1
        assert report.layers_recovered_bit_exact >= 1

    def test_simultaneous_conv_and_bias_corruption(
        self, sync_service, golden_weights
    ):
        """The mutually-dependent pair between two checkpoints heals in one job."""
        service, entry = sync_service
        from repro.nn.layers import Bias, Conv2D

        conv = [
            i
            for i in entry.parameterized_indices
            if isinstance(entry.model.layers[i], Conv2D)
        ][-1]
        bias = conv + 1
        assert isinstance(entry.model.layers[bias], Bias)
        _corrupt(entry, conv, word=5, bit=28)
        _corrupt(entry, bias, word=2, bit=27)
        service.scrub_now(entry.name)
        assert entry.is_healthy()
        for index in (conv, bias):
            assert bit_identical(
                entry.model.layers[index].get_weights(), golden_weights[index]
            )

    def test_clean_model_never_quarantined(self, sync_service):
        service, entry = sync_service
        service.scrub_now(entry.name)
        assert entry.is_healthy()
        assert not entry.ever_quarantined
        report = entry.tracker.report(0.25)
        assert report.detections >= 1
        assert report.recoveries == 0

    def test_lock_wait_is_not_charged_to_detection(self, sync_service, monkeypatch):
        # A reader holds the model lock for 50 ms right after the first
        # detection slice opens its span: the slice waits, and that wait shows
        # on the span as ``lock_wait_s`` but never in the recorded Td.
        service, entry = sync_service
        tracer = service.telemetry.tracer
        span = tracer.span
        holders: list[threading.Thread] = []

        @contextmanager
        def contended_span(name, **kwargs):
            with span(name, **kwargs) as handle:
                if name == "scrub.detect_slice" and not holders:
                    acquired = threading.Event()

                    def hold():
                        with entry.lock:
                            acquired.set()
                            time.sleep(0.05)

                    holders.append(threading.Thread(target=hold))
                    holders[0].start()
                    assert acquired.wait(timeout=10.0)
                yield handle

        recorded: list[float] = []
        record_detection = entry.tracker.record_detection

        def recording(seconds):
            recorded.append(seconds)
            record_detection(seconds)

        monkeypatch.setattr(tracer, "span", contended_span)
        monkeypatch.setattr(entry.tracker, "record_detection", recording)
        service.scrub_now(entry.name)
        holders[0].join(timeout=10.0)
        slices = [s for s in tracer.spans() if s.name == "scrub.detect_slice"]
        assert slices and all("lock_wait_s" in s.attrs for s in slices)
        assert slices[0].attrs["lock_wait_s"] >= 0.05
        held = sum(s.duration - s.attrs["lock_wait_s"] for s in slices)
        assert len(recorded) == 1
        assert recorded[0] <= held + 1e-9

    def test_accepted_degraded_layer_is_skipped_until_weights_change(
        self, sync_service, golden_weights
    ):
        service, entry = sync_service
        index = entry.parameterized_indices[0]
        _corrupt(entry, index, word=0, bit=28)
        # Plant a degraded acceptance of the *current* (corrupted) state.
        entry.degraded[index] = weight_fingerprint(
            entry.model.layers[index].get_weights()
        )
        service.scrub_now(entry.name)
        assert entry.is_healthy()
        assert index in entry.degraded  # still accepted, not re-quarantined
        # A further fault changes the fingerprint and re-opens recovery.
        _corrupt(entry, index, word=3, bit=27)
        service.scrub_now(entry.name)
        assert entry.is_healthy()
        assert index not in entry.degraded
        assert bit_identical(
            entry.model.layers[index].get_weights(), golden_weights[index]
        )

    def test_reopen_degraded_restores_stashed_bits(self, sync_service):
        service, entry = sync_service
        index = entry.parameterized_indices[0]
        golden = entry.model.layers[index].get_weights()
        _corrupt(entry, index, word=0, bit=28)
        stored = entry.model.layers[index].get_weights()
        entry.degraded[index] = b"whatever"
        entry.degraded_originals[index] = stored
        entry.model.layers[index].set_weights(golden * 0)  # bogus estimate
        reopened = service.scrubber.reopen_degraded(entry)
        assert reopened == [index]
        assert not entry.degraded
        assert bit_identical(entry.model.layers[index].get_weights(), stored)
        service.scrub_now(entry.name)
        assert bit_identical(entry.model.layers[index].get_weights(), golden)


class TestFaultPressureDriver:
    def test_inject_once_records_detectable_ground_truth(self, sync_service):
        service, entry = sync_service
        driver = FaultPressureDriver(entry, seed=3)
        event = driver.inject_once()
        assert event is not None
        assert event.layer_index in entry.parameterized_indices
        report = entry.protector.detect(layer_indices=[event.layer_index])
        assert report.erroneous_layers == [event.layer_index]
        assert driver.injected_layers(entry.name) == {event.layer_index}
        service.scrub_now(entry.name)
        assert entry.is_healthy()


class TestSLATracker:
    def test_downtime_accounting(self):
        clock = iter(float(t) for t in range(100)).__next__
        tracker = SLATracker("m", model_bytes=1000, clock=clock)
        tracker.start()  # t=0
        tracker.mark_unavailable()  # t=1
        tracker.mark_available()  # t=2 -> 1s downtime
        observed = tracker.observed_availability()  # elapsed t=3
        assert observed == pytest.approx(1.0 - 1.0 / 3.0)

    def test_report_uses_measured_times(self):
        tracker = SLATracker("m", model_bytes=37890 * 4)
        tracker.start()
        tracker.record_detection(0.001)
        tracker.record_detection(0.003)
        tracker.record_recovery(0.5, layers=1, bit_exact_layers=1)
        tracker.record_errors_detected(1)
        report = tracker.report(scrub_period_seconds=0.25)
        assert report.mean_detection_seconds == pytest.approx(0.002)
        assert report.mean_recovery_seconds == pytest.approx(0.5)
        assert report.max_recovery_seconds == pytest.approx(0.5)
        assert report.error_events_detected == 1
        assert report.layers_recovered_bit_exact == 1
        # Detection duty cycle ~0.8% at a 0.25 s period -> availability ~0.992.
        assert 0.95 < report.availability < 1.0
        assert report.minimum_accuracy > 0.999999

    def test_availability_model_round_trip(self):
        tracker = SLATracker("m", model_bytes=10**6)
        tracker.start()
        tracker.record_detection(0.002)
        tracker.record_recovery(0.1, layers=1, bit_exact_layers=1)
        model = tracker.availability_model(scrub_period_seconds=0.5)
        assert isinstance(model, AvailabilityModel)
        assert model.detection_seconds == pytest.approx(0.002)
        assert model.recovery_seconds == pytest.approx(0.1)

    def test_overwhelmed_maintenance_reports_zero_availability(self):
        tracker = SLATracker("m", model_bytes=1000)
        tracker.start()
        tracker.record_detection(2.0)
        tracker.record_recovery(5.0, layers=1, bit_exact_layers=0)
        report = tracker.report(
            scrub_period_seconds=1.0, error_interval_seconds=3.0
        )
        assert report.availability == 0.0
