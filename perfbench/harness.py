"""Drive one workload against the live service and compute its metrics.

Only the service's public API is used: ``SelfHealingService``,
``InferenceEngine.submit`` (through ``SelfHealingService.submit``),
``FaultPressureDriver.inject_once``, ``Sequential.predict`` /
``predict_served``, ``MILRProtector.detect`` / ``recover``,
``Scrubber.scrub_model`` and ``ManagedModel.quarantine`` /
``clear_quarantine``.
"""

from __future__ import annotations

import ctypes
import gc
import os
import platform
import statistics
import sys
import threading
import time
from collections import deque
from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

from perfbench.benchstats import (
    due_time_latency,
    in_fault_window,
    lateness,
    percentile,
    supported_percentile,
)
from perfbench.tracing import SpanRecorder
from perfbench.workloads import WARMUP_SECONDS, Inputs, Workload, make_inputs
from repro.nn.plan import DEFAULT_ULP_BOUND, ulp_distance
from repro.service import FaultPressureDriver, SelfHealingService

#: Set-ups per run; ``setup_s`` is their median and the last one serves.
SETUPS = 3

#: Longest wait for any one request or fault heal before it counts as failed.
REQUEST_TIMEOUT_S = 30.0
HEAL_TIMEOUT_S = 15.0
HEAL_POLL_S = 0.001

OCCUPANCY_BUCKETS = (("occ1", 1, 1), ("occ2-4", 2, 4), ("occ5-8", 5, 8), ("occ9-16", 9, 16))


def _blas_threads() -> Optional[int]:
    """Thread count OpenBLAS runs with, or ``None`` when it cannot be asked."""
    libs_dir = os.path.dirname(np.__file__) + ".libs"
    try:
        names = [n for n in os.listdir(libs_dir) if "openblas" in n]
    except OSError:
        return None
    for name in names:
        try:
            lib = ctypes.CDLL(os.path.join(libs_dir, name))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def host_metadata(service: SelfHealingService, workload: Workload, seed: int) -> dict:
    """Host and run facts every result carries."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    config = asdict(service.config)
    return {
        "cpu_count": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_thread_env": {
            k: os.environ[k]
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
            if k in os.environ
        },
        "numpy": np.__version__,
        "python": sys.version.split()[0],
        "workload": workload.name,
        "seed": seed,
        "service_config": config,
    }


# ---------------------------------------------------------------------- #
# Set-up
# ---------------------------------------------------------------------- #
@dataclass
class SetUp:
    service: SelfHealingService
    entry: object
    setup_s: float
    protect_s: float
    #: Time in the worker's forward calls before the first request (traced).
    warm_s: float
    first_request: object
    #: Start of the forward that served the first request (traced); it and
    #: every later forward on the worker serve traffic.
    first_served: float


def _instrument(service: SelfHealingService, entry, recorder: SpanRecorder) -> None:
    """Record spans around each layer's public calls on this service."""

    def forward_attrs(args, result):
        return {"occupancy": int(np.shape(args[0])[0]), "mode": result[1]["mode"]}

    recorder.wrap(entry.model, "predict_served", "plan.forward", forward_attrs)
    recorder.wrap(entry.protector, "detect", "detect.call")
    recorder.wrap(entry.protector, "recover", "repair.solver")
    recorder.wrap(service.scrubber, "scrub_model", "detect.pass")
    for attr, name in (("quarantine", "registry.quarantine"),
                       ("clear_quarantine", "registry.clear")):
        original = getattr(entry, attr)

        def wrapper(layer_indices, _original=original, _name=name):
            indices = [int(i) for i in layer_indices]
            result, span = recorder.call(_name, _original, indices)
            span.attrs = {"indices": indices}
            return result

        setattr(entry, attr, wrapper)


def set_up(network: str, recorder: Optional[SpanRecorder]) -> SetUp:
    """Construct, protect, warm and start a service; answer one request."""
    began = time.perf_counter()
    service = SelfHealingService()
    loaded = time.perf_counter()
    entry = service.load_model(network)
    protect_s = time.perf_counter() - loaded
    if recorder is not None:
        _instrument(service, entry, recorder)
    service.start()
    first = service.submit(entry.name, np.zeros(entry.model.input_shape, np.float32))
    first.result(timeout=REQUEST_TIMEOUT_S * 10)
    setup_s = time.perf_counter() - began
    warm_s, first_served = 0.0, began
    if recorder is not None:
        # The worker warms every occupancy, then serves the first request:
        # every top-level forward that ended by then but the last one is warm.
        done = sorted(
            (s for s in recorder.named("plan.forward")
             if s.thread.startswith("infer-") and s.parent is None
             and began <= s.start and s.end <= first.completed_at),
            key=lambda s: s.start,
        )
        warm_s = sum(s.duration for s in done[:-1])
        first_served = done[-1].start
    return SetUp(service, entry, setup_s, protect_s, warm_s, first, first_served)


# ---------------------------------------------------------------------- #
# Load and faults
# ---------------------------------------------------------------------- #
PENDING, OK, FAILED, TIMED_OUT = 0, 1, 2, 3


class RequestLog:
    """Client-side record of every request, in submit order.

    Flat arrays rather than an object per request: a closed-loop run sends a
    few hundred thousand requests, and keeping each one alive as Python
    objects would grow the heap the garbage collector scans while the
    service is being measured.
    """

    def __init__(self, capacity: int, output_size: int):
        self.count = 0
        self.pool_index = np.zeros(capacity, np.int64)
        self.due_at = np.zeros(capacity)
        self.sent_at = np.zeros(capacity)
        self.enqueued_at = np.zeros(capacity)
        self.completed_at = np.zeros(capacity)
        self.status = np.zeros(capacity, np.int8)
        self.outputs = np.zeros((capacity, output_size), np.float32)

    _ARRAYS = ("pool_index", "due_at", "sent_at", "enqueued_at", "completed_at",
               "status", "outputs")

    def add(self, pool_index: int, due_at: float, sent_at: float) -> int:
        k = self.count
        if k == len(self.status):
            for name in self._ARRAYS:
                array = getattr(self, name)
                setattr(self, name, np.concatenate([array, np.zeros_like(array)]))
        self.pool_index[k], self.due_at[k], self.sent_at[k] = pool_index, due_at, sent_at
        self.count = k + 1
        return k

    def collect(self, k: int, request, timeout: float) -> None:
        """Wait for request ``k`` and record how it ended."""
        try:
            output = request.result(timeout=timeout)
        except TimeoutError:
            self.status[k] = TIMED_OUT
            return
        except Exception:  # noqa: BLE001 - a failed request is counted, not raised
            self.status[k] = FAILED
            return
        self.outputs[k] = np.ravel(output)
        self.enqueued_at[k] = request.enqueued_at
        self.completed_at[k] = request.completed_at
        self.status[k] = OK

    def trim(self) -> None:
        for name in self._ARRAYS:
            setattr(self, name, getattr(self, name)[: self.count])


@dataclass
class FaultRecord:
    layer_index: int
    layer_name: str
    late_s: float
    began: float
    returned: float
    healed: Optional[float]


@dataclass
class Faults:
    records: list = field(default_factory=list)
    skipped: int = 0
    skipped_undetectable: int = 0
    errors: list = field(default_factory=list)


def _submit(service, name, sample, recorder):
    if recorder is None:
        return service.submit(name, sample)
    return recorder.call("engine.submit", service.submit, name, sample)[0]


def run_closed(setup: SetUp, workload: Workload, inputs: Inputs, start: float,
               end: float, recorder: Optional[SpanRecorder], log: RequestLog) -> None:
    """Keep ``workload.outstanding`` requests in flight until ``end``.

    The engine serves one model's queue first in, first out, so waiting on
    the oldest outstanding request waits on the next completion.  Latency
    runs from the submit call.
    """
    service, name = setup.service, setup.entry.name
    pool, picks = inputs.pool, inputs.pool_index
    outstanding: deque = deque()
    cursor = 0
    while True:
        while len(outstanding) < workload.outstanding:
            index = int(picks[cursor % len(picks)])
            cursor += 1
            sent_at = time.perf_counter()
            request = _submit(service, name, pool[index], recorder)
            outstanding.append((log.add(index, sent_at, sent_at), request))
        log.collect(*outstanding.popleft(), REQUEST_TIMEOUT_S)
        if time.perf_counter() >= end:
            break
    for k, request in outstanding:
        log.collect(k, request, REQUEST_TIMEOUT_S)


def run_open(setup: SetUp, workload: Workload, inputs: Inputs, start: float,
             end: float, recorder: Optional[SpanRecorder], log: RequestLog) -> None:
    """Send each request at its seeded due time, late if the sender fell behind."""
    service, name = setup.service, setup.entry.name
    pending = []
    for offset, index in zip(inputs.due, inputs.pool_index):
        due_at = start + float(offset)
        wait = due_at - time.perf_counter()
        if wait > 0:
            time.sleep(wait)
        sent_at = time.perf_counter()
        request = _submit(service, name, inputs.pool[int(index)], recorder)
        pending.append((log.add(int(index), due_at, sent_at), request))
    give_up = time.perf_counter() + REQUEST_TIMEOUT_S
    for k, request in pending:
        log.collect(k, request, max(give_up - time.perf_counter(), 0.001))


def run_faults(setup: SetUp, inputs: Inputs, start: float, golden: dict,
               recorder: Optional[SpanRecorder], faults: Faults,
               stop: threading.Event) -> None:
    """Inject the seeded faults one at a time and time each heal.

    A fault that comes due while the previous one is still unhealed waits
    for it and records its own lateness.
    """
    entry = setup.entry
    positions = entry.parameterized_indices
    drivers: dict[int, FaultPressureDriver] = {}
    try:
        for offset, position in zip(inputs.fault_due, inputs.fault_layer):
            due_at = start + float(offset)
            if stop.wait(max(due_at - time.perf_counter(), 0.0)):
                return
            layer_index = positions[int(position)]
            driver = drivers.get(layer_index)
            if driver is None:
                driver = drivers[layer_index] = FaultPressureDriver(
                    entry, seed=inputs.driver_seeds[int(position)],
                    layer_indices=[layer_index],
                )
            began = time.perf_counter()
            if recorder is None:
                event = driver.inject_once()
            else:
                event = recorder.call("fault.inject", driver.inject_once)[0]
            returned = time.perf_counter()
            if event is None:
                faults.skipped += 1
                continue
            layer = entry.model.layers[layer_index]
            reference = golden[layer_index]
            healed = None
            # is_healthy() takes the model lock, which recovery holds while it
            # repairs, so this poll sleeps through the repair itself.
            while time.perf_counter() < returned + HEAL_TIMEOUT_S:
                if entry.is_healthy() and np.array_equal(
                    layer.get_weights().view(np.uint32), reference
                ):
                    healed = time.perf_counter()
                    break
                time.sleep(HEAL_POLL_S)
            faults.records.append(
                FaultRecord(layer_index, layer.name, began - due_at, began, returned, healed)
            )
    except Exception as error:  # noqa: BLE001 - surfaced in the result
        faults.errors.append(f"{type(error).__name__}: {error}")
    finally:
        faults.skipped_undetectable = sum(d.skipped_undetectable for d in drivers.values())


# ---------------------------------------------------------------------- #
# Output oracle
# ---------------------------------------------------------------------- #
def oracle(reference: np.ndarray, log: RequestLog, ok: np.ndarray, faults: list) -> dict:
    """Compare every answered request with the fault-free reference.

    Responses are compared by ULP distance at ``DEFAULT_ULP_BOUND``; equal
    (sample, response bytes) pairs have equal distance, so each distinct
    pair is measured once.  A wrong answer is allowed only inside an
    injection-to-heal window.
    """
    rows = np.concatenate(
        [log.pool_index[ok, None].astype(np.uint32), log.outputs[ok].view(np.uint32)], axis=1
    )
    distinct, inverse = np.unique(rows, axis=0, return_inverse=True)
    distance = np.array([
        ulp_distance(reference[int(row[0])], row[1:].view(np.float32)) for row in distinct
    ])
    wrong = distance[inverse.ravel()] > DEFAULT_ULP_BOUND
    windows = [(f.began, f.healed if f.healed is not None else np.inf) for f in faults]
    inside = in_fault_window(log.enqueued_at[ok], log.completed_at[ok], windows)
    return {"wrong": wrong, "outside": int(np.sum(wrong & ~inside)), "distinct": len(distinct)}


# ---------------------------------------------------------------------- #
# One run
# ---------------------------------------------------------------------- #
def _overlap(span, lo: float, hi: float) -> float:
    return max(0.0, min(span.end, hi) - max(span.start, lo))


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool,
                 spans_path: Optional[str] = None) -> dict:
    """Run ``workload`` once; returns everything ``run.py`` reports.

    With ``trace`` the spans are kept in memory and written to
    ``spans_path`` when the run ends.
    """
    recorder = SpanRecorder() if trace else None
    setup: Optional[SetUp] = None
    setup_s, protect_s, warm_s = [], [], []
    for _ in range(SETUPS):
        if setup is not None:
            setup.service.stop()
            setup = None
            gc.collect()
        setup = set_up(workload.network, recorder)
        setup_s.append(setup.setup_s)
        protect_s.append(setup.protect_s)
        warm_s.append(setup.warm_s)
    assert setup is not None
    try:
        result = _measure(workload, seed, seconds, setup, recorder)
    finally:
        setup.service.stop()
    result["host"] = host_metadata(setup.service, workload, seed)
    result["setup_times_s"] = setup_s
    result["e2e"]["setup_s"] = (statistics.median(setup_s), "s")
    if recorder is not None:
        result["layers"]["setup.protect_s"] = (statistics.median(protect_s), "s")
        result["layers"]["plan.warm_s"] = (statistics.median(warm_s), "s")
        if spans_path is not None:
            recorder.write(spans_path)
    return result


def _measure(workload: Workload, seed: int, seconds: float, setup: SetUp,
             recorder: Optional[SpanRecorder]) -> dict:
    service, entry = setup.service, setup.entry
    model = entry.model
    layers = entry.parameterized_indices
    weight_counts = [model.layers[i].get_weights().size for i in layers]
    inputs = make_inputs(workload, seed, seconds, model.input_shape, weight_counts)
    batch = service.config.max_batch
    with entry.lock:
        # Chunks of max_batch reuse the bit-exact plans the service warmed.
        reference = np.concatenate(
            [model.predict(inputs.pool[i : i + batch], fused=False)
             for i in range(0, len(inputs.pool), batch)]
        )
        golden = {i: model.layers[i].get_weights().view(np.uint32).copy() for i in layers}

    # Collect set-up's garbage now: otherwise the collector's first full pass
    # lands inside the timed window and stalls every thread for a while.
    gc.collect()
    log = RequestLog(max(len(inputs.due), 1024), int(np.prod(model.output_shape)))
    faults = Faults()
    stop = threading.Event()
    compiles_before = model.plan_stats.compiles
    start = time.perf_counter()
    lo, hi = start + WARMUP_SECONDS, start + WARMUP_SECONDS + seconds
    fault_thread = None
    if len(inputs.fault_due):
        fault_thread = threading.Thread(
            target=run_faults,
            args=(setup, inputs, start, golden, recorder, faults, stop),
            name="bench-faults",
        )
        fault_thread.start()
    try:
        loop = run_closed if workload.loop == "closed" else run_open
        loop(setup, workload, inputs, start, hi, recorder, log)
    finally:
        stop.set()
        if fault_thread is not None:
            fault_thread.join(HEAL_TIMEOUT_S + REQUEST_TIMEOUT_S)
    finished = time.perf_counter()
    compiles = model.plan_stats.compiles - compiles_before
    log.trim()

    ok = log.status == OK
    measured = (log.due_at >= lo) & (log.due_at < hi)
    ok_measured = ok & measured
    done_in_window = log.completed_at[ok & (log.completed_at >= lo) & (log.completed_at < hi)]
    if workload.loop == "closed":
        # The median over one-second slices, so one stall of the host does
        # not decide a run's figure.
        slices = np.linspace(lo, hi, max(int(seconds), 1) + 1)
        per_slice = np.histogram(done_in_window, bins=slices)[0] / np.diff(slices)
        throughput = float(np.median(per_slice))
    else:
        # An open loop offers a fixed count; slicing would only add the
        # per-second arrival noise.
        throughput = len(done_in_window) / seconds
    latency_ms = 1e3 * due_time_latency(
        log.due_at[ok_measured], log.completed_at[ok_measured]
    )
    late_ms = 1e3 * lateness(log.due_at[measured], log.sent_at[measured])
    failed = int(np.sum(log.status == FAILED))
    timed_out = int(np.sum(log.status == TIMED_OUT))
    records = faults.records
    unhealed = sum(1 for f in records if f.healed is None)
    bit_exact_end = all(
        np.array_equal(model.layers[i].get_weights().view(np.uint32), golden[i]) for i in layers
    )
    check = oracle(reference, log, ok, records)
    wrong_measured = int(np.sum(check["wrong"] & measured[ok]))
    heal_ms = [1e3 * (f.healed - f.returned) for f in records if f.healed is not None]
    stats = entry.stats
    attempted = log.count + len(records)
    errors = failed + timed_out + unhealed + (0 if bit_exact_end else 1)
    correct = (
        check["outside"] == 0
        and bit_exact_end
        and stats.uncertified_fused_served == 0
        and stats.served_during_quarantine == 0
        and not faults.errors
    )
    e2e = {
        "throughput_rps": (throughput, "req/s"),
        "latency_p50_ms": (percentile(latency_ms, 50), "ms"),
    }
    details = {
        "latency_p90_ms": (percentile(latency_ms, 90), "ms"),
        "latency_p95_ms": (percentile(latency_ms, 95), "ms"),
        "latency_p99_ms": (percentile(latency_ms, 99), "ms"),
        "error_rate": (errors / max(attempted, 1), "ratio"),
        "wrong_answer_rate": (wrong_measured / max(int(np.sum(ok_measured)), 1), "ratio"),
        "heal_p50_ms": (percentile(heal_ms, 50), "ms"),
        "heal_p80_ms": (percentile(heal_ms, 80), "ms"),
        "load.late_ms.p50": (percentile(late_ms, 50), "ms"),
        "load.late_ms.p99": (percentile(late_ms, 99), "ms"),
    }
    fault_layers = [f.layer_name for f in records]
    total_words = float(sum(weight_counts))
    counts = {
        "requests_sent": log.count,
        "requests_measured": int(np.sum(measured)),
        "requests_ok": int(np.sum(ok)),
        "requests_failed": failed,
        "requests_timed_out": timed_out,
        "latency_samples": len(latency_ms),
        "latency_supported_percentile": supported_percentile(len(latency_ms)),
        "faults_injected": len(records),
        "faults_unhealed": unhealed,
        "faults_skipped": faults.skipped,
        "faults_max_late_ms": max((f.late_s * 1e3 for f in records), default=0.0),
        "skipped_undetectable": faults.skipped_undetectable,
        "heal_samples": len(heal_ms),
        "heal_supported_percentile": supported_percentile(len(heal_ms)),
        "fault_share_realized": {
            name: fault_layers.count(name) / len(fault_layers) for name in sorted(set(fault_layers))
        },
        "fault_share_expected": {
            model.layers[i].name: round(c / total_words, 5) for i, c in zip(layers, weight_counts)
        },
        "oracle_mismatches_outside_fault_windows": check["outside"],
        "oracle_distinct_responses": check["distinct"],
        "weights_bit_exact_at_end": bit_exact_end,
        "uncertified_fused_served": stats.uncertified_fused_served,
        "served_during_quarantine": stats.served_during_quarantine,
        "fault_thread_errors": faults.errors,
        "plan_compiles": compiles,
    }
    result = {
        "correct": bool(correct),
        "attempted": attempted,
        "failed": errors,
        "e2e": e2e,
        "details": details,
        "counts": counts,
        "layers": {},
    }
    if recorder is not None:
        result["layers"] = _layer_metrics(
            recorder, setup, log, records, (lo, hi), finished, compiles, seconds
        )
        result["layers"]["load.late_ms.p50"] = details["load.late_ms.p50"]
        result["layers"]["load.late_ms.p99"] = details["load.late_ms.p99"]
        result["self_time_s"] = recorder.self_times()
    return result


def _layer_metrics(recorder: SpanRecorder, setup: SetUp, log: RequestLog, faults: list,
                   window: tuple, finished: float, compiles: int, seconds: float) -> dict:
    lo, hi = window
    spans = list(recorder.spans)
    in_window = [s for s in spans if lo <= s.start < hi]

    def durations(name, scale, pool=in_window):
        return [s.duration * scale for s in pool if s.name == name]

    # Top-level forward calls on the worker from the first request on serve
    # traffic in queue order: call k serves the next ``occupancy`` answered
    # requests.  (Fusion certification nests reference forwards inside.)
    serving = sorted(
        (s for s in spans
         if s.name == "plan.forward" and s.thread.startswith("infer-")
         and s.parent is None and s.start >= setup.first_served),
        key=lambda s: s.start,
    )
    ok = log.status == OK
    enqueued = np.concatenate([[setup.first_request.enqueued_at], log.enqueued_at[ok]])
    starts = np.repeat([s.start for s in serving], [s.attrs["occupancy"] for s in serving])
    waits: list = []
    # The counts differ only if a batch failed inside its forward; queue
    # waits are then left unreported rather than mismatched.
    if len(starts) == len(enqueued):
        keep = (enqueued >= lo) & (enqueued < hi)
        waits = list((starts[keep] - enqueued[keep]) * 1e3)
    serving_window = [s for s in serving if lo <= s.start < hi]
    occupancy = [s.attrs["occupancy"] for s in serving_window]
    fused = sum(s.attrs["occupancy"] for s in serving_window if s.attrs["mode"] == "fused")

    metrics = {
        "engine.submit_us.p50": (percentile(durations("engine.submit", 1e6), 50), "us"),
        "engine.wait_ms.p50": (percentile(waits, 50), "ms"),
        "engine.wait_ms.p99": (percentile(waits, 99), "ms"),
        "engine.occupancy.mean": (float(np.mean(occupancy)) if occupancy else 0.0, "count"),
    }
    for label, low, high in OCCUPANCY_BUCKETS:
        per_sample = [
            s.duration * 1e6 / s.attrs["occupancy"]
            for s in serving_window if low <= s.attrs["occupancy"] <= high
        ]
        metrics[f"plan.forward_us_per_sample.{label}"] = (percentile(per_sample, 50), "us")
    metrics["plan.fused_share"] = (fused / max(sum(occupancy), 1), "ratio")
    metrics["plan.compiles"] = (compiles, "count")

    metrics["detect.call_ms.p50"] = (percentile(durations("detect.call", 1e3), 50), "ms")
    metrics["detect.call_ms.p99"] = (percentile(durations("detect.call", 1e3), 99), "ms")
    metrics["detect.pass_ms.p50"] = (percentile(durations("detect.pass", 1e3), 50), "ms")
    metrics["detect.busy_share"] = (
        sum(_overlap(s, lo, hi) for s in spans if s.name == "detect.call") / seconds, "ratio"
    )

    # Tr as serving sees it: quarantine of a layer until the end of the
    # clear_quarantine call that lifts it.
    opened: dict = {}
    quarantine_ms = []
    for span in sorted(
        (s for s in spans
         if s.name in ("registry.quarantine", "registry.clear") and s.start >= lo),
        key=lambda s: s.start,
    ):
        for index in span.attrs["indices"]:
            if span.name == "registry.quarantine":
                opened.setdefault(index, span.start)
            elif index in opened:
                quarantine_ms.append((span.end - opened.pop(index)) * 1e3)
    metrics["repair.quarantine_ms.p50"] = (percentile(quarantine_ms, 50), "ms")
    metrics["repair.quarantine_ms.p80"] = (percentile(quarantine_ms, 80), "ms")
    # Repairs that began in the window may finish after it.
    after = [s for s in spans if lo <= s.start < finished]
    solver_ms = durations("repair.solver", 1e3, after)
    metrics["repair.solver_ms.p50"] = (percentile(solver_ms, 50), "ms")
    healed = sum(1 for f in faults if f.healed is not None)
    metrics["repair.bit_exact_share"] = (healed / max(len(faults), 1), "ratio")
    clear_ms = durations("registry.clear", 1e3, after)
    metrics["registry.clear_ms.p50"] = (percentile(clear_ms, 50), "ms")
    metrics["trace.overhead_share"] = (
        len(in_window) * recorder.cost_per_span() / seconds, "ratio"
    )
    return metrics
