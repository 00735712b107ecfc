"""Compiled forward execution plans -- the inference fast path.

A :class:`ForwardPlan` is compiled per ``(layer stack, input shape, batch
size)`` and replays exactly the same numpy operations as the layers' own
``forward`` methods -- same operand values, dtypes and memory layouts, so the
planned forward is **bit-identical** to the seed forward -- while skipping
everything that makes the per-call path slow:

* im2col / pooling gather indices and padding geometry are precomputed once
  and shared process-wide (:mod:`repro.nn.tensor_utils` caches them per
  geometry, so every batch size and every model with the same layer geometry
  reuses the same index arrays),
* stride-1 convolutions can skip the windowed im2col copy entirely: the
  *direct* formulation gathers a width-only patch buffer (``F2*C`` copied
  elements per position instead of ``F1*F2*C``) and consumes it through an
  overlapping strided view by ``np.matmul`` directly
  (:func:`~repro.nn.tensor_utils.direct_patch_view`), one small GEMM per
  ``(image, output row)``.  A compile-time *probe* per ``(batch, conv
  geometry)``, memoized for the process, decides where it is used.  Exact
  plans adopt it only where the probe proves the strided GEMM byte-identical
  to the reference im2col GEMM (BLAS kernel dispatch is shape-dependent, not
  value-dependent, so probe equality certifies the algorithm); geometries
  that fail keep the im2col formulation, preserving the bit-identity
  guarantee unconditionally.  Fused plans adopt whichever of the two the
  probe measured faster (see :func:`conv_probes`),
* conv→(bias)→ReLU→maxpool chains compile into one scratch pass: the affine
  add, the ReLU and the pooling fold all run on the conv's own output buffer,
  so intermediate activations never round-trip through extra full-size
  buffers,
* every intermediate is written into a preallocated scratch buffer reused
  across calls -- the steady state allocates nothing except the final output
  copy handed to the caller,
* training-only bookkeeping (``_last_patches``, padded-shape capture,
  activation caching) is never touched; the solver/inversion paths keep using
  ``layer.forward(..., training=True)`` when they need those captures.

Weight coherence: a plan captures each parameterized layer's
``weights_version`` epoch together with the weight arrays themselves.
:class:`~repro.nn.model.Sequential` checks the epochs with cheap integer
compares on every planned call and recompiles when any layer was mutated
(fault injection, repair, quarantine lift, a training step).  The service
runtime additionally revalidates plans against blake2b weight fingerprints
when quarantine is lifted (:meth:`ForwardPlan.fingerprints_match`): a
bit-exact repair restores the exact golden bytes, so a plan compiled on the
golden weights stays valid and is kept -- together with its fusion
certificate.

Fused mode (``fused=True``) folds Bias adds and BatchNorm affines into the
adjacent Conv2D / DepthwiseConv2D / Dense matmul (BatchNorm scales are folded
into the kernel itself), runs each stride-1 Conv2D in the formulation its
probe measured faster -- the direct strided view, or an im2col GEMM per
chunk of a few images -- and records the choice in
:attr:`ForwardPlan.conv_formulations`.  Fused outputs are *not*
bit-identical; they are certified
per ``(network weight fingerprint, batch size)`` by
:func:`certify_fusion` -- a seeded calibration batch through the fused and
exact plans with the max ULP divergence bounded -- before the service serves
them by default.  Uncertified networks silently fall back to the bit-exact
plan; ``use_plan=False`` stays the oracle.

For large batches (``>= 256``) a fused plan splits the batch across a
plan-owned thread pool (numpy's BLAS kernels release the GIL) and merges the
disjoint slice results in index order, so planned outputs stay byte-stable
regardless of thread scheduling.
"""

from __future__ import annotations

import functools
import hashlib
import math
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Union

import numpy as np

from repro.exceptions import ShapeError
from repro.nn.layers.activation import Activation
from repro.nn.layers.base import Layer
from repro.nn.layers.batchnorm import BatchNorm
from repro.nn.layers.bias import Bias
from repro.nn.layers.conv2d import Conv2D
from repro.nn.layers.dense import Dense
from repro.nn.layers.depthwise import DepthwiseConv2D
from repro.nn.layers.pooling import _Pool2D
from repro.nn.layers.structural import Flatten, ZeroPadding2D
from repro.nn.tensor_utils import (
    direct_patch_view,
    im2col_into,
    im2col_width_into,
    pad_same_amounts,
)
from repro.types import FLOAT_DTYPE

__all__ = [
    "PlanStats",
    "ScratchGuard",
    "ForwardPlan",
    "SlicedForwardPlan",
    "FusionCertificate",
    "compile_plan",
    "conv_probes",
    "ConvProbe",
    "ConvShape",
    "certify_fusion",
    "ulp_distance",
    "plan_weight_fingerprint",
    "DEFAULT_ULP_BOUND",
]

#: A compiled per-layer step: reads the previous activation, returns the next
#: one (usually a plan-owned scratch buffer).
PlanStep = Callable[[np.ndarray], np.ndarray]

#: Default max ULP divergence tolerated between fused and exact outputs for a
#: network to be certified for fused serving.  Affine folds and the reblocked
#: direct GEMMs perturb the arithmetic by a relative ~1e-7 per layer, which
#: lands at a few hundred ULP after the softmax head (small probabilities
#: amplify lattice distance); a flipped high-order weight bit moves outputs
#: by *millions* of ULP, so 1024 separates the two regimes by several orders
#: of magnitude while rejecting any genuinely divergent fold.
DEFAULT_ULP_BOUND = 1024

#: Smallest batch the fused path will split across the slice thread pool.
SLICE_MIN_BATCH = 256

#: Seed for the compile-time conv formulation probes.
_PROBE_SEED = 0x9E3779B9
#: Seed base for the fusion-certification calibration batches.
_CALIBRATION_SEED = 0xC417


@dataclass
class ScratchGuard:
    """Canary over a pinned scratch buffer's zero border.

    Padding buffers (conv/depthwise ``pad_buf``, zero-padding ``out_buf``)
    rely on a cross-call invariant: everything outside the interior window
    stays exactly zero.  A memory fault in that border silently corrupts every
    subsequent planned forward -- and lives outside the weights, so
    :class:`CheckpointStore` detection cannot see it.  The guard makes the
    invariant checkable in O(border) with no stored golden copy: the border
    decomposes into per-axis hyperslabs, each of which must be all-zero.
    """

    layer_name: str
    buffer: np.ndarray
    interior: tuple[slice, ...]

    def _border_slabs(self) -> list[tuple[slice, ...]]:
        """Disjoint slab views that exactly cover the complement of the
        interior: for each axis, everything before/after the interior range,
        restricted to the interior of the preceding axes."""
        slabs: list[tuple[slice, ...]] = []
        pre: list[slice] = []
        for axis, window in enumerate(self.interior):
            start, stop, _ = window.indices(self.buffer.shape[axis])
            if start > 0:
                slabs.append(tuple(pre) + (slice(0, start),))
            if stop < self.buffer.shape[axis]:
                slabs.append(tuple(pre) + (slice(stop, None),))
            pre.append(window)
        return slabs

    def is_clean(self) -> bool:
        """Whether the border invariant holds (no nonzeros outside interior)."""
        return not any(self.buffer[slab].any() for slab in self._border_slabs())

    def scrub(self) -> None:
        """Re-establish the invariant.  Zeroing the whole buffer is safe: the
        interior is fully rewritten at the start of every planned call."""
        self.buffer.fill(0.0)

    def border_indices(self) -> np.ndarray:
        """Flat indices (into ``buffer.ravel()``) of the guarded border."""
        mask = np.ones(self.buffer.shape, dtype=bool)
        mask[self.interior] = False
        return np.flatnonzero(mask)


def plan_weight_fingerprint(weights: np.ndarray) -> bytes:
    """Blake2b digest of a weight array's raw bytes.

    Byte-for-byte the same digest as
    :func:`repro.core.checkpoint.weight_fingerprint` (redeclared here so the
    ``nn`` substrate does not depend on the MILR core): two arrays share a
    fingerprint exactly when their bit patterns are identical, which is what
    lets a plan survive a bit-exact repair unchanged.
    """
    return hashlib.blake2b(
        np.ascontiguousarray(weights).tobytes(), digest_size=16
    ).digest()


@dataclass
class PlanStats:
    """Counters of the per-model plan cache (observable in tests/service)."""

    #: Plans compiled from scratch (cold key or after an invalidation).
    compiles: int = 0
    #: Planned calls served by a cached, weight-coherent *fused* plan.
    fused_hits: int = 0
    #: Planned calls served by a cached, weight-coherent bit-exact plan.
    exact_hits: int = 0
    #: Fused serves that fell back to the bit-exact plan because the network
    #: failed (or lost) its ULP certification at that batch size.
    fallbacks: int = 0
    #: Cached plans discarded because weights changed under them (stale epoch
    #: on lookup, or a failed fingerprint revalidation sweep).
    invalidations: int = 0
    #: Dirty scratch-buffer borders caught (and healed) by the per-serve
    #: canary check before they could corrupt a planned forward.
    scratch_detections: int = 0
    #: Calibration runs performed by :func:`certify_fusion` (cache misses in
    #: the per-``(weights fingerprint, batch)`` certificate memo).
    certifications: int = 0

    @property
    def hits(self) -> int:
        """Planned calls served by any cached plan (fused + exact)."""
        return self.fused_hits + self.exact_hits


# ---------------------------------------------------------------------- #
# ULP distance and fusion certification
# ---------------------------------------------------------------------- #
#: Absolute floor of :func:`ulp_distance`: element pairs closer than this are
#: 0 ULP apart regardless of their lattice distance.  Small softmax
#: probabilities amplify lattice distance (an absolute error of 5e-6 on a
#: 1e-4 probability spans tens of thousands of lattice steps while never
#: moving an argmax); the certification contract is therefore "within the
#: ULP bound *or* within this absolute epsilon".  A genuinely wrong fold
#: (mis-scaled kernel, mixed-up channel) moves outputs at normal magnitudes
#: by percents -- orders of magnitude above both thresholds.
ULP_ABSOLUTE_FLOOR = 2e-5


def ulp_distance(
    reference: np.ndarray,
    candidate: np.ndarray,
    absolute_floor: float = ULP_ABSOLUTE_FLOOR,
) -> float:
    """Max elementwise float32 ULP distance between two arrays.

    Bit patterns are mapped onto the monotonic integer lattice of float32
    (negative floats mirror below zero), so the distance counts representable
    values between the two operands.  ``+0.0`` and ``-0.0`` are 0 apart;
    NaN/NaN pairs are 0 apart; a NaN paired with a non-NaN is infinitely far;
    pairs within ``absolute_floor`` of each other are 0 apart (see
    :data:`ULP_ABSOLUTE_FLOOR`).
    """
    a = np.ascontiguousarray(reference, dtype=FLOAT_DTYPE)
    b = np.ascontiguousarray(candidate, dtype=FLOAT_DTYPE)
    if a.shape != b.shape:
        raise ShapeError(f"shape mismatch {a.shape} vs {b.shape} in ulp_distance")
    if a.size == 0:
        return 0.0
    au = a.view(np.uint32).astype(np.int64)
    bu = b.view(np.uint32).astype(np.int64)
    half = np.int64(1) << 31
    au = np.where(au >= half, half - au, au)
    bu = np.where(bu >= half, half - bu, bu)
    diff = np.abs(au - bu).astype(np.float64)
    with np.errstate(invalid="ignore"):
        negligible = np.abs(a - b) <= absolute_floor
    both_nan = np.isnan(a) & np.isnan(b)
    either_nan = np.isnan(a) | np.isnan(b)
    diff = np.where(
        both_nan | negligible, 0.0, np.where(either_nan, np.inf, diff)
    )
    return float(diff.max())


@dataclass(frozen=True)
class FusionCertificate:
    """Outcome of one fused-vs-exact calibration run.

    Cached per ``(network weight fingerprint, batch size, ULP bound)`` by
    :class:`~repro.nn.model.Sequential`, and pinned onto the fused plan it
    certified -- a plan that survives fingerprint revalidation (bit-exact
    repair) keeps its certificate without re-running calibration.
    """

    batch_size: int
    weights_digest: bytes
    max_ulp: float
    ulp_bound: int
    certified: bool
    calibration_seconds: float


def calibration_batch(input_shape: tuple[int, ...], batch_size: int) -> np.ndarray:
    """Deterministic calibration inputs for :func:`certify_fusion`.

    Standard-normal draws exercise both ReLU regimes (positive and clipped)
    and every sign path through the affine folds; the seed is fixed per batch
    size so certification is reproducible across processes.
    """
    rng = np.random.default_rng(_CALIBRATION_SEED + batch_size)
    return rng.standard_normal((batch_size,) + tuple(input_shape)).astype(FLOAT_DTYPE)


def certify_fusion(
    model,
    fused_plan: "PlanLike",
    exact_plan: "PlanLike",
    ulp_bound: int = DEFAULT_ULP_BOUND,
) -> FusionCertificate:
    """Run the seeded calibration batch through both plans and bound the ULP.

    The exact plan is bit-identical to the seed forward by construction, so
    comparing against it is comparing against the seed path.  The certificate
    is tied to the fused plan's weight digest: any non-byte-identical weight
    change produces a different digest and therefore a fresh certification.
    """
    started = time.perf_counter()
    calibration = calibration_batch(model.input_shape, fused_plan.batch_size)
    exact_out = exact_plan.execute(calibration)
    fused_out = fused_plan.execute(calibration)
    max_ulp = ulp_distance(exact_out, fused_out)
    return FusionCertificate(
        batch_size=fused_plan.batch_size,
        weights_digest=fused_plan.weights_digest,
        max_ulp=max_ulp,
        ulp_bound=int(ulp_bound),
        certified=bool(max_ulp <= ulp_bound),
        calibration_seconds=time.perf_counter() - started,
    )


class ForwardPlan:
    """One compiled forward pass for a fixed batch size.

    Created by :func:`compile_plan`; executed (and cached, invalidated,
    revalidated) by :class:`~repro.nn.model.Sequential`.
    """

    __slots__ = (
        "batch_size",
        "fused",
        "certificate",
        "folded_affines",
        "conv_formulations",
        "weights_digest",
        "_steps",
        "_captured",
        "_result_provenance",
        "_guards",
    )

    def __init__(
        self,
        batch_size: int,
        fused: bool,
        steps: list[PlanStep],
        captured: list[tuple[Layer, int, bytes]],
        result_provenance: str = "scratch",
        folded_affines: tuple[str, ...] = (),
        conv_formulations: tuple[tuple[str, str], ...] = (),
    ):
        self.batch_size = batch_size
        self.fused = fused
        #: The :class:`FusionCertificate` backing fused serving through this
        #: plan, attached lazily by the model; ``None`` until certified.
        self.certificate: Optional[FusionCertificate] = None
        #: Names of affine layers folded into an adjacent matmul kernel.
        self.folded_affines = folded_affines
        #: ``(layer name, "direct" | "im2col")`` per Conv2D step, in order.
        self.conv_formulations = conv_formulations
        self._steps = steps
        #: ``(layer, weights_version at compile, blake2b fingerprint at
        #: compile)`` for every parameterized layer the plan touched.
        self._captured = captured
        #: Digest over every captured layer fingerprint, in layer order --
        #: the network-level weight state this plan (and its certificate)
        #: was compiled against.
        self.weights_digest = hashlib.blake2b(
            b"".join(digest for _layer, _version, digest in captured),
            digest_size=16,
        ).digest()
        self._result_provenance = result_provenance
        self._guards = tuple(
            step.scratch_guard for step in steps if hasattr(step, "scratch_guard")
        )

    @property
    def scratch_guards(self) -> tuple[ScratchGuard, ...]:
        """Canaries over every pinned padding buffer the plan owns."""
        return self._guards

    def verify_scratch(self) -> int:
        """Check every scratch canary, healing dirty borders.

        Returns the number of dirty buffers found (0 on the clean fast path,
        which costs one ``count_nonzero`` pass per pinned buffer).
        """
        dirty = 0
        for guard in self._guards:
            if not guard.is_clean():
                guard.scrub()
                dirty += 1
        return dirty

    # ------------------------------------------------------------------ #
    def execute(self, inputs: np.ndarray) -> np.ndarray:
        """Run the compiled steps; returns a caller-owned output array."""
        if inputs.shape[0] != self.batch_size:
            raise ShapeError(
                f"plan compiled for batch size {self.batch_size}, "
                f"got {inputs.shape[0]}"
            )
        current = inputs
        for step in self._steps:
            current = step(current)
        if self._result_provenance == "fresh":
            # The last step allocated its result (e.g. softmax): hand it out.
            return current
        # Detach the result from the plan's scratch buffers (or the caller's
        # own input, for all-passthrough stacks): the caller may keep it
        # across the next planned call.
        return np.array(current)

    # ------------------------------------------------------------------ #
    def epochs_current(self) -> bool:
        """Cheap per-call weight-coherence check (integer compares only)."""
        for layer, version, _digest in self._captured:
            if layer.weights_version != version:
                return False
        return True

    def fingerprints_match(self) -> bool:
        """Whether every captured layer's weights are byte-identical to the
        bytes the plan was compiled from (blake2b comparison)."""
        for layer, _version, digest in self._captured:
            if plan_weight_fingerprint(layer.get_weights()) != digest:
                return False
        return True

    def refresh_epochs(self) -> None:
        """Re-arm :meth:`epochs_current` after fingerprints confirmed the
        weights are byte-identical (e.g. following a bit-exact repair)."""
        self._captured = [
            (layer, layer.weights_version, digest)
            for layer, _version, digest in self._captured
        ]


# ---------------------------------------------------------------------- #
# Batch-slice parallelism
# ---------------------------------------------------------------------- #
def slice_worker_count() -> int:
    """Workers available to the batch-slice pool.

    Defaults to the CPU count; the ``REPRO_PLAN_THREADS`` environment variable
    overrides it (``1`` disables slicing, higher values force it -- used by
    the byte-stability tests on single-core machines).
    """
    override = os.environ.get("REPRO_PLAN_THREADS")
    if override:
        try:
            return max(1, int(override))
        except ValueError:
            pass
    return os.cpu_count() or 1


_SLICE_POOL_LOCK = threading.Lock()
_SLICE_POOLS: dict[int, ThreadPoolExecutor] = {}


def _slice_pool(workers: int) -> ThreadPoolExecutor:
    """Process-wide slice executor per worker count (plans share threads)."""
    with _SLICE_POOL_LOCK:
        pool = _SLICE_POOLS.get(workers)
        if pool is None:
            pool = ThreadPoolExecutor(
                max_workers=workers, thread_name_prefix="plan-slice"
            )
            _SLICE_POOLS[workers] = pool
        return pool


class SlicedForwardPlan:
    """A fused plan split into disjoint batch slices run on a thread pool.

    Each slice owns an independent sub-plan (its own scratch), so slices
    execute concurrently without sharing buffers; numpy's BLAS kernels release
    the GIL, so on multi-core hosts the slices overlap in wall-clock time.
    The merge concatenates slice outputs in index order -- completion order
    never affects the result, so outputs are byte-stable across calls and
    across thread schedules.  Only fused plans slice: slicing changes the GEMM
    shapes, and the certification step (which runs *through this class*)
    bounds the resulting divergence, whereas exact plans must stay
    unconditionally bit-identical to the seed forward.
    """

    __slots__ = (
        "batch_size",
        "fused",
        "certificate",
        "folded_affines",
        "conv_formulations",
        "_slices",
        "_workers",
    )

    def __init__(
        self,
        batch_size: int,
        slices: list[tuple[int, int, ForwardPlan]],
        workers: int,
    ):
        self.batch_size = batch_size
        self.fused = True
        self.certificate: Optional[FusionCertificate] = None
        self.folded_affines = slices[0][2].folded_affines if slices else ()
        #: The first slice's choices; each slice plan carries its own (slice
        #: sizes differ by at most one image).
        self.conv_formulations = slices[0][2].conv_formulations if slices else ()
        self._slices = slices
        self._workers = workers

    @property
    def slice_sizes(self) -> tuple[int, ...]:
        return tuple(stop - start for start, stop, _plan in self._slices)

    @property
    def weights_digest(self) -> bytes:
        return self._slices[0][2].weights_digest

    @property
    def scratch_guards(self) -> tuple[ScratchGuard, ...]:
        return tuple(
            guard for _s, _e, plan in self._slices for guard in plan.scratch_guards
        )

    def verify_scratch(self) -> int:
        return sum(plan.verify_scratch() for _s, _e, plan in self._slices)

    def execute(self, inputs: np.ndarray) -> np.ndarray:
        if inputs.shape[0] != self.batch_size:
            raise ShapeError(
                f"plan compiled for batch size {self.batch_size}, "
                f"got {inputs.shape[0]}"
            )
        pool = _slice_pool(self._workers)
        futures = [
            pool.submit(plan.execute, inputs[start:stop])
            for start, stop, plan in self._slices
        ]
        # Deterministic merge: gather in slice order, not completion order.
        return np.concatenate([future.result() for future in futures], axis=0)

    def epochs_current(self) -> bool:
        return all(plan.epochs_current() for _s, _e, plan in self._slices)

    def fingerprints_match(self) -> bool:
        return all(plan.fingerprints_match() for _s, _e, plan in self._slices)

    def refresh_epochs(self) -> None:
        for _start, _stop, plan in self._slices:
            plan.refresh_epochs()


#: Anything the model can cache and execute as a compiled plan.
PlanLike = Union[ForwardPlan, SlicedForwardPlan]


# ---------------------------------------------------------------------- #
# Conv formulation probes
# ---------------------------------------------------------------------- #
class ConvShape(NamedTuple):
    """Geometry of a Conv2D; stride-1 probes are memoized under it."""

    out_h: int
    out_w: int
    padded_h: int
    padded_w: int
    f1: int
    f2: int
    channels: int
    filters: int

    @classmethod
    def of(cls, layer: Conv2D) -> "ConvShape":
        padded_h, padded_w, channels, _height, _origin = _conv_geometry(layer)
        out_h, out_w, filters = layer.output_shape
        f1, f2 = layer.kernel_size
        return cls(out_h, out_w, padded_h, padded_w, f1, f2, channels, filters)

    def im2col_chunk(self, batch: int) -> int:
        """Images per fused im2col GEMM at ``batch``.

        Sized so the patch buffer is no larger than the direct formulation's
        width buffer at the same batch (``padded_h`` rows per image against
        ``out_h * f1``), down to a floor of one image: past the smallest
        batches, choosing im2col never grows a plan's conv scratch, however
        many occupancies a service keeps warm.
        """
        return max(1, min(batch, _CONV_CHUNK) * self.padded_h // (self.out_h * self.f1))


@dataclass
class ConvProbe:
    """What the probe measured for one ``(batch, ConvShape)``.

    ``direct_us`` / ``im2col_us`` are the best per-sample times of the two
    formulations a fused conv step can run at that batch, timed on the same
    images (:func:`_probe_sample`); ``identical`` is the byte-identity
    verdict exact plans need.  Each part is measured the first time a plan of
    the kind that needs it asks, and stays ``None`` until then.
    """

    direct_us: Optional[float] = None
    im2col_us: Optional[float] = None
    identical: Optional[bool] = None

    @property
    def direct_faster(self) -> bool:
        return self.direct_us <= self.im2col_us


#: Probe records per ``(batch, ConvShape)``, kept for the process lifetime.
#: BLAS kernel/blocking selection depends on shapes and strides, never on
#: operand values, so one seeded probe per key settles the identity verdict
#: for good, and the host the timings describe does not change under a
#: running process.
_CONV_PROBES: dict[tuple[int, ConvShape], ConvProbe] = {}
#: Seeded ``(padded image, kernel matrix)`` operands per geometry.
_PROBE_OPERANDS: dict[ConvShape, tuple[np.ndarray, np.ndarray]] = {}
#: Interleaved timing rounds per probe (the best round of each formulation
#: counts): at least the minimum, then more while the probe has spent less
#: than its budget, so a geometry whose sample takes tens of µs still rises
#: above scheduler noise.
_PROBE_MIN_ROUNDS = 3
_PROBE_MAX_ROUNDS = 64
_PROBE_BUDGET_S = 0.002
#: Conv work (FLOPs) one timed sample should cover; see :func:`_probe_sample`.
_PROBE_FLOPS = 2e7


def conv_probes() -> dict[tuple[int, ConvShape], ConvProbe]:
    """Snapshot of every conv probe this process ran, keyed by
    ``(batch, ConvShape)``: the measured times behind each plan's
    :attr:`ForwardPlan.conv_formulations`."""
    return dict(_CONV_PROBES)


def _probe_operands(shape: ConvShape) -> tuple[np.ndarray, np.ndarray]:
    """One seeded padded image and kernel per geometry, drawn once.

    Batches are filled by repeating the image: the probe's questions (which
    GEMM decomposition BLAS runs, and how fast) depend on shapes, not values.
    """
    operands = _PROBE_OPERANDS.get(shape)
    if operands is None:
        rng = np.random.default_rng(_PROBE_SEED)
        image = rng.standard_normal(
            (1, shape.padded_h, shape.padded_w, shape.channels), dtype=FLOAT_DTYPE
        )
        kernel = rng.standard_normal(
            (shape.f1 * shape.f2 * shape.channels, shape.filters), dtype=FLOAT_DTYPE
        )
        operands = _PROBE_OPERANDS[shape] = (image, kernel)
    return operands


def _width_patches(shape: ConvShape, images: int, source: np.ndarray):
    """``(width buffer, its direct patch view)`` gathered from ``source``."""
    width_buf = np.empty(
        (images, shape.out_w, shape.padded_h, shape.f2 * shape.channels),
        dtype=FLOAT_DTYPE,
    )
    im2col_width_into(
        source,
        shape.f2,
        width_buf.reshape(images, shape.out_w, shape.padded_h, shape.f2, shape.channels),
    )
    return width_buf, direct_patch_view(width_buf, shape.f1, shape.out_h)


def _probe_sample(shape: ConvShape, batch: int) -> tuple[int, int]:
    """``(images, im2col chunk)`` the probe times for a fused step at ``batch``.

    The sample covers at least one im2col chunk and about
    :data:`_PROBE_FLOPS` of conv work (capped at the step's direct chunk):
    a small geometry then amortizes per-call overhead the way the step does
    at that batch, while a large one, whose per-sample cost is flat in the
    batch, is probed on one or two images.
    """
    chunk = shape.im2col_chunk(batch)
    flops = 2 * shape.out_h * shape.out_w * shape.f1 * shape.f2 * shape.channels * shape.filters
    images = min(batch, _CONV_CHUNK, math.ceil(_PROBE_FLOPS / flops))
    return max(chunk, images), chunk


@functools.lru_cache(maxsize=None)
def _time_formulations(shape: ConvShape, images: int, chunk: int) -> tuple[float, float]:
    """Best per-sample µs of ``(direct, im2col)`` over the same ``images``.

    Each formulation processes them the way a fused step would: the width
    gather plus one strided GEMM, and the patch gather plus one GEMM per
    ``chunk`` images.  Every buffer is allocated and touched before the clock
    starts (a fresh buffer's page faults would bias whichever formulation
    runs first), and the two alternate over :data:`_PROBE_MIN_ROUNDS` or
    more rounds.  Batches whose steps share a sample share the measurement.
    This is the one timing seam: tests replace it to force a ranking.
    """
    image, kernel = _probe_operands(shape)
    positions = shape.out_h * shape.out_w
    source = np.empty((images,) + image.shape[1:], dtype=FLOAT_DTYPE)
    np.copyto(source, image)
    width_buf, patch_view = _width_patches(shape, images, source)
    width_view = width_buf.reshape(width_buf.shape[:3] + (shape.f2, shape.channels))
    patch_buf = np.full((chunk, positions, kernel.shape[0]), 0.0, dtype=FLOAT_DTYPE)
    patch_split = patch_buf.reshape(
        chunk, shape.out_h, shape.out_w, shape.f1, shape.f2, shape.channels
    )
    out = np.full((images * positions, shape.filters), 0.0, dtype=FLOAT_DTYPE)
    direct_out = out.reshape(images, shape.out_h, shape.out_w, shape.filters)

    def direct() -> float:
        started = time.perf_counter()
        im2col_width_into(source, shape.f2, width_view)
        np.matmul(patch_view, kernel, out=direct_out)
        return time.perf_counter() - started

    def im2col() -> float:
        started = time.perf_counter()
        for c0 in range(0, images, chunk):
            n = min(chunk, images - c0)
            im2col_into(source[c0 : c0 + n], (shape.f1, shape.f2), (1, 1), patch_split[:n])
            np.matmul(
                patch_buf[:n].reshape(n * positions, -1),
                kernel,
                out=out[c0 * positions : (c0 + n) * positions],
            )
        return time.perf_counter() - started

    direct_s = im2col_s = float("inf")
    began = time.perf_counter()
    for rounds in range(1, _PROBE_MAX_ROUNDS + 1):
        direct_s = min(direct_s, direct())
        im2col_s = min(im2col_s, im2col())
        if rounds >= _PROBE_MIN_ROUNDS and time.perf_counter() - began >= _PROBE_BUDGET_S:
            break
    return direct_s * 1e6 / images, im2col_s * 1e6 / images


def _direct_gemm_identical(shape: ConvShape, batch: int) -> bool:
    """Whether the direct strided GEMM is byte-identical to the reference.

    Builds the exact buffer/view layout the direct step would use (same
    shapes, same strides) and byte-compares the strided 4-D ``np.matmul``
    against the flat ``(B*P, taps)`` GEMM the exact im2col formulation
    performs.  The only difference between the two formulations is the GEMM
    decomposition (per-row ``M = G2`` panels vs one ``M = B*G1*G2`` product);
    patch extraction itself is a pure copy.
    """
    image, kernel = _probe_operands(shape)
    image_width, _view = _width_patches(shape, 1, image)
    width_buf = np.empty((batch,) + image_width.shape[1:], dtype=FLOAT_DTYPE)
    np.copyto(width_buf, image_width)
    patch_view = direct_patch_view(width_buf, shape.f1, shape.out_h)
    direct_out = np.empty(
        (batch, shape.out_h, shape.out_w, shape.filters), dtype=FLOAT_DTYPE
    )
    np.matmul(patch_view, kernel, out=direct_out)
    reference_mat = np.ascontiguousarray(patch_view).reshape(-1, kernel.shape[0])
    reference_out = np.empty((reference_mat.shape[0], shape.filters), dtype=FLOAT_DTYPE)
    np.matmul(reference_mat, kernel, out=reference_out)
    return direct_out.tobytes() == reference_out.tobytes()


def _conv_probe(shape: ConvShape, batch: int, exact: bool) -> ConvProbe:
    """The memoized probe record for ``(batch, shape)``, completed for the
    plan kind asking: exact plans need the byte-identity verdict, fused plans
    the timings.  Neither pays for the other's part -- the identity check's
    reference GEMM needs a full-batch patch matrix, which a fused plan at
    batch 256 on a large network has no use for."""
    probe = _CONV_PROBES.setdefault((batch, shape), ConvProbe())
    if exact and probe.identical is None:
        probe.identical = _direct_gemm_identical(shape, batch)
    if not exact and probe.direct_us is None:
        probe.direct_us, probe.im2col_us = _time_formulations(
            shape, *_probe_sample(shape, batch)
        )
    return probe


# ---------------------------------------------------------------------- #
# Step builders
# ---------------------------------------------------------------------- #
def _conv_geometry(layer) -> tuple[int, int, int, int, Optional[tuple[int, int]]]:
    """Padded spatial dims and the interior origin for a conv-like layer."""
    height, width, channels = layer.input_shape
    if layer.padding == "same":
        pad_h = pad_same_amounts(height, layer.kernel_size[0], layer.stride[0])
        pad_w = pad_same_amounts(width, layer.kernel_size[1], layer.stride[1])
        return (
            height + pad_h[0] + pad_h[1],
            width + pad_w[0] + pad_w[1],
            channels,
            height,
            (pad_h[0], pad_w[0]),
        )
    return height, width, channels, height, None


def _affine_fold(
    kernel_matrix: np.ndarray, affine: Optional[Layer]
) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """Fold a following Bias/BatchNorm into ``(kernel_matrix, add_vector)``.

    A Bias fold leaves the kernel untouched (the epilogue ``np.add`` is the
    same operation the standalone bias step performs in place, so consuming a
    Bias stays bit-identical); only a BatchNorm fold rescales the kernel,
    which is why exact plans never consume BatchNorm layers.
    """
    if affine is None:
        return kernel_matrix, None
    if isinstance(affine, Bias):
        return kernel_matrix, affine.values
    assert isinstance(affine, BatchNorm)
    folded = np.ascontiguousarray(
        kernel_matrix * affine.gamma[None, :], dtype=FLOAT_DTYPE
    )
    return folded, affine.beta


#: batch-chunk size for the strided pooling fold: the strided offset reads
#: revisit the same cache lines, so folding a chunk at a time keeps the
#: source slab resident instead of streaming the full activation four times.
_POOL_CHUNK = 32


def _maxpool_fold(layer: _Pool2D, batch: int):
    """(out_buf, apply) folding np.maximum over strided window offsets.

    A left fold in row-major window order is bit-identical to the seed's
    windowed ``max(axis=3)`` for every input: np.maximum keeps the first
    operand on ties (so the leftmost maximal element wins in both
    formulations, signed zeros included) and NaN propagates under any order.
    """
    out_h, out_w, channels = layer.output_shape
    p1, p2 = layer.pool_size
    s1, s2 = layer.stride
    out_buf = np.empty((batch, out_h, out_w, channels), dtype=FLOAT_DTYPE)
    offsets = [(a, b) for a in range(p1) for b in range(p2)]

    def apply(x: np.ndarray) -> np.ndarray:
        for c0 in range(0, batch, _POOL_CHUNK):
            chunk = slice(c0, min(c0 + _POOL_CHUNK, batch))
            xc = x[chunk]
            oc = out_buf[chunk]
            np.copyto(oc, xc[:, 0 : out_h * s1 : s1, 0 : out_w * s2 : s2, :])
            for a, b in offsets[1:]:
                np.maximum(
                    oc,
                    xc[:, a : a + out_h * s1 : s1, b : b + out_w * s2 : s2, :],
                    out=oc,
                )
        return out_buf

    return out_buf, apply


#: batch-chunk size for the direct conv block: pad/width/pre-pool scratch is
#: allocated at this many images and the whole conv -> pool -> epilogue chain
#: runs per chunk, so intermediates stay cache-resident instead of streaming
#: full-batch activations through memory between stages.
_CONV_CHUNK = 32


def _conv_block_step(
    layer: Conv2D,
    batch: int,
    affine: Optional[Layer],
    relu: bool,
    pool: Optional[_Pool2D],
    direct: bool,
    fused: bool,
) -> PlanStep:
    """One scratch pass over conv → (affine) → (ReLU) → (maxpool).

    Two formulations compute the conv itself:

    * ``direct=True`` (stride 1 only) is im2col-free: a width-only patch
      buffer plus an overlapping strided view consumed by ``np.matmul``
      directly, i.e. one small GEMM (``M = out_w``) per ``(image, row)``.
    * otherwise the full im2col patch matrix feeds one GEMM over
      ``M = images * positions``.  Exact plans run it over the whole batch --
      the seed's single product, hence bit-identical; fused plans run it per
      :meth:`ConvShape.im2col_chunk` images, so its patch buffer is never
      larger than the direct formulation's width buffer would be.

    Everything downstream of the matmul operates on the conv's own output
    buffer in place, so a fused chain never materializes intermediate
    activations in separate full-size buffers.

    The epilogue runs pool-first (conv -> maxpool -> affine add -> ReLU) even
    though the source network orders it conv -> affine -> ReLU -> maxpool:
    adding a per-channel constant is monotone and maps the window maximum to
    the maximum of the sums (rounding is monotone, and an addition only
    produces -0.0 when both operands carry it, so the commuted result is
    bit-identical, signed zeros and NaN included), and ReLU is itself a
    maximum so it distributes over the window fold the same way.  Pooling
    first shrinks the affine/ReLU passes by the pool area, which is most of
    the epilogue's memory traffic at batch 256.

    The whole block is tiled over batch chunks (:data:`_CONV_CHUNK` images
    for the direct formulation): the padding buffer, gather buffer, and
    pre-pool activation are chunk-sized scratch that stays cache-resident
    from the patch gather through the epilogue.  Direct chunking is
    bit-neutral because the strided matmul dispatches one GEMM per
    ``(image, row)`` panel regardless of how many images share a buffer, and
    every other stage is elementwise.
    """
    padded_h, padded_w, channels, height, origin = _conv_geometry(layer)
    width = layer.input_shape[1]
    out_h, out_w, filters = layer.output_shape
    f1, f2 = layer.kernel_size
    stride = layer.stride
    kernel_matrix, add_values = _affine_fold(layer.kernel_matrix(), affine)
    top, left = origin if origin is not None else (0, 0)
    interior = (
        slice(None),
        slice(top, top + height),
        slice(left, left + width),
        slice(None),
    )
    if direct:
        chunk = min(_CONV_CHUNK, batch)
        width_buf = np.empty((chunk, out_w, padded_h, f2 * channels), dtype=FLOAT_DTYPE)
        width_view = width_buf.reshape(chunk, out_w, padded_h, f2, channels)
        patch_view = direct_patch_view(width_buf, f1, out_h)

        def conv(source: np.ndarray, n: int, out: np.ndarray) -> None:
            im2col_width_into(source, f2, width_view[:n])
            np.matmul(patch_view[:n], kernel_matrix, out=out)

    else:
        chunk = ConvShape.of(layer).im2col_chunk(batch) if fused else max(1, batch)
        positions = out_h * out_w
        patch_buf = np.empty((chunk, positions, f1 * f2 * channels), dtype=FLOAT_DTYPE)
        patch_split = patch_buf.reshape(chunk, out_h, out_w, f1, f2, channels)

        def conv(source: np.ndarray, n: int, out: np.ndarray) -> None:
            im2col_into(source, (f1, f2), stride, patch_split[:n])
            np.matmul(
                patch_buf[:n].reshape(n * positions, -1),
                kernel_matrix,
                out=out.reshape(n * positions, filters),
            )

    pad_buf = (
        np.zeros((chunk, padded_h, padded_w, channels), dtype=FLOAT_DTYPE)
        if origin is not None
        else None
    )
    if pool is not None:
        p_h, p_w, _ = pool.output_shape
        p1, p2 = pool.pool_size
        ps1, ps2 = pool.stride
        offsets = [(a, b) for a in range(p1) for b in range(p2)]
        final_buf = np.empty((batch, p_h, p_w, filters), dtype=FLOAT_DTYPE)
        conv_chunk = np.empty((chunk, out_h, out_w, filters), dtype=FLOAT_DTYPE)
    else:
        final_buf = np.empty((batch, out_h, out_w, filters), dtype=FLOAT_DTYPE)

    def run(x: np.ndarray) -> np.ndarray:
        for c0 in range(0, batch, chunk):
            c1 = min(c0 + chunk, batch)
            n = c1 - c0
            if pad_buf is not None:
                pad_buf[:n, top : top + height, left : left + width, :] = x[c0:c1]
                source = pad_buf[:n]
            else:
                source = x[c0:c1]
            target = final_buf[c0:c1]
            if pool is not None:
                cc = conv_chunk[:n]
                conv(source, n, cc)
                np.copyto(target, cc[:, 0 : p_h * ps1 : ps1, 0 : p_w * ps2 : ps2, :])
                for a, b in offsets[1:]:
                    np.maximum(
                        target,
                        cc[:, a : a + p_h * ps1 : ps1, b : b + p_w * ps2 : ps2, :],
                        out=target,
                    )
            else:
                conv(source, n, target)
            if add_values is not None:
                np.add(target, add_values, out=target)
            if relu:
                np.maximum(target, 0.0, out=target)
        return final_buf

    if pad_buf is not None:
        run.scratch_guard = ScratchGuard(layer.name, pad_buf, interior)
    return run


#: batch-chunk size for the depthwise tap loop, sized so one chunk of the
#: padded input plus the accumulator stays cache-resident across all taps.
_DEPTHWISE_CHUNK = 32


def _depthwise_block_step(
    layer: DepthwiseConv2D,
    batch: int,
    affine: Optional[Layer],
    relu: bool,
    pool: Optional[_Pool2D],
    direct: bool,
) -> PlanStep:
    """One scratch pass over depthwise conv -> (affine) -> (ReLU) -> (maxpool).

    ``direct=True`` (fused plans, stride 1 only) replaces the windowed einsum
    with a block-diagonal width GEMM: the width windows of the padded input
    are a zero-copy strided view (each ``f2*C`` tap run is contiguous in
    memory), and one matmul against a ``(f2*C, f1*C)`` block-diagonal kernel
    produces every per-``f1`` partial sum in a single BLAS call; ``f1``
    shifted adds then fold the partials into the conv output.  The GEMM
    spends ``f1``-fold redundant multiplies on the zero blocks but replaces
    the memory-bound per-tap sweeps with compute the BLAS kernels are fast
    at, and its reduction order differs from the einsum's, so it is not
    bit-identical to the seed — fused certification covers the difference.
    Exact plans keep the einsum, which matches the seed forward byte for
    byte.  The epilogue runs pool-first like ``_conv_block_step`` (see there
    for the bit-exactness argument), and the direct path is batch-chunked the
    same way.
    """
    padded_h, padded_w, channels, height, origin = _conv_geometry(layer)
    width = layer.input_shape[1]
    out_h, out_w, _ = layer.output_shape
    f1, f2 = layer.kernel_size
    stride = layer.stride
    top, left = origin if origin is not None else (0, 0)
    interior = (
        slice(None),
        slice(top, top + height),
        slice(left, left + width),
        slice(None),
    )
    kernel_matrix, add_values = _affine_fold(layer.kernel_matrix(), affine)
    if pool is not None:
        p_h, p_w, _ = pool.output_shape
        p1, p2 = pool.pool_size
        ps1, ps2 = pool.stride
        offsets = [(a, b) for a in range(p1) for b in range(p2)]

    direct = direct and stride == (1, 1)
    if direct:
        final_buf = np.empty(
            (batch, p_h, p_w, channels) if pool is not None else (batch, out_h, out_w, channels),
            dtype=FLOAT_DTYPE,
        )
        tap_kernel = kernel_matrix.reshape(f1, f2, channels)
        block_diag = np.zeros((f2 * channels, f1 * channels), dtype=FLOAT_DTYPE)
        lanes = np.arange(channels)
        for a in range(f1):
            for b in range(f2):
                block_diag[b * channels + lanes, a * channels + lanes] = tap_kernel[a, b]
        chunk = min(_DEPTHWISE_CHUNK, batch)
        pad_buf = (
            np.zeros((chunk, padded_h, padded_w, channels), dtype=FLOAT_DTYPE)
            if origin is not None
            else None
        )
        partial = np.empty(
            (chunk, padded_h, out_w, f1 * channels), dtype=FLOAT_DTYPE
        )
        partial_split = partial.reshape(chunk, padded_h, out_w, f1, channels)
        conv_chunk = (
            np.empty((chunk, out_h, out_w, channels), dtype=FLOAT_DTYPE)
            if pool is not None
            else None
        )

        def run(x: np.ndarray) -> np.ndarray:
            for c0 in range(0, batch, chunk):
                c1 = min(c0 + chunk, batch)
                n = c1 - c0
                if pad_buf is not None:
                    pad_buf[:n, top : top + height, left : left + width, :] = x[c0:c1]
                    pc = pad_buf[:n]
                else:
                    pc = x[c0:c1]
                s0, s1, s2, s3 = pc.strides
                windows = np.lib.stride_tricks.as_strided(
                    pc,
                    shape=(n, padded_h, out_w, f2 * channels),
                    strides=(s0, s1, s2, s3),
                    writeable=False,
                )
                np.matmul(windows, block_diag, out=partial[:n])
                oc = conv_chunk[:n] if pool is not None else final_buf[c0:c1]
                np.copyto(oc, partial_split[:n, 0:out_h, :, 0, :])
                for a in range(1, f1):
                    np.add(oc, partial_split[:n, a : a + out_h, :, a, :], out=oc)
                target = final_buf[c0:c1]
                if pool is not None:
                    np.copyto(target, oc[:, 0 : p_h * ps1 : ps1, 0 : p_w * ps2 : ps2, :])
                    for a, b in offsets[1:]:
                        np.maximum(
                            target,
                            oc[:, a : a + p_h * ps1 : ps1, b : b + p_w * ps2 : ps2, :],
                            out=target,
                        )
                if add_values is not None:
                    np.add(target, add_values, out=target)
                if relu:
                    np.maximum(target, 0.0, out=target)
            return final_buf

    else:
        out_buf = np.empty((batch, out_h, out_w, channels), dtype=FLOAT_DTYPE)
        pad_buf = (
            np.zeros((batch, padded_h, padded_w, channels), dtype=FLOAT_DTYPE)
            if origin is not None
            else None
        )
        positions = out_h * out_w
        taps = layer.taps_per_channel
        patch_buf = np.empty((batch, positions, taps * channels), dtype=FLOAT_DTYPE)
        patch_split = patch_buf.reshape(batch, out_h, out_w, f1, f2, channels)
        split = patch_buf.reshape(batch, out_h, out_w, taps, channels)

        pool_apply = None
        if pool is not None:
            _pool_buf, pool_apply = _maxpool_fold(pool, batch)

        def run(x: np.ndarray) -> np.ndarray:
            if pad_buf is not None:
                pad_buf[:, top : top + height, left : left + width, :] = x
                source = pad_buf
            else:
                source = x
            im2col_into(source, (f1, f2), stride, patch_split)
            np.einsum("bhwkc,kc->bhwc", split, kernel_matrix, out=out_buf)
            target = pool_apply(out_buf) if pool_apply is not None else out_buf
            if add_values is not None:
                np.add(target, add_values, out=target)
            if relu:
                np.maximum(target, 0.0, out=target)
            return target

    if pad_buf is not None:
        run.scratch_guard = ScratchGuard(layer.name, pad_buf, interior)
    return run


def _dense_block_step(
    layer: Dense, batch: int, affine: Optional[Layer], relu: bool
) -> PlanStep:
    out_buf = np.empty((batch, layer.units), dtype=FLOAT_DTYPE)
    weights, add_values = _affine_fold(layer.weights, affine)

    def run(x: np.ndarray) -> np.ndarray:
        np.matmul(x, weights, out=out_buf)
        if add_values is not None:
            np.add(out_buf, add_values, out=out_buf)
        if relu:
            np.maximum(out_buf, 0.0, out=out_buf)
        return out_buf

    return run


def _bias_step(layer: Bias, batch: int, inplace: bool) -> PlanStep:
    values = layer.values
    if inplace:
        # The incoming activation is plan-owned scratch: add into it directly,
        # keeping the block's working set to one hot buffer.  Same values as
        # the out-of-place add, so still bit-identical.
        def run(x: np.ndarray) -> np.ndarray:
            np.add(x, values, out=x)
            return x

        return run
    out_buf = np.empty((batch,) + layer.output_shape, dtype=FLOAT_DTYPE)

    def run(x: np.ndarray) -> np.ndarray:
        np.add(x, values, out=out_buf)
        return out_buf

    return run


def _batchnorm_step(layer: BatchNorm, batch: int, inplace: bool) -> PlanStep:
    gamma, beta = layer.gamma, layer.beta
    if inplace:

        def run(x: np.ndarray) -> np.ndarray:
            np.multiply(x, gamma, out=x)
            np.add(x, beta, out=x)
            return x

        return run
    out_buf = np.empty((batch,) + layer.output_shape, dtype=FLOAT_DTYPE)

    def run(x: np.ndarray) -> np.ndarray:
        np.multiply(x, gamma, out=out_buf)
        np.add(out_buf, beta, out=out_buf)
        return out_buf

    return run


def _activation_step(layer: Activation, batch: int, inplace: bool) -> PlanStep:
    if layer.function == "linear":
        return lambda x: x
    if layer.function == "relu":
        if inplace:

            def run(x: np.ndarray) -> np.ndarray:
                np.maximum(x, 0.0, out=x)
                return x

            return run
        out_buf = np.empty((batch,) + layer.output_shape, dtype=FLOAT_DTYPE)

        def run(x: np.ndarray) -> np.ndarray:
            np.maximum(x, 0.0, out=out_buf)
            return out_buf

        return run
    # Softmax / sigmoid / tanh allocate internally (they upcast through
    # float64 exactly like the seed path); they sit on tiny head tensors.
    return layer.forward_function


def _pool_step(layer: _Pool2D, batch: int) -> PlanStep:
    out_h, out_w, channels = layer.output_shape
    p1, p2 = layer.pool_size

    if layer.window_reduce == "max":
        _out_buf, apply = _maxpool_fold(layer, batch)
        return apply

    out_buf = np.empty((batch, out_h, out_w, channels), dtype=FLOAT_DTYPE)
    win_buf = np.empty((batch, out_h, out_w, p1 * p2, channels), dtype=FLOAT_DTYPE)
    win_split = win_buf.reshape(batch, out_h, out_w, p1, p2, channels)

    def run(x: np.ndarray) -> np.ndarray:
        # Mean pooling keeps the windowed form: np.mean's reduction order over
        # the window axis is part of the bit pattern, so the seed's window
        # tensor is reproduced (allocation-free -- the window buffer is the
        # same memory layout as an im2col patch buffer).
        im2col_into(x, (p1, p2), layer.stride, win_split)
        np.mean(win_buf, axis=3, out=out_buf)
        return out_buf

    return run


def _zeropad_step(layer: ZeroPadding2D, batch: int) -> PlanStep:
    height, width, _ = layer.input_shape
    out_buf = np.zeros((batch,) + layer.output_shape, dtype=FLOAT_DTYPE)
    pad_h, pad_w = layer.pad_h, layer.pad_w

    def run(x: np.ndarray) -> np.ndarray:
        out_buf[:, pad_h : pad_h + height, pad_w : pad_w + width, :] = x
        return out_buf

    run.scratch_guard = ScratchGuard(
        layer.name,
        out_buf,
        (slice(None), slice(pad_h, pad_h + height), slice(pad_w, pad_w + width), slice(None)),
    )
    return run


#: Provenance of the current activation while compiling, deciding whether an
#: elementwise step may mutate it in place and whether the final result must
#: be copied out of plan scratch:
#:   "input"   -- the caller's array (or a view of it): never mutate.
#:   "scratch" -- a plan-owned reusable buffer: mutable, copy before return.
#:   "pinned"  -- plan-owned scratch with a cross-call invariant (e.g. the
#:                pre-zeroed borders of a padding buffer): never mutate.
#:   "fresh"   -- allocated anew on every call: mutable, returnable as-is.
_INPUT, _SCRATCH, _PINNED, _FRESH = "input", "scratch", "pinned", "fresh"


def _build_step(
    layer: Layer, batch: int, provenance: str
) -> tuple[PlanStep, str]:
    """Compile one standalone (non-block) layer step."""
    mutable = provenance in (_SCRATCH, _FRESH)
    assert not isinstance(layer, (Conv2D, DepthwiseConv2D, Dense))
    if isinstance(layer, Bias):
        return _bias_step(layer, batch, mutable), _SCRATCH if not mutable else provenance
    if isinstance(layer, BatchNorm):
        return (
            _batchnorm_step(layer, batch, mutable),
            _SCRATCH if not mutable else provenance,
        )
    if isinstance(layer, Activation):
        if layer.function == "linear":
            return lambda x: x, provenance
        if layer.function == "relu":
            return (
                _activation_step(layer, batch, mutable),
                _SCRATCH if not mutable else provenance,
            )
        return _activation_step(layer, batch, False), _FRESH
    if isinstance(layer, _Pool2D) and layer.window_reduce in ("max", "mean"):
        return _pool_step(layer, batch), _SCRATCH
    if isinstance(layer, Flatten):
        # A reshape is a view: the result keeps its source's provenance.
        return lambda x: x.reshape(batch, -1), provenance
    if isinstance(layer, ZeroPadding2D):
        # The padding buffer's zero borders persist across calls; an in-place
        # elementwise step downstream would corrupt them.
        return _zeropad_step(layer, batch), _PINNED
    if layer.is_passthrough:
        return lambda x: x, provenance
    # Unknown layer type: fall back to the layer's own inference forward.
    # Bit-identical by definition, just without the fast-path savings.  The
    # conservative "input" provenance forbids in-place mutation downstream
    # (the layer might return its input, or a view of it, unchanged).
    return lambda x: layer.forward(x, training=False), _INPUT


def _fusion_blocked(model, *layers: Layer) -> bool:
    """Whether any of ``layers`` is on the model's fusion blocklist.

    The blocklist holds the names of quarantined layers (maintained by the
    service registry under the model lock) and is re-read here at every
    consumption decision during compilation, so a layer quarantined mid-compile
    is never folded into a matmul kernel or consumed into a block.
    """
    blocklist = getattr(model, "fusion_blocklist", None)
    if not blocklist:
        return False
    return any(layer.name in blocklist for layer in layers)


def _fusable(layer: Layer, following: Optional[Layer]) -> bool:
    """Structural check: can ``following`` fold into ``layer``'s matmul?"""
    return isinstance(layer, (Conv2D, DepthwiseConv2D, Dense)) and isinstance(
        following, (Bias, BatchNorm)
    )


def _collect_block(
    model, layers: list[Layer], index: int, fused: bool
) -> tuple[Optional[Layer], bool, Optional[_Pool2D], int]:
    """Greedy chain collection starting after the matmul layer at ``index``.

    Returns ``(affine, relu, pool, next_index)``.  Exact plans only consume
    what stays bit-identical: a Bias (epilogue add), a ReLU (in-place max) and
    a max-pool (strided fold) -- BatchNorm stops the chain because folding it
    rescales the kernel.  Fused plans consume BatchNorm too.  Every
    consumption decision re-checks the live quarantine blocklist.
    """
    layer = layers[index]
    affine: Optional[Layer] = None
    relu = False
    pool: Optional[_Pool2D] = None
    j = index + 1

    nxt = layers[j] if j < len(layers) else None
    if (
        _fusable(layer, nxt)
        and (fused or isinstance(nxt, Bias))
        and not _fusion_blocked(model, layer, nxt)
    ):
        affine = nxt
        j += 1

    nxt = layers[j] if j < len(layers) else None
    if (
        isinstance(nxt, Activation)
        and nxt.function == "relu"
        and not _fusion_blocked(model, nxt)
    ):
        relu = True
        j += 1
        if isinstance(layer, (Conv2D, DepthwiseConv2D)):
            nxt = layers[j] if j < len(layers) else None
            if (
                isinstance(nxt, _Pool2D)
                and nxt.window_reduce == "max"
                and not _fusion_blocked(model, nxt)
            ):
                pool = nxt
                j += 1
    return affine, relu, pool, j


def _compile_monolithic(model, batch_size: int, fused: bool) -> ForwardPlan:
    steps: list[PlanStep] = []
    captured: list[tuple[Layer, int, bytes]] = []
    folded: list[str] = []
    formulations: list[tuple[str, str]] = []
    layers = list(model.layers)
    index = 0
    provenance = _INPUT
    while index < len(layers):
        layer = layers[index]
        if isinstance(layer, (Conv2D, DepthwiseConv2D, Dense)):
            affine, relu, pool, next_index = _collect_block(
                model, layers, index, fused
            )
            if isinstance(layer, Conv2D):
                direct = batch_size > 0 and layer.stride == (1, 1)
                if direct:
                    probe = _conv_probe(ConvShape.of(layer), batch_size, not fused)
                    direct = probe.direct_faster if fused else probe.identical
                step = _conv_block_step(
                    layer, batch_size, affine, relu, pool, direct, fused
                )
                formulations.append((layer.name, "direct" if direct else "im2col"))
            elif isinstance(layer, DepthwiseConv2D):
                step = _depthwise_block_step(
                    layer, batch_size, affine, relu, pool, fused
                )
            else:
                step = _dense_block_step(layer, batch_size, affine, relu)
            steps.append(step)
            provenance = _SCRATCH
            consumed = [layer] + ([affine] if affine is not None else [])
            if affine is not None and isinstance(affine, BatchNorm):
                folded.append(affine.name)
            for member in consumed:
                if member.has_parameters:
                    captured.append(
                        (
                            member,
                            member.weights_version,
                            plan_weight_fingerprint(member.get_weights()),
                        )
                    )
            index = next_index
        else:
            step, provenance = _build_step(layer, batch_size, provenance)
            steps.append(step)
            if layer.has_parameters:
                captured.append(
                    (
                        layer,
                        layer.weights_version,
                        plan_weight_fingerprint(layer.get_weights()),
                    )
                )
            index += 1
    return ForwardPlan(
        batch_size,
        fused,
        steps,
        captured,
        provenance,
        tuple(folded),
        tuple(formulations),
    )


def compile_plan(
    model,
    batch_size: int,
    fused: bool = False,
    slice_workers: Optional[int] = None,
) -> PlanLike:
    """Compile one plan for ``model`` at ``batch_size``.

    ``model`` must be built.  With ``fused=True`` each Conv2D /
    DepthwiseConv2D / Dense layer immediately followed by a Bias or BatchNorm
    consumes that affine into its own matmul step (BatchNorm folds rescale the
    kernel: tolerance-equivalent, certified by :func:`certify_fusion` before
    the service serves them); fused plans for batches of
    :data:`SLICE_MIN_BATCH` or more additionally split across the slice
    thread pool when more than one worker is available
    (``slice_workers=None`` uses :func:`slice_worker_count`).

    Each stride-1 Conv2D step picks its formulation through the memoized
    ``(batch, geometry)`` probe (:func:`conv_probes`): fused plans take the
    direct strided GEMM where it measured faster than the chunked im2col GEMM
    and im2col elsewhere.  Exact plans (``fused=False``) stay unconditionally
    bit-identical to the seed forward: they consume only bit-preserving chain
    members (Bias epilogue, in-place ReLU, max-pool fold) and adopt the
    direct formulation only where the probe proved it byte-identical.
    """
    if batch_size < 0:
        raise ShapeError(f"batch size must be non-negative, got {batch_size}")
    workers = slice_workers if slice_workers is not None else slice_worker_count()
    if (
        fused
        and workers > 1
        and batch_size >= SLICE_MIN_BATCH
        and batch_size >= 2 * workers
        and model.layers
    ):
        base, remainder = divmod(batch_size, workers)
        slices: list[tuple[int, int, ForwardPlan]] = []
        start = 0
        for worker in range(workers):
            size = base + (1 if worker < remainder else 0)
            slices.append(
                (start, start + size, _compile_monolithic(model, size, fused=True))
            )
            start += size
        return SlicedForwardPlan(batch_size, slices, workers)
    return _compile_monolithic(model, batch_size, fused)
