"""Run one workload of the service benchmark and report its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload faults-mnist --seed 3 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` wraps each
layer's public calls in spans and reports the per-layer metrics instead.
Every metric is printed by name and unit, then the last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  The full result (host metadata, counts, self times) and, when
traced, every span go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "perfbench", "out")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _import_program():
    """Import the service from this checkout's ``src``, never from elsewhere."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        raise ImportError(f"no program source at {SRC}")
    sys.path[:0] = [ROOT, SRC]
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise ImportError(f"repro imported from {repro.__file__}, not from {SRC}")


def _show(section: str, metrics: dict) -> None:
    for name, (value, unit) in metrics.items():
        print(f"{section:8s} {name:36s} {value:.6g} {unit}")


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        _import_program()
    except ImportError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    from perfbench.harness import run_workload
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    recorder_out = None
    if args.trace:
        os.makedirs(OUT, exist_ok=True)
        # One file per workload: a saturating run records ~200k spans.
        recorder_out = os.path.join(OUT, f"spans-{workload.name}.jsonl.gz")
    result = run_workload(workload, args.seed, args.seconds, bool(args.trace), recorder_out)

    print(f"workload {workload.name} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}: {workload.why}")
    _show("e2e", result["e2e"])
    _show("detail", result["details"])
    _show("layer", result["layers"])
    for name, seconds in sorted(result.get("self_time_s", {}).items()):
        print(f"self     {name:36s} {seconds:.6g} s")
    print("counts", json.dumps(result["counts"], sort_keys=True))
    print("host", json.dumps(result["host"], sort_keys=True))
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=1, sort_keys=True, default=str)
    reported = result["layers"] if args.trace else result["e2e"]
    print(json.dumps({
        "correct": result["correct"],
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in reported.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
