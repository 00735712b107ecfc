"""End-to-end benchmark of the self-healing inference service.

Run it from the repository root::

    python3 perfbench/run.py --workload saturate-mnist --seed 1 --seconds 20 --trace 0

The workloads and the reason each one exists are in :mod:`perfbench.workloads`.
"""
