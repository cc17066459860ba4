"""Steady end-to-end benchmark of the scheduling testbed with a per-layer budget.

Run ``python3 perfbench/run.py --workload suite --seed 1 --seconds 20 --trace 0``
from the root of a checkout; ``perfbench/README.md`` documents the workloads,
metrics and layer map.
"""
