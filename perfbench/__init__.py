"""End-to-end campaign benchmark with a per-layer ledger.

Run one workload with ``python3 perfbench/run.py --workload fig7a
--seed 1 --seconds 20 --trace 0`` from the repository root; see
``perfbench/run.py`` for the workloads and metrics.
"""
