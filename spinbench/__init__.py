"""Benchmark of the spinchains library and CLI.

Run one workload with ``python3 spinbench/run.py --workload <name> --seed <n>
--seconds <s> --trace <0|1>`` from the repository root; see README.md in this
directory for the workloads, the metrics and what each per-layer number
should move.
"""
