"""The GECCO job benchmark: end-to-end job metrics plus a per-layer trace.

Run ``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the repository root; see :mod:`perfbench.run`.
"""
