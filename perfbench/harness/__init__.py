"""The seeded benchmark harness: workloads, oracle checks, span tracing.

Entry point: ``python3 perfbench/run.py --workload <name> --seed <n>
--seconds <s> --trace <0|1>`` from the repository root. See
``perfbench/README.md`` for the workloads and the metric contract.
"""
