"""The repository's benchmark: four seeded workloads over the SAGE stack.

Run one workload with ``python3 perfbench/run.py --workload <name> --seed <n>
--seconds <s> --trace <0|1>`` from the repository root; ``BENCHMARK.json``
names the workloads and metrics, and ``perfbench/NOTES.md`` records why each
workload exists and what it measured.  The benchmark drives the program only
through its public functions and counters, so it measures any revision of
``src/repro`` without changes to the program.
"""
