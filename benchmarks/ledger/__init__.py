"""The perf ledger: absolute, layered, externally referenced measurements.

Run it as ``python -m benchmarks.ledger`` (see ``README.md`` beside this
file).  Importing the package does no work: the process-parallel executor
spawns its workers, and each of them imports the parent's main module.
"""
