"""The repository's benchmark of record; ``python3 perfbench/run.py --help``."""


class BenchError(RuntimeError):
    """A correctness or validity check failed; the run reports no metrics."""
