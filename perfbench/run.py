"""Run one workload of the benchmark of record and print its metrics.

Usage::

    python3 perfbench/run.py --workload sim-paper --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the program under test is imported
from that checkout's ``src/``.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(every end-to-end metric with ``--trace 0``, every per-layer metric
with ``--trace 1``).  A failed output check prints ``correct: false``
and exits 1; a checkout without the program exits 2 without a result.
See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

END_TO_END_UNITS = {
    "setup_s": "s",
    "sim_tasks_per_s": "1/s",
    "awe_mean": "fraction",
    "server_cpu_ms_per_op": "ms",
    "ops_per_s": "1/s",
    "recover_s": "s",
}


def _bootstrap() -> None:
    """Import the program from this checkout's ``src/`` and nowhere else."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        sys.stderr.write(f"perfbench: no program under {src}; run from a full checkout\n")
        sys.exit(2)
    sys.path[:0] = [src, ROOT]
    import repro

    if os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__))) != src:
        sys.stderr.write(f"perfbench: imported repro from {repro.__file__}, not {src}\n")
        sys.exit(2)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=("sim-paper", "svc-open-wide", "svc-batch-hot")
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    _bootstrap()

    from perfbench import BenchError
    from perfbench.layers import PER_LAYER_METRICS
    from perfbench.simgrid import run_sim_paper
    from perfbench.svc import run_batch_hot, run_open_wide

    runner = {
        "sim-paper": run_sim_paper,
        "svc-open-wide": run_open_wide,
        "svc-batch-hot": run_batch_hot,
    }[args.workload]
    try:
        result = runner(ROOT, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        sys.stderr.write(f"perfbench: check failed: {exc}\n")
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    except Exception:
        traceback.print_exc()
        return 3
    if args.trace:
        values, units = result["per_layer"], PER_LAYER_METRICS
    else:
        values, units = result["end_to_end"], END_TO_END_UNITS
    if "traffic" in result:
        sys.stderr.write(f"perfbench: traffic {json.dumps(result['traffic'])}\n")
    if "unscaled" in result:
        sys.stderr.write(f"perfbench: unscaled {json.dumps(result['unscaled'])}\n")
    for name in units:
        sys.stderr.write(f"perfbench: {name} = {values[name]:.6g} {units[name]}\n")
    print(
        json.dumps(
            {
                "correct": True,
                "attempted": int(result["attempted"]),
                "failed": int(result["failed"]),
                "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
