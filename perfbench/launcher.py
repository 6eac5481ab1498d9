"""Start the allocation daemon with the per-layer wrappers installed.

Usage: ``python3 perfbench/launcher.py SUMMARY_PATH serve [serve options]``

Installs :func:`perfbench.layers.install_service` in this process, then
hands the remaining arguments to ``repro.cli.main`` exactly as
``python -m repro.cli`` would, so the daemon runs
:func:`repro.service.server.run_daemon` with the deployment defaults.
On SIGUSR1 it writes its per-layer sums to ``SUMMARY_PATH`` (atomically)
and keeps serving.
"""

from __future__ import annotations

import json
import os
import signal
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(argv: list) -> int:
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    from perfbench.layers import LayerProbe, daemon_summary, install_service
    from perfbench.spans import Tracer
    from repro.cli import main as cli_main

    summary_path, serve_args = argv[0], argv[1:]
    tracer = Tracer()
    probe = LayerProbe(tracer)
    install_service(tracer, probe)

    def dump(signum, frame) -> None:
        partial = summary_path + ".part"
        with open(partial, "w", encoding="utf-8") as handle:
            json.dump(daemon_summary(tracer, probe), handle)
        os.replace(partial, summary_path)

    signal.signal(signal.SIGUSR1, dump)
    return cli_main(serve_args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
