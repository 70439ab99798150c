"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``run``      -- run a bundled workload under one or all detectors
* ``exec``     -- compile and run a MiniSMP source file
* ``compile``  -- compile a MiniSMP source file and show the listing
* ``table1``   -- regenerate the paper's Table 1
* ``table2``   -- regenerate the paper's Table 2
* ``overhead`` -- measure the §7.3 detection overheads
* ``campaign`` -- parallel (workload, seed, detector-config) sweep
* ``shard``    -- plan/run/merge a campaign split across independent
               shard processes (see ``docs/scaling.md``)
* ``serve``    -- long-lived supervised fleet of detector executions
* ``fuzz``     -- differential fuzzing of the SVD detector family
* ``bench``    -- gate benchmark artefacts against pinned perf floors
               (and, with ``--gate``, against their recorded trend)
* ``db``       -- query the persistent results database

Each command module registers its subparsers with
``set_defaults(func=...)``; every command runs through one
:class:`~repro.cli.lifecycle.Invocation`, which owns the signal
handlers, heartbeat, obs session, ``--db`` row and exit code.

``run``, ``campaign``, ``serve`` and ``fuzz`` accept ``--obs`` (plus
``--trace-out``/``--metrics-out``) to activate :mod:`repro.obs` for the
command: a metrics summary and span timings at the end of the run, a
canonical-JSON metrics snapshot, and a Chrome trace-event file that
opens directly in Perfetto.  See ``docs/observability.md``.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.cli import campaign, db, fuzz, run, serve
from repro.cli.lifecycle import Invocation


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SVD: serializability violation detection (PLDI'05)")
    sub = parser.add_subparsers(dest="command", required=True)
    for module in (run, campaign, serve, fuzz, db):
        module.register(sub)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return Invocation(args).run()
    except BrokenPipeError:
        # output piped into e.g. `head`; exit quietly like other CLIs
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
