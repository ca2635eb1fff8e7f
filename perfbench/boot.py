"""Run ``python -m repro ARGS`` with the layer wrappers installed.

Usage: ``python perfbench/boot.py SPANS_PATH ARGS...``. The spans are
written to SPANS_PATH when the CLI returns; for ``serve`` that is after
SIGTERM has drained the daemon.
"""

import sys

import tracer


def main() -> int:
    path, args = sys.argv[1], sys.argv[2:]
    tracer.install(path)
    from repro.cli import main as cli_main

    sys.argv = ["repro", *args]
    try:
        return cli_main(args)
    finally:
        tracer.dump(program_counters())


def program_counters() -> dict:
    """The program's own counters at exit (all start at zero)."""
    from repro.experiments.parallel import dispatched_task_count
    from repro.sim.cache import simulation_cache_stats

    stats = simulation_cache_stats()
    return {
        "hits": stats.hits, "misses": stats.misses,
        "disk_hits": stats.disk_hits, "size_growth": stats.size,
        "tasks_dispatched": dispatched_task_count(),
    }


if __name__ == "__main__":
    sys.exit(main())
