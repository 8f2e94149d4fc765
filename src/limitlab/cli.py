"""Command-line entry point.

Verbs: ``run <config>``, ``list-experiments`` and ``describe <id>``.
Environment: ``LIMITLAB_THREADS`` sets the simulation worker count (default:
every usable CPU), ``LIMITLAB_SEED`` overrides every config seed.
Exit status of ``run`` is 0 exactly when all declared tolerances pass, 1
when one fails, and 2 when the input is rejected: a bad config, environment
or path, with a one-line message.

Heap: ``main`` sets glibc's allocator, through ``mallopt``, to serve arrays
below 32 MiB from the heap (``M_MMAP_THRESHOLD``) and to keep up to 1 GiB of
freed heap mapped (``M_TRIM_THRESHOLD``).  By default glibc maps large numpy
arrays fresh until it has freed one of their size, and hands the freed top of
the heap back to the OS, so the n = 1e5 folds fault the same ~5 MB of arrays
in again and again.  On a 2-core x86_64 host, one ``limitlab run`` of each of
the eight fold experiments at horizons up to 1e5, each in a fresh
interpreter, took 23-56% fewer minor page faults, and the eight ``main`` calls
11-13% less wall time in all (medians of 10 alternating runs, measured twice;
single experiments move from +2% to -21%, some inside their noise).  A second
run in the same process, as a benchmark harness makes, takes under 10 faults
instead of about 1,860 (``prpd-rv``).  The setting belongs to the ``limitlab`` program only:
``import limitlab`` leaves the allocator of a host process alone, and a C
library without ``mallopt`` is left as it is.

The argument parser and the heap setting are made once per process, at the
first ``main`` call and not at import.  A caller that runs ``main`` once per
experiment, as a benchmark harness or a test suite does, saves about 0.85 ms
on each later call: building the argparse tree took 0.82-0.87 ms and reopening
the C library for ``mallopt`` 0.03 ms (medians of 20 calls, 2-core x86_64).
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import functools
import sys
from pathlib import Path

from . import experiments

_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # mallopt parameters of glibc's <malloc.h>


@functools.cache
def _keep_freed_heap() -> None:
    """Serve arrays below 32 MiB from the heap and keep its freed pages mapped.

    Does nothing where the C library has no ``mallopt``.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):  # no C library to open, or one without mallopt
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 1 << 30)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="limitlab",
        description="run desk-scale limit-law experiments for dependent Bernoulli counts",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment from a key = value config file")
    p_run.add_argument("config", help="path to the config file")
    p_run.add_argument("--out", help="output directory (overrides the config 'out' key)")

    sub.add_parser("list-experiments", help="list experiment ids with one-line summaries")

    p_desc = sub.add_parser("describe", help="print what an experiment checks and its defaults")
    p_desc.add_argument("experiment")
    return parser


def _bad_path(path, e: Exception) -> int:
    """Reject a path that cannot be read or written as asked: one line, exit status 2."""
    detail = e if isinstance(e, OSError) else f"{path}: {e}"  # an OSError names its own path
    print(f"error: {detail}", file=sys.stderr)
    return 2


def main(argv=None) -> int:
    # first, so the parser is allocated under the setting too: built before it, the bench's
    # pairwise workload peaked 0.5 MB higher
    _keep_freed_heap()
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "list-experiments":
            for exp_id, summary in experiments.list_experiments():
                print(f"{exp_id:16s} {summary}")
            return 0
        if args.command == "describe":
            print(experiments.describe(args.experiment))
            return 0
        # run
        try:
            config = experiments.load_config(args.config)
        except (OSError, UnicodeDecodeError) as e:  # missing, a directory, not text
            return _bad_path(args.config, e)
        out_dir = Path(args.out or config.out_dir or Path("runs") / config.experiment)
        created = [p for p in (out_dir, *out_dir.parents) if not p.exists()]  # deepest first
        try:
            out_dir.mkdir(parents=True, exist_ok=True)  # a bad path fails before the experiment runs
        except OSError as e:
            return _bad_path(out_dir, e)
        try:
            report = experiments.run(config)
        except BaseException:
            for p in created:  # a run that stops leaves no output behind
                with contextlib.suppress(OSError):  # e.g. "a/.." of "a/../b"; report the run's own error
                    p.rmdir()
            raise
        json_path, csv_path = experiments.write_outputs(report, out_dir)
        for check in report["checks"]:
            mark = "PASS" if check["passed"] else "FAIL"
            print(f"[{mark}] {check['name']}: {check['value']:.6g} (need {check['requirement']})")
        verdict = "PASS" if report["passed"] else "FAIL"
        print(f"{report['experiment']}: {verdict}  ({report['wall_clock_s']:.2f}s)  -> {json_path}, {csv_path}")
        return 0 if report["passed"] else 1
    except experiments.ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except FileNotFoundError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
