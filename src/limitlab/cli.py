"""Command-line entry point.

Verbs: ``run <config>``, ``list-experiments``, ``describe <id>``,
``plotdata <report.json>``.  Environment: ``LIMITLAB_THREADS`` sets the
simulation worker count (default: every usable CPU), ``LIMITLAB_SEED``
overrides every config seed.
Exit status of ``run`` is 0 exactly when all declared tolerances pass.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import experiments


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

    p_plot = sub.add_parser("plotdata", help="regenerate the flat CSV table from a JSON report")
    p_plot.add_argument("report", help="path to report.json")
    p_plot.add_argument("--out", help="target CSV path (default: plotdata.csv next to the report)")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "list-experiments":
            for exp_id, summary in experiments.list_experiments():
                print(f"{exp_id:16s} {summary}")
            return 0
        if args.command == "describe":
            print(experiments.describe(args.experiment))
            return 0
        if args.command == "plotdata":
            target = experiments.emit_plotdata(args.report, args.out)
            print(f"wrote {target}")
            return 0
        # run
        config = experiments.load_config(args.config)
        report = experiments.run(config)
        out_dir = args.out or config.out_dir or str(Path("runs") / config.experiment)
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
