"""The workload process: runs one workload's experiments through ``limitlab run``.

Usage (started by run.py, which cleans the environment first):

    python3 bench/worker.py --workload fold --seed 1 --seconds 10 --trace 0 --result out.json

It repeats passes over the workload's experiments until ``--seconds`` have
passed.  Each experiment is one call of ``limitlab.cli.main(["run", cfg,
"--out", dir])``, timed around the call and next to the reference loop of
calibrate.py, then checked against the exact-value reference.  With ``--trace 1`` passes alternate untraced and traced, so the
same process measures the tracing overhead; the layer sweep runs at the end.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import calibrate
import gate
import layers
from spans import Tracer, write_chrome_trace
from sweep import SWEEPS
from workloads import OUT, SRC, WORKLOADS, plan

sys.path.insert(0, str(SRC))


def write_configs(workload, seed: int, out_dir: Path) -> list[tuple[str, Path]]:
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for exp, text in plan(workload, seed):
        path = out_dir / f"{exp}.cfg"
        path.write_text(text)
        paths.append((exp, path))
    return paths


def run_experiment(cli, cfg: Path, out_dir: Path) -> tuple[float, str | None]:
    """Wall time of one ``limitlab run`` and its error, or None when it passed."""
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["run", str(cfg), "--out", str(out_dir)])
        error = None if code == 0 else f"limitlab run exited with {code}"
    except SystemExit as e:
        error = f"limitlab run exited with {e.code}"
    except Exception:  # the benchmark counts the failure and goes on
        error = traceback.format_exc()
    return time.perf_counter() - t0, error


def run_pass(cli, configs, out_dir: Path, reference: dict, tracer: Tracer | None = None) -> dict:
    """One pass over the experiments.

    The reference loop runs before the first experiment and after each one;
    an experiment's ``loops`` entry is the mean of the loops on either side.
    """
    times, loops, worst, failures = {}, {}, 0.0, []
    cpu0 = time.process_time()
    loop_before = calibrate.loop_seconds()
    for exp, cfg in configs:
        idx = tracer.begin("bench.experiment", experiment=exp) if tracer else None
        dt, error = run_experiment(cli, cfg, out_dir / exp)
        if tracer:
            tracer.end(idx)
        loop_after = calibrate.loop_seconds()
        times[exp] = dt
        loops[exp] = (loop_before + loop_after) / 2
        loop_before = loop_after
        if error is None:
            report = json.loads((out_dir / exp / "report.json").read_text())
            err, misses = gate.compare(gate.exact_columns(report), reference[exp])
            worst = max(worst, err)
            if misses:
                error = "exact-value reference missed: " + "; ".join(misses[:5])
        if error is not None:
            failures.append({"experiment": exp, "error": error})
            print(f"FAILED {exp}: {error}", file=sys.stderr)
    return {"wall_s": sum(times.values()), "times": times, "loops": loops,
            "cpu_s": time.process_time() - cpu0,
            "attempted": len(configs), "failed": len(failures), "failures": failures,
            "exact_max_rel_err": worst}


def provenance() -> dict:
    import numpy
    import scipy

    import limitlab
    from limitlab import simulate

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "limitlab": limitlab.__version__,
        "machine": platform.machine(),
        "threads": simulate.resolve_threads(),
    }


def normalized_wall(passes: list[dict]) -> float:
    """Sum over experiments of the median, over passes, of the normalized time."""
    return sum(statistics.median(calibrate.normalize(r["times"][exp], r["loops"][exp])
                                 for r in passes)
               for exp in passes[0]["times"])


def median_metrics(samples: list[dict]) -> dict:
    return {k: statistics.median(s[k] for s in samples) for k in samples[0]}


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--result", required=True)
    args = p.parse_args(argv)

    from limitlab import cli

    workload = WORKLOADS[args.workload]
    out_dir = OUT / workload.name
    configs = write_configs(workload, args.seed, out_dir / "configs")
    reference = gate.load_reference()[workload.name]

    passes, traced_layers, tracer = [], [], None
    t_start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        tracer = Tracer() if traced else tracer
        patch = layers.install(tracer) if traced else None
        try:
            result = run_pass(cli, configs, out_dir / "runs", reference, tracer if traced else None)
        finally:
            if patch:
                patch.undo()
        result["traced"] = traced
        passes.append(result)
        if traced:
            traced_layers.append(layers.layer_metrics(tracer))
        enough = not args.trace or len(passes) >= 2
        if enough and time.perf_counter() - t_start >= args.seconds:
            break

    plain = [r for r in passes if not r["traced"]]
    out = {
        "workload": workload.name,
        "provenance": provenance(),
        "passes": [{k: r[k] for k in ("wall_s", "times", "loops", "cpu_s", "traced", "attempted",
                                      "failed")}
                   for r in passes],
        "failures": [f for r in passes for f in r["failures"]],
        "attempted": sum(r["attempted"] for r in passes),
        "failed": sum(r["failed"] for r in passes),
        "exact_max_rel_err": max(r["exact_max_rel_err"] for r in passes),
        "wall_norm_s": normalized_wall(plain),
        "wall_s": sum(statistics.median(r["times"][exp] for r in plain) for exp, _ in configs),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if args.trace:
        lay = median_metrics(traced_layers)
        lay["experiments.exact_max_rel_err"] = out["exact_max_rel_err"]
        lay["process.cpu_s"] = statistics.median(r["cpu_s"] for r in plain)
        traced_wall = statistics.median(r["wall_s"] for r in passes if r["traced"])
        lay["trace.overhead_frac"] = traced_wall / statistics.median(r["wall_s"] for r in plain) - 1.0
        out["layers"] = lay
        out["trace_file"] = str((out_dir / "trace.json").relative_to(OUT.parent))
        write_chrome_trace(out_dir / "trace.json", tracer,
                           {"workload": workload.name, "provenance": out["provenance"]})
        out["sweep"] = SWEEPS[workload.sweep](args.seed)
    Path(args.result).write_text(json.dumps(out, indent=1) + "\n")
    return 0


def make_reference() -> dict:
    """Run every workload once and collect its exact values."""
    from limitlab import cli

    refs = {}
    for workload in WORKLOADS.values():
        out_dir = OUT / "reference" / workload.name
        refs[workload.name] = {}
        for exp, cfg in write_configs(workload, 0, out_dir / "configs"):
            _, error = run_experiment(cli, cfg, out_dir / exp)
            if error is not None:
                raise RuntimeError(f"{workload.name}/{exp} failed: {error}")
            report = json.loads((out_dir / exp / "report.json").read_text())
            refs[workload.name][exp] = gate.exact_columns(report)
    return refs


if __name__ == "__main__":
    sys.exit(main())
