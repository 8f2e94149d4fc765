"""Benchmark of ``limitlab run`` on four workloads.

    python3 bench/run.py --workload fold --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 10   # every workload, one table
    python3 bench/run.py --make-reference                        # regenerate reference.json

Run from the repository root.  Each run measures set-up (a fresh interpreter
importing ``limitlab.cli``, several times), then starts one workload process
(worker.py) with every ``LIMITLAB_*`` variable removed, so it measures the
default a user gets.  ``wall_norm_s`` and ``setup_s`` are normalized for the
host's speed (calibrate.py); the raw times are printed and kept beside them.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
full result, with provenance, the sweep and the failures, goes to
``.bench_out/<workload>/result.json``; the Chrome trace of a traced run to
``.bench_out/<workload>/trace.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
from layers import PER_LAYER
from workloads import BENCH, OUT, ROOT, SRC, WORKLOADS

# name -> (unit, better); the end_to_end list of BENCHMARK.json matches this.
END_TO_END = {
    "wall_norm_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "passed_frac": ("frac", "higher"),
}
SETUP_PROBES = 5
RUN_TIMEOUT_S = 170.0
_IMPORT = "import sys, time; sys.path.insert(0, 'src'); t = time.perf_counter(); import limitlab.cli; "
# The probe runs the reference loop in the fresh interpreter just before and after the import.
_PROBE = ("import sys, time; sys.path[:0] = ['src', 'bench']; import calibrate; "
          "a = calibrate.loop_seconds(); t = time.perf_counter(); import limitlab.cli; "
          "dt = time.perf_counter() - t; print(dt, a, calibrate.loop_seconds())")


def clean_env() -> tuple[dict, list[str]]:
    """The environment without any LIMITLAB_* variable, and the names removed."""
    stripped = sorted(k for k in os.environ if k.startswith("LIMITLAB_"))
    return {k: v for k, v in os.environ.items() if k not in stripped}, stripped


def git_sha(root: Path) -> str | None:
    """HEAD of the checkout's .git, read as files (no git process, nothing outside root)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def import_seconds(env: dict, timeout: float) -> tuple[float, float]:
    """Seconds a fresh interpreter takes to import limitlab.cli, raw and normalized."""
    proc = subprocess.run([sys.executable, "-c", _PROBE], cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=timeout, check=True)
    raw, loop_before, loop_after = map(float, proc.stdout.split())
    return raw, calibrate.normalize(raw, (loop_before + loop_after) / 2)


def import_breakdown(env: dict, timeout: float) -> dict[str, float]:
    """numpy, scipy.signal and limitlab's own import time from ``-X importtime``."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", _IMPORT],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout, check=True)
    cumulative, limitlab_self = {}, 0
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        parts = [p.strip() for p in line[len("import time:"):].split("|")]
        if not parts[0].isdigit():
            continue  # header line
        self_us, cum_us, module = int(parts[0]), int(parts[1]), parts[2]
        cumulative.setdefault(module, cum_us)
        if module == "limitlab" or module.startswith("limitlab."):
            limitlab_self += self_us
    return {
        "setup.import.numpy_s": cumulative.get("numpy", 0) / 1e6,
        "setup.import.scipy_signal_s": cumulative.get("scipy.signal", 0) / 1e6,
        "setup.import.limitlab_self_s": limitlab_self / 1e6,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, env: dict,
                 stripped: list[str], deadline: float) -> dict:
    out_dir = OUT / name
    out_dir.mkdir(parents=True, exist_ok=True)
    setup = [import_seconds(env, deadline - time.monotonic()) for _ in range(SETUP_PROBES)]
    breakdown = import_breakdown(env, deadline - time.monotonic()) if trace else {}
    result_path = out_dir / "result.json"
    result_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(trace)), "--result", str(result_path)]
    # the worker's own output goes to stderr: stdout ends with the result line
    subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, timeout=deadline - time.monotonic(),
                   check=True)
    result = json.loads(result_path.read_text())
    result["setup_samples_s"] = [raw for raw, _ in setup]
    result["setup_samples_norm_s"] = [norm for _, norm in setup]
    result["setup_raw_s"] = statistics.median(raw for raw, _ in setup)
    result["provenance"].update({"git_sha": git_sha(ROOT), "src_sha256": src_digest(SRC),
                                 "stripped_env": stripped, "seed": seed, "seconds": seconds,
                                 "trace": trace})
    result["end_to_end"] = {
        "wall_norm_s": result["wall_norm_s"],
        "setup_s": statistics.median(norm for _, norm in setup),
        "peak_rss_mb": result["peak_rss_mb"],
        "passed_frac": 1.0 - result["failed"] / result["attempted"],
    }
    if trace:
        result["layers"].update(breakdown)
    result_path.write_text(json.dumps(result, indent=1) + "\n")
    return result


def metric_block(values: dict, units: dict, prefix: str = "") -> dict:
    return {prefix + k: {"value": values[k], "unit": units[k][0]} for k in units}


def summary_line(name: str, result: dict) -> str:
    e = result["end_to_end"]
    failed_frac = result["failed"] / result["attempted"]
    return (f"{name:9s} wall_norm_s {e['wall_norm_s']:.4f} s "
            f"(raw wall_s {result['wall_s']:.4f} s) | setup_s {e['setup_s']:.4f} s (raw {result['setup_raw_s']:.4f} s) | "
            f"peak_rss_mb {e['peak_rss_mb']:.1f} MB | failed_frac {failed_frac:.4f} "
            f"({result['failed']}/{result['attempted']}) | threads {result['provenance']['threads']}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--make-reference", action="store_true")
    args = p.parse_args(argv)
    deadline = time.monotonic() + RUN_TIMEOUT_S

    if not (SRC / "limitlab" / "cli.py").is_file():
        print(f"error: no limitlab sources under {SRC.relative_to(ROOT)}/; run from a full checkout",
              file=sys.stderr)
        return 2
    if "LIMITLAB_SEED" in os.environ:
        print("error: LIMITLAB_SEED is set; it overrides every experiment seed, so the benchmark "
              "refuses to run", file=sys.stderr)
        return 2
    env, stripped = clean_env()
    if stripped:
        print(f"removed from the workload environment: {', '.join(stripped)}", file=sys.stderr)

    if args.make_reference:
        import gate
        import worker

        gate.write_reference(worker.make_reference())
        print(f"wrote {gate.REFERENCE_PATH.relative_to(ROOT)}")
        return 0
    if args.workload is None:
        p.error("--workload is required")

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if args.workload == "all":
        deadline = time.monotonic() + RUN_TIMEOUT_S * len(names)
    results = {}
    for name in names:
        results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace), env,
                                     stripped, deadline)
        print(summary_line(name, results[name]))
    first = results[names[0]]
    print("provenance: " + json.dumps(first["provenance"], sort_keys=True))
    metrics = {}
    for name, result in results.items():
        prefix = f"{name}." if len(names) > 1 else ""
        if args.trace:
            metrics.update(metric_block(result["layers"], PER_LAYER, prefix))
        else:
            metrics.update(metric_block(result["end_to_end"], END_TO_END, prefix))
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
