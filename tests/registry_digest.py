"""Print one SHA-256 per experiment config over what its run computed.

The digest is taken over ``repr((rows, checks, passed))`` of the report, so
two trees that print the same lines computed the same bytes.  The configs are
the registry's experiments at their defaults, then every config of each
benchmark workload at run seed 7 (``plan`` of ``bench/workloads.py``, which
is only read):

    python tests/registry_digest.py [repository root]

``LIMITLAB_SEED`` is ignored, so each config runs at its declared seed.
``data/registry_digests.txt`` holds the lines of the committed tree, and CI
diffs its runs at 1 and 2 threads against them.  A change that moves bytes on
purpose rewrites that file, so its diff names the configs that moved:

    python tests/registry_digest.py > tests/data/registry_digests.txt
"""

from __future__ import annotations

import hashlib
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main(argv: list[str]) -> int:
    root = Path(argv[0]).resolve() if argv else ROOT
    sys.dont_write_bytecode = True  # leaves no __pycache__ under bench/
    sys.path[:0] = [str(root / "src"), str(root / "bench")]
    os.environ.pop("LIMITLAB_SEED", None)
    import workloads
    from limitlab import experiments

    configs = [(exp, f"experiment = {exp}\n") for exp in experiments._REGISTRY]
    configs += [(f"{w.name}/{exp}", text) for w in workloads.WORKLOADS.values() for exp, text in workloads.plan(w, 7)]
    for name, text in configs:
        report = experiments.run(experiments.parse_config(text))
        digest = hashlib.sha256(repr((report["rows"], report["checks"], report["passed"])).encode()).hexdigest()
        print(f"{name:<24}  {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
