"""Split one formed Cauchy product into the time each kind of block takes to form.

For the power (alpha = 2), branching (B = 0.5) and scale (d = 3, gamma = 1) kernels
of the benchmark's pairwise sweep at one n, calls ``cauchy.lower_matvec``
``repeats`` times and prints the median ms that one product spends forming
each kind of block, the time left for the products against v, and how many
far pairs (target leaf, source block) take each path:

    python tests/matvec_split.py [n] [repeats]

A single product keeps no block, so every block is formed in it.  The split
is measured from outside the package: ``_Plan._block`` is wrapped to time
each block's ``form()``, and the first module helper that ``form()`` calls
names the block's kind.  The leaf and local bases are told apart by whether
the product has built its pair lists yet, the M2M bases by their ORDER
columns, and per-target from pushed blocks by their source side.
"""

from __future__ import annotations

import contextlib
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from limitlab import cauchy  # noqa: E402
from limitlab.kernels import OffspringSchedule, ScaleSpec, kernel_branching, kernel_power, kernel_scale  # noqa: E402

FAMILIES = {
    "power": lambda: kernel_power(2.0, 1.0),
    "branching": lambda: kernel_branching(OffspringSchedule.harmonic_drift(0.5)),
    "scale": lambda: kernel_scale(ScaleSpec.from_dimension(3.0, 1.0, 2.0)),
}
KINDS = ("layout and geometry", "near windows", "leaf bases", "M2M bases", "local bases", "pair lists",
         "multipole-to-local", "per-target", "pushed", "other")
PATHS = ("multipole-to-local", "per-target", "pushed, per-target", "pushed, dense")


class _Split:
    """Forming time by kind, and far pairs by path, of the products made while ``installed``."""

    def __init__(self):
        self.ms = dict.fromkeys(KINDS, 0.0)
        self.pairs = dict.fromkeys(PATHS, 0)
        self.kind = None
        self.listed = False  # the product has built a pair list: a leaf-sized basis is a local one

    def _kind_of(self, name, args):
        if name == "_basis":
            if args[0].shape[-1] == cauchy.ORDER:
                return "M2M bases"
            return "local bases" if self.listed else "leaf bases"
        if name == "_inverse_difference":
            return "per-target" if args[1].shape[-1] == cauchy.ORDER else "pushed"
        return {"_layout": "layout and geometry", "_geometry": "layout and geometry", "_near": "near windows",
                "_pairs": "pair lists", "_m2l": "multipole-to-local"}[name]

    def _helper(self, name, helper):
        def wrapped(*args):
            if self.kind is None:  # the outer helper names the block; a helper it calls does not
                self.kind = self._kind_of(name, args)
            out = helper(*args)
            if name == "_pairs":
                self.listed = True
                *lists, (near_b, _) = out
                for (lb, _, fb, _), unique in zip(lists, (True, True, False)):
                    self.pairs["multipole-to-local"] += lb.size
                    self.pairs["per-target" if unique else "pushed, per-target"] += fb.size
                self.pairs["pushed, dense"] = near_b.size  # the last level's, summed at the leaves
            return out
        return wrapped

    def _block(self, block):
        def wrapped(plan, form):
            self.kind = None
            start = time.perf_counter()
            out = block(plan, form)
            self.ms[self.kind or "other"] += (time.perf_counter() - start) * 1e3
            return out
        return wrapped

    @contextlib.contextmanager
    def installed(self):
        names = ("_layout", "_near", "_geometry", "_basis", "_pairs", "_m2l", "_inverse_difference")
        saved = {name: getattr(cauchy, name) for name in names}
        block = cauchy._Plan._block
        try:
            for name, helper in saved.items():
                setattr(cauchy, name, self._helper(name, helper))
            cauchy._Plan._block = self._block(block)
            yield self
        finally:
            for name, helper in saved.items():
                setattr(cauchy, name, helper)
            cauchy._Plan._block = block


def split(family: str, n: int, repeats: int) -> tuple[dict[str, float], dict[str, int]]:
    """Median ms per kind over ``repeats`` products, with "products" and "total", and the far pairs per path."""
    _, x, y = (a[1:] for a in FAMILIES[family]().cauchy(n))
    v = np.random.default_rng(n).random(n)
    cauchy.lower_matvec(v, x, y)  # warm-up
    runs = []
    for _ in range(repeats):
        s = _Split()
        with s.installed():
            start = time.perf_counter()
            cauchy.lower_matvec(v, x, y)
            total = (time.perf_counter() - start) * 1e3
        runs.append({**s.ms, "forming": sum(s.ms.values()), "products": total - sum(s.ms.values()), "total": total})
    return {key: statistics.median(r[key] for r in runs) for key in runs[0]}, s.pairs


def main(argv: list[str]) -> int:
    n = int(argv[0]) if argv else 10_000
    repeats = int(argv[1]) if len(argv) > 1 else 9
    results = {family: split(family, n, repeats) for family in FAMILIES}
    print(f"one formed product at n = {n}, median ms of {repeats}")
    print(f"{'':<20}" + "".join(f"{family:>11}" for family in FAMILIES))
    for key in (*KINDS, "forming", "products", "total"):
        print(f"{key:<20}" + "".join(f"{ms[key]:>11.3f}" for ms, _ in results.values()))
    print("far pairs")
    for path in PATHS:
        print(f"{path:<20}" + "".join(f"{pairs[path]:>11}" for _, pairs in results.values()))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
