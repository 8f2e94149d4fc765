"""Seeded tests of the three simulators: counts that do not depend on the
thread count, and moments within four standard errors of the exact kernel
moments.  The step-by-step level-walk oracle is held to the same standard."""

import math

import numpy as np
import pytest

from limitlab.kernels import OffspringSchedule, ScaleSpec, kernel_branching, kernel_distance, kernel_scale
from limitlab.moments import MomentTable
from limitlab.simulate import _CHUNK, sim_bpve, sim_gw, sim_levelwalk

from oracles import levelwalk_steps

SPEC = ScaleSpec.from_dimension(3.0, 1.0, 2.0)
SCHEDULE = OffspringSchedule.harmonic_drift(0.5)
# simulator and the kernel whose exact moments its counts follow
MODELS = {
    "gw": (lambda **kw: sim_gw(level=1, **kw), lambda: kernel_distance(lambda i: (1.0 + i) ** 2)),
    "bpve": (lambda **kw: sim_bpve(SCHEDULE, **kw), lambda: kernel_branching(SCHEDULE)),
    "levelwalk": (lambda **kw: sim_levelwalk(SPEC, **kw), lambda: kernel_scale(SPEC)),
}
CHECKPOINTS = (10, 25, 50)


def zscore(sample, exact):
    return (sample.mean() - exact) / (sample.std(ddof=1) / math.sqrt(sample.size))


@pytest.mark.parametrize("model", list(MODELS))
def test_counts_do_not_depend_on_thread_count(model):
    sim, _ = MODELS[model]
    kw = dict(n=50, replicates=2 * _CHUNK + 1, seed=3, checkpoints=CHECKPOINTS)
    one, two = sim(threads=1, **kw), sim(threads=2, **kw)
    assert one.counts.shape == (2 * _CHUNK + 1, len(CHECKPOINTS))
    assert np.array_equal(one.counts, two.counts)


@pytest.mark.parametrize("model", list(MODELS))
def test_moments_match_the_exact_table(model):
    sim, kernel = MODELS[model]
    batch = sim(n=50, replicates=20_000, seed=11, checkpoints=CHECKPOINTS)
    table = MomentTable.build(kernel(), CHECKPOINTS, 2)
    for ci in range(len(CHECKPOINTS)):
        c = batch.counts[:, ci].astype(float)
        assert abs(zscore(c, table.values[0, ci])) <= 4.0
        assert abs(zscore(c**2, table.values[1, ci])) <= 4.0


@pytest.mark.parametrize("x0", [None, 1.0])
def test_steps_oracle_matches_the_exact_mean(x0):
    n = 10
    counts = levelwalk_steps(SPEC, n, replicates=2000, seed=5, x0=x0)
    exact = MomentTable.build(kernel_scale(SPEC), range(1, n + 1), 1).values[0]
    for k in range(n):
        assert abs(zscore(counts[:, k].astype(float), exact[k])) <= 4.0


def test_levelwalk_start_must_lie_below_the_first_level():
    for x0 in (0.0, SPEC.b, 3.0):
        with pytest.raises(ValueError, match="x0"):
            sim_levelwalk(SPEC, 10, replicates=10, x0=x0)
