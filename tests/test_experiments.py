"""Reports reload bit for bit from the files ``write_outputs`` writes,
the Monte Carlo experiments pass every check end to end, sweep points inside a theorem's
range pass, no experiment's claim moves with its model, and each claim states its limit."""

import csv
import json
import math
from dataclasses import replace

import mpmath
import numpy as np
import pytest

from limitlab import WeightSequence, experiments, multisum
from limitlab.simulate import ReplicateBatch
from limitlab.special import zeta_tail

from oracles import independent_psi, power_coefficient

EXACT = [exp for exp, d in experiments._REGISTRY.items() if isinstance(d.runner, experiments.ExactSpec)]
# the branching runs shortened, as in the registry snapshot; every other experiment runs at its defaults
SIZES = dict.fromkeys(["thz-bpve-i", "thz-bpve-ii"], "replicates = 4096\nhorizons = 100, 200\n")


def config(experiment, **params):
    cfg = experiments.parse_config(f"experiment = {experiment}\n{SIZES.get(experiment, '')}")
    return replace(cfg, params={**cfg.params, **params})


def bits(rows):
    return [[repr(v) for v in row] for row in rows]


def test_table_csv_reproduces_rows_bit_for_bit(tmp_path):
    report = experiments.run(experiments.parse_config("experiment = prpd-rv\nhorizons = 10, 100, 1000\n"))
    report["rows"].append([7, 1.0 / 3.0, -0.0, 5e-324, 0.1 + 0.2])  # values short formats would lose
    json_path, csv_path = experiments.write_outputs(report, tmp_path / "out")
    with open(csv_path, newline="") as f:
        header, *lines = list(csv.reader(f))
    assert header == report["columns"]
    reloaded = [[int(line[0])] + [float(v) if v else None for v in line[1:]] for line in lines]
    assert bits(reloaded) == bits(report["rows"])
    assert bits(json.loads(json_path.read_text())["rows"]) == bits(report["rows"])
    # the JSON alone rebuilds the table, byte for byte
    assert experiments._table_text(json.loads(json_path.read_text())).encode() == csv_path.read_bytes()


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_write_outputs_refuses_non_finite_values(tmp_path, bad):
    report = experiments.run(experiments.parse_config("experiment = prpd-rv\nhorizons = 10, 100\n"))
    report["checks"][0]["value"] = bad
    with pytest.raises(ValueError):
        experiments.write_outputs(report, tmp_path / "out")
    assert not (tmp_path / "out").exists()


def test_a_sample_with_zero_variance_fails_with_finite_values(tmp_path, monkeypatch):
    # every replicate of the stub counts 1 success, so no z-score exists
    def constant(spec, n, replicates, seed, checkpoints):
        return ReplicateBatch(replicates, tuple(checkpoints), np.ones((replicates, len(checkpoints)), dtype=np.int64))

    monkeypatch.setattr(experiments, "sim_levelwalk", constant)
    report = experiments.run(experiments.parse_config("experiment = c3-cutsphere\nreplicates = 2\nhorizons = 2, 3\n"))
    zchecks = [c for c in report["checks"] if "z-score" in c["name"]]
    assert len(zchecks) == 4
    for check in zchecks:
        assert math.isfinite(check["value"]) and check["value"] != 0
        assert "variance is 0" in check["requirement"]
        assert not check["passed"]
    experiments.write_outputs(report, tmp_path / "out")  # finite, so JSON can hold it


def test_a_zero_variance_sample_passes_only_at_the_exact_mean():
    sample = np.full(5, 2.0)
    assert experiments._zscore("z", sample, 2.0, 1.0)["passed"]
    assert not experiments._zscore("z", sample, 2.0 + 1e-12, 1.0)["passed"]


@pytest.mark.parametrize("experiment", ["prpd-summable", "rzr-i", "rzr-iii", "thbb-geo"])
def test_one_horizon_omits_the_checks_that_compare_horizons(experiment):
    report = experiments.run(experiments.parse_config(f"experiment = {experiment}\nhorizons = 1000\n"))
    assert report["checks"]
    assert not [c["name"] for c in report["checks"] if "decreasing" in c["name"]]


@pytest.mark.parametrize("text", [
    "experiment = thz-bpve-i\nreplicates = 4096\nhorizons = 100, 200\n",
    "experiment = thz-bpve-ii\nreplicates = 4096\nhorizons = 100, 200\n",
    "experiment = c3-cutsphere\n",
    "experiment = c4-gbm\n",
], ids=["thz-bpve-i", "thz-bpve-ii", "c3-cutsphere", "c4-gbm"])
def test_monte_carlo_experiments_pass_every_check(text):
    report = experiments.run(experiments.parse_config(text))
    assert report["checks"]
    assert [c["name"] for c in report["checks"] if not c["passed"]] == []


@pytest.mark.parametrize("d", [4, 5, 3.000001])
def test_levelwalk_off_dimension_3_passes_every_check(d):
    # gamma = d - 2: the exact mean grows like gamma (a/b) log n, so the band is
    # on that scale (without gamma the ratio read 1.91 at d = 4 and n = 500);
    # the name gives gamma to its shortest round-trip digits, 1.0000010000000001 at d = 3.000001
    report = experiments.run(experiments.parse_config(f"experiment = c3-cutsphere\nd = {d}\nreplicates = 2000\n"))
    assert [c["name"] for c in report["checks"] if not c["passed"]] == []
    band = next(c for c in report["checks"] if c["name"].startswith("mean/("))
    assert band["name"].startswith(f"mean/({d - 2} (a/b) log n)")
    assert abs(band["value"] - 1.0) < 0.1


@pytest.mark.parametrize("experiment, builder, k_max", [
    ("rzr-i", "_fold_tables", 3),
    ("rzr-ii", "_fold_tables", 2),
    ("thbb-exp", "_fold_tables", 2),
    ("tha-gamma", "_psi_tables", 2),
])
def test_runner_builds_one_table_at_its_top_order(monkeypatch, experiment, builder, k_max):
    orders = {}
    for name in ("_fold_tables", "_psi_tables"):
        real = getattr(multisum, name)
        orders[name] = []
        monkeypatch.setattr(multisum, name, lambda *a, _real=real, _seen=orders[name]: _seen.append(a[2]) or _real(*a))
    zeta_calls = []
    real_zeta = experiments.zeta_tail
    monkeypatch.setattr(experiments, "zeta_tail", lambda *a, **kw: zeta_calls.append(a) or real_zeta(*a, **kw))
    experiments.run(experiments.parse_config(f"experiment = {experiment}\nhorizons = 100, 500, 1000\n"))
    # a fold table stops one order below k_max, since the top order comes from one dot per
    # horizon, and order 1 is the running sum of r: at k_max = 2 no fold table is built
    built = ([k_max - 1] if k_max > 2 else []) if builder == "_fold_tables" else [k_max]
    assert orders == {"_fold_tables": [], "_psi_tables": [], builder: built}
    assert len(zeta_calls) == (1 if experiment == "rzr-i" else 0)


# every registry model that is a distance weight, by the experiment that declares it
REGISTRY_WEIGHTS = {name: d.runner.model(d.params) for name, d in experiments._REGISTRY.items()
                    if isinstance(d.runner.model(d.params), WeightSequence)}


@pytest.mark.parametrize("name", sorted(REGISTRY_WEIGHTS))
def test_registry_weights_are_prefixes_of_their_longest_evaluation(name):
    # a run evaluates each weight once, at its largest horizon, and reads every
    # smaller one as a prefix of that array and of its running sum
    w = REGISTRY_WEIGHTS[name]
    r = w.reciprocals(100_000)
    s = np.cumsum(r)
    for k in (1, 100, 2048, 10_000):
        head = w.reciprocals(k)
        assert head.tobytes() == r[: k + 1].tobytes()
        assert np.cumsum(head).tobytes() == s[: k + 1].tobytes()


def test_a_run_evaluates_its_weights_once(monkeypatch):
    # the claims of orders 1 and 2 and both fold paths share one evaluation,
    # and the next run evaluates afresh
    calls = []
    real = experiments._LINEAR_WEIGHTS.weight
    monkeypatch.setitem(vars(experiments._LINEAR_WEIGHTS), "weight", lambda i: calls.append(i.size) or real(i))
    cfg = experiments.parse_config("experiment = thbb-exp\n")
    reports = [experiments.run(cfg) for _ in range(2)]
    assert calls == [100_000, 100_000]
    assert reports[0]["rows"] == reports[1]["rows"] and multisum._SHARED.arrays is None


def perturbed(model):
    """The model with every weight, or rho, times 1.1: a Cauchy kernel's a_j times 1.1."""
    if isinstance(model, WeightSequence):
        return replace(model, weight=lambda i: 1.1 * model.weight(i))

    def arrays(n):
        a, x, y = model.arrays(n)
        return 1.1 * a, x, y

    return replace(model, description=f"1.1 x {model.description}", arrays=arrays)


def column(report, i):
    return [repr(row[i]) for row in report["rows"]]


@pytest.mark.parametrize("experiment", list(experiments._REGISTRY))
def test_a_perturbed_model_meets_the_same_claim(monkeypatch, experiment):
    # the claim is built from the params alone, so a model off the theorem moves only what the model gives
    cfg = config(experiment)
    want = experiments.run(cfg)
    d = experiments._REGISTRY[experiment]
    spec = replace(d.runner, model=lambda p: perturbed(d.runner.model(p)))
    monkeypatch.setitem(experiments._REGISTRY, experiment, replace(d, runner=spec))
    got = experiments.run(cfg)
    assert want["rows"]
    if experiment in EXACT:
        assert column(got, 2) == column(want, 2)
        assert all(g != w for g, w in zip(column(got, 1), column(want, 1)))
        return
    # the seeded sampler draws from the params, so the counts keep their bits and the exact means move
    assert column(got, 1) == column(want, 1) and column(got, 4) == column(want, 4)
    assert all(g != w for g, w in zip(column(got, 2), column(want, 2)))
    assert [c for c in got["checks"] if "z-score" in c["name"] and not c["passed"]]
    # checks read from the counts and the claim alone, as thy-gw's TV distance, keep their bits; the
    # Poisson contrast reads the model's exact moments
    kept = [c for c in want["checks"] if "z-score" not in c["name"] and "mean" not in c["name"]
            and not c["name"].startswith("not Poisson")]
    assert [c for c in got["checks"] if c["name"] in {k["name"] for k in kept}] == kept


def test_every_experiment_without_replicates_is_exact():
    assert len(EXACT) == 10
    for exp, d in experiments._REGISTRY.items():
        spec = experiments.ExactSpec if d.replicates is None else experiments.MonteCarloSpec
        assert type(d.runner) is spec, exp


@pytest.mark.parametrize("experiment, params", [
    *[("thg", {"alpha": a}) for a in (0.5, 1.0, 4.0)],
    *[("tha-gamma", {"alpha": a}) for a in (1.0, 4.0)],
    ("rzr-i", {"sigma": 3.0}),
    ("rzr-iii", {"sigma": 0.25}),
    ("rzr-iv", {"sigma": 0.25}),
    *[("prpd-rv", {"m": m}) for m in (1, 3, 4)],
    *[("rzr-iv", {"k": k, "k_max": k}) for k in (3, 4)],
    *[("thz-bpve-ii", {"B": b}) for b in (0.0, 0.25, 0.75, 0.9)],
    *[("c3-cutsphere", {"d": d}) for d in (4.0, 5.0)],
], ids=lambda v: v if isinstance(v, str) else ",".join(f"{k}={x:g}" for k, x in v.items()))
def test_a_point_inside_the_theorem_passes_every_check(experiment, params):
    # a sweep is a replace on the params, for any experiment; tha-gamma at alpha = 0.5 and
    # rzr-i at sigma = 1.5 converge too slowly for their bounds and are left out
    report = experiments.run(config(experiment, **params))
    assert report["checks"]
    assert [c["name"] for c in report["checks"] if not c["passed"]] == []


COUNTS = {"thg", "thbb-geo", "thbb-exp", "tha-gamma", "c3-cutsphere", "c4-gbm", "thy-gw", "thz-bpve-i", "thz-bpve-ii"}


def test_the_poisson_contrast_ends_every_count_experiment():
    # exact experiments whose claim holds a law and reaches order 2, and every Monte Carlo experiment
    for exp in experiments._REGISTRY:
        names = [c["name"] for c in experiments.run(config(exp))["checks"]]
        contrast = [i for i, name in enumerate(names) if name.startswith("not Poisson: 2 Psi(2)/Psi(1)^2 at n=")]
        assert contrast == ([len(names) - 1] if exp in COUNTS else []), exp


def test_the_poisson_contrast_reads_the_same_from_moments_and_from_psi():
    # tha-gamma reads E C and E C^2, thg the Psi tables of the same kernel
    hs = "horizons = 1000, 10000, 30000\n"
    got = [experiments.run(experiments.parse_config(f"experiment = {exp}\n{hs}"))["checks"][-1]
           for exp in ("tha-gamma", "thg")]
    assert got[0]["name"] == got[1]["name"]
    assert got[0]["value"] == pytest.approx(got[1]["value"], rel=1e-12)


@pytest.mark.parametrize("lam", [0.25, 1.0])
def test_the_poisson_contrast_fails_on_independent_trials(monkeypatch, lam):
    # independent successes with p_j = lam / j have R = 1 - sum p^2 / (sum p)^2, below 1: the
    # binomial's side of Poisson.  Run through thg's spec, with the oracle's Psi tables as its engine
    hs = (100, 1000, 10000)
    p = np.concatenate([[0.0], lam / np.arange(1, hs[-1] + 1)])
    want = 1.0 - np.sum(p**2) / np.sum(p) ** 2
    psi = independent_psi(p, hs, 2)
    d = experiments._REGISTRY["thg"]
    monkeypatch.setitem(experiments._REGISTRY, "thg", replace(d, runner=replace(d.runner, model=lambda params: p)))
    monkeypatch.setattr(experiments, "psi_curve", independent_psi)
    report = experiments.run(experiments.parse_config("experiment = thg\nhorizons = 100, 1000, 10000\n"))
    checks = [report["checks"][-1], experiments._poisson_contrast(hs, psi[0], psi[0] + 2 * psi[1], moments=True)]
    for check in checks:
        assert check["name"] == "not Poisson: 2 Psi(2)/Psi(1)^2 at n=10000 above 1.1"
        assert check["value"] == pytest.approx(want, rel=1e-12) and want < 1
        assert not check["passed"]


def claim(experiment, **params):
    """The ``Claim`` of an experiment at its default params updated by ``params``."""
    d = experiments._REGISTRY[experiment]
    return d.runner.claim({**d.params, **params})


class TestClaims:
    """Each claim read through its experiment's runner, as ``ExactSpec`` builds it."""

    def test_summable_constant(self):
        p = claim("prpd-summable")
        assert p.scaling == "constant"
        assert p.coefficient(3) == pytest.approx((math.pi**2 / 6 - 1) ** 3, rel=1e-14)

    def test_regularly_varying(self):
        p = claim("prpd-rv")
        assert p.scaling == "S(n)^m"
        assert p.coefficient(2) == pytest.approx(math.pi / 4, rel=1e-12)

    def test_power(self):
        p = claim("thg", alpha=1.0)
        assert p.scaling == "(log n)^k"
        assert p.coefficient(2) == pytest.approx(1.0, rel=1e-14)

    def test_power_moment_variant(self):
        p = claim("tha-gamma", alpha=2.0, beta=1.0)
        assert p.scaling == "(log n)^k"
        assert p.coefficient(2) == pytest.approx(6.0 / 4.0, rel=1e-14)

    @pytest.mark.parametrize("moment", [False, True])
    def test_power_coefficient_keeps_its_bits(self, moment):
        # the Gamma law's moment must divide in the order the coefficient was first written in
        rng = np.random.default_rng(20250423)
        for alpha, beta in rng.uniform(0.05, 6.0, (400, 2)).tolist():
            coefficient = claim("tha-gamma" if moment else "thg", alpha=alpha, beta=beta).coefficient
            for k in range(1, 9):
                assert coefficient(k) == power_coefficient(alpha, beta, k, moment), (alpha, beta, k)

    @pytest.mark.parametrize("experiment, params", [*[(exp, {}) for exp in EXACT],
                                                    *[("rzr-iv", {"sigma": s}) for s in (0.0, 0.25, 0.75)]],
                             ids=lambda v: v if isinstance(v, str) else ",".join(f"{k}={x:g}" for k, x in v.items()) or "defaults")
    @pytest.mark.parametrize("k", range(1, 7))
    def test_every_exact_coefficient_is_the_theorems(self, experiment, params, k):
        # the theorem's constant of order k, in mpmath: a Dirichlet Gamma ratio, a Hurwitz zeta to
        # the power k, Gamma moments, geometric moments from the polylog, k! or (1 - sigma)^-k
        p = {**experiments._REGISTRY[experiment].params, **params}
        with mpmath.workdps(30):
            t = 1 - mpmath.mpf(p.get("sigma", 0.5))  # prpd-rv sums the weights sqrt(d): sigma = 1/2
            rising = mpmath.rf(p.get("alpha", 1), k) / (mpmath.mpf(p.get("alpha", 1)) * p.get("beta", 1)) ** k
            mean = mpmath.zeta(2, 2)
            want = float({
                "prpd-summable": lambda: mean**k,
                "prpd-rv": lambda: (t * mpmath.gamma(t)) ** k / mpmath.gamma(1 + k * t),
                "rzr-i": lambda: mpmath.zeta(p["sigma"], p["n0"]) ** k,  # depth m = 0
                "rzr-ii": lambda: 1,
                "rzr-iii": lambda: t**-k,
                "rzr-iv": lambda: mpmath.gamma(t) ** k / mpmath.gamma(1 + k * t),
                "thg": lambda: rising / mpmath.factorial(k),
                "tha-gamma": lambda: rising,
                "thbb-geo": lambda: mpmath.polylog(-k, mean / (mean + 1)) / (mean + 1),
                "thbb-exp": lambda: mpmath.factorial(k),
            }[experiment]())
        # a constant that zeta_tail sums is certified to its truncation bound, which its k-th power
        # carries k times over, relative to the value
        tail = {"prpd-summable": (0, 2.0, 2), "thbb-geo": (0, 2.0, 2), "rzr-i": (0, 2.0, 1)}.get(experiment)
        tol = 1e-12 if tail is None else k * zeta_tail(*tail).truncation_bound / zeta_tail(*tail).value
        assert claim(experiment, **params).coefficient(k) == pytest.approx(want, rel=tol)

    def test_the_order_2_constant_on_the_partial_sum_scale_tends_to_1_as_t_tends_to_0(self):
        # t P_2 = t Gamma(t) Gamma(1 + t) / Gamma(1 + 2 t), with t = 1 - sigma, is the order-2 constant
        # on S(n)^2 (prpd-rv's pi/4 at t = 1/2); it tends to 1 as t -> 0, where Gamma(t) grows like 1/t
        assert abs(1.0 / (1e-3 * experiments._dirichlet(1.0 - 1e-3, 2)) - 1.0) < 1e-2

    def test_pi_consistency_of_the_two_routes(self):
        # route 1: regularly varying with tau = 1/2 and S(n) ~ 2 sqrt(n),
        # so the coefficient of Phi(n,2)/n is lambda^{-1} * 4
        via_rv = claim("prpd-rv").coefficient(2) * 4.0
        # route 2: depth-0 weights i^(1/2), scale n^{k(1-sigma)} = n
        via_rzr = claim("rzr-iv", m=0, sigma=0.5).coefficient(2)
        assert via_rv == pytest.approx(math.pi, rel=1e-10)
        assert via_rzr == pytest.approx(math.pi, rel=1e-10)
        assert via_rv == pytest.approx(via_rzr, rel=1e-10)

    def test_rzr_cases(self):
        const = claim("rzr-i", m=0, sigma=2.0, n0=1)
        assert const.scaling == "constant"
        assert const.coefficient(2) == pytest.approx((math.pi**2 / 6) ** 2, abs=1e-9)
        assert const.coefficient(2) == zeta_tail(0, 2.0, 1).value ** 2
        crit = claim("rzr-ii", m=1, sigma=1.0)
        assert crit.scaling == "(log_{m+1} n)^k"
        assert crit.coefficient(3) == 1.0
        deep = claim("rzr-iii", m=1, sigma=0.5)
        assert deep.scaling == "(log_m n)^{k(1-sigma)}"
        assert deep.coefficient(2) == pytest.approx(4.0, rel=1e-14)
        zero = claim("rzr-iii", m=2, sigma=0.0)
        assert zero.scaling == "(log_m n)^k"

    def test_scale(self):
        hs = [10, 100, 1000]
        n = np.asarray(hs, dtype=float)
        assert np.array_equal(claim("prpd-summable").scale(2, hs), np.ones(3))
        assert np.array_equal(claim("thg", alpha=2.0).scale(3, hs), np.log(n) ** 3)
        s = np.cumsum(1.0 / np.sqrt(np.arange(1, 1001)))
        assert claim("prpd-rv").scale(2, hs) == pytest.approx(s[n.astype(int) - 1] ** 2, rel=1e-13)
        rzr = {(0, 2.0): np.ones(3), (0, 1.0): np.log(n) ** 2, (1, 1.0): np.log(np.log(n)) ** 2,
               (1, 0.5): np.log(n), (0, 0.5): n}
        for (m, sigma), want in rzr.items():
            assert claim("rzr-i", m=m, sigma=sigma, n0=3).scale(2, hs) == pytest.approx(want, rel=1e-14)

    def test_unsupported(self):
        with pytest.raises(ValueError, match="no supported limit for sigma=-0.5, m=0"):
            claim("rzr-i", m=0, sigma=-0.5)

    @pytest.mark.parametrize("experiment, params", [("prpd-summable", {"m": 0}), ("thg", {"k": -2})])
    def test_an_order_below_1_is_refused_before_any_claim(self, monkeypatch, experiment, params):
        d = experiments._REGISTRY[experiment]
        monkeypatch.setitem(experiments._REGISTRY, experiment, replace(d, runner=replace(
            d.runner, claim=lambda p: pytest.fail("a claim was built"))))
        with pytest.raises(experiments.ConfigError, match="order"):
            experiments.run(config(experiment, **params))
