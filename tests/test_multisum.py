import json
import math
import os
import subprocess
import sys
import textwrap
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from limitlab.cauchy import LEAF, lower_matvec
from limitlab.kernels import (
    OffspringSchedule,
    RhoKernel,
    ScaleSpec,
    kernel_branching,
    kernel_power,
    kernel_scale,
)
from limitlab.multisum import (
    WeightSequence,
    phi,
    phi_curve,
    phi_fold_curves,
    psi_curve,
    u_sum,
    u_sum_curve,
)
from limitlab import cauchy, multisum
from limitlab.multisum import _fold_curves, _fold_tables, _psi_tables, _smooth_length

from oracles import cauchy_lower_dense, constant_schedule, phi_bruteforce, phi_recursion, psi_bruteforce, psi_loop
from test_kernels import cauchy_kernels

WEIGHT_FAMILIES = {
    "n": lambda i: np.asarray(i, dtype=float),
    "n^2": lambda i: np.asarray(i, dtype=float) ** 2,
    "2sqrt(n)": lambda i: 2.0 * np.sqrt(np.asarray(i, dtype=float)),
    "(1+n)^2": lambda i: (1.0 + np.asarray(i, dtype=float)) ** 2,
}


def scalar(fn):
    return lambda j: float(fn(np.array([j]))[0])


def all_tables(weights, n, m):
    """Phi(x, q) for 0 <= x <= n and q = 1..m, by direct folds of the full r.

    Order 1 is the running sum of r; ``_fold_tables`` builds orders 2..m.
    """
    r = weights.reciprocals(n)
    return np.vstack([np.cumsum(r), _fold_tables(weights, n, m, "direct", r)])


def head_convolution(a, b, blocks=8):
    """The first len(a) entries of the convolution a * b, for len(b) >= len(a).

    ``a`` is cut into blocks, so the upper half np.convolve would also form
    is mostly never computed.
    """
    n = a.size
    step = -(-n // blocks)
    out = np.zeros(n, dtype=np.result_type(a, b))
    for lo in range(0, n, step):
        out[lo:] += np.convolve(a[lo:lo + step], b[: n - lo])[: n - lo]
    return out


def psi_at(kernel, n, m):
    """The scalar Psi_n(m) read from ``psi_curve``."""
    return float(psi_curve(kernel, [n], m)[m - 1, 0])


class TestPhiExamples:
    def test_pairs_identity_weight(self):
        w = WeightSequence(weight=WEIGHT_FAMILIES["n"])
        # tuples (1,2), (1,3), (2,3): 1*1 + 1*(1/2) + (1/2)*1
        assert phi(w, 3, 2) == pytest.approx(2.0, rel=1e-14)

    def test_single_fold_partial_sum(self):
        w = WeightSequence(weight=WEIGHT_FAMILIES["(1+n)^2"])
        assert phi(w, 3, 1) == pytest.approx(1 / 4 + 1 / 9 + 1 / 16, rel=1e-14)

    def test_infeasible_gap_is_zero(self):
        w = WeightSequence(weight=WEIGHT_FAMILIES["n"], gap=2)
        assert phi(w, 3, 2) == 0.0

    def test_result_metadata(self):
        # phi returns a plain float: the value at horizon n of the m-fold table
        w = WeightSequence(weight=WEIGHT_FAMILIES["n"])
        res = phi(w, 5, 2)
        assert type(res) is float
        assert res == float(phi_curve(w, [5], 2)[0])


class TestPhiOracle:
    @pytest.mark.parametrize("name", list(WEIGHT_FAMILIES))
    @pytest.mark.parametrize("gap", [1, 2, 3])
    def test_matches_enumeration(self, name, gap):
        fn = WEIGHT_FAMILIES[name]
        w = WeightSequence(weight=fn, gap=gap)
        for n in (1, 4, 9, 12):
            for m in (1, 2, 4):
                got = phi(w, n, m)
                want = phi_bruteforce(scalar(fn), n, m, gap)
                assert got == pytest.approx(want, rel=1e-12, abs=1e-15)

    def test_matches_independent_recursion(self):
        fn = WEIGHT_FAMILIES["2sqrt(n)"]
        w = WeightSequence(weight=fn, gap=2)
        got = phi(w, 40, 3)
        want = phi_recursion(scalar(fn), 40, 3, gap=2)
        assert got == pytest.approx(want, rel=1e-12)

    def test_monotone_in_horizon(self):
        w = WeightSequence(weight=WEIGHT_FAMILIES["2sqrt(n)"])
        vals = phi_curve(w, range(1, 60), 3)
        assert np.all(np.diff(vals) >= 0)

    def test_fft_matches_direct(self):
        w = WeightSequence(weight=WEIGHT_FAMILIES["(1+n)^2"])
        a, = phi_curve(w, [3000], 3, method="direct")
        b, = phi_curve(w, [3000], 3, method="fft")
        assert b == pytest.approx(a, rel=1e-12)

    def test_fold_curves_consistent(self):
        w = WeightSequence(weight=WEIGHT_FAMILIES["n^2"])
        mat = phi_fold_curves(w, [5, 20], 3)
        for q in (1, 2, 3):
            assert mat[q - 1, 1] == pytest.approx(phi(w, 20, q), rel=1e-13)

    def test_bad_args(self):
        w = WeightSequence(weight=WEIGHT_FAMILIES["n"])
        with pytest.raises(ValueError):
            phi(w, 0, 1)
        with pytest.raises(ValueError):
            phi(w, 3, 0)
        with pytest.raises(ValueError):
            phi_curve(w, [3], 1, method="magic")
        with pytest.raises(ValueError):
            WeightSequence(weight=WEIGHT_FAMILIES["n"], gap=0)

    def test_negative_horizon_rejected(self):
        # a negative horizon would index the table from its far end
        w = WeightSequence(weight=WEIGHT_FAMILIES["n"])
        for curve in (phi_curve, phi_fold_curves):
            with pytest.raises(ValueError, match="nonnegative"):
                curve(w, [-5, 100], 2)
        with pytest.raises(ValueError, match="nonnegative"):
            u_sum_curve(2, 0, 1, 2.0, [-5, 100])
        for kernel in (w, kernel_power(2.0, 1.0)):
            with pytest.raises(ValueError, match="nonnegative"):
                psi_curve(kernel, [-5, 100], 2)
        assert phi_curve(w, [0, 3], 2)[0] == 0.0

    @pytest.mark.parametrize("horizons, message", [
        ([2.5, 3], "integers, got 2.5"),
        ([2, math.inf], "integers, got inf"),
        (["3"], "integers, got '3'"),
        ([], "not be empty"),
    ])
    def test_fractional_or_empty_horizons_rejected(self, horizons, message):
        # 2.5 used to be truncated to 2, and no horizon at all raised from inside numpy
        w = WeightSequence(weight=WEIGHT_FAMILIES["n"])
        for curve in (phi_curve, phi_fold_curves):
            with pytest.raises(ValueError, match=message):
                curve(w, horizons, 2)
        with pytest.raises(ValueError, match=message):
            psi_curve(kernel_power(2.0, 1.0), horizons, 2)
        assert np.array_equal(phi_curve(w, [2.0, 3.0], 2), phi_curve(w, [2, 3], 2))

    def test_negative_weight_rejected(self):
        w = WeightSequence(weight=lambda i: np.asarray(i, dtype=float) - 2.5)
        with pytest.raises(ValueError):
            phi(w, 5, 1)


class TestWeightSequence:
    @pytest.mark.parametrize("bad", [0.0, -1.0, np.nan])
    def test_reciprocals_refuse_a_weight_that_is_not_positive(self, bad):
        w = WeightSequence(weight=lambda i: np.where(i == 3, bad, i + 1.0), label="probe")
        with pytest.raises(ValueError, match=r"weights must be positive \(probe\)"):
            w.reciprocals(5)

    @pytest.mark.parametrize("gap", [1.5, 2.0, "2", None])
    def test_a_gap_that_is_not_an_integer_is_refused(self, gap):
        # 1.5 was accepted, then failed in reciprocals with "slice indices must be integers"
        with pytest.raises(ValueError, match=rf"gap must be a positive integer, got {gap!r}"):
            WeightSequence(weight=WEIGHT_FAMILIES["n"], gap=gap)

    def test_a_numpy_integer_gap_is_accepted(self):
        w = WeightSequence(weight=WEIGHT_FAMILIES["n"], gap=np.int64(2))
        assert w.reciprocals(3).tolist() == [0.0, 0.0, 1 / 2, 1 / 3]

    def test_an_infinite_weight_is_a_zero_probability(self):
        w = WeightSequence(weight=lambda i: np.where(i == 3, np.inf, i + 1.0), gap=2)
        assert w.reciprocals(5).tolist() == [0.0, 0.0, 1 / 3, 0.0, 1 / 5, 1 / 6]

    def test_a_fold_call_outside_a_run_keeps_nothing(self):
        calls = []
        w = WeightSequence(weight=lambda i: calls.append(i.size) or i + 1.0)
        first, second = (phi_fold_curves(w, [100, 5000], 3) for _ in range(2))
        assert calls == [5000, 5000]  # each call evaluates once, at its largest horizon
        assert np.array_equal(first, second) and multisum._SHARED.arrays is None
        r = w.reciprocals(10)
        r[0] = 1.0  # outside a block the array is the caller's

    def test_shared_arrays_are_read_only_prefixes_of_one_object(self):
        f = lambda i: i + 1.0  # noqa: E731
        w, twin = WeightSequence(weight=f), WeightSequence(weight=f)
        with multisum._shared_weights():
            big, small, s = w.reciprocals(1000), w.reciprocals(10), multisum._running_sum(w, 10)
            assert np.shares_memory(big, small) and w == twin
            assert not np.shares_memory(small, twin.reciprocals(10))  # keyed by identity, not equality
            for a in (big, small, s):
                with pytest.raises(ValueError, match="read-only"):
                    a[0] = 1.0


SMALL_AND_LARGE = [5, 10, 100, 1000, 20_000]
INVERSE_SQUARES = WeightSequence(weight=WEIGHT_FAMILIES["(1+n)^2"])


class TestFoldEngine:
    @pytest.mark.parametrize("weight", [
        lambda j: 2.0 + 0 * j,
        lambda j: np.asarray(j, dtype=float) ** 0.2,
        WEIGHT_FAMILIES["2sqrt(n)"],
        WEIGHT_FAMILIES["(1+n)^2"],
        WEIGHT_FAMILIES["n"],
    ], ids=["2", "n^0.2", "2sqrt(n)", "(1+n)^2", "n"])
    def test_small_horizons_are_exact_next_to_a_large_one(self, weight):
        # the FFT table at the largest horizon rounds relative to its own largest
        # density entry; horizons <= _FFT_THRESHOLD must not inherit that error scale
        w = WeightSequence(weight=weight)
        direct = _fold_curves(w, SMALL_AND_LARGE, 3, "direct")
        for m in (2, 3):
            got = phi_curve(w, SMALL_AND_LARGE, m)
            assert np.all(np.abs(got - direct[m - 1]) <= 1e-12 * direct[m - 1])

    def test_constant_weight_counts_tuples(self):
        # D = 2 with gap 1: Phi(n, m) = C(n, m) / 2^m, an exact oracle up to 1e5,
        # here on both sides of the cut at n // 2 and next to n
        hs = [5, 10, 100, 1000, 49_999, 50_000, 50_001, 99_999, 100_000]
        for m in (2, 3, 4, 5):
            got = phi_curve(WeightSequence(weight=lambda j: 2.0 + 0 * j), hs, m)
            want = np.array([math.comb(h, m) / 2.0**m for h in hs])
            assert np.all(np.abs(got - want) <= 1e-12 * want)

    @pytest.mark.parametrize("method", ["direct", "fft"])
    def test_lower_orders_are_bit_identical_to_their_own_tables(self, method):
        w = WeightSequence(weight=WEIGHT_FAMILIES["2sqrt(n)"], gap=2)
        hs = [3, 50, 700, 3000]
        top = _fold_curves(w, hs, 4, method)
        for k in (1, 2, 3):
            assert np.array_equal(top[k - 1], phi_curve(w, hs, k, method=method))
        assert np.array_equal(top[0], np.cumsum(w.reciprocals(3000))[hs])  # order 1 is S, no table

    @pytest.mark.parametrize("n", [2000, 2001, 3000, 3001])
    @pytest.mark.parametrize("m", [3, 4, 5])
    def test_orders_above_2_split_at_half_the_horizon(self, n, m):
        # gaps summing to at most n leave at most one above tau = n // 2, so
        # orders >= 3 come from tables of r[0..tau], the one long gap counted
        # once per place; odd n leaves the 2 tau + 1 entries of r * r one short.
        # Gaps tau and tau + 1 put all of a tuple's mass above the cut, or none.
        tau = n // 2
        u = np.random.default_rng(n + m).uniform(1.0, 10.0, n + 1)
        hs = [1, 2, tau - 1, tau, tau + 1, n - 1, n]
        for gap in (1, 3, tau, tau + 1):
            w = WeightSequence(weight=lambda j: u[j] * (1.0 + j) ** 1.5, gap=gap)
            want = all_tables(w, n, m)[:, hs]
            direct = _fold_curves(w, hs, m, "direct")
            assert np.all(np.abs(direct - want) <= 1e-12 * want)
            # FFT round-off is relative to each order's largest entry
            fft = _fold_curves(w, hs, m, "fft")
            feasible = want[:, -1] > 0
            assert np.all(np.abs(fft - want)[feasible] <= 1e-12 * want[feasible, -1:])
        assert not direct[1:].any() and not fft[1:].any()  # no two gaps above tau fit in n

    @pytest.mark.parametrize("gap", [1, 2, 3])
    def test_fft_tables_are_zero_below_q_gaps(self, gap):
        # no q-tuple of gaps fits below q * gap; the FFT's round-off there would
        # enter the top order's dots where its true value is tiny or zero
        w = WeightSequence(weight=lambda j: 3.0 + np.asarray(j, dtype=float), gap=gap)
        tables = _fold_tables(w, 40, 5, "fft", w.reciprocals(40))
        for q in range(2, 6):
            assert not tables[q - 2, : q * gap].any() and tables[q - 2, q * gap] > 0

    @pytest.mark.parametrize("n", [3000, 3001])
    @pytest.mark.parametrize("method", ["direct", "fft"])
    def test_a_short_r_is_read_as_zero_past_its_end(self, method, n):
        # the tables of r[0..tau] equal the full-length tables of a weight that
        # is infinite past tau; for odd n, r * r ends one short of n
        tau = n // 2
        w = WeightSequence(weight=WEIGHT_FAMILIES["n"])
        cut = _fold_tables(w, n, 4, method, w.reciprocals(n)[: tau + 1])
        padded = WeightSequence(weight=lambda j: np.where(j <= tau, j, np.inf))
        want = _fold_tables(padded, n, 4, "direct", padded.reciprocals(n))
        assert np.all(np.abs(cut - want) <= 1e-12 * want[:, -1:])

    @pytest.mark.parametrize("name", list(WEIGHT_FAMILIES))
    def test_many_horizons_fold_to_the_top_order(self, name, monkeypatch):
        # all of 1..5000: the dots would cost about 2500 terms per table cell, so
        # each path folds to order m and reads rows; a few horizons take the dots
        w = WeightSequence(weight=WEIGHT_FAMILIES[name])
        orders = []
        real = multisum._fold_tables
        monkeypatch.setattr(multisum, "_fold_tables", lambda *a: orders.append(a[2]) or real(*a))
        rows = phi_fold_curves(w, np.arange(1, 5001), 4)
        assert orders == [4, 4]
        probe = [1, 2, 3, 700, 2048, 2049, 3000, 5000]
        dots = phi_fold_curves(w, probe, 4)
        assert orders == [4, 4, 3, 3]
        got = rows[:, np.array(probe) - 1]
        assert np.all(np.abs(got - dots) <= 1e-12 * dots)

    @pytest.fixture
    def transforms(self, monkeypatch):
        """The (name, length) of each FFT the fold engine makes, in call order."""
        calls = []
        for name in ("rfft", "irfft"):
            real = getattr(multisum.np.fft, name)
            monkeypatch.setattr(multisum.np.fft, name,
                                lambda a, size, _real=real, _name=name: calls.append((_name, size)) or _real(a, size))
        return calls

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_fft_table_of_order_m_makes_2m_minus_2_transforms(self, transforms, m):
        # a full r keeps every order at the length of the whole product, 2n + 1
        w = WeightSequence(weight=WEIGHT_FAMILIES["n"])
        _fold_tables(w, 3000, m, "fft", w.reciprocals(3000))
        assert len(transforms) == 2 * m - 2
        assert {size for _, size in transforms} <= {_smooth_length(6001)}

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_fft_fold_curves_of_order_m_make_2m_minus_4_transforms(self, transforms, m):
        # the table stops at order m - 1 and the top order takes one dot per horizon
        _fold_curves(WeightSequence(weight=WEIGHT_FAMILIES["n"]), [100, 3000], m, "fft")
        assert len(transforms) == max(0, 2 * m - 4)

    @pytest.mark.parametrize("m", [4, 5])
    def test_fft_fold_curves_of_order_m_make_2m_minus_3_transforms(self, transforms, m):
        # orders >= 3 convolve at a longer length than order 2, so r is transformed twice
        _fold_curves(WeightSequence(weight=WEIGHT_FAMILIES["n"]), [100, 3000], m, "fft")
        assert len(transforms) == 2 * m - 3

    @pytest.mark.parametrize("n", [3000, 3001, 100_000])
    @pytest.mark.parametrize("m", [3, 4, 5])
    def test_fft_fold_curves_convolve_at_about_n_and_three_halves_n(self, transforms, n, m):
        # the table is folded from r[0..n // 2]: d_2 fits in n + 1 entries, and
        # r * d_{q-1} in n + n // 2 + 1
        _fold_curves(WeightSequence(weight=WEIGHT_FAMILIES["n"]), [100, n], m, "fft")
        sizes = [size for _, size in transforms]
        assert len(sizes) >= 2 and max(sizes[:2]) <= _smooth_length(n + 1)
        assert max(sizes) <= _smooth_length(n + n // 2 + 1)

    def test_fold_curves_do_not_depend_on_the_blas_thread_count(self):
        # a threaded BLAS splits a dot of more than 10^4 terms among its threads,
        # so np.dot would round the top order differently per thread count
        code = ("from limitlab.multisum import WeightSequence, phi_fold_curves; "
                "w = WeightSequence(weight=lambda j: (1.0 + j) ** 2); "
                "print([v.hex() for v in phi_fold_curves(w, [30_000, 70_000, 100_000], 4).ravel()])")
        # a floating-point warning at either thread count fails the run, and any other warning shows in stderr
        runs = [subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c", code],
                               capture_output=True, text=True, check=True,
                               env={**os.environ, "OPENBLAS_NUM_THREADS": t, "OMP_NUM_THREADS": t})
                for t in ("1", "2")]
        assert [r.stderr for r in runs] == ["", ""]
        assert runs[0].stdout == runs[1].stdout

    @pytest.mark.parametrize("weight", [
        WEIGHT_FAMILIES["(1+n)^2"],
        lambda j: np.sqrt(np.asarray(j, dtype=float)),
        lambda j: np.asarray(j, dtype=float) + 1.0,
        lambda j: np.asarray(j, dtype=float) ** 0.2,
    ], ids=["(1+n)^2", "sqrt(n)", "n+1", "n^0.2"])
    def test_fold_curves_match_a_long_double_convolution(self, weight):
        # the densities d_q = r * d_{q-1} convolved in long double from the same
        # float64 reciprocals, so only the fold's own rounding shows
        n = 20_000
        w = WeightSequence(weight=weight)
        r = w.reciprocals(n).astype(np.longdouble)
        d2 = head_convolution(r, r)
        d3 = head_convolution(r, d2)
        d4 = head_convolution(r, d3)
        hs = [100, 1000, 5000, n // 2 - 1, n // 2, n // 2 + 1, n - 1, n]
        for m, dens in ((2, d2), (3, d3), (4, d4)):
            want = np.cumsum(dens)[hs]
            got = phi_curve(w, hs, m).astype(np.longdouble)
            assert np.all(np.abs(got - want) <= 1e-13 * want)

    # the traced peak of one call at n = 5e4, in float64 arrays of n + 1 entries; the bounds were
    # fixed beforehand, and the comments give the readings when every order copied r's spectrum,
    # its density and the reversed r, then with the copies the engine no longer makes
    @pytest.mark.parametrize("w, horizons, m, bound", [
        (INVERSE_SQUARES, [100, 5000, 50_000], 2, 3.5),  # 3.02, 3.02
        (INVERSE_SQUARES, [100, 5000, 50_000], 3, 4.5),  # 6.05, 4.02
        (INVERSE_SQUARES, [100, 5000, 50_000], 4, 8.0),  # 10.63, 6.08
        (INVERSE_SQUARES, [100, 5000, 50_000], 5, 9.5),  # 11.63, 8.62
        # one fold to order 3
        (INVERSE_SQUARES, np.arange(1, 50_001), 3, 13.5),  # 16.29, 12.29
        # depth 1, exponent 1/2, gap 2, as in rzr-iii: the weight's temporaries
        (multisum._u_weights(1, 2, 0.5), [100, 5000, 50_000], 2, 4.5),  # 5.00, 4.00
    ], ids=["order-2", "order-3", "order-4", "order-5", "every-horizon", "iterated-log"])
    def test_fold_memory_peak(self, w, horizons, m, bound):
        phi_fold_curves(w, horizons, m)  # the first call in a process allocates a little once
        tracemalloc.start()
        try:
            phi_fold_curves(w, horizons, m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound * 8 * 50_001

    @pytest.mark.parametrize("horizons", [[100, 1000, 2000], [100, 5000, 20_000], np.arange(1, 20_001)],
                             ids=["direct", "fft-dots", "fft-rows"])
    def test_a_fold_call_in_a_run_leaves_the_shared_arrays_as_they_were(self, horizons):
        # the engine writes in place only into arrays it allocated: r and S are the run's
        w = WeightSequence(weight=WEIGHT_FAMILIES["2sqrt(n)"], gap=2)
        with multisum._shared_weights():
            r, s = w.reciprocals(20_000), multisum._running_sum(w, 20_000)
            before = r.tobytes(), s.tobytes()
            phi_fold_curves(w, horizons, 5)
            assert not r.flags.writeable and not s.flags.writeable
            assert (r.tobytes(), s.tobytes()) == before


class TestUSum:
    def test_examples(self):
        assert u_sum(1, 0, 1, 2.0, 2) == pytest.approx(1.25, rel=1e-14)
        assert u_sum(2, 0, 1, 2.0, 3) == pytest.approx(1.5, rel=1e-14)
        assert u_sum(2, 0, 1, 2.0, 1) == 0.0

    def test_gap_below_threshold(self):
        with pytest.raises(ValueError):
            u_sum(1, 1, 1, 2.0, 10)

    def test_curve_matches_point(self):
        vals = u_sum_curve(2, 0, 1, 2.0, [3, 10])
        assert vals[0] == pytest.approx(u_sum(2, 0, 1, 2.0, 3), rel=1e-14)


class TestPsiGeneral:
    def setup_method(self):
        self.gw = WeightSequence(weight=lambda i: (1.0 + np.asarray(i, dtype=float)) ** 2)

    def test_single_fold(self):
        assert psi_at(self.gw, 2, 1) == pytest.approx(13 / 36, rel=1e-14)

    def test_pair(self):
        assert psi_at(self.gw, 2, 2) == pytest.approx(1 / 16, rel=1e-14)

    def test_more_folds_than_indices(self):
        assert psi_at(self.gw, 2, 3) == 0.0

    def test_matches_enumeration(self):
        for n in (3, 6, 9):
            for m in (1, 2, 3):
                got = psi_at(self.gw, n, m)
                want = psi_bruteforce(self.gw, n, m)
                assert got == pytest.approx(want, rel=1e-12, abs=1e-16)

    def test_distance_kernel_equals_phi(self):
        # the pairwise column loop on a difference kernel == gap-1 convolution sum,
        # which psi_curve takes for distance kernels
        w = WeightSequence(weight=lambda i: (1.0 + np.asarray(i, dtype=float)) ** 2)
        for n, m in [(10, 1), (10, 2), (25, 3)]:
            loop = math.fsum(psi_loop(self.gw, n, m)[m - 1])
            assert loop == pytest.approx(phi(w, n, m), rel=1e-12)
            assert psi_at(self.gw, n, m) == pytest.approx(loop, rel=1e-12)

    def test_curve_shape(self):
        mat = psi_curve(self.gw, [2, 5, 9], 2)
        assert mat.shape == (2, 3)
        assert mat[0, 0] == pytest.approx(13 / 36, rel=1e-14)


CAUCHY_KERNELS = {
    "power-0.5": lambda: kernel_power(0.5, 1.0),
    "power-1": lambda: kernel_power(1.0, 1.5),
    "power-2": lambda: kernel_power(2.0, 1.0),
    "scale-0.5": lambda: kernel_scale(ScaleSpec(0.5, 1.0, 2.0)),
    "scale-1": lambda: kernel_scale(ScaleSpec(1.0, 1.0, 2.0)),
    "scale-2": lambda: kernel_scale(ScaleSpec(2.0, 0.5, 2.0)),
    "branching-drift0": lambda: kernel_branching(OffspringSchedule.harmonic_drift(0.0)),
    "branching-drift0.5": lambda: kernel_branching(OffspringSchedule.harmonic_drift(0.5)),
    "branching-t^-2": lambda: kernel_branching(OffspringSchedule.from_decay(lambda t: t ** (-2.0))),
}
# fixed before the fast path was written: relative, on every table entry
FAST_RTOL = 1e-11
# the interpolation budget in the cauchy docstring, 2.3e-14, plus as much
# again for round-off: relative, on every entry of one matvec
BUDGET_RTOL = 5e-14


def assert_tables_close(fast, exact):
    assert fast.shape == exact.shape
    assert np.all(np.abs(fast - exact) <= FAST_RTOL * np.abs(exact))


class TestPsiFastVsExact:
    """The hierarchical Cauchy step against the O(n^2 m) column loop."""

    @pytest.mark.parametrize("n", [1, 2, LEAF - 1, LEAF, LEAF + 1, 1000])
    @pytest.mark.parametrize("name", list(CAUCHY_KERNELS))
    def test_tables(self, name, n):
        kernel = CAUCHY_KERNELS[name]()
        for m in (1, 2, 3):
            exact = psi_loop(kernel, n, m)
            assert_tables_close(_psi_tables(kernel, n, m), exact)
            hs = sorted({1, n // 2 + 1, n})
            curve = psi_curve(kernel, hs, m)
            want = np.cumsum(exact, axis=1)[:, hs]
            assert np.all(np.abs(curve - want) <= FAST_RTOL * want)

    @pytest.mark.parametrize("name", list(CAUCHY_KERNELS))
    def test_tables_large(self, name):
        kernel = CAUCHY_KERNELS[name]()
        assert_tables_close(_psi_tables(kernel, 20_000, 2), psi_loop(kernel, 20_000, 2))

    @pytest.mark.parametrize("name", list(CAUCHY_KERNELS))
    def test_bruteforce(self, name):
        kernel = CAUCHY_KERNELS[name]()
        for n in (1, 5, 12):
            for m in (1, 2, 3):
                want = psi_bruteforce(kernel, n, m)
                assert math.fsum(psi_loop(kernel, n, m)[m - 1]) == pytest.approx(want, rel=1e-12, abs=1e-300)
                assert psi_curve(kernel, [n], m)[m - 1, 0] == pytest.approx(want, rel=1e-12, abs=1e-300)

    @pytest.mark.parametrize("gamma", [0.05, 0.5, 3.0])
    def test_matvec_value_separation(self, gamma):
        # y = i^gamma with small gamma packs the late blocks close in value to
        # the early ones, so index-separated pairs must be split further
        v, x, y = _value_separation_inputs(gamma)
        exact = cauchy_lower_dense(v, x, y)
        fast = lower_matvec(v, x, y)
        assert fast[0] == 0.0
        assert np.all(np.abs(fast[1:] - exact[1:]) <= FAST_RTOL * exact[1:])
        assert np.all(np.abs(fast[1:] - exact[1:]) <= BUDGET_RTOL * exact[1:])

    @pytest.mark.parametrize("name", list(CAUCHY_KERNELS))
    def test_matvec_stays_within_its_error_budget(self, name):
        # 3000 entries, 47 leaves: most far pairs go through local values
        _, x, y = (a[1:] for a in CAUCHY_KERNELS[name]().cauchy(3000))
        v = np.random.default_rng(6).random(3000)
        exact = cauchy_lower_dense(v, x, y)
        assert np.all(np.abs(lower_matvec(v, x, y)[1:] - exact[1:]) <= BUDGET_RTOL * exact[1:])

    @pytest.mark.parametrize("n", [129, 191, 192, 193, 257])
    @pytest.mark.parametrize("case", ["power", "nonmonotone x", "zeros in v"])
    def test_matvec_few_leaves(self, n, case):
        v, x, y = _few_leaf_inputs(n, case)
        with np.errstate(all="raise"):
            fast = lower_matvec(v, x, y)
        exact = cauchy_lower_dense(v, x, y)
        assert fast[0] == 0.0
        assert np.all(np.abs(fast - exact) <= FAST_RTOL * exact)

    def test_matvec_local_expansions(self, monkeypatch):
        v, x, y = _local_expansion_inputs()
        n = v.size
        assert np.any(np.diff(x) < 0) and n // LEAF >= cauchy._LOCAL_LEAVES
        with np.errstate(all="raise"):
            fast = lower_matvec(v, x, y)
        exact = cauchy_lower_dense(v, x, y)
        assert fast[0] == 0.0
        assert np.all(np.abs(fast - exact) <= FAST_RTOL * exact)
        monkeypatch.setattr(cauchy, "_LOCAL_LEAVES", n)
        assert not np.array_equal(lower_matvec(v, x, y), fast)  # the local path ran

    @pytest.mark.parametrize("name", list(CAUCHY_KERNELS))
    def test_matvec_sets_no_floating_point_flag(self, name):
        # above the local gate, with a partial last leaf: the padding, the ghost
        # leaf and the power kernels' x = y must keep inf, nan and 1/0 out of
        # every product and reciprocal, where numpy reports BLAS's flags too
        n = LEAF * 40 + 17
        assert n // LEAF >= cauchy._LOCAL_LEAVES and n % LEAF
        _, x, y = (a[1:] for a in CAUCHY_KERNELS[name]().cauchy(n))
        v = np.random.default_rng(n).random(n)
        with np.errstate(all="raise"):
            lower_matvec(v, x, y)

    @pytest.mark.parametrize("shape_a, shape_b", [((3000,), (cauchy.ORDER,)), ((7, 64), (7, 20)), ((5, 64), (5, 128))])
    def test_rank2_difference_has_the_bits_of_the_subtraction(self, shape_a, shape_b):
        # [a, 1] @ [1; -b] has two exact products and one rounding, as a - b:
        # mixed signs, magnitudes from 1e-300 to 1e300, equal entries (u on a
        # node) and differences that cancel to subnormals
        rng = np.random.default_rng(27)
        a = rng.choice([-1.0, 1.0], shape_a) * 10.0 ** rng.uniform(-300, 300, shape_a)
        b = rng.choice([-1.0, 1.0], shape_b) * 10.0 ** rng.uniform(-300, 300, shape_b)
        a[..., :40] = rng.uniform(-1, 1, a[..., :40].shape)
        b[..., :8] = cauchy._NODES[:8] if b.ndim == 1 else a[..., 3:11]
        a[..., 0] = cauchy._NODES[0] if b.ndim == 1 else b[..., 0]
        a[..., 1] = 3e-300
        b[..., 9] = 3e-300 * (1 + 2.0**-52)
        want = a[..., :, None] - b[..., None, :]
        assert np.any(want == 0.0) and np.any((want != 0.0) & (np.abs(want) < 2.3e-308))
        got = cauchy._difference(a, b)
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_rank3_difference_has_the_bits_of_the_subtraction_then_the_shift(self):
        # [a, 1, 1] @ [1; -b; shift] has three exact products, and BLAS must add
        # them in order, (a - b) + shift, for a multipole-to-local block to have
        # the bits of 1 / ((hx t_l - h t_m) + (cx - c)).  The inputs make the
        # three groupings of the sum differ: cancellation to 0 and to
        # subnormals, and magnitudes from 1e-300 to 1e300 that stay finite
        code = textwrap.dedent("""
            import json, numpy as np
            from limitlab import cauchy
            rng = np.random.default_rng(35)
            checks = {}

            def bits(x):
                return x.view(np.int64)

            def groupings(a, b, shift):
                a, b, shift = a[..., :, None], -b[..., None, :], shift[..., None, None]
                return (a + b) + shift, a + (b + shift), (a + shift) + b

            for name, shape_a, shape_b in [("pairs", (400, 20), (400, 20)), ("wide", (12, 64), (12, 128))]:
                scale = 10.0 ** rng.uniform(-300, 300, shape_a[:1])
                scale[:8] = 2.0 ** rng.uniform(-1070, -1020, 8)  # subnormal blocks
                a = scale[:, None] * rng.uniform(-1, 1, shape_a) * 2.0 ** rng.integers(-30, 30, shape_a)
                b = scale[:, None] * rng.uniform(-1, 1, shape_b) * 2.0 ** rng.integers(-30, 30, shape_b)
                shift = scale * rng.uniform(-2, 2, shape_a[:1])
                a[8, 0], b[8, 0], shift[8] = 1.0, 2.0**-54, -1.0  # cancels to 0 first, to -2^-54 last
                a[9, 0], b[9, 0], shift[9] = 2.0**-1000, 2.0**-1000 - 2.0**-1052, 2.0**-1060  # a subnormal
                first, middle, last = groupings(a, b, shift)
                checks[name] = [
                    np.isfinite(first).all(),
                    (bits(first) != bits(middle)).any(), (bits(first) != bits(last)).any(),
                    (bits(middle) != bits(last)).any(),
                    ((first == 0.0) & (last != 0.0)).any(),
                    ((first != 0.0) & (np.abs(first) < 2.3e-308) & (bits(first) != bits(last))).any(),
                    np.array_equal(bits(cauchy._difference(a, b, shift)), bits(first)),
                ]

            P = 2000
            c = 10.0 ** rng.uniform(0, 6, P)
            h = c * 10.0 ** rng.uniform(-6, -1, P)
            hx = h * 10.0 ** rng.uniform(-1, 1, P)
            cx = c + (h + hx) * rng.uniform(3, 10, P)
            first, _, last = groupings(hx[:, None] * cauchy._NODES, h[:, None] * cauchy._NODES, cx - c)
            checks["m2l"] = [(bits(first) != bits(last)).any(),
                             np.array_equal(bits(cauchy._m2l(hx, cx, h, c)), bits(1.0 / first))]
            print(json.dumps({k: [bool(x) for x in v] for k, v in checks.items()}))
        """)
        runs = [subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c", code],
                               capture_output=True, text=True, check=True,
                               env={**os.environ, "OPENBLAS_NUM_THREADS": t, "OMP_NUM_THREADS": t})
                for t in ("1", "2")]
        assert [r.stderr for r in runs] == ["", ""]
        want = {"pairs": [True] * 7, "wide": [True] * 7, "m2l": [True, True]}
        assert [json.loads(r.stdout) for r in runs] == [want, want]

    def test_matvec_split_reports_every_block_kind(self):
        # tests/matvec_split.py times one formed product per block kind by wrapping
        # the helpers; at n = 3000 (47 leaves) far pairs go through local values
        script = os.path.join(os.path.dirname(__file__), "matvec_split.py")
        run = subprocess.run([sys.executable, script, "3000", "1"], capture_output=True, text=True, check=True)
        lines = run.stdout.splitlines()
        cut = lines.index("far pairs")
        rows, pairs = ({line[:20].strip(): line[20:].split() for line in part} for part in (lines[2:cut], lines[cut + 1:]))
        assert run.stderr == ""
        kinds = ("layout and geometry", "near windows", "leaf bases", "M2M bases", "local bases", "pair lists",
                 "multipole-to-local", "per-target", "pushed", "other")
        for family in range(3):
            ms = {kind: float(rows[kind][family]) for kind in (*kinds, "forming", "products", "total")}
            assert all(ms[kind] > 0 for kind in ("near windows", "leaf bases", "M2M bases", "local bases",
                                                  "pair lists", "multipole-to-local", "products"))
            assert sum(ms[kind] for kind in kinds) == pytest.approx(ms["forming"], abs=0.01)
            assert ms["forming"] + ms["products"] == pytest.approx(ms["total"], abs=0.01)
            assert int(pairs["multipole-to-local"][family]) > 0

    def test_matvec_does_not_depend_on_the_blas_thread_count(self):
        code = ("import hashlib, numpy as np; from limitlab.cauchy import lower_matvec; "
                "from limitlab.kernels import kernel_power; "
                "_, x, y = (a[1:] for a in kernel_power(2.0, 1.0).cauchy(100_000)); "
                "v = np.random.default_rng(2).random(100_000); "
                "print(hashlib.sha256(lower_matvec(v, x, y).tobytes()).hexdigest())")
        # a floating-point warning at either thread count fails the run, and any other warning shows in stderr
        runs = [subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c", code],
                               capture_output=True, text=True, check=True,
                               env={**os.environ, "OPENBLAS_NUM_THREADS": t, "OMP_NUM_THREADS": t})
                for t in ("1", "2")]
        assert [r.stderr for r in runs] == ["", ""]
        assert runs[0].stdout == runs[1].stdout

    def test_matvec_bytes_do_not_depend_on_the_slice(self, monkeypatch):
        # a tile groups whole leaves or whole pairs, so each entry sums the same
        # terms in the same order; gamma = 0.05 sends pairs through np.add.at,
        # and the 3000-entry cases go through local values
        cases = [tuple(a[1:] for a in kernel_power(2.0, 1.0).cauchy(3000)), _value_separation_inputs(0.05)]
        cases += [_few_leaf_inputs(n, case) for n in (129, 191, 192, 193, 257)
                  for case in ("power", "nonmonotone x", "zeros in v")]
        assert max(v.size for v, _, _ in cases) >= LEAF * cauchy._LOCAL_LEAVES
        for v, x, y in cases:
            want = lower_matvec(v, x, y)
            for size in (1 << 10, 1 << 14, cauchy._SLICE, 1 << 18):
                with monkeypatch.context() as m:
                    m.setattr(cauchy, "_SLICE", size)
                    assert np.array_equal(lower_matvec(v, x, y), want)

    def test_matvec_memory_stays_sliced(self):
        # every temporary is cut to _SLICE floats (512 KiB), so the peak is a
        # few O(n) arrays (0.76 MiB each) plus a few tiles; 5.5 MiB is 4%
        # above the 5.28 MiB measured with tiles of 2^16 floats
        n = 100_000
        _, x, y = (a[1:] for a in kernel_power(2.0, 1.0).cauchy(n))
        v = np.random.default_rng(2).random(n)
        tracemalloc.start()
        try:
            lower_matvec(v, x, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5.5 * 2**20

    @pytest.mark.parametrize("keep", ["nothing", "part", "default"])
    def test_a_plan_applies_the_bytes_of_lower_matvec(self, keep, monkeypatch):
        # a Psi table of order m applies one plan m - 1 times: each product has
        # the bytes of a lower_matvec call of its own, whichever blocks the plan
        # kept, at every tile size of the slice test.  The plan's first product,
        # which keeps the blocks, is of v = 0: what it keeps must not depend on v
        for v, x, y in _plan_inputs():
            want = [v]
            for _ in range(3):
                want.append(lower_matvec(want[-1], x, y))
            with monkeypatch.context() as m:
                m.setattr(cauchy, "_KEEP", 1 << 40)
                whole = cauchy._Plan(x, y, 2)
                whole.apply(v)
            floats = sum(map(cauchy._floats, whole._kept))  # every block: above the default budget at gamma = 0.05
            budget = {"nothing": 0, "part": floats // 2, "default": cauchy._KEEP}[keep]
            for size in (1 << 10, 1 << 14, cauchy._SLICE, 1 << 18):
                with monkeypatch.context() as m:
                    m.setattr(cauchy, "_SLICE", size)
                    m.setattr(cauchy, "_KEEP", budget)
                    plan = cauchy._Plan(x, y, 4)
                    assert not plan.apply(np.zeros_like(v)).any()
                    got = [v]
                    for _ in range(3):
                        got.append(plan.apply(got[-1]))
                held = sum(cauchy._floats(b) for b in plan._kept if b is not None)
                again = sum(b is None for b in plan._kept)  # blocks formed again at each product
                assert {"nothing": held == 0, "part": held > 0 and again > 0,
                        "default": held > 0 and (again == 0) == (floats <= budget)}[keep]
                for g, w in zip(got[1:], want[1:]):
                    assert np.array_equal(g, w)

    def test_a_plan_keeps_at_most_its_budget(self, monkeypatch):
        # an order-3 table at n = 20000 applies one plan twice, and the plan
        # would hold 4.9e6 floats; it keeps at most _KEEP of them, on top of the
        # peak of a plan that keeps nothing, which is the sliced matvec's
        kernel = kernel_power(2.0, 1.0)

        def peak():
            tracemalloc.start()
            try:
                _psi_tables(kernel, 20_000, 3)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        budget = 8 * cauchy._KEEP
        with monkeypatch.context() as m:
            m.setattr(cauchy, "_KEEP", 0)
            sliced = peak()
        assert budget / 2 <= peak() - sliced <= budget

    def test_a_plans_second_product_does_not_depend_on_the_blas_thread_count(self):
        # at n = 5000 the plan keeps all but a few blocks, so the second product
        # reads kept blocks and forms the others again
        code = ("import hashlib, numpy as np; from limitlab import cauchy; "
                "from limitlab.kernels import kernel_power; "
                "_, x, y = (a[1:] for a in kernel_power(2.0, 1.0).cauchy(5000)); "
                "v = np.random.default_rng(2).random(5000); "
                "plan = cauchy._Plan(x, y, 2); plan.apply(v); "
                "kept = [b is not None for b in plan._kept]; assert 0 < sum(kept) < len(kept); "
                "print(*(hashlib.sha256(o.tobytes()).hexdigest() for o in (plan.apply(v), cauchy.lower_matvec(v, x, y))))")
        runs = [subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c", code],
                               capture_output=True, text=True, check=True,
                               env={**os.environ, "OPENBLAS_NUM_THREADS": t, "OMP_NUM_THREADS": t})
                for t in ("1", "2")]
        assert [r.stderr for r in runs] == ["", ""]
        assert runs[0].stdout == runs[1].stdout
        second, single = runs[0].stdout.split()
        assert second == single

    def test_breakdown_reaches_psi_curve(self):
        kernel = kernel_branching(constant_schedule(0.6))
        with pytest.raises(ValueError, match="generation"):
            psi_curve(kernel, [3000], 2)


def _value_separation_inputs(gamma):
    n = 3000
    i = np.arange(1, n + 1, dtype=float)
    return np.random.default_rng(5).random(n), (i + 0.25) ** gamma, i**gamma


def _local_expansion_inputs():
    # above the gate, a partial last leaf, zeros in v, and x that falls
    # back within a leaf but spans little more than the leaf's y-range, so
    # most far pairs pass the x-side test and go through local values
    n = LEAF * 40 + 17
    rng = np.random.default_rng(40)
    y = np.cumsum(rng.random(n) + 0.01)
    x = np.concatenate([[y[0]], y[:-1] + 10.0 ** rng.uniform(-3, 0, n - 1)])
    v = rng.random(n)
    v[:70] = 0.0
    v[rng.random(n) < 0.3] = 0.0
    return v, x, y


def _plan_inputs():
    """The three kernel families above the local gate, then the value-separation, few-leaf and local-expansion inputs."""
    v = np.random.default_rng(6).random(3000)
    cases = [(v, *(a[1:] for a in CAUCHY_KERNELS[name]().cauchy(3000)[1:]))
             for name in ("power-2", "scale-2", "branching-drift0.5")]
    cases.append(_value_separation_inputs(0.05))
    cases += [_few_leaf_inputs(n, case) for n in (129, 191, 192, 193, 257)
              for case in ("power", "nonmonotone x", "zeros in v")]
    return cases + [_local_expansion_inputs()]


def _few_leaf_inputs(n, case):
    # three to five leaves, the last one partial; the docstring only asks
    # x_j > y_{j-1}, so x may fall back below earlier x's
    rng = np.random.default_rng(n)
    if case == "power":
        _, x, y = (a[1:] for a in kernel_power(2.0, 1.0).cauchy(n))
    else:
        y = np.cumsum(rng.random(n) + 0.01)
        x = np.concatenate([[y[0]], y[:-1] + 10.0 ** rng.uniform(-3, 3, n - 1)])
    v = rng.random(n)
    if case == "zeros in v":
        v[:70] = 0.0  # the whole first leaf and part of the second
        v[rng.random(n) < 0.3] = 0.0
    return v, x, y


def unit_shift_cauchy():
    """rho(i, j) = j + 1 - i, i.e. D(j - i) with D(n) = n + 1, in Cauchy form (1, j + 1, i)."""

    def arrays(n):
        j = np.arange(1, n + 1, dtype=float)
        return np.ones(n), j + 1.0, j

    return RhoKernel("cauchy(n+1)", arrays)


# fixed before the cross-check was written: relative, on every compared entry
CROSS_RTOL = 1e-10


class TestFoldVsCauchy:
    """D(n) = n + 1 and D(n) = 1.5 n are both distance weights and Cauchy
    kernels, so the fold engine and the hierarchical matvec check each other."""

    @pytest.mark.parametrize("n, method", [(1000, "direct"), (20_000, "fft")])
    def test_unit_shift(self, n, method):
        hs = np.unique(np.geomspace(3, n, 25).astype(int))
        fold = _fold_curves(WeightSequence(weight=lambda i: i + 1.0), hs, 3, method)
        cauchy = psi_curve(unit_shift_cauchy(), hs, 3)
        assert np.all(np.abs(cauchy - fold) <= CROSS_RTOL * fold)

    @pytest.mark.parametrize("cauchy_kernel, weight", [
        (unit_shift_cauchy, lambda i: i + 1.0),
        (lambda: kernel_branching(OffspringSchedule.harmonic_drift(0.0)), lambda i: i + 1.0),
        (lambda: kernel_power(1.0, 1.5), lambda i: 1.5 * i),
    ], ids=["unit-shift", "branching-drift0", "power-1"])
    def test_full_size(self, cauchy_kernel, weight):
        # every horizon to 1e5, where the matvec runs its local expansions;
        # the tables are zero below order q on both sides
        hs = np.arange(1, 100_001)
        fold = psi_curve(WeightSequence(weight=weight), hs, 4)
        fast = psi_curve(cauchy_kernel(), hs, 4)
        assert np.array_equal(fast != 0, fold != 0)
        nonzero = fold != 0
        assert np.all(np.abs(fast[nonzero] - fold[nonzero]) <= FAST_RTOL * fold[nonzero])


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 5000), m=st.integers(1, 3), gap=st.integers(1, 3),
       s=st.floats(0.0, 3.0), seed=st.integers(0, 2**32 - 1))
def test_fft_fold_equals_direct(n, m, gap, s, seed):
    # D_j = U_j (1 + j)^s with U_j uniform on [1, 10].  FFT round-off is
    # relative to the largest entry of each density, and the table is its
    # running sum; for s >= 1 a table grows at most like a power of log n,
    # so that bound is also relative entry by entry.
    # A table with no feasible tuple (n < q gap) has no support to compare on.
    u = np.random.default_rng(seed).uniform(1.0, 10.0, n + 1)
    weights = WeightSequence(weight=lambda j: u[j] * (1.0 + j) ** s, gap=gap)
    direct = _fold_tables(weights, n, m, "direct", weights.reciprocals(n))
    fft = _fold_tables(weights, n, m, "fft", weights.reciprocals(n))
    for d, f in zip(direct, fft):
        if d.max() == 0.0:
            continue
        assert np.abs(f - d).max() <= 1e-10 * d.max()
        if s >= 1.0:
            support = d > 0
            assert np.all(np.abs(f - d)[support] <= 1e-10 * d[support])


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 5000), m=st.integers(1, 5), gap=st.integers(1, 3), s=st.floats(0.0, 3.0),
       seed=st.integers(0, 2**32 - 1), extra=st.lists(st.integers(0, 5000), max_size=4))
@example(n=10, m=5, gap=2, s=0.0, seed=3, extra=[])  # a single order-5 tuple fits, at n
@example(n=11, m=5, gap=2, s=1.0, seed=2, extra=[])
def test_fold_curves_equal_the_running_sums_of_direct_tables(n, m, gap, s, seed, extra):
    # the curves take the top order from dots against the order m - 1 table,
    # cut at n // 2 for m >= 3; the reference convolves every order of the full
    # direct table.  Horizons include 0, both sides of the gap, of the first
    # feasible tuple m gap and of the cut, and n.
    u = np.random.default_rng(seed).uniform(1.0, 10.0, n + 1)
    weights = WeightSequence(weight=lambda j: u[j] * (1.0 + j) ** s, gap=gap)
    edges = [0, gap - 1, gap, m * gap - 1, m * gap, n // 2 - 1, n // 2, n // 2 + 1, n] + extra
    hs = sorted({min(max(h, 0), n) for h in edges})
    want = all_tables(weights, n, m)[:, hs]
    got = _fold_curves(weights, hs, m, "direct")
    assert np.all(np.abs(got - want) <= 1e-12 * want)
    # FFT round-off is relative to each table's largest entry (the horizon n);
    # for s >= 1 that bound is also entry-wise wherever a tuple is feasible.
    # An order with no feasible tuple (n < q gap) has no support to compare on.
    feasible = want[:, -1] > 0
    err = np.abs(_fold_curves(weights, hs, m, "fft") - want)[feasible]
    want = want[feasible]
    assert np.all(err <= 1e-12 * want[:, -1:])
    if s >= 1.0:
        assert np.all(err[want > 0] <= 1e-12 * want[want > 0])


distance_kernels = st.builds(
    lambda s: WeightSequence(weight=lambda i: (1.0 + np.asarray(i, dtype=float)) ** s), st.floats(0.0, 3.0))


@settings(max_examples=40, deadline=None)
@given(kernel=st.one_of(distance_kernels, cauchy_kernels()), n=st.integers(1, 3000), m=st.integers(1, 3))
def test_psi_curve_is_nondecreasing_in_n(kernel, n, m):
    curve = psi_curve(kernel, np.arange(n + 1), m)
    # Each fold table is nondecreasing (negative FFT round-off is clamped), but
    # a distance kernel's curve meets two tables at the direct/FFT seam
    # (h = 2048 to 2049) and may dip there by their round-off.
    slack = 1e-13 * curve[:, -1:] if isinstance(kernel, WeightSequence) else 0.0
    assert np.all(np.diff(curve, axis=1) >= -slack)
