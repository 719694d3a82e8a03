"""Kernel evaluation, exact cell integrals, covariance and L2 distances."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from volterra_ito.approx import fit_expsum
from volterra_ito.bracket import energy_function
from volterra_ito.errors import DomainError, NumericalError
from volterra_ito.kernels import (
    BrownianKernel,
    ExpSumKernel,
    RiemannLiouvilleKernel,
    TableKernel,
    TimeGrid,
    covariance,
    equal_energy_grid,
    kernel_from_json,
    kernel_from_spec,
    kernel_l2mu_distance,
)
from volterra_ito.paths import volterra_weights

from kernel_helpers import (
    QUAD_RTOL,
    brownian_table,
    covariance_quad,
    l2mu_distance_quad,
    ragged_table,
    table_of,
)

BM = BrownianKernel(horizon=1.0)
RL25 = RiemannLiouvilleKernel(hurst=0.25, horizon=1.0)
ES = ExpSumKernel(weights=(1.0,), rates=(1.0,), horizon=1.0)
SIGNED = ExpSumKernel(weights=(1.0, -2.0), rates=(1.0, 10.0), horizon=1.0)


def kernel_eval(k, t, s):
    """K(t, s) for s < t, from the lag t - s as the program evaluates it."""
    return float(k.lag_eval(t, np.asarray(t - s), np.asarray(s)))


def kernel_cell_l2(k, t, a, b):
    """The exact integral of K(t, r)^2 over the cell [a, b]."""
    return float(k.cell_l2_rows(t, a, b))


def make_table_from(kernel, n=32):
    grid = TimeGrid.uniform(n, kernel.horizon)
    times = grid.times
    vals = np.zeros((n + 1, n + 1))
    for i in range(n + 1):
        for j in range(n + 1):
            if times[j] < times[i]:
                vals[i, j] = kernel_eval(kernel, times[i], times[j])
    return TableKernel(grid=grid, values=vals)


class TestKernelEval:
    def test_brownian_is_one(self):
        assert kernel_eval(BM, 0.9, 0.1) == 1.0
        assert kernel_eval(BM, 1.0, 0.999) == 1.0

    def test_rl_half_is_one(self):
        k = RiemannLiouvilleKernel(hurst=0.5, horizon=1.0)
        assert kernel_eval(k, 1.0, 0.3) == 1.0

    def test_rl_quarter_value(self):
        # sqrt(0.5) * 0.25^(-0.25) = 1 exactly
        assert kernel_eval(RL25, 1.0, 0.75) == pytest.approx(1.0, rel=1e-14)

    def test_expsum_value(self):
        assert kernel_eval(ES, 1.0, 0.5) == pytest.approx(math.exp(-0.5), rel=1e-14)

    def test_table_outside_grid_rejected(self):
        table = make_table_from(RL25)
        with pytest.raises(DomainError):
            kernel_eval(table, 1.5, 0.1)


class TestCellL2:
    def test_rl_full_interval(self):
        assert kernel_cell_l2(RL25, 1.0, 0.0, 1.0) == pytest.approx(1.0, rel=1e-14)

    def test_brownian_cell(self):
        assert kernel_cell_l2(BM, 1.0, 0.2, 0.5) == pytest.approx(0.3, rel=1e-14)

    def test_expsum_cell(self):
        expected = (1.0 - math.exp(-2.0)) / 2.0
        assert kernel_cell_l2(ES, 1.0, 0.0, 1.0) == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize("k", [BM, RL25, ES,
                                   RiemannLiouvilleKernel(hurst=0.7, horizon=1.0)])
    def test_cell_additivity(self, k):
        rng = np.random.default_rng(5)
        for _ in range(20):
            t = rng.uniform(0.2, 1.0)
            a, b, c = np.sort(rng.uniform(0.0, t, size=3))
            if not a < b < c:
                continue
            whole = kernel_cell_l2(k, t, a, c)
            split = kernel_cell_l2(k, t, a, b) + kernel_cell_l2(k, t, b, c)
            assert split == pytest.approx(whole, rel=1e-12, abs=1e-15)

    def test_table_cell_matches_rl(self):
        table = make_table_from(RiemannLiouvilleKernel(hurst=0.7, horizon=1.0), n=64)
        k = RiemannLiouvilleKernel(hurst=0.7, horizon=1.0)
        got = kernel_cell_l2(table, 0.75, 0.1, 0.5)
        want = kernel_cell_l2(k, 0.75, 0.1, 0.5)
        assert got == pytest.approx(want, rel=2e-3)


class TestCovariance:
    def test_brownian_min(self):
        assert covariance(BM, BM, 0.7, 1.0) == pytest.approx(0.7, rel=1e-14)

    @pytest.mark.parametrize("hurst", [0.1, 0.25, 0.5, 0.75])
    @pytest.mark.parametrize("t", [0.3, 1.0])
    def test_rl_diagonal_closed_form(self, hurst, t):
        k = RiemannLiouvilleKernel(hurst=hurst, horizon=1.0)
        assert covariance(k, k, t, t) == pytest.approx(t ** (2 * hurst), rel=1e-12)

    @pytest.mark.parametrize("hurst", [0.1, 0.25, 0.5, 0.75])
    def test_rl_diagonal_quadrature_matches(self, hurst):
        # the graded quadrature engine must reproduce the closed form
        k = RiemannLiouvilleKernel(hurst=hurst, horizon=1.0)
        for t in (0.3, 1.0):
            got = covariance_quad(k, k, t, t)
            assert got == pytest.approx(t ** (2 * hurst), rel=1e-10)

    @pytest.mark.parametrize("h1, h2", [(0.02, 0.03), (0.05, 0.1)])
    @pytest.mark.parametrize("m", [0.37, 1.0])
    def test_small_hurst_rl_pair_quadrature(self, h1, h2, m):
        # grading power p = ceil(9 / (h1 + h2)) makes m*v^p underflow to lag 0
        k1 = RiemannLiouvilleKernel(hurst=h1, horizon=1.0)
        k2 = RiemannLiouvilleKernel(hurst=h2, horizon=1.0)
        want = 2.0 * math.sqrt(h1 * h2) / (h1 + h2) * m ** (h1 + h2)
        assert covariance_quad(k1, k2, m, m) == pytest.approx(want, rel=1e-12)
        assert covariance(k1, k2, m, m) == pytest.approx(want, rel=1e-15)

    @pytest.mark.parametrize("m", [1e-300, 1e-200, 1e-100, 1e-50])
    def test_tiny_time_rl_pair_is_right_or_refused(self, m):
        # lags below the smallest normal float are lost to the quadrature; at
        # 1e-300 they held 6.6% of the integral and the value came back
        # silently wrong. The closed form has no such floor.
        k1 = RiemannLiouvilleKernel(hurst=0.02, horizon=1.0)
        k2 = RiemannLiouvilleKernel(hurst=0.03, horizon=1.0)
        want = 2.0 * math.sqrt(0.02 * 0.03) / 0.05 * m ** 0.05
        assert covariance(k1, k2, m, m) == pytest.approx(want, rel=1e-15)
        try:
            got = covariance_quad(k1, k2, m, m)
        except NumericalError as exc:
            assert m <= 1e-200, exc
            assert exc.bound > 1e-9
        else:
            assert got == pytest.approx(want, rel=1e-9)

    def test_quadrature_refuses_underflowing_lags(self):
        # the pair a CLI run at --T 1e-300 once sent to the quadrature
        k1 = RiemannLiouvilleKernel(hurst=0.02, horizon=1e-300)
        k2 = RiemannLiouvilleKernel(hurst=0.03, horizon=1e-300)
        with pytest.raises(NumericalError, match="underflow") as exc:
            covariance_quad(k1, k2, 1e-300, 1e-300)
        assert exc.value.bound > 1e-9

    def test_rl_brownian_cross(self):
        want = math.sqrt(0.5) * 4.0 / 3.0
        assert covariance(RL25, BM, 1.0, 1.0) == pytest.approx(want, rel=1e-12)
        got_quad = covariance_quad(RL25, BM, 1.0, 1.0)
        assert got_quad == pytest.approx(want, rel=1e-10)

    def test_closed_forms_match_quadrature(self):
        pairs = [
            (RL25, RL25, 0.5, 1.0),
            (RL25, ES, 0.8, 0.8),
            (ES, RL25, 1.0, 0.5),  # the later time is the exp-sum's: incomplete gamma
            (ES, ES, 0.4, 0.9),
            (BM, ES, 0.6, 1.0),
            (RiemannLiouvilleKernel(hurst=0.7, horizon=1.0), BM, 1.0, 0.5),
        ]
        for k1, k2, t, u in pairs:
            closed = covariance(k1, k2, t, u)
            quad = covariance_quad(k1, k2, t, u)
            assert closed == pytest.approx(quad, rel=1e-8), (k1.kind, k2.kind)

    def test_symmetry(self):
        pairs = [
            (RL25, BM), (RL25, ES), (ES, BM),
            (RL25, RiemannLiouvilleKernel(hurst=0.6, horizon=1.0)),
        ]
        for k1, k2 in pairs:
            t = 0.8
            assert covariance(k1, k2, t, t) == covariance(k2, k1, t, t)
            if trails(k1, k2, 0.5, 0.9):
                for args in ((k1, k2, 0.5, 0.9), (k2, k1, 0.9, 0.5)):
                    with pytest.raises(DomainError, match="no stable closed form"):
                        covariance(*args)
                continue
            a = covariance(k1, k2, 0.5, 0.9)
            b = covariance(k2, k1, 0.9, 0.5)
            assert a == pytest.approx(b, rel=1e-9)

    def test_gram_positive_semidefinite(self):
        times = np.linspace(0.1, 1.0, 8)
        for k in (BM, RL25, ES, RiemannLiouvilleKernel(hurst=0.75, horizon=1.0)):
            gram = np.array([[covariance(k, k, s, t) for t in times] for s in times])
            eigs = np.linalg.eigvalsh(gram)
            assert eigs.min() >= -1e-8 * np.trace(gram)

    def test_time_validation(self):
        with pytest.raises(DomainError):
            covariance(BM, BM, 0.0, 0.5)
        with pytest.raises(DomainError):
            covariance(BM, BM, 0.5, 1.5)

    def test_horizon_mismatch(self):
        # a time inside the longer horizon lies past the shorter one
        short = RiemannLiouvilleKernel(hurst=0.25, horizon=0.5)
        for pair in ((RL25, short), (short, RL25)):
            with pytest.raises(DomainError, match="share the horizon T"):
                covariance(*pair, 0.25, 0.25)

    def test_table_covariance(self):
        k = RiemannLiouvilleKernel(hurst=0.7, horizon=1.0)
        table = make_table_from(k, n=64)
        got = covariance(table, table, 1.0, 1.0)
        assert got == pytest.approx(1.0, rel=5e-3)


def trails(k1, k2, t, u):
    """Whether an exp-sum time trails a power-law time: the refused pair."""
    (ka, ta), (kb, tb) = sorted(((k1, t), (k2, u)), key=lambda p: p[0].kind != "expsum")
    return (ka.kind == "expsum" and kb.kind in ("rl", "brownian")
            and ta < tb - 1e-12 * max(t, u))


BM10 = brownian_table(np.linspace(0.0, 1.0, 11))
RAGGED = ragged_table()
# the RL kernel at H = 0.6 on knots that are neither BM10's nor RAGGED's
OTHER_KNOTS = table_of(RiemannLiouvilleKernel(hurst=0.6),
                       [0.0, 0.15, 0.3, 0.62, 0.71, 0.8, 1.0])
RL25_1024 = table_of(RL25, np.linspace(0.0, 1.0, 1025))
# on the diagonal, on and off knots, and off it in both orders
TABLE_TIMES = [(1.0, 1.0), (0.5, 0.5), (0.45, 0.45), (0.66, 0.66), (0.3, 0.8),
               (0.8, 0.3), (0.123, 0.9)]
TABLES = {"bm10": BM10, "ragged": RAGGED, "other-knots": OTHER_KNOTS}


def assert_matches_quadrature_both_orders(k1, k2, times):
    for t, u in times:
        for a, b, x, y in ((k1, k2, t, u), (k2, k1, u, t)):
            assert covariance(a, b, x, y) == pytest.approx(
                covariance_quad(a, b, x, y), rel=QUAD_RTOL), (a.kind, b.kind, x, y)


class TestTableCovariance:
    """Table rows are piecewise linear in s: each piece between the knots
    has a closed form."""

    @pytest.mark.parametrize("table", [BM10, ragged_table()], ids=["bm10", "ragged"])
    def test_diagonal_is_the_energy_function(self, table):
        # a knot inside a panel stalled the rule just above 1e-9: bm10
        # raised at covariance(0.5, 0.5)
        times = np.concatenate([table.grid.times[1:],
                                np.linspace(0.013, 0.987, 17)])
        got = covariance(table, table, times, times)
        np.testing.assert_allclose(got, table.total_l2(times), rtol=1e-12, atol=0.0)

    def test_bm10_values(self):
        # K(t, .) is 1 up to the cell below t and ramps to 0 across it
        assert covariance(BM10, BM10, 0.5, 0.5) == pytest.approx(0.4 + 0.1 / 3,
                                                                 rel=1e-12)
        assert covariance(BM10, BM10, 0.3, 0.8) == pytest.approx(0.2 + 0.1 / 2,
                                                                 rel=1e-12)

    @pytest.mark.parametrize("k1, k2", [
        (BM10, BM10), (RAGGED, RAGGED), (BM10, RAGGED), (RAGGED, OTHER_KNOTS),
    ], ids=["bm10", "ragged", "bm10-ragged", "ragged-other-knots"])
    def test_table_pair_matches_quadrature(self, k1, k2):
        # the pieces run between the knots of both tables
        assert_matches_quadrature_both_orders(k1, k2, TABLE_TIMES)

    @pytest.mark.parametrize("hurst", [0.1, 0.5, 0.75])
    @pytest.mark.parametrize("table", ["bm10", "ragged", "other-knots", "rl25-1024"])
    def test_table_rl_matches_quadrature(self, table, hurst):
        # on 1024 knots each piece is 1e-3 of a lag near 1: its two hat
        # integrals cancel powers of the lag
        table = RL25_1024 if table == "rl25-1024" else TABLES[table]
        rl = BM if hurst == 0.5 else RiemannLiouvilleKernel(hurst=hurst)
        assert_matches_quadrature_both_orders(table, rl, TABLE_TIMES)

    @pytest.mark.parametrize("table", ["bm10", "ragged"])
    def test_table_fast_expsum_matches_quadrature(self, table):
        # at rate 1e4 a piece of width 0.1 spans 1000 decay lengths
        es = ExpSumKernel(weights=(1.0, -0.5), rates=(1.0, 1e4))
        assert_matches_quadrature_both_orders(TABLES[table], es, TABLE_TIMES)


RL60 = RiemannLiouvilleKernel(hurst=0.6, horizon=1.0)
# on the diagonal, within 1e-14 of it (the diagonal branch), just past that
# (off it), and far off it
ARRAY_TIMES = [(0.7, 0.7), (0.7, 0.7 * (1 + 5e-15)), (0.7 * (1 + 5e-15), 0.7),
               (0.7, 0.7 * (1 + 1e-13)), (0.3, 0.9), (0.9, 0.3), (1.0, 1e-3),
               (1e-3, 1.0), (0.45, 0.45)]


class TestArrayCovariance:
    """covariance over arrays of times equals its scalar calls."""

    @pytest.mark.parametrize("k1, k2", [
        (BM, BM), (BM, RL25), (RL25, BM), (BM, SIGNED), (SIGNED, BM),
        (ES, SIGNED), (SIGNED, ES),
        (ES, RL25), (RL25, ES),  # includes exp-sum times trailing: refused
        (RL25, RL25), (RL25, RL60), (RL60, RL25),
        (BM10, BM10), (BM10, RAGGED), (RAGGED, BM10), (RAGGED, RL25),
        (RL25, RAGGED), (OTHER_KNOTS, SIGNED), (SIGNED, OTHER_KNOTS),
    ])
    def test_array_equals_stacked_scalar_calls(self, k1, k2):
        refused = [p for p in ARRAY_TIMES if trails(k1, k2, *p)]
        for p in refused:
            with pytest.raises(DomainError, match="no stable closed form"):
                covariance(k1, k2, *p)
        if refused:
            with pytest.raises(DomainError, match="no stable closed form"):
                covariance(k1, k2, *(np.array(x) for x in zip(*ARRAY_TIMES)))
        kept = [p for p in ARRAY_TIMES if p not in refused]
        t, u = (np.array(x) for x in zip(*kept))
        got = covariance(k1, k2, t, u)
        want = np.array([covariance(k1, k2, a, b) for a, b in kept])
        assert got.shape == t.shape
        np.testing.assert_allclose(got, want, rtol=1e-15, atol=0.0)
        assert np.array_equal(covariance(k1, k2, t, t), covariance(k2, k1, t, t))

    def test_table_kernels(self):
        table = make_table_from(RL25, n=16)
        t, u = np.array([1.0, 0.5, 0.75]), np.array([1.0, 0.75, 0.5])
        got = covariance(table, table, t, u)
        want = [covariance(table, table, a, b) for a, b in zip(t, u)]
        np.testing.assert_allclose(got, want, rtol=1e-15, atol=0.0)

    def test_trailing_expsum_time_is_refused(self):
        # its incomplete gamma functions cancel, and no command takes it
        with pytest.raises(DomainError, match=r"exp-sum kernel at 0\.5 with a "
                                              r"power law at the later time 1\.0"):
            covariance(ES, RL25, np.array([0.5, 1.0]), np.array([1.0, 0.5]))
        assert covariance(ES, RL25, 1.0, 0.5) == covariance(RL25, ES, 0.5, 1.0)

    def test_rl_diagonal_tolerance(self):
        # math.isclose(t, u, rel_tol=1e-14) picks the diagonal form m^(2H)
        t = 0.7
        on = covariance(RL25, RL25, t, t)
        assert covariance(RL25, RL25, t, t * (1 + 5e-15)) == on
        off = covariance(RL25, RL25, t, t * (1 + 1e-13))
        assert off == pytest.approx(t ** 0.5, rel=1e-12)

    def test_scalar_pair_returns_float(self):
        for k1, k2 in ((BM, BM), (RL25, RL25), (RL25, ES), (RL25, RL60),
                       (BM10, RL25)):
            assert type(covariance(k1, k2, 0.5, 0.8)) is float
            assert type(covariance(k1, k2, np.float64(0.5), 0.8)) is float
        with pytest.raises(DomainError, match="no stable closed form"):
            covariance(ES, RL25, 0.5, 0.8)

    def test_broadcast_shape(self):
        times = np.linspace(0.1, 1.0, 5)
        gram = covariance(RL25, RL25, times[:, None], times[None, :])
        assert gram.shape == (5, 5)
        assert np.array_equal(gram, gram.T)

    def test_bad_time_in_array_named(self):
        with pytest.raises(DomainError, match=r"time 1\.5 outside"):
            covariance(BM, BM, np.array([0.5, 1.5, 0.2]), 0.3)
        with pytest.raises(DomainError, match=r"time -1\.0 outside"):
            covariance(RL25, BM, np.array([0.5, 0.7]), np.array([0.4, -1.0]))
        with pytest.raises(DomainError, match="nan"):
            covariance(ES, RL25, np.array([0.5, np.nan]), 0.4)


# Closed form against the graded quadrature oracle, over every power-law and
# exp-sum pair. The draws are derandomized so that every run tests the same
# examples. Times start at 1e-6: at tiny times the oracle, not the closed
# form, goes wrong for small H. At H = 0.02 it is off by 1e-9 relative at
# t = 1e-100 and does not converge at 1e-200, as its graded nodes m*v^p
# underflow to lag 0 over much of [0, 1] and are dropped.
SWEEP = settings(derandomize=True, deadline=None, database=None, max_examples=100)
HURST = st.floats(min_value=0.02, max_value=0.98)
TIME = st.floats(min_value=1e-6, max_value=1.0)
EXPSUM = st.lists(
    st.tuples(st.floats(min_value=-2.0, max_value=2.0),
              st.floats(min_value=0.1, max_value=20.0)),
    min_size=1, max_size=3,
).map(lambda terms: ExpSumKernel(weights=tuple(w for w, _ in terms),
                                 rates=tuple(r for _, r in terms)))
POWER_LAW = st.one_of(st.just(BM), HURST.map(lambda h: RiemannLiouvilleKernel(hurst=h)))


def assert_closed_matches_quadrature(k1, k2, t, u):
    for a, b, x, y in ((k1, k2, t, u), (k2, k1, u, t)):
        closed = covariance(a, b, x, y)
        quad = covariance_quad(a, b, x, y)
        assert closed == pytest.approx(quad, rel=1e-8, abs=1e-13), (a, b, x, y)


class TestClosedFormSweep:
    @SWEEP
    @given(t=TIME, u=TIME)
    def test_brownian_brownian(self, t, u):
        assert_closed_matches_quadrature(BM, BM, t, u)

    @SWEEP
    @given(h=HURST, t=TIME, u=TIME)
    def test_brownian_rl(self, h, t, u):
        assert_closed_matches_quadrature(BM, RiemannLiouvilleKernel(hurst=h), t, u)

    @SWEEP
    @given(es=EXPSUM, t=TIME, u=TIME)
    def test_brownian_expsum(self, es, t, u):
        # the closed form holds where the exp-sum time does not trail; where
        # it trails, the pair is refused
        t_es, t_bm = max(t, u), min(t, u)
        assert_closed_matches_quadrature(BM, es, t_bm, t_es)
        if trails(es, BM, t_bm, t_es):
            for args in ((es, BM, t_bm, t_es), (BM, es, t_es, t_bm)):
                with pytest.raises(DomainError, match="no stable closed form"):
                    covariance(*args)

    @SWEEP
    @given(e1=EXPSUM, e2=EXPSUM, t=TIME, u=TIME)
    def test_expsum_expsum(self, e1, e2, t, u):
        assert_closed_matches_quadrature(e1, e2, t, u)

    @SWEEP
    @given(es=EXPSUM, h=HURST, t=TIME, u=TIME)
    def test_expsum_rl(self, es, h, t, u):
        # the closed form holds where the exp-sum time does not trail
        t_es, t_rl = max(t, u), min(t, u)
        rl = RiemannLiouvilleKernel(hurst=h)
        assert_closed_matches_quadrature(es, rl, t_es, t_rl)

    @SWEEP
    @given(h=HURST, t=TIME, u=TIME)
    def test_rl_rl(self, h, t, u):
        k = RiemannLiouvilleKernel(hurst=h)
        assert_closed_matches_quadrature(k, k, t, u)

    @SWEEP
    @given(k1=POWER_LAW, k2=POWER_LAW, t=TIME, u=TIME)
    def test_two_hurst_exponents(self, k1, k2, t, u):
        # independent exponents, Brownian (H = 1/2) among them, with each
        # kernel's time the later one in turn
        assert_closed_matches_quadrature(k1, k2, t, u)
        assert_closed_matches_quadrature(k1, k2, u, t)


class TestL2MuDistance:
    def test_identical_kernels(self):
        assert kernel_l2mu_distance(RL25, RL25) == 0.0

    def test_brownian_vs_expsum_closed_form(self):
        want = math.sqrt(0.75 - 2.0 * math.exp(-1.0) + math.exp(-2.0) / 4.0)
        got = kernel_l2mu_distance(BM, ES)
        assert got == pytest.approx(want, rel=1e-10)

    def test_degenerate_rate_rejected(self):
        with pytest.raises(DomainError):
            ExpSumKernel(weights=(1.0,), rates=(0.0,), horizon=1.0)

    def test_horizon_mismatch(self):
        with pytest.raises(DomainError):
            kernel_l2mu_distance(BM, BrownianKernel(horizon=2.0))

    def test_expsum_near_zero_rate_approaches_brownian(self):
        # the lambda -> 0 limit of a unit-weight exponential is the constant kernel
        dists = [
            kernel_l2mu_distance(
                BM, ExpSumKernel(weights=(1.0,), rates=(lam,), horizon=1.0)
            )
            for lam in (1e-1, 1e-3, 1e-5)
        ]
        assert dists[0] > dists[1] > dists[2]
        assert dists[2] < 1e-5

    @pytest.mark.parametrize("n", [2, 4, 8, 16])
    @pytest.mark.parametrize("hurst", [0.1, 0.25, 0.5])
    def test_fitted_expsum_matches_quadrature(self, hurst, n):
        # the distances `approx` reports; these terms cancel where the fit
        # is close
        k = RiemannLiouvilleKernel(hurst=hurst)
        fitted = fit_expsum(k, n, 1e-4)
        assert kernel_l2mu_distance(k, fitted) == pytest.approx(
            l2mu_distance_quad(k, fitted), rel=QUAD_RTOL)

    def test_table_kernel_refused(self):
        # the distance integrates over the lag alone, which a table does not take
        table = make_table_from(RL25, n=8)
        for pair in ((table, RL25), (BM, table)):
            with pytest.raises(DomainError, match="stationary"):
                kernel_l2mu_distance(*pair)


class TestSpecs:
    def test_round_trip(self):
        for k in (BM, RL25, ES):
            assert kernel_from_spec(k.spec_dict()).spec_dict() == k.spec_dict()

    def test_brownian_spec_names_no_exponent(self):
        # Brownian motion is the RL kernel at H = 1/2 but keeps its own spec
        assert BM.spec_dict() == {"kind": "brownian", "T": 1.0}
        assert BM.kernel_id == '{"T":1.0,"kind":"brownian"}'
        k = kernel_from_spec({"kind": "brownian", "T": 2.0})
        assert type(k) is BrownianKernel
        assert (k.hurst, k.horizon) == (0.5, 2.0)

    def test_json_parsing(self):
        k = kernel_from_json('{"kind":"rl","hurst":0.25,"T":1.0}')
        assert isinstance(k, RiemannLiouvilleKernel)
        assert k.hurst == 0.25

    def test_unknown_kind(self):
        with pytest.raises(DomainError, match="kind"):
            kernel_from_spec({"kind": "weird", "T": 1.0})

    def test_missing_field(self):
        with pytest.raises(DomainError, match="hurst"):
            kernel_from_spec({"kind": "rl", "T": 1.0})

    def test_invalid_hurst(self):
        for h in (0.0, 1.0, -0.3, 1.7):
            with pytest.raises(DomainError):
                RiemannLiouvilleKernel(hurst=h, horizon=1.0)

    def test_table_spec_round_trip(self):
        table = make_table_from(RL25, n=8)
        again = kernel_from_spec(table.spec_dict())
        assert np.allclose(again.values, table.values)


class TestTimeGrid:
    def test_uniform(self):
        g = TimeGrid.uniform(4, 1.0)
        assert np.allclose(g.times, [0, 0.25, 0.5, 0.75, 1.0])
        assert g.n_cells == 4
        assert g.horizon == 1.0

    @pytest.mark.parametrize("horizon", [math.inf, math.nan, -math.inf, 0.0])
    def test_uniform_needs_finite_positive_horizon(self, horizon):
        with pytest.raises(DomainError, match="field 'T'"):
            TimeGrid.uniform(4, horizon)
        for make in (lambda: BrownianKernel(horizon=horizon),
                     lambda: RiemannLiouvilleKernel(hurst=0.25, horizon=horizon),
                     lambda: ExpSumKernel(weights=(1.0,), rates=(1.0,),
                                          horizon=horizon)):
            with pytest.raises(DomainError, match="field 'T'"):
                make()

    # 2^32 + 1 cells is refused too (tests/test_cli.py), but only a child
    # with a capped address space may try it: before the refusal it was an
    # allocation of 32 GiB
    @pytest.mark.parametrize("n_cells", [0, -1, 10 ** 22])
    def test_cell_count_range(self, n_cells):
        # numpy refused 1e22 cells with a ValueError
        for build in (lambda: TimeGrid.uniform(n_cells, 1.0),
                      lambda: equal_energy_grid(RL25, n_cells),
                      lambda: equal_energy_grid(ES, n_cells)):
            with pytest.raises(DomainError, match="need between 1 and 2\\^32 cells"):
                build()

    def test_must_start_at_zero(self):
        with pytest.raises(DomainError):
            TimeGrid(np.array([0.1, 0.5, 1.0]))

    def test_must_increase(self):
        with pytest.raises(DomainError):
            TimeGrid(np.array([0.0, 0.5, 0.5, 1.0]))

    def test_index_of(self):
        g = TimeGrid.uniform(4, 1.0)
        assert g.index_of(0.5) == 2
        with pytest.raises(DomainError):
            g.index_of(0.33)

    @pytest.mark.parametrize("t", [0.0, 1e-300])
    def test_index_of_refuses_time_zero(self, t):
        with pytest.raises(DomainError, match="t must be a positive grid point"):
            TimeGrid.uniform(4, 1.0).index_of(t)

    def test_equal_energy_rl(self):
        g = equal_energy_grid(RL25, 16)
        gam = g.times ** 0.5
        incs = np.diff(gam)
        assert np.allclose(incs, incs[0], rtol=1e-10)

    def test_equal_energy_expsum_bisection(self):
        g = equal_energy_grid(ES, 16)
        gam = np.array([ES.total_l2(t) for t in g.times])
        incs = np.diff(gam)
        assert np.allclose(incs, incs[0], rtol=1e-6)

    def test_equal_energy_refuses_underflowing_nodes(self):
        # T (i/n)^(1/(2H)) = (i/1024)^500 underflows to 0 for small i
        with pytest.raises(DomainError,
                           match=r"^the energy function.*--grid-kind uniform$"):
            equal_energy_grid(RiemannLiouvilleKernel(hurst=0.001), 1024)

    @pytest.mark.parametrize("n", [1, 16])
    def test_equal_energy_refuses_zero_energy(self, n):
        with pytest.raises(DomainError, match=r"^the energy function Gamma\(T\) = 0 "
                                              r"is not positive.*--grid-kind uniform$"):
            equal_energy_grid(ExpSumKernel(weights=(0.0,), rates=(1.0,)), n)


class TestBrownianIsRiemannLiouvilleHalf:
    """Brownian motion is the RL kernel at H = 1/2, bit for bit."""

    RL50 = RiemannLiouvilleKernel(hurst=0.5)

    @pytest.mark.parametrize("grid_kind", ["uniform", "energy"])
    def test_same_numbers(self, grid_kind):
        grids = [TimeGrid.uniform(100, 1.0) if grid_kind == "uniform"
                 else equal_energy_grid(k, 100) for k in (BM, self.RL50)]
        assert np.array_equal(grids[0].times, grids[1].times)
        grid = grids[0]
        assert np.array_equal(volterra_weights(BM, grid),
                              volterra_weights(self.RL50, grid))
        assert np.array_equal(energy_function(BM, grid).values,
                              energy_function(self.RL50, grid).values)
        t = grid.times[1:]
        for other in (BM, self.RL50, RL25):
            assert np.array_equal(covariance(BM, other, t[:, None], t[None, :]),
                                  covariance(self.RL50, other, t[:, None], t[None, :]))


def sequential_energy_grid(k, n_cells):
    """Reference: node-by-node scalar bisection on [previous node, T]."""
    T = k.horizon
    total = k.total_l2(T)
    times = [0.0]
    for i in range(1, n_cells):
        target = total * i / n_cells
        lo, hi = times[-1], T
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if k.total_l2(mid) < target:
                lo = mid
            else:
                hi = mid
        times.append(0.5 * (lo + hi))
    times.append(T)
    return np.asarray(times)


@pytest.fixture(scope="module")
def fitted16():
    return fit_expsum(RL25, 16, 1e-4)


class TestArrayGamma:
    @pytest.mark.parametrize("kernel", [
        BM,
        RiemannLiouvilleKernel(hurst=0.1, horizon=1.0),
        RL25,
        RiemannLiouvilleKernel(hurst=0.75, horizon=1.0),
        SIGNED,
        "fitted16",
        "table",
    ], ids=["brownian", "rl0.1", "rl0.25", "rl0.75", "signed", "fitted16",
            "table"])
    def test_matches_cell_cumsums(self, kernel, request):
        if kernel == "fitted16":
            kernel = request.getfixturevalue("fitted16")
        elif kernel == "table":
            kernel = make_table_from(ES, 16)
        times = TimeGrid.uniform(64, 1.0).times
        got = kernel.total_l2(times)
        want = np.array([
            np.sum(kernel.cell_l2_rows(times[i], times[:i], times[1:i + 1]))
            for i in range(times.size)
        ])
        assert got.shape == times.shape
        assert got[0] == 0.0
        assert np.allclose(got, want, rtol=1e-13, atol=0.0)

    def test_scalar_and_shape(self):
        assert isinstance(RL25.total_l2(0.25), float)
        assert RL25.total_l2(0.25) == pytest.approx(0.5, rel=1e-15)
        assert RL25.total_l2(0.0) == 0.0
        ts = np.array([[0.25, 1.0], [0.0, 0.0625]])
        got = RL25.total_l2(ts)
        assert got.shape == (2, 2)
        assert np.allclose(got, [[0.5, 1.0], [0.0, 0.25]], rtol=1e-15)


class TestEqualEnergyBisection:
    def test_bit_identical_to_sequential(self):
        k = ExpSumKernel((1.0,), (1.0,))
        got = equal_energy_grid(k, 1024).times
        assert np.array_equal(got, sequential_energy_grid(k, 1024))

    @pytest.mark.parametrize("kernel", [SIGNED, "fitted16"])
    def test_close_to_sequential(self, kernel, request):
        if kernel == "fitted16":
            kernel = request.getfixturevalue("fitted16")
        got = equal_energy_grid(kernel, 256).times
        want = sequential_energy_grid(kernel, 256)
        assert np.max(np.abs(got - want)) <= 1e-14

    def test_single_cell(self):
        assert np.array_equal(equal_energy_grid(ES, 1).times, [0.0, 1.0])
