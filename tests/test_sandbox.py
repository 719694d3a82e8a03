"""Exact Gaussian polynomial calculus: operator identities at machine precision."""

import itertools
import math
import sys
import tracemalloc

import numpy as np
import pytest

from volterra_ito import sandbox
from volterra_ito.errors import DomainError
from volterra_ito.itoverify import TestFunction, _res2_reference
from volterra_ito.kernels import BrownianKernel, RiemannLiouvilleKernel, TimeGrid
from volterra_ito.paths import _weight_row
from volterra_ito.sandbox import (
    GaussPoly,
    PolyField,
    _merge_keys,
    _random_poly,
    _scaled_gap,
    _wick_inner,
    check_adjointness,
    check_isometry,
    check_ortho_identity,
    check_product_rule,
    derive,
    discretized_bm_square,
    diverge,
    factorization_defect,
    field_inner,
    project_predictable,
    sandbox_suite,
    wick_expectation,
)


def xi(n, i):
    return GaussPoly(n, {((i, 1),): 1.0})


def basis_field(n, i, poly):
    comps = [GaussPoly.zero(n)] * n
    comps[i] = poly
    return PolyField(tuple(comps))


class TestWick:
    def test_second_moment(self):
        assert wick_expectation(xi(2, 0) * xi(2, 0)) == 1.0

    def test_mixed_even(self):
        f = GaussPoly(2, {((0, 4), (1, 2)): 1.0})
        assert wick_expectation(f) == 3.0

    def test_odd_vanishes(self):
        f = GaussPoly(1, {((0, 3),): 1.0})
        assert wick_expectation(f) == 0.0

    def test_constant(self):
        assert wick_expectation(GaussPoly.constant(3, 2.5)) == 2.5


def even_poly(rng, coords, coefs):
    """A polynomial over ``coords`` whose monomials hold every coordinate
    to an even power, one monomial per coefficient."""
    terms = {}
    for coef in coefs:
        picked = sorted(c for c in coords if rng.random() < 0.5)
        key = tuple((c, 2 * int(rng.integers(1, 3))) for c in picked)
        terms[key] = terms.get(key, 0.0) + float(coef)
    return GaussPoly(8, terms)


# the supports of b against a's coordinates (0, 1, 2, 3)
EVEN_SUPPORTS = pytest.mark.parametrize(
    "coords_b", [(4, 5, 6, 7), (2, 3, 4, 5), (0, 1, 2, 3)],
    ids=["disjoint", "partly-shared", "identical"])


def int_poly(rng, n):
    """A random polynomial with integer coefficients in [-3, 3]: every
    moment sum is exact, so the inner product equals its oracle bit for bit."""
    terms = {}
    for _ in range(int(rng.integers(0, 6))):
        terms[random_key(rng, n)] = float(rng.integers(-3, 4))
    return GaussPoly(n, terms)


class TestWickInner:
    """``_wick_inner(a, b)`` against its oracle ``wick_expectation(a * b)``."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_matches_oracle_on_random_integer_polys(self, n):
        rng = np.random.default_rng(100 + n)
        for _ in range(300):
            a, b = int_poly(rng, n), int_poly(rng, n)
            assert _wick_inner(a, b) == wick_expectation(a * b)
            assert _wick_inner(a, a) == wick_expectation(a * a)

    def test_zero_and_constants(self):
        n = 3
        zero, two = GaussPoly.zero(n), GaussPoly.constant(n, 2.0)
        f = GaussPoly(n, {((0, 2), (2, 1)): 3.0, (): -1.0, ((1, 4),): 2.0})
        assert _wick_inner(zero, f) == _wick_inner(f, zero) == 0.0
        assert _wick_inner(zero, zero) == 0.0
        assert _wick_inner(two, f) == wick_expectation(two * f) == 10.0
        assert _wick_inner(two, two) == 4.0

    def test_same_operand(self):
        n = 2
        f = GaussPoly(n, {((0, 1),): 1.0, ((0, 1), (1, 2)): -2.0, (): 0.5})
        g = GaussPoly(n, dict(f.terms))
        assert _wick_inner(f, f) == _wick_inner(f, g) == wick_expectation(f * f)

    def test_disjoint_odd_signatures_vanish(self):
        # odd signatures (0,), (0, 1) and (1,) against () and (2,): no pair matches
        n = 3
        a = GaussPoly(n, {((0, 1),): 2.0, ((0, 3), (1, 1)): 1.0, ((1, 1), (2, 2)): 5.0})
        b = GaussPoly(n, {(): 1.0, ((0, 2),): 4.0, ((2, 1),): 3.0})
        assert _wick_inner(a, b) == _wick_inner(b, a) == 0.0
        assert wick_expectation(a * b) == 0.0

    def test_bm_square_defect_at_n_64(self):
        d = factorization_defect(discretized_bm_square(64))
        assert _wick_inner(d, d) == wick_expectation(d * d) == 2.0 / 64

    @EVEN_SUPPORTS
    def test_even_group_matches_oracle(self, coords_b):
        # all-even operands take the factored sum; on integer coefficients
        # it is exact, so it equals the oracle bit for bit
        rng = np.random.default_rng(sum(coords_b))
        for _ in range(200):
            a = even_poly(rng, (0, 1, 2, 3), rng.integers(-3, 4, size=6))
            b = even_poly(rng, coords_b, rng.integers(-3, 4, size=6))
            assert _wick_inner(a, b) == wick_expectation(a * b)
            assert _wick_inner(b, a) == wick_expectation(b * a)
            assert _wick_inner(a, a) == wick_expectation(a * a)

    @EVEN_SUPPORTS
    def test_even_group_float_coefficients_within_rounding(self, coords_b):
        # the factored sum and the oracle each err by at most gamma_K times
        # sum |c1 c2| E[m1 m2]: K = N_a + N_b + N_s + 3 for the factored sum
        # (N_s <= N_a N_b sharing pairs), N_a N_b + L + 1 for the oracle,
        # which rounds once per product term, per addition into a key and
        # per moment factor (L <= 8 factors)
        def gamma(k):
            u = 2.0 ** -53
            return k * u / (1 - k * u)

        rng = np.random.default_rng(7 + sum(coords_b))
        for _ in range(200):
            a = even_poly(rng, (0, 1, 2, 3), rng.normal(size=6))
            b = even_poly(rng, coords_b, rng.normal(size=6))
            na, nb = len(a.terms), len(b.terms)
            scale = wick_expectation(
                GaussPoly(a.n, {k: abs(c) for k, c in a.terms.items()})
                * GaussPoly(b.n, {k: abs(c) for k, c in b.terms.items()}))
            tol = (gamma(na + nb + na * nb + 3) + gamma(na * nb + 9)) * scale
            assert abs(_wick_inner(a, b) - wick_expectation(a * b)) <= tol


class TestDerive:
    def test_product(self):
        n = 3
        d = derive(xi(n, 0) * xi(n, 1))
        assert d.components[0].terms == {((1, 1),): 1.0}
        assert d.components[1].terms == {((0, 1),): 1.0}
        assert d.components[2].terms == {}

    def test_square(self):
        d = derive(xi(2, 0) * xi(2, 0))
        assert d.components[0].terms == {((0, 1),): 2.0}

    def test_constant_derives_to_zero(self):
        d = derive(GaussPoly.constant(2, 4.0))
        assert all(c.terms == {} for c in d.components)


class TestDiverge:
    def test_deterministic_field(self):
        n = 2
        u = basis_field(n, 0, GaussPoly.constant(n, 1.0))
        assert diverge(u).terms == {((0, 1),): 1.0}

    def test_second_hermite(self):
        n = 2
        u = basis_field(n, 0, xi(n, 0))
        assert diverge(u).terms == {((0, 2),): 1.0, (): -1.0}

    def test_cross_term(self):
        n = 2
        u = basis_field(n, 0, xi(n, 1))
        assert diverge(u).terms == {((0, 1), (1, 1)): 1.0}


class TestProjection:
    def test_first_coordinate_killed(self):
        n = 2
        p = project_predictable(basis_field(n, 0, xi(n, 0)))
        assert all(c.terms == {} for c in p.components)

    def test_already_predictable(self):
        n = 2
        p = project_predictable(basis_field(n, 1, xi(n, 0)))
        assert p.components[1].terms == {((0, 1),): 1.0}

    def test_square_becomes_moment(self):
        n = 2
        p = project_predictable(basis_field(n, 1, xi(n, 1) * xi(n, 1)))
        assert p.components[1].terms == {(): 1.0}


class TestIdentities:
    def test_adjointness_examples(self):
        n = 2
        assert check_adjointness(
            xi(n, 0), basis_field(n, 0, GaussPoly.constant(n, 1.0))
        ) == 0.0
        assert check_adjointness(
            xi(n, 0) * xi(n, 0), basis_field(n, 0, xi(n, 0))
        ) == 0.0
        u = PolyField((xi(n, 1), xi(n, 0)))
        assert check_adjointness(xi(n, 0) * xi(n, 1), u) == 0.0

    def test_adjointness_both_sides_two(self):
        n = 2
        f = xi(n, 0) * xi(n, 0)
        u = basis_field(n, 0, xi(n, 0))
        assert wick_expectation(f * diverge(u)) == 2.0
        assert wick_expectation(field_inner(derive(f), u)) == 2.0

    def test_product_rule_examples(self):
        n = 2
        u = PolyField((xi(n, 0), xi(n, 1) * xi(n, 1)))
        assert check_product_rule(GaussPoly.constant(n, 1.0), u) == 0.0
        assert check_product_rule(xi(n, 0), basis_field(n, 0, GaussPoly.constant(n, 1.0))) == 0.0
        assert check_product_rule(xi(n, 1) * xi(n, 1), u) == 0.0

    def test_ortho_identity_examples(self):
        n = 3
        linear = GaussPoly(n, {((0, 1),): 2.0, ((1, 1),): -1.0})
        assert check_ortho_identity(linear) == 0.0
        assert check_ortho_identity(xi(n, 0) * xi(n, 0)) == 0.0
        assert check_ortho_identity(xi(n, 0) * xi(n, 1)) == 0.0

    def test_residuals_are_scaled_by_the_larger_side(self):
        # the suite's scale, max(1, |lhs|, |rhs|), now lives in the checks
        assert _scaled_gap(1000.0, 1001.0) == 1.0 / 1001.0
        assert _scaled_gap(-3.0, 1.0) == 4.0 / 3.0
        assert _scaled_gap(0.25, -0.5) == 0.75

    def test_isometry_examples(self):
        n = 2
        det = basis_field(n, 0, GaussPoly.constant(n, 3.0))
        lhs, hs, exact = check_isometry(det)
        assert lhs == exact == hs == 9.0
        lhs, hs, exact = check_isometry(basis_field(n, 0, xi(n, 1)))
        assert (lhs, exact) == (1.0, 1.0)
        assert hs == 2.0  # HS reading differs off the exact identity
        lhs, hs, exact = check_isometry(basis_field(n, 1, xi(n, 0)))
        assert (lhs, exact) == (1.0, 1.0)


class TestFactorizationDefect:
    def test_first_chaos(self):
        n = 3
        f = GaussPoly(n, {((0, 1),): 1.0, ((1, 1),): 2.0, ((2, 1),): -0.5})
        assert factorization_defect(f).terms == {}

    def test_multilinear(self):
        n = 3
        assert factorization_defect(xi(n, 0) * xi(n, 1)).terms == {}
        assert factorization_defect(
            xi(n, 0) * xi(n, 1) * xi(n, 2) + 2.0 * xi(n, 1)
        ).terms == {}

    @pytest.mark.parametrize("n", [4, 16, 64, 256])
    def test_bm_square_continuum_limit(self, n):
        d = factorization_defect(discretized_bm_square(n))
        l2 = math.sqrt(wick_expectation(d * d))
        want = math.sqrt(2.0 / n)
        assert abs(l2 - want) <= 1e-12 * want

    @pytest.mark.parametrize("n", [1, 3, 4, 7, 64])
    def test_bm_square_is_the_product_item_for_item(self, n):
        # coefficients and insertion order, which fixes later float sums
        a = 1.0 / math.sqrt(n)
        s = GaussPoly(n, {((i, 1),): a for i in range(n)})
        got = list(discretized_bm_square(n).terms.items())
        want = list((s * s).terms.items())
        assert got == want
        assert [c.hex() for _, c in got] == [c.hex() for _, c in want]

    def test_matches_operator_pipeline_on_random_polys(self):
        # the one-pass Pi D f adds the pipeline's products in its order:
        # equal term for term, in key order, for any coefficients
        rng = np.random.default_rng(23)
        for k in range(300):
            n = 1 + k % 6
            f = int_poly(rng, n)
            for g in (f, f * 0.1):
                want = (diverge(project_predictable(derive(g)))
                        - (g - wick_expectation(g)))
                assert list(factorization_defect(g).terms.items()) == \
                    list(want.terms.items())

    @pytest.mark.parametrize("n", [4, 16, 64])
    def test_bm_square_matches_operator_pipeline(self, n):
        f = discretized_bm_square(n)
        want = diverge(project_predictable(derive(f))) - (f - wick_expectation(f))
        got = factorization_defect(f)
        assert list(got.terms.items()) == list(want.terms.items())

    def test_defect_polynomial_shape(self):
        # defect of the n-cell W_1^2 is 1 - (1/n) sum xi_i^2
        n = 4
        d = factorization_defect(discretized_bm_square(n))
        assert d.terms[()] == pytest.approx(1.0)
        for i in range(n):
            assert d.terms[((i, 2),)] == pytest.approx(-0.25)


def pipeline_defect(f):
    """The factorization residue through the three operators: the oracle."""
    return diverge(project_predictable(derive(f))) - (f - wick_expectation(f))


def assert_matches_pipeline(f):
    assert list(factorization_defect(f).terms.items()) == \
        list(pipeline_defect(f).terms.items())


X0X1 = ((0, 1), (1, 1))
X0X1_3 = ((0, 1), (1, 3))
X0X1X2_2 = ((0, 1), (1, 1), (2, 2))


def colliding_poly(rng, n):
    """Integer coefficients in [-3, 3]; each self-landing monomial
    prefix * xi_c comes with monomials that land on its key: prefix * xi_c^3
    and prefix * xi_c (or xi_c^3) times later even powers. The terms are
    inserted in a random order."""
    terms = {}
    for _ in range(int(rng.integers(1, 4))):
        c = int(rng.integers(0, n))
        prefix = tuple((j, int(rng.integers(1, 4))) for j in range(c)
                       if rng.random() < 0.5)
        tail = tuple((j, 2 * int(rng.integers(1, 3))) for j in range(c + 1, n)
                     if rng.random() < 0.5)
        for key in (prefix + ((c, 1),), prefix + ((c, 3),),
                    prefix + ((c, 1),) + tail, prefix + ((c, 3),) + tail):
            if rng.random() < 0.7:
                coef = float(rng.choice([-3, -2, -1, 1, 2, 3]))
                terms[key] = terms.get(key, 0.0) + coef
    if rng.random() < 0.5:
        terms[()] = float(rng.integers(1, 4))
    items = list(terms.items())
    return GaussPoly(n, dict(items[i] for i in rng.permutation(len(items))))


class TestDefectSkipsSelfLanding:
    """A monomial ending in xi_c lands on its own key and is skipped unless
    another monomial lands there too. The hand-built and random cases hold
    such collisions, in float coefficients, and must equal the operator
    pipeline item for item and in key order."""

    @pytest.mark.parametrize("order", [(X0X1, X0X1_3), (X0X1_3, X0X1)],
                             ids=["self-first", "self-last"])
    def test_shared_landing_key(self, order):
        # a xi_0 xi_1 + b xi_0 xi_1^3: both land on xi_0 xi_1, which keeps
        # (a + 3b) - a. For (0.1, 0.3) that rounds to 3b, the value that
        # skipping xi_0 xi_1 would give; for (0.3, 0.1) it does not
        for a, b in ((0.1, 0.3), (0.3, 0.1)):
            coefs = {X0X1: a, X0X1_3: b}
            f = GaussPoly(2, {key: coefs[key] for key in order})
            assert_matches_pipeline(f)
            assert factorization_defect(f).terms[X0X1] == (a + b * 3) - a
        assert (0.3 + 0.1 * 3) - 0.3 != 0.1 * 3

    def test_landing_sum_cancels_to_zero(self):
        # xi_0 xi_1 - xi_0 xi_1 xi_2^2: Pi D f's xi_0 term is 1 - 1 = 0.0 and
        # is dropped, so xi_0 xi_1 enters the defect from f - E f, at its
        # place in f's key order
        for order in ((X0X1, X0X1X2_2), (X0X1X2_2, X0X1)):
            coefs = {X0X1: 1.0, X0X1X2_2: -1.0}
            f = GaussPoly(3, {key: coefs[key] for key in order})
            assert_matches_pipeline(f)
            assert list(factorization_defect(f).terms) == list(order)

    def test_constant_bearing(self):
        # E f = 0.7 + 0.2; xi_2 lands alone on its own key and drops out
        f = GaussPoly(3, {(): 0.7, ((0, 2),): 0.2, X0X1: 0.3, ((2, 1),): 0.5,
                          X0X1_3: 0.1, X0X1X2_2: -1.0 / 3.0})
        assert_matches_pipeline(f)
        d = factorization_defect(f)
        assert d.terms[()] == -(0.7 - (0.7 + 0.2))
        assert X0X1 in d.terms and ((2, 1),) not in d.terms

    @pytest.mark.parametrize("scale", [0.1, 1.0 / 3.0], ids=["x0.1", "x1/3"])
    def test_matches_operator_pipeline_on_colliding_polys(self, scale):
        rng = np.random.default_rng(31)
        for k in range(300):
            assert_matches_pipeline(colliding_poly(rng, 1 + k % 4) * scale)

    @pytest.mark.parametrize("n", [64, 256])
    def test_allocates_less_than_its_input(self, n):
        # W_1^2's n(n - 1)/2 cross terms all land on their own keys
        f = discretized_bm_square(n)
        tracemalloc.start()
        try:
            factorization_defect(f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < sys.getsizeof(f.terms)


def poly_of_row(coeffs, w):
    """phi(sum_j w_j xi_j) for phi(x) = sum_k coeffs[k] x^k, by products of
    the linear form."""
    n = len(w)
    s = GaussPoly(n, {((j, 1),): float(wj) for j, wj in enumerate(w)})
    f, power = GaussPoly.constant(n, coeffs[0]), GaussPoly.constant(n, 1.0)
    for c in coeffs[1:]:
        power = power * s
        f = f + c * power
    return f


class TestDefectIsThePathwiseResidual:
    """The defect of phi(X_t), X_t = sum_j w_j xi_j on the grid, is minus
    verify-path's residual phi(X_t) - E phi(X_t) - CO_t, so its second moment
    is ``_res2_reference``'s E[res^2]; the two routes share no code."""

    @pytest.mark.parametrize("coeffs", [[0.0, 0.0, 1.0], [0.0, 1.0, 0.0, 1.0],
                                        [0.0, 0.5, -1.0, 0.0, 0.25]],
                             ids=["x2", "x+x3", "quartic"])
    @pytest.mark.parametrize("kernel", [
        RiemannLiouvilleKernel(hurst=0.25, horizon=1.0),
        RiemannLiouvilleKernel(hurst=0.75, horizon=1.0),
        BrownianKernel(horizon=1.0)], ids=["rl0.25", "rl0.75", "bm"])
    @pytest.mark.parametrize("n", [4, 8, 16])
    def test_second_moment_is_the_res2_reference(self, coeffs, kernel, n):
        w = _weight_row(kernel, TimeGrid.uniform(n, 1.0).times, n)
        d = factorization_defect(poly_of_row(coeffs, w))
        ref, bound, _ = _res2_reference(TestFunction.polynomial(coeffs), w)
        assert abs(_wick_inner(d, d) - ref) <= bound


class TestRandomSuite:
    def test_full_suite_passes(self):
        rep = sandbox_suite(cases=200, seed=20240801)
        assert rep["pass"]
        assert rep["adjointness_max"] <= 1e-12
        assert rep["product_rule_max"] <= 1e-12
        assert rep["ortho_identity_max"] <= 1e-12
        assert rep["projection_idempotence_max"] <= 1e-12
        assert rep["projection_self_adjoint_max"] <= 1e-12
        assert rep["isometry_exact_max"] <= 1e-12
        assert rep["defect_multilinear_max"] <= 1e-12

    def test_hs_gap_reported_not_asserted(self):
        rep = sandbox_suite(cases=50, seed=7)
        assert "isometry_hs_gap_max" in rep
        assert rep["isometry_hs_gap_max"] >= 0.0


def off_by_2e_12(name, real):
    """A stand-in for the suite's check ``name`` with residual 2e-12."""
    return {
        "check_adjointness": lambda f, u: 2e-12,
        "check_product_rule": lambda f, u: 2e-12,
        "check_ortho_identity": lambda f: 2e-12,
        "check_isometry": lambda u: (0.0, 0.0, 2e-12),
        # the real defect plus a constant leaves the W_1^2 family unmoved
        "factorization_defect": lambda f: real(f) + 2e-12,
    }[name]


class TestPassCoversEveryIdentity:
    @pytest.mark.parametrize("name, key", [
        ("check_adjointness", "adjointness_max"),
        ("check_product_rule", "product_rule_max"),
        ("check_ortho_identity", "ortho_identity_max"),
        ("check_isometry", "isometry_exact_max"),
        ("factorization_defect", "defect_multilinear_max"),
    ])
    def test_one_broken_identity_fails_the_suite(self, name, key, monkeypatch):
        monkeypatch.setattr(sandbox, name, off_by_2e_12(name, getattr(sandbox, name)))
        rep = sandbox_suite(cases=5, seed=1)
        assert rep[key] == pytest.approx(2e-12, rel=1e-6)
        assert all(d["rel_error"] <= 1e-12 for d in rep["defect_bm_square"].values())
        assert rep["pass"] is False

    def test_hilbert_schmidt_gap_is_not_asserted(self, monkeypatch):
        real = sandbox.check_isometry

        def wide_gap(u):
            lhs, hs, exact = real(u)
            return lhs, hs + 1e6, exact

        monkeypatch.setattr(sandbox, "check_isometry", wide_gap)
        rep = sandbox_suite(cases=5, seed=1)
        assert rep["isometry_hs_gap_max"] > 1.0
        assert rep["pass"] is True


class TestValidation:
    def test_bad_exponent(self):
        with pytest.raises(DomainError):
            GaussPoly(2, {((5, 1),): 1.0})
        with pytest.raises(DomainError):
            GaussPoly(2, {((0, 0),): 1.0})

    def test_field_length(self):
        with pytest.raises(DomainError):
            PolyField((GaussPoly.zero(2),))

    def test_zero_coefficients_dropped(self):
        p = GaussPoly(2, {((0, 1),): 0.0, ((1, 1),): 1.0})
        assert ((0, 1),) not in p.terms

    @pytest.mark.parametrize("key", [
        ((2, 1), (0, 1)),  # coordinates out of order
        ((1, 1), (1, 1)),  # repeated coordinate
        ((0, 1.5),),  # fractional power
        ((0, 2.0),),  # float power
        ((1.0, 1),),  # float coordinate
        ((-1, 1),),
        ((3, 1),),
        ((0, 1, 2),),
        ((0,),),
        "ab",  # not a tuple of pairs
    ])
    def test_non_canonical_keys_refused(self, key):
        with pytest.raises(DomainError):
            GaussPoly(3, {key: 1.0})

    def test_numpy_integer_keys_accepted(self):
        p = GaussPoly(3, {((np.int64(0), np.int64(2)),): 1.0})
        assert wick_expectation(p) == 1.0


def merge_by_dict(key1, key2):
    """The product key as a dict of powers, sorted: the merge's oracle."""
    exps = dict(key1)
    for (c, p) in key2:
        exps[c] = exps.get(c, 0) + p
    return tuple(sorted(exps.items()))


def random_key(rng, n):
    coords = sorted(rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False))
    return tuple((int(c), int(rng.integers(1, 4))) for c in coords)


class TestMergeKeys:
    @pytest.mark.parametrize("key1, key2", [
        ((), ()),
        ((), ((1, 2),)),
        (((0, 1), (3, 2)), ()),
        (((0, 1), (1, 2)), ((2, 1), (5, 3))),  # disjoint, in order
        (((4, 1), (6, 2)), ((0, 1), (2, 1))),  # disjoint, reversed
        (((0, 1), (2, 2)), ((1, 1), (3, 3))),  # interleaved
        (((0, 1), (2, 2)), ((2, 1), (3, 3))),  # overlapping at one coordinate
        (((0, 1), (1, 2), (5, 1)), ((0, 2), (1, 1), (5, 4))),  # same coordinates
        (((1, 1),), ((0, 1), (1, 1), (2, 1))),  # one inside the other
    ])
    def test_matches_oracle(self, key1, key2):
        assert _merge_keys(key1, key2) == merge_by_dict(key1, key2)
        assert _merge_keys(key2, key1) == merge_by_dict(key1, key2)

    def test_matches_oracle_on_random_keys(self):
        rng = np.random.default_rng(11)
        for _ in range(2000):
            n = int(rng.integers(1, 9))
            key1, key2 = random_key(rng, n), random_key(rng, n)
            assert _merge_keys(key1, key2) == merge_by_dict(key1, key2)

    def test_product_term_order_matches_oracle(self):
        # dict insertion order fixes the order of float accumulation
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(2, 7))
            f = _random_poly(rng, n) * 0.1
            g = _random_poly(rng, n) * (1.0 / 3.0)
            want: dict = {}
            for (k1, c1), (k2, c2) in itertools.product(f.terms.items(),
                                                        g.terms.items()):
                key = merge_by_dict(k1, k2)
                want[key] = want.get(key, 0.0) + c1 * c2
            want = {k: c for k, c in want.items() if c != 0.0}
            assert list((f * g).terms.items()) == list(want.items())


class TestSuitePinned:
    def test_full_output_bit_for_bit(self):
        zero = 0.0
        defect = {
            str(n): {"l2_norm": float.fromhex(h), "expected": float.fromhex(h),
                     "rel_error": zero}
            for n, h in ((4, "0x1.6a09e667f3bcdp-1"), (16, "0x1.6a09e667f3bcdp-2"),
                         (64, "0x1.6a09e667f3bcdp-3"), (256, "0x1.6a09e667f3bcdp-4"))
        }
        rep = sandbox_suite()
        assert rep == {
            "cases": 200,
            "adjointness_max": zero,
            "product_rule_max": zero,
            "ortho_identity_max": zero,
            "projection_idempotence_max": zero,
            "projection_self_adjoint_max": zero,
            "isometry_exact_max": zero,
            "isometry_hs_gap_max": float.fromhex("0x1.bdc3d34c81fa2p+2"),
            "defect_multilinear_max": zero,
            "defect_bm_square": defect,
            "pass": True,
        }
        assert list(rep) == ["cases", "adjointness_max", "product_rule_max",
                             "ortho_identity_max", "projection_idempotence_max",
                             "projection_self_adjoint_max", "isometry_exact_max",
                             "isometry_hs_gap_max", "defect_multilinear_max",
                             "defect_bm_square", "pass"]
        assert rep["isometry_hs_gap_max"].hex() == "0x1.bdc3d34c81fa2p+2"

    @pytest.mark.parametrize("seed, hs_gap", [
        (1, "0x1.5ff51ef005708p+2"),
        (7, "0x1.59d382d3e358ap+2"),
    ])
    def test_other_seeds_bit_for_bit(self, seed, hs_gap):
        # the Hilbert-Schmidt gap is the one residual that depends on the
        # drawn polynomials, so it pins the draws of other seeds
        rep = sandbox_suite(seed=seed)
        assert rep["pass"] is True
        assert rep["isometry_hs_gap_max"].hex() == hs_gap
        assert all(rep[key] == 0.0 for key in rep
                   if key.endswith("_max") and key != "isometry_hs_gap_max")
        assert rep["defect_bm_square"] == sandbox_suite(cases=1)["defect_bm_square"]
