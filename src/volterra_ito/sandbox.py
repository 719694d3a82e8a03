"""Exact Gaussian Malliavin calculus on polynomials of n i.i.d. normals.

Polynomials in standard Gaussian coordinates form the chain-rule core on
which the derivation D (coordinatewise partial derivative), the divergence
delta (its adjoint) and the predictable projection Pi (coordinate i
conditions on coordinates < i) act in closed form. Expectations reduce to
Wick/Isserlis moments, so every operator identity can be checked to machine
precision with no simulation.

The checks take E[ab] without building the product a b. A pair of monomials
has a nonzero moment only when no coordinate carries an odd total power,
that is when the coordinates each holds to an odd power (its odd signature)
are the same, so ``_wick_inner`` groups both operands' terms by odd
signature and sums over the matching pairs only. Pairs with a nonempty
signature always share a coordinate and are summed pair by pair, the
coefficients times the Isserlis moment of the merged key. In the all-even
group two monomials with disjoint supports are independent, E[m1 m2] =
E[m1] E[m2], so that group is summed as (sum_a c E[m]) (sum_b c E[m]) plus
c1 c2 (E[m1 m2] - E[m1] E[m2]) for each pair sharing a coordinate, found
through a coordinate index. With exact moments (integer products below
2^53) the factored sum is within gamma_K sum |c1 c2| E[m1 m2] of the
exact value, gamma_K = K u / (1 - K u), u = 2^-53, K = N_a + N_b + N_s + 3
for N_a and N_b group terms and N_s sharing pairs. It is exact, as the
pairwise sum is, when every partial sum is an integer below 2^53.

``factorization_defect`` builds Pi D f straight from f's monomials: the
partial of a monomial in its pos-th factor's coordinate c, conditioned on
the coordinates below c, is the monomial of its first pos factors, with
coefficient coef * p * E[xi^(p-1)] times the moments of the later factors.
That is nonzero only at the last odd-power factor, so each monomial lands
once. A monomial ending in a power-1 factor lands on its own key with its
own coefficient, and f - E[f] takes that coefficient back off; unless
another monomial lands on the same key the pipeline writes 0.0 there and
drops it, so such a monomial is skipped, in Pi D f and in f - E[f] alike.
The surviving keys keep the pipeline's sums in its order, so the defect is
bit-identical to the operator pipeline whenever E[f] is finite.

Monomials are stored sparsely: a term key is a canonical tuple of
(coordinate, power) pairs, with int coordinates strictly increasing in
[0, n) and int powers >= 1, so 256-coordinate functionals with few active
variables per monomial stay cheap. The public constructor refuses any other
key; products merge two canonical keys in one pass, and results built
inside this module skip the check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError

__all__ = [
    "GaussPoly",
    "PolyField",
    "wick_expectation",
    "derive",
    "diverge",
    "project_predictable",
    "field_inner",
    "check_adjointness",
    "check_product_rule",
    "check_ortho_identity",
    "check_isometry",
    "factorization_defect",
    "discretized_bm_square",
    "sandbox_suite",
]


class _MomentTable(dict):
    """E[xi^k] for xi ~ N(0,1), looked up as ``_MOMENTS[k]``: (k-1)!! for
    even k, 0 for odd; each k is computed on its first lookup."""

    def __missing__(self, k):
        out = 0.0
        if k % 2 == 0:
            out = 1.0
            for j in range(k - 1, 0, -2):
                out *= j
        self[k] = out
        return out


_MOMENTS = _MomentTable()


def _merge_keys(key1, key2):
    """Key of the product of two monomials, merging two canonical keys."""
    if not key1 or not key2:
        return key1 or key2
    # disjoint coordinate ranges, the common case: the product key is a
    # concatenation
    if key1[-1][0] < key2[0][0]:
        return key1 + key2
    if key2[-1][0] < key1[0][0]:
        return key2 + key1
    out = []
    i = j = 0
    n1, n2 = len(key1), len(key2)
    while i < n1 and j < n2:
        c1, p1 = key1[i]
        c2, p2 = key2[j]
        if c1 < c2:
            out.append(key1[i])
            i += 1
        elif c2 < c1:
            out.append(key2[j])
            j += 1
        else:
            out.append((c1, p1 + p2))
            i += 1
            j += 1
    return tuple(out) + key1[i:] + key2[j:]


def _check_key(key, n):
    """Refuse a key that is not canonical for n coordinates."""
    if not isinstance(key, tuple):
        raise DomainError(f"bad monomial key {key!r}: must be a tuple")
    ints = (int, np.integer)
    prev = -1
    for entry in key:
        ok = isinstance(entry, tuple) and len(entry) == 2
        if ok:
            c, p = entry
            ok = (isinstance(c, ints) and isinstance(p, ints)
                  and prev < c < n and p >= 1)
        if not ok:
            raise DomainError(
                f"bad exponent entry {entry!r} in {key!r} for n={n}: keys "
                "are (coordinate, power) int pairs with coordinates strictly "
                "increasing in [0, n) and powers >= 1")
        prev = c


@dataclass(frozen=True)
class GaussPoly:
    """Sparse polynomial in n i.i.d. standard Gaussian coordinates."""

    n: int
    terms: dict = field(default_factory=dict)

    def __post_init__(self):
        clean = {}
        for key, coef in self.terms.items():
            if coef == 0.0:
                continue
            _check_key(key, self.n)
            clean[key] = float(coef)
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _trusted(cls, n: int, terms: dict) -> "GaussPoly":
        """Wrap a fresh dict built by this module's algebra.

        Its keys are canonical and its coefficients floats, so only zero
        coefficients are dropped; the dict is kept when it holds none.
        """
        if 0.0 in terms.values():
            terms = {k: c for k, c in terms.items() if c != 0.0}
        poly = object.__new__(cls)
        object.__setattr__(poly, "n", n)
        object.__setattr__(poly, "terms", terms)
        return poly

    # -- constructors -------------------------------------------------------

    @classmethod
    def constant(cls, n: int, value: float) -> "GaussPoly":
        return cls(n, {(): float(value)} if value != 0.0 else {})

    @classmethod
    def zero(cls, n: int) -> "GaussPoly":
        return cls(n, {})

    # -- algebra ------------------------------------------------------------

    def __add__(self, other):
        return self - (-other)  # the checks' residuals subtract: __sub__ owns the loop

    __radd__ = __add__

    def __neg__(self):
        return GaussPoly._trusted(self.n, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, float)):
            other = GaussPoly.constant(self.n, other)
        out = dict(self.terms)
        for key, coef in other.terms.items():
            out[key] = out.get(key, 0.0) - coef
        return GaussPoly._trusted(self.n, out)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            other = float(other)
            return GaussPoly._trusted(
                self.n, {k: c * other for k, c in self.terms.items()})
        out: dict = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                key = _merge_keys(k1, k2)
                out[key] = out.get(key, 0.0) + c1 * c2
        return GaussPoly._trusted(self.n, out)

    __rmul__ = __mul__

    # -- inspection ---------------------------------------------------------

    @property
    def max_abs_coef(self) -> float:
        return max((abs(c) for c in self.terms.values()), default=0.0)


@dataclass(frozen=True)
class PolyField:
    """R^n-valued polynomial field: one GaussPoly per coordinate."""

    components: tuple

    def __post_init__(self):
        comps = tuple(self.components)
        if not comps:
            raise DomainError("field needs at least one component")
        n = comps[0].n
        if any(c.n != n for c in comps) or len(comps) != n:
            raise DomainError("field must have exactly n components over n coordinates")
        object.__setattr__(self, "components", comps)

    @property
    def n(self) -> int:
        return self.components[0].n


# ---------------------------------------------------------------------------
# Operators
# ---------------------------------------------------------------------------

def _key_moment(m: float, key) -> float:
    """m times the Isserlis moment of the monomial ``key``, multiplied in
    factor by factor and left at 0 from the first odd power on."""
    for (_c, p) in key:
        m *= _MOMENTS[p]
        if m == 0.0:
            break
    return m


def wick_expectation(f: GaussPoly) -> float:
    """E[f(xi)] via Isserlis: per-monomial product of single-coordinate moments."""
    total = 0.0
    for key, coef in f.terms.items():
        total += _key_moment(coef, key)
    return total


def _odd_groups(f: GaussPoly) -> dict:
    """f's (key, coef) terms grouped by odd signature."""
    groups: dict = {}
    for key, coef in f.terms.items():
        sig = tuple([c for c, p in key if p & 1])
        groups.setdefault(sig, []).append((key, coef))
    return groups


def _even_inner(terms_a: list, terms_b: list) -> float:
    """E[ab] over two lists of all-even terms: monomials with disjoint
    supports are independent, so the sum is the product of the two means
    plus a correction for each pair that shares a coordinate."""
    index: dict = {}
    for j, (key, _coef) in enumerate(terms_b):
        for (c, _p) in key:
            index.setdefault(c, []).append(j)
    moments_b = [_key_moment(1.0, key) for key, _coef in terms_b]
    mean_a = mean_b = correction = 0.0
    for (_key, coef), m in zip(terms_b, moments_b):
        mean_b += coef * m
    for k1, c1 in terms_a:
        m1 = _key_moment(1.0, k1)
        mean_a += c1 * m1
        for j in dict.fromkeys(j for c, _p in k1 for j in index.get(c, ())):
            k2, c2 = terms_b[j]
            joint = _key_moment(1.0, _merge_keys(k1, k2))
            correction += c1 * c2 * (joint - m1 * moments_b[j])
    return mean_a * mean_b + correction


def _grouped_inner(ga: dict, gb: dict) -> float:
    """E[ab] from the odd groups of a and b: only pairs of monomials with
    equal odd signatures have a nonzero moment, so only those are merged;
    the all-even group goes through ``_even_inner``."""
    total = 0.0
    for sig, terms_a in ga.items():
        terms_b = gb.get(sig)
        if terms_b is None:
            continue
        if not sig:
            total += _even_inner(terms_a, terms_b)
            continue
        for k1, c1 in terms_a:
            for k2, c2 in terms_b:
                total += _key_moment(c1 * c2, _merge_keys(k1, k2))
    return total


def _wick_inner(a: GaussPoly, b: GaussPoly) -> float:
    """E[ab], equal to ``wick_expectation(a * b)`` without building a * b.

    Groups with an odd signature are summed pair by pair. The all-even group
    is the product of the two groups' means plus a correction
    c1 c2 (E[m1 m2] - E[m1] E[m2]) for each pair sharing a coordinate: with
    N_a, N_b terms, N_s sharing pairs and exact moments, its rounding error is
    at most gamma_K sum |c1 c2| E[m1 m2], K = N_a + N_b + N_s + 3,
    gamma_K = K u / (1 - K u), u = 2^-53. Integer coefficients whose partial
    sums stay below 2^53 give the oracle's value bit for bit; general floats
    agree to rounding.
    """
    ga = _odd_groups(a)
    return _grouped_inner(ga, ga if b is a else _odd_groups(b))


def _field_wick_inner(u: PolyField, v: PolyField) -> float:
    """E[<u, v>], equal to ``wick_expectation(field_inner(u, v))``."""
    return sum(_wick_inner(a, b) for a, b in zip(u.components, v.components))


def _partial_key(key, pos):
    """Key of the partial derivative of a monomial in its pos-th factor's
    coordinate; the factor's power p is the derivative's coefficient."""
    c, p = key[pos]
    rest = key[pos + 1:]
    return key[:pos] + (((c, p - 1),) + rest if p > 1 else rest)


def derive(f: GaussPoly) -> PolyField:
    """The derivation D: component i is the partial derivative in coordinate i."""
    # single pass over the terms: each monomial contributes to the partials
    # of exactly its active coordinates
    comps: list = [{} for _ in range(f.n)]
    for key, coef in f.terms.items():
        for pos, (c, p) in enumerate(key):
            new = _partial_key(key, pos)
            out = comps[c]
            out[new] = out.get(new, 0.0) + coef * p
    return PolyField(tuple(GaussPoly._trusted(f.n, d) for d in comps))


def diverge(u: PolyField) -> GaussPoly:
    """Gaussian divergence: delta(u) = sum_i xi_i u_i - sum_i du_i/dxi_i."""
    n = u.n
    acc: dict = {}
    for i, comp in enumerate(u.components):
        xi = ((i, 1),)
        for key, coef in comp.terms.items():
            # a monomial in coordinates below i, as in a predictable field,
            # is extended by xi_i and has no partial in coordinate i
            key = key + xi if not key or key[-1][0] < i else _merge_keys(xi, key)
            acc[key] = acc.get(key, 0.0) + coef
        for key, coef in comp.terms.items():
            if not key or key[-1][0] < i:
                continue
            for pos, (c, p) in enumerate(key):
                if c == i:
                    new = _partial_key(key, pos)
                    acc[new] = acc.get(new, 0.0) - coef * p
                    break
    return GaussPoly._trusted(n, acc)


def project_predictable(u: PolyField) -> PolyField:
    """Componentwise conditional expectation E[u_i | xi_0, ..., xi_{i-1}]:
    in each monomial the factors in coordinates >= i become their moments."""
    comps = []
    for i, comp in enumerate(u.components):
        out: dict = {}
        for key, coef in comp.terms.items():
            # keys are sorted: the factors from pos on are the ones to condition
            pos = len(key)
            while pos and key[pos - 1][0] >= i:
                pos -= 1
            coef = _key_moment(coef, key[pos:])
            if coef != 0.0:  # key[:pos] is key itself when nothing is conditioned
                new = key[:pos]
                out[new] = out.get(new, 0.0) + coef
        comps.append(GaussPoly._trusted(comp.n, out))
    return PolyField(tuple(comps))


def field_inner(u: PolyField, v: PolyField) -> GaussPoly:
    """Pointwise inner product sum_i u_i v_i as a polynomial."""
    acc: dict = {}
    for a, b in zip(u.components, v.components):
        for key, coef in (a * b).terms.items():
            acc[key] = acc.get(key, 0.0) + coef
    return GaussPoly._trusted(u.n, acc)


# ---------------------------------------------------------------------------
# Identity checks: each residual is scaled by max(1, |either side|)
# ---------------------------------------------------------------------------

def _scaled_gap(lhs: float, rhs: float) -> float:
    return abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs))


def check_adjointness(f: GaussPoly, u: PolyField) -> float:
    """E[f delta(u)] against E[<Df, u>]; zero up to rounding by adjointness."""
    return _scaled_gap(_wick_inner(f, diverge(u)),
                       _field_wick_inner(derive(f), u))


def check_product_rule(f: GaussPoly, u: PolyField) -> float:
    """Max coefficient of delta(f u) - (f delta(u) - <Df, u>); identically
    zero. Scaled by the larger side's max coefficient."""
    lhs = diverge(PolyField(tuple(f * c for c in u.components)))
    rhs = f * diverge(u) - field_inner(derive(f), u)
    scale = max(1.0, lhs.max_abs_coef, rhs.max_abs_coef)
    return (lhs - rhs).max_abs_coef / scale


def check_ortho_identity(f: GaussPoly) -> float:
    """E<Df, Pi Df> against E|Pi Df|^2; zero since Pi is an orthogonal
    projection."""
    u = derive(f)
    p = project_predictable(u)
    return _scaled_gap(_field_wick_inner(u, p), _field_wick_inner(p, p))


def check_isometry(u: PolyField) -> tuple:
    """Skorokhod isometry data: (lhs, rhs_hs, rhs_exact).

    lhs = E[delta(u)^2] always equals rhs_exact, which carries the
    non-symmetrized trace sum_{ij} E[d_i u_j d_j u_i]; rhs_hs carries the
    squared Hilbert-Schmidt norm sum_{ij} E[(d_i u_j)^2] and is reported for
    comparison only (the two readings differ off the exact identity).
    """
    d = diverge(u)
    lhs = _wick_inner(d, d)
    norm2 = _field_wick_inner(u, u)
    trace_exact = 0.0
    trace_hs = 0.0
    # groups[j][i]: the odd groups of d_i u_j
    groups = [[_odd_groups(p) for p in derive(c).components]
              for c in u.components]
    for i in range(u.n):
        for j in range(u.n):
            g_ij = groups[j][i]
            trace_exact += _grouped_inner(g_ij, groups[i][j])
            trace_hs += _grouped_inner(g_ij, g_ij)
    return lhs, norm2 + trace_hs, norm2 + trace_exact


def _last_odd(key) -> int:
    """Position of the last odd-power factor of a monomial key, -1 if none."""
    pos = len(key) - 1
    while pos >= 0 and not key[pos][1] & 1:
        pos -= 1
    return pos


def factorization_defect(f: GaussPoly) -> GaussPoly:
    """delta(Pi D f) - (f - E[f]): the finite-dimensional factorization residue.

    Identically zero for multilinear f; for diagonal chaos it is the
    discrete-time residue that vanishes in the continuum limit. Each monomial
    of f lands once in Pi D f, at its last odd-power factor; one ending in a
    power-1 factor lands on its own key, and where no other monomial lands
    there its term and its f - E[f] term cancel to 0.0, so it is skipped.
    Whenever E[f] is finite the result equals
    ``diverge(project_predictable(derive(f))) - (f - wick_expectation(f))``
    term for term, bit for bit and in the same key order.
    """
    # a monomial with its last odd-power factor (c, p) at pos lands on
    # key[:pos] + xi_c. One ending in (c, 1) lands on its own key with
    # coef * 1 * 1.0 = coef, which f - E[f] takes back off: unless one of
    # the others lands there too (hit), it is skipped. Its moment is 0, so
    # E[f] over the kept terms is E[f]
    hit = set()
    for key in f.terms:
        if key and key[-1][1] != 1:
            pos = _last_odd(key)
            if pos >= 0:
                hit.add(key[:pos] + ((key[pos][0], 1),))
    kept = GaussPoly._trusted(f.n, {
        key: coef for key, coef in f.terms.items()
        if not key or key[-1][1] != 1 or key in hit})
    # pi[c]: component c of Pi D f. The partial in factor (c, p) at pos,
    # conditioned on the coordinates below c, keeps key[:pos] with
    # coefficient coef * p * E[xi^(p-1)] * (moments of key[pos+1:]); it is
    # nonzero only at the last odd power, as every later factor is even
    pi: list = [{} for _ in range(f.n)]
    for key, coef in kept.terms.items():
        pos = _last_odd(key)
        if pos >= 0:
            c, p = key[pos]
            m = _key_moment(coef * p * _MOMENTS[p - 1], key[pos + 1:])
            out, new = pi[c], key[:pos]
            out[new] = out.get(new, 0.0) + m
    # every key of pi[c] lies below c, so delta maps it to key + xi_c; a sum
    # that cancelled to 0 is skipped, as the projection drops it, so the
    # terms of f - E[f] land in the pipeline's key order
    d: dict = {}
    for c, comp in enumerate(pi):
        xi = ((c, 1),)
        for key, coef in comp.items():
            if coef != 0.0:
                d[key + xi] = coef
    for key, coef in (kept - wick_expectation(kept)).terms.items():
        d[key] = d.get(key, 0.0) - coef
    return GaussPoly._trusted(f.n, d)


def discretized_bm_square(n: int) -> GaussPoly:
    """(sum_i sqrt(1/n) xi_i)^2: the n-cell discretization of W_1^2."""
    if n < 1:
        raise DomainError("need n >= 1 cells")
    a = 1.0 / math.sqrt(n)
    aa = a * a
    cross = aa + aa
    # s * s for s = sum_i a xi_i, written out in its insertion order and
    # with its coefficients: a*a on the diagonal, a*a + a*a off it; the
    # off-diagonal keys share one ((i, 1),) tuple per coordinate
    xs = [((i, 1),) for i in range(n)]
    terms: dict = {}
    for i in range(n):
        terms[((i, 2),)] = aa
        xi = xs[i]
        for xj in xs[i + 1:]:
            terms[xi + xj] = cross
    return GaussPoly._trusted(n, terms)


# ---------------------------------------------------------------------------
# Randomized suite
# ---------------------------------------------------------------------------

def _random_poly(rng, n):
    """A sum of 1 to 5 monomials of degree <= 8 with nonzero integer
    coefficients in [-3, 3]."""
    terms: dict = {}
    for _ in range(rng.integers(1, 6)):
        degree = int(rng.integers(0, 9))
        exps: dict = {}
        for c in rng.integers(0, n, size=degree).tolist():
            exps[c] = exps.get(c, 0) + 1
        key = tuple(sorted(exps.items()))
        coef = 0
        while coef == 0:
            coef = int(rng.integers(-3, 4))
        terms[key] = terms.get(key, 0.0) + coef
    return GaussPoly(n, terms)


def _random_field(rng, n):
    comps = []
    for _ in range(n):
        if rng.random() < 0.25:
            comps.append(GaussPoly.zero(n))
        else:
            comps.append(_random_poly(rng, n))
    return PolyField(tuple(comps))


def _random_multilinear(rng, n):
    """A polynomial with distinct coordinates in each monomial."""
    terms = {}
    for _ in range(int(rng.integers(1, 5))):
        size = int(rng.integers(0, n + 1))
        coords = tuple(sorted(rng.choice(n, size=size, replace=False)))
        key = tuple((int(c), 1) for c in coords)
        terms[key] = terms.get(key, 0.0) + float(rng.integers(1, 4))
    return GaussPoly(n, terms)


# the suite's per-case residuals, reported as "<name>_max"; every one but the
# Hilbert-Schmidt gap is an exact identity that ``pass`` asserts
_RESIDUALS = ("adjointness", "product_rule", "ortho_identity",
              "projection_idempotence", "projection_self_adjoint",
              "isometry_exact", "isometry_hs_gap", "defect_multilinear")


def sandbox_suite(cases: int = 200, seed: int = 20240801) -> dict:
    """Run the exact randomized suite; returns max residuals per identity.

    Covers adjointness, the product rule, the orthogonality identity,
    idempotence and self-adjointness of the projection, the exact isometry
    (with the Hilbert-Schmidt-vs-exact trace gap reported, not asserted),
    and the factorization-defect continuum family.
    """
    if cases < 1:
        raise DomainError("sandbox suite needs cases >= 1")
    if seed < 0:
        raise DomainError(f"sandbox suite needs seed >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    keys = [f"{name}_max" for name in _RESIDUALS]
    res = {"cases": cases, **dict.fromkeys(keys, 0.0)}
    for _ in range(cases):
        n = int(rng.integers(2, 7))
        f = _random_poly(rng, n)
        u = _random_field(rng, n)
        v = _random_field(rng, n)
        ml = _random_multilinear(rng, n)
        pu = project_predictable(u)
        ppu = project_predictable(pu)
        idem = max((a - b).max_abs_coef for a, b in zip(pu.components, ppu.components))
        iso_lhs, iso_hs, iso_exact = check_isometry(u)
        case = (  # in the order of _RESIDUALS
            check_adjointness(f, u),
            check_product_rule(f, u),
            check_ortho_identity(f),
            idem / max(1.0, max(c.max_abs_coef for c in pu.components)),
            _scaled_gap(_field_wick_inner(pu, v),
                        _field_wick_inner(u, project_predictable(v))),
            _scaled_gap(iso_lhs, iso_exact),
            abs(iso_hs - iso_exact) / max(1.0, abs(iso_lhs), abs(iso_exact)),
            factorization_defect(ml).max_abs_coef,
        )
        for key, r in zip(keys, case):
            res[key] = max(res[key], r)

    defect = {}
    for n in (4, 16, 64, 256):
        d = factorization_defect(discretized_bm_square(n))
        l2 = math.sqrt(_wick_inner(d, d))
        expected = math.sqrt(2.0 / n)
        defect[str(n)] = {
            "l2_norm": l2,
            "expected": expected,
            "rel_error": abs(l2 - expected) / expected,
        }
    res["defect_bm_square"] = defect
    res["pass"] = bool(
        all(res[key] <= 1e-12 for key in keys if key != "isometry_hs_gap_max")
        and all(v["rel_error"] <= 1e-12 for v in defect.values())
    )
    return res
