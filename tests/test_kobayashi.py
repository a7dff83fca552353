import cmath
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from contactfb import kobayashi
from contactfb.contact import (
    ContactPoint,
    TangentVector,
    chow_path,
    horizontality_residual,
    legendrian_from_xy,
)
from contactfb.kobayashi import (
    NormBracket,
    SearchBudget,
    cck_distance_upper,
    directed_norm_bracket,
    directed_norm_lower,
    directed_norm_upper,
    max_certified_x_derivative,
)
from contactfb.numeric import CPolynomial
from contactfb.obstacle import (
    DEFAULT_AVOIDANCE_MARGIN,
    AvoidanceCheck,
    ShellBand,
    ShellUnion,
    certify_avoidance,
    standard_obstacle,
)

ORIGIN = ContactPoint((0j,), (0j,), 0j)
X_DIR = TangentVector((1 + 0j,), (0j,), 0j)
SMALL = SearchBudget(lambda_budget=1e3)
INF, NAN = complex("inf"), complex("nan")
# (point, direction, the block named): a non-finite coordinate fails the
# horizontality check by name, where a NaN defect would pass it
NONFINITE = [
    (ContactPoint((INF,), (0j,), 0j), X_DIR, r"^point x\[0\] is not finite"),
    (ORIGIN, TangentVector((NAN,), (0j,), 0j),
     r"^direction x\[0\] is not finite"),
    (ContactPoint((0j,), (0j,), NAN), X_DIR, r"^point z is not finite"),
    (ORIGIN, TangentVector((0j,), (complex(0.0, -math.inf),), 0j),
     r"^direction y\[0\] is not finite"),
    (ContactPoint((0j, 1j), (0j, NAN), 0j),
     TangentVector((1 + 0j, 0j), (0j, 0j), 0j),
     r"^point y\[1\] is not finite"),
]


class TestSearchBudget:
    def test_validation(self):
        with pytest.raises(ValueError):
            SearchBudget(lambda_budget=0.0)

    @pytest.mark.parametrize("field, value", [
        ("margin", -0.5), ("margin", -5e-324), ("margin", math.inf),
        ("margin", math.nan), ("lambda_budget", math.nan),
        ("lambda_budget", math.inf), ("lambda_budget", -1.0),
    ])
    def test_unsound_values_refused(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            SearchBudget(**{field: value})

    def test_negative_margin_certifies_nothing(self):
        # at margin -0.5 the upper bound was 0.667 with witness x = 1.5 zeta,
        # which meets shell 1 at |zeta| = 2/3; the contrapositive returned
        # a_1 = 1 itself
        K = standard_obstacle(1, 6)
        with pytest.raises(ValueError, match="^margin"):
            directed_norm_upper(ORIGIN, X_DIR, "complement", K,
                                SearchBudget(margin=-0.5))
        with pytest.raises(ValueError, match="^margin"):
            max_certified_x_derivative(K, 1, margin=-0.5)

    def test_nan_lambda_budget_gives_no_distance(self):
        # cck_distance_upper returned NaN
        q = ContactPoint((1 + 0j,), (0j,), 0j)
        with pytest.raises(ValueError, match="^lambda_budget"):
            cck_distance_upper(ORIGIN, q, SearchBudget(lambda_budget=math.nan))

    def test_zero_margin_allowed(self):
        upper, witness = directed_norm_upper(
            ORIGIN, X_DIR, "complement", standard_obstacle(1, 4),
            SearchBudget(margin=0.0))
        assert upper == 1.0 / math.nextafter(1.0, 0.0)
        assert certify_avoidance(witness.components, standard_obstacle(1, 4),
                                 0.0).certified


class TestNormBracket:
    def test_inconsistent_rejected(self):
        with pytest.raises(ValueError, match="inconsistent"):
            NormBracket(lower=2.0, upper=1.0)

    def test_infinite_upper_allowed(self):
        b = NormBracket(lower=0.25, upper=math.inf)
        assert b.upper == math.inf


class TestLowerBound:
    K = standard_obstacle(1, 4)

    def test_origin_x_direction(self):
        lower, cert = directed_norm_lower(ORIGIN, X_DIR, self.K)
        assert lower == 0.25  # |v_x| / 2^(N0+1) with N0 = 1
        assert cert.N0 == 1

    def test_zero_direction(self):
        lower, _ = directed_norm_lower(
            ORIGIN, TangentVector((0j,), (0j,), 0j), self.K)
        assert lower == 0.0

    def test_exact_homogeneity(self):
        l1, _ = directed_norm_lower(ORIGIN, X_DIR, self.K)
        l2, _ = directed_norm_lower(ORIGIN, X_DIR.scaled(2.0), self.K)
        assert l2 == 2.0 * l1

    def test_larger_polydisk_weakens_bound(self):
        p = ContactPoint((3 + 0j,), (0j,), 0j)  # needs N0 = 2
        lower, cert = directed_norm_lower(p, X_DIR, self.K)
        assert cert.N0 == 2
        assert lower == 1.0 / 8.0

    def test_rejects_nonhorizontal(self):
        bad = TangentVector((0j,), (0j,), 1 + 0j)
        with pytest.raises(ValueError, match="not horizontal"):
            directed_norm_lower(ORIGIN, bad, self.K)

    @pytest.mark.parametrize("p,v,named", NONFINITE)
    def test_rejects_nonfinite(self, p, v, named):
        with pytest.raises(ValueError, match=named):
            directed_norm_lower(p, v, standard_obstacle(p.n, 6))

    def test_last_covered_n0(self):
        p = ContactPoint((7 + 0j,), (0j,), 0j)  # N0 = 3 = i_max - 1
        lower, cert = directed_norm_lower(p, X_DIR, self.K)
        assert (lower, cert.N0) == (1.0 / 16.0, 3)

    @pytest.mark.parametrize("x", [8.0, 15.0, 40.0])  # N0 = 4, 4, 6
    def test_no_bound_from_n0_at_or_beyond_i_max(self, x):
        p = ContactPoint((complex(x),), (0j,), 0j)
        assert directed_norm_lower(p, X_DIR, self.K) == (0.0, None)

    @pytest.mark.parametrize("K", [
        ShellUnion(standard_obstacle(1, 4).shells, (0, 1), 2),  # log-only
        ShellUnion.from_linear([(1, 1, 16), (2, 2, 128), (4, 4, 1000),
                                (8, 8, 8192)], (0, 1), 2),
        ShellUnion.from_linear([(1, 1.5, 16), (2, 2, 128), (4, 4, 1024),
                                (8, 8, 8192)], (0, 1), 2),
    ])
    def test_no_bound_off_the_standard_obstacle(self, K):
        assert directed_norm_lower(ORIGIN, X_DIR, K) == (0.0, None)

    def test_truncation_counterexample(self):
        # a linear disk at (3, 40, 0) certifies upper bound 1e-3, below the
        # cap's 1/128 for N0 = 6: the lemma says nothing beyond shell i_max
        K = standard_obstacle(1, 6)
        p = ContactPoint((3 + 0j,), (40 + 0j,), 0j)
        b = directed_norm_bracket(p, X_DIR, K, budget=SMALL)
        assert (b.lower, b.lower_certificate) == (0.0, None)
        assert b.upper == 1e-3 and b.upper_witness is not None


class TestUpperBound:
    K = standard_obstacle(1, 4)

    def test_full_space_value(self):
        upper, witness = directed_norm_upper(ORIGIN, X_DIR, "full_space",
                                             budget=SMALL)
        assert upper == 1.0 / SMALL.lambda_budget
        assert witness is not None
        assert horizontality_residual(witness).is_zero

    def test_zero_direction(self):
        upper, witness = directed_norm_upper(
            ORIGIN, TangentVector((0j,), (0j,), 0j), "full_space")
        assert upper == 0.0 and witness is None

    def test_complement_witness_certified(self):
        upper, witness = directed_norm_upper(ORIGIN, X_DIR, "complement",
                                             self.K, budget=SMALL)
        assert math.isfinite(upper)
        assert witness is not None
        assert horizontality_residual(witness).is_zero
        assert certify_avoidance(witness.components, self.K).certified
        # witness actually realizes the bound: f'(0) = lambda * v
        lam = abs(witness.components[0].eval_deriv(0.0)[1])
        assert upper == pytest.approx(1.0 / lam, rel=1e-12)

    def test_subnormal_direction(self):
        # 1/maxnorm(v) overflows: the direction is still e_x, and the bound
        # maxnorm(v) / lam
        K = standard_obstacle(1, 6)
        lam, want = kobayashi._largest_certified_scaling(
            ORIGIN, X_DIR, K, DEFAULT_AVOIDANCE_MARGIN, 1e3)
        upper, witness = directed_norm_upper(
            ORIGIN, X_DIR.scaled(5e-324), "complement", K)
        assert upper == 5e-324 / lam
        assert witness.components == want.components

    def test_exact_homogeneity(self):
        u1, _ = directed_norm_upper(ORIGIN, X_DIR, "complement", self.K,
                                    budget=SMALL)
        u2, _ = directed_norm_upper(ORIGIN, X_DIR.scaled(2.0), "complement",
                                    self.K, budget=SMALL)
        assert u2 == 2.0 * u1

    def test_deterministic(self):
        a, _ = directed_norm_upper(ORIGIN, X_DIR, "complement", self.K,
                                   budget=SMALL)
        b, _ = directed_norm_upper(ORIGIN, X_DIR, "complement", self.K,
                                   budget=SMALL)
        assert a == b

    def test_domain_validation(self):
        with pytest.raises(ValueError, match="domain"):
            directed_norm_upper(ORIGIN, X_DIR, "annulus")
        with pytest.raises(ValueError, match="requires"):
            directed_norm_upper(ORIGIN, X_DIR, "complement", K=None)

    def test_rejects_nonhorizontal(self):
        bad = TangentVector((0j,), (0j,), 1 + 0j)
        with pytest.raises(ValueError, match="not horizontal"):
            directed_norm_upper(ORIGIN, bad, "full_space")

    @pytest.mark.parametrize("p,v,named", NONFINITE)
    def test_rejects_nonfinite(self, p, v, named):
        with pytest.raises(ValueError, match=named):
            directed_norm_upper(p, v, "full_space")
        with pytest.raises(ValueError, match=named):
            directed_norm_upper(p, v, "complement", standard_obstacle(p.n, 6))

    @pytest.mark.parametrize("n_K", [2, 3])
    def test_rejects_obstacle_of_another_dimension(self, n_K):
        with pytest.raises(ValueError, match=rf"3 components.*C\^{2*n_K+1}"):
            directed_norm_upper(ORIGIN, X_DIR, "complement",
                                standard_obstacle(n_K, 4))
        with pytest.raises(ValueError, match="dimension mismatch"):
            max_certified_x_derivative(standard_obstacle(n_K, 4), n=1)


class TestBracket:
    K = standard_obstacle(1, 4)

    def test_origin_bracket(self):
        b = directed_norm_bracket(ORIGIN, X_DIR, self.K, budget=SMALL)
        assert b.lower == 0.25
        assert b.lower <= b.upper
        assert b.upper <= 1.2
        assert b.lower_certificate is not None
        assert b.upper_witness is not None


def _quadrature_distance(p, q, budget=None, nodes=64):
    """The composite-midpoint quadrature that estimated the distance before
    the exact segment sum, kept as the reference."""
    total = 0.0
    for seg in chow_path(p, q).segments:
        h = 1.0 / nodes
        for m in range(nodes):
            t = (m + 0.5) * h
            pt = seg.at(t)
            vel = seg.derivative_at(t)
            if vel.maxnorm() == 0.0:
                continue
            upper, _ = directed_norm_upper(pt, vel, "full_space",
                                           budget=budget)
            total += upper * h
    return total


def _random_point(rng, n):
    return ContactPoint.from_flat(
        [complex(a, b) for a, b in zip(rng.standard_normal(2 * n + 1),
                                       rng.standard_normal(2 * n + 1))])


class TestDistanceUpper:
    def test_same_point_zero(self):
        assert cck_distance_upper(ORIGIN, ORIGIN) == 0.0
        p = ContactPoint((1 + 2j, 0.5j), (-3 + 0j, 1 + 0j), 0.25 + 0j)
        assert cck_distance_upper(p, p) == 0.0

    def test_full_space_small(self):
        q = ContactPoint((0j,), (0j,), 1 + 0j)
        got = cck_distance_upper(ORIGIN, q)
        assert 0 < got <= 1e-2

    def test_pure_z_displacement_is_exact(self):
        # four unit moves of the loop, each bounded by 1 / lambda_budget;
        # the 64-node quadrature gave 0.004000000000000003
        q = ContactPoint((0j,), (0j,), 1 + 0j)
        assert cck_distance_upper(ORIGIN, q) == 0.004

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_equals_sum_of_segment_bounds(self, n):
        rng = np.random.default_rng(60 + n)
        for _ in range(20):
            p, q = _random_point(rng, n), _random_point(rng, n)
            bounds = []
            for seg in chow_path(p, q).segments:
                # the velocity of an affine segment is its t-coefficient
                vel = TangentVector.from_flat(
                    [c.coeffs[1] if c.degree >= 1 else 0j
                     for c in seg.components])
                bounds.append(directed_norm_upper(seg.at(0.5), vel,
                                                  "full_space")[0])
            assert cck_distance_upper(p, q) == math.fsum(bounds)

    def test_builds_no_witness_disk(self, monkeypatch):
        q = ContactPoint((1 + 1j,), (0.5j,), 2 + 0j)
        want = cck_distance_upper(ORIGIN, q)

        def no_disk(*args):
            raise AssertionError("the distance built a witness disk")
        monkeypatch.setattr(kobayashi, "_linear_disk", no_disk)
        assert cck_distance_upper(ORIGIN, q) == want

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_quadrature(self, n):
        rng = np.random.default_rng(80 + n)
        for _ in range(4):
            p, q = _random_point(rng, n), _random_point(rng, n)
            want = _quadrature_distance(p, q)
            assert cck_distance_upper(p, q) == pytest.approx(want, rel=1e-13)

    def test_triangle_inequality_at_a_corner(self):
        q = ContactPoint((1 + 0j,), (0j,), 0j)
        r = ContactPoint((1 + 0j,), (1 + 0j,), 0j)
        d_pq = cck_distance_upper(ORIGIN, q)
        d_qr = cck_distance_upper(q, r)
        d_pr = cck_distance_upper(ORIGIN, r)
        assert d_pr <= d_pq + d_qr

    def test_scales_with_lambda_budget(self):
        q = ContactPoint((2 + 0j,), (0j,), 0j)
        small = cck_distance_upper(ORIGIN, q,
                                   budget=SearchBudget(lambda_budget=1e2))
        large = cck_distance_upper(ORIGIN, q,
                                   budget=SearchBudget(lambda_budget=1e4))
        assert large == pytest.approx(small / 100.0, rel=1e-12)


def _linear_origin_disk(n, lam):
    """x_1 = lam * zeta, every other component zero."""
    zero = CPolynomial([0])
    return legendrian_from_xy([CPolynomial([0, lam])] + [zero] * (n - 1),
                              [zero] * n, 0j)


class TestContrapositiveSearch:
    def test_never_reaches_certificate_bound(self):
        K = standard_obstacle(1, 4)
        best, witness = max_certified_x_derivative(K, n=1)
        assert 0.0 < best < 4.0  # the certified cap 2^(N0+1)
        assert abs(witness.components[0].eval_deriv(0.0)[1]) == best

    @pytest.mark.parametrize("n, i_max", [(1, 4), (2, 6)])
    def test_closed_form_is_tight(self, n, i_max):
        K = standard_obstacle(n, i_max)
        margin = DEFAULT_AVOIDANCE_MARGIN
        value, witness = max_certified_x_derivative(K, n=n)
        assert value == math.nextafter(1.0 - 1e-6, 0.0)
        assert horizontality_residual(witness).is_zero
        assert witness.at(0.0).maxnorm() == 0.0
        assert certify_avoidance(witness.components, K, margin).certified
        above = _linear_origin_disk(n, math.nextafter(value, math.inf))
        assert not certify_avoidance(above.components, K, margin).certified

    @pytest.mark.parametrize("n", [1, 2])
    def test_random_certified_disks_stay_below(self, n):
        K = standard_obstacle(n, 6)
        value, _ = max_certified_x_derivative(K, n=n)
        rng = np.random.default_rng(70 + n)
        certified = 0
        for _ in range(300):
            total = rng.uniform(0.3, 1.3)  # target coefficient sum
            coeffs = rng.normal(size=(2 * n, 4)) + 1j * rng.normal(
                size=(2 * n, 4))
            coeffs *= total / np.abs(coeffs).sum(axis=1, keepdims=True)
            polys = [CPolynomial([0j, *row]) for row in coeffs.tolist()]
            f = legendrian_from_xy(polys[0::2], polys[1::2], 0j)
            if certify_avoidance(f.components, K).certified:
                certified += 1
                assert abs(f.components[0].eval_deriv(0.0)[1]) <= value
        assert 0 < certified < 300


def _parent_float_legendrian(xs, ys, z0):
    """The any-degree complex128 convolution that scored disks before the
    float path was reduced to linear disks, kept as the reference."""
    size = max(len(x) + len(y) - 2 for x, y in zip(xs, ys))
    integrand = [0j] * size
    for x, y in zip(xs, ys):
        for m in range(1, len(y)):
            dy = m * y[m]
            for i, xi in enumerate(x):
                integrand[i + m - 1] -= xi * dy
    comps = []
    for x, y in zip(xs, ys):
        comps.extend((x, y))
    comps.append([complex(z0)]
                 + [c / (k + 1) for k, c in enumerate(integrand)])
    return comps


# The parent verdict, the complex128 verdict that each bisection step used
# before ``_certification_shortfall`` became a per-step scalar verdict,
# kept as its oracle: it rebuilt all 2n+1 coefficient lists and scored
# them route by route.

def _parent_float_linear_disk(p, u, lam):
    """complex128 coefficient lists (x_1, y_1, ..., x_n, y_n, z) of
    ``_linear_disk(p, u, lam)``: z = p_z - sum_j x_j0 y_j1 zeta
    - (sum_j x_j1 y_j1) zeta^2 / 2."""
    xs, ys = kobayashi._linear_xy(p, u, lam)
    z1 = z2 = 0j
    for (x0, x1), (_, y1) in zip(xs, ys):
        z1 -= x0 * y1
        z2 -= x1 * y1
    return [c for xy in zip(xs, ys) for c in xy] + [[p.z, z1, z2 / 2]]


def _parent_sup_bound(coeffs):
    total = 0.0
    for c in reversed(coeffs):
        total += abs(c)
    return total


def _parent_inf_lower_bound(coeffs):
    if not coeffs:
        return 0.0
    return abs(coeffs[0]) - math.fsum(map(abs, coeffs[1:]))


def _parent_verdict(p, u, K, margin, lam):
    """(certified, routes) of the parent verdict's float linear disk."""
    comps = _parent_float_linear_disk(p, u, lam)
    sup_max = max(_parent_sup_bound(comps[d]) for d in K.shell_dims)
    inf_best = max(_parent_inf_lower_bound(comps[d]) for d in K.shell_dims)
    inf_disk = _parent_inf_lower_bound(comps[K.disk_dim])
    routes = []
    for a, b, c in K.linear_shells():
        if sup_max < a - margin:
            routes.append("inside")
        elif inf_best > b + margin:
            routes.append("outside")
        elif inf_disk > c + margin:
            routes.append("z_escape")
        else:
            routes.append("uncertified")
    return "uncertified" not in routes, routes


def _verdict(p, u, K, margin, lam):
    return kobayashi._certification_shortfall(
        kobayashi._disk_search(p, u, K, margin), lam)


def _as_parent(parent):
    """The parent verdict's (certified, routes) in the form of the new one:
    (certified, first shell no route certifies, or None)."""
    certified, routes = parent
    return certified, None if certified else routes.index("uncertified") + 1


def _outcome(verdict, *args):
    """The verdict's result, or the type of the error it raised (the
    parent's fsum raised OverflowError when two finite z moduli summed past
    float range)."""
    try:
        return verdict(*args)
    except OverflowError as e:
        return type(e)


def _step_moduli_args(search, lam, monkeypatch):
    """(verdict, the complex numbers whose moduli one step takes, in
    order): lam*u_xj and lam*u_yj for each j, then z1 and z2/2."""
    seen = []

    def recording_abs(c):
        seen.append(c)
        return abs(c)

    with monkeypatch.context() as m:
        m.setattr(kobayashi, "abs", recording_abs, raising=False)
        got = kobayashi._certification_shortfall(search, lam)
    return got, seen


class TestFloatScorer:
    """The per-step complex128 verdict of the bisection against the exact
    disk and against the parent verdict."""

    def test_boundary_disk_is_not_certified(self):
        # sup_max == a_1 - margin: the strict 'inside' route fails on shell 1
        K = standard_obstacle(1, 6)
        margin = DEFAULT_AVOIDANCE_MARGIN
        p = ContactPoint((K.linear_shells()[0][0] - margin,), (0j,), 0j)
        f = kobayashi._linear_disk(p, X_DIR, 0.0)
        check = certify_avoidance(f.components, K, margin)
        assert not check.certified and check.failed_shells == (1,)
        assert _verdict(p, X_DIR, K, margin, 0.0) == (False, 1)
        assert _as_parent(_parent_verdict(p, X_DIR, K, margin, 0.0)) == (
            False, 1)

    @pytest.mark.parametrize("n", [1, 2])
    def test_agrees_with_exact_certifier(self, n, monkeypatch):
        K = standard_obstacle(n, 6)
        radii = K.linear_shells()
        margin = DEFAULT_AVOIDANCE_MARGIN
        rng = np.random.default_rng(40 + n)

        def rand_complex(mag):
            return complex(mag * np.exp(1j * rng.uniform(-math.pi, math.pi)))

        verdicts, routes = set(), set()
        for _ in range(150):
            r, _, c_i = radii[int(rng.integers(len(radii)))]
            marked = int(rng.integers(2 * n))
            center = [rand_complex(r * (1 + rng.uniform(-0.05, 0.05))
                                   if d == marked else rng.uniform(0.0, r))
                      for d in range(2 * n)]
            # half the centers sit near the height c_i, where z_escape decides
            z_mag = (c_i * (1 + rng.uniform(-0.05, 0.05)) if rng.random() < 0.5
                     else rng.uniform(0.0, 1.0))
            p = ContactPoint(center[0::2], center[1::2], rand_complex(z_mag))
            u = TangentVector.from_flat(
                [rand_complex(rng.uniform(0.0, 1.0)) for _ in range(2 * n)]
                + [0j])
            lam = 0.02 * r * rng.uniform(0.0, 1.0)
            search = kobayashi._disk_search(p, u, K, margin)
            got, terms = _step_moduli_args(search, lam, monkeypatch)
            # the lam-dependent coefficients: bit for bit those of the
            # parent verdict's lists, and within rounding of the exact disk's
            f = kobayashi._linear_disk(p, u, lam)
            comps = _parent_float_linear_disk(p, u, lam)
            assert terms == [c[1] for c in comps[:-1]] + comps[-1][1:]
            exact = [c.coeffs + (0j,) * (len(want) - len(c.coeffs))
                     for c, want in zip(f.components, comps)]
            scale = max(abs(c) for comp in comps for c in comp)
            assert len(terms) == 2 * n + 2
            for a, b in zip(terms, [c[1] for c in exact[:-1]]
                            + list(exact[-1][1:])):
                assert abs(a - b) <= 1e-12 * scale
            xs, ys = kobayashi._linear_xy(p, u, lam)
            assert comps == _parent_float_legendrian(xs, ys, p.z)
            check = certify_avoidance(f.components, K, margin)
            assert got[0] == check.certified
            assert got == _as_parent(_parent_verdict(p, u, K, margin, lam))
            verdicts.add(got[0])
            routes.update(check.routes)
        assert verdicts == {True, False}
        assert {"inside", "outside", "z_escape", "uncertified"} <= routes


def _horizontal(x, y, z, vx, vy):
    """(p, v) with v_z = -sum_j x_j v_yj, so v is horizontal at p."""
    p = ContactPoint(tuple(map(complex, x)), tuple(map(complex, y)),
                     complex(z))
    vz = -sum(a * b for a, b in zip(p.x, vy))
    return p, TangentVector(tuple(map(complex, vx)),
                            tuple(map(complex, vy)), vz)


def _layouts(n):
    """K layouts the verdict must read as the parent verdict does: the
    standard obstacle, its log-only twin, shell coordinates in reverse
    order, z as a shell coordinate with x_1 as the disk coordinate, and z
    as the only shell coordinate."""
    K = standard_obstacle(n, 6)
    radii = K.linear_shells()
    z = 2 * n
    return [
        K,
        ShellUnion(K.shells, K.shell_dims, K.disk_dim),
        ShellUnion.from_linear(radii, K.shell_dims[::-1], z),
        ShellUnion.from_linear(radii, (z, *range(1, z)), 0),
        ShellUnion.from_linear(radii, (z,), 0),
    ]


LAYOUTS = {n: _layouts(n) for n in (1, 2)}


@st.composite
def _disk_cases(draw):
    """(p, u, K, margin): a centre with its largest (x, y) modulus in a gap
    of standard_obstacle(n, 6), gap 6 lying beyond the last shell, |p_z|
    log-uniform or just above the height of a shell beside the gap (where
    the z route decides), and a horizontal direction scaled to max-norm
    1."""
    n = draw(st.sampled_from([1, 2]))
    gap = draw(st.integers(0, 6))
    lo, hi = (0.0 if gap == 0 else 2.0 ** (gap - 1)), 2.0 ** gap
    mags = [draw(st.floats(0.0, 1.0)) for _ in range(2 * n)]
    marked = draw(st.integers(0, 2 * n - 1))
    top = lo + draw(st.floats(0.001, 0.999)) * (hi - lo)
    mags = [top if d == marked else m * top for d, m in enumerate(mags)]
    phases = [draw(st.floats(-math.pi, math.pi)) for _ in range(4 * n + 1)]
    center = [m * cmath.exp(1j * t) for m, t in zip(mags, phases)]
    shell = draw(st.sampled_from([max(gap, 1), min(gap + 1, 6)]))
    z_mag = draw(st.one_of(
        st.floats(-4.0, 22.0).map(lambda e: 2.0 ** e),
        st.floats(-20.0, 12.0).map(
            lambda e: n * 2.0 ** (3 * shell + 1) + 2.0 ** e)))
    z = z_mag * cmath.exp(1j * phases[2 * n])
    vmags = [draw(st.floats(0.0, 1.0)) for _ in range(2 * n)]
    v = [m * cmath.exp(1j * t) for m, t in zip(vmags, phases[2 * n + 1:])]
    assume(any(vmags))
    p = ContactPoint(tuple(center[0::2]), tuple(center[1::2]), z)
    vz = -sum(x * vy for x, vy in zip(p.x, v[1::2]))
    v = TangentVector(tuple(v[0::2]), tuple(v[1::2]), vz)
    K = draw(st.sampled_from(LAYOUTS[n]))
    margin = draw(st.sampled_from([0.0, DEFAULT_AVOIDANCE_MARGIN, 0.25]))
    return p, kobayashi._unit_direction(v, v.maxnorm()), K, margin


def _z_route_case(layout, x, y, z, vx, vy):
    """An n = 1 case, margin 0.25, whose bisection ends where the z route
    (the disk coordinate's inf against c_i + margin) stops certifying."""
    p, v = _horizontal([x], [y], z, [vx], [vy])
    return p, v.scaled(1.0 / v.maxnorm()), LAYOUTS[1][layout], 0.25


# |z1| = 1.5e308 and |z2/2| = 7.5e307 at lam = 1e154: the parent's fsum of
# the two z moduli overflowed
_Z_OVERFLOW = (ContactPoint((1e154 + 0j,), (0j,), 0j),
               TangentVector((1 + 0j,), (1.5 + 0j,), -1.5e154 + 0j),
               standard_obstacle(1, 6), 0.0)


class TestVerdictMatchesParent:
    @settings(max_examples=200, deadline=None)
    @example(case=_Z_OVERFLOW, lam_exp=154.0, ulps=0)
    @example(case=_z_route_case(0, 1.52, 0.02, 131.8, 0.18, 0.89),
             lam_exp=0.0, ulps=1)
    @example(case=_z_route_case(2, 0.51, 0.36, 17.2, 0.82, 0.58),
             lam_exp=0.0, ulps=-1)
    @example(case=_z_route_case(3, 128.44, 1.31, 1.52, 0.27, 0.006),
             lam_exp=0.0, ulps=1)
    @given(case=_disk_cases(),
           lam_exp=st.one_of(st.floats(-6.0, 3.0), st.floats(-320.0, 308.0)),
           ulps=st.integers(-3, 3))
    def test_equal_verdicts(self, case, lam_exp, ulps):
        # a log-uniform scaling, and the scaling the bisection returns moved
        # by up to 3 ulps either way, where the verdict flips
        p, u, K, margin = case
        found, _ = kobayashi._largest_certified_scaling(p, u, K, margin, 1e3)
        near = found
        for _ in range(abs(ulps)):
            near = math.nextafter(near, math.copysign(math.inf, ulps))
        for lam in (10.0 ** lam_exp, near):
            want = _outcome(_parent_verdict, p, u, K, margin, lam)
            if want is OverflowError:
                # the z bound is now -inf, as inf_lower_bound gives on the
                # same coefficient lists
                chk = certify_avoidance(
                    [CPolynomial(c) for c in _parent_float_linear_disk(
                        p, u, lam)], K, margin)
                want = _as_parent((chk.certified, chk.routes))
            else:
                want = _as_parent(want)
            assert _verdict(p, u, K, margin, lam) == want

    def test_z_moduli_past_float_range(self):
        p, u, K, margin = _Z_OVERFLOW
        assert _outcome(_parent_verdict, p, u, K, margin, 1e154) \
            is OverflowError
        assert _verdict(p, u, K, margin, 1e154) == (False, 1)


def _reject(K):
    shells = tuple(range(1, len(K.shells) + 1))
    return AvoidanceCheck(certified=False,
                          routes=("uncertified",) * len(shells),
                          failed_shells=shells)


P1 = ContactPoint((1.5 + 0.2j,), (0.3j,), 0.1 + 0j)
V1 = TangentVector((0.5j,), (1 + 0j,), -(1.5 + 0.2j))
P2 = ContactPoint((0.4 + 0j, 0.2j), (0.1 + 0j, 2.6 + 0j), 0.5j)
V2 = TangentVector((1 + 0j, 0j), (0.3j, 1 + 0j), -(0.4 * 0.3j + 0.2j))
# (p, v, K, upper) pinned bit for bit; the search that preceded the
# bisection returned 1.0019550335910028, 1.027940369248658 and
# 1.6681558753166803 on the same cases
GOLDEN = [
    (ORIGIN, X_DIR, standard_obstacle(1, 4), 1.0000010000010002),
    (P1, V1, standard_obstacle(1, 4), 1.027275383989232),
    (P2, V2, standard_obstacle(2, 4), 1.666669444449075),
]


# (n, p, v, upper) on standard_obstacle(n, 6), pinned bit for bit: the
# largest (x, y) modulus of p lies in the gaps (0, 1), (1, 2), ...,
# (16, 32) and then beyond the last shell
GAP_GOLDEN = [(1, *_horizontal(*args), want) for args, want in [
    (([0.5 + 0.1j], [0.2j], 0.3, [1], [0.5j]), 2.040412205650878),
    (([1.5], [0.4 + 0.3j], -0.2j, [0.5j], [1]), 1.000002000004),
    (([0.7j], [3 + 0.5j], 1 + 1j, [1 + 1j], [0.25]), 0.4285496942190271),
    (([5.5 - 1j], [2], 4j, [1], [1j]), 0.6288639983384978),
    (([0.3], [11 + 2j], -10, [0.5], [1 - 0.5j]), 0.35154555168462825),
    (([23j], [5], 100, [1], [0.75]), 0.14285716326530912),
    (([40 + 3j], [10j], 1, [0.25j], [1]), 0.04011234224026316),
]] + [(2, *_horizontal(*args), want) for args, want in [
    (([0.5, 0.2j], [0.1, 0.6 + 0.2j], 0.3j, [1, 0.5], [0.5j, 0.25]),
     2.0000040000080004),
    (([1.25j, 0.5], [0.75, 0.3], -0.5, [0.5, 1j], [1, 0.25]),
     2.0000080000320004),
    (([0.5, 3.5], [1j, 2 - 1j], 2, [0.25, 1], [1j, 0.5]),
     2.0000040000080017),
    (([6 + 1j, 1], [2j, 3], 10j, [1, 0.5j], [0.5, 0.25]),
     0.5215840694682523),
    (([2, 0.5j], [12, 5 - 5j], -30, [0.5, 0.25], [1, 1j]),
     0.2500000625000156),
    (([20, 4j], [8, 1], 7, [1j, 0.5], [0.25, 1]), 0.25000006250001583),
    (([1, 50], [3j, 2], 0.5, [1, 0.25j], [0.5, 1]), 0.0505),
]]


def _scaling(p, v, K, cap=1e3):
    u = v.scaled(1.0 / v.maxnorm())
    lam, witness = kobayashi._largest_certified_scaling(
        p, u, K, DEFAULT_AVOIDANCE_MARGIN, cap)
    return u, lam, witness


class TestLargestCertifiedScaling:
    @pytest.mark.parametrize("p, v, K, _", GOLDEN)
    def test_tight_to_one_ulp(self, p, v, K, _):
        u, lam, witness = _scaling(p, v, K)
        assert 0.0 < lam < 1e3
        assert horizontality_residual(witness).is_zero
        assert witness.at(0.0).flat() == p.flat()
        assert certify_avoidance(witness.components, K).certified
        above = kobayashi._linear_disk(p, u, math.nextafter(lam, math.inf))
        assert not certify_avoidance(above.components, K).certified

    def test_cap_is_returned_when_it_certifies(self):
        K = standard_obstacle(1, 4)
        assert _scaling(ORIGIN, X_DIR, K, cap=0.5)[1] == 0.5

    def test_center_on_a_shell_certifies_nothing(self):
        K = standard_obstacle(1, 4)
        p = ContactPoint((2 + 0j,), (0j,), 0j)
        assert _scaling(p, X_DIR, K)[1:] == (0.0, None)
        assert directed_norm_upper(p, X_DIR, "complement", K) == (math.inf,
                                                                   None)

    @settings(max_examples=80, deadline=None)
    @given(mags=st.tuples(st.floats(0.0, 10.0), st.floats(0.0, 10.0),
                          st.floats(0.0, 2.0), st.floats(0.0, 2.0)),
           phases=st.tuples(*[st.floats(-math.pi, math.pi)] * 4),
           frac=st.floats(0.0, 2.0), ulps=st.integers(0, 3))
    def test_no_certified_scaling_above(self, mags, phases, frac, ulps):
        # a random linear disk with scaling at most the cap certifies only
        # if its scaling is <= lam; the trial lies in [0, 2 lam], or 1-3
        # ulps above lam
        x, y, vx, vy = (m * complex(math.cos(t), math.sin(t))
                        for m, t in zip(mags, phases))
        p = ContactPoint((x,), (y,), 0.5 * x)
        v = TangentVector((vx + 0.1,), (vy,), -x * vy)
        K = standard_obstacle(1, 4)
        u, lam, _ = _scaling(p, v, K)
        trial = lam if ulps else frac * lam
        for _ in range(ulps):
            trial = math.nextafter(trial, math.inf)
        f = kobayashi._linear_disk(p, u, trial)
        if trial <= 1e3 and certify_avoidance(f.components, K).certified:
            assert trial <= lam


def _verdict_path(monkeypatch, run, verdict):
    """(the scalings at which the search asks ``verdict``, in order, and
    the result of ``run``) with ``verdict`` in place of the step verdict."""
    lams = []

    def recording(search, lam):
        lams.append(lam)
        return verdict(search, lam)

    with monkeypatch.context() as m:
        m.setattr(kobayashi, "_certification_shortfall", recording)
        result = run()
    return lams, result


def _path_cases():
    """(run, p, u, K, margin): the GOLDEN upper bounds and the
    contrapositive on three obstacles."""
    margin = DEFAULT_AVOIDANCE_MARGIN
    for i, (p, v, K, _) in enumerate(GOLDEN):
        yield pytest.param(
            lambda p=p, v=v, K=K: directed_norm_upper(p, v, "complement", K),
            p, v.scaled(1.0 / v.maxnorm()), K, margin, id=f"golden{i}")
    for n, i_max in [(1, 4), (1, 6), (2, 6)]:
        K = standard_obstacle(n, i_max)
        zero = (0j,) * n
        yield pytest.param(
            lambda K=K, n=n: max_certified_x_derivative(K, n),
            ContactPoint(zero, zero, 0j),
            TangentVector((1 + 0j,) + zero[1:], zero, 0j), K, margin,
            id=f"x_derivative-n{n}-i{i_max}")


def _full_bisection(search, cap):
    """The flip as the search found it before it started from a guess:
    cap if it certifies, else [0, cap] bisected on the verdict until the
    ends are adjacent floats."""
    def certifies(lam):
        return kobayashi._certification_shortfall(search, lam)[0]

    if certifies(cap):
        return cap
    lo, hi = 0.0, cap
    mid = lo + (hi - lo) / 2
    while lo < mid < hi:
        if certifies(mid):
            lo = mid
        else:
            hi = mid
        mid = lo + (hi - lo) / 2
    return lo


def _inf_limits(n):
    """standard_obstacle(n, 6) and one more shell whose b and c are +inf on
    the certificate side (log radii past float range)."""
    K = standard_obstacle(n, 6)
    far = ShellBand(math.log(48.0), 800.0, 800.0)
    return ShellUnion(K.shells + (far,), K.shell_dims, K.disk_dim)


INF_LIMITS = {n: _inf_limits(n) for n in (1, 2)}


@st.composite
def _band_cases(draw):
    """(p, u, K, margin, cap): a ``_disk_cases`` case, K maybe with +inf
    limits, a centre coordinate maybe moved exactly onto a route limit or
    to within a relative 2^-12 of one, for n = 2 maybe sum_j p_xj u_yj
    cancelled to rounding with large terms, and a cap that may lie below
    the largest certified scaling.  u_z is left as drawn: the search does
    not read it."""
    p, u, K, margin = draw(_disk_cases())
    n = p.n
    if draw(st.booleans()):
        K = INF_LIMITS[n]
    x, y, z = list(p.x), list(p.y), p.z
    shape = draw(st.sampled_from(["drawn", "on_limit", "near_limit",
                                  "cancel"]))
    if shape in ("on_limit", "near_limit"):
        a, b, c = draw(st.sampled_from(K.linear_shells()))
        limit = draw(st.sampled_from([lim for lim in (a - margin, b + margin,
                                                      c + margin)
                                      if lim < math.inf]))
        coord = draw(st.integers(0, 2 * n))
        value = complex(limit)
        if shape == "near_limit":
            # a relative distance of 2^-52 .. 2^-12, where the error of the
            # float bound over the room left moves the flip most
            value *= (1.0 + draw(st.sampled_from([-1.0, 1.0]))
                      * 2.0 ** -draw(st.floats(12.0, 52.0))) * cmath.exp(
                1j * draw(st.floats(-math.pi, math.pi)))
        if coord == 2 * n:
            z = value
        elif coord % 2:
            y[coord // 2] = value
        else:
            x[coord // 2] = value
    elif shape == "cancel" and n == 2 and abs(u.y[1]) >= 2.0 ** -10:
        x[0] = draw(st.floats(1.0, 40.0)) * cmath.exp(
            1j * draw(st.floats(-math.pi, math.pi)))
        x[1] = -x[0] * u.y[0] / u.y[1]
    p = ContactPoint(tuple(x), tuple(y), z)
    cap = draw(st.sampled_from([1e3, 1.0, 1e-3]))
    return p, u, K, margin, cap


def _band_example(x, y, z, vx, vy, K, margin=DEFAULT_AVOIDANCE_MARGIN,
                  cap=1e3):
    p, v = _horizontal(x, y, z, vx, vy)
    return p, v.scaled(1.0 / v.maxnorm()), K, margin, cap


class TestVerdictFlip:
    @settings(max_examples=100, deadline=None)
    # x_1 a relative 2^-15 below a_1 = 1, margin 0: the float sup reaches 1
    # a relative 2^-39 of lambda before lambda + x_1 does, so the flip lies
    # many ulps from the exact root
    @example(case=_band_example([1 - 2.0 ** -15], [0], 1, [1], [0],
                                standard_obstacle(1, 6), margin=0.0))
    # a centre coordinate on a_1 - margin; on b_2 + margin; |p_z| on
    # c_1 + margin with z the only route that could certify
    @example(case=_band_example([1 - 1e-6], [0.5j], 0.1, [1], [0.5],
                                standard_obstacle(1, 6)))
    @example(case=_band_example([2 + 1e-6], [0.3], 0.2j, [1j], [0.25],
                                standard_obstacle(1, 6)))
    @example(case=_band_example([0.4], [0.1j], 16 + 1e-6, [0.5], [1],
                                standard_obstacle(1, 6)))
    # sum_j p_xj u_yj = 0 with terms of modulus 12; direction components 0
    @example(case=_band_example([12, -6], [0.3, 0.1j], 0.5, [1, 0], [1, 2],
                                standard_obstacle(2, 6)))
    @example(case=_band_example([0.5, 0], [0, 0.25j], 0.1, [0, 0], [0, 1],
                                standard_obstacle(2, 6)))
    # no certified scaling (the centre on a shell); the cap below lambda*
    @example(case=_band_example([4], [1j], 0, [1], [1],
                                standard_obstacle(1, 6)))
    @example(case=_band_example([0.5], [0.2], 0.1, [1], [1j],
                                standard_obstacle(1, 6), cap=0.25))
    # p_x = 0, so z has only its zeta^2 term, and the z route decides
    # shell 1 (lambda* = sqrt 2)
    @example(case=_band_example([0], [0.5], 17, [1], [1],
                                standard_obstacle(1, 6)))
    # y_1 a relative 1e-3 beyond b_1 = 1, margin 0: the 'outside' route
    # decides, and the rounding of y_1 - lambda u_y1 moves the flip
    @example(case=_band_example([0], [1.001], 1, [1], [0.09375],
                                standard_obstacle(1, 6), margin=0.0))
    # z a shell coordinate, x_1 the disk coordinate; |p_z| within a
    # relative 6e-11 of c_5, so the z bound's rounding moves the flip
    @example(case=_band_example([11, 11], [0, 0], 131072.0000076294,
                                [1, 0.6875], [0, 0.04296875], LAYOUTS[2][3],
                                margin=0.25))
    # +inf limits beyond the last shell
    @example(case=_band_example([60], [3j], 2, [1], [0.5], INF_LIMITS[1]))
    @given(case=_band_cases())
    def test_verdict_changes_at_the_flip(self, case):
        p, u, K, margin, cap = case
        search = kobayashi._disk_search(p, u, K, margin)

        def certifies(lam):
            return kobayashi._certification_shortfall(search, lam)[0]

        asked, flip = _verdict_path(
            pytest.MonkeyPatch, lambda: kobayashi._verdict_flip(search, cap),
            kobayashi._certification_shortfall)
        if flip == cap:
            assert certifies(cap)
        else:
            assert 0.0 <= flip < cap
            assert flip == 0.0 or certifies(flip)
            assert not certifies(math.nextafter(flip, math.inf))
        if kobayashi._flip_guess(search) == -math.inf:
            # no verdict asked, and the full bisection finds no scaling
            assert asked == [] and flip == 0.0
            assert _full_bisection(search, cap) == 0.0

    def test_out_of_range_moduli(self):
        # |p_x| = 1e-300 and |p_z| = 1e80: the full bisection's scaling
        K = standard_obstacle(1, 6)
        for p in [ContactPoint((1e-300 + 0j,), (0.5j,), 0j),
                  ContactPoint((0.5 + 0j,), (0j,), 1e80 + 0j)]:
            search = kobayashi._disk_search(p, X_DIR, K, 0.0)
            flip = kobayashi._verdict_flip(search, 1e3)
            assert flip > 0.0
            assert flip == _full_bisection(search, 1e3)

    @pytest.mark.parametrize("p, K", [
        (ContactPoint((2 + 0j,), (0j,), 0j), standard_obstacle(1, 4)),
        (ContactPoint((4 + 0j,), (1j,), 0j), standard_obstacle(1, 6))])
    def test_never_passing_asks_no_verdict(self, monkeypatch, p, K):
        # the centre on a shell: every route of that shell has room <= 0
        search = kobayashi._disk_search(p, X_DIR, K, DEFAULT_AVOIDANCE_MARGIN)
        assert not kobayashi._certification_shortfall(search, 5e-324)[0]
        assert kobayashi._flip_guess(search) == -math.inf
        monkeypatch.setattr(kobayashi, "_certification_shortfall", None)
        assert kobayashi._verdict_flip(search, 1e3) == 0.0
        assert kobayashi._largest_certified_scaling(
            p, X_DIR, K, DEFAULT_AVOIDANCE_MARGIN, 1e3) == (0.0, None)

    @pytest.mark.parametrize("guess, start", [
        (0.0, 5e-324), (math.nan, math.nextafter(1e3, 0.0)),
        (1e3, math.nextafter(1e3, 0.0)), (math.inf, math.nextafter(1e3, 0.0))])
    def test_guess_outside_the_interval(self, monkeypatch, guess, start):
        # a guess of 0, NaN or at least cap starts the gallop at the nearest
        # float inside (0, cap), and the flip is still the full bisection's
        search = kobayashi._disk_search(P1, V1, standard_obstacle(1, 4),
                                        DEFAULT_AVOIDANCE_MARGIN)
        want = _full_bisection(search, 1e3)
        monkeypatch.setattr(kobayashi, "_flip_guess", lambda search: guess)
        asked, flip = _verdict_path(
            monkeypatch, lambda: kobayashi._verdict_flip(search, 1e3),
            kobayashi._certification_shortfall)
        assert asked[:2] == [1e3, start]
        assert all(0.0 < lam < 1e3 for lam in asked[1:])
        assert flip == want

    @pytest.mark.parametrize("ulps", [-20, -1, 1, 20])
    def test_guess_near_the_flip(self, monkeypatch, ulps):
        # from a guess k ulps off the flip, up or down, the gallop and the
        # bisection ask about 2 log2 k verdicts after cap
        search = kobayashi._disk_search(P1, V1, standard_obstacle(1, 4),
                                        DEFAULT_AVOIDANCE_MARGIN)
        flip = kobayashi._verdict_flip(search, 1e3)
        guess = flip
        for _ in range(abs(ulps)):
            guess = math.nextafter(guess, math.copysign(math.inf, ulps))
        monkeypatch.setattr(kobayashi, "_flip_guess", lambda search: guess)
        asked, got = _verdict_path(
            monkeypatch, lambda: kobayashi._verdict_flip(search, 1e3),
            kobayashi._certification_shortfall)
        assert got == flip
        assert len(asked) <= 12

    def test_least_room_is_not_never(self):
        # x_1 one float below a_1 - margin: the inside route passes at
        # lam = 0 and up to about half an ulp, so a scaling > 0 flips
        K = standard_obstacle(1, 6)
        limit = K.linear_shells()[0][0] - DEFAULT_AVOIDANCE_MARGIN
        p = ContactPoint((math.nextafter(limit, 0.0) + 0j,), (0j,), 0j)
        search = kobayashi._disk_search(p, X_DIR, K, DEFAULT_AVOIDANCE_MARGIN)
        flip = kobayashi._verdict_flip(search, 1e3)
        assert 0.0 < flip < 1e-15
        assert flip == _full_bisection(search, 1e3)

    def test_infinite_room_always_passes(self):
        # a last shell with a = inf, z a shell coordinate: the 'inside'
        # room of z is +inf, and its root +inf, not inf/inf, so that shell
        # leaves the guess as it is without it
        assert kobayashi._route_root(0.5, 0.25, 0.125, math.inf, True) \
            == math.inf
        p, v = _horizontal([0.5], [0.2], 0.1, [1], [0.5])
        radii = standard_obstacle(1, 6).linear_shells()
        guesses = [kobayashi._flip_guess(kobayashi._disk_search(
            p, v, ShellUnion.from_linear(shells, (2, 1), 0),
            DEFAULT_AVOIDANCE_MARGIN))
            for shells in (radii, radii + ((math.inf,) * 3,))]
        assert 0.0 < guesses[0] == guesses[1] < math.inf

    @pytest.mark.parametrize("run, p, u, K, margin", list(_path_cases()))
    def test_same_scalings_as_parent(self, monkeypatch, run, p, u, K,
                                     margin):
        # the parent verdict, which rebuilt every coefficient list, asked
        # at the same scalings answers the same, so the search takes the
        # same path to the same scaling and witness
        lams, (value, witness) = _verdict_path(
            monkeypatch, run, kobayashi._certification_shortfall)
        parent_lams, (parent_value, parent_witness) = _verdict_path(
            monkeypatch, run,
            lambda search, lam: _as_parent(
                _parent_verdict(p, u, K, margin, lam)))
        assert lams == parent_lams
        assert 2 <= len(lams) <= 8
        assert value == parent_value
        assert witness.components == parent_witness.components


class TestExactRecertification:
    K = standard_obstacle(1, 4)

    def test_steps_down_one_ulp(self, monkeypatch):
        upper0, winner = directed_norm_upper(ORIGIN, X_DIR, "complement",
                                             self.K, budget=SMALL)
        lam0 = winner.components[0].eval_deriv(0.0)[1].real
        rejected = []

        def reject_first(components, K, margin=DEFAULT_AVOIDANCE_MARGIN):
            if not rejected:
                rejected.append(tuple(components))
                return _reject(K)
            return certify_avoidance(components, K, margin)

        monkeypatch.setattr(kobayashi, "certify_avoidance", reject_first)
        upper, witness = directed_norm_upper(ORIGIN, X_DIR, "complement",
                                             self.K, budget=SMALL)
        assert rejected == [winner.components]
        lam = witness.components[0].eval_deriv(0.0)[1].real
        assert lam == math.nextafter(lam0, 0.0)
        assert upper == 1.0 / lam >= upper0
        assert certify_avoidance(witness.components, self.K).certified

    def test_nothing_certifies(self, monkeypatch):
        monkeypatch.setattr(kobayashi, "certify_avoidance",
                            lambda components, K, margin: _reject(K))
        assert directed_norm_upper(ORIGIN, X_DIR, "complement", self.K,
                                   budget=SMALL) == (math.inf, None)
        assert max_certified_x_derivative(self.K, n=1) == (0.0, None)


class TestGoldenValues:
    """Results pinned bit for bit: the largest certified linear disk, and
    the contrapositive a_1 - margin one ulp down."""

    def test_directed_norm_upper(self):
        for p, v, K, want in GOLDEN:
            upper, witness = directed_norm_upper(p, v, "complement", K)
            assert upper == want
            assert certify_avoidance(witness.components, K).certified

    def test_max_certified_x_derivative(self):
        got, _ = max_certified_x_derivative(standard_obstacle(1, 4), n=1)
        assert got == 0.9999989999999999  # nextafter(1 - 1e-6, 0)

    @pytest.mark.parametrize("n", [1, 2])
    def test_max_certified_x_derivative_six_shells(self, n):
        got, _ = max_certified_x_derivative(standard_obstacle(n, 6), n)
        assert got == 0.9999989999999999

    @pytest.mark.parametrize("n, p, v, want", GAP_GOLDEN)
    def test_upper_bound_in_every_gap(self, n, p, v, want):
        K = standard_obstacle(n, 6)
        upper, witness = directed_norm_upper(p, v, "complement", K)
        assert upper == want
        assert certify_avoidance(witness.components, K).certified
