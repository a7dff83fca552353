import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from contactfb import kobayashi
from contactfb.contact import (
    ContactPoint,
    TangentVector,
    chow_path,
    horizontality_residual,
    is_horizontal,
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
    certify_avoidance,
    standard_obstacle,
)

ORIGIN = ContactPoint((0j,), (0j,), 0j)
X_DIR = TangentVector((1 + 0j,), (0j,), 0j)
SMALL = SearchBudget(lambda_budget=1e3)


class TestSearchBudget:
    def test_validation(self):
        with pytest.raises(ValueError):
            SearchBudget(lambda_budget=0.0)


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


class TestUpperBound:
    K = standard_obstacle(1, 4)

    def test_full_space_value(self):
        upper, witness = directed_norm_upper(ORIGIN, X_DIR, "full_space",
                                             budget=SMALL)
        assert upper == 1.0 / SMALL.lambda_budget
        assert witness is not None and is_horizontal(witness)

    def test_zero_direction(self):
        upper, witness = directed_norm_upper(
            ORIGIN, TangentVector((0j,), (0j,), 0j), "full_space")
        assert upper == 0.0 and witness is None

    def test_complement_witness_certified(self):
        upper, witness = directed_norm_upper(ORIGIN, X_DIR, "complement",
                                             self.K, budget=SMALL)
        assert math.isfinite(upper)
        assert witness is not None
        assert is_horizontal(witness)
        assert certify_avoidance(witness.components, self.K).certified
        # witness actually realizes the bound: f'(0) = lambda * v
        lam = abs(witness.components[0].eval_deriv(0.0)[1])
        assert upper == pytest.approx(1.0 / lam, rel=1e-12)

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


class TestFloatScorer:
    """The complex128 linear disk of the bisection against the exact one."""

    def test_boundary_disk_is_not_certified(self):
        # sup_max == a_1 - margin: the strict 'inside' route fails on shell 1
        K = standard_obstacle(1, 6)
        margin = DEFAULT_AVOIDANCE_MARGIN
        p = ContactPoint((K.linear_shells()[0][0] - margin,), (0j,), 0j)
        f = kobayashi._linear_disk(p, X_DIR, 0.0)
        check = certify_avoidance(f.components, K, margin)
        assert not check.certified and check.failed_shells == (1,)
        comps = kobayashi._float_linear_disk(p, X_DIR, 0.0)
        got = kobayashi._certification_shortfall(comps, K, K.linear_shells(),
                                                 margin)
        assert got[0] is False
        assert tuple(got[1]) == check.routes

    @pytest.mark.parametrize("n", [1, 2])
    def test_agrees_with_exact_certifier(self, n):
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
            comps = kobayashi._float_linear_disk(p, u, lam)
            f = kobayashi._linear_disk(p, u, lam)
            scale = max(abs(c) for comp in comps for c in comp)
            for got_c, exact in zip(comps, f.components):
                want = list(exact.coeffs) + [0j] * (len(got_c)
                                                    - len(exact.coeffs))
                assert len(got_c) == len(want)
                for a, b in zip(got_c, want):
                    assert abs(a - b) <= 1e-12 * scale
            xs, ys = kobayashi._linear_xy(p, u, lam)
            assert comps == _parent_float_legendrian(xs, ys, p.z)
            check = certify_avoidance(f.components, K, margin)
            got = kobayashi._certification_shortfall(comps, K, radii, margin)
            assert got[0] == check.certified
            verdicts.add(got[0])
            routes.update(check.routes)
        assert verdicts == {True, False}
        assert {"inside", "outside", "z_escape", "uncertified"} <= routes


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
