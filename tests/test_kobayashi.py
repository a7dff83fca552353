import math

import numpy as np
import pytest

from contactfb import kobayashi
from contactfb.contact import (
    ContactPoint,
    TangentVector,
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
SMALL = SearchBudget(restarts=4, iterations=25, degree=2)


class TestSearchBudget:
    def test_validation(self):
        with pytest.raises(ValueError):
            SearchBudget(restarts=0)
        with pytest.raises(ValueError):
            SearchBudget(degree=0)
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
                                             self.K, budget=SMALL, seed=1)
        assert math.isfinite(upper)
        assert witness is not None
        assert is_horizontal(witness)
        assert certify_avoidance(witness.components, self.K).certified
        # witness actually realizes the bound: f'(0) = lambda * v
        lam = abs(witness.components[0].eval_deriv(0.0)[1])
        assert upper == pytest.approx(1.0 / lam, rel=1e-12)

    def test_exact_homogeneity(self):
        u1, _ = directed_norm_upper(ORIGIN, X_DIR, "complement", self.K,
                                    budget=SMALL, seed=2)
        u2, _ = directed_norm_upper(ORIGIN, X_DIR.scaled(2.0), "complement",
                                    self.K, budget=SMALL, seed=2)
        assert u2 == 2.0 * u1

    def test_deterministic(self):
        a, _ = directed_norm_upper(ORIGIN, X_DIR, "complement", self.K,
                                   budget=SMALL, seed=5)
        b, _ = directed_norm_upper(ORIGIN, X_DIR, "complement", self.K,
                                   budget=SMALL, seed=5)
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


class TestBracket:
    K = standard_obstacle(1, 4)

    def test_origin_bracket(self):
        b = directed_norm_bracket(ORIGIN, X_DIR, self.K, budget=SMALL, seed=3)
        assert b.lower == 0.25
        assert b.lower <= b.upper
        assert b.upper <= 1.2
        assert b.lower_certificate is not None
        assert b.upper_witness is not None


class TestDistanceUpper:
    def test_same_point_zero(self):
        got, nodes = cck_distance_upper(ORIGIN, ORIGIN)
        assert got == 0.0 and nodes == 0

    def test_full_space_small(self):
        q = ContactPoint((0j,), (0j,), 1 + 0j)
        got, nodes = cck_distance_upper(ORIGIN, q, "full_space", nodes=32)
        assert 0 < got <= 1e-2
        assert nodes > 0

    def test_triangle_inequality_up_to_quadrature(self):
        q = ContactPoint((1 + 0j,), (0j,), 0j)
        r = ContactPoint((1 + 0j,), (1 + 0j,), 0j)
        d_pq, _ = cck_distance_upper(ORIGIN, q, nodes=16)
        d_qr, _ = cck_distance_upper(q, r, nodes=16)
        d_pr, _ = cck_distance_upper(ORIGIN, r, nodes=16)
        assert d_pr <= 2.0 * (d_pq + d_qr)

    def test_scales_with_lambda_budget(self):
        q = ContactPoint((2 + 0j,), (0j,), 0j)
        small, _ = cck_distance_upper(ORIGIN, q, nodes=8,
                                      budget=SearchBudget(lambda_budget=1e2))
        large, _ = cck_distance_upper(ORIGIN, q, nodes=8,
                                      budget=SearchBudget(lambda_budget=1e4))
        assert large == pytest.approx(small / 100.0, rel=1e-12)


class TestContrapositiveSearch:
    def test_never_reaches_certificate_bound(self):
        K = standard_obstacle(1, 4)
        best = max_certified_x_derivative(K, n=1, N0=1, budget=SMALL, seed=0)
        assert 0.0 < best < 4.0  # the certified cap 2^(N0+1)


class TestFloatScorer:
    """The complex128 scorer of the searches against the exact certifier."""

    def test_boundary_disk_is_not_certified(self):
        # sup_max == a_1 - margin: the strict 'inside' route fails on shell 1
        K = standard_obstacle(1, 6)
        margin = DEFAULT_AVOIDANCE_MARGIN
        x0 = K.linear_shells()[0][0] - margin
        f = legendrian_from_xy([CPolynomial([x0])], [CPolynomial([0])], 0)
        check = certify_avoidance(f.components, K, margin)
        assert not check.certified and check.failed_shells == (1,)
        comps = kobayashi._float_legendrian([[complex(x0)]], [[0j]], 0j)
        got = kobayashi._certification_shortfall(comps, K, K.linear_shells(),
                                                 margin)
        assert got == (False, 0.0)

    @pytest.mark.parametrize("n", [1, 2])
    def test_agrees_with_exact_certifier(self, n):
        K = standard_obstacle(n, 6)
        radii = K.linear_shells()
        margin = DEFAULT_AVOIDANCE_MARGIN
        rng = np.random.default_rng(40 + n)
        verdicts, routes = set(), set()
        for _ in range(150):
            r, _, c_i = radii[int(rng.integers(len(radii)))]
            marked = int(rng.integers(2 * n))
            lists = []
            for d in range(2 * n):
                mag = (r * (1 + rng.uniform(-0.05, 0.05)) if d == marked
                       else rng.uniform(0.0, r))
                phase = rng.uniform(-math.pi, math.pi)
                c = [complex(mag * np.exp(1j * phase))]
                for k in range(1, 5):
                    tail = rng.normal() + 1j * rng.normal()
                    c.append(complex(0.02 * r * tail / 3.0 ** k))
                lists.append(c)
            xs, ys = lists[0::2], lists[1::2]
            # half the centers sit near the height c_i, where z_escape decides
            z_mag = (c_i * (1 + rng.uniform(-0.05, 0.05)) if rng.random() < 0.5
                     else rng.uniform(0.0, 1.0))
            z0 = complex(z_mag * np.exp(1j * rng.uniform(-math.pi, math.pi)))
            comps = kobayashi._float_legendrian(xs, ys, z0)
            f = legendrian_from_xy([CPolynomial(c) for c in xs],
                                   [CPolynomial(c) for c in ys], z0)
            check = certify_avoidance(f.components, K, margin)
            got = kobayashi._certification_shortfall(comps, K, radii, margin)
            # the scorer on the exact disk's rounded coefficients
            want = kobayashi._certification_shortfall(
                [list(c.coeffs) for c in f.components], K, radii, margin)
            assert want[0] == got[0] == check.certified
            scale = max(abs(c) for comp in comps for c in comp)
            assert abs(got[1] - want[1]) <= 1e-12 * scale
            exact_z = f.components[-1].coeffs
            assert len(exact_z) <= len(comps[-1])
            for k, c in enumerate(comps[-1]):
                want_c = exact_z[k] if k < len(exact_z) else 0j
                assert abs(c - want_c) <= 1e-12 * scale
            verdicts.add(got[0])
            routes.update(check.routes)
        assert verdicts == {True, False}
        assert {"inside", "outside", "z_escape", "uncertified"} <= routes


class TestCandidateStore:
    def test_sorted_bounded_first_found_wins_ties(self):
        store = kobayashi._CandidateStore()
        for i, key in enumerate([1.0, 3.0, 2.0, 3.0] + [0.5] * 3
                                + [float(k) for k in range(4, 12)]):
            store.offer(key, np.array([float(i)]))
        keys = [k for k, _ in store.items]
        assert len(keys) == kobayashi.CANDIDATE_STORE_SIZE
        assert keys == sorted(set(keys), reverse=True)
        store = kobayashi._CandidateStore()
        store.offer(3.0, np.array([0.0]))
        store.offer(3.0, np.array([1.0]))
        assert [x[0] for _, x in store.items] == [0.0]


def _reject(K):
    shells = tuple(range(1, len(K.shells) + 1))
    return AvoidanceCheck(certified=False,
                          routes=("uncertified",) * len(shells),
                          failed_shells=shells)


class TestExactRecertification:
    K = standard_obstacle(1, 4)

    def test_falls_back_to_next_candidate(self, monkeypatch):
        upper0, winner = directed_norm_upper(ORIGIN, X_DIR, "complement",
                                             self.K, budget=SMALL, seed=1)
        rejected = []

        def reject_first(components, K, margin=DEFAULT_AVOIDANCE_MARGIN):
            if not rejected:
                rejected.append(tuple(components))
                return _reject(K)
            return certify_avoidance(components, K, margin)

        monkeypatch.setattr(kobayashi, "certify_avoidance", reject_first)
        upper, witness = directed_norm_upper(ORIGIN, X_DIR, "complement",
                                             self.K, budget=SMALL, seed=1)
        assert rejected == [winner.components]
        assert math.isfinite(upper) and upper > upper0
        assert is_horizontal(witness)
        assert certify_avoidance(witness.components, self.K).certified
        lam = abs(witness.components[0].eval_deriv(0.0)[1])
        assert upper == pytest.approx(1.0 / lam, rel=1e-12)

    def test_nothing_certifies(self, monkeypatch):
        monkeypatch.setattr(kobayashi, "certify_avoidance",
                            lambda components, K, margin: _reject(K))
        assert directed_norm_upper(ORIGIN, X_DIR, "complement", self.K,
                                   budget=SMALL, seed=1) == (math.inf, None)
        assert max_certified_x_derivative(self.K, n=1, N0=1, budget=SMALL,
                                          seed=0) == 0.0


class TestGoldenValues:
    """Search results pinned bit for bit.  The values were recorded when
    every candidate was built and scored as an exact polynomial disk; the
    complex128 scorer must follow the same search trajectories."""

    DEG4 = SearchBudget(restarts=2, iterations=20, degree=4)

    def test_directed_norm_upper(self):
        K1 = standard_obstacle(1, 4)
        K2 = standard_obstacle(2, 4)
        p1 = ContactPoint((1.5 + 0.2j,), (0.3j,), 0.1 + 0j)
        v1 = TangentVector((0.5j,), (1 + 0j,), -(1.5 + 0.2j))
        p2 = ContactPoint((0.4 + 0j, 0.2j), (0.1 + 0j, 2.6 + 0j), 0.5j)
        v2 = TangentVector((1 + 0j, 0j), (0.3j, 1 + 0j), -(0.4 * 0.3j + 0.2j))
        cases = [
            (ORIGIN, X_DIR, K1, SMALL, 1, 1.0019550335910028),
            (p1, v1, K1, self.DEG4, 4, 1.027940369248658),
            (p2, v2, K2, self.DEG4, 2, 1.6681558753166803),
        ]
        for p, v, K, budget, seed, want in cases:
            upper, witness = directed_norm_upper(p, v, "complement", K,
                                                 budget, seed=seed)
            assert upper == want
            assert certify_avoidance(witness.components, K).certified

    def test_max_certified_x_derivative(self):
        got = max_certified_x_derivative(standard_obstacle(1, 4), n=1, N0=1,
                                         budget=SMALL, seed=0)
        assert got == 0.8697755697639087
