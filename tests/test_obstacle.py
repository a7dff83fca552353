import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from contactfb.contact import legendrian_from_xy
from contactfb.numeric import CPolynomial, NEG_INF
from contactfb.obstacle import (
    AvoidanceCheck,
    BoundCertificate,
    ShellBand,
    ShellUnion,
    certify_avoidance,
    membership_margin,
    random_avoiding_disks,
    standard_obstacle,
    verify_disk_estimate,
)


class TestShellUnion:
    def test_from_linear(self):
        K = ShellUnion.from_linear([(1, 2, 5), (3, 4, 10)], (0, 1), 2)
        assert K.dim == 3
        for got, want in zip(K.linear_shells(), ((1, 2, 5), (3, 4, 10))):
            assert got == pytest.approx(want, rel=1e-14)

    def test_interleaving_enforced(self):
        with pytest.raises(ValueError, match="interleave"):
            ShellUnion.from_linear([(1, 3, 5), (2, 4, 10)], (0,), 1)

    def test_band_order_enforced(self):
        with pytest.raises(ValueError, match="a_1 <= b_1"):
            ShellUnion.from_linear([(2, 1, 5)], (0,), 1)

    def test_disk_dim_disjoint(self):
        with pytest.raises(ValueError):
            ShellUnion.from_linear([(1, 2, 5)], (0, 1), 1)

    def test_degenerate_bands_allowed(self):
        K = ShellUnion.from_linear([(1, 1, 5)], (0,), 1)
        assert K.shells[0].a == K.shells[0].b == 1.0

    def test_huge_log_radii(self):
        K = ShellUnion((ShellBand(1e6, 2e6, 1e5),), (0,), 1)
        assert K.shells[0].a == math.inf  # beyond native float range


class TestMembership:
    K = ShellUnion.from_linear([(1, 2, 5), (4, 8, 20)], (0, 1), 2)

    def _linear_member(self, p):
        mx = max(abs(p[0]), abs(p[1]))
        for a, b, c in self.K.linear_shells():
            if a <= mx <= b and abs(p[2]) <= c:
                return True
        return False

    @given(st.lists(st.floats(0, 10), min_size=3, max_size=3))
    @settings(max_examples=300)
    def test_matches_linear_oracle(self, mags):
        p = [complex(m, 0) for m in mags]
        # skip knife-edge cases where float log round-trips flip the verdict
        for m in mags:
            for bound in (1, 2, 4, 8, 5, 20):
                if m != 0 and abs(m - bound) < 1e-9:
                    return
        got = membership_margin(self.K, self._log_rows([p]))[0] >= 0
        assert got == self._linear_member(p)

    def test_scaled_coordinates(self):
        # log radii and coordinates far beyond native float range
        K = ShellUnion((ShellBand(1e6, 2e6, 1e5),), (0, 1), 2)
        logs = np.array([[1.5e6, NEG_INF, 9e4]])
        assert membership_margin(K, logs)[0] == pytest.approx(1e4)

    @staticmethod
    def _log_rows(points):
        with np.errstate(divide="ignore"):
            return np.log(np.abs(np.array(points, dtype=np.complex128)))

    def _point_margin(self, p):
        """Reference: the per-point slack over the linear radii."""
        mx = max(abs(p[0]), abs(p[1]))
        log_mx = math.log(mx) if mx > 0 else NEG_INF
        log_z = math.log(abs(p[2])) if p[2] != 0 else NEG_INF
        return max(min(log_mx - math.log(a), math.log(b) - log_mx,
                       math.log(c) - log_z)
                   for a, b, c in self.K.linear_shells())

    def test_margin_sign(self):
        inside = [complex(1.5), 0j, complex(2.0)]
        outside = [complex(3.0), 0j, 0j]
        got = membership_margin(self.K, self._log_rows([inside]))
        assert got.shape == (1,) and got[0] > 0
        assert membership_margin(self.K, self._log_rows([outside]))[0] < 0

    def test_margin_is_log_slack(self):
        p = [complex(1.5), 0j, 0j]
        want = min(math.log(1.5) - math.log(1.0),
                   math.log(2.0) - math.log(1.5))
        got = membership_margin(self.K, self._log_rows([p]))
        assert got[0] == pytest.approx(want)

    def test_margin_rows_match_per_point_slack(self):
        rng = np.random.default_rng(8)
        pts = (np.exp(rng.uniform(-1.0, 3.5, (40, 3)))
               * np.exp(1j * rng.uniform(-math.pi, math.pi, (40, 3))))
        pts[::5, 1] = 0.0   # zero coordinates: log -inf
        pts[1::7, 2] = 0.0
        pts[3] = 0.0
        got = membership_margin(self.K, self._log_rows(pts))
        assert got.shape == (40,)
        for g, p in zip(got, pts):
            assert g == pytest.approx(self._point_margin(p), rel=1e-12)
        assert (got > 0).any() and (got < 0).any()


class TestStandardObstacle:
    def test_radii_and_heights(self):
        K = standard_obstacle(1, 3)
        want = ((1, 1, 16), (2, 2, 128), (4, 4, 1024))  # C_N = 2^(3N+1)
        for got, w in zip(K.linear_shells(), want):
            assert got == pytest.approx(w, rel=1e-14)
        assert K.shell_dims == (0, 1) and K.disk_dim == 2

    def test_height_rule(self):
        # C_N = n * 2^(3N+1) with n = 2
        heights = [c for _, _, c in standard_obstacle(2, 3).linear_shells()]
        assert heights == pytest.approx([2 * 2 ** 4, 2 * 2 ** 7, 2 * 2 ** 10],
                                        rel=1e-14)

    def test_n2_dims(self):
        K = standard_obstacle(2, 2)
        assert K.shell_dims == (0, 1, 2, 3) and K.disk_dim == 4


class TestBoundCertificate:
    def test_values(self):
        c = BoundCertificate(N0=1, n=1)
        assert c.bound_xy == 4.0 and c.bound_z == 8.0
        c = BoundCertificate(N0=3, n=2)
        assert c.bound_xy == 16.0 and c.bound_z == 128.0

    def test_n0_validation(self):
        with pytest.raises(ValueError):
            BoundCertificate(N0=0, n=1)


class TestCertifyAvoidance:
    K = standard_obstacle(1, 3)

    def test_inside_route(self):
        comps = [CPolynomial([0, 0.5]), CPolynomial([0]), CPolynomial([0])]
        chk = certify_avoidance(comps, self.K)
        assert chk.certified
        assert chk.routes == ("inside", "inside", "inside")

    def test_outside_route(self):
        # coordinate pinned near 10: clears b_1=1, b_2=2, b_3=4 outward
        comps = [CPolynomial([10, 0.1]), CPolynomial([0]), CPolynomial([0])]
        chk = certify_avoidance(comps, self.K)
        assert chk.certified
        assert all(r == "outside" for r in chk.routes)

    def test_z_escape_route(self):
        comps = [CPolynomial([1.0, 0.1]), CPolynomial([0]),
                 CPolynomial([500.0])]
        chk = certify_avoidance(comps, self.K)
        assert chk.certified
        assert chk.routes[0] == "z_escape"

    def test_uncertified(self):
        comps = [CPolynomial([1.0, 0.5]), CPolynomial([0]), CPolynomial([0])]
        chk = certify_avoidance(comps, self.K)
        assert not chk.certified
        assert 1 in chk.failed_shells

    def test_margin_respected(self):
        comps = [CPolynomial([0, 0.9995]), CPolynomial([0]), CPolynomial([0])]
        assert certify_avoidance(comps, self.K, margin=1e-6).certified
        assert not certify_avoidance(comps, self.K, margin=1e-2).certified

    @pytest.mark.parametrize("n_disk, n_K", [(2, 1), (1, 2)])
    def test_dimension_mismatch_named(self, n_disk, n_K):
        # an n=2 disk against an n=1 obstacle used to certify with y_2 and
        # z ignored; the reverse used to raise a bare IndexError
        zero = CPolynomial([0])
        f = legendrian_from_xy([CPolynomial([0, 0.5])] + [zero] * (n_disk - 1),
                               [zero] * n_disk, 0)
        K = standard_obstacle(n_K, 4)
        named = (f"the disk has {2 * n_disk + 1} components, "
                 f"K lives in C\\^{2 * n_K + 1}")
        with pytest.raises(ValueError, match=named):
            certify_avoidance(f.components, K)
        with pytest.raises(ValueError, match=named):
            verify_disk_estimate(f, K, N0=1)


class TestVerifyDiskEstimate:
    K = standard_obstacle(1, 4)

    def test_certified_pass(self):
        f = legendrian_from_xy([CPolynomial([0, 0.5])], [CPolynomial([0])], 0)
        rep = verify_disk_estimate(f, self.K, N0=1)
        assert rep.avoidance == "certified"
        assert rep.bounds_hold and rep.passed
        assert rep.derivatives["x"][0] == 0.5

    def test_hitting_disk_fails(self):
        K = ShellUnion.from_linear([(0.9, 1.1, 16), (1.9, 2.1, 128)],
                                   (0, 1), 2)
        f = legendrian_from_xy([CPolynomial([0, 1.5])], [CPolynomial([0])], 0)
        rep = verify_disk_estimate(f, K, N0=1)
        assert rep.avoidance == "uncertified"
        assert rep.bounds_hold and not rep.passed

    def test_degenerate_crossing_fails(self):
        # x = 1.5 zeta crosses the measure-zero band |x| = 1 of shell 1:
        # f(2/3) = (1, 0, 0) lies in K, so the disk must not pass
        f = legendrian_from_xy([CPolynomial([0, 1.5])], [CPolynomial([0])], 0)
        hit = [complex(c) for c in f.at(2 / 3).flat()]
        with np.errstate(divide="ignore"):
            logs = np.log(np.abs(np.array([hit])))
        assert membership_margin(self.K, logs)[0] >= 0
        rep = verify_disk_estimate(f, self.K, N0=1)
        assert rep.avoidance == "uncertified"
        assert not rep.passed

    def test_center_precondition(self):
        f = legendrian_from_xy([CPolynomial([5.0])], [CPolynomial([0])], 0)
        with pytest.raises(ValueError, match="polydisk"):
            verify_disk_estimate(f, self.K, N0=1)

    def test_horizontality_precondition(self):
        from contactfb.contact import HolomorphicCurve
        f = HolomorphicCurve((CPolynomial([0, 1]), CPolynomial([0, 1]),
                              CPolynomial([0, 1])))
        with pytest.raises(ValueError, match="horizontal"):
            verify_disk_estimate(f, self.K, N0=1)


class TestRandomAvoidingDisks:
    def test_sampler_produces_certified_disks(self):
        K = standard_obstacle(1, 4)
        disks = random_avoiding_disks(1, 2, K, count=25, seed=11)
        assert len(disks) == 25
        for f in disks:
            assert f.at(0.0).maxnorm() < 4.0
            assert certify_avoidance(f.components, K).certified

    def test_deterministic(self):
        K = standard_obstacle(1, 3)
        a = random_avoiding_disks(1, 1, K, count=5, seed=3)
        b = random_avoiding_disks(1, 1, K, count=5, seed=3)
        assert all(fa.components == fb.components for fa, fb in zip(a, b))

    def test_n2(self):
        K = standard_obstacle(2, 4)
        disks = random_avoiding_disks(2, 1, K, count=10, seed=7)
        for f in disks:
            assert f.n == 2
            rep = verify_disk_estimate(f, K, N0=1)
            assert rep.passed and rep.avoidance == "certified"
