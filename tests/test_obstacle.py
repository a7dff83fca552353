import hashlib
import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from contactfb.contact import TangentVector, legendrian_from_xy
from contactfb.numeric import CPolynomial, NEG_INF
from contactfb.certify import (
    AvoidanceCheck,
    BoundCertificate,
    certify_avoidance,
    verify_disk_estimate,
)
from contactfb.obstacle import (
    _proposal_poly,
    _uniform,
    membership_margin,
    random_avoiding_disks,
)
from contactfb.shells import ShellBand, ShellUnion, standard_obstacle


class TestShellUnion:
    def test_from_linear(self):
        K = ShellUnion.from_linear([(1, 2, 5), (3, 4, 10)], (0, 1), 2)
        assert K.dim == 3
        assert K.linear_shells() == ((1, 2, 5), (3, 4, 10))  # as given
        assert K.shells[1] == ShellBand(math.log(3), math.log(4),
                                        math.log(10))

    def test_log_only_radii_read_through_exp_once(self):
        # a from the log one float down, b and c from the log one float
        # up, each exp then one float outward; exp(800) is past float range
        bands = (ShellBand(0.5, 1.0, 2.0), ShellBand(1.5, 2.5, 800.0))
        K = ShellUnion(bands, (0,), 1)
        assert K.radii is None
        radii = K.linear_shells()

        def down(log):
            return math.nextafter(math.exp(math.nextafter(log, -math.inf)),
                                  0.0)

        def up(log):
            return math.nextafter(math.exp(math.nextafter(log, math.inf)),
                                  math.inf)
        assert radii == ((down(0.5), up(1.0), up(2.0)),
                         (down(1.5), up(2.5), math.inf))
        for (a, b, c), s in zip(radii, bands):
            assert a < math.exp(s.log_a) and b > math.exp(s.log_b)
        assert K.linear_shells() is radii

    def test_kept_radii_are_part_of_equality(self):
        K = standard_obstacle(1, 4)
        log_only = ShellUnion(K.shells, K.shell_dims, K.disk_dim)
        assert log_only != K
        # exp(log 8) reads 7.999999999999998; the log-only radii enclose 8
        a, b, _ = log_only.linear_shells()[3]
        assert a < 8.0 < b
        assert K.linear_shells()[3][0] == 8.0

    def test_no_shell_coordinate_refused(self):
        # certify_avoidance took the max of no sup bounds
        with pytest.raises(ValueError, match="^shell_dims must name"):
            ShellUnion.from_linear([(1, 1, 16)], (), 0)

    def test_radii_count_checked(self):
        K = standard_obstacle(1, 2)
        with pytest.raises(ValueError, match="one \\(a, b, c\\) per shell"):
            ShellUnion(K.shells, K.shell_dims, K.disk_dim, K.radii[:1])

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
        band = K.shells[0]
        assert band.log_a == band.log_b == 0.0 and band.a == 1.0

    def test_inner_radius_read_to_float_range(self):
        # exp stays finite up to log 709.78
        assert ShellBand(705.0, 706.0, 707.0).a == math.exp(705.0)

    def test_huge_log_radii(self):
        K = ShellUnion((ShellBand(1e6, 2e6, 1e5),), (0,), 1)
        assert K.shells[0].a == math.inf  # beyond native float range
        # the certificate side reads a radius below a as the largest float
        assert K.linear_shells() == ((sys.float_info.max, math.inf,
                                      math.inf),)

    @settings(max_examples=200, deadline=None)
    @given(st.floats(-700.0, 709.0))
    def test_log_only_radii_enclose_the_band(self, log):
        # every float whose log reads the band's edge, as membership_margin
        # reads it, lies within [a, b] (and below c)
        a, b, c = ShellUnion((ShellBand(log, log, log),), (0,), 1)\
            .linear_shells()[0]
        x = math.exp(log)
        for toward in (0.0, math.inf):
            y = x
            for _ in range(2000):
                if math.log(y) != log:
                    break
                assert a <= y <= b and y <= c
                y = math.nextafter(y, toward)
            else:
                raise AssertionError("the walk did not leave the log")


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
        got = membership_margin(self.K, self._coordinate_logs([p]))[0] >= 0
        assert got == self._linear_member(p)

    def test_scaled_coordinates(self):
        # log radii and coordinates far beyond native float range
        K = ShellUnion((ShellBand(1e6, 2e6, 1e5),), (0, 1), 2)
        logs = np.array([[1.5e6], [NEG_INF], [9e4]])
        assert membership_margin(K, logs)[0] == pytest.approx(1e4)

    @staticmethod
    def _coordinate_logs(points):
        """Coordinate-major (dim, m) log-moduli of the points."""
        with np.errstate(divide="ignore"):
            return np.log(np.abs(np.array(points, dtype=np.complex128))).T

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
        got = membership_margin(self.K, self._coordinate_logs([inside]))
        assert got.shape == (1,) and got[0] > 0
        outside_logs = self._coordinate_logs([outside])
        assert membership_margin(self.K, outside_logs)[0] < 0

    def test_margin_is_log_slack(self):
        p = [complex(1.5), 0j, 0j]
        want = min(math.log(1.5) - math.log(1.0),
                   math.log(2.0) - math.log(1.5))
        got = membership_margin(self.K, self._coordinate_logs([p]))
        assert got[0] == pytest.approx(want)

    def test_margin_rows_match_per_point_slack(self):
        rng = np.random.default_rng(8)
        pts = (np.exp(rng.uniform(-1.0, 3.5, (40, 3)))
               * np.exp(1j * rng.uniform(-math.pi, math.pi, (40, 3))))
        pts[::5, 1] = 0.0   # zero coordinates: log -inf
        pts[1::7, 2] = 0.0
        pts[3] = 0.0
        got = membership_margin(self.K, self._coordinate_logs(pts))
        assert got.shape == (40,)
        for g, p in zip(got, pts):
            assert g == pytest.approx(self._point_margin(p), rel=1e-12)
        assert (got > 0).any() and (got < 0).any()


class TestStandardObstacle:
    def test_radii_and_heights(self):
        K = standard_obstacle(1, 3)
        want = ((1, 1, 16), (2, 2, 128), (4, 4, 1024))  # C_N = 2^(3N+1)
        assert K.linear_shells() == want
        assert K.shell_dims == (0, 1) and K.disk_dim == 2

    def test_radii_exact_powers_of_two(self):
        # read back through exp, 15 of these 24 values miss the power of two
        radii = standard_obstacle(1, 8).linear_shells()
        assert radii == tuple((2.0 ** (i - 1), 2.0 ** (i - 1),
                               2.0 ** (3 * i + 1)) for i in range(1, 9))

    def test_height_rule(self):
        # C_N = n * 2^(3N+1) with n = 2
        heights = [c for _, _, c in standard_obstacle(2, 3).linear_shells()]
        assert heights == [2 * 2 ** 4, 2 * 2 ** 7, 2 * 2 ** 10]

    def test_n2_dims(self):
        K = standard_obstacle(2, 2)
        assert K.shell_dims == (0, 1, 2, 3) and K.disk_dim == 4

    @pytest.mark.parametrize("n, i_max", [(1, 4), (2, 6), (3, 1)])
    def test_built_once(self, n, i_max):
        K = standard_obstacle(n, i_max)
        assert standard_obstacle(n, i_max) is K
        assert K == standard_obstacle.__wrapped__(n, i_max)
        assert K != standard_obstacle(n, i_max + 1)


# zeros, subnormals, the caps themselves and their neighbours, and
# magnitudes up to 1e300 (a larger pair would overflow abs)
_parts = st.one_of(
    st.floats(-1e300, 1e300),
    st.floats(-2.3e-308, 2.3e-308),
    st.sampled_from([0.0, -0.0, 5e-324, 4.0, 8.0, 16.0, 32.0, 128.0, 512.0,
                     math.nextafter(4.0, 0.0), math.nextafter(8.0, 0.0),
                     math.nextafter(32.0, math.inf)]))
_coords = st.builds(complex, _parts, _parts)


@st.composite
def _tangent_vectors(draw):
    n = draw(st.sampled_from([1, 2]))
    flat = draw(st.lists(_coords, min_size=2 * n + 1, max_size=2 * n + 1))
    return TangentVector.from_flat(flat)


class TestBoundCertificate:
    def test_values(self):
        c = BoundCertificate(N0=1, n=1, i_max=2)
        assert c.bound_xy == 4.0 and c.bound_z == 8.0
        c = BoundCertificate(N0=3, n=2, i_max=6)
        assert c.bound_xy == 16.0 and c.bound_z == 128.0

    def test_n0_validation(self):
        with pytest.raises(ValueError):
            BoundCertificate(N0=0, n=1, i_max=6)

    @pytest.mark.parametrize("N0, i_max", [(1, 1), (2, 2), (6, 6), (7, 6)])
    def test_n0_at_or_beyond_i_max_refused(self, N0, i_max):
        # a truncated obstacle leaves everything beyond its last shell free
        with pytest.raises(ValueError,
                           match=f"N0 = {N0} is not below i_max = {i_max}$"):
            BoundCertificate(N0=N0, n=1, i_max=i_max)

    @given(_tangent_vectors(), st.integers(1, 60))
    @settings(max_examples=300)
    def test_ratio_equals_fraction_quotient(self, v, N0):
        # the largest |v_c| / cap in Fractions, rounded once: each cap is a
        # power of two, so the quotients of the float moduli are exact
        # unless they underflow, and rounding keeps their order
        cert = BoundCertificate(N0=N0, n=v.n, i_max=N0 + 1)
        caps = [cert.bound_xy] * (2 * v.n) + [cert.bound_z]
        coords = v.flat()
        ratio = cert.ratio(v)
        assert ratio == float(max(Fraction(abs(c)) / Fraction(cap)
                                  for c, cap in zip(coords, caps)))
        assert math.copysign(1.0, ratio) == 1.0
        # ratio < 1 only where every exact |v_c|^2 < cap^2
        if ratio < 1:
            assert all(Fraction(c.real) ** 2 + Fraction(c.imag) ** 2
                       < Fraction(cap) ** 2 for c, cap in zip(coords, caps))


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

    @pytest.mark.parametrize("margin", [1e-6, 1e-15, 1e-300, 5e-324])
    def test_point_on_a_radius_refused(self, margin):
        # (8, 0, 0) lies in shell 4 of standard_obstacle(1, 4); read through
        # exp, a_4 = b_4 = 7.999999999999998 let the 'outside' route
        # certify it at margin 1e-15
        K = standard_obstacle(1, 4)
        comps = [CPolynomial([8]), CPolynomial([0]), CPolynomial([0])]
        chk = certify_avoidance(comps, K, margin)
        assert not chk.certified
        assert chk.failed_shells == (4,)

    @pytest.mark.parametrize("margin", [0.0, 1e-15, 1e-6])
    @pytest.mark.parametrize("band, x", [
        # read through exp, a = b = 7.999999999999998: the 'outside' route
        # certified the constant disk (8, 0), which membership puts on the
        # shell, at margins 0 and 1e-15
        (ShellBand(math.log(8), math.log(8), math.log(16)), 8.0),
        # read as (inf, inf, inf) from log 700 upward: the 'inside' route
        # certified x = 3e304, inside the shell (exp(701) = 2.76e304)
        (ShellBand(701.0, 702.0, 703.0), 3e304)])
    def test_log_only_union_point_in_shell_refused(self, band, x, margin):
        K = ShellUnion((band,), (0,), 1)
        assert membership_margin(K, [[math.log(x)], [-math.inf]])[0] >= 0.0
        chk = certify_avoidance([CPolynomial([x]), CPolynomial([0])], K,
                                margin)
        assert not chk.certified
        assert chk.failed_shells == (1,)

    def test_moduli_past_float_range(self):
        # the z moduli 1e308 + 1e308 overflowed fsum, and the call raised
        z = CPolynomial([0, 1e308, 1e308])
        assert z.inf_lower_bound() == -math.inf
        K = standard_obstacle(1, 4)
        zero = CPolynomial([0])
        chk = certify_avoidance([zero, zero, z], K)
        assert chk.routes == ("inside",) * 4
        # x = 1 lies on shell 1; z may not escape by an overflowed bound
        chk = certify_avoidance([CPolynomial([1]), zero, z], K)
        assert not chk.certified
        assert chk.failed_shells == (1,)

    def test_coefficient_past_float_range(self):
        # z = -5e399 zeta^2 has no float view: the bounds read +inf and
        # -inf, every route fails, and the call no longer raises
        f = legendrian_from_xy([CPolynomial([0, 1e200])],
                               [CPolynomial([0, 1e200])])
        z = f.components[2]
        with pytest.raises(OverflowError):
            z.coeffs
        assert z.sup_bound() == math.inf
        assert z.inf_lower_bound() == -math.inf
        chk = certify_avoidance(f.components, standard_obstacle(1, 4))
        assert not chk.certified
        assert chk.failed_shells == (1, 2, 3, 4)

    def test_margin_respected(self):
        comps = [CPolynomial([0, 0.9995]), CPolynomial([0]), CPolynomial([0])]
        assert certify_avoidance(comps, self.K, margin=1e-6).certified
        assert not certify_avoidance(comps, self.K, margin=1e-2).certified

    @pytest.mark.parametrize("margin", [-0.5, -5e-324, math.inf, math.nan])
    def test_unsound_margin_refused(self, margin):
        # the constant disk (1, 0, 0) lies on shell 1 of
        # standard_obstacle(1, 6); at margin -0.5 the 'inside' route
        # certified it
        K = standard_obstacle(1, 6)
        comps = [CPolynomial([1]), CPolynomial([0]), CPolynomial([0])]
        with pytest.raises(ValueError, match="^margin must be finite and >= "):
            certify_avoidance(comps, K, margin)
        f = legendrian_from_xy([CPolynomial([1])], [CPolynomial([0])], 0)
        with pytest.raises(ValueError, match="^margin"):
            verify_disk_estimate(f, K, N0=1, margin=margin)

    def test_zero_margin_allowed(self):
        comps = [CPolynomial([0, 0.5]), CPolynomial([0]), CPolynomial([0])]
        assert certify_avoidance(comps, self.K, 0.0).certified

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
        # x = 1.5 + zeta meets |x| = 1 and |x| = 2 at z = 0, on shells 1
        # and 2, while |x'(0)| = 1 is within the cap 4 of N0 = 1
        f = legendrian_from_xy([CPolynomial([1.5, 1])], [CPolynomial([0])], 0)
        rep = verify_disk_estimate(f, self.K, N0=1)
        assert rep.avoidance == "uncertified"
        assert rep.routes[:2] == ("uncertified", "uncertified")
        assert rep.bounds_hold and not rep.passed

    @pytest.mark.parametrize("K", [
        # two thick shells: i_max came from the shell count and K was never
        # checked, so this union got a report
        ShellUnion.from_linear([(0.9, 1.1, 16), (1.9, 2.1, 128)], (0, 1), 2),
        ShellUnion(standard_obstacle(1, 4).shells, (0, 1), 2)])  # log-only
    def test_other_obstacle_refused(self, K):
        f = legendrian_from_xy([CPolynomial([0, 0.5])], [CPolynomial([0])], 0)
        i_max = len(K.shells)
        with pytest.raises(ValueError, match=r"; K is not "
                           rf"standard_obstacle\(1, {i_max}\)$"):
            verify_disk_estimate(f, K, N0=1)

    def test_degenerate_crossing_fails(self):
        # x = 1.5 zeta crosses the measure-zero band |x| = 1 of shell 1:
        # f(2/3) = (1, 0, 0) lies in K, so the disk must not pass
        f = legendrian_from_xy([CPolynomial([0, 1.5])], [CPolynomial([0])], 0)
        hit = [complex(c) for c in f.at(2 / 3).flat()]
        with np.errstate(divide="ignore"):
            logs = np.log(np.abs(np.array([hit]))).T
        assert membership_margin(self.K, logs)[0] >= 0
        rep = verify_disk_estimate(f, self.K, N0=1)
        assert rep.avoidance == "uncertified"
        assert not rep.passed

    def test_n0_beyond_the_last_shell_refused(self):
        # (3, 0, 0) is centred in the 2^2 polydisk but beyond the last
        # shell (radius 2) of standard_obstacle(1, 2), where nothing bounds
        # the derivatives; the disk itself certifies avoidance
        K = standard_obstacle(1, 2)
        f = legendrian_from_xy([CPolynomial([3.0])], [CPolynomial([0])], 0)
        assert certify_avoidance(f.components, K).certified
        with pytest.raises(ValueError, match="N0 = 2 is not below i_max = 2$"):
            verify_disk_estimate(f, K, N0=2)

    def test_n0_past_float_range_named(self):
        # 2.0 ** 1100 overflowed before the certificate could name N0
        f = legendrian_from_xy([CPolynomial([0, 0.5])], [CPolynomial([0])], 0)
        with pytest.raises(ValueError,
                           match="N0 = 1100 is not below i_max = 6$"):
            verify_disk_estimate(f, standard_obstacle(1, 6), 1100)

    def test_ratio_on_the_report(self):
        f = legendrian_from_xy([CPolynomial([0, 0.5])], [CPolynomial([0])], 0)
        rep = verify_disk_estimate(f, self.K, N0=1)
        assert rep.ratio == 0.125  # |x'(0)| / 2^(N0+1)
        assert rep.ratio == rep.certificate.ratio(f.derivative_at(0.0))

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
    def test_proposal_draws_pinned(self):
        # (seed, centre modulus, amplitude, digest) with the sha256 of the
        # proposal's exact coefficients and of the stream's next double
        # pinned: the draws, their order and where the stream ends
        for seed, center, amp, digest in [
                (0, 0.0, 0.0, "470a54dd4393a75d"),
                (11, 3.5, 0.7, "bec9fda057e10fa4"),
                (2 ** 32, 40.0, 6.0, "b4e7a36ca40e3216"),
                (7, 1e-3, 2.5, "42e65b77f73b6702")]:
            rng = np.random.default_rng(seed)
            got = _proposal_poly(rng, center, amp)
            text = " ".join(f"{re} {im}" for re, im in got.rational_coeffs)
            text += f" {rng.random()!r}"
            assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest

    @given(st.integers(0, 2 ** 32), st.floats(-1e6, 1e6),
           st.floats(0.0, 1e6))
    @settings(max_examples=100)
    def test_uniform_equals_generator_uniform(self, seed, lo, width):
        old, new = np.random.default_rng(seed), np.random.default_rng(seed)
        for a, b in [(lo, lo + width), (-math.pi, math.pi), (0.0, width)]:
            assert repr(_uniform(new, a, b)) == repr(old.uniform(a, b))
        assert new.random() == old.random()  # the streams end together

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

    def test_negative_count_refused(self):
        # count = -1 returned [] with no error
        K = standard_obstacle(1, 4)
        with pytest.raises(ValueError, match="^count must be >= 0$"):
            random_avoiding_disks(1, 1, K, -1, seed=1)
        assert random_avoiding_disks(1, 1, K, 0, seed=1) == []

    @pytest.mark.parametrize("n", [0, -1])
    def test_n_below_one_refused(self, n):
        # numpy's "high <= 0" used to come out of the first draw
        with pytest.raises(ValueError, match="^n must be >= 1$"):
            random_avoiding_disks(n, 1, standard_obstacle(1, 4), 1, seed=1)

    def test_n2(self):
        K = standard_obstacle(2, 4)
        disks = random_avoiding_disks(2, 1, K, count=10, seed=7)
        for f in disks:
            assert f.n == 2
            rep = verify_disk_estimate(f, K, N0=1)
            assert rep.passed and rep.avoidance == "certified"
