from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fraction_oracle as fo
from contactfb.contact import (
    ContactPoint,
    HolomorphicCurve,
    TangentVector,
    alpha0_eval,
    chow_path,
    composition_jacobian,
    horizontality_residual,
    legendrian_from_xy,
    legendrian_line,
    pullback_eval,
)
from contactfb import numeric
from contactfb.numeric import CPolynomial, DegreeCapError


def dyadic(rng, scale=16):
    """Small-mantissa dyadic rational, exactly representable products."""
    return complex(int(rng.integers(-scale, scale + 1)) / scale,
                   int(rng.integers(-scale, scale + 1)) / scale)


def random_xy(rng, n, degree):
    polys = []
    for _ in range(2 * n):
        coeffs = rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
        polys.append(CPolynomial(coeffs.tolist()))
    return polys[0::2], polys[1::2]


class TestBlocks:
    def test_from_flat_roundtrip(self):
        p = ContactPoint.from_flat([1, 2, 3, 4, 5j])
        assert p.n == 2
        assert p.x == (1 + 0j, 3 + 0j)
        assert p.y == (2 + 0j, 4 + 0j)
        assert p.z == 5j
        assert p.flat() == (1 + 0j, 2 + 0j, 3 + 0j, 4 + 0j, 5j)

    def test_flat_requires_odd(self):
        with pytest.raises(ValueError):
            ContactPoint.from_flat([1, 2])
        with pytest.raises(ValueError):
            ContactPoint.from_flat([1, 2, 3, 4])

    def test_maxnorm(self):
        p = ContactPoint((3j,), (1 + 0j,), 0.5j)
        assert p.maxnorm() == 3.0

    def test_from_flat_keeps_the_class(self):
        p = ContactPoint.from_flat([1, 2, 3])
        v = TangentVector.from_flat([1, 2, 3])
        assert type(p) is ContactPoint and type(v) is TangentVector
        assert p.flat() == v.flat()
        assert p != v and v != p

    def test_vector_scaled(self):
        v = TangentVector((1 + 0j,), (2j,), 3 + 0j)
        w = v.scaled(2j)
        assert w.x == (2j,) and w.y == (-4 + 0j,) and w.z == 6j


class TestAlpha0:
    def test_explicit_value(self):
        # alpha0 = dz + x dy at p = (x=2, y=anything, z)
        p = ContactPoint((2 + 0j,), (7 + 0j,), 0j)
        v = TangentVector((5 + 0j,), (3 + 0j,), 1 + 0j)
        assert alpha0_eval(p, v) == 1 + 2 * 3

    def test_dimension_mismatch(self):
        p = ContactPoint((1 + 0j,), (0j,), 0j)
        v = TangentVector((1 + 0j, 0j), (0j, 0j), 0j)
        with pytest.raises(ValueError):
            alpha0_eval(p, v)

    def test_z_direction_not_horizontal(self):
        p = ContactPoint((0j,), (0j,), 0j)
        v = TangentVector((0j,), (0j,), 1 + 0j)
        assert alpha0_eval(p, v) == 1 + 0j


class TestHorizontality:
    @given(st.integers(1, 3), st.integers(0, 8), st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_from_xy_residual_identically_zero(self, n, degree, seed):
        rng = np.random.default_rng(seed)
        xs, ys = random_xy(rng, n, degree)
        f = legendrian_from_xy(xs, ys, z0=complex(rng.standard_normal()))
        assert horizontality_residual(f).is_zero

    def test_z_is_exact_antiderivative(self):
        x = CPolynomial([0, 1])        # x = t
        y = CPolynomial([0, 0, 1])     # y = t^2
        f = legendrian_from_xy([x], [y], z0=5)
        # z' = -x y' = -2 t^2, so z = 5 - (2/3) t^3 exactly
        assert f.z.rational_coeffs[0][0] == 5
        assert f.z.rational_coeffs[3][0] == Fraction(-2, 3)

    def test_degree_cap_enforced(self):
        x = CPolynomial([0] * 40 + [1])  # t^40
        y = CPolynomial([0] * 40 + [1])
        with pytest.raises(DegreeCapError):
            legendrian_from_xy([x], [y])

    @pytest.mark.parametrize("dx, dy, raised", [
        (31, 33, None),  # x y' of degree 63: z of degree 64
        (32, 33, "^z degree 65 exceeds cap 64"),
        (33, 33, "^product degree 65 exceeds cap 64"),
        (-1, 90, None),  # x = 0
        (90, 0, None),  # y' = 0
    ])
    def test_degree_cap_boundary(self, dx, dy, raised):
        x = CPolynomial([0] * dx + [1]) if dx >= 0 else CPolynomial()
        y = CPolynomial([0] * dy + [1])
        if raised is None:
            f = legendrian_from_xy([x], [y])
            assert f.z.degree == (dx + dy if dx >= 0 and dy else -1)
        else:
            with pytest.raises(DegreeCapError, match=raised):
                legendrian_from_xy([x], [y])

    def test_degree_cap_raised_before_packing(self, monkeypatch):
        def packed(*args):
            raise AssertionError("packed a product past the cap")
        monkeypatch.setattr(numeric, "_dot_digits", packed)
        x = CPolynomial([0] * 40 + [1])
        with pytest.raises(DegreeCapError, match="^product degree 79 "):
            legendrian_from_xy([CPolynomial([1]), x], [CPolynomial([0, 1]), x])

    def test_nonhorizontal_curve_detected(self):
        f = HolomorphicCurve((CPolynomial([0, 1]), CPolynomial([0, 1]),
                              CPolynomial([0, 1])))
        assert not horizontality_residual(f).is_zero


class TestPackedResidual:
    """The residual of a curve that is not horizontal; the Fraction oracle
    of every residual is ``test_numeric.TestCPolynomialOracle``."""

    def test_nonhorizontal_value(self):
        # z' + x y' = 1 + t * 2t for x = t, y = t^2, z = t
        f = HolomorphicCurve((CPolynomial([0, 1]), CPolynomial([0, 0, 1]),
                              CPolynomial([0, 1])))
        assert horizontality_residual(f) == CPolynomial([1, 0, 2])


class TestLegendrianLine:
    def test_rejects_nonkernel_velocity(self):
        p = ContactPoint((0j,), (0j,), 0j)
        v = TangentVector((1 + 0j,), (0j,), 1 + 0j)  # alpha0(v) = 1
        with pytest.raises(ValueError):
            legendrian_line(p, v)

    @pytest.mark.parametrize("p,v,named", [
        (ContactPoint((complex("inf"),), (0j,), 0j),
         TangentVector((1 + 0j,), (0j,), 0j), r"^point x\[0\] is not finite"),
        (ContactPoint((0j,), (0j,), 0j),
         TangentVector((0j,), (0j,), complex("nan")),
         r"^direction z is not finite"),
        (ContactPoint((0j,), (1.5e308 - 1.5e308j,), 0j),
         TangentVector((1 + 0j,), (0j,), 0j),
         r"^point y\[0\] modulus is beyond float range"),
    ])
    def test_rejects_nonfinite(self, p, v, named):
        with pytest.raises(ValueError, match=named):
            legendrian_line(p, v)

    def test_quadratic_formula_on_dyadic_data(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(1, 4))
            px = [dyadic(rng) for _ in range(n)]
            py = [dyadic(rng) for _ in range(n)]
            vx = [dyadic(rng) for _ in range(n)]
            vy = [dyadic(rng) for _ in range(n)]
            vz = -sum(a * b for a, b in zip(px, vy))
            p = ContactPoint(tuple(px), tuple(py), dyadic(rng))
            v = TangentVector(tuple(vx), tuple(vy), vz)
            f = legendrian_line(p, v)
            assert horizontality_residual(f).is_zero
            assert f.at(0.0).flat() == p.flat()
            d = f.derivative_at(0.0)
            assert d.x == v.x and d.y == v.y and d.z == v.z
            # quadratic z coefficient is -sum(nu_x nu_y)/2
            zc = f.z.coeffs
            want = -sum(a * b for a, b in zip(vx, vy)) / 2
            got = zc[2] if len(zc) > 2 else 0j
            assert got == want

    def test_pure_x_direction(self):
        p = ContactPoint((0j,), (0j,), 0j)
        v = TangentVector((1 + 0j,), (0j,), 0j)
        f = legendrian_line(p, v)
        assert max(c.degree for c in f.components) == 1
        assert f.at(0.5).flat() == (0.5 + 0j, 0j, 0j)


class _LinearMap:
    """Test double: invertible linear map, its own constant derivative."""

    def __init__(self, mat):
        self.mat = np.asarray(mat, dtype=np.complex128)

    def tangent_step(self, vec, tan):
        # past float range without a warning, as a shear map's step
        with np.errstate(over="ignore", invalid="ignore"):
            return (self.mat @ vec).tolist(), self.mat @ tan


class TestPullback:
    def test_empty_composition_is_alpha0(self):
        p = ContactPoint((1 + 2j,), (0.5j,), 3 + 0j)
        v = TangentVector((0.2 + 0j,), (1 - 1j,), 0.7j)
        assert pullback_eval([], p, v) == alpha0_eval(p, v)

    def test_linear_map_chain_rule(self):
        # shear in (x, z) and (x, y): alpha0 pulls back through the explicit
        # Jacobian, read at the image point
        mat = np.eye(3, dtype=np.complex128)
        mat[2, 0] = 2.0  # z += 2x
        mat[0, 1] = 0.5  # x += y / 2
        m = _LinearMap(mat)
        p = ContactPoint((1 + 0j,), (2 + 0j,), 0j)
        v = TangentVector((0.5 + 0j,), (1 + 0j,), 0.25j)
        got = pullback_eval([m], p, v)
        q = ContactPoint.from_flat((mat @ np.array(p.flat())).tolist())
        w = TangentVector.from_flat((mat @ np.array(v.flat())).tolist())
        assert got == alpha0_eval(q, w)

    def test_overflow_detected(self):
        big = _LinearMap(np.eye(3) * 1e200)
        p = ContactPoint((1e200 + 0j,), (0j,), 0j)
        v = TangentVector((1 + 0j,), (0j,), 0j)
        with pytest.raises(OverflowError):
            pullback_eval([big, big], p, v)

    def test_composition_jacobian_identity(self):
        p = ContactPoint((1 + 0j,), (2 + 0j,), 3 + 0j)
        jac = composition_jacobian([], p)
        assert np.array_equal(jac, np.eye(3))

    def test_composition_jacobian_chain_rule(self):
        # the identity's columns pushed through two linear maps
        a = np.eye(3, dtype=np.complex128)
        a[2, 0] = 2.0
        b = np.eye(3, dtype=np.complex128)
        b[0, 1] = 1j
        p = ContactPoint((1 + 0j,), (2 + 0j,), 3 + 0j)
        jac = composition_jacobian([_LinearMap(a), _LinearMap(b)], p)
        assert np.array_equal(jac, b @ a)


class TestChowPath:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_hand_built_segments(self, n):
        rng = np.random.default_rng(90 + n)
        for trial in range(60):
            p = ContactPoint.from_flat(
                [complex(*rng.standard_normal(2)) for _ in range(2 * n + 1)])
            q = list(rng.standard_normal(2 * n + 1)
                     + 1j * rng.standard_normal(2 * n + 1))
            # share some x, y or z coordinates with p, including signed zeros
            for d, c in enumerate(p.flat()):
                if rng.random() < 0.3:
                    q[d] = c
                if trial % 10 == 0 and rng.random() < 0.3:
                    q[d] = complex(-0.0, -0.0)
            q = ContactPoint.from_flat(q)
            got = [tuple(c.rational_coeffs for c in seg.components)
                   for seg in chow_path(p, q).segments]
            assert tuple(got) == fo.chow_path(p, q)

    @given(st.integers(1, 3), st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=50, deadline=None)
    def test_reaches_target_with_zero_residuals(self, n, seed):
        rng = np.random.default_rng(seed)
        flat = lambda: [complex(a, b) for a, b in
                        zip(rng.standard_normal(2 * n + 1),
                            rng.standard_normal(2 * n + 1))]
        p = ContactPoint.from_flat(flat())
        q = ContactPoint.from_flat(flat())
        plan = chow_path(p, q)
        assert len(plan.segments) <= 4 * n + 2
        for seg in plan.segments:
            assert horizontality_residual(seg).is_zero
        end = plan.endpoint()
        err = max(abs(a - b) for a, b in zip(end.flat(), q.flat()))
        assert err <= 1e-10

    def test_continuity_between_segments(self):
        p = ContactPoint.from_flat([0, 0, 0])
        q = ContactPoint.from_flat([1, 2, 3])
        plan = chow_path(p, q)
        prev = p
        for seg in plan.segments:
            start = seg.at(0.0)
            err = max(abs(a - b) for a, b in zip(start.flat(), prev.flat()))
            assert err <= 1e-12
            prev = seg.at(1.0)

    def test_same_point_empty_or_trivial(self):
        p = ContactPoint.from_flat([1, 2, 3])
        plan = chow_path(p, p)
        assert plan.segments == ()

    def test_pure_z_displacement_uses_loop(self):
        p = ContactPoint.from_flat([0, 0, 0])
        q = ContactPoint.from_flat([0, 0, 1])
        plan = chow_path(p, q)
        assert len(plan.segments) == 4
        end = plan.endpoint()
        assert abs(end.z - 1) <= 1e-12
        assert abs(end.x[0]) <= 1e-12 and abs(end.y[0]) <= 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            chow_path(ContactPoint.from_flat([0, 0, 0]),
                      ContactPoint.from_flat([0, 0, 0, 0, 0]))
