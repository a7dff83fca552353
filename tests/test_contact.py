import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

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


# Coefficients of every kind the intake reads: Python complex (floats over
# their own power-of-two denominators), real Fractions, (re, im) pairs,
# and ints past float range.
_exact_reals = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.fractions(max_denominator=10 ** 12),
    st.integers(-2 ** 200, 2 ** 200))
_any_coeffs = st.one_of(
    st.builds(complex, st.floats(-1e6, 1e6), st.floats(-1e6, 1e6)),
    st.complex_numbers(allow_nan=False, allow_infinity=False),
    st.fractions(max_denominator=10 ** 12),
    st.integers(-2 ** 200, 2 ** 200),
    st.tuples(_exact_reals, _exact_reals))
# the zero polynomial (empty, or all zeros), or degree 0-10
_coeff_lists = st.one_of(
    st.just([]), st.lists(st.sampled_from([0, 0j, -0.0, (0, 0)]),
                          min_size=1, max_size=3),
    st.lists(_any_coeffs, min_size=1, max_size=11))
_z0s = st.one_of(
    st.complex_numbers(allow_nan=False, allow_infinity=False),
    st.fractions(), st.integers(-2 ** 100, 2 ** 100))


class TestLegendrianOracle:
    """``legendrian_from_xy`` against z = z0 - the integral of
    sum_j x_j y_j' in Fraction arithmetic, on every coefficient kind the
    intake reads."""

    @given(st.integers(1, 3).flatmap(lambda n: st.tuples(
        st.lists(_coeff_lists, min_size=n, max_size=n),
        st.lists(_coeff_lists, min_size=n, max_size=n))), _z0s)
    @settings(max_examples=300, deadline=None)
    @example(([[]], [[1, 2]]), 0)  # x = 0: z is z0
    @example(([[1, 2]], [[5]]), Fraction(1, 3))  # y' = 0
    @example(([[0.5, -0.0, 0j]], [[0j, 3 + 0j, 0j]]), -0.0 + 0j)
    @example(([[2 ** 200, (1, Fraction(1, 3))], [1e-300j]],
              [[0, 0, 2 ** -1074 + 0j], [(0, 0), 1e300]]), 7)
    def test_equals_fraction_oracle(self, xy, z0):
        cx, cy = xy
        xs = [CPolynomial(c) for c in cx]
        ys = [CPolynomial(c) for c in cy]
        f = legendrian_from_xy(xs, ys, z0)
        want = fo.legendrian_z(map(fo.poly, cx), map(fo.poly, cy), z0)
        assert f.z.rational_coeffs == want
        assert (f.z._num, f.z._den) == fo.storage(want)
        assert f.x == tuple(xs) and f.y == tuple(ys)
        assert horizontality_residual(f).is_zero


@st.composite
def _polys(draw):
    """The zero polynomial, a constant, or degree 0-12, at a coefficient
    scale from 1e-30 to 1e30."""
    kind = draw(st.sampled_from(["zero", "constant", "general"]))
    if kind == "zero":
        return CPolynomial()
    degree = 0 if kind == "constant" else draw(st.integers(0, 12))
    scale = 10.0 ** draw(st.floats(-30.0, 30.0))
    parts = st.floats(-1.0, 1.0)
    return CPolynomial([complex(draw(parts), draw(parts)) * scale
                        for _ in range(degree + 1)])


@st.composite
def _curves(draw):
    """A curve from ``legendrian_from_xy`` with n in {1, 2, 3}, raw or with
    one component perturbed (so mostly not horizontal), maybe negated."""
    n = draw(st.integers(1, 3))
    xs = [draw(_polys()) for _ in range(n)]
    ys = [draw(_polys()) for _ in range(n)]
    comps = [c.rational_coeffs for c in legendrian_from_xy(
        xs, ys, z0=draw(st.complex_numbers(max_magnitude=1e6, allow_nan=False,
                                           allow_infinity=False))).components]
    if draw(st.booleans()):
        j = draw(st.integers(0, 2 * n))
        comps[j] = fo.add(comps[j], draw(_polys()).rational_coeffs)
    if draw(st.booleans()):
        comps = [fo.neg(c) for c in comps]
    return HolomorphicCurve(tuple(map(CPolynomial, comps)))


def _curve(*comps):
    return HolomorphicCurve(tuple(CPolynomial(c) for c in comps))


class TestPackedResidual:
    """The packed residual against z' + sum_j x_j y_j' in Fraction
    arithmetic: the same polynomial, in canonical storage, on every curve,
    horizontal or not."""

    @given(_curves())
    @settings(max_examples=300, deadline=None)
    # each coefficient reaches its slot's bound: one bit narrower and the
    # digit no longer fits
    @example(_curve([0], [0], [0, 0, 0, 1]))
    @example(_curve([1 + 1j], [0, 1 - 1j], [0]))
    # ... and a bound of 2^7 fills a byte's sign bit: a slot of 8 bits
    # reads the digit 128 as -128
    @example(_curve([0], [0], [0, 128]))
    @example(_curve([8 + 8j], [0, 8 - 8j], [0]))
    @example(_curve([0.5], [0, 3], [0, -1.5]))  # horizontal, zero
    @example(_curve([], [], []))
    def test_equals_fraction_oracle(self, f):
        got = horizontality_residual(f)
        rat = [c.rational_coeffs for c in f.components]
        want = fo.derivative_dot(rat[0:-1:2], rat[1:-1:2], rat[-1])
        assert got.rational_coeffs == want
        assert (got._num, got._den) == fo.storage(want)

    def test_nonhorizontal_value(self):
        # z' + x y' = 1 + t * 2t for x = t, y = t^2, z = t
        f = _curve([0, 1], [0, 0, 1], [0, 1])
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
        return (self.mat @ vec).tolist(), self.mat @ tan


class TestPullback:
    def test_empty_composition_is_alpha0(self):
        p = ContactPoint((1 + 2j,), (0.5j,), 3 + 0j)
        v = TangentVector((0.2 + 0j,), (1 - 1j,), 0.7j)
        assert pullback_eval([], p, v) == alpha0_eval(p, v)

    def test_linear_map_chain_rule(self):
        # shear in (x, z): alpha0 pulls back through the explicit Jacobian
        mat = np.eye(3, dtype=np.complex128)
        mat[2, 0] = 2.0  # z += 2x
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
