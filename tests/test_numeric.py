import cmath
import functools
import hashlib
import math
import struct
from fractions import Fraction
from itertools import chain

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import fraction_oracle as fo
from contactfb.contact import (HolomorphicCurve, horizontality_residual,
                               legendrian_from_xy)
from contactfb.numeric import (
    CPolynomial,
    NEG_INF,
    _exact_complex,
    _exact_parts,
    derivative_dot,
    log_add,
    log_sub,
    log_sum,
    negated_dot_integral,
    polar_sum,
    sample_polydisk,
    scaled_sum_arrays,
)
from contactfb.obstacle import random_avoiding_disks
from contactfb.shells import standard_obstacle

finite_complex = st.complex_numbers(allow_nan=False, allow_infinity=False,
                                    max_magnitude=1e6)
# subnormal magnitudes are excluded: the native-complex oracle itself loses
# precision below the normal float range
nonzero_complex = st.complex_numbers(allow_nan=False, allow_infinity=False,
                                     min_magnitude=1e-300, max_magnitude=1e6)

# ---------------------------------------------------------------------------
# scaled complex numbers: (log-modulus, phase), added by polar_sum
# ---------------------------------------------------------------------------

def _polar(z: complex):
    """(log|z|, arg z) of a nonzero complex number."""
    return math.log(abs(z)), math.atan2(z.imag, z.real)


def _row_sum(log_mags, phases):
    """``scaled_sum_arrays`` on one column, as Python floats."""
    with np.errstate(invalid="ignore"):
        lm, ph = scaled_sum_arrays(np.array([log_mags], dtype=float).T,
                                   np.array([phases], dtype=float).T)
    return float(lm[0]), float(ph[0])


class TestScaledComplex:
    def test_zero_sentinel(self):
        assert polar_sum([NEG_INF], [0.7]) == (NEG_INF, 0.0)
        assert polar_sum([NEG_INF, NEG_INF], [math.pi, -1.0]) == (NEG_INF, 0.0)
        assert polar_sum([NEG_INF, 1.5], [2.0, 0.25]) == (1.5, 0.25)

    @given(nonzero_complex, nonzero_complex)
    @settings(max_examples=200)
    def test_add_matches_native(self, a, b):
        (la, pa), (lb, pb) = _polar(a), _polar(b)
        lm, ph = polar_sum([la, lb], [pa, pb])
        got = cmath.rect(math.exp(lm), ph) if lm != NEG_INF else 0j
        want = a + b
        assert abs(got - want) <= 1e-12 * (abs(a) + abs(b))

    def test_add_exact_cancellation(self):
        # 2 + (-1 + sin(pi) i) + (-1 - sin(pi) i) is exactly zero
        lm, ph = [math.log(2.0), 0.0, 0.0], [0.0, math.pi, -math.pi]
        assert polar_sum(lm, ph)[0] == NEG_INF
        assert _row_sum(lm, ph)[0] == NEG_INF

    def test_add_huge_disparity(self):
        lm, ph = polar_sum([5e4, -5e4], [0.3, 1.0])
        assert lm == pytest.approx(5e4)
        assert ph == pytest.approx(0.3)

    def test_add_nan_propagates(self):
        for lm, ph in (([math.nan, 0.0], [0.0, 0.0]),
                       ([0.0, math.nan], [0.0, 0.0]),
                       ([0.0, 0.0], [0.0, math.nan]),
                       ([math.inf, math.nan], [0.0, 0.0]),
                       ([NEG_INF, math.nan], [0.0, 0.0])):
            assert math.isnan(polar_sum(lm, ph)[0])
            assert math.isnan(_row_sum(lm, ph)[0])


# ---------------------------------------------------------------------------
# log-domain helpers
# ---------------------------------------------------------------------------

class TestLogHelpers:
    @given(st.floats(-600, 600), st.floats(-600, 600))
    def test_log_add(self, la, lb):
        got = log_add(la, lb)
        want = math.log(math.exp(la) + math.exp(lb)) if max(la, lb) < 600 \
            else got
        assert got == pytest.approx(want, rel=1e-12)

    def test_log_add_neg_inf(self):
        assert log_add(NEG_INF, 3.0) == 3.0
        assert log_add(3.0, NEG_INF) == 3.0

    def test_log_sum(self):
        vals = [0.5, 1.5, -2.0]
        want = math.log(sum(math.exp(v) for v in vals))
        assert log_sum(vals) == pytest.approx(want, rel=1e-12)
        assert log_sum([]) == NEG_INF
        assert log_sum([NEG_INF, NEG_INF]) == NEG_INF

    def test_log_sub(self):
        assert log_sub(math.log(5), math.log(2)) == pytest.approx(math.log(3))
        with pytest.raises(ValueError):
            log_sub(1.0, 2.0)
        assert log_sub(2.0, NEG_INF) == 2.0

    # (log-moduli, phases, sum), pinned bit for bit
    @pytest.mark.parametrize("lm, ph, want", [
        # +inf takes the phase of the first +inf summand
        ([0.0, math.inf, 1.0, math.inf], [0.5, -2.0, 1.0, 3.0],
         (math.inf, -2.0)),
        # a NaN log-modulus beside finite summands or +inf
        ([0.0, math.nan, 1.0], [0.5, -2.0, 1.0], (math.nan, math.nan)),
        ([math.nan, math.inf], [0.5, -2.0], (math.nan, math.nan)),
        ([NEG_INF, NEG_INF, NEG_INF], [0.5, -2.0, math.pi], (NEG_INF, 0.0)),
        # a NaN phase is read only on a summand above the underflow cut
        ([0.0, -745.1332191019411, -745.14, -746.0],
         [0.5, -2.0, 1.0, math.nan], (0.0, 0.5)),
        ([0.0, -745.1332191019411], [0.5, math.nan], (math.nan, math.nan)),
        # log-moduli one ulp apart at |hi| = 162
        ([-200.0, -201.0, -162.23108921936773, -192.1321057977034, -200.0,
          -200.0, -192.1328125, -192.130859375],
         [0.0, 0.0, -3.5225300495792595, 3.830078125, 0.0, 0.0,
          3.141592653589793, 3.141592653589793],
         (-162.2310892193675, 2.7606552576004946)),
    ], ids=["inf", "nan-lm", "nan-beside-inf", "zeros", "cut-nan-phase",
            "live-nan-phase", "ulp-apart"])
    def test_polar_sum_edges_pinned(self, lm, ph, want):
        assert np.array_equal(polar_sum(lm, ph), want, equal_nan=True)

    def test_scaled_sum_arrays_column_independent_of_batch(self):
        # a lone column (of five summands) is contiguous along the summand
        # axis, where np.sum would reassociate the summands
        rng = np.random.default_rng(8)
        lm = rng.uniform(-3.0, 3.0, (5, 400))
        ph = rng.uniform(-math.pi, math.pi, (5, 400))
        all_lm, all_ph = scaled_sum_arrays(lm, ph)
        for i in range(400):
            one_lm, one_ph = scaled_sum_arrays(lm[:, i:i + 1].copy(),
                                               ph[:, i:i + 1].copy())
            assert one_lm[0] == all_lm[i] and one_ph[0] == all_ph[i]

    def test_scaled_sum_arrays_zero_rows(self):
        lm = np.array([[NEG_INF], [NEG_INF]])
        ph = np.zeros((2, 1))
        out_lm, out_ph = scaled_sum_arrays(lm, ph)
        assert out_lm[0] == NEG_INF

    @staticmethod
    def _dense_scaled_sum(log_mags, phases):
        """Kept reference (numpy kernel): every summand exponentiated,
        underflowed or not, and added in order along axis 0."""
        hi = np.max(log_mags, axis=0, keepdims=True)
        hi_safe = np.where(np.isneginf(hi), 0.0, hi)
        scaled = np.exp(log_mags - hi_safe) * np.exp(1j * phases)
        scaled = np.where(np.isneginf(log_mags), 0.0, scaled)
        total = functools.reduce(np.add, scaled)
        hi = np.squeeze(hi_safe, axis=0)
        mag = np.abs(total)
        with np.errstate(divide="ignore"):
            out_log = np.where(mag > 0.0,
                               hi + np.log(np.where(mag > 0, mag, 1.0)), NEG_INF)
        return out_log, np.angle(total)

    @pytest.mark.parametrize("terms", [1, 2, 3, 4, 6, 9])
    def test_scaled_sum_arrays_bit_identical_to_dense(self, terms):
        rng = np.random.default_rng(terms)
        rows = 3000
        # mixed rows: magnitudes spread over the underflow edge, some zeros
        lm = rng.uniform(-1500.0, 10.0, (rows, terms))
        lm[rng.random((rows, terms)) < 0.15] = NEG_INF
        ph = rng.uniform(-math.pi, math.pi, (rows, terms))
        ph[rng.random((rows, terms)) < 0.1] = 0.0
        ph[rng.random((rows, terms)) < 0.05] = math.pi
        lm[:100] = NEG_INF                              # all-zero rows
        lm[100:200] = NEG_INF                           # single live term
        lm[np.arange(100, 200), rng.integers(0, terms, 100)] = \
            rng.uniform(-5, 5, 100)
        lm[200:300] = rng.uniform(-3.0, 3.0, (100, terms))  # all comparable
        for k, gap in enumerate((-745.0, -746.0, -745.1332, -745.14)):
            block = slice(300 + 50 * k, 350 + 50 * k)
            lm[block] = 2.0
            lm[block, -1] = 2.0 + gap                   # d right at the edge
        # rows holding one or two +inf summands beside finite ones
        inf_rows = 60
        top_lm = rng.uniform(-5.0, 5.0, (inf_rows, terms))
        top_ph = rng.uniform(-math.pi, math.pi, (inf_rows, terms))
        top_lm[np.arange(inf_rows), rng.integers(0, terms, inf_rows)] = math.inf
        top_lm[:20, -1] = math.inf
        if terms >= 3:
            # summands on each side of the underflow cut, zeros after them;
            # two +inf summands, the first with phase -0.0
            lm[-1], ph[-1] = NEG_INF, 0.0
            lm[-1, :3] = (0.0, -746.0, -745.9)
            ph[-1, :3] = (0.5, -0.0, math.pi)
            top_lm[-1], top_ph[-1, :3] = 0.0, (0.5, -0.0, 2.0)
            top_lm[-1, 1:3] = math.inf
        first = np.argmax(np.isposinf(top_lm), axis=1)
        want_top = (np.full(inf_rows, math.inf),
                    top_ph[np.arange(inf_rows), first])
        for r in range(inf_rows):  # the one-row sum agrees
            assert polar_sum(top_lm[r].tolist(), top_ph[r].tolist()) == (
                math.inf, want_top[1][r])
        # rows holding a NaN log-magnitude (beside finite, zero or +inf
        # summands) or a NaN phase on a summand that does not underflow
        nan_rows = 60
        nan_lm = rng.uniform(-5.0, 5.0, (nan_rows, terms))
        nan_ph = rng.uniform(-math.pi, math.pi, (nan_rows, terms))
        nan_lm[:10] = NEG_INF
        nan_lm[10:20:2, 0] = math.inf
        at = rng.integers(0, terms, nan_rows)
        nan_lm[np.arange(0, nan_rows, 2), at[::2]] = math.nan
        nan_ph[np.arange(1, nan_rows, 2), at[1::2]] = math.nan
        nan_lm[np.arange(1, nan_rows, 2), at[1::2]] = rng.uniform(-5.0, 5.0, 30)
        if terms >= 3:  # +inf beside NaN
            nan_lm[-1, :3], nan_ph[-1, :3] = (math.inf, math.nan, 1.0), (
                -0.0, 0.5, 1.0)
        all_lm = np.vstack([lm, top_lm, nan_lm])
        all_ph = np.vstack([ph, top_ph, nan_ph])
        top = slice(rows, rows + inf_rows)
        # the summands of a point go down a column
        got = scaled_sum_arrays(all_lm.T, all_ph.T)
        want = self._dense_scaled_sum(lm.T, ph.T)
        for g, w, w_top in zip(got, want, want_top):
            assert np.array_equal(g[:rows], w)
            assert np.array_equal(np.signbit(g[:rows]), np.signbit(w))
            assert np.array_equal(g[top], w_top)
        assert np.isnan(got[0][rows + inf_rows:]).all()


# ---------------------------------------------------------------------------
# CPolynomial
# ---------------------------------------------------------------------------

coeff_lists = st.lists(finite_complex, min_size=0, max_size=9)


class TestCPolynomial:
    def test_zero(self):
        p = CPolynomial()
        assert p.is_zero and p.degree == -1
        assert p(2.0) == 0j

    def test_trailing_zeros_stripped(self):
        assert CPolynomial([1, 0, 0]).degree == 0

    @given(coeff_lists, nonzero_complex)
    @settings(max_examples=200)
    def test_eval_matches_horner_oracle(self, coeffs, z):
        p = CPolynomial(coeffs)
        want = 0j
        for c in reversed(p.coeffs):
            want = want * z + c
        got, _ = p.eval_deriv(z)
        assert got == want

    def test_eval_deriv_against_finite_difference(self):
        p = CPolynomial([1, -2j, 3, 0.5j])
        z = 0.7 - 0.3j
        h = 1e-7
        _, d = p.eval_deriv(z)
        fd = (p(z + h) - p(z - h)) / (2 * h)
        assert abs(d - fd) <= 1e-6

    @given(coeff_lists)
    @settings(max_examples=200)
    def test_sup_bound_dominates_samples(self, coeffs):
        p = CPolynomial(coeffs)
        bound = p.sup_bound()
        for ang in np.linspace(0, 2 * math.pi, 16):
            assert abs(p(cmath.exp(1j * ang))) <= bound * (1 + 1e-9) + 1e-12

    def test_sup_bound_attained_for_positive_coeffs(self):
        p = CPolynomial([1, 2, 3])
        assert p.sup_bound() == pytest.approx(abs(p(1.0)), rel=1e-12)

    @given(coeff_lists)
    @settings(max_examples=200)
    def test_inf_lower_bound(self, coeffs):
        p = CPolynomial(coeffs)
        lb = p.inf_lower_bound()
        for ang in np.linspace(0, 2 * math.pi, 12):
            assert abs(p(cmath.exp(1j * ang))) >= lb - 1e-9

    def test_antiderivative_constant(self):
        # 5 minus the integral of -1 * (2t + 3t^2)'
        q = negated_dot_integral([(CPolynomial([-1]), CPolynomial([0, 2, 3]))],
                                 5)
        assert q(0) == 5 + 0j
        assert q == CPolynomial([5, 2, 3])

    def test_large_ints_exact(self):
        big = 2 ** 60 + 1
        assert CPolynomial([2 ** 53 + 1]).rational_coeffs[0][0] == 2 ** 53 + 1
        assert CPolynomial([big]).rational_coeffs[0][0] == big
        assert negated_dot_integral([], big).rational_coeffs == ((big, 0),)

    def test_sampler_golden(self):
        # exact coefficients of seeded sampler disks, recorded with the
        # earlier per-coefficient Fraction storage
        disks = random_avoiding_disks(2, 2, standard_obstacle(2, 6), 5,
                                      seed=11)
        text = "\n".join(f"{re} {im}" for f in disks for c in f.components
                         for re, im in c.rational_coeffs)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "02c727b2515918454b193f46695f5401c3c4f1d3952d94599717ccb51899299a")


def _float_view(get):
    """The complex128 view, or OverflowError if a value is out of range."""
    try:
        return get()
    except OverflowError:
        return OverflowError


def _assert_matches(p, want):
    """p is the Fraction polynomial want, in canonical storage."""
    assert p.rational_coeffs == want
    assert (p._num, p._den) == fo.storage(want)
    assert p.degree == len(want) - 1
    assert _float_view(lambda: p.coeffs) == _float_view(
        lambda: tuple(complex(float(re), float(im)) for re, im in want))


wide_floats = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([1e-300, -1e300, 1e300, 2.0 ** -1074, -0.0, 1.0]))
exact_reals = st.one_of(wide_floats, st.fractions(), st.integers(),
                        st.integers(-2 ** 200, 2 ** 200))
mixed_coeffs = st.one_of(exact_reals, st.tuples(exact_reals, exact_reals),
                         st.builds(complex, wide_floats, wide_floats))
mixed_lists = st.lists(mixed_coeffs, max_size=6)


def _curve(x, y, z):
    """The arguments of ``test_matches_fraction_oracle`` for the residual
    of the curve (x, y, z), n = 1, with z0 = 0 for its Legendrian disk."""
    return ([[*x]], [[*y]]), z, 0


class TestCPolynomialOracle:
    """Intake, the product, the packed residual z' + sum_j x_j y_j' of any
    curve, and the z of ``legendrian_from_xy``, against the ``Fraction``
    oracle in canonical storage."""

    @given(st.integers(1, 3).flatmap(lambda n: st.tuples(
        st.lists(mixed_lists, min_size=n, max_size=n),
        st.lists(mixed_lists, min_size=n, max_size=n))),
        mixed_lists, mixed_coeffs)
    @settings(max_examples=300, deadline=None)
    @example(([[]], [[1, 2]]), [], 0)  # x = 0: z is z0
    @example(([[1, 2]], [[5]]), [], Fraction(1, 3))  # y' = 0
    @example(([[0.5, -0.0, 0j]], [[0j, 3 + 0j, 0j]]), [], -0.0 + 0j)
    @example(([[2 ** 200, (1, Fraction(1, 3))], [1e-300j]],
              [[0, 0, 2 ** -1074 + 0j], [(0, 0), 1e300]]), [], 7)
    # each residual coefficient reaches its slot's bound: one bit narrower
    # and the digit no longer fits ...
    @example(*_curve([0], [0], [0, 0, 0, 1]))
    @example(*_curve([1 + 1j], [0, 1 - 1j], [0]))
    # ... and a bound of 2^7 fills a byte's sign bit: a slot of 8 bits
    # reads the digit 128 as -128
    @example(*_curve([0], [0], [0, 128]))
    @example(*_curve([8 + 8j], [0, 8 - 8j], [0]))
    @example(*_curve([0.5], [0, 3], [0, -1.5]))  # horizontal, zero
    @example(*_curve([], [], []))
    def test_matches_fraction_oracle(self, xy, cz, c):
        xs, ys = ([CPolynomial(cs) for cs in block] for block in xy)
        rx, ry = ([fo.poly(cs) for cs in block] for block in xy)
        for p, want in zip(xs + ys, rx + ry):
            _assert_matches(p, want)
        _assert_matches(xs[0] * ys[0], fo.mul(rx[0], ry[0]))
        curve = HolomorphicCurve(
            (*chain.from_iterable(zip(xs, ys)), CPolynomial(cz)))
        _assert_matches(horizontality_residual(curve),
                        fo.derivative_dot(rx, ry, fo.poly(cz)))
        f = legendrian_from_xy(xs, ys, c)
        _assert_matches(f.z, fo.legendrian_z(rx, ry, c))
        assert f.x == tuple(xs) and f.y == tuple(ys)
        assert horizontality_residual(f).is_zero

    @given(mixed_lists, mixed_lists, mixed_lists)
    @settings(max_examples=100, deadline=None)
    def test_canonical_form(self, ca, cb, cc):
        p, q, r = CPolynomial(ca), CPolynomial(cb), CPolynomial(cc)
        assert (p * q) * r == p * (q * r)
        assert hash((p * q) * r) == hash(p * (q * r))
        # p * t' is p, whatever denominator the packing went over
        p_again = derivative_dot([(p, CPolynomial([0, 1]))], CPolynomial())
        assert p_again == p and hash(p_again) == hash(p)
        # z' + p q' of the z that integrates -p q', from any z0
        z = negated_dot_integral([(p, q)], cc[0] if cc else 0)
        zero = derivative_dot([(p, q)], z)
        assert zero.is_zero and zero.degree == -1
        assert zero == CPolynomial() and hash(zero) == hash(CPolynomial())


# Exactness of the intake, the reduction and evaluation at zero, against
# the general intake path and the Fraction oracle.

def _at_zero(rational):
    """(p(0), p'(0)) of a Fraction polynomial, c_0 and c_1, each rounded to
    complex128 as the view rounds it (a part that rounds to -0.0 reads
    +0.0)."""
    pairs = list(rational[:2]) + [(0, 0)] * (2 - len(rational[:2]))
    return tuple(complex(float(re), float(im)) + 0j for re, im in pairs)


def _bits(z: complex) -> bytes:
    """The IEEE bytes of both parts, so -0.0 differs from 0.0."""
    return struct.pack("<dd", z.real, z.imag)


# near 2^+-1000, subnormal, signed zeros, the ends of float range, and any
# finite float
exact_floats = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.builds(math.ldexp,
              st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True),
              st.one_of(st.integers(940, 1024), st.integers(-1080, -940))),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.0 ** -1000, 2.0 ** -1060,
                     -(2.0 ** 1000), 2.2250738585072014e-308 / 3,
                     -2.2250738585072014e-308, 1e300, -1e300,
                     1.7976931348623157e308]))
numerators = st.one_of(st.integers(-2 ** 70, 2 ** 70),
                       st.sampled_from([0, 1, -1]))


class TestExactness:
    @given(st.lists(st.builds(complex, exact_floats, exact_floats),
                    max_size=10),
           st.lists(st.sampled_from([0j, -0j, complex(-0.0, 0.0)]),
                    max_size=3))
    @settings(max_examples=300)
    @example([], [])
    @example([complex(2.0 ** -1000, 3.0), 5e-324j, 1 + 0j], [])
    @example([complex(2.0 ** 1000, -0.0), 2.0 ** -1074 + 0j], [-0j, 0j])
    @example([complex(-0.0, -0.0)], [0j])
    @example([complex(5e-324, -1e300)], [])
    @example([0.5 + 0j, 1 + 0j], [])  # the top pair alone gives 2, not 1
    def test_complex_list_intake_equals_pair_intake(self, cs, zeros):
        # a list of Python complex values goes over its largest power-of-two
        # denominator; as (re, im) pairs it takes the general path, the lcm
        # of every part's denominator and one gcd reduction
        cs = cs + zeros
        for c in cs:
            assert _exact_parts(c) == _exact_parts((c.real, c.imag))
            assert _exact_complex(c) == _exact_complex((c.real, c.imag))
        p, q = CPolynomial(cs), CPolynomial([(c.real, c.imag) for c in cs])
        assert p == q and hash(p) == hash(q)
        assert (p._num, p._den) == (q._num, q._den)
        assert p.rational_coeffs == q.rational_coeffs == fo.poly(cs)

    @given(st.lists(st.tuples(numerators, numerators), max_size=10),
           st.integers(1, 2 ** 80), st.integers(1, 2 ** 40))
    @settings(max_examples=300)
    @example([], 12, 1)
    @example([(0, 0), (0, 0)], 5, 3)
    @example([(6, 0), (0, 0)], 1, 1)
    @example([(1, 0), (2, 4)], 2, 1)  # the top pair alone gives 2, not 1
    def test_store_equals_full_gcd_reduction(self, num, den, common):
        # a common factor makes most stored numerators reducible
        num = [(re * common, im * common) for re, im in num]
        den *= common
        p = CPolynomial._make(list(num), den)
        want = fo.poly((Fraction(re, den), Fraction(im, den)) for re, im in num)
        assert (p._num, p._den) == fo.storage(want)

    def test_products_store_reduced(self):
        disks = random_avoiding_disks(1, 2, standard_obstacle(1, 6), 3,
                                      seed=5)
        for f in disks:
            for a in f.components:
                for b in f.components:
                    p = derivative_dot([(a, b)], CPolynomial())
                    assert (p._num, p._den) == fo.storage(p.rational_coeffs)

    @given(st.lists(st.builds(complex, exact_floats, exact_floats),
                    max_size=6),
           st.lists(st.builds(complex, exact_floats, exact_floats),
                    max_size=4),
           st.sampled_from([0.0, -0.0, complex(0.0, -0.0),
                            complex(-0.0, -0.0)]))
    @settings(max_examples=300)
    @example([], [], 0.0)
    @example([3 + 0j], [], -0.0)
    @example([complex(-0.0, 5e-324), complex(0.0, -0.0), -0j], [],
             complex(-0.0, -0.0))
    @example([0.5 + 0j, 1 + 0j], [2 + 0j], complex(0.0, -0.0))
    def test_eval_at_zero_equals_fraction_oracle(self, ca, cb, zeta):
        # products reach parts that underflow from either side of zero;
        # at any signed zero p(0) = c_0 and p'(0) = c_1, each rounded once
        for p, want in ((CPolynomial(ca), fo.poly(ca)),
                        (CPolynomial(ca) * CPolynomial(cb),
                         fo.mul(fo.poly(ca), fo.poly(cb)))):
            try:
                p.coeffs
            except OverflowError:  # a product beyond float range
                continue
            want = _at_zero(want)
            assert list(map(_bits, p.eval_deriv(zeta))) == list(
                map(_bits, want))
            assert _bits(p(zeta)) == _bits(want[0])

    def test_curve_at_zero_equals_fraction_oracle(self):
        f = random_avoiding_disks(2, 2, standard_obstacle(2, 6), 1,
                                  seed=9)[0]
        at = [_at_zero(c.rational_coeffs) for c in f.components]
        for zeta in (0.0, -0.0, complex(0.0, -0.0)):
            assert list(map(_bits, f.at(zeta).flat())) == [
                _bits(v) for v, _ in at]
            assert list(map(_bits, f.derivative_at(zeta).flat())) == [
                _bits(d) for _, d in at]

    @given(st.lists(st.builds(complex, exact_floats, exact_floats),
                    max_size=6))
    @settings(max_examples=300)
    @example([complex(-0.0, 5e-324), complex(0.0, -0.0), -0j])
    @example([1 + 0j, complex(-0.0, 2.0 ** -1060), 0j, 0j])
    def test_kept_view_equals_computed_view(self, cs):
        # built from complex values, the view is kept from the input:
        # bit for bit the one the storage converts to
        p = CPolynomial(cs)
        assert p._coeffs is not None
        want = CPolynomial._make(list(p._num), p._den).coeffs
        assert list(map(_bits, p.coeffs)) == list(map(_bits, want))

    def test_view_holds_no_negative_zero(self):
        # -1 / 2^1100 rounds to -0.0 in int true division
        p = CPolynomial([(Fraction(-1, 2 ** 1100), Fraction(-3, 2 ** 1200)),
                         1])
        assert list(map(_bits, p.coeffs)) == [_bits(0j), _bits(1 + 0j)]


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

class TestSamplePolydisk:
    # the sha256 of the points' reprs, one point per line, pinned: the
    # seeded stream, sqrt and the complex exp of the phases, bit for bit
    @pytest.mark.parametrize("dim,R,count,seed,digest", [
        (1, 1.0, 1, 0, "df1969f21d1c9b66"),
        (2, 0.25, 2, 3, "30b0108756f20563"),
        (2, 0.25, 100, 99, "262ac79c808f461e"),
        (3, 0.9, 100, 7, "f9ca96df83532e55"),
        (4, 6.0, 1000, 17, "d8cdf94a2a28f507"),
        # subnormal radii; at 5e-324 parts underflow to zeros of both signs
        (2, 5e-324, 200, 5, "7d7686c6731520e2"),
        (3, 1e-320, 200, 6, "ee9e5f5a94f8ae37")],
        ids=["1-1.0-1-0", "2-0.25-2-3", "2-0.25-100-99", "3-0.9-100-7",
             "4-6.0-1000-17", "2-5e-324-200-5", "3-1e-320-200-6"])
    def test_equals_parent(self, dim, R, count, seed, digest):
        got = sample_polydisk(dim, R, count, seed=seed)
        assert type(got) is list and len(got) == count
        for g in got:
            assert type(g) is tuple and len(g) == dim
            assert all(type(c) is complex for c in g)
        text = "\n".join(" ".join(map(repr, g)) for g in got)
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest
        if R == 5e-324:
            signs = {math.copysign(1.0, part) for pt in got[2:] for c in pt
                     for part in (c.real, c.imag) if part == 0.0}
            assert signs == {1.0, -1.0}


    def test_structure(self):
        pts = sample_polydisk(3, 2.0, 50, seed=7)
        assert len(pts) == 50
        assert pts[0] == (0j, 0j, 0j)
        assert pts[1] == (2 + 0j, 2 + 0j, 2 + 0j)
        for p in pts:
            assert max(abs(c) for c in p) <= 2.0 + 1e-12

    def test_deterministic(self):
        assert sample_polydisk(2, 1.0, 30, seed=1) == \
            sample_polydisk(2, 1.0, 30, seed=1)

    def test_validation(self):
        with pytest.raises(ValueError):
            sample_polydisk(2, 1.0, 0, seed=1)
        with pytest.raises(ValueError):
            sample_polydisk(2, -1.0, 5, seed=1)
