import cmath
import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from contactfb.numeric import (
    CPolynomial,
    DEGREE_CAP,
    DegreeCapError,
    NEG_INF,
    ScaledComplex,
    log_add,
    log_sub,
    log_sum,
    monomial,
    poly_mul_capped,
    sample_polydisk,
    scaled_add,
    scaled_sum_arrays,
    wrap_phase,
)
from contactfb.obstacle import random_avoiding_disks, standard_obstacle

finite_complex = st.complex_numbers(allow_nan=False, allow_infinity=False,
                                    max_magnitude=1e6)
# subnormal magnitudes are excluded: the native-complex oracle itself loses
# precision below the normal float range
nonzero_complex = st.complex_numbers(allow_nan=False, allow_infinity=False,
                                     min_magnitude=1e-300, max_magnitude=1e6)


# ---------------------------------------------------------------------------
# ScaledComplex
# ---------------------------------------------------------------------------

class TestScaledComplex:
    def test_zero_sentinel(self):
        z = ScaledComplex.zero()
        assert z.is_zero
        assert z.to_complex() == 0j
        assert z.phase == 0.0

    def test_immutable(self):
        z = ScaledComplex(0.0, 0.0)
        with pytest.raises(AttributeError):
            z.phase = 1.0

    @given(nonzero_complex)
    @settings(max_examples=300)
    def test_roundtrip(self, z):
        back = ScaledComplex.from_complex(z).to_complex()
        assert abs(back - z) <= 1e-14 * abs(z)

    def test_roundtrip_extreme_magnitudes(self):
        # near the edge of native float range the log-magnitude must keep
        # enough precision for a 1e-14 relative round-trip
        for mag in (1e-300, 1e-120, 1e120, 1e290):
            for phase in (0.1, -2.5, 3.0):
                z = cmath.rect(mag, phase)
                back = ScaledComplex.from_complex(z).to_complex()
                assert abs(back - z) <= 1e-14 * abs(z)

    def test_to_complex_overflow(self):
        with pytest.raises(OverflowError):
            ScaledComplex(1e5, 0.0).to_complex()

    @given(nonzero_complex, nonzero_complex)
    @settings(max_examples=200)
    def test_add_matches_native(self, a, b):
        got = (ScaledComplex.from_complex(a) +
               ScaledComplex.from_complex(b)).to_complex()
        want = a + b
        assert abs(got - want) <= 1e-12 * (abs(a) + abs(b))

    def test_add_exact_cancellation(self):
        a = ScaledComplex.from_complex(3 + 4j)
        assert (a + ScaledComplex(a.log_mag, a.phase + math.pi)).is_zero
        assert (a + ScaledComplex.from_complex(-3 - 4j)).is_zero

    def test_add_huge_disparity(self):
        big = ScaledComplex(5e4, 0.3)
        small = ScaledComplex(-5e4, 1.0)
        s = big + small
        assert float(s.log_mag) == pytest.approx(5e4)
        assert s.phase == pytest.approx(0.3)

    def test_add_nan_propagates(self):
        nan, one = ScaledComplex(math.nan, 0.0), ScaledComplex(0.0, 0.0)
        assert math.isnan((nan + one).log_mag)
        assert math.isnan((one + nan).log_mag)
        assert math.isnan((one + ScaledComplex(0.0, math.nan)).log_mag)


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

    @given(st.floats(-10, 10))
    def test_wrap_phase(self, phi):
        w = wrap_phase(phi)
        assert -math.pi < w <= math.pi
        assert cmath.isclose(cmath.exp(1j * w), cmath.exp(1j * phi),
                             abs_tol=1e-12)

    def test_scaled_sum_arrays_matches_scalar(self):
        rng = np.random.default_rng(3)
        lm = rng.uniform(-5, 5, (20, 4))
        ph = rng.uniform(-math.pi, math.pi, (20, 4))
        got_lm, got_ph = scaled_sum_arrays(lm, ph)
        for r in range(20):
            acc = ScaledComplex.zero()
            for c in range(4):
                acc = acc + ScaledComplex(lm[r, c], ph[r, c])
            assert got_lm[r] == pytest.approx(float(acc.log_mag), abs=1e-10)
            assert got_ph[r] == pytest.approx(acc.phase, abs=1e-10)

    def test_scaled_sum_arrays_zero_rows(self):
        lm = np.array([[NEG_INF, NEG_INF]])
        ph = np.zeros((1, 2))
        out_lm, out_ph = scaled_sum_arrays(lm, ph)
        assert out_lm[0] == NEG_INF

    @staticmethod
    def _dense_scaled_sum(log_mags, phases, axis=-1):
        """Reference: every summand exponentiated, underflowed or not."""
        hi = np.max(log_mags, axis=axis, keepdims=True)
        hi_safe = np.where(np.isneginf(hi), 0.0, hi)
        scaled = np.exp(log_mags - hi_safe) * np.exp(1j * phases)
        scaled = np.where(np.isneginf(log_mags), 0.0, scaled)
        total = np.sum(scaled, axis=axis)
        hi = np.squeeze(hi_safe, axis=axis)
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
        first = np.argmax(np.isposinf(top_lm), axis=1)
        want_top = (np.full(inf_rows, math.inf),
                    top_ph[np.arange(inf_rows), first])
        for r in range(inf_rows):  # the scalar fold agrees
            acc = ScaledComplex.zero()
            for c in range(terms):
                with np.errstate(invalid="ignore"):  # inf - inf in the fold
                    acc = acc + ScaledComplex(top_lm[r, c], top_ph[r, c])
            assert acc.log_mag == math.inf
            assert acc.phase == pytest.approx(want_top[1][r], abs=1e-15)
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
        all_lm = np.vstack([lm, top_lm, nan_lm])
        all_ph = np.vstack([ph, top_ph, nan_ph])
        top = slice(rows, rows + inf_rows)
        for axis, t in ((-1, lambda a: a), (0, np.transpose)):
            got = scaled_sum_arrays(t(all_lm), t(all_ph), axis=axis)
            want = self._dense_scaled_sum(t(lm), t(ph), axis=axis)
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

    @given(coeff_lists)
    @settings(max_examples=200)
    def test_derivative_of_antiderivative_is_exact(self, coeffs):
        p = CPolynomial(coeffs)
        assert p.antiderivative(0).derivative() == p

    @given(coeff_lists, coeff_lists)
    @settings(max_examples=100)
    def test_product_rule_exact(self, ca, cb):
        a, b = CPolynomial(ca), CPolynomial(cb)
        lhs = (a * b).derivative()
        rhs = a.derivative() * b + a * b.derivative()
        assert lhs == rhs

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

    def test_exact_rational_coefficients(self):
        # (x / 3) * 3 == x must hold exactly at the coefficient level
        p = CPolynomial([1.0, 1.0])
        q = p.scale(Fraction(1, 3)).scale(3)
        assert q == p

    @given(coeff_lists, st.floats(0.1, 4.0))
    @settings(max_examples=200)
    def test_sup_bound_dominates_samples(self, coeffs, R):
        p = CPolynomial(coeffs)
        bound = p.sup_bound(R)
        for ang in np.linspace(0, 2 * math.pi, 16):
            assert abs(p(R * cmath.exp(1j * ang))) <= bound * (1 + 1e-9) + 1e-12

    def test_sup_bound_attained_for_positive_coeffs(self):
        p = CPolynomial([1, 2, 3])
        assert p.sup_bound(2.0) == pytest.approx(abs(p(2.0)), rel=1e-12)

    @given(coeff_lists)
    @settings(max_examples=200)
    def test_inf_lower_bound(self, coeffs):
        p = CPolynomial(coeffs)
        lb = p.inf_lower_bound()
        for ang in np.linspace(0, 2 * math.pi, 12):
            assert abs(p(cmath.exp(1j * ang))) >= lb - 1e-9

    def test_degree_cap(self):
        a = monomial(40)
        with pytest.raises(DegreeCapError):
            poly_mul_capped(a, a)
        assert poly_mul_capped(a, monomial(3)).degree == 43

    def test_antiderivative_constant(self):
        p = CPolynomial([2, 6])
        q = p.antiderivative(5)
        assert q(0) == 5 + 0j
        assert q.derivative() == p

    def test_large_ints_exact(self):
        big = 2 ** 60 + 1
        assert CPolynomial([2 ** 53 + 1]).rational_coeffs[0][0] == 2 ** 53 + 1
        assert CPolynomial([1]).scale(big).rational_coeffs[0][0] == big
        assert CPolynomial([1]).antiderivative(big).rational_coeffs[0] == (
            big, 0)

    def test_sampler_golden(self):
        # exact coefficients of seeded sampler disks, recorded with the
        # earlier per-coefficient Fraction storage
        disks = random_avoiding_disks(2, 2, standard_obstacle(2, 6), 5,
                                      seed=11)
        text = "\n".join(f"{re} {im}" for f in disks for c in f.components
                         for re, im in c.rational_coeffs)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "02c727b2515918454b193f46695f5401c3c4f1d3952d94599717ccb51899299a")


# Reference semantics: one (Fraction, Fraction) pair per coefficient, every
# operation done coefficient by coefficient in Fraction arithmetic.

def _oracle(coeffs):
    out = []
    for c in coeffs:
        if isinstance(c, tuple):
            out.append((Fraction(c[0]), Fraction(c[1])))
        elif isinstance(c, (int, Fraction)):
            out.append((Fraction(c), Fraction(0)))
        else:
            z = complex(c)
            out.append((Fraction(z.real), Fraction(z.imag)))
    while out and out[-1] == (0, 0):
        out.pop()
    return tuple(out)


def _oracle_add(a, b, sign=1):
    n = max(len(a), len(b))
    a = list(a) + [(0, 0)] * (n - len(a))
    b = list(b) + [(0, 0)] * (n - len(b))
    return _oracle([(ar + sign * br, ai + sign * bi)
                    for (ar, ai), (br, bi) in zip(a, b)])


def _oracle_mul(a, b):
    if not a or not b:
        return ()
    out = [(Fraction(0), Fraction(0))] * (len(a) + len(b) - 1)
    for i, (ar, ai) in enumerate(a):
        for j, (br, bi) in enumerate(b):
            re, im = out[i + j]
            out[i + j] = (re + ar * br - ai * bi, im + ar * bi + ai * br)
    return _oracle(out)


def _float_view(get):
    """The complex128 view, or OverflowError if a value is out of range."""
    try:
        return get()
    except OverflowError:
        return OverflowError


def _assert_matches(p, want):
    assert p.rational_coeffs == want
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


class TestCPolynomialOracle:
    @given(mixed_lists, mixed_lists, mixed_coeffs)
    @settings(max_examples=200, deadline=None)
    def test_matches_fraction_oracle(self, ca, cb, c):
        a, b = CPolynomial(ca), CPolynomial(cb)
        ra, rb, (cr, ci) = _oracle(ca), _oracle(cb), _oracle([c, 1])[0]
        _assert_matches(a, ra)
        _assert_matches(a + b, _oracle_add(ra, rb))
        _assert_matches(a - b, _oracle_add(ra, rb, -1))
        _assert_matches(a * b, _oracle_mul(ra, rb))
        _assert_matches(a.derivative(),
                        _oracle([(re * k, im * k)
                                 for k, (re, im) in enumerate(ra)][1:]))
        _assert_matches(a.antiderivative(c),
                        _oracle([(cr, ci)] + [(re / (k + 1), im / (k + 1))
                                              for k, (re, im) in enumerate(ra)]))
        _assert_matches(a.scale(c),
                        _oracle([(re * cr - im * ci, re * ci + im * cr)
                                 for re, im in ra]))

    @given(mixed_lists, mixed_lists, mixed_lists)
    @settings(max_examples=100, deadline=None)
    def test_canonical_form(self, ca, cb, cc):
        p, q, r = CPolynomial(ca), CPolynomial(cb), CPolynomial(cc)
        assert (p * q) * r == p * (q * r)
        assert hash((p * q) * r) == hash(p * (q * r))
        assert (p + q) - q == p and hash((p + q) - q) == hash(p)
        zero = p - p
        assert zero.is_zero and zero.degree == -1
        assert zero == CPolynomial() and hash(zero) == hash(CPolynomial())


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

class TestSamplePolydisk:
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
