import cmath
import functools
import hashlib
import math
import struct
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from contactfb.numeric import (
    CPolynomial,
    DEGREE_CAP,
    DegreeCapError,
    NEG_INF,
    _exact_complex,
    _exact_parts,
    log_add,
    log_sub,
    log_sum,
    poly_mul_capped,
    polar_sum,
    sample_polydisk,
    scaled_sum_arrays,
)
from contactfb.obstacle import random_avoiding_disks, standard_obstacle

finite_complex = st.complex_numbers(allow_nan=False, allow_infinity=False,
                                    max_magnitude=1e6)
# subnormal magnitudes are excluded: the native-complex oracle itself loses
# precision below the normal float range
nonzero_complex = st.complex_numbers(allow_nan=False, allow_infinity=False,
                                     min_magnitude=1e-300, max_magnitude=1e6)
# summands anywhere from far below the underflow cut to +inf, exact zeros,
# NaN, and values right at the cut beside a summand at 0
summand_logs = st.one_of(
    st.floats(-2000.0, 50.0),
    st.sampled_from([NEG_INF, math.inf, math.nan, 0.0, -745.0,
                     -745.1332191019411, -745.14, -746.0, -800.0]))
summand_phases = st.one_of(
    st.floats(-4.0, 4.0),
    st.sampled_from([0.0, -0.0, math.pi, -math.pi, math.nan]))


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


def _masked_scaled_sum(log_mags, phases):
    """``scaled_sum_arrays`` by boolean masks over a (summands, ...) complex
    zero array, the kernel the flat gather and scatter replaced, kept as
    its bit-for-bit reference."""
    hi = np.max(log_mags, axis=0)
    top = hi == np.inf
    hi_safe = np.where((hi == NEG_INF) | top, 0.0, hi)
    d = log_mags - hi_safe
    live = ~(d <= -746.0) & ~top
    scaled = np.zeros_like(d, dtype=np.complex128)
    scaled[live] = np.exp(d[live]) * np.exp(1j * phases[live])
    total = scaled[0].copy()
    for row in scaled[1:]:
        total += row
    mag = np.abs(total)
    zero = mag == 0.0
    out_log = np.where(zero, NEG_INF,
                       hi_safe + np.log(np.where(zero, 1.0, mag)))
    out_phase = np.angle(total)
    if top.any():
        first = np.argmax(log_mags == np.inf, axis=0)
        out_log = np.where(top, np.inf, out_log)
        out_phase = np.where(top, np.take_along_axis(
            phases, first[np.newaxis], axis=0)[0], out_phase)
    return out_log, out_phase


def _same_bits(got, want):
    """Equal bit patterns, except that any NaN equals any NaN (an IEEE sum
    of two NaNs keeps the first one's payload, so a commuted sum may keep
    the other)."""
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want)
    nan = np.isnan(want)
    return (got.shape == want.shape and np.array_equal(np.isnan(got), nan)
            and np.array_equal(got[~nan].view(np.uint64),
                               want[~nan].view(np.uint64)))


# columns of 1-8 summands, some rows far below the column's top, so that
# they underflow beside it
summand_columns = st.integers(1, 8).flatmap(lambda rows: st.lists(
    st.tuples(
        st.lists(st.one_of(summand_logs, st.just(-0.0)),
                 min_size=rows, max_size=rows),
        st.lists(summand_phases, min_size=rows, max_size=rows),
        st.lists(st.booleans(), min_size=rows, max_size=rows),
        st.floats(746.0, 3000.0)),
    min_size=1, max_size=6))


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

    @settings(max_examples=500, deadline=None)
    @given(st.integers(1, 9).flatmap(lambda terms: st.tuples(
        st.lists(summand_logs, min_size=terms, max_size=terms),
        st.lists(summand_phases, min_size=terms, max_size=terms))))
    @example(([0.0, math.inf, 1.0, math.inf], [0.5, -2.0, 1.0, 3.0]))
    @example(([0.0, math.nan, 1.0], [0.5, -2.0, 1.0]))
    @example(([math.nan, math.inf], [0.5, -2.0]))
    @example(([NEG_INF, NEG_INF, NEG_INF], [0.5, -2.0, math.pi]))
    @example(([0.0, -745.1332191019411, -745.14, -746.0],
              [0.5, -2.0, 1.0, math.nan]))
    @example(([0.0, -745.1332191019411], [0.5, math.nan]))
    # log-moduli one ulp apart at |hi| = 162: |g - w| = 2.85e-14
    @example(([-200.0, -201.0, -162.23108921936773, -192.1321057977034,
               -200.0, -200.0, -192.1328125, -192.130859375],
              [0.0, 0.0, -3.5225300495792595, 3.830078125, 0.0, 0.0,
               3.141592653589793, 3.141592653589793]))
    def test_polar_sum_equals_array_row(self, row):
        log_mags, phases = row
        got = polar_sum(log_mags, phases)
        want = _row_sum(log_mags, phases)
        if math.isnan(want[0]) or math.isinf(want[0]):
            # +inf, NaN and zero sums follow the same rules exactly
            assert np.array_equal(got, want, equal_nan=True)
            return
        # otherwise both are the sum relative to the largest summand, to
        # the rounding of exp, log and the angle; each returned log is
        # hi + log|sum| rounded at the scale of |hi|, so the two may lie an
        # ulp or two of |hi| apart, which moves |w| by that much relative
        hi = max(log_mags)
        g = cmath.rect(math.exp(got[0] - hi), got[1])
        w = cmath.rect(math.exp(want[0] - hi), want[1])
        assert abs(g - w) <= 1e-14 + 4 * abs(w) * math.ulp(abs(hi))
        if abs(w) >= 0.1:  # away from cancellation the logs agree too
            assert got[0] == pytest.approx(want[0], rel=1e-14, abs=1e-14)


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

    def test_scaled_sum_arrays_matches_scalar(self):
        rng = np.random.default_rng(3)
        lm = rng.uniform(-5, 5, (20, 4))
        ph = rng.uniform(-math.pi, math.pi, (20, 4))
        got_lm, got_ph = scaled_sum_arrays(lm.T, ph.T)
        for r in range(20):
            want_lm, want_ph = polar_sum(lm[r].tolist(), ph[r].tolist())
            assert got_lm[r] == pytest.approx(want_lm, abs=1e-10)
            assert got_ph[r] == pytest.approx(want_ph, abs=1e-10)

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

    @settings(max_examples=200, deadline=None)
    @given(summand_columns)
    @example([([0.0, -746.0, -745.9], [0.5, -0.0, math.pi], [False] * 3,
               800.0)])
    @example([([math.inf, math.nan, 1.0], [-0.0, 0.5, 1.0], [False] * 3,
               800.0),
              ([1.0, math.inf, math.inf], [0.5, -0.0, 2.0], [False] * 3,
               800.0)])
    def test_scaled_sum_arrays_equals_masked_kernel(self, columns):
        # summands go down the columns; a row flagged "sunk" is moved
        # below the column's finite top by more than the underflow cut
        lms, phs = [], []
        for lm, ph, sunk, gap in columns:
            top = max([x for x in lm if math.isfinite(x)], default=0.0)
            lms.append([top - gap if s else x for x, s in zip(lm, sunk)])
            phs.append(ph)
        log_mags, phases = np.array(lms).T, np.array(phs).T
        with np.errstate(invalid="ignore", over="ignore"):
            got = scaled_sum_arrays(log_mags, phases)
            want = _masked_scaled_sum(log_mags, phases)
        for g, w in zip(got, want):
            assert _same_bits(g, w)

    def test_scaled_sum_arrays_zero_rows(self):
        lm = np.array([[NEG_INF], [NEG_INF]])
        ph = np.zeros((2, 1))
        out_lm, out_ph = scaled_sum_arrays(lm, ph)
        assert out_lm[0] == NEG_INF

    @staticmethod
    def _dense_scaled_sum(log_mags, phases):
        """Reference: every summand exponentiated, underflowed or not, and
        added in order along axis 0."""
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

    def test_degree_cap(self):
        a = CPolynomial([0] * 40 + [1])  # t^40
        with pytest.raises(DegreeCapError):
            poly_mul_capped(a, a)
        assert poly_mul_capped(a, CPolynomial([0, 0, 0, 1])).degree == 43

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


# Exactness of the intake, the reduction and evaluation at zero, each
# against the straightforward rule it replaces.

def _full_gcd_reduction(num, den):
    """Canonical storage by one gcd over the denominator and every
    numerator: the rule ``CPolynomial._store`` must match."""
    num = list(num)
    while num and num[-1] == (0, 0):
        num.pop()
    g = math.gcd(den, *(v for pair in num for v in pair))
    return tuple((re // g, im // g) for re, im in num), den // g


def _horner(coeffs, z):
    """(p(z), p'(z)) by Horner over the complex128 view, at any z."""
    acc = dacc = 0j
    for c in reversed(coeffs):
        dacc = dacc * z + acc
        acc = acc * z + c
    return acc, dacc


def _bits(z: complex) -> bytes:
    """The IEEE bytes of both parts, so -0.0 differs from 0.0."""
    return struct.pack("<dd", z.real, z.imag)


edge_floats = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.0 ** -1060,
                     -2.2250738585072014e-308, 1e300, -1e300,
                     1.7976931348623157e308]))
numerators = st.one_of(st.integers(-2 ** 70, 2 ** 70),
                       st.sampled_from([0, 1, -1]))


class TestExactness:
    @given(edge_floats, edge_floats)
    @settings(max_examples=300)
    @example(-0.0, -0.0)
    @example(5e-324, -1e300)
    def test_complex_intake_equals_pair_intake(self, re, im):
        assert _exact_parts(complex(re, im)) == _exact_parts((re, im))
        assert _exact_complex(complex(re, im)) == _exact_complex((re, im))
        assert CPolynomial([complex(re, im)]) == CPolynomial([(re, im)])

    @given(st.lists(st.tuples(numerators, numerators), max_size=10),
           st.integers(1, 2 ** 80), st.integers(1, 2 ** 40))
    @settings(max_examples=300)
    @example([], 12, 1)
    @example([(0, 0), (0, 0)], 5, 3)
    @example([(6, 0), (0, 0)], 1, 1)
    @example([(1, 0), (2, 4)], 2, 1)  # the top pair alone gives 2, not 1
    def test_store_equals_full_gcd_reduction(self, num, den, common):
        # a common factor makes most examples reducible
        num = [(re * common, im * common) for re, im in num]
        den *= common
        p = CPolynomial._make(list(num), den)
        assert (p._num, p._den) == _full_gcd_reduction(num, den)

    def test_products_store_reduced(self):
        disks = random_avoiding_disks(1, 2, standard_obstacle(1, 6), 3,
                                      seed=5)
        for f in disks:
            for a in f.components:
                for b in f.components:
                    p = a * b.derivative()
                    assert (p._num, p._den) == _full_gcd_reduction(p._num,
                                                                   p._den)

    @given(st.lists(st.builds(complex, edge_floats, edge_floats),
                    max_size=6),
           st.lists(st.builds(complex, edge_floats, edge_floats),
                    max_size=4),
           st.sampled_from([0.0, -0.0, complex(0.0, -0.0),
                            complex(-0.0, -0.0)]))
    @settings(max_examples=300)
    def test_eval_at_zero_equals_horner(self, ca, cb, zeta):
        # products reach parts that underflow from either side of zero
        for p in (CPolynomial(ca), CPolynomial(ca) * CPolynomial(cb)):
            try:
                coeffs = p.coeffs
            except OverflowError:  # a product beyond float range
                continue
            got, want = p.eval_deriv(zeta), _horner(coeffs, complex(zeta))
            assert list(map(_bits, got)) == list(map(_bits, want))
            assert _bits(p(zeta)) == _bits(want[0])

    def test_curve_at_zero_equals_horner(self):
        f = random_avoiding_disks(2, 2, standard_obstacle(2, 6), 1,
                                  seed=9)[0]
        for zeta in (0.0, -0.0, complex(0.0, -0.0)):
            at = [_horner(c.coeffs, complex(zeta)) for c in f.components]
            assert list(map(_bits, f.at(zeta).flat())) == [
                _bits(v) for v, _ in at]
            assert list(map(_bits, f.derivative_at(zeta).flat())) == [
                _bits(d) for _, d in at]

    @given(st.lists(st.builds(complex, edge_floats, edge_floats),
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

def _parent_sample_polydisk(dim, R, count, seed):
    """``sample_polydisk`` with one ``complex()`` per element, the form that
    ``tolist`` replaced, kept as its reference."""
    rng = np.random.default_rng(seed)
    out = [tuple(0j for _ in range(dim))]
    if count >= 2:
        out.append(tuple(complex(R, 0.0) for _ in range(dim)))
    extra = count - len(out)
    if extra > 0:
        radii = R * np.sqrt(rng.random((extra, dim)))
        angles = rng.uniform(-math.pi, math.pi, (extra, dim))
        pts = radii * np.exp(1j * angles)
        out.extend(tuple(complex(z) for z in row) for row in pts)
    return out


class TestSamplePolydisk:
    @pytest.mark.parametrize("dim,R,count,seed", [
        (1, 1.0, 1, 0), (2, 0.25, 2, 3), (2, 0.25, 100, 99), (3, 0.9, 100, 7),
        (4, 6.0, 1000, 17),
        # subnormal radii; at 5e-324 parts underflow to zeros of both signs
        (2, 5e-324, 200, 5), (3, 1e-320, 200, 6)])
    def test_equals_parent(self, dim, R, count, seed):
        got = sample_polydisk(dim, R, count, seed=seed)
        want = _parent_sample_polydisk(dim, R, count, seed)
        assert type(got) is list and len(got) == len(want) == count
        for g, w in zip(got, want):
            assert type(g) is tuple and len(g) == dim
            assert all(type(c) is complex for c in g)
            assert list(map(repr, g)) == list(map(repr, w))
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
