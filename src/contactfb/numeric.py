"""Log-polar complex sums and exact dense polynomials.

Two representations carry the whole package:

* log-polar points -- a complex number as its log-modulus and phase, with
  -inf for zero.  A push-out orbit point, whose magnitudes like (4/3)**N
  with N in the tens of thousands lie far beyond float range, is two float
  lists (the log-moduli and the phases of its coordinates); a batch of m
  points is two coordinate-major (dim, m) arrays, whose columns are such
  lists and whose rows each hold one coordinate of every point.  The one
  operation is the sum: ``scaled_sum_arrays`` over the rows (axis 0) of
  arrays, and ``polar_sum`` over one list in Python floats, by the same
  rules.  Each factors out the largest summand, so no step overflows.  A
  shear step is one such sum per coordinate it moves, over that coordinate
  and the terms of the shear function.

* ``CPolynomial`` -- a dense complex polynomial with exact rational
  coefficients, stored fraction-free: Python int (re, im) numerator pairs
  over one shared positive int denominator.  Intake reads a list of Python
  complex numbers (the common case) in one pass: a float is n / 2^e, so
  the largest denominator is the common one and the numerators over it
  are already reduced.  Any other input (an (re, im) pair, a rational)
  is read exactly over the lcm of its denominators.  Each result is
  reduced once: the gcd of the denominator and the numerators is taken
  pair by pair from the highest power down and stops as soon as it
  reaches 1, which on packed results it usually does within the top few
  pairs.  Equal polynomials then have equal storage, which is what lets
  horizontality be verified as "the residual is the identically-zero
  polynomial" with zero tolerance.  Evaluation and
  sup bounds convert once to complex128 (correctly rounded); a polynomial
  built from Python complex values keeps them as that view, and a bound
  whose view would leave float range is vacuous (+inf or -inf) instead.

  The sum of products sum_j a_j * b_j' + c' is one packed integer
  evaluation, ``_dot_digits``: over one common denominator each real and
  imaginary part is read as an integer polynomial at X = 2^w, with w wide
  enough that every coefficient of the result is one signed base-2^w
  digit (Kronecker substitution), so a pair costs three big-integer
  products (Gauss) and the result is read back once, or not at all when
  it is zero.  Both its users read the digits once and reduce once:
  ``derivative_dot`` (the horizontality residual) takes them as they are,
  and ``negated_dot_integral`` (the z of a Legendrian disk, from
  ``c = 0``) negates them, divides digit k by k + 1 and puts z0 in front,
  so no product, sum or integrand polynomial is built on the way.  These
  two are the only exact operations that build a polynomial;
  ``CPolynomial.__mul__``, a schoolbook product, has no caller in the
  package and stays for the benchmark tracer, which patches it by name.
"""

from __future__ import annotations

import math
import numbers
from fractions import Fraction
from itertools import chain

import numpy as np

NEG_INF = float("-inf")

#: Cap on the degree of a Legendrian disk's products x_j y_j' and of its z
#: component, which ``contact.legendrian_from_xy`` enforces.
DEGREE_CAP = 64

# exp(x) is exactly 0.0 for every float x below about -745.13.
_EXP_UNDERFLOW_LOG = -746.0


class DegreeCapError(ValueError):
    """Raised when a Legendrian disk would exceed the polynomial degree cap."""


# ---------------------------------------------------------------------------
# log-domain helpers for nonnegative reals (zero encoded as -inf)
# ---------------------------------------------------------------------------

def log_add(la: float, lb: float) -> float:
    """log(exp(la) + exp(lb)) without overflow."""
    if la == NEG_INF:
        return lb
    if lb == NEG_INF:
        return la
    hi, lo = (la, lb) if la >= lb else (lb, la)
    return hi + math.log1p(math.exp(lo - hi))


def log_sum(logs) -> float:
    """log of the sum of nonnegative values given by their logs."""
    logs = [l for l in logs if l != NEG_INF]
    if not logs:
        return NEG_INF
    hi = max(logs)
    return hi + math.log(math.fsum(math.exp(l - hi) for l in logs))


def log_sub(la: float, lb: float) -> float:
    """log(exp(la) - exp(lb)); requires la > lb."""
    if lb == NEG_INF:
        return la
    if lb >= la:
        raise ValueError("log_sub requires a strictly positive difference")
    return la + math.log1p(-math.exp(lb - la))


# ---------------------------------------------------------------------------
# log-polar sums
# ---------------------------------------------------------------------------

def scaled_sum_arrays(log_mags: np.ndarray, phases: np.ndarray):
    """Vectorized complex sum in the log domain.

    ``log_mags``/``phases`` hold the polar data of the summands along axis
    0, and at least one point axis after it; returns (log_mag, phase)
    arrays of the summed values, with -inf marking exact zeros.  Used by
    the orbit classifier, which pushes thousands of points through shear
    maps at once: each summand (a coordinate, or one term of a shear
    function) is then a contiguous row over the points.

    Each summand is scaled by the largest one, exp(log_mag - max).  Only
    summands with a scaled log above ``_EXP_UNDERFLOW_LOG`` are
    exponentiated, in one flat gather of them and one scatter of their
    values; the rest (and the -inf zeros) are exact zeros, which change no
    nonzero sum, so the result is the one the dense sum gives.  In shear
    sums most points have one or two summands that survive.  The summands
    are added in order, row by row, so a value does not depend on the batch
    it is computed in.

    A sum with a +inf log-magnitude summand is +inf with the phase of the
    first such summand.  A NaN log-magnitude, or a NaN phase on a summand
    that does not underflow, makes the sum's log-magnitude NaN.
    """
    log_mags = np.asarray(log_mags, dtype=np.float64)
    phases = np.asarray(phases, dtype=np.float64)
    hi = np.max(log_mags, axis=0)
    top = hi == np.inf
    any_top = top.any()
    hi_safe = np.where(np.isinf(hi), 0.0, hi)
    d = log_mags - hi_safe
    dead = d <= _EXP_UNDERFLOW_LOG  # NaN stays live and propagates
    if any_top:
        dead |= top
    live = np.flatnonzero(np.logical_not(dead, out=dead))
    values = 1j * np.take(phases, live)
    np.exp(values, out=values)
    values *= np.exp(np.take(d, live))
    scaled = np.zeros(d.shape, dtype=np.complex128)
    scaled.ravel()[live] = values
    # np.sum would reassociate a reduction along a contiguous axis
    total = scaled[0]
    for row in scaled[1:]:
        total += row
    out_log = np.abs(total)
    zero = out_log == 0.0  # a NaN total stays NaN
    out_log[zero] = 1.0
    np.log(out_log, out=out_log)
    out_log += hi_safe
    out_log[zero] = NEG_INF
    out_phase = np.angle(total)
    if any_top:
        first = np.argmax(log_mags == np.inf, axis=0)
        out_log[top] = np.inf
        out_phase[top] = np.take_along_axis(
            phases, first[np.newaxis], axis=0)[0][top]
    return out_log, out_phase


def polar_sum(log_mags: list, phases: list) -> tuple[float, float]:
    """One column of ``scaled_sum_arrays`` in Python floats: the (log_mag,
    phase) of the sum of the summands with these log-moduli and phases.

    The rules are the same: the largest summand is factored out, a summand
    whose scaled log is at most ``_EXP_UNDERFLOW_LOG`` is an exact zero,
    and the rest are added in order.  A +inf summand makes the sum +inf
    with the phase of the first one, a NaN log-modulus propagates, and a
    sum of zeros only is (-inf, 0.0).  For the few summands of a single
    point this costs far less than a one-column array.
    """
    hi = max(log_mags)
    if math.isinf(hi) and not any(lm != lm for lm in log_mags):
        return (hi, phases[log_mags.index(hi)]) if hi > 0 else (NEG_INF, 0.0)
    total = 0j
    for lm, ph in zip(log_mags, phases):
        d = lm - hi
        if not d <= _EXP_UNDERFLOW_LOG:  # NaN stays live and propagates
            total += math.exp(d) * complex(math.cos(ph), math.sin(ph))
    mag = abs(total)
    return (hi + math.log(mag) if mag else NEG_INF,
            math.atan2(total.imag, total.real))


# ---------------------------------------------------------------------------
# CPolynomial
# ---------------------------------------------------------------------------

def _exact_real(x) -> tuple[int, int]:
    """(numerator, positive denominator) of a real number, exactly."""
    if isinstance(x, float):
        return x.as_integer_ratio()
    if isinstance(x, int):
        return x, 1
    f = Fraction(x)
    return f.numerator, f.denominator


def _exact_parts(c) -> tuple[tuple[int, int], tuple[int, int]]:
    """The (numerator, positive denominator) pairs of the real and the
    imaginary part of c, exactly.

    ``c`` is a Python complex (tested first: it is what the samplers and
    the disk builders pass), an (re, im) pair of reals, a rational number
    (int, Fraction), or anything else ``complex()`` accepts, whose float
    parts are read exactly.
    """
    if type(c) is complex:
        return c.real.as_integer_ratio(), c.imag.as_integer_ratio()
    if isinstance(c, tuple):
        return _exact_real(c[0]), _exact_real(c[1])
    if isinstance(c, numbers.Rational):
        return _exact_real(c), (0, 1)
    z = complex(c)
    return z.real.as_integer_ratio(), z.imag.as_integer_ratio()


def _exact_complex(c) -> tuple[int, int, int]:
    """(re, im, den) with c == (re + im*1j) / den exactly and den > 0."""
    (rn, rd), (im, id_) = _exact_parts(c)
    den = math.lcm(rd, id_)
    return rn * (den // rd), im * (den // id_), den


class CPolynomial:
    """Dense complex polynomial with exact rational coefficients.

    Coefficients are given in ascending powers; trailing zeros are stripped.
    The zero polynomial has no coefficients and degree -1.  Storage is
    fraction-free: coefficient k is ``(re_k + im_k*1j) / den`` with Python
    int numerator pairs and one positive int denominator, kept in canonical
    form (no trailing zero pair, gcd of ``den`` and every numerator 1), so
    equal polynomials have equal storage.  Exact results are built outside
    the class, by ``derivative_dot`` and ``negated_dot_integral``, as
    integer work followed by one reduction; evaluation and the sup/inf
    bounds go through complex128.
    """

    __slots__ = ("_num", "_den", "_rat", "_coeffs")

    def __init__(self, coeffs=()):
        coeffs = list(coeffs)
        if all(type(c) is complex for c in coeffs):
            # a float is n / 2^e in lowest terms, so the largest denominator
            # is the common one, each numerator goes over it by a shift,
            # and the part that has it keeps its odd n: the numerators over
            # it are already reduced
            parts = [x.as_integer_ratio() for c in coeffs
                     for x in (c.real, c.imag)]
            den = max([d for _, d in parts], default=1)
            e = den.bit_length()
            nums = iter([n << (e - d.bit_length()) for n, d in parts])
            num = list(zip(nums, nums))
            while num and num[-1] == (0, 0):
                num.pop()
            object.__setattr__(self, "_num", tuple(num))
            object.__setattr__(self, "_den", den)
            object.__setattr__(self, "_rat", None)
            # an exact float is its own correctly rounded view; + 0j turns
            # -0.0 into 0.0, and the view stops where the storage does
            object.__setattr__(self, "_coeffs", tuple(
                [c + 0j for c in coeffs[:len(num)]]))
            return
        # every part goes over the lcm of all the parts' denominators at once
        parts = [_exact_parts(c) for c in coeffs]
        den = math.lcm(*(d for part in parts for _, d in part))
        self._store([(rn * (den // rd), im * (den // id_))
                     for (rn, rd), (im, id_) in parts], den)

    @classmethod
    def _make(cls, num: list, den: int) -> "CPolynomial":
        """Polynomial with coefficients num[k] / den (den > 0)."""
        p = object.__new__(cls)
        p._store(num, den)
        return p

    def _store(self, num: list, den: int) -> None:
        while num and num[-1] == (0, 0):
            num.pop()
        # gcd(den, every numerator), highest pair first; it is final at 1
        g = den
        for re, im in reversed(num):
            if g == 1:
                break
            g = math.gcd(g, re, im)
        if g != 1:
            num = [(re // g, im // g) for re, im in num]
            den //= g
        object.__setattr__(self, "_num", tuple(num))
        object.__setattr__(self, "_den", den)
        object.__setattr__(self, "_rat", None)
        object.__setattr__(self, "_coeffs", None)

    def __setattr__(self, name, value):
        raise AttributeError("CPolynomial is immutable")

    # -- basic structure ------------------------------------------------

    @property
    def coeffs(self) -> tuple[complex, ...]:
        """complex128 view; int true division rounds correctly, and a part
        that underflows reads 0.0, never -0.0 (``eval_deriv`` relies on
        this at z == 0)."""
        out = self._coeffs
        if out is None:
            den = self._den
            out = tuple(complex(re / den + 0.0, im / den + 0.0)
                        for re, im in self._num)
            object.__setattr__(self, "_coeffs", out)
        return out

    @property
    def rational_coeffs(self) -> tuple[tuple[Fraction, Fraction], ...]:
        out = self._rat
        if out is None:
            den = self._den
            out = tuple((Fraction(re, den), Fraction(im, den))
                        for re, im in self._num)
            object.__setattr__(self, "_rat", out)
        return out

    @property
    def degree(self) -> int:
        return len(self._num) - 1

    @property
    def is_zero(self) -> bool:
        return not self._num

    def __eq__(self, other) -> bool:
        if not isinstance(other, CPolynomial):
            return NotImplemented
        return self._den == other._den and self._num == other._num

    def __hash__(self) -> int:
        return hash((self._num, self._den))

    def __repr__(self) -> str:
        return f"CPolynomial({list(self.coeffs)!r})"

    # -- exact product ---------------------------------------------------

    # No package code multiplies two polynomials; the product stays because
    # perfbench/tracer.py patches it by name (span ``numeric.poly_mul``),
    # and ROADMAP item 6's benchmark change removes it.
    def __mul__(self, other: "CPolynomial") -> "CPolynomial":
        if self.is_zero or other.is_zero:
            return CPolynomial()
        a, b = self._num, other._num
        out_re = [0] * (len(a) + len(b) - 1)
        out_im = out_re[:]
        for i, (ar, ai) in enumerate(a):
            for k, (br, bi) in enumerate(b, i):
                out_re[k] += ar * br - ai * bi
                out_im[k] += ar * bi + ai * br
        return CPolynomial._make(list(zip(out_re, out_im)),
                                 self._den * other._den)

    # -- evaluation ------------------------------------------------------

    def __call__(self, z: complex) -> complex:
        return self.eval_deriv(z)[0]

    def eval_deriv(self, z: complex) -> tuple[complex, complex]:
        """Horner evaluation of p(z) and p'(z).

        At any zero z (of either sign in either part) Horner returns c_0
        and c_1 bit for bit, so they are read directly: every product with
        z is a signed zero, and adding a signed zero to a part changes it
        only if the part is -0.0, which the view never holds.
        """
        z = complex(z)
        if z == 0:
            c = self.coeffs
            return (c[0] if c else 0j), (c[1] if len(c) > 1 else 0j)
        acc = 0j
        dacc = 0j
        for c in reversed(self.coeffs):
            dacc = dacc * z + acc
            acc = acc * z + c
        return acc, dacc

    def sup_bound(self) -> float:
        """Certified upper bound sum_k |c_k| for sup over the closed unit
        disk, summed highest power first; +inf when a coefficient or its
        modulus lies past float range."""
        total = 0.0
        try:
            for c in reversed(self.coeffs):
                total += abs(c)
        except OverflowError:
            return math.inf
        return total

    def inf_lower_bound(self) -> float:
        """Certified lower bound |c_0| - sum_{k>=1} |c_k| (exactly summed)
        for inf over the closed unit disk (may be negative, in which case
        it is vacuous); 0 for the zero polynomial, and -inf when a
        coefficient, its modulus or the moduli's sum lies past float
        range."""
        if not self._num:
            return 0.0
        try:
            coeffs = self.coeffs
            return abs(coeffs[0]) - math.fsum(map(abs, coeffs[1:]))
        except OverflowError:
            return NEG_INF


_ZERO = CPolynomial()


def _height(num) -> int:
    """The largest |part| over the (re, im) numerator pairs; 0 for none."""
    return max(map(abs, chain.from_iterable(num)), default=0)


def _pack(num, w: int, derive: bool) -> tuple[int, int]:
    """The real and the imaginary numerator polynomial at X = 2^w, of the
    polynomial itself or, with ``derive``, of its derivative."""
    re = im = 0
    if derive:
        for k in range(len(num) - 1, 0, -1):
            r, i = num[k]
            re = (re << w) + k * r
            im = (im << w) + k * i
    else:
        for r, i in reversed(num):
            re = (re << w) + r
            im = (im << w) + i
    return re, im


def _dot_digits(pairs, plus: CPolynomial) -> tuple[int, list]:
    """(D, digits): D * (sum_j a_j * b_j' + plus') is the polynomial whose
    coefficients are the (re, im) int pairs of ``digits``, a list that is
    empty when the result is zero and may end in zero pairs otherwise.

    Every term goes over one denominator D, a multiple of each d_a d_b and
    of d_plus, and the derivatives are taken inside the packing, so none is
    built and reduced on its own.  The real and the imaginary part of every
    coefficient of D times the result are bounded by
    sum_j 2 min(len a_j, deg b_j) H(a_j) deg(b_j) H(b_j) D / (d_aj d_bj)
    plus deg(plus) H(plus) D / d_plus, H the largest numerator part (so
    deg(b) H(b) bounds the parts of b'), and the slot width w, a whole
    number of bytes, puts 2^(w-1) above that bound.  So the real and the
    imaginary part of the result at X = 2^w, two Python ints summed with
    three products per pair (Gauss), hold each coefficient as one signed
    base-2^w digit.  When both are 0 no digit is read; otherwise 2^(w-1)
    is added to every digit, which makes each one a shift and a mask.
    """
    pairs = [(a._num, b._num, a._den * b._den) for a, b in pairs
             if a._num and len(b._num) > 1]
    den = math.lcm(plus._den, *[d for _, _, d in pairs])
    m = len(plus._num) - 1
    bound = m * _height(plus._num) * (den // plus._den) if m > 0 else 0
    for a, b, d in pairs:
        la, lb = len(a), len(b) - 1
        bound += 2 * min(la, lb) * lb * (den // d) * _height(a) * _height(b)
        m = max(m, la + lb - 1)
    nbytes = (bound.bit_length() >> 3) + 1
    w = nbytes << 3
    re, im = _pack(plus._num, w, True)
    if re or im:
        s = den // plus._den
        re *= s
        im *= s
    for a, b, d in pairs:
        ar, ai = _pack(a, w, False)
        br, bi = _pack(b, w, True)
        rr, ii = ar * br, ai * bi
        s = den // d
        re += (rr - ii) * s
        im += ((ar + ai) * (br + bi) - rr - ii) * s
    if not (re or im):
        return den, []
    half = 1 << (w - 1)
    bias = int.from_bytes((bytes(nbytes - 1) + b"\x80") * m, "little")
    re += bias
    im += bias
    mask = (1 << w) - 1
    return den, [(((re >> k) & mask) - half, ((im >> k) & mask) - half)
                 for k in range(0, w * m, w)]


def derivative_dot(pairs, plus: CPolynomial) -> CPolynomial:
    """sum_j a_j * b_j' + plus' over the (a_j, b_j) of ``pairs``, exactly:
    the digits of ``_dot_digits`` over their denominator, reduced once to
    the canonical form every ``CPolynomial`` is stored in."""
    den, digits = _dot_digits(pairs, plus)
    return CPolynomial._make(digits, den)


def negated_dot_integral(pairs, z0=0) -> CPolynomial:
    """z0 minus the antiderivative of sum_j a_j * b_j' that vanishes at 0,
    exactly: the digits of ``_dot_digits`` are integrated as they are read,
    with no product, sum or integrand polynomial built between.  Digit k
    over D integrates to coefficient k + 1, -digit_k / ((k + 1) D), which
    over L D, L = lcm(1..number of digits), is -digit_k * (L // (k + 1));
    it and z0 go over one denominator and are reduced once."""
    den, digits = _dot_digits(pairs, _ZERO)
    cr, ci, cd = _exact_complex(z0)
    L = math.lcm(*range(1, len(digits) + 1))
    zden = math.lcm(L * den, cd)
    s = -(zden // (L * den))
    c = zden // cd
    out = [(cr * c, ci * c)]
    for k, (re, im) in enumerate(digits, 1):
        w = s * (L // k)
        out.append((re * w, im * w))
    return CPolynomial._make(out, zden)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def sample_polydisk(dim: int, R: float, count: int, seed: int):
    """Deterministic samples of the closed polydisk of max-norm radius R.

    The first sample is the origin and the second has every coordinate
    equal to R; the rest are uniform on the polydisk (per-coordinate
    uniform on the closed disk of radius R).
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if R <= 0:
        raise ValueError("R must be > 0")
    rng = np.random.default_rng(seed)
    out = [tuple(0j for _ in range(dim))]
    if count >= 2:
        out.append(tuple(complex(R, 0.0) for _ in range(dim)))
    extra = count - len(out)
    if extra > 0:
        radii = R * np.sqrt(rng.random((extra, dim)))
        angles = rng.uniform(-math.pi, math.pi, (extra, dim))
        pts = radii * np.exp(1j * angles)
        # tolist gives the same Python complex values as complex() of each
        # element, in one call
        out.extend(map(tuple, pts.tolist()))
    return out
