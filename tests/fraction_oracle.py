"""The exact reference for the tests of the exact layer (``test_numeric``,
``test_contact``).

A polynomial is a tuple of (re, im) ``Fraction`` pairs in ascending powers
with no trailing zero pair, and every operation works coefficient by
coefficient in ``Fraction`` arithmetic.  Nothing here imports
``contactfb``, so the reference shares no code with what it checks.
"""

import math
from fractions import Fraction


def pair(c):
    """(re, im) of one coefficient as Fractions: a Python complex (its
    float parts read exactly), an (re, im) pair of reals, or a real."""
    if isinstance(c, tuple):
        return Fraction(c[0]), Fraction(c[1])
    if isinstance(c, complex):
        return Fraction(c.real), Fraction(c.imag)
    return Fraction(c), Fraction(0)


def strip(pairs):
    out = list(pairs)
    while out and out[-1] == (0, 0):
        out.pop()
    return tuple(out)


def poly(coeffs):
    """The polynomial with these coefficients, of any kind ``pair`` reads."""
    return strip(map(pair, coeffs))


def add(*polys):
    size = max(map(len, polys), default=0)
    out = [(Fraction(0), Fraction(0))] * size
    for a in polys:
        for k, (re, im) in enumerate(a):
            out[k] = (out[k][0] + re, out[k][1] + im)
    return strip(out)


def neg(a):
    return tuple((-re, -im) for re, im in a)


def mul(a, b):
    if not a or not b:
        return ()
    out = [(Fraction(0), Fraction(0))] * (len(a) + len(b) - 1)
    for i, (ar, ai) in enumerate(a):
        for j, (br, bi) in enumerate(b):
            re, im = out[i + j]
            out[i + j] = (re + ar * br - ai * bi, im + ar * bi + ai * br)
    return strip(out)


def derivative(a):
    return tuple((k * re, k * im) for k, (re, im) in enumerate(a))[1:]


def antiderivative(a, constant=0):
    """constant plus the antiderivative of a that vanishes at 0."""
    return strip([pair(constant)] + [(re / k, im / k)
                                     for k, (re, im) in enumerate(a, 1)])


def derivative_dot(xs, ys, plus=()):
    """sum_j x_j * y_j' + plus'."""
    return add(derivative(plus),
               *(mul(x, derivative(y)) for x, y in zip(xs, ys)))


def legendrian_z(xs, ys, z0=0):
    """z0 minus the antiderivative of sum_j x_j * y_j' that vanishes at 0:
    the z that makes (x_1, y_1, ..., z) horizontal, z' + sum_j x_j y_j' = 0."""
    return antiderivative(neg(derivative_dot(xs, ys)), z0)


def storage(a):
    """The canonical fraction-free form of a: (numerator pairs, den) with
    den the least common denominator, so gcd(den, every numerator) is 1."""
    den = math.lcm(*(part.denominator for c in a for part in c))
    return tuple(((re * den).numerator, (im * den).numerator)
                 for re, im in a), den
