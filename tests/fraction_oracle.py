"""The exact reference for the tests of the exact layer and of the path
planner (``test_numeric``, ``test_contact``).

A polynomial is a tuple of (re, im) ``Fraction`` pairs in ascending powers
with no trailing zero pair, and every operation works coefficient by
coefficient in ``Fraction`` arithmetic.  Nothing here imports
``contactfb`` (``chow_path`` reads only the x, y, z and n of its points),
so the reference shares no code with what it checks.
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


def chow_path(p, q):
    """The planner's moves with each segment in Fraction arithmetic, as the
    coefficient pairs of its components.  Block by block, x_j and then y_j
    moves on t in [0, 1] from its value c to c + (target - c), every other
    x and y held, and z = z_start - the integral of sum_j x_j y_j'.  A move
    to the value a coordinate already has is skipped.  Then, if z is not
    q.z, a loop in block 0 adds delta = q.z - z: x_1 to x_1 - delta, y_1 to
    y_1 + 1, and both back.  The next z_start is the segment's end z as
    Horner gives it on the float view, as the planner reads it."""
    xy = [list(p.x), list(p.y)]
    z = complex(p.z)
    segments = []

    def move(block, j, target):
        nonlocal z
        if target == xy[block][j]:
            return
        lines = [[[c] for c in coords] for coords in xy]
        lines[block][j].append(target - xy[block][j])
        xs, ys = ([poly(c) for c in coords] for coords in lines)
        zs = legendrian_z(xs, ys, z)
        segments.append(tuple(c for xj, yj in zip(xs, ys) for c in (xj, yj))
                        + (zs,))
        xy[block][j] = target
        z = 0j
        for re, im in reversed(zs):
            z = z * (1 + 0j) + complex(float(re), float(im))

    for j in range(p.n):
        move(0, j, q.x[j])
        move(1, j, q.y[j])
    delta = q.z - z
    if delta != 0:
        base_x, base_y = xy[0][0], xy[1][0]
        move(0, 0, base_x - delta)
        move(1, 0, base_y + 1)
        move(0, 0, base_x)
        move(1, 0, base_y)
    return tuple(segments)
