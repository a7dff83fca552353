"""The standard contact form dz + sum_j x_j dy_j on C^(2n+1), exact
Legendrian disk algebra, pullbacks under shear compositions, and a
constructive horizontal path planner.

Coordinates are ordered (x_1, y_1, ..., x_n, y_n, z) wherever curves or
automorphisms act on flat coordinate tuples.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .numeric import (
    CPolynomial,
    DEGREE_CAP,
    DegreeCapError,
    derivative_dot,
    poly_mul_capped,
)

KERNEL_TOL = 1e-12  # absolute tolerance for "v lies in ker alpha0 at p"


@dataclass(frozen=True)
class _Blocks:
    """Coordinates of C^(2n+1) split into (x, y, z) blocks.

    Equality holds only between instances of the same class, so a point
    never equals a tangent vector with the same blocks.
    """

    x: tuple[complex, ...]
    y: tuple[complex, ...]
    z: complex

    def __post_init__(self):
        if len(self.x) != len(self.y):
            raise ValueError("x and y blocks must have equal length")
        object.__setattr__(self, "x", tuple(complex(v) for v in self.x))
        object.__setattr__(self, "y", tuple(complex(v) for v in self.y))
        object.__setattr__(self, "z", complex(self.z))

    @property
    def n(self) -> int:
        return len(self.x)

    @classmethod
    def from_flat(cls, coords):
        coords = [complex(c) for c in coords]
        if len(coords) % 2 == 0 or len(coords) < 3:
            raise ValueError("flat coordinates must have odd length >= 3")
        return cls(tuple(coords[0:-1:2]), tuple(coords[1:-1:2]), coords[-1])

    def flat(self) -> tuple[complex, ...]:
        out = []
        for xj, yj in zip(self.x, self.y):
            out.extend((xj, yj))
        out.append(self.z)
        return tuple(out)

    def maxnorm(self) -> float:
        return max(abs(c) for c in self.flat())


@dataclass(frozen=True)
class ContactPoint(_Blocks):
    """Point of C^(2n+1) split into (x, y, z) blocks."""


@dataclass(frozen=True)
class TangentVector(_Blocks):
    """Tangent vector with the same block shape as ContactPoint."""

    def scaled(self, c: complex) -> "TangentVector":
        return TangentVector(tuple(c * v for v in self.x),
                             tuple(c * v for v in self.y), c * self.z)


@dataclass(frozen=True)
class HolomorphicCurve:
    """Polynomial map C -> C^(2n+1), components ordered (x1, y1, ..., z)."""

    components: tuple[CPolynomial, ...]

    def __post_init__(self):
        comps = tuple(self.components)
        if len(comps) % 2 == 0 or len(comps) < 3:
            raise ValueError("component count must be odd and >= 3")
        object.__setattr__(self, "components", comps)

    @property
    def n(self) -> int:
        return (len(self.components) - 1) // 2

    @property
    def x(self) -> tuple[CPolynomial, ...]:
        return self.components[0:-1:2]

    @property
    def y(self) -> tuple[CPolynomial, ...]:
        return self.components[1:-1:2]

    @property
    def z(self) -> CPolynomial:
        return self.components[-1]

    def at(self, zeta: complex) -> ContactPoint:
        vals = [c(zeta) for c in self.components]
        return ContactPoint.from_flat(vals)

    def derivative_at(self, zeta: complex) -> TangentVector:
        vals = [c.eval_deriv(zeta)[1] for c in self.components]
        return TangentVector.from_flat(vals)


@dataclass(frozen=True)
class PathPlan:
    """Chain of horizontal polynomial arcs, each traced on t in [0, 1]."""

    segments: tuple[HolomorphicCurve, ...]

    def endpoint(self) -> ContactPoint | None:
        if not self.segments:
            return None
        return self.segments[-1].at(1.0)


# ---------------------------------------------------------------------------
# the contact form and horizontality
# ---------------------------------------------------------------------------

def alpha0_eval(p: ContactPoint, v: TangentVector) -> complex:
    """alpha0(v) at p, where alpha0 = dz + sum_j x_j dy_j."""
    if p.n != v.n:
        raise ValueError("dimension mismatch between point and vector")
    return v.z + sum(xj * vyj for xj, vyj in zip(p.x, v.y))


def check_horizontal(p: ContactPoint, v: TangentVector) -> None:
    """Raise ValueError unless p and v are finite and v lies in the kernel
    of alpha0 at p, to absolute ``KERNEL_TOL``; a non-finite coordinate is
    named by its block and index, e.g. ``point x[0]``."""
    for name, blocks in (("point", p), ("direction", v)):
        for block in ("x", "y"):
            for j, c in enumerate(getattr(blocks, block)):
                if not cmath.isfinite(c):
                    raise ValueError(
                        f"{name} {block}[{j}] is not finite: {c!r}")
        if not cmath.isfinite(blocks.z):
            raise ValueError(f"{name} z is not finite: {blocks.z!r}")
    defect = alpha0_eval(p, v)
    if abs(defect) > KERNEL_TOL:
        raise ValueError(f"direction is not horizontal: alpha0(v) = {defect!r}")


def horizontality_residual(f: HolomorphicCurve) -> CPolynomial:
    """The exact coefficient-level polynomial z' + sum_j x_j * y_j'.

    The curve is horizontal iff this is the zero polynomial.  It is one
    packed integer evaluation (``numeric.derivative_dot``), exact.
    """
    return derivative_dot(zip(f.x, f.y), f.z)


def legendrian_from_xy(x_polys, y_polys, z0=0) -> HolomorphicCurve:
    """Horizontal curve with prescribed x and y components.

    The z component is the exact antiderivative of -sum_j x_j y_j' with
    z(0) = z0, so the horizontality residual of the result is identically
    zero at the coefficient level.
    """
    x_polys = tuple(x_polys)
    y_polys = tuple(y_polys)
    if len(x_polys) != len(y_polys):
        raise ValueError("x and y component counts differ")
    terms = [poly_mul_capped(xj, yj.derivative())
             for xj, yj in zip(x_polys, y_polys)]
    integrand = -sum(terms[1:], terms[0]) if terms else CPolynomial()
    z = integrand.antiderivative(z0)
    if z.degree > DEGREE_CAP:
        raise DegreeCapError(f"z degree {z.degree} exceeds cap {DEGREE_CAP}")
    comps = []
    for xj, yj in zip(x_polys, y_polys):
        comps.extend((xj, yj))
    comps.append(z)
    return HolomorphicCurve(tuple(comps))


def legendrian_line(p: ContactPoint, nu: TangentVector) -> HolomorphicCurve:
    """The quadratic Legendrian curve through p with velocity nu.

    Componentwise: x_j = p_xj + nu_xj*t, y_j = p_yj + nu_yj*t and
    z = p_z + nu_z*t - sum_j nu_xj*nu_yj*t^2/2.  Requires nu in the kernel
    of the contact form at p (checked to absolute 1e-12).
    """
    check_horizontal(p, nu)
    xs = tuple(CPolynomial([pj, vj]) for pj, vj in zip(p.x, nu.x))
    ys = tuple(CPolynomial([pj, vj]) for pj, vj in zip(p.y, nu.y))
    # Rebuild z by exact integration of -sum x_j y_j'; this both matches the
    # closed quadratic formula and absorbs the (tolerated) kernel defect so
    # the residual is exactly zero.
    return legendrian_from_xy(xs, ys, p.z)


# ---------------------------------------------------------------------------
# pullback under shear compositions
# ---------------------------------------------------------------------------

def _tangent_walk(maps, p: ContactPoint, tan: np.ndarray):
    """(Phi(p), dPhi_p tan) for the composition Phi of the maps, applied
    left to right by their ``tangent_step(vec, tan)``: ``vec`` is a list of
    Python complex numbers, ``tan`` a complex128 vector or the columns of a
    (dim, c) array.  Raises OverflowError, with no numpy warning, once the
    point leaves native float range, or if the tangent has left it at the
    end (a non-finite entry never turns finite again)."""
    vec = list(p.flat())
    with np.errstate(over="ignore", invalid="ignore"):
        for m in maps:
            vec, tan = m.tangent_step(vec, tan)
            if not all(map(cmath.isfinite, vec)):
                raise OverflowError("point escaped native float range")
    if not np.isfinite(tan).all():
        raise OverflowError("tangent escaped native float range")
    return vec, tan


def pullback_eval(maps, p: ContactPoint, v: TangentVector) -> complex:
    """alpha0 at Phi(p) applied to dPhi_p . v, where Phi is the composition
    of the shear maps (maps[0] first) walked by ``_tangent_walk``; the empty
    sequence is the identity, for which this is exactly ``alpha0_eval``.
    Raises OverflowError if the value leaves native float range."""
    if p.n != v.n:
        raise ValueError("dimension mismatch between point and vector")
    vec, tan = _tangent_walk(maps, p, np.asarray(v.flat(), np.complex128))
    value = alpha0_eval(ContactPoint.from_flat(vec),
                        TangentVector.from_flat(tan.tolist()))
    if not cmath.isfinite(value):
        raise OverflowError("pullback value escaped native float range")
    return value


def composition_jacobian(maps, p: ContactPoint) -> np.ndarray:
    """Jacobian matrix of the composition at p: the identity's columns
    pushed through ``_tangent_walk`` (the chain rule)."""
    return _tangent_walk(maps, p, np.eye(2 * p.n + 1, dtype=complex))[1]


# ---------------------------------------------------------------------------
# constructive horizontal path planner
# ---------------------------------------------------------------------------

def chow_path(p: ContactPoint, q: ContactPoint) -> PathPlan:
    """Piecewise-affine horizontal path from p to q.

    Per block j: move x_j with y and z frozen (horizontal since y' = z' = 0),
    then move y_j with x_j held, z following z' = -x_j y_j'.  The leftover
    z-displacement is then corrected by one rectangular loop in the
    (x_1, y_1) block whose side product equals the required correction.
    At most 2n + 4 <= 4n + 2 segments, each built by ``legendrian_from_xy``,
    so every horizontality residual is identically zero.
    """
    if p.n != q.n:
        raise ValueError("dimension mismatch between endpoints")
    cur_x = list(p.x)
    cur_y = list(p.y)
    cur_z = complex(p.z)
    segments: list[HolomorphicCurve] = []

    def add_move(block, j, target):
        """Move coordinate j of ``block`` (cur_x or cur_y) to target."""
        nonlocal cur_z
        if target == block[j]:
            return
        xs = [CPolynomial([v]) for v in cur_x]
        ys = [CPolynomial([v]) for v in cur_y]
        (xs if block is cur_x else ys)[j] = CPolynomial(
            [block[j], target - block[j]])
        seg = legendrian_from_xy(xs, ys, cur_z)
        segments.append(seg)
        block[j] = target
        cur_z = seg.z(1.0)

    for j in range(p.n):
        add_move(cur_x, j, q.x[j])
        add_move(cur_y, j, q.y[j])

    delta = q.z - cur_z
    if delta != 0:
        # Rectangular loop in block 0: net z change is -s*t; with t = 1 and
        # s = -delta the loop contributes exactly +delta and returns
        # (x_1, y_1) to their values.
        s = -delta
        base_x = cur_x[0]
        base_y = cur_y[0]
        add_move(cur_x, 0, base_x + s)
        add_move(cur_y, 0, base_y + 1)
        add_move(cur_x, 0, base_x)
        add_move(cur_y, 0, base_y)

    return PathPlan(tuple(segments))
