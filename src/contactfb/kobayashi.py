"""Numerical bracketing of the directed Kobayashi norm and distance.

The directed norm of a tangent direction v at p is the infimum of 1/|lambda|
over horizontal disks f with f(0) = p, f'(0) = lambda v.  Lower bounds come
from the derivative-bound certificate of the obstacle module, which caps
|lambda v_coord| for every disk avoiding the standard obstacle.  Upper
bounds come from explicit certified disks.  Avoidance is certified by
coefficient sums, which a coefficient of degree >= 2 only loosens, so the
best such disk is linear: x_j = p_xj + lambda u_xj zeta (likewise y_j), z by
exact integration.  Its route bounds are monotone in lambda, so
``_largest_certified_scaling`` bisects for the largest certified scaling in
complex128 and re-certifies that disk exactly.  The contrapositive of the
derivative bound is the case p = 0, u = e_x1.  The distance estimator
integrates the full-space upper bound along a constructive horizontal path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .contact import (
    ContactPoint,
    HolomorphicCurve,
    KERNEL_TOL,
    TangentVector,
    alpha0_eval,
    chow_path,
    legendrian_from_xy,
)
from .numeric import CPolynomial, coeff_inf_lower_bound, coeff_sup_bound
from .obstacle import (
    BoundCertificate,
    DEFAULT_AVOIDANCE_MARGIN,
    ShellUnion,
    avoidance_routes,
    certify_avoidance,
    check_disk_dim,
)

#: Scalings, one ulp apart from the bisection's end down, that are rebuilt
#: exactly before ``_largest_certified_scaling`` reports that none certifies.
MAX_STEP_DOWNS = 64


@dataclass(frozen=True)
class SearchBudget:
    """Limits of the directed-norm upper bound: the complement domain
    bisects the scaling |lambda| over [0, lambda_budget], the full space
    uses lambda_budget itself; ``margin`` is the avoidance margin."""

    # Unread: perfbench/ still passes restarts, iterations and degree here,
    # a seed to directed_norm_bracket and restarts and iterations to
    # ExperimentConfig; ROADMAP item 6's benchmark change removes them.
    restarts: int = 32
    iterations: int = 60
    degree: int = 4
    lambda_budget: float = 1e3
    margin: float = DEFAULT_AVOIDANCE_MARGIN

    def __post_init__(self):
        if self.lambda_budget <= 0:
            raise ValueError("lambda_budget must be positive")


@dataclass(frozen=True)
class NormBracket:
    """Two-sided estimate of the directed norm at one (p, v)."""

    lower: float
    upper: float
    lower_certificate: BoundCertificate | None = None
    upper_witness: HolomorphicCurve | None = None

    def __post_init__(self):
        if math.isfinite(self.upper) and self.lower > self.upper + 1e-15:
            raise ValueError("bracket is inconsistent: lower > upper")


def _float_legendrian(xs, ys, z0) -> list[list[complex]]:
    """complex128 counterpart of ``contact.legendrian_from_xy``.

    ``xs``/``ys`` are coefficient lists in ascending powers.  Returns the
    components (x_1, y_1, ..., x_n, y_n, z) as coefficient lists, with
    z = z0 - integral of sum_j x_j y_j' formed by float convolution.
    """
    size = max(len(x) + len(y) - 2 for x, y in zip(xs, ys))
    integrand = [0j] * size
    for x, y in zip(xs, ys):
        for m in range(1, len(y)):
            dy = m * y[m]
            for i, xi in enumerate(x):
                integrand[i + m - 1] -= xi * dy
    comps = []
    for x, y in zip(xs, ys):
        comps.extend((x, y))
    comps.append([complex(z0)]
                 + [c / (k + 1) for k, c in enumerate(integrand)])
    return comps


def _certification_shortfall(components, K: ShellUnion, radii, margin: float):
    """(certified, total shortfall) of the avoidance routes for one disk.

    ``components`` are complex128 coefficient lists and ``radii`` is
    ``K.linear_shells()``.  The bounds are those of
    ``obstacle.certify_avoidance`` and the routes come from the same
    ``obstacle.avoidance_routes``, so ``certified`` is its verdict on the
    same coefficients; a certified disk has shortfall zero.
    """
    sup_max = max(coeff_sup_bound(components[d]) for d in K.shell_dims)
    inf_best = max(coeff_inf_lower_bound(components[d]) for d in K.shell_dims)
    inf_disk = coeff_inf_lower_bound(components[K.disk_dim])
    routes, shortfalls = avoidance_routes(sup_max, inf_best, inf_disk,
                                          radii, margin)
    total = 0.0
    for s in shortfalls:
        total += s
    return "uncertified" not in routes, total


# ---------------------------------------------------------------------------
# the largest certified linear disk
# ---------------------------------------------------------------------------

def _linear_xy(p: ContactPoint, u: TangentVector, lam: float):
    """x and y coefficient lists of the linear disk p + lam*u*zeta."""
    xs = [[pj, lam * uj] for pj, uj in zip(p.x, u.x)]
    ys = [[pj, lam * uj] for pj, uj in zip(p.y, u.y)]
    return xs, ys


def _linear_disk(p, u, lam: float) -> HolomorphicCurve:
    """The exact horizontal disk of ``_linear_xy``, z by integration."""
    xs, ys = _linear_xy(p, u, lam)
    return legendrian_from_xy([CPolynomial(c) for c in xs],
                              [CPolynomial(c) for c in ys], p.z)


def _largest_certified_scaling(p: ContactPoint, u: TangentVector,
                               K: ShellUnion, margin: float, cap: float):
    """(lam, witness): the largest lam in [0, cap] whose exact linear disk
    ``_linear_disk(p, u, lam)`` certifies avoidance of K, with that disk.

    The complex128 verdict bisects [0, cap] until the midpoint rounds onto
    an end, so the ends are adjacent floats; the certified end is rebuilt
    exactly and re-certified, one ulp lower at a time for at most
    ``MAX_STEP_DOWNS`` scalings.  Returns (0.0, None) if no positive
    scaling certifies.
    """
    check_disk_dim(2 * p.n + 1, K)
    radii = K.linear_shells()

    def certifies(lam):
        xs, ys = _linear_xy(p, u, lam)
        return _certification_shortfall(_float_legendrian(xs, ys, p.z), K,
                                         radii, margin)[0]

    lo, hi = (cap, cap) if certifies(cap) else (0.0, cap)
    mid = lo + (hi - lo) / 2
    while lo < mid < hi:
        if certifies(mid):
            lo = mid
        else:
            hi = mid
        mid = lo + (hi - lo) / 2
    lam = lo
    for _ in range(MAX_STEP_DOWNS):
        if lam <= 0.0:
            break
        witness = _linear_disk(p, u, lam)
        if certify_avoidance(witness.components, K, margin).certified:
            return lam, witness
        lam = math.nextafter(lam, 0.0)
    return 0.0, None


def directed_norm_upper(p: ContactPoint, v: TangentVector,
                        domain: str = "complement",
                        K: ShellUnion | None = None,
                        budget: SearchBudget | None = None):
    """Certified upper bound for the directed norm at (p, v), with witness.

    In the full space every direction admits a straight horizontal disk at
    any scaling, so the bound is maxnorm(v) / lambda_budget.  In the
    complement of K the witness is the largest certified linear disk with
    scaling at most lambda_budget; only certified disks are ever returned.
    Returns (upper, witness_disk); (inf, None) if nothing certifies.
    """
    if budget is None:
        budget = SearchBudget()
    if domain not in ("full_space", "complement"):
        raise ValueError("domain must be 'full_space' or 'complement'")
    if p.n != v.n:
        raise ValueError("dimension mismatch between point and vector")
    defect = alpha0_eval(p, v)
    if abs(defect) > KERNEL_TOL:
        raise ValueError(f"direction is not horizontal: alpha0(v) = {defect!r}")
    scale = v.maxnorm()
    if scale == 0.0:
        return 0.0, None
    # normalize so the bound is exactly 1-homogeneous in v
    u = v.scaled(1.0 / scale)

    if domain == "full_space":
        lam = budget.lambda_budget
        return scale / lam, _linear_disk(p, u, lam)

    if K is None:
        raise ValueError("complement domain requires the shell union K")
    lam, witness = _largest_certified_scaling(p, u, K, budget.margin,
                                              budget.lambda_budget)
    return (math.inf, None) if witness is None else (scale / lam, witness)


def directed_norm_lower(p: ContactPoint, v: TangentVector,
                        K: ShellUnion):
    """Certified lower bound for the directed norm in the complement of the
    standard obstacle, from the first-derivative cap at the center.

    Any avoiding horizontal disk with f(0) = p and f'(0) = lambda v has
    |lambda v_xj|, |lambda v_yj| < 2^(N0+1) and |lambda v_z| < 2^(2N0+1)
    for the minimal N0 >= 1 with p in the open 2^N0 polydisk, hence
    1/|lambda| > |v_coord| / bound for every coordinate.
    Returns (lower, certificate); 0 for the zero direction.
    """
    if p.n != v.n:
        raise ValueError("dimension mismatch between point and vector")
    defect = alpha0_eval(p, v)
    if abs(defect) > KERNEL_TOL:
        raise ValueError(f"direction is not horizontal: alpha0(v) = {defect!r}")
    m = p.maxnorm()
    N0 = 1
    while 2.0 ** N0 <= m:
        N0 += 1
    cert = BoundCertificate(N0=N0, n=p.n)
    best = 0.0
    for coord in (*v.x, *v.y):
        best = max(best, abs(coord) / cert.bound_xy)
    best = max(best, abs(v.z) / cert.bound_z)
    return best, cert


def directed_norm_bracket(p: ContactPoint, v: TangentVector, K: ShellUnion,
                          budget: SearchBudget | None = None,
                          seed: int = 0) -> NormBracket:
    """Two-sided estimate in the complement domain (``seed`` is unread)."""
    lower, cert = directed_norm_lower(p, v, K)
    upper, witness = directed_norm_upper(p, v, "complement", K, budget)
    return NormBracket(lower=lower, upper=upper, lower_certificate=cert,
                       upper_witness=witness)


# ---------------------------------------------------------------------------
# the integrated distance upper bound
# ---------------------------------------------------------------------------

def cck_distance_upper(p: ContactPoint, q: ContactPoint,
                       budget: SearchBudget | None = None, nodes: int = 64):
    """Upper bound for the horizontal-path distance from p to q in the full
    space.

    Builds a piecewise-polynomial horizontal path, applies the full-space
    directed upper bound at composite midpoint nodes of each segment, and
    sums the quadrature.  Valid up to quadrature error; the node count is
    reported with the value.  Returns (value, node_count).
    """
    if p.flat() == q.flat():
        return 0.0, 0
    plan = chow_path(p, q)
    total = 0.0
    used = 0
    for seg in plan.segments:
        h = 1.0 / nodes
        for m in range(nodes):
            t = (m + 0.5) * h
            pt = seg.at(t)
            vel = seg.derivative_at(t)
            if vel.maxnorm() == 0.0:
                continue
            upper, _ = directed_norm_upper(pt, vel, "full_space",
                                           budget=budget)
            total += upper * h
            used += 1
    return total, used


# ---------------------------------------------------------------------------
# the contrapositive of the derivative bound
# ---------------------------------------------------------------------------

def max_certified_x_derivative(K: ShellUnion, n: int = 1,
                               margin: float = DEFAULT_AVOIDANCE_MARGIN):
    """(value, witness): the supremum of |x_1'(0)| over horizontal disks
    centred at the origin whose avoidance of K certifies.

    At f(0) = 0 every inf bound is <= 0, so only the 'inside' route can
    certify, and its sup bound sum_k |c_k| >= |x_1'(0)|: a certified disk
    has |x_1'(0)| < a_1 - margin.  The witness is the largest certified
    linear disk x_1 = value * zeta, other components zero: value is the
    largest float below a_1 - margin; (0.0, None) if none certifies.
    """
    zero = (0j,) * n
    origin = ContactPoint(zero, zero, 0j)
    e_x1 = TangentVector((1 + 0j,) + zero[1:], zero, 0j)
    return _largest_certified_scaling(origin, e_x1, K, margin,
                                      K.shells[0].a)
