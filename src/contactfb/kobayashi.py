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
derivative bound is the case p = 0, u = e_x1.  The distance bound sums the
full-space upper bound over the segments of a constructive horizontal
path; each segment is affine, so the sum is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .contact import (
    ContactPoint,
    HolomorphicCurve,
    TangentVector,
    check_horizontal,
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
    standard_obstacle,
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


def _certification_shortfall(components, K: ShellUnion, radii, margin: float):
    """(certified, routes) of one disk given as complex128 coefficient lists.

    ``radii`` is ``K.linear_shells()``.  The bounds are those of
    ``obstacle.certify_avoidance`` and the routes come from the same
    ``obstacle.avoidance_routes``, so ``certified`` is its verdict on the
    same coefficients.
    """
    # The name and the pair are kept because perfbench/tracer.py patches
    # this function by name and reads [0]; ROADMAP item 6 renames both.
    sup_max = max(coeff_sup_bound(components[d]) for d in K.shell_dims)
    inf_best = max(coeff_inf_lower_bound(components[d]) for d in K.shell_dims)
    inf_disk = coeff_inf_lower_bound(components[K.disk_dim])
    routes = avoidance_routes(sup_max, inf_best, inf_disk, radii, margin)
    return "uncertified" not in routes, routes


# ---------------------------------------------------------------------------
# the largest certified linear disk
# ---------------------------------------------------------------------------

def _linear_xy(p: ContactPoint, u: TangentVector, lam: float):
    """x and y coefficient lists of the linear disk p + lam*u*zeta."""
    xs = [[pj, lam * uj] for pj, uj in zip(p.x, u.x)]
    ys = [[pj, lam * uj] for pj, uj in zip(p.y, u.y)]
    return xs, ys


def _float_linear_disk(p: ContactPoint, u: TangentVector, lam: float):
    """complex128 coefficient lists (x_1, y_1, ..., x_n, y_n, z) of
    ``_linear_disk(p, u, lam)``: z = p_z - sum_j x_j0 y_j1 zeta
    - (sum_j x_j1 y_j1) zeta^2 / 2."""
    xs, ys = _linear_xy(p, u, lam)
    z1 = z2 = 0j
    for (x0, x1), (_, y1) in zip(xs, ys):
        z1 -= x0 * y1
        z2 -= x1 * y1
    return [c for xy in zip(xs, ys) for c in xy] + [[p.z, z1, z2 / 2]]


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
        return _certification_shortfall(_float_linear_disk(p, u, lam), K,
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
    check_horizontal(p, v)
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
    ``cert.ratio(lambda v) < 1`` for the certificate ``cert`` of the minimal
    N0 >= 1 with p in the open 2^N0 polydisk, hence 1/|lambda| >
    ``cert.ratio(v)``.  Returns (lower, certificate); 0 for the zero
    direction.

    The lemma is about the standard obstacle, and a truncated one leaves
    everything beyond its last shell free.  So the bound is issued only if
    K equals ``standard_obstacle(p.n, i_max)`` band for band, on the radii
    it keeps, with i_max its number of shells, and the certificate covers
    N0 (N0 < i_max); otherwise the result is (0.0, None).  N0 < i_max is no
    wider than a counterexample allows: at p = (3, 40, 0), v = e_x on
    ``standard_obstacle(1, 6)`` (N0 = 6) the cap gives 1/128, while a
    linear disk certifies the upper bound 1e-3.  The range that the
    lemma's proof covers for a truncation is still open (ROADMAP item 1).
    """
    check_horizontal(p, v)
    m = p.maxnorm()
    N0 = 1
    while 2.0 ** N0 <= m:
        N0 += 1
    try:
        cert = BoundCertificate(N0=N0, n=p.n, i_max=len(K.shells))
    except ValueError:  # p lies beyond the last shell
        return 0.0, None
    if K != standard_obstacle(p.n, cert.i_max):
        return 0.0, None
    return cert.ratio(v), cert


def directed_norm_bracket(p: ContactPoint, v: TangentVector, K: ShellUnion,
                          budget: SearchBudget | None = None,
                          seed: int = 0) -> NormBracket:
    """Two-sided estimate in the complement domain (``seed`` is unread)."""
    lower, cert = directed_norm_lower(p, v, K)
    upper, witness = directed_norm_upper(p, v, "complement", K, budget)
    return NormBracket(lower=lower, upper=upper, lower_certificate=cert,
                       upper_witness=witness)


# ---------------------------------------------------------------------------
# the path distance upper bound
# ---------------------------------------------------------------------------

def cck_distance_upper(p: ContactPoint, q: ContactPoint,
                       budget: SearchBudget | None = None) -> float:
    """Upper bound for the horizontal-path distance from p to q in the full
    space.

    Every segment of ``chow_path(p, q)`` is affine in t on [0, 1], so its
    velocity v is constant and the length bound is exactly the sum, over
    segments, of the full-space directed upper bound maxnorm(v) /
    lambda_budget (``directed_norm_upper``'s value, without its witness
    disk); 0.0 when p = q.
    """
    lam = (budget or SearchBudget()).lambda_budget
    return math.fsum(seg.derivative_at(0.0).maxnorm() / lam
                     for seg in chow_path(p, q).segments)


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
                                      K.linear_shells()[0][0])
