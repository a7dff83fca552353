"""Numerical bracketing of the directed Kobayashi norm and distance.

The directed norm of a tangent direction v at p is the infimum of 1/|lambda|
over horizontal disks f with f(0) = p, f'(0) = lambda v.  Lower bounds come
from the derivative-bound certificate of the obstacle module, which caps
|lambda v_coord| for every disk avoiding the standard obstacle.  Upper
bounds come from explicit certified disks.  Avoidance is certified by
coefficient sums, which a coefficient of degree >= 2 only loosens, so the
best such disk is linear: x_j = p_xj + lambda u_xj zeta (likewise y_j), z by
exact integration.  In exact arithmetic its route bounds are monotone in
lambda, so the certified scalings run from 0 up to a largest one.  In
complex128 they are not quite: the z coefficients are sums of rounded
products, and the z bound can move by an ulp against lambda.  So
``_largest_certified_scaling`` bisects on the complex128 verdict only to
propose a scaling, and the exact rebuild of that disk decides.  Each
bisection step is one scalar verdict, ``_certification_shortfall``: what
does not depend on lambda (centre moduli, directions, each shell's route
limits) is built once per search, and a step forms only lambda*u, z1 and
z2/2 and stops at the first shell that no route certifies.  The
contrapositive of the derivative bound is the case p = 0, u = e_x1.  The
distance bound sums the full-space upper bound over the segments of a
constructive horizontal path; each segment is affine, so the sum is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, NamedTuple

from .contact import (
    ContactPoint,
    HolomorphicCurve,
    TangentVector,
    check_horizontal,
    chow_path,
    legendrian_from_xy,
)
from .numeric import CPolynomial
from .obstacle import (
    BoundCertificate,
    DEFAULT_AVOIDANCE_MARGIN,
    ShellUnion,
    certify_avoidance,
    check_disk_dim,
    check_margin,
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
        if not 0.0 < self.lambda_budget < math.inf:
            raise ValueError("lambda_budget must be finite and positive, "
                             f"got {self.lambda_budget!r}")
        check_margin(self.margin)


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


class _DiskSearch(NamedTuple):
    """What the verdict on the linear disk p + lam*u*zeta reads that does
    not depend on lam, built once per search by ``_disk_search``."""

    rows: tuple        # per j: (p_xj, u_xj, u_yj, |p_xj|, |p_yj|)
    z_mod: float       # |p_z|
    shell_read: Callable  # the bounds of K.shell_dims, as a tuple
    disk_dim: int
    limits: tuple      # per shell: (a - margin, b + margin, c + margin)


def _disk_search(p: ContactPoint, u: TangentVector, K: ShellUnion,
                 margin: float) -> _DiskSearch:
    dims = K.shell_dims
    # an itemgetter of one index returns the item bare, so the first index
    # is read once more; a repeated item cannot change a max
    return _DiskSearch(
        tuple(zip(p.x, u.x, u.y, map(abs, p.x), map(abs, p.y))), abs(p.z),
        itemgetter(*dims, dims[0]), K.disk_dim,
        tuple((a - margin, b + margin, c + margin)
              for a, b, c in K.linear_shells()))


def _certification_shortfall(search: _DiskSearch, lam: float):
    """(certified, first_failed_shell) of the complex128 linear disk
    p + lam*u*zeta: x_j = p_xj + (lam u_xj) zeta (likewise y_j) and
    z = p_z + z1 zeta + (z2 / 2) zeta^2, z1 = -sum_j p_xj (lam u_yj),
    z2 = -sum_j (lam u_xj)(lam u_yj).

    Only lam*u, z1 and z2/2 are formed per call, by the same complex128
    operations in the same order as the coefficient lists that the
    bisection once built, and each bound is summed as
    ``CPolynomial.sup_bound`` and ``CPolynomial.inf_lower_bound`` sum it:
    sup = 0.0 + |c1| + |c0| (0.0 + |c1| is |c1|), inf = |c0| - fsum of the
    rest (the fsum of one term is that term).  The routes are those of
    ``obstacle.certify_avoidance``, tried shell by shell, so ``certified``
    is its verdict on those coefficients; the first shell that no route
    certifies (1-based) is returned with False, None with True.
    """
    # The name and [0] are kept because perfbench/tracer.py patches this
    # function by name and reads [0]; ROADMAP item 6 renames both.
    rows, z_mod, shell_read, disk_dim, limits = search
    sups = []
    infs = []
    z1 = z2 = 0j
    for x0, ux, uy, x0_mod, y0_mod in rows:
        x1 = lam * ux
        y1 = lam * uy
        z1 -= x0 * y1
        z2 -= x1 * y1
        x1_mod = abs(x1)
        y1_mod = abs(y1)
        sups += (x1_mod + x0_mod, y1_mod + y0_mod)
        infs += (x0_mod - x1_mod, y0_mod - y1_mod)
    z1_mod = abs(z1)
    z2_mod = abs(z2 / 2)
    sups.append(z2_mod + z1_mod + z_mod)
    infs.append(z_mod - math.fsum((z1_mod, z2_mod)))
    sup_max = max(shell_read(sups))
    inf_best = max(shell_read(infs))
    inf_disk = infs[disk_dim]
    for i, (inside, outside, z_escape) in enumerate(limits, start=1):
        if not (sup_max < inside or inf_best > outside or inf_disk > z_escape):
            return False, i
    return True, None


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
    """(lam, witness): a lam in [0, cap] whose exact linear disk
    ``_linear_disk(p, u, lam)`` certifies avoidance of K, with that disk.

    The complex128 verdict bisects [0, cap] until the midpoint rounds onto
    an end, so the ends are adjacent floats.  The verdict is monotone in
    lam only up to an ulp of its z bound, so the certified end is a
    proposal: it is rebuilt exactly and re-certified, one ulp lower at a
    time for at most ``MAX_STEP_DOWNS`` scalings, and only an exactly
    certified disk is returned.  Returns (0.0, None) if no positive
    scaling certifies.
    """
    check_disk_dim(2 * p.n + 1, K)
    check_margin(margin)
    search = _disk_search(p, u, K, margin)

    def certifies(lam):
        return _certification_shortfall(search, lam)[0]

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
