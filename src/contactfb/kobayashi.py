"""Numerical bracketing of the directed Kobayashi norm and distance.

The directed norm of a tangent direction v at p is the infimum of 1/|lambda|
over horizontal disks f with f(0) = p, f'(0) = lambda v.  Lower bounds are
the caps of the derivative-bound lemma, which the kernel issues for the
standard obstacle only (``certify.lemma_certificate``).  Upper bounds come
from explicit disks that the kernel certifies.  Avoidance is certified by
coefficient sums, which a coefficient of degree >= 2 only loosens, so the
best such disk is linear: x_j = p_xj + lambda u_xj zeta (likewise y_j), z by
exact integration.  In exact arithmetic its route bounds are monotone in
lambda, closed forms (linear in x_j and y_j, quadratic in z), so the
certified scalings run from 0 up to the binding route's root.  In complex128
the z bound can move by an ulp against lambda, so the kernel's route rule on
complex128 bounds only proposes a scaling; the kernel decides on the exact
rebuild of that disk.  The search for the proposal starts at the root,
computed in floats, gallops until the verdict changes and bisects to
adjacent floats; only the verdicts it asks decide, so the root needs no
error bound.  The contrapositive of the derivative bound is the case p = 0,
u = e_x1.  The distance bound sums the full-space upper bound over the
segments of a constructive horizontal path; each segment is affine, so the
sum is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, NamedTuple

from .certify import (BoundCertificate, DEFAULT_AVOIDANCE_MARGIN,
                      LemmaRefusal, UNCERTIFIED, check_disk_dim,
                      check_horizontal, check_margin, first_certified,
                      lemma_certificate, route_limits, shell_route)
from .contact import (ContactPoint, HolomorphicCurve, TangentVector,
                      chow_path, legendrian_from_xy)
from .numeric import CPolynomial
from .shells import ShellUnion

#: Scalings, one ulp apart from the verdict's flip down, that are rebuilt
#: exactly before ``_largest_certified_scaling`` reports that none certifies.
MAX_STEP_DOWNS = 64


@dataclass(frozen=True)
class SearchBudget:
    """Limits of the directed-norm upper bound: the complement domain
    searches the scaling |lambda| over [0, lambda_budget], the full space
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
    limits: tuple      # ``certify.route_limits(K, margin)``


def _disk_search(p: ContactPoint, u: TangentVector, K: ShellUnion,
                 margin: float) -> _DiskSearch:
    dims = K.shell_dims
    # an itemgetter of one index returns the item bare, so the first index
    # is read once more; a repeated item cannot change a max or a min
    return _DiskSearch(
        tuple(zip(p.x, u.x, u.y, map(abs, p.x), map(abs, p.y))), abs(p.z),
        itemgetter(*dims, dims[0]), K.disk_dim, route_limits(K, margin))


def _certification_shortfall(search: _DiskSearch, lam: float):
    """(certified, first_failed_shell) of the complex128 linear disk
    p + lam*u*zeta: x_j = p_xj + (lam u_xj) zeta (likewise y_j) and
    z = p_z + z1 zeta + (z2 / 2) zeta^2, z1 = -sum_j p_xj (lam u_yj),
    z2 = -sum_j (lam u_xj)(lam u_yj).

    What does not depend on lam is read from ``search``; only lam*u, z1 and
    z2/2 are formed, in the order written above, and each bound is summed
    as ``CPolynomial.sup_bound`` and ``CPolynomial.inf_lower_bound`` sum
    it: sup = 0.0 + |c1| + |c0| (0.0 + |c1| is |c1|), inf = |c0| - fsum of
    the rest (the fsum of one term is that term, and of two it is their
    correctly rounded sum, which float + gives; a sum past float range is
    +inf here, so the bound is -inf, as ``inf_lower_bound`` gives).  A z
    coefficient whose parts overflowed against each other reads NaN; its
    modulus is unknown, so its bounds are +inf and -inf, those of a
    coefficient past float range, whatever the order of ``K.shell_dims``
    that ``max`` reads them in.  Each shell is judged by the kernel's
    ``shell_route``, shell by shell, so ``certified`` is
    ``certify_avoidance``'s verdict on those coefficients, a non-finite one
    read as past float range; the first shell that no route certifies
    (1-based) is returned with False, None with True.
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
    z_sup = z2_mod + z1_mod + z_mod
    if z_sup == z_sup:
        sups.append(z_sup)
        infs.append(z_mod - (z1_mod + z2_mod))
    else:  # a NaN modulus bounds nothing
        sups.append(math.inf)
        infs.append(-math.inf)
    sup_max = max(shell_read(sups))
    inf_best = max(shell_read(infs))
    inf_disk = infs[disk_dim]
    for i, shell_limits in enumerate(limits, start=1):
        if shell_route(sup_max, inf_best, inf_disk,
                       shell_limits) == UNCERTIFIED:
            return False, i
    return True, None


def _route_root(mod: float, a: float, b: float, limit: float, below: bool):
    """Where one coordinate's bound stops passing one route limit, in exact
    arithmetic: mod + s(lam) < limit (``below``) or mod - s(lam) > limit
    while s(lam) = a lam + b lam^2 < room.  -inf if room <= 0: the float
    bound adds its lam terms to mod or takes them from it, and rounding is
    monotone, so the limit is never passed.  +inf if room is infinite or
    nothing is taken from it; else the float root of s(r) = room, a guess
    with no error terms (NaN reads 0.0)."""
    room = limit - mod if below else mod - limit
    if not room > 0.0:
        return -math.inf
    if room == math.inf or not (a or b):
        return math.inf
    # a denominator that underflows to 0 reads as inf
    r = 2.0 * room / ((a + math.sqrt(a * a + 4.0 * b * room)) or math.inf)
    return 0.0 if math.isnan(r) else r


def _flip_guess(search: _DiskSearch) -> float:
    """The binding ``_route_root``: a = |u_xj| or |u_yj| and b = 0 for x_j
    and y_j, a = |sum_j p_xj u_yj| and b = |sum_j u_xj u_yj| / 2 for z.  A
    shell passes below the max over its routes ('inside' the min over the
    shell coordinates, 'outside' the max, 'z_escape' the disk coordinate)
    and K below the min over its shells: -inf exactly when some shell
    passes no route at any lam."""
    rows, z_mod, shell_read, disk_dim, limits = search
    coords = []
    z1 = z2 = 0j
    for x0, ux, uy, x0_mod, y0_mod in rows:
        z1 += x0 * uy
        z2 += ux * uy
        coords += ((x0_mod, abs(ux), 0.0), (y0_mod, abs(uy), 0.0))
    coords.append((z_mod, abs(z1), abs(z2) / 2))
    shell = shell_read(coords)
    disk = coords[disk_dim]
    return min((max(min(_route_root(*co, inside, True) for co in shell),
                    max(_route_root(*co, outside, False) for co in shell),
                    _route_root(*disk, z_escape, False))
                for inside, outside, z_escape in limits), default=math.inf)


def _verdict_flip(search: _DiskSearch, cap: float) -> float:
    """A float in [0, cap] where ``_certification_shortfall(search, .)[0]``
    flips: cap if cap certifies, else a lam that certifies (or 0.0) whose
    next float up does not.  0.0, with no verdict asked, if some shell
    passes no route at any lam.  Otherwise, after cap, the search gallops
    from ``_flip_guess``, moved into (0, cap) if it is 0, NaN or at least
    cap: the step starts at one ulp and doubles until the verdict changes or
    the step would leave (0, cap).  Then it bisects to adjacent floats.
    Where the verdict is monotone this is the flip a bisection of [0, cap]
    finds, and every end it keeps is an answered verdict."""
    guess = _flip_guess(search)
    if guess == -math.inf:
        return 0.0

    def certifies(lam):
        return _certification_shortfall(search, lam)[0]

    if certifies(cap):
        return cap
    # 0 starts at the least positive float, NaN or >= cap one below cap
    lam = max(guess if guess < cap else math.nextafter(cap, 0.0), 5e-324)
    step = math.ulp(lam)
    lo, hi = 0.0, cap
    # up from a certifying step, down from another; the probe after a
    # change lies beyond the other end, and so does one outside (0, cap)
    while lo < lam < hi:
        if certifies(lam):
            lo = lam
            lam += step
        else:
            hi = lam
            lam -= step
        step *= 2
    mid = lo + (hi - lo) / 2
    while lo < mid < hi:
        if certifies(mid):
            lo = mid
        else:
            hi = mid
        mid = lo + (hi - lo) / 2
    return lo


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

    ``_verdict_flip`` proposes where the complex128 verdict stops
    certifying.  That verdict is monotone in lam only up to an ulp of its z
    bound, so the proposal is rebuilt exactly and offered to the kernel's
    ``first_certified``, then one ulp lower at a time, for at most
    ``MAX_STEP_DOWNS`` positive scalings.  Returns (0.0, None) if none of
    them certifies.
    """
    check_disk_dim(2 * p.n + 1, K)
    check_margin(margin)

    def candidates(lam):
        for _ in range(MAX_STEP_DOWNS):
            if lam <= 0.0:
                return
            yield lam, _linear_disk(p, u, lam)
            lam = math.nextafter(lam, 0.0)
    return first_certified(
        candidates(_verdict_flip(_disk_search(p, u, K, margin), cap)),
        K, margin)


def _unit_direction(v: TangentVector, scale: float) -> TangentVector:
    """v / scale, scale = v.maxnorm() > 0; 1/scale overflows below 2^-1024,
    so a scale below 2^-1000 first moves v up by 2^600, exactly."""
    if scale < 2.0 ** -1000:
        v, scale = v.scaled(2.0 ** 600), scale * 2.0 ** 600
    return v.scaled(1.0 / scale)


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
    u = _unit_direction(v, scale)

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
    """Certified lower bound for the directed norm in the complement of K,
    from the first-derivative cap at the center.

    Any avoiding horizontal disk with f(0) = p and f'(0) = lambda v has
    ``cert.ratio(lambda v) < 1`` for the certificate ``cert`` of the minimal
    N0 >= 1 with p in the open 2^N0 polydisk, hence 1/|lambda| >
    ``cert.ratio(v)``.  Returns (lower, certificate); 0 for the zero
    direction, and (0.0, None) where the kernel's ``lemma_certificate``
    refuses N0 on K.
    """
    check_horizontal(p, v)
    # the least N0 >= 1 with max-norm < 2^N0, with no power of 2 that
    # leaves float range
    N0 = max(1, math.frexp(p.maxnorm())[1])
    try:
        cert = lemma_certificate(N0, p.n, K)
    except LemmaRefusal:
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
