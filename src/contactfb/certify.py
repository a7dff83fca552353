"""The trusted kernel: every verdict the package calls certified is decided
here.  The sampler, the directed-norm search, exponent selection and the
shear kernels only propose; nothing they return is trusted until a rule
below accepts it.  The module imports only the standard library,
``numeric``'s exact layer and the plain data of ``shells``.  Its rules:
horizontality (``check_horizontal``, the exact ``horizontality_residual``);
disk avoidance (``certify_avoidance`` by the route rule ``shell_route``,
which the directed-norm search also asks on complex128 bounds); the
upper bound's witness (``first_certified``); the derivative-bound lemma
(its one gate ``lemma_certificate``, and ``verify_disk_estimate``); the
push-out round contracts (``check_sandwich``, ``check_bands``,
``check_disjoint``, ``check_identity``); and membership in the convergence
domain (``certifies_in_omega``).  ``mutants/ledger.json`` holds, for each
inequality, an edit that some test must catch.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

from .numeric import derivative_dot
from .shells import standard_obstacle

CERTIFIED = "certified"
UNCERTIFIED = "uncertified"
IN_OMEGA_CERTIFIED = "in_omega_certified"

DEFAULT_AVOIDANCE_MARGIN = 1e-6
KERNEL_TOL = 1e-12  # absolute tolerance for "v lies in ker alpha0 at p"


# -- horizontality ------------------------------------------------------------

def alpha0_eval(p, v) -> complex:
    """alpha0(v) at the point p, where alpha0 = dz + sum_j x_j dy_j."""
    if p.n != v.n:
        raise ValueError("dimension mismatch between point and vector")
    return v.z + sum(xj * vyj for xj, vyj in zip(p.x, v.y))


def _coordinate_error(name: str, c: complex) -> ValueError:
    """The error for coordinate ``name`` = c, which is not finite or whose
    modulus is beyond float range."""
    if cmath.isfinite(c):
        return ValueError(f"{name} modulus is beyond float range: {c!r}")
    return ValueError(f"{name} is not finite: {c!r}")


def check_horizontal(p, v) -> None:
    """Raise ValueError unless the point p and the direction v are finite,
    every coordinate's modulus in float range (a failing one is named, e.g.
    ``point x[0] is not finite``), and v lies in the kernel of alpha0 at p
    to absolute ``KERNEL_TOL``; an alpha0(v) past float range fails."""
    # hypot is finite exactly when both parts and the modulus are
    for name, blocks in (("point", p), ("direction", v)):
        for block in ("x", "y"):
            for j, c in enumerate(getattr(blocks, block)):
                if not math.hypot(c.real, c.imag) < math.inf:
                    raise _coordinate_error(f"{name} {block}[{j}]", c)
        if not math.hypot(blocks.z.real, blocks.z.imag) < math.inf:
            raise _coordinate_error(f"{name} z", blocks.z)
    defect = alpha0_eval(p, v)
    if not math.hypot(defect.real, defect.imag) <= KERNEL_TOL:
        raise ValueError(f"direction is not horizontal: alpha0(v) = {defect!r}")


def horizontality_residual(f):
    """The exact polynomial z' + sum_j x_j * y_j' of the curve f, one
    packed integer evaluation: f is horizontal iff it is zero."""
    return derivative_dot(zip(f.x, f.y), f.z)


# -- disk avoidance -----------------------------------------------------------

@dataclass(frozen=True)
class AvoidanceCheck:
    """Certified avoidance of a polynomial disk: each shell's
    ``shell_route``, and the shells (1-based) that no route certifies."""

    certified: bool
    routes: tuple[str, ...]
    failed_shells: tuple[int, ...]


def check_margin(margin: float) -> None:
    """Raise ValueError unless the avoidance margin is finite and >= 0: a
    negative margin moves every route's limit across the shell, so disks
    that meet K would certify."""
    if not 0.0 <= margin < math.inf:
        raise ValueError(f"margin must be finite and >= 0, got {margin!r}")


def check_disk_dim(dim: int, K) -> None:
    """Raise ValueError unless a disk in C^dim can be checked against K."""
    if dim != K.dim:
        raise ValueError(f"dimension mismatch: the disk has {dim} "
                         f"components, K lives in C^{K.dim}")


def route_limits(K, margin: float) -> tuple:
    """Per shell of K, the limits (a - margin, b + margin, c + margin) of
    its three routes, on the radii ``K.linear_shells()`` reads."""
    return tuple((a - margin, b + margin, c + margin)
                 for a, b, c in K.linear_shells())


def shell_route(sup_max: float, inf_best: float, inf_disk: float,
                limits) -> str:
    """The route by which a disk misses one shell, from the largest sup
    and inf bounds over the shell coordinates and the disk coordinate's inf
    bound against the shell's ``route_limits``: 'inside' (sup below
    a - margin), 'outside' (inf above b + margin) or 'z_escape' (disk inf
    above c + margin), each strict, tried in this order; else (a NaN bound
    passes none) ``UNCERTIFIED``."""
    inside, outside, z_escape = limits
    if sup_max < inside:
        return "inside"
    if inf_best > outside:
        return "outside"
    if inf_disk > z_escape:
        return "z_escape"
    return UNCERTIFIED


def certify_avoidance(components, K,
                      margin: float = DEFAULT_AVOIDANCE_MARGIN) -> AvoidanceCheck:
    """Certified check that the image of the closed unit disk under the
    polynomial ``components`` misses K: ``shell_route`` on the
    coefficient-sum bounds sum_k |c_k| and |c_0| - sum_{k>=1} |c_k|."""
    check_margin(margin)
    components = list(components)
    check_disk_dim(len(components), K)
    sup_max = max(components[d].sup_bound() for d in K.shell_dims)
    inf_best = max(components[d].inf_lower_bound() for d in K.shell_dims)
    inf_disk = components[K.disk_dim].inf_lower_bound()
    routes = tuple(shell_route(sup_max, inf_best, inf_disk, limits)
                   for limits in route_limits(K, margin))
    failed = tuple(i for i, r in enumerate(routes, start=1)
                   if r == UNCERTIFIED)
    return AvoidanceCheck(certified=not failed, routes=routes,
                          failed_shells=failed)


def first_certified(candidates, K, margin: float):
    """The witness of a directed-norm upper bound: the first (lam, disk)
    of ``candidates`` whose exact disk certifies avoidance of K, or
    (0.0, None) if none does."""
    for lam, disk in candidates:
        if certify_avoidance(disk.components, K, margin).certified:
            return lam, disk
    return 0.0, None


# -- the derivative-bound lemma -----------------------------------------------

class LemmaRefusal(ValueError):
    """The derivative-bound lemma does not cover a case; says why."""


_LEMMA_SCOPE = ("the derivative bound covers 1 <= N0 < i_max on "
                "standard_obstacle(n, i_max) only")


@dataclass(frozen=True)
class BoundCertificate:
    """The derivative-bound lemma on ``standard_obstacle(n, i_max)``: a
    horizontal disk that avoids it, with center in the open 2^N0 polydisk,
    has |x'(0)|, |y'(0)| < 2^(N0+1) and |z'(0)| < 2^(2N0+1).  A truncation
    leaves everything beyond its last shell free, so 1 <= N0 < i_max;
    ``LemmaRefusal`` names an N0 outside that range."""

    N0: int
    n: int
    i_max: int
    bound_xy: float = field(init=False)
    bound_z: float = field(init=False)

    def __post_init__(self):
        if self.N0 < 1:
            raise LemmaRefusal(f"{_LEMMA_SCOPE}; N0 = {self.N0} is below 1")
        if self.N0 >= self.i_max:
            raise LemmaRefusal(f"{_LEMMA_SCOPE}; N0 = {self.N0} is not "
                               f"below i_max = {self.i_max}")
        object.__setattr__(self, "bound_xy", 2.0 ** (self.N0 + 1))
        object.__setattr__(self, "bound_z", 2.0 ** (2 * self.N0 + 1))

    def ratio(self, v) -> float:
        """The largest |v_c| / cap over the coordinates of the tangent
        vector v: the caps hold for v exactly when it is below 1."""
        best = 0.0
        for coord in (*v.x, *v.y):
            best = max(best, abs(coord) / self.bound_xy)
        return max(best, abs(v.z) / self.bound_z)


def lemma_certificate(N0: int, n: int, K) -> BoundCertificate:
    """The lemma's gate: the certificate for N0 on K in C^(2n+1), i_max the
    number of shells of K, or ``LemmaRefusal`` naming N0 outside
    1 <= N0 < i_max or a K other than ``standard_obstacle(n, i_max)``.
    N0 < i_max is no wider than a counterexample allows: at p = (3, 40, 0),
    v = e_x on ``standard_obstacle(1, 6)`` the caps give 1/128, while a
    linear disk certifies the upper bound 1e-3 (ROADMAP item 1)."""
    cert = BoundCertificate(N0=N0, n=n, i_max=len(K.shells))
    if K != standard_obstacle(n, cert.i_max):
        raise LemmaRefusal(f"{_LEMMA_SCOPE}; K is not "
                           f"standard_obstacle({n}, {cert.i_max})")
    return cert


@dataclass(frozen=True)
class DiskEstimateReport:
    """Outcome of ``verify_disk_estimate``: ``avoidance`` is ``CERTIFIED``
    or ``UNCERTIFIED``, ``ratio`` is ``certificate.ratio`` of f'(0), and
    ``passed`` is ``bounds_hold`` (ratio < 1) and certified avoidance."""

    avoidance: str
    routes: tuple[str, ...]
    derivatives: dict
    certificate: BoundCertificate
    ratio: float
    bounds_hold: bool
    passed: bool


def verify_disk_estimate(f, K, N0: int,
                         margin: float = DEFAULT_AVOIDANCE_MARGIN) -> DiskEstimateReport:
    """Check the first-derivative bounds for one horizontal disk f against
    K.  Preconditions, each a ValueError, in this order: f has K's
    dimension, the lemma covers N0 on K, f's horizontality residual is zero
    and f(0) has max-norm < 2^N0.  A disk passes only with its bounds and
    certified avoidance: the bounds are proved only for disks that avoid K.
    """
    check_disk_dim(2 * f.n + 1, K)
    cert = lemma_certificate(N0, f.n, K)
    if not horizontality_residual(f).is_zero:
        raise ValueError("curve is not horizontal (nonzero residual)")
    if f.at(0.0).maxnorm() >= 2.0 ** N0:
        raise ValueError("f(0) must lie in the open 2^N0 polydisk")

    check = certify_avoidance(f.components, K, margin)
    d0 = f.derivative_at(0.0)
    derivs = {
        "x": tuple(abs(v) for v in d0.x),
        "y": tuple(abs(v) for v in d0.y),
        "z": abs(d0.z),
    }
    ratio = cert.ratio(d0)
    return DiskEstimateReport(
        avoidance=CERTIFIED if check.certified else UNCERTIFIED,
        routes=check.routes, derivatives=derivs, certificate=cert,
        ratio=ratio, bounds_hold=ratio < 1,
        passed=ratio < 1 and check.certified)


# -- the push-out round contracts ---------------------------------------------

class SelectionError(RuntimeError):
    """A push-out round that cannot be built: no admissible exponent below
    the cap, a quantity beyond float64 range, or a failed round contract.
    Carries the binding inequality and, when ``build_pushout`` raises it,
    the round it failed in."""

    round: int | None = None

    def __init__(self, message: str, shell_index: int, binding: str):
        super().__init__(message)
        self.shell_index = shell_index
        self.binding = binding


def check_sandwich(i: int, beta_prev_log: float, M_log: float,
                   alpha_log: float) -> None:
    """Shell i's band sandwich, in logs: beta_{i-1} < M_i < alpha_i, so the
    pinched band of shell i lies beyond that of shell i-1."""
    if not (beta_prev_log < M_log < alpha_log):
        raise SelectionError(
            f"shell {i}: band sandwich beta < M < alpha failed", i, "sandwich")


def check_bands(alphas, betas) -> None:
    """Every output band (alpha_i, beta_i) of a stage has finite logs."""
    for i, (a, b) in enumerate(zip(alphas, betas), start=1):
        if not (math.isfinite(a) and math.isfinite(b)):
            raise SelectionError(f"shell {i}: the output band ({a}, {b}) is "
                                 "beyond float64 range", i, "representation")


def check_disjoint(k: int, K_next) -> float:
    """Round k's new union clears the (k+1)-polydisk: log a_1 > log(k+1).
    Returns the slack log a_1 - log(k+1) it accepted."""
    gap = K_next.shells[0].log_a - math.log(k + 1.0)
    if not gap > 0.0:
        raise SelectionError(
            f"round {k}: new schedule does not clear the (k+1)-polydisk",
            1, "disjointness")
    return gap


def check_identity(k: int, id_bound: float, eps: float) -> float:
    """Round k's bound on |theta_k - id| over the k-polydisk is below
    eps_k.  Returns the slack eps_k - id_bound it accepted."""
    if not id_bound < eps:
        raise SelectionError(
            f"round {k}: certified identity bound {id_bound} >= {eps}",
            0, "identity")
    return eps - id_bound


# -- membership in the convergence domain -------------------------------------

def certifies_in_omega(j: int, log_maxnorm: float, tail: float) -> bool:
    """Whether Theta_j(p), of log max-norm ``log_maxnorm``, sits inside the
    max(j, 1)-polydisk with more room than ``tail``, the sum of all later
    identity errors, can consume (exp is taken only below e^5)."""
    return log_maxnorm < 5.0 and math.exp(log_maxnorm) + tail < max(j, 1)
