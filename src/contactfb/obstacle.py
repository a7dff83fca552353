"""Obstacle cylinder unions, point membership, and the derivative-bound
certificate for horizontal disks avoiding them.

A shell union is a finite list of cylinders

    (b_i closed-polydisk  minus  a_i open-polydisk)  x  (c_i closed disk)

where the polydisk factor lives on ``shell_dims`` (max-norm) and the disk
factor on ``disk_dim``.  The standard obstacle has the degenerate bands
a_i = b_i = 2^(i-1) on the 2n (x, y)-coordinates and the fixed heights
c_i = n * 2^(3i+1) on z.

Each question is decided one way: point membership by ``membership_margin``
on coordinate log-moduli, disk avoidance by certificate only
(``certify_avoidance``), so a disk is 'certified' or 'uncertified' and only
a certified disk passes ``verify_disk_estimate``.

Radii are stored as natural logs so the same type can describe the shell
unions produced by the push-out recursion, whose radii overflow any native
float within a few rounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .contact import (HolomorphicCurve, horizontality_residual,
                      legendrian_from_xy)
from .numeric import CPolynomial, NEG_INF

DEFAULT_AVOIDANCE_MARGIN = 1e-6


@dataclass(frozen=True)
class ShellBand:
    """One cylinder, radii stored as natural logs."""

    log_a: float
    log_b: float
    log_c: float

    @property
    def a(self) -> float:
        return math.exp(self.log_a) if self.log_a < 700 else math.inf

    @property
    def b(self) -> float:
        return math.exp(self.log_b) if self.log_b < 700 else math.inf

    @property
    def c(self) -> float:
        return math.exp(self.log_c) if self.log_c < 700 else math.inf


@dataclass(frozen=True)
class ShellUnion:
    """Finite union of shell-times-disk cylinders with an axis split."""

    shells: tuple[ShellBand, ...]
    shell_dims: tuple[int, ...]
    disk_dim: int

    def __post_init__(self):
        if self.disk_dim in self.shell_dims:
            raise ValueError("disk_dim must not appear in shell_dims")
        prev_b = NEG_INF
        for i, s in enumerate(self.shells, start=1):
            if not (s.log_a <= s.log_b):
                raise ValueError(f"shell {i}: requires a_{i} <= b_{i}")
            if not (prev_b < s.log_a):
                raise ValueError(
                    f"shell {i}: bands must interleave (b_{i-1} < a_{i})")
            if s.log_c == NEG_INF:
                raise ValueError(f"shell {i}: c_{i} must be positive")
            prev_b = s.log_b

    @classmethod
    def from_linear(cls, shells, shell_dims, disk_dim) -> "ShellUnion":
        bands = tuple(
            ShellBand(math.log(a), math.log(b), math.log(c))
            for a, b, c in shells)
        return cls(bands, tuple(shell_dims), disk_dim)

    @property
    def dim(self) -> int:
        return max((*self.shell_dims, self.disk_dim)) + 1

    def linear_shells(self) -> tuple[tuple[float, float, float], ...]:
        return tuple((s.a, s.b, s.c) for s in self.shells)


def membership_margin(K: ShellUnion, log_mag: np.ndarray) -> np.ndarray:
    """(m,) largest log-domain slacks with which points, given as an (m, dim)
    array of coordinate log-moduli, sit inside some shell of K.

    Nonnegative iff the point lies in the closed set K (a zero coordinate
    has log-modulus -inf), positive iff it is strictly inside a shell.
    """
    log_mag = np.asarray(log_mag, dtype=np.float64)
    log_max = np.max(log_mag[:, list(K.shell_dims)], axis=1)
    log_disk = log_mag[:, K.disk_dim]
    best = np.full(log_mag.shape[0], -math.inf)
    for s in K.shells:
        slack = np.minimum(np.minimum(log_max - s.log_a, s.log_b - log_max),
                           s.log_c - log_disk)
        best = np.maximum(best, slack)
    return best


# ---------------------------------------------------------------------------
# the standard obstacle
# ---------------------------------------------------------------------------

def standard_obstacle(n: int, i_max: int) -> ShellUnion:
    """Standard obstacle in C^(2n+1): degenerate bands a_i = b_i = 2^(i-1)
    on the 2n (x, y)-coordinates, height c_i = n * 2^(3i+1) on z, truncated
    at i_max.  These heights are the hyperbolicity constants under which
    the derivative-bound certificate is valid.
    """
    if i_max < 1:
        raise ValueError("i_max must be >= 1")
    if n < 1:
        raise ValueError("n must be >= 1")
    shells = []
    for N in range(1, i_max + 1):
        r = 2.0 ** (N - 1)
        shells.append((r, r, n * 2.0 ** (3 * N + 1)))
    return ShellUnion.from_linear(shells, tuple(range(2 * n)), 2 * n)


# ---------------------------------------------------------------------------
# derivative bounds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundCertificate:
    """First-derivative bounds at 0 for avoiding horizontal disks whose
    center lies in the 2^N0 polydisk: |x'(0)|, |y'(0)| < 2^(N0+1) and
    |z'(0)| < 2^(2N0+1)."""

    N0: int
    n: int
    bound_xy: float = field(init=False)
    bound_z: float = field(init=False)

    def __post_init__(self):
        if self.N0 < 1:
            raise ValueError("N0 must be >= 1")
        object.__setattr__(self, "bound_xy", 2.0 ** (self.N0 + 1))
        object.__setattr__(self, "bound_z", 2.0 ** (2 * self.N0 + 1))


# ---------------------------------------------------------------------------
# avoidance certification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AvoidanceCheck:
    """Per-shell certified-avoidance verdict for a polynomial disk.

    For each shell one of three one-sided routes can certify a miss:
    'inside' (every shell coordinate's sup bound stays below a_i - margin),
    'outside' (some single coordinate's certified inf exceeds b_i + margin),
    or 'z_escape' (the disk coordinate's certified inf exceeds c_i + margin).
    """

    certified: bool
    routes: tuple[str, ...]
    failed_shells: tuple[int, ...]


def avoidance_routes(sup_max: float, inf_best: float, inf_disk: float,
                     radii, margin: float):
    """Per-shell routes from the three coefficient-sum bounds.

    ``sup_max`` is the largest sup bound of the shell coordinates on the
    closed unit disk, ``inf_best`` their largest certified inf, ``inf_disk``
    the certified inf of the disk coordinate, and ``radii`` is
    ``K.linear_shells()``.  Each route needs a strict inequality; a shell
    none of them certifies is 'uncertified'.
    """
    routes = []
    for a, b, c in radii:
        if sup_max < a - margin:
            routes.append("inside")
        elif inf_best > b + margin:
            routes.append("outside")
        elif inf_disk > c + margin:
            routes.append("z_escape")
        else:
            routes.append("uncertified")
    return routes


def check_disk_dim(dim: int, K: ShellUnion) -> None:
    """Raise ValueError unless a disk in C^dim can be checked against K."""
    if dim != K.dim:
        raise ValueError(f"dimension mismatch: the disk has {dim} "
                         f"components, K lives in C^{K.dim}")


def certify_avoidance(components, K: ShellUnion,
                      margin: float = DEFAULT_AVOIDANCE_MARGIN) -> AvoidanceCheck:
    """Certified check that the image of the closed unit disk misses K."""
    components = list(components)
    check_disk_dim(len(components), K)
    sup_max = max(components[d].sup_bound(1.0) for d in K.shell_dims)
    inf_best = max(components[d].inf_lower_bound() for d in K.shell_dims)
    inf_disk = components[K.disk_dim].inf_lower_bound()
    routes = avoidance_routes(sup_max, inf_best, inf_disk,
                              K.linear_shells(), margin)
    failed = [i for i, r in enumerate(routes, start=1) if r == "uncertified"]
    return AvoidanceCheck(certified=not failed, routes=tuple(routes),
                          failed_shells=tuple(failed))


# ---------------------------------------------------------------------------
# the disk-estimate verifier
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DiskEstimateReport:
    """Outcome of ``verify_disk_estimate``: ``avoidance`` is 'certified' or
    'uncertified', and ``passed`` is ``bounds_hold`` and 'certified'."""

    avoidance: str
    routes: tuple[str, ...]
    derivatives: dict
    certificate: BoundCertificate
    bounds_hold: bool
    passed: bool


def verify_disk_estimate(f: HolomorphicCurve, K: ShellUnion, N0: int,
                         margin: float = DEFAULT_AVOIDANCE_MARGIN) -> DiskEstimateReport:
    """Check the first-derivative bounds for one horizontal disk against K.

    Preconditions: the horizontality residual of f is the zero polynomial
    and f(0) has max-norm < 2^N0.  The avoidance verdict is 'certified'
    when coefficient-sum bounds show every shell is missed by ``margin``
    and 'uncertified' otherwise; an uncertified disk does not pass, since
    the bounds are proved only for disks that avoid K.
    """
    if not horizontality_residual(f).is_zero:
        raise ValueError("curve is not horizontal (nonzero residual)")
    center = f.at(0.0)
    if center.maxnorm() >= 2.0 ** N0:
        raise ValueError("f(0) must lie in the open 2^N0 polydisk")
    cert = BoundCertificate(N0=N0, n=f.n)

    check = certify_avoidance(f.components, K, margin)
    avoidance = "certified" if check.certified else "uncertified"

    d0 = f.derivative_at(0.0)
    derivs = {
        "x": tuple(abs(v) for v in d0.x),
        "y": tuple(abs(v) for v in d0.y),
        "z": abs(d0.z),
    }
    bounds_hold = (all(v < cert.bound_xy for v in derivs["x"])
                   and all(v < cert.bound_xy for v in derivs["y"])
                   and derivs["z"] < cert.bound_z)
    return DiskEstimateReport(avoidance=avoidance, routes=check.routes,
                              derivatives=derivs, certificate=cert,
                              bounds_hold=bounds_hold,
                              passed=bounds_hold and check.certified)


# ---------------------------------------------------------------------------
# random avoiding disks (rejection sampler for the property suites)
# ---------------------------------------------------------------------------

_SAMPLER_DEGREE = 8
_SAMPLER_MAX_TRIES = 200000


def random_avoiding_disks(n: int, N0: int, K: ShellUnion, count: int,
                          seed: int, margin: float = DEFAULT_AVOIDANCE_MARGIN):
    """Rejection-sample horizontal polynomial disks with certified avoidance
    of K and center inside the 2^N0 polydisk.

    Proposals place one marked (x, y)-coordinate between consecutive shell
    radii and keep perturbation tails small relative to the gap, so the
    certifier accepts at a healthy rate while rejection still happens.
    Returns a list of HolomorphicCurve.
    """
    rng = np.random.default_rng(seed)
    # radial slots for the marked coordinate: inside the first shell or in
    # one of the gaps (2^(i-1), 2^i) up to 2^N0
    slots = [s.a for s in K.shells if s.a <= 2.0 ** N0]
    out = []
    tries = 0
    while len(out) < count and tries < _SAMPLER_MAX_TRIES:
        tries += 1
        slot = int(rng.integers(0, len(slots) + 1))  # 0 = innermost hole
        lo = 0.0 if slot == 0 else slots[slot - 1]
        hi = slots[slot] if slot < len(slots) else min(2.0 ** N0, 2 * lo or 1.0)
        if hi <= lo:
            continue
        base = rng.uniform(lo + 0.15 * (hi - lo), hi - 0.15 * (hi - lo))
        amp = rng.uniform(0.0, 0.35) * min(base - lo if slot else hi - base,
                                           hi - base)
        marked = int(rng.integers(0, 2 * n))

        def rand_poly(center_mag):
            c0 = center_mag * np.exp(1j * rng.uniform(-math.pi, math.pi))
            coeffs = [complex(c0)]
            for k in range(1, _SAMPLER_DEGREE + 1):
                coeffs.append(complex(amp * (rng.normal() + 1j * rng.normal())
                                      / (3.0 ** k)))
            return CPolynomial(coeffs)

        polys = [rand_poly(base if d == marked else rng.uniform(0.0, base))
                 for d in range(2 * n)]
        xs = polys[0::2]
        ys = polys[1::2]
        z0 = rng.uniform(0, 0.5 * 2.0 ** N0) * np.exp(
            1j * rng.uniform(-math.pi, math.pi))
        f = legendrian_from_xy(xs, ys, complex(z0))
        if f.at(0.0).maxnorm() >= 2.0 ** N0:
            continue
        if certify_avoidance(f.components, K, margin).certified:
            out.append(f)
    if len(out) < count:
        raise RuntimeError(
            f"rejection sampler produced only {len(out)}/{count} disks")
    return out
