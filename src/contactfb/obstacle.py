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

A union built from linear radii (``ShellUnion.from_linear``, as the
standard obstacle is) keeps exactly those radii and derives its natural
logs from them.  The certificate side (``certify_avoidance`` and the
kobayashi bounds) reads the kept radii through ``linear_shells``; point
membership reads the logs.  The push-out recursion's computed unions are
log-only, because their radii overflow any native float within a few
rounds; their linear radii are read through exp, once per union, and
rounded outward (a down, b and c up), so a certificate on them rests on
no rounding of the stored log or of exp.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from functools import cache, cached_property

import numpy as np

from .contact import (HolomorphicCurve, TangentVector,
                      horizontality_residual, legendrian_from_xy)
from .numeric import CPolynomial, NEG_INF

DEFAULT_AVOIDANCE_MARGIN = 1e-6


@dataclass(frozen=True)
class ShellBand:
    """One cylinder, radii stored as natural logs.  ``a`` reads the inner
    radius back through exp, as IEEE gives it: inf only past float range,
    and it may differ from the radius a band was built from in the last
    bits (the union keeps those)."""

    log_a: float
    log_b: float
    log_c: float

    @property
    def a(self) -> float:
        try:
            return math.exp(self.log_a)
        except OverflowError:
            return math.inf


@dataclass(frozen=True)
class ShellUnion:
    """Finite union of shell-times-disk cylinders with an axis split.

    ``radii`` holds the linear (a, b, c) of each shell when the union was
    built from them (``from_linear``), and is None for a log-only union.
    """

    shells: tuple[ShellBand, ...]
    shell_dims: tuple[int, ...]
    disk_dim: int
    radii: tuple[tuple[float, float, float], ...] | None = None

    def __post_init__(self):
        if self.radii is not None and len(self.radii) != len(self.shells):
            raise ValueError("radii must give one (a, b, c) per shell")
        if not self.shell_dims:
            raise ValueError("shell_dims must name at least one coordinate")
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
        """The union of the given (a, b, c) shells, which it keeps as its
        radii; the logs are derived from them."""
        radii = tuple((a, b, c) for a, b, c in shells)
        bands = tuple(ShellBand(math.log(a), math.log(b), math.log(c))
                      for a, b, c in radii)
        return cls(bands, tuple(shell_dims), disk_dim, radii)

    @property
    def dim(self) -> int:
        return max((*self.shell_dims, self.disk_dim)) + 1

    def linear_shells(self) -> tuple[tuple[float, float, float], ...]:
        """The kept radii, or for a log-only union the exp of its logs."""
        if self.radii is not None:
            return self.radii
        return self._exp_radii

    @cached_property
    def _exp_radii(self) -> tuple[tuple[float, float, float], ...]:
        """(a, b, c) of each band, a rounded down and b, c rounded up
        (``_exp_outward``): every route compares strictly, so a smaller a
        and a larger b and c can only refuse more."""
        return tuple((_exp_outward(s.log_a, False),
                      _exp_outward(s.log_b, True),
                      _exp_outward(s.log_c, True)) for s in self.shells)


def _exp_outward(log: float, up: bool) -> float:
    """A float at or above (``up``) or at or below every radius whose
    natural log rounds to ``log``.

    The log is moved one float outward first, so the radius of any point
    that ``membership_margin`` reads on the band's edge is covered; exp's
    result is then moved one float outward, which covers exp's own error
    if it is below 1 ulp, as glibc's is (CPython's ``math.exp`` is the
    platform libm's).  Past float range a radius below is the largest
    float and one above is inf.
    """
    try:
        if up:
            return math.nextafter(math.exp(math.nextafter(log, math.inf)),
                                  math.inf)
        return math.nextafter(math.exp(math.nextafter(log, -math.inf)), 0.0)
    except OverflowError:
        return math.inf if up else sys.float_info.max


def membership_margin(K: ShellUnion, log_mag: np.ndarray) -> np.ndarray:
    """(m,) largest log-domain slacks with which m points, given as a
    coordinate-major (dim, m) array of coordinate log-moduli (row j holds
    coordinate j of every point), sit inside some shell of K.

    Nonnegative iff the point lies in the closed set K (a zero coordinate
    has log-modulus -inf), positive iff it is strictly inside a shell.
    """
    log_mag = np.asarray(log_mag, dtype=np.float64)
    log_max = np.max(log_mag[list(K.shell_dims)], axis=0)
    log_disk = log_mag[K.disk_dim]
    best = np.full(log_mag.shape[1], -math.inf)
    for s in K.shells:
        slack = np.minimum(np.minimum(log_max - s.log_a, s.log_b - log_max),
                           s.log_c - log_disk)
        best = np.maximum(best, slack)
    return best


# ---------------------------------------------------------------------------
# the standard obstacle
# ---------------------------------------------------------------------------

@cache
def standard_obstacle(n: int, i_max: int) -> ShellUnion:
    """Standard obstacle in C^(2n+1): degenerate bands a_i = b_i = 2^(i-1)
    on the 2n (x, y)-coordinates, height c_i = n * 2^(3i+1) on z, truncated
    at i_max.  These heights are the hyperbolicity constants under which
    the derivative-bound certificate is valid.  Each (n, i_max) is built
    once; the union is frozen, so every caller may share it.
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
    """The derivative-bound lemma on ``standard_obstacle(n, i_max)``: a
    horizontal disk that avoids it, with center in the open 2^N0 polydisk,
    has |x'(0)|, |y'(0)| < 2^(N0+1) and |z'(0)| < 2^(2N0+1).  A truncation
    leaves everything beyond its last shell free, so 1 <= N0 < i_max."""

    N0: int
    n: int
    i_max: int
    bound_xy: float = field(init=False)
    bound_z: float = field(init=False)

    def __post_init__(self):
        if not 1 <= self.N0 < self.i_max:
            raise ValueError("the derivative bound covers 1 <= N0 < i_max; "
                             f"N0 = {self.N0}, i_max = {self.i_max}")
        object.__setattr__(self, "bound_xy", 2.0 ** (self.N0 + 1))
        object.__setattr__(self, "bound_z", 2.0 ** (2 * self.N0 + 1))

    def ratio(self, v: TangentVector) -> float:
        """The largest |v_c| / cap over the coordinates of v: the caps hold
        for v exactly when it is below 1."""
        best = 0.0
        for coord in (*v.x, *v.y):
            best = max(best, abs(coord) / self.bound_xy)
        return max(best, abs(v.z) / self.bound_z)


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


def check_margin(margin: float) -> None:
    """Raise ValueError unless the avoidance margin is finite and >= 0: a
    negative margin moves every route's limit across the shell, so disks
    that meet K would certify."""
    if not 0.0 <= margin < math.inf:
        raise ValueError(f"margin must be finite and >= 0, got {margin!r}")


def check_disk_dim(dim: int, K: ShellUnion) -> None:
    """Raise ValueError unless a disk in C^dim can be checked against K."""
    if dim != K.dim:
        raise ValueError(f"dimension mismatch: the disk has {dim} "
                         f"components, K lives in C^{K.dim}")


def certify_avoidance(components, K: ShellUnion,
                      margin: float = DEFAULT_AVOIDANCE_MARGIN) -> AvoidanceCheck:
    """Certified check that the image of the closed unit disk misses K,
    by the routes of ``AvoidanceCheck`` on coefficient-sum bounds.  Each
    route needs a strict inequality; a shell none of them certifies is
    'uncertified'."""
    check_margin(margin)
    components = list(components)
    check_disk_dim(len(components), K)
    sup_max = max(components[d].sup_bound() for d in K.shell_dims)
    inf_best = max(components[d].inf_lower_bound() for d in K.shell_dims)
    inf_disk = components[K.disk_dim].inf_lower_bound()
    routes = []
    for a, b, c in K.linear_shells():
        if sup_max < a - margin:
            routes.append("inside")
        elif inf_best > b + margin:
            routes.append("outside")
        elif inf_disk > c + margin:
            routes.append("z_escape")
        else:
            routes.append("uncertified")
    failed = [i for i, r in enumerate(routes, start=1) if r == "uncertified"]
    return AvoidanceCheck(certified=not failed, routes=tuple(routes),
                          failed_shells=tuple(failed))


# ---------------------------------------------------------------------------
# the disk-estimate verifier
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DiskEstimateReport:
    """Outcome of ``verify_disk_estimate``: ``avoidance`` is 'certified' or
    'uncertified', ``ratio`` is ``certificate.ratio`` of f'(0), and
    ``passed`` is ``bounds_hold`` (ratio < 1) and 'certified'."""

    avoidance: str
    routes: tuple[str, ...]
    derivatives: dict
    certificate: BoundCertificate
    ratio: float
    bounds_hold: bool
    passed: bool


def verify_disk_estimate(f: HolomorphicCurve, K: ShellUnion, N0: int,
                         margin: float = DEFAULT_AVOIDANCE_MARGIN) -> DiskEstimateReport:
    """Check the first-derivative bounds for one horizontal disk against K.

    Preconditions, each a ValueError, in this order: 1 <= N0 < i_max = the
    number of shells of K (by ``BoundCertificate``), f has the dimension of
    K (``check_disk_dim``), K is ``standard_obstacle(f.n, i_max)``, the one
    union the lemma is about (as for ``kobayashi.directed_norm_lower``),
    the horizontality residual of f is the zero polynomial, and f(0) has
    max-norm < 2^N0.  The avoidance verdict is 'certified' when
    coefficient-sum bounds show every shell is missed by ``margin`` and
    'uncertified' otherwise; an uncertified disk does not pass, since the
    bounds are proved only for disks that avoid K.
    """
    cert = BoundCertificate(N0=N0, n=f.n, i_max=len(K.shells))
    check_disk_dim(2 * f.n + 1, K)
    if K != standard_obstacle(f.n, cert.i_max):
        raise ValueError("K is not the standard obstacle "
                         f"standard_obstacle({f.n}, {cert.i_max}), the one "
                         "the derivative bound is proved on")
    if not horizontality_residual(f).is_zero:
        raise ValueError("curve is not horizontal (nonzero residual)")
    if f.at(0.0).maxnorm() >= 2.0 ** N0:
        raise ValueError("f(0) must lie in the open 2^N0 polydisk")

    check = certify_avoidance(f.components, K, margin)
    avoidance = "certified" if check.certified else "uncertified"

    d0 = f.derivative_at(0.0)
    derivs = {
        "x": tuple(abs(v) for v in d0.x),
        "y": tuple(abs(v) for v in d0.y),
        "z": abs(d0.z),
    }
    ratio = cert.ratio(d0)
    return DiskEstimateReport(avoidance=avoidance, routes=check.routes,
                              derivatives=derivs, certificate=cert,
                              ratio=ratio, bounds_hold=ratio < 1,
                              passed=ratio < 1 and check.certified)


# ---------------------------------------------------------------------------
# random avoiding disks (rejection sampler for the property suites)
# ---------------------------------------------------------------------------

_SAMPLER_DEGREE = 8
# coefficient k of a proposal is drawn at scale 3^-k
_SAMPLER_TAIL_SCALES = tuple(3.0 ** k for k in range(1, _SAMPLER_DEGREE + 1))
_SAMPLER_MAX_TRIES = 200000


def _uniform(rng, lo: float, hi: float) -> float:
    """``rng.uniform(lo, hi)`` bit for bit at a third of the cost: numpy's
    ``Generator.uniform`` returns lo + (hi - lo) times the next double of
    the stream, which is what ``rng.random()`` draws."""
    return lo + (hi - lo) * rng.random()


def _proposal_poly(rng, center_mag: float, amp: float) -> CPolynomial:
    """One proposed (x, y)-coordinate of degree ``_SAMPLER_DEGREE``: c_0 has
    modulus ``center_mag`` and a uniform phase, and c_k = amp * (g + 1j*h)
    / 3^k for standard normals g, h.  The normals of all k come from one
    draw, in the order g_1, h_1, g_2, h_2, ...: the stream order and the
    float arithmetic of one scalar draw per real part."""
    c0 = center_mag * np.exp(1j * _uniform(rng, -math.pi, math.pi))
    draws = iter(rng.normal(size=2 * _SAMPLER_DEGREE).tolist())
    return CPolynomial([complex(c0)] + [
        amp * (g + 1j * h) / scale
        for scale, g, h in zip(_SAMPLER_TAIL_SCALES, draws, draws)])


def random_avoiding_disks(n: int, N0: int, K: ShellUnion, count: int,
                          seed: int, margin: float = DEFAULT_AVOIDANCE_MARGIN):
    """Rejection-sample horizontal polynomial disks with certified avoidance
    of K and center inside the 2^N0 polydisk.

    Proposals place one marked (x, y)-coordinate between consecutive shell
    radii and keep perturbation tails small relative to the gap, so the
    certifier accepts at a healthy rate while rejection still happens.
    Returns a list of HolomorphicCurve; raises ValueError unless n >= 1
    and count >= 0 (count 0 gives []).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if count < 0:
        raise ValueError("count must be >= 0")
    rng = np.random.default_rng(seed)
    # radial slots for the marked coordinate: inside the first shell or in
    # one of the gaps (2^(i-1), 2^i) up to 2^N0.  They read the bands' exp
    # of log radii, not K's kept radii, so seeded proposals stay as they
    # were drawn; only the certificate reads the kept radii.
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
        base = _uniform(rng, lo + 0.15 * (hi - lo), hi - 0.15 * (hi - lo))
        amp = _uniform(rng, 0.0, 0.35) * min(
            base - lo if slot else hi - base, hi - base)
        marked = int(rng.integers(0, 2 * n))
        polys = [_proposal_poly(rng, base if d == marked
                                else _uniform(rng, 0.0, base), amp)
                 for d in range(2 * n)]
        xs = polys[0::2]
        ys = polys[1::2]
        z0 = _uniform(rng, 0.0, 0.5 * 2.0 ** N0) * np.exp(
            1j * _uniform(rng, -math.pi, math.pi))
        f = legendrian_from_xy(xs, ys, complex(z0))
        if f.at(0.0).maxnorm() >= 2.0 ** N0:
            continue
        if certify_avoidance(f.components, K, margin).certified:
            out.append(f)
    if len(out) < count:
        raise RuntimeError(
            f"rejection sampler produced only {len(out)}/{count} disks")
    return out
