"""Point membership in obstacle unions, and the rejection sampler of
horizontal disks that avoid them.

Point membership is one test, ``membership_margin``, on coordinate
log-moduli.  The sampler only proposes disks: each one it returns has
passed the kernel's ``certify.certify_avoidance``, and whether a disk's
derivative bounds hold is the kernel's ``verify_disk_estimate``.  The
unions themselves are the plain data of ``contactfb.shells``.
"""

from __future__ import annotations

import math

import numpy as np

# certify_avoidance, verify_disk_estimate and standard_obstacle are also
# read here by perfbench/, which imports and patches them by these names
from .certify import (DEFAULT_AVOIDANCE_MARGIN, certify_avoidance,
                      verify_disk_estimate)
from .contact import legendrian_from_xy
from .numeric import CPolynomial
from .shells import ShellUnion, standard_obstacle


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
