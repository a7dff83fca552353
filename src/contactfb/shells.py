"""Obstacle cylinder unions as plain data: finite lists of cylinders
(b_i closed-polydisk minus a_i open-polydisk) x (c_i closed disk), the
polydisk factor on ``shell_dims`` (max-norm), the disk on ``disk_dim``.

A union built from linear radii (``ShellUnion.from_linear``, as
``standard_obstacle`` is) keeps them and derives its logs; certificates read
the kept radii (``linear_shells``), point membership the logs.  The
push-out's unions are log-only, since their radii overflow floats within a
few rounds; their linear radii are read through exp once per union and
rounded outward (a down, b and c up), so a certificate on them rests on no
rounding of the stored log or of exp.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cache, cached_property


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
        prev_b = -math.inf
        for i, s in enumerate(self.shells, start=1):
            if not (s.log_a <= s.log_b):
                raise ValueError(f"shell {i}: requires a_{i} <= b_{i}")
            if not (prev_b < s.log_a):
                raise ValueError(
                    f"shell {i}: bands must interleave (b_{i-1} < a_{i})")
            if s.log_c == -math.inf:
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
    that ``obstacle.membership_margin`` reads on the band's edge is
    covered; exp's result is then moved one float outward, which covers
    exp's own error if it is below 1 ulp, as glibc's is (CPython's
    ``math.exp`` is the platform libm's).  Past float range a radius below
    is the largest float and one above is inf.
    """
    try:
        if up:
            return math.nextafter(math.exp(math.nextafter(log, math.inf)),
                                  math.inf)
        return math.nextafter(math.exp(math.nextafter(log, -math.inf)), 0.0)
    except OverflowError:
        return math.inf if up else sys.float_info.max


@cache
def standard_obstacle(n: int, i_max: int) -> ShellUnion:
    """Standard obstacle in C^(2n+1): degenerate bands a_i = b_i = 2^(i-1)
    on the 2n (x, y)-coordinates, height c_i = n * 2^(3i+1) on z, truncated
    at i_max.  These heights are the hyperbolicity constants under which
    the derivative-bound lemma is proved.  Each (n, i_max) is built once;
    the union is frozen, so every caller may share it.
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
