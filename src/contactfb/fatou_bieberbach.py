"""Push-out construction of Fatou-Bieberbach domains avoiding a union of
shell-times-disk cylinders.

Round k composes two shear-like automorphisms theta_k = psi_k o phi_k,
where phi adds f(z_{j-1}) to z_j and psi adds g(z_{j+1}) to z_j, with

    f(zeta) = sum_j (zeta / r_j)^(N_j),    b_{j-1} < r_j < a_j.

Exponents are selected so that (i) each summand is tiny on the previous
disk (geometric tail, giving |theta_k - id| < eps_k on the k-polydisk),
and (ii) each summand dominates everything earlier on its own annulus, so
the image of shell i is pinched into a new band (alpha_i, beta_i).  The
schedule of each round therefore maps the current cylinder union into the
next one while the next union clears the (k+1)-polydisk; orbits of the
obstacle diverge while orbits near the origin converge to the limit map.

Exponent selection enforces these inequalities with explicit slack from
coefficient-sum bounds, in the log domain throughout because band radii
overflow native floats after two rounds.  The round contracts that accept
its result (the band sandwich, finite output bands, disjointness from the
(k+1)-polydisk and the identity bound) and the membership rule of
``omega_membership`` are the kernel's, ``contactfb.certify``.

A shear function is evaluated on three paths.  The first two carry
points at any magnitude in log-polar form, the log-moduli and the phases
of their coordinates.  They read complex coordinates by one rule
(``_point_arrays``) and sum by one rule (``scaled_sum_arrays``, with
``polar_sum`` as its one-point form, which rounds by libm where the batch
rounds by numpy, so the two may differ in the last bit), one sum per
destination coordinate over z_dst and the terms of f(z_src), in that
order:

* single points (``apply_scaled``), two float lists each, read as column 0
  of a one-point ``_point_arrays`` batch and walked through the rounds by
  ``_point_orbit``: ``compose_orbit``, ``omega_membership`` and
  ``fb_map_eval``;
* batches (``apply_logpolar``), two coordinate-major (dim, m) arrays whose
  columns are such lists: row j holds coordinate j of every point, and the
  summands go on a new leading axis, so every sum runs elementwise over
  contiguous rows.  ``PushOutState.orbit_logs`` pushes a batch through the
  rounds in blocks of ``ORBIT_BLOCK`` points;
* native values in float range, the terms rect(exp(N (log|z| - log r)),
  N arg z) added in order: complex128 batches (``apply_native``, for the
  identity checks) by ``ShearFunction._term_sums``, where a term past float
  range reads inf or NaN, and one point with its tangents (``tangent_step``,
  for pullbacks) in Python floats by ``value_and_slope``, where it raises.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import zip_longest

import numpy as np

from .certify import (IN_OMEGA_CERTIFIED, SelectionError, certifies_in_omega,
                      check_bands, check_disjoint, check_identity,
                      check_sandwich)
from .numeric import (
    NEG_INF,
    log_add,
    log_sub,
    log_sum,
    polar_sum,
    scaled_sum_arrays,
)
from .shells import ShellBand, ShellUnion

EXPONENT_CAP = 10 ** 6
STATE_FORMAT_VERSION = 2

#: Largest log-distance the term radius r_i is placed above b_{i-1}.  For
#: narrow gaps r_i is the geometric mean of b_{i-1} and a_i; for the
#: astronomically wide gaps of later rounds the midpoint would waste half
#: the gap and double the band log-width ratio every stage, driving the
#: exponents super-exponentially.  Keeping r_i within a bounded log-offset
#: of b_{i-1} keeps the per-stage exponent growth geometric.
R_LOG_OFFSET_CAP = 2.0

#: Points per block of ``PushOutState.orbit_logs``.  A shear sum over z_dst
#: and the terms of a round (six for the default schedule) then makes
#: (summands, block) float64 temporaries of 224 KiB, which stay in a core's
#: L2 cache; a whole batch of 18 000 points would make them 984 KiB.
ORBIT_BLOCK = 4096


def _bump(x: float, nominal: float) -> float:
    """x plus a strictness slack that stays representable at any scale."""
    return x + max(nominal, 16.0 * math.ulp(abs(x)))


# ---------------------------------------------------------------------------
# shear functions and maps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ShearFunction:
    """Finite sum of terms (zeta / r_j)^(N_j); radii stored as log r_j.

    All coefficients are positive, so the coefficient-sum bound on a disk
    of radius R is the exact sup: f(R) itself.
    """

    terms: tuple[tuple[float, int], ...]  # (log_r, N), N nondecreasing

    def __post_init__(self):
        prev = 0
        for log_r, N in self.terms:
            if N < prev:
                raise ValueError("exponents must be nondecreasing")
            if N < 1:
                raise ValueError("exponents must be >= 1")
            prev = N

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def sup_log(self, log_R: float) -> float:
        """log f(R) = log sup_{|z|<=R} |f|, exact up to rounding."""
        return log_sum(N * (log_R - log_r) for log_r, N in self.terms)

    @cached_property
    def _term_arrays(self) -> np.ndarray:
        """The (log r_j, N_j) of the terms as a (2, terms) float64 array."""
        return np.array(self.terms, dtype=np.float64).reshape(-1, 2).T

    def _term_columns(self, ndim: int):
        """The term columns (log r_j, N_j), shaped (terms, 1, ..., 1) to
        broadcast against an array of ``ndim`` dimensions."""
        return self._term_arrays.reshape((2, -1) + (1,) * ndim)

    def _term_sums(self, z: np.ndarray):
        """f(z) for complex128 z of any shape: the terms broadcast on a new
        leading axis and added in order.  exp and log act as IEEE gives them,
        with no warning: log 0 is -inf, and a term past float range reads inf
        or NaN."""
        if not self.terms:
            return np.zeros(z.shape, dtype=np.complex128)
        log_r, N = self._term_columns(z.ndim)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            lm = N * (np.log(np.abs(z)) - log_r)
            # cumsum adds the terms in order for any point shape (np.sum
            # would reassociate a reduction along a contiguous axis); adding
            # 0.0 gives the zero signs of a sum started from 0
            return np.cumsum(np.exp(lm) * np.exp(1j * (N * np.angle(z))),
                             axis=0)[-1] + 0.0

    def eval_native(self, z):
        """f at complex z of any shape, as a complex128 array of its shape."""
        return self._term_sums(np.asarray(z, dtype=np.complex128))

    @cached_property
    def _slope_terms(self) -> tuple:
        """(log r_j, N_j, N_j - 1, log N_j - log r_j) per term."""
        return tuple((lr, N, N - 1, math.log(N) - lr) for lr, N in self.terms)

    def value_and_slope(self, z: complex) -> tuple[complex, complex]:
        """(f(z), f'(z)) at one complex z in Python floats, by the rule of
        ``_term_sums``: with t = log|z| - log r and theta = atan2, the terms
        rect(exp(N t), N theta) of f and rect(exp((N - 1) t + log N - log
        r), (N - 1) theta) of f', added in order from 0j.  At z = 0, f is 0
        and f' the sum of the N = 1 terms 1 / r.  Raises OverflowError when
        a term leaves float range."""
        f = df = 0j
        try:
            lz, theta = ((math.log(abs(z)), math.atan2(z.imag, z.real)) if z
                         else (-math.inf, 0.0))
            for log_r, N, M, lead in self._slope_terms:
                t = lz - log_r
                f += cmath.rect(math.exp(N * t), N * theta)
                # M = N - 1 = 0 leaves 1 / r, also where t = -inf
                df += cmath.rect(math.exp((M and M * t) + lead), M * theta)
        except OverflowError:
            raise OverflowError(f"a shear term at {z!r} escaped native float "
                                "range") from None
        return f, df


def _dimension_error(got: int, dim: int) -> ValueError:
    return ValueError(f"point of dimension {got} given to a shear map of "
                      f"dimension {dim}")


@dataclass(frozen=True)
class ShearMap:
    """One shear-like automorphism of C^dim.

    kind 'phi': (z_1, z_2 + f(z_1), ..., z_dim + f(z_{dim-1}))
    kind 'psi': (z_1 + f(z_2), ..., z_{dim-1} + f(z_dim), z_dim)

    Both are unipotent triangular, hence volume preserving.
    """

    kind: str
    dim: int
    func: ShearFunction

    def __post_init__(self):
        if self.kind not in ("phi", "psi"):
            raise ValueError("kind must be 'phi' or 'psi'")
        if self.dim < 2:
            raise ValueError("dim must be >= 2")

    @cached_property
    def _slices(self):
        """(source, destination) coordinate slices: z_dst += f(z_src)."""
        if self.kind == "phi":
            return slice(0, self.dim - 1), slice(1, self.dim)
        return slice(1, self.dim), slice(0, self.dim - 1)

    @cached_property
    def _pairs(self):
        """The (source, destination) coordinate pairs of ``_slices``."""
        src, dst = self._slices
        return tuple(zip(range(self.dim)[src], range(self.dim)[dst]))

    # -- single log-polar points -------------------------------------------

    # The name is kept because perfbench/tracer.py patches this method by
    # name; ROADMAP item 6 renames it together with its tracer span.
    def apply_scaled(self, log_mag: list, phase: list):
        """Action on one point given by the lists of its coordinates'
        log-moduli and phases (one column of ``apply_logpolar``'s arrays):
        one ``polar_sum`` per destination coordinate over z_dst and the
        terms of f(z_src), in that order."""
        out_lm, out_ph = list(log_mag), list(phase)
        terms = self.func.terms
        for s, d in self._pairs:
            lz, az = log_mag[s], phase[s]
            out_lm[d], out_ph[d] = polar_sum(
                [log_mag[d]] + [N * (lz - log_r) for log_r, N in terms],
                [phase[d]] + [N * az for _, N in terms])
        return out_lm, out_ph

    # -- log-polar batches ------------------------------------------------

    def apply_logpolar(self, log_mag: np.ndarray, phase: np.ndarray):
        """Batched action on m points stored as coordinate-major (dim, m)
        log-magnitude and phase arrays: row j holds coordinate j of every
        point.  All destination rows are summed in one ``scaled_sum_arrays``
        call, whose summands are z_dst and then the terms of f(z_src)."""
        src, dst = self._slices
        log_r, N = self.func._term_columns(log_mag.ndim)
        lms = np.empty((len(log_r) + 1,) + log_mag[dst].shape)
        phs = np.empty_like(lms)
        lms[0], phs[0] = log_mag[dst], phase[dst]
        np.subtract(log_mag[src], log_r, out=lms[1:])
        lms[1:] *= N
        np.multiply(N, phase[src], out=phs[1:])
        out_lm = log_mag.copy()
        out_ph = phase.copy()
        out_lm[dst], out_ph[dst] = scaled_sum_arrays(lms, phs)
        return out_lm, out_ph

    # -- native action and tangent step (for pullbacks) -------------------

    def apply_native(self, vec: np.ndarray) -> np.ndarray:
        """Action on a point or on the rows of an (m, dim) array; a point
        that leaves float range comes back non-finite, with no warning.
        Raises ValueError when a point does not have dim coordinates."""
        vec = np.asarray(vec, dtype=np.complex128)
        if vec.shape[-1:] != (self.dim,):
            raise _dimension_error(vec.shape[-1] if vec.ndim else 1, self.dim)
        src, dst = self._slices
        out = vec.copy()
        out[..., dst] = vec[..., dst] + self.func.eval_native(vec[..., src])
        return out

    def tangent_step(self, vec, tan: np.ndarray):
        """(image of the point ``vec``, image of ``tan`` under the derivative
        at ``vec``): z_dst + f(z_src) and t_dst + f'(z_src) t_src, from one
        ``value_and_slope`` call per (source, destination) pair.

        ``vec``, one point as a sequence of dim complex numbers, comes back
        as a new list; ``tan``, a complex128 vector of shape (dim,) or a
        (dim, c) array of tangent columns, as a new array in which each
        column has the bits of a one-vector step.  Raises ValueError when
        ``vec`` does not have dim coordinates."""
        if len(vec) != self.dim:
            raise _dimension_error(len(vec), self.dim)
        rows = tan.reshape(self.dim, -1).tolist()
        out_vec, out_rows = list(vec), list(rows)
        for s, d in self._pairs:
            f, df = self.func.value_and_slope(vec[s])
            out_vec[d] = vec[d] + f
            out_rows[d] = [t + df * u for t, u in zip(rows[d], rows[s])]
        return out_vec, np.array(out_rows, np.complex128).reshape(tan.shape)


# ---------------------------------------------------------------------------
# exponent selection
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StageSchedule:
    """Log-domain data consumed by exponent selection for one shear stage.

    ``log_offset`` holds, per shell, the log of the largest modulus any
    coordinate being shifted can carry inside that shell (the disk height
    for dim 2, max of band radius and disk height for dim > 2).
    ``log_base`` is log b_0, the radius on which the stage must approximate
    the identity.
    """

    log_base: float
    log_a: tuple[float, ...]
    log_b: tuple[float, ...]
    log_offset: tuple[float, ...]
    log_offset_base: float = NEG_INF
    log_r: tuple[float, ...] = ()

    def __post_init__(self):
        if not (len(self.log_a) == len(self.log_b) == len(self.log_offset)):
            raise ValueError("schedule arrays must have equal length")
        prev = self.log_base
        for i, (la, lb) in enumerate(zip(self.log_a, self.log_b), start=1):
            if not (prev < la <= lb):
                raise ValueError(f"schedule not interleaved at shell {i}")
            prev = lb
        if not self.log_r:
            rs = []
            prev = self.log_base
            for la in self.log_a:
                # relative floor keeps the offset above one ulp of prev
                off = max(R_LOG_OFFSET_CAP, abs(prev) * 2.0 ** -40)
                rs.append(prev + min(0.5 * (la - prev), off))
                prev = self.log_b[len(rs) - 1]
            object.__setattr__(self, "log_r", tuple(rs))

    @property
    def count(self) -> int:
        return len(self.log_a)

    @classmethod
    def from_shell_union(cls, K: ShellUnion, log_base: float,
                         dim: int) -> "StageSchedule":
        la = tuple(s.log_a for s in K.shells)
        lb = tuple(s.log_b for s in K.shells)
        if dim == 2:
            off = tuple(s.log_c for s in K.shells)
        else:
            off = tuple(max(s.log_b, s.log_c) for s in K.shells)
        return cls(log_base=log_base, log_a=la, log_b=lb, log_offset=off)


@dataclass(frozen=True)
class SelectionWitness:
    """Audit record for one selected exponent.

    All band magnitudes are stored as natural logs; ``slacks`` holds the
    log-domain margins by which each certified inequality holds.
    """

    i: int
    N: int
    log_r: float
    M_log: float
    alpha_log: float
    beta_prev_log: float
    slacks: dict


def select_exponent(i: int, schedule: StageSchedule, partial: ShearFunction,
                    eps: float, m_floor: int | None = None,
                    min_exponent: int = 1) -> SelectionWitness:
    """Smallest admissible exponent N_i for shell i (1-based).

    Simultaneously enforces, with f_{i-1} the partial sum built so far:

    * tail control: (b_{i-1} / r_i)^N < 2^(-i-1) eps, so the term is tiny
      on the previous disk and the series tail sums below eps;
    * pinching: there is M_i >= m_floor with
      sup f_{i-1}(b_{i-1}) + offset_{i-1} + eps < M_i <
      (a_i / r_i)^N - sup f_{i-1}(b_i) - offset_i - eps.

    Returns the witness carrying M_i and the band bounds
    beta_{i-1} = sup f_{i-1}(b_{i-1}) + offset_{i-1} + 2^(-i) eps and
    alpha_i = (a_i / r_i)^N - sup f_{i-1}(b_i) - offset_i - 2^(-i) eps,
    together with the slack of every inequality; the kernel's
    ``check_sandwich`` accepts beta_{i-1} < M_i < alpha_i.
    """
    if not (1 <= i <= schedule.count):
        raise ValueError("shell index out of range")
    if eps <= 0:
        raise ValueError("eps must be positive")
    if m_floor is None:
        m_floor = i + 1
    idx = i - 1
    log_b_prev = schedule.log_base if i == 1 else schedule.log_b[idx - 1]
    log_off_prev = schedule.log_offset_base if i == 1 \
        else schedule.log_offset[idx - 1]
    log_a = schedule.log_a[idx]
    log_b = schedule.log_b[idx]
    log_off = schedule.log_offset[idx]
    log_r = schedule.log_r[idx]
    if not (log_b_prev < log_r < log_a):
        raise ValueError(f"r_{i} must satisfy b_{i-1} < r_{i} < a_{i}")

    log_eps = math.log(eps)
    log_t1 = log_eps - (i + 1) * math.log(2.0)   # 2^(-i-1) eps
    log_tail = log_eps - i * math.log(2.0)       # 2^(-i) eps

    gap_in = log_r - log_b_prev    # > 0
    gap_out = log_a - log_r        # > 0

    # admissible M_i
    sup_prev = partial.sup_log(log_b_prev)
    lhs_log = log_sum([sup_prev, log_off_prev, log_eps])
    if lhs_log < math.log(1e12):
        M_log = math.log(max(m_floor, math.ceil(math.exp(lhs_log)) + 1))
    else:
        M_log = _bump(lhs_log, math.log(1.25))

    # pinching bound: (a/r)^N must clear M + sup f_{i-1}(b_i) + off + eps
    sup_here = partial.sup_log(log_b)
    rhs_log = log_sum([M_log, sup_here, log_off, log_eps])
    rhs_strict = _bump(rhs_log, 0.0)
    if not all(map(math.isfinite, (gap_in, gap_out, M_log, rhs_strict))):
        raise SelectionError(f"shell {i}: a log-domain quantity is beyond "
                             "float64 range", i, "representation")

    # tail-control bound; the loops stop past the cap, where a float
    # product may no longer change when n grows by 1
    n1 = max(1, math.floor(-log_t1 / gap_in) + 1)
    while n1 <= EXPONENT_CAP and n1 * (log_b_prev - log_r) >= log_t1:
        n1 += 1

    n3 = max(1, math.floor(rhs_strict / gap_out) + 1)
    while n3 <= EXPONENT_CAP and n3 * gap_out <= rhs_strict:
        n3 += 1

    N = max(n1, n3, min_exponent)
    if N > EXPONENT_CAP:
        binding = "tail-control" if n1 >= n3 else "pinching"
        raise SelectionError(
            f"shell {i}: exponent {N} exceeds cap {EXPONENT_CAP} "
            f"(binding inequality: {binding})", i, binding)

    pow_log = N * gap_out
    alpha_log = log_sub(pow_log, log_sum([sup_here, log_off, log_tail]))
    beta_prev_log = log_sum([sup_prev, log_off_prev, log_tail])
    check_sandwich(i, beta_prev_log, M_log, alpha_log)

    slacks = {
        "tail_control": log_t1 - N * (log_b_prev - log_r),
        "m_above_lhs": M_log - lhs_log,
        "pow_above_rhs": pow_log - rhs_log,
        "m_above_beta": M_log - beta_prev_log,
        "alpha_above_m": alpha_log - M_log,
    }
    return SelectionWitness(i=i, N=N, log_r=log_r, M_log=M_log,
                            alpha_log=alpha_log, beta_prev_log=beta_prev_log,
                            slacks=slacks)


def _build_stage(schedule: StageSchedule, eps: float, m_floor_base: int):
    """Select all exponents of one shear stage; returns the shear function,
    the witnesses, and the output bands (alpha_i, beta_i), which the
    kernel's ``check_bands`` accepts."""
    terms: list[tuple[float, int]] = []
    witnesses: list[SelectionWitness] = []
    prev_N = 1
    for i in range(1, schedule.count + 1):
        partial = ShearFunction(tuple(terms))
        w = select_exponent(i, schedule, partial, eps,
                            m_floor=m_floor_base + i, min_exponent=prev_N)
        terms.append((w.log_r, w.N))
        witnesses.append(w)
        prev_N = w.N
    func = ShearFunction(tuple(terms))
    alphas = [w.alpha_log for w in witnesses]
    # upper band bounds use the completed sum: |z_off + f(z)| <= off + f(b_i)
    betas = [_bump(log_add(func.sup_log(schedule.log_b[i]),
                           schedule.log_offset[i]), 1e-9)
             for i in range(schedule.count)]
    check_bands(alphas, betas)
    return func, tuple(witnesses), tuple(alphas), tuple(betas)


# ---------------------------------------------------------------------------
# rounds and state
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EpsSchedule:
    """Summable identity-approximation schedule eps_k = base * 2^(-k).

    The default base 1/2 gives eps_k = 2^(-k-1) with total sum 1/2 < 1, so
    the origin stays certified inside the convergence domain.
    """

    base: float = 0.5

    def __post_init__(self):
        if not (0 < self.base < 1):
            raise ValueError("base must lie in (0, 1)")

    def eps(self, k: int) -> float:
        return self.base * 2.0 ** (-k)

    def tail(self, k: int) -> float:
        """sum of eps_m over all m > k (full infinite tail)."""
        return self.base * 2.0 ** (-k)


@dataclass(frozen=True)
class PushOutRound:
    index: int
    phi: ShearMap
    psi: ShearMap
    phi_witnesses: tuple[SelectionWitness, ...]
    psi_witnesses: tuple[SelectionWitness, ...]
    shells_before: ShellUnion
    shells_mid: ShellUnion
    shells_after: ShellUnion
    eps: float
    id_bound: float

    def apply_logpolar(self, log_mag, phase):
        """The round on coordinate-major (dim, m) log-polar arrays."""
        lm, ph = self.phi.apply_logpolar(log_mag, phase)
        return self.psi.apply_logpolar(lm, ph)


@dataclass
class PushOutState:
    """Evolving state of the push-out recursion.

    ``initial`` must be a vertical shell union (shell block on the first
    dim-1 coordinates, disk on the last) with a_1 > 1; rounds are appended
    by :func:`build_shear_round`, every exponent below ``EXPONENT_CAP``.
    """

    dim: int
    initial: ShellUnion
    eps_schedule: EpsSchedule = field(default_factory=EpsSchedule)
    rounds: list[PushOutRound] = field(default_factory=list)

    def __post_init__(self):
        if self.dim < 2:
            raise ValueError("dim must be >= 2")
        if self.initial.shell_dims != tuple(range(self.dim - 1)) or \
                self.initial.disk_dim != self.dim - 1:
            raise ValueError("initial shell union must be vertical in dim")
        if not self.initial.shells:
            raise ValueError("initial shell union has no shells")
        if self.initial.shells[0].log_a <= 0.0:
            raise ValueError("initial schedule needs a_1 > 1 "
                             "(dilate coordinates first)")

    @property
    def k(self) -> int:
        return len(self.rounds)

    def current_shells(self) -> ShellUnion:
        return self.rounds[-1].shells_after if self.rounds else self.initial

    def theta_maps(self):
        maps = []
        for r in self.rounds:
            maps.extend((r.phi, r.psi))
        return maps

    def orbit_logs(self, log_mag: np.ndarray, phase: np.ndarray) -> np.ndarray:
        """(m, k) array of per-round log max-norms of the m points given by
        coordinate-major (dim, m) log-magnitude and phase arrays.

        Blocks of ``ORBIT_BLOCK`` points go through all rounds one after
        the other, so the temporaries of each shear sum stay in cache; each
        value is computed elementwise, so it does not depend on the block."""
        m = log_mag.shape[1]
        out = np.empty((self.k, m))
        for lo in range(0, m, ORBIT_BLOCK):
            block = slice(lo, lo + ORBIT_BLOCK)
            lm, ph = log_mag[:, block], phase[:, block]
            for j, r in enumerate(self.rounds):
                lm, ph = r.apply_logpolar(lm, ph)
                out[j, block] = np.max(lm, axis=0)
        return out.T


def build_shear_round(state: PushOutState):
    """Build and append round k+1; returns the new PushOutRound.

    Each stage's exponents come with witnesses that theta_k maps the
    current union into the next one; the kernel's ``check_disjoint`` and
    ``check_identity`` accept that the next union clears the
    (k+1)-polydisk and that |theta_k - id| < eps_k on the k-polydisk.
    """
    k = state.k + 1
    eps_k = state.eps_schedule.eps(k)
    if eps_k == 0.0:  # select_exponent takes the log of eps_k
        raise SelectionError(f"eps_{k} = eps_base * 2^-{k} underflows to 0",
                             0, "underflow")
    K = state.current_shells()
    dim = state.dim

    # phi: identity on the k-polydisk, pinches the vertical shells into a
    # horizontal union (disk on the first coordinate); psi: identity on the
    # (k+1)-polydisk (alpha_1 > M_1 >= k+1 clears it), pinches them back
    unions, maps, witnesses = [K], [], []
    for kind, radius, disk in (("phi", k, 0), ("psi", k + 1.0, dim - 1)):
        prev = unions[-1]
        sched = StageSchedule.from_shell_union(prev, math.log(radius), dim)
        func, wit, alphas, betas = _build_stage(sched, eps_k, k)
        maps.append(ShearMap(kind, dim, func))
        witnesses.append(wit)
        unions.append(ShellUnion(
            tuple(ShellBand(a, b, s.log_b)
                  for a, b, s in zip(alphas, betas, prev.shells)),
            tuple(d for d in range(dim) if d != disk), disk))
    _, L, K_next = unions
    phi, psi = maps

    check_disjoint(k, K_next)
    # the identity-approximation bound on the k-polydisk
    sup_f = math.exp(phi.func.sup_log(math.log(k)))
    sup_g = math.exp(psi.func.sup_log(math.log(k + sup_f)))
    id_bound = sup_f + sup_g
    check_identity(k, id_bound, eps_k)

    rec = PushOutRound(index=k, phi=phi, psi=psi,
                       phi_witnesses=witnesses[0], psi_witnesses=witnesses[1],
                       shells_before=K, shells_mid=L, shells_after=K_next,
                       eps=eps_k, id_bound=id_bound)
    state.rounds.append(rec)
    return rec


def build_pushout(initial: ShellUnion, dim: int, k_max: int,
                  eps_schedule: EpsSchedule | None = None) -> PushOutState:
    """Run the recursion for k_max rounds starting from ``initial``; a
    round that fails raises ``SelectionError`` with its ``round`` set."""
    state = PushOutState(dim=dim, initial=initial,
                         eps_schedule=eps_schedule or EpsSchedule())
    for k in range(1, k_max + 1):
        try:
            build_shear_round(state)
        except SelectionError as e:
            e.round = k
            raise
    return state


def enclose_degenerate(K: ShellUnion) -> ShellUnion:
    """Proper interleaved enclosure of a (possibly degenerate a_i = b_i)
    schedule, dilated so that a_1 > 1 as the recursion requires.

    Each band (a, b) widens by 10 % to (0.9 a, 1.1 b); all radii and
    heights then double.  The bands must still interleave and a_1 must end
    above 1 (so the input needs a_1 > 1/1.8).
    """
    ld = math.log(2.0)
    bands = []
    prev_b = NEG_INF
    for s in K.shells:
        la = s.log_a + math.log1p(-0.1) + ld
        lb = s.log_b + math.log1p(0.1) + ld
        if not (prev_b < la):
            raise ValueError("widened bands no longer interleave")
        bands.append(ShellBand(la, lb, s.log_c + ld))
        prev_b = lb
    out = ShellUnion(tuple(bands), K.shell_dims, K.disk_dim)
    if out.shells[0].log_a <= 0.0:
        raise ValueError("a_1 too small: need a_1 > 1 after enclosure")
    return out


def desk_schedule(dim: int = 2, i_max: int = 6) -> ShellUnion:
    """Default vertical schedule: the degenerate bands a_i = b_i = 2^(i-1)
    with heights 2^(3i), enclosed at +-10% and dilated by 2 so the
    recursion's normalization a_1 > 1 holds."""
    degenerate = ShellUnion.from_linear(
        [(2.0 ** (i - 1), 2.0 ** (i - 1), 2.0 ** (3 * i))
         for i in range(1, i_max + 1)],
        tuple(range(dim - 1)), dim - 1)
    return enclose_degenerate(degenerate)


# ---------------------------------------------------------------------------
# orbits, membership, and the limit map
# ---------------------------------------------------------------------------

def _point_arrays(points, dim: int):
    """Coordinate-major (dim, m) float64 log-magnitude and phase arrays of
    a batch of m points with complex coordinates: the modulus is ``hypot``
    (as ``abs`` of a Python complex), its log is taken in ``np.longdouble``
    and rounded once, and the phase is ``cmath.phase`` (libm's atan2;
    ``np.arctan2`` may round differently) with -pi mapped to pi; zero is
    (-inf, 0).  A one-point batch's errors name only the coordinate.
    """
    rows = [tuple(p) for p in points]
    if any(len(p) != dim for p in rows):
        raise ValueError("point dimension mismatch")
    flat = [v for p in rows for v in p]
    values = flat if all(type(v) is complex for v in flat) else [
        complex(v) for v in flat]
    z = np.array(values, dtype=np.complex128)
    bad = np.flatnonzero(~np.isfinite(z))
    if bad.size:
        n = int(bad[0])
        where = f"point {n // dim}, " if len(rows) > 1 else ""
        raise ValueError(f"{where}coordinate {n % dim} "
                         f"is not finite: {flat[n]!r}")
    with np.errstate(over="ignore", divide="ignore"):
        mag = np.hypot(z.real, z.imag)
        if np.isinf(mag).any():  # as abs() of a Python complex raises
            raise OverflowError("absolute value too large")
        lm = np.log(mag.astype(np.longdouble)).astype(np.float64)
    ph = np.fromiter(map(cmath.phase, values), np.float64, z.size)
    ph[ph == -math.pi] = math.pi
    ph[mag == 0.0] = 0.0
    return (np.ascontiguousarray(lm.reshape(-1, dim).T),
            np.ascontiguousarray(ph.reshape(-1, dim).T))


def _point_orbit(state: PushOutState, p):
    """The log-moduli and phases of p as lists: column 0 of a one-point
    ``_point_arrays`` batch (round 0), then after each built round."""
    lm, ph = (a[:, 0].tolist() for a in _point_arrays([p], state.dim))
    yield lm, ph
    for r in state.rounds:
        lm, ph = r.psi.apply_scaled(*r.phi.apply_scaled(lm, ph))
        yield lm, ph


@dataclass(frozen=True)
class OrbitRecord:
    """Per-round log max-norms of one orbit under the built composition."""

    log_maxnorms: tuple[float, ...]
    first_escape: int | None
    classification: str  # 'escaped' | 'bounded-so-far'


def first_escape_round(logs) -> int | None:
    """The first round j (counted from 1) whose log max-norm ``logs[j-1]``
    exceeds log(j + 1), the escape radius after round j; None if none does."""
    for j, lm in enumerate(logs, start=1):
        if lm > math.log(j + 1.0):
            return j
    return None


def compose_orbit(state: PushOutState, p) -> OrbitRecord:
    """Track |Theta_j(p)| through the built rounds in log-polar form; the
    escape radius after round j is j + 1."""
    logs = [max(lm) for lm, _ in _point_orbit(state, p)][1:]
    first_escape = first_escape_round(logs)
    classification = "escaped" if first_escape is not None else "bounded-so-far"
    return OrbitRecord(log_maxnorms=tuple(logs), first_escape=first_escape,
                       classification=classification)


def orbit_logs_batch(state: PushOutState, points) -> np.ndarray:
    """(m, k) array of per-round log max-norms for a batch of points with
    complex coordinates (read as in ``compose_orbit``), computed in
    log-polar form over the whole batch."""
    return state.orbit_logs(*_point_arrays(points, state.dim))


def _membership(state: PushOutState, orbit) -> str:
    """``omega_membership``'s verdict on an orbit of (log-moduli, phases)
    pairs from round 0, read only up to the first certifying round."""
    logs = []
    for j, (lm, _) in enumerate(orbit):
        logs.append(max(lm))
        if certifies_in_omega(j, logs[j], state.eps_schedule.tail(j)):
            return IN_OMEGA_CERTIFIED
    return "undecided" if first_escape_round(logs[1:]) is None else "escaped"


def omega_membership(state: PushOutState, p) -> str:
    """Conservative classification against the convergence domain.

    'in_omega_certified' when the kernel's ``certifies_in_omega`` accepts
    some Theta_j(p); 'escaped' when the orbit crossed the escape radius;
    'undecided' otherwise.  Rounds are applied only until the first
    certifying j: the escape verdict matters only when none certifies.
    """
    return _membership(state, _point_orbit(state, p))


def fb_map_eval(state: PushOutState, p):
    """Value of the built composition at a certified point, with the Cauchy
    tail of the remaining rounds as the error bound; the point is certified
    and evaluated in one walk through the rounds."""
    orbit = list(_point_orbit(state, p))
    if _membership(state, orbit) != IN_OMEGA_CERTIFIED:
        raise ValueError("point is not certified inside the domain")
    lm, ph = orbit[-1]
    value = tuple(cmath.rect(math.exp(a), b) for a, b in zip(lm, ph))
    return value, state.eps_schedule.tail(state.k)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def _terms_doc(func: ShearFunction) -> list:
    return [[repr(log_r), N] for log_r, N in func.terms]


def state_to_dict(state: PushOutState) -> dict:
    """Versioned JSON-ready document of what the construction is built from
    and what the builder chose: dim, the eps base, the initial bands
    (log a, log b, log c) and each round's phi and psi terms (log r, N).
    Floats are repr strings, so they reload bit for bit; the bands, witnesses
    and bounds of every round are rebuilt on load."""
    return {
        "version": STATE_FORMAT_VERSION,
        "dim": state.dim,
        "eps_base": repr(state.eps_schedule.base),
        "initial": [[repr(s.log_a), repr(s.log_b), repr(s.log_c)]
                    for s in state.initial.shells],
        "rounds": [{"phi": _terms_doc(r.phi.func),
                    "psi": _terms_doc(r.psi.func)} for r in state.rounds],
    }


def _field(doc, key: str, convert, where: str = ""):
    """convert(doc[key]), or a ValueError naming the key."""
    if not isinstance(doc, dict) or key not in doc:
        raise ValueError(f"state: missing key '{where}{key}'")
    try:
        return convert(doc[key])
    except (TypeError, ValueError) as e:
        raise ValueError(f"state: bad value for '{where}{key}': "
                         f"{type(e).__name__}: {e}") from None


def _typed(value, kind):
    if type(value) is not kind:
        raise TypeError(f"expected {kind.__name__}, got {value!r}")
    return value


def _float(value) -> float:
    """A finite float stored as a decimal string."""
    x = float(_typed(value, str))
    if not math.isfinite(x):
        raise ValueError(f"{value!r} is not finite")
    return x


def _stored_terms(value) -> list:
    """Stored [log_r, N] pairs in the form ``_terms_doc`` writes, so that
    equal lists mean equal exponents and bit-identical radii."""
    out = []
    for term in _typed(value, list):
        log_r, N = _typed(term, list)
        out.append([repr(_float(log_r)), _typed(N, int)])
    return out


def state_from_dict(doc: dict) -> PushOutState:
    """Inverse of ``state_to_dict``: rebuild the construction from the
    stored inputs with one ``build_shear_round`` per stored round, and check
    that each round chooses exactly the stored terms.

    Raises ValueError naming the first missing, mistyped or invalid key, a
    round that fails to build, or the first term whose exponent or log
    radius (any bit of it) differs from the rebuilt one."""
    if not isinstance(doc, dict):
        raise ValueError("state: expected a JSON object")
    version = doc.get("version")
    if version != STATE_FORMAT_VERSION:
        raise ValueError(f"state: format version {version!r} is not "
                         f"supported (only {STATE_FORMAT_VERSION} is); rerun "
                         "`contactfb run` to write the state again")
    dim = _field(doc, "dim", lambda v: _typed(v, int))
    if dim < 2:
        raise ValueError(f"state: bad value for 'dim': {dim} is below 2")
    eps_schedule = _field(doc, "eps_base", lambda v: EpsSchedule(_float(v)))
    state = _field(doc, "initial", lambda bands: PushOutState(
        dim, ShellUnion(tuple(ShellBand(*map(_float, _typed(b, list)))
                              for b in _typed(bands, list)),
                        tuple(range(dim - 1)), dim - 1),
        eps_schedule))
    for n, rd in enumerate(_field(doc, "rounds", lambda v: _typed(v, list))):
        stored = {kind: _field(rd, kind, _stored_terms, f"rounds[{n}].")
                  for kind in ("phi", "psi")}
        try:  # edited inputs can also leave float range or round eps to 0
            rec = build_shear_round(state)
        except (SelectionError, ValueError, ArithmeticError) as e:
            raise ValueError(f"state: 'rounds[{n}]': push-out round {n + 1} "
                             f"fails to build: {e}") from None
        for kind, want in stored.items():
            built = _terms_doc(getattr(rec, kind).func)
            for j, (w, b) in enumerate(zip_longest(want, built)):
                if w != b:
                    raise ValueError(
                        f"state: 'rounds[{n}].{kind}' term {j} is {w}, but "
                        f"the stored inputs build {b}")
    return state


def save_state(state: PushOutState, path) -> None:
    with open(path, "w") as fh:
        json.dump(state_to_dict(state), fh, indent=1)


def load_state(path) -> PushOutState:
    with open(path) as fh:
        return state_from_dict(json.load(fh))
