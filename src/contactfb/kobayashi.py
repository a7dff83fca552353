"""Numerical bracketing of the directed Kobayashi norm and distance.

The directed norm of a tangent direction v at p is the infimum of 1/|lambda|
over horizontal disks f with f(0) = p, f'(0) = lambda v.  Upper bounds come
from explicit certified disks (a witnessed feasible point of the infimum);
lower bounds come from the derivative-bound certificate of the obstacle
module, which caps |lambda v_coord| for every disk avoiding the standard
obstacle.  The distance estimator integrates the full-space directed upper
bound along a constructive horizontal path.

The complement-domain disk search scores candidates in complex128 and
certifies the returned witness exactly: each candidate is a list of float
coefficient lists whose z component comes from a float convolution, scored
by the same coefficient-sum routes as ``obstacle.certify_avoidance``.  Only
the best float-certified candidate is rebuilt as an exact ``CPolynomial``
disk (with an identically-zero horizontality residual) and re-certified; if
exact certification rejects it, the next-best stored candidate is tried.

The contrapositive of the derivative bound is closed-form: a disk centred
at the origin certifies only by the 'inside' route, so |x_1'(0)| < a_1 -
margin, and an exact linear disk comes within an ulp of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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
)

#: Float-certified candidates a search keeps for exact re-certification;
#: the best is rebuilt first, the rest are fallbacks.
CANDIDATE_STORE_SIZE = 8

#: Pattern search: weight of the certification shortfall in the score, and
#: the first and smallest coordinate step.
PENALTY_WEIGHT = 50.0
INIT_STEP = 0.5
MIN_STEP = 1e-3

#: Candidates, one ulp apart from the closed form down, that
#: ``max_certified_x_derivative`` tries before it reports that none certifies.
MAX_STEP_DOWNS = 64


@dataclass(frozen=True)
class SearchBudget:
    """Deterministic budget for the disk searches.

    ``lambda_budget`` caps the scaling |lambda| (and is the value used
    directly in the unconstrained full-space case); the pattern search runs
    ``restarts`` independent seeded starts of at most ``iterations`` sweeps.
    """

    restarts: int = 32
    iterations: int = 60
    degree: int = 4
    lambda_budget: float = 1e3
    margin: float = DEFAULT_AVOIDANCE_MARGIN

    def __post_init__(self):
        if self.restarts < 1 or self.iterations < 1:
            raise ValueError("restarts and iterations must be >= 1")
        if self.degree < 1:
            raise ValueError("degree must be >= 1")
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
# deterministic multi-start pattern search
# ---------------------------------------------------------------------------

class _CandidateStore:
    """The CANDIDATE_STORE_SIZE best float-certified points, by key.

    Holds one point per key, the first one found with it, best key first.
    """

    def __init__(self):
        self.items: list[tuple[float, np.ndarray]] = []

    def offer(self, key: float, x: np.ndarray) -> None:
        items = self.items
        if len(items) == CANDIDATE_STORE_SIZE and key <= items[-1][0]:
            return
        i = len(items)
        while i > 0 and items[i - 1][0] < key:
            i -= 1
        if i > 0 and items[i - 1][0] == key:
            return
        items.insert(i, (key, x))
        del items[CANDIDATE_STORE_SIZE:]


def _pattern_search(evaluate, x0: np.ndarray, budget: SearchBudget,
                    store: _CandidateStore) -> None:
    """Coordinate-wise pattern search maximizing a nonsmooth score.

    Search in complex128, certify the returned witness exactly:
    ``evaluate(x) -> (score, key)`` scores a point from float coefficients,
    with key None for points that do not float-certify.  Every certified
    point seen anywhere along the search (accepted or not) is offered to
    ``store``, which keeps the best by key; the caller rebuilds the
    winner as an exact disk and re-certifies it.
    """
    x = np.array(x0, dtype=np.float64)
    score, key = evaluate(x)
    if key is not None:
        store.offer(key, x)
    step = INIT_STEP
    for _ in range(budget.iterations):
        improved = False
        for j in range(x.size):
            for sgn in (1.0, -1.0):
                y = x.copy()
                y[j] += sgn * step
                s, k = evaluate(y)
                if k is not None:
                    store.offer(k, y)
                if s > score:
                    x, score = y, s
                    improved = True
        if not improved:
            step *= 0.5
            if step < MIN_STEP:
                break


def _disk_xy(p: ContactPoint, u: TangentVector, lam: float, free,
             degree: int):
    """x and y coefficient lists of the disk with f(0) = p, linear xy-part
    lam*u and free coefficients (re, im pairs) for powers 2..degree."""
    xs, ys = [], []
    pos = 0
    for j in range(p.n):
        for out, base, vel in ((xs, p.x[j], u.x[j]), (ys, p.y[j], u.y[j])):
            coeffs = [base, lam * vel]
            for _ in range(degree - 1):
                coeffs.append(complex(free[pos], free[pos + 1]))
                pos += 2
            out.append(coeffs)
    return xs, ys


def _build_disk(p: ContactPoint, u: TangentVector, lam: float,
                free, degree: int) -> HolomorphicCurve:
    """Horizontal disk with f(0) = p, linear xy-part lam*u, and free higher
    coefficients; z is determined by exact integration."""
    xs, ys = _disk_xy(p, u, lam, free, degree)
    return legendrian_from_xy([CPolynomial(c) for c in xs],
                              [CPolynomial(c) for c in ys], p.z)


def directed_norm_upper(p: ContactPoint, v: TangentVector,
                        domain: str = "complement",
                        K: ShellUnion | None = None,
                        budget: SearchBudget | None = None,
                        seed: int = 0):
    """Certified upper bound for the directed norm at (p, v), with witness.

    In the full space every direction admits a straight horizontal disk at
    any scaling, so the bound is maxnorm(v) / lambda_budget.  In the
    complement of K a multi-start pattern search maximizes the scaling over
    disks with certified avoidance; only certified disks are ever returned.
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
        witness = _build_disk(p, u, lam, np.zeros(0), 1)
        return scale / lam, witness

    if K is None:
        raise ValueError("complement domain requires the shell union K")
    degree = budget.degree
    n_params = 1 + 2 * (degree - 1) * 2 * p.n  # log-lambda + free coeffs

    log_cap = math.log(budget.lambda_budget)
    radii = K.linear_shells()

    def evaluate(params):
        vals = params.tolist()
        log_lam = vals[0]
        if log_lam > log_cap:
            return -math.inf, None
        xs, ys = _disk_xy(p, u, math.exp(log_lam), vals[1:], degree)
        certified, shortfall = _certification_shortfall(
            _float_legendrian(xs, ys, p.z), K, radii, budget.margin)
        score = log_lam - PENALTY_WEIGHT * shortfall
        return score, (log_lam if certified else None)

    store = _CandidateStore()
    for r in range(budget.restarts):
        x0 = np.zeros(n_params)
        if r == 0:
            x0[0] = -0.5
        else:
            rng = np.random.default_rng([seed, r])
            x0[0] = rng.uniform(-3.0, 0.5)
            x0[1:] = 0.1 * rng.standard_normal(n_params - 1)
        _pattern_search(evaluate, x0, budget, store)
    # exact re-certification, best stored candidate first
    for log_lam, x in store.items:
        witness = _build_disk(p, u, math.exp(x[0]), x[1:], degree)
        if certify_avoidance(witness.components, K, budget.margin).certified:
            return scale / math.exp(log_lam), witness
    return math.inf, None


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
    """Two-sided estimate in the complement domain."""
    lower, cert = directed_norm_lower(p, v, K)
    upper, witness = directed_norm_upper(p, v, "complement", K, budget, seed)
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
# the contrapositive of the derivative bound, in closed form
# ---------------------------------------------------------------------------

def max_certified_x_derivative(K: ShellUnion, n: int = 1,
                               margin: float = DEFAULT_AVOIDANCE_MARGIN):
    """(value, witness): the supremum of |x_1'(0)| over horizontal disks
    centred at the origin whose avoidance of K certifies.

    At f(0) = 0 every inf bound is <= 0, so only the 'inside' route can
    certify, and its sup bound sum_k |c_k| >= |x_1'(0)|: a certified disk
    has |x_1'(0)| < a_1 - margin.  The witness is the exact linear disk
    x_1 = value * zeta (other components zero) for the largest float value
    below a_1 - margin, within ``MAX_STEP_DOWNS`` ulps, that certifies;
    (0.0, None) if none does.
    """
    zero = CPolynomial([0])
    lam = math.nextafter(K.shells[0].a - margin, 0.0)
    for _ in range(MAX_STEP_DOWNS):
        f = legendrian_from_xy([CPolynomial([0, lam])] + [zero] * (n - 1),
                               [zero] * n, 0j)
        if certify_avoidance(f.components, K, margin).certified:
            return lam, f
        lam = math.nextafter(lam, 0.0)
    return 0.0, None
