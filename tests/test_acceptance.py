"""Acceptance suite: eight end-to-end criteria, one summary line each.

Every criterion records a PASS/FAIL line (printed in the terminal summary)
with its measured runtime, then asserts both the property and the runtime
budget.  Tolerances are pinned here and nowhere weakened.
"""

import cmath
import itertools
import math
import time

import numpy as np
import pytest
from conftest import record_acceptance

from contactfb.contact import (
    ContactPoint,
    TangentVector,
    alpha0_eval,
    chow_path,
    composition_jacobian,
    horizontality_residual,
    legendrian_from_xy,
    legendrian_line,
    pullback_eval,
)
from contactfb.fatou_bieberbach import (
    ShearFunction,
    StageSchedule,
    _point_lists,
    build_pushout,
    desk_schedule,
    omega_membership,
    select_exponent,
)
from contactfb.kobayashi import (
    SearchBudget,
    directed_norm_lower,
    directed_norm_upper,
    max_certified_x_derivative,
)
from contactfb.numeric import CPolynomial, NEG_INF, sample_polydisk
from contactfb.obstacle import (
    random_avoiding_disks,
    standard_obstacle,
    verify_disk_estimate,
)


def conclude(num, name, ok, detail, t0, limit=None):
    elapsed = time.perf_counter() - t0
    in_time = limit is None or elapsed < limit
    status = "PASS" if (ok and in_time) else "FAIL"
    budget = f", budget {limit:.0f}s" if limit is not None else ""
    record_acceptance(
        f"{status} criterion {num} [{name}]: {detail} ({elapsed:.1f}s{budget})")
    assert ok, f"criterion {num}: {detail}"
    assert in_time, f"criterion {num}: runtime {elapsed:.1f}s over {limit}s"


def _dyadic(rng, scale=16):
    return complex(int(rng.integers(-scale, scale + 1)) / scale,
                   int(rng.integers(-scale, scale + 1)) / scale)


def test_criterion_1_exact_horizontality():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    checked = 0
    ok = True
    for _ in range(600):  # prescribed-xy construction
        n = int(rng.integers(1, 4))
        degree = int(rng.integers(0, 9))
        polys = [CPolynomial((rng.standard_normal(degree + 1)
                              + 1j * rng.standard_normal(degree + 1)).tolist())
                 for _ in range(2 * n)]
        f = legendrian_from_xy(polys[0::2], polys[1::2],
                               complex(rng.standard_normal()))
        ok = ok and horizontality_residual(f).is_zero
        checked += 1
    for _ in range(400):  # point-velocity construction
        n = int(rng.integers(1, 4))
        px = [_dyadic(rng) for _ in range(n)]
        py = [_dyadic(rng) for _ in range(n)]
        vx = [_dyadic(rng) for _ in range(n)]
        vy = [_dyadic(rng) for _ in range(n)]
        vz = -sum(a * b for a, b in zip(px, vy))
        f = legendrian_line(ContactPoint(tuple(px), tuple(py), _dyadic(rng)),
                            TangentVector(tuple(vx), tuple(vy), vz))
        ok = ok and horizontality_residual(f).is_zero
        checked += 1
    conclude(1, "exact horizontality", ok and checked == 1000,
             f"{checked} disks, all residuals identically zero", t0, 10.0)


def test_criterion_2_derivative_bound_suite():
    t0 = time.perf_counter()
    ok = True
    worst_ratio = 0.0
    for n, N0 in itertools.product((1, 2), (1, 2, 3)):
        K = standard_obstacle(n, 6)
        disks = random_avoiding_disks(n, N0, K, count=500,
                                      seed=101 + 10 * n + N0)
        for f in disks:
            if not f.at(0.0).maxnorm() < 2.0 ** N0:
                ok = False
            rep = verify_disk_estimate(f, K, N0)
            if not (rep.passed and rep.avoidance == "certified"):
                ok = False
            ratio = max(
                max(rep.derivatives["x"] + rep.derivatives["y"])
                / rep.certificate.bound_xy,
                rep.derivatives["z"] / rep.certificate.bound_z)
            worst_ratio = max(worst_ratio, ratio)
            if not ratio < 1.0:  # strict bounds
                ok = False
    best, witness = max_certified_x_derivative(standard_obstacle(1, 6), n=1)
    ok = ok and witness is not None and best < 4.0
    conclude(2, "derivative bounds", ok,
             f"3000 disks strict (worst ratio {worst_ratio:.3f}), "
             f"certified supremum {best:.6f} < 4", t0, 180.0)


def _sample_vertical_union(K, per_shell, rng):
    """Coordinate-major (2, m) log-moduli and phases of points of K."""
    lms, phs = [], []
    for s in K.shells:
        lm = np.empty((2, per_shell))
        lm[0] = rng.uniform(s.log_a, s.log_b, per_shell)
        lm[1] = s.log_c - rng.uniform(0.0, 3.0, per_shell)
        lms.append(lm)
        phs.append(rng.uniform(-np.pi, np.pi, (per_shell, 2)).T)
    return np.concatenate(lms, axis=1), np.concatenate(phs, axis=1)


def _vertical_margin(K, lm):
    best = np.full(lm.shape[1], -np.inf)
    for s in K.shells:
        m = np.minimum.reduce([lm[0] - s.log_a, s.log_b - lm[0],
                               s.log_c - lm[1]])
        best = np.maximum(best, m)
    return best


def _theta_native(rnd, pts):
    z1, z2 = pts[:, 0].copy(), pts[:, 1].copy()
    z2 = z2 + rnd.phi.func.eval_native(z1)
    z1 = z1 + rnd.psi.func.eval_native(z2)
    return np.stack([z1, z2], axis=1)


def test_criterion_3_round_contracts():
    t0 = time.perf_counter()
    state = build_pushout(desk_schedule(2, 6), dim=2, k_max=6)
    rng = np.random.default_rng(33)
    ok = True
    worst_margin = math.inf
    worst_id = 0.0
    for rnd in state.rounds:
        k = rnd.index
        assert rnd.eps == 2.0 ** (-k - 1)
        # (a) containment with positive membership margin, 10^3 per shell
        lm, ph = _sample_vertical_union(rnd.shells_before, 1000, rng)
        out_lm, _ = rnd.apply_logpolar(lm, ph)
        margins = _vertical_margin(rnd.shells_after, out_lm)
        worst_margin = min(worst_margin, float(margins.min()))
        ok = ok and bool(np.all(margins > 0.0))
        # (b) witnessed disjointness from the closed (k+1)-polydisk
        ok = ok and rnd.shells_after.shells[0].log_a > math.log(k + 1.0)
        ok = ok and rnd.psi_witnesses[0].alpha_log > math.log(k + 1.0)
        # (c) identity approximation, sampled and certified
        pts = np.asarray(sample_polydisk(2, float(k), 10000, seed=500 + k),
                         dtype=np.complex128)
        diff = np.abs(_theta_native(rnd, pts) - pts).max()
        bound = max(float(diff), rnd.id_bound)
        worst_id = max(worst_id, bound / rnd.eps)
        ok = ok and bound < rnd.eps
    conclude(3, "push-out round contracts", ok,
             f"6 rounds: min margin {worst_margin:.3g}, "
             f"max |theta-id|/eps {worst_id:.3g}", t0, 120.0)


def test_criterion_4_divergence_convergence():
    t0 = time.perf_counter()
    state = build_pushout(desk_schedule(2, 6), dim=2, k_max=6)
    rng = np.random.default_rng(44)
    ok = True
    # 10^3 obstacle samples escape radius k+1 by round k, every k <= 6
    lm, ph = _sample_vertical_union(state.initial, 167, rng)
    lm, ph = lm[:, :1000], ph[:, :1000]
    for rnd in state.rounds:
        lm, ph = rnd.apply_logpolar(lm, ph)
        ok = ok and bool(np.all(lm.max(axis=0) > math.log(rnd.index + 1.0)))
    # origin and 10^2 small points: certified, bounded limit, Cauchy
    eps_total = sum(r.eps for r in state.rounds)
    points = [(0j, 0j)] + [tuple(p) for p in
                           sample_polydisk(2, 0.25, 100, seed=77)]
    for p in points:
        if omega_membership(state, p) != "in_omega_certified":
            ok = False
        init_norm = max(abs(c) for c in p)
        lm, ph = _point_lists(p, 2)
        prev = list(p)
        for rnd in state.rounds:
            lm, ph = rnd.apply_scaled(lm, ph)
            cur = [cmath.rect(math.exp(a), b) for a, b in zip(lm, ph)]
            step = max(abs(a - b) for a, b in zip(cur, prev))
            if not step < rnd.eps:  # Cauchy increments
                ok = False
            prev = cur
        final = max(abs(c) for c in prev)
        if not final <= eps_total + init_norm:
            ok = False
    conclude(4, "divergence/convergence dichotomy", ok,
             "1000 obstacle orbits escape on schedule; 101 small points "
             "certified with Cauchy increments below eps_k", t0, 60.0)


def _oracle_min_exponent(b_prev, r, a, c_prev, c, eps, m_floor=2,
                         cap=10 ** 6):
    """Independent brute-force scan of the two selection inequalities in
    plain linear arithmetic (i = 1, empty partial sum)."""
    lhs = c_prev + eps
    M = max(m_floor, math.ceil(lhs) + 1)
    for N in range(1, cap + 1):
        tail_ok = (b_prev / r) ** N < eps / 4.0
        pinch_ok = (a / r) ** N > M + c + eps
        if tail_ok and pinch_ok:
            return N
    raise AssertionError("oracle found no admissible exponent")


def test_criterion_5_exponent_selection_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(55)
    ok = True
    # the pinned reference tuple first: N = 6
    ref = StageSchedule(log_base=0.0, log_a=(math.log(2.0),),
                        log_b=(math.log(4.0),), log_offset=(0.0,),
                        log_offset_base=NEG_INF, log_r=(math.log(1.5),))
    w = select_exponent(1, ref, ShearFunction(()), eps=0.5)
    ok = ok and w.N == 6 == _oracle_min_exponent(1.0, 1.5, 2.0, 0.0, 1.0, 0.5)
    checked = 1
    while checked < 50:
        lb_prev = rng.uniform(-0.5, 1.0)
        lr = lb_prev + rng.uniform(0.05, 0.8)
        la = lr + rng.uniform(0.05, 0.8)
        lb = la + rng.uniform(0.0, 1.0)
        c_prev = rng.uniform(0.0, 3.0)
        c = rng.uniform(0.5, 5.0)
        eps = rng.uniform(0.05, 0.5)
        if abs((c_prev + eps) - round(c_prev + eps)) < 1e-3:
            continue  # avoid rounding ties at the integer ceiling
        sched = StageSchedule(log_base=lb_prev, log_a=(la,), log_b=(lb,),
                              log_offset=(math.log(c),),
                              log_offset_base=math.log(c_prev),
                              log_r=(lr,))
        w = select_exponent(1, sched, ShearFunction(()), eps=eps)
        want = _oracle_min_exponent(math.exp(lb_prev), math.exp(lr),
                                    math.exp(la), c_prev, c, eps)
        if w.N != want:
            ok = False
        checked += 1
    conclude(5, "exponent selection vs oracle", ok,
             f"{checked} tuples, exact integer agreement", t0, 10.0)


def test_criterion_6_kobayashi_brackets():
    t0 = time.perf_counter()
    K = standard_obstacle(1, 6)
    p = ContactPoint((0j,), (0j,), 0j)
    v = TangentVector((1 + 0j,), (0j,), 0j)
    budget = SearchBudget(lambda_budget=1e3)
    lower, _ = directed_norm_lower(p, v, K)
    upper, witness = directed_norm_upper(p, v, "complement", K, budget)
    full, _ = directed_norm_upper(p, v, "full_space", budget=budget)
    ok = (lower == 0.25 and upper <= 1.2 and lower <= upper
          and witness is not None and full <= 1e-2)
    conclude(6, "Kobayashi brackets", ok,
             f"lower {lower}, upper {upper:.4f} <= 1.2, "
             f"full space {full:.2e} <= 1e-2", t0, 60.0)


def test_criterion_7_path_planner():
    t0 = time.perf_counter()
    rng = np.random.default_rng(77)
    ok = True
    worst = 0.0
    for _ in range(100):
        p = ContactPoint.from_flat(
            [complex(a, b) for a, b in rng.standard_normal((3, 2))])
        q = ContactPoint.from_flat(
            [complex(a, b) for a, b in rng.standard_normal((3, 2))])
        plan = chow_path(p, q)
        for seg in plan.segments:
            if not horizontality_residual(seg).is_zero:
                ok = False
        err = max(abs(a - b)
                  for a, b in zip(plan.endpoint().flat(), q.flat()))
        worst = max(worst, err)
        if not err <= 1e-10:
            ok = False
    conclude(7, "path planner", ok,
             f"100 pairs, residuals exactly zero, worst endpoint error "
             f"{worst:.2e} <= 1e-10", t0, 5.0)


def test_criterion_8_pullback_nondegeneracy():
    t0 = time.perf_counter()
    state = build_pushout(desk_schedule(3, 6), dim=3, k_max=6)
    maps = state.theta_maps()
    rng = np.random.default_rng(88)
    ok = True
    worst_det = 0.0
    worst_rel = 0.0
    h = 1e-6
    # points strictly inside the unit polydisk, where the composition is
    # certified close to the identity and every Jacobian entry stays finite
    for p in sample_polydisk(3, 0.9, 100, seed=88):
        p = ContactPoint.from_flat(p)
        v = TangentVector.from_flat(
            [complex(a, b) for a, b in rng.standard_normal((3, 2))])
        det = np.linalg.det(composition_jacobian(maps, p))
        if not np.isfinite(det):
            ok = False
        worst_det = max(worst_det, abs(det - 1.0))
        got = pullback_eval(maps, p, v)
        # finite-difference oracle for dPhi . v
        def phi(vec):
            out = np.asarray(vec, dtype=np.complex128)
            for m in maps:
                out = m.apply_native(out)
            return out
        base = np.asarray(p.flat(), dtype=np.complex128)
        step = np.asarray(v.flat(), dtype=np.complex128)
        dv = (phi(base + h * step) - phi(base - h * step)) / (2 * h)
        q = ContactPoint.from_flat(phi(base).tolist())
        want = alpha0_eval(q, TangentVector.from_flat(dv.tolist()))
        rel = abs(got - want) / max(abs(want), abs(got), 1e-9)
        if not math.isfinite(rel):
            ok = False
        worst_rel = max(worst_rel, rel)
    ok = ok and worst_det <= 1e-10 and worst_rel <= 1e-5
    conclude(8, "pullback nondegeneracy", ok,
             f"100 points: |det-1| max {worst_det:.2e} <= 1e-10, "
             f"finite-difference rel err max {worst_rel:.2e} <= 1e-5", t0)
