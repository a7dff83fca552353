
import math

import numpy as np
import pytest

from contactfb.experiment import (
    ExperimentConfig,
    _sample_shell_points,
    run_experiment,
)
from contactfb.fatou_bieberbach import (
    EpsSchedule,
    build_pushout,
    desk_schedule,
)
from contactfb.obstacle import membership_margin


def _loop_shell_points(K, per_shell, rng):
    """``_sample_shell_points`` with per-point draws for every number of
    shell coordinates, the form that drew nothing per point for one shell
    coordinate replaced, kept as its reference."""
    lms, phases = [], []
    for s in K.shells:
        lm = rng.uniform(s.log_a, s.log_b, per_shell)
        phases.append(rng.uniform(-math.pi, math.pi, (per_shell, K.dim)).T)
        coords = np.empty((K.dim, per_shell))
        coords[K.disk_dim] = s.log_c + np.log(np.sqrt(rng.random(per_shell)))
        for m in range(per_shell):
            block = rng.integers(0, len(K.shell_dims))
            for bi, d in enumerate(K.shell_dims):
                coords[d, m] = lm[m] if bi == block else \
                    lm[m] + math.log(rng.random() + 1e-12)
        lms.append(coords)
    return np.concatenate(lms, axis=1), np.concatenate(phases, axis=1)


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_shell_points_equal_loop(dim):
    # the same arrays bit for bit, and the generator left in the same state
    K = desk_schedule(dim, 4)
    got_rng, want_rng = np.random.default_rng(7), np.random.default_rng(7)
    got = _sample_shell_points(K, 25, got_rng)
    want = _loop_shell_points(K, 25, want_rng)
    for g, w in zip(got, want):
        assert g.shape == w.shape == (dim, 100)
        assert np.array_equal(g.view(np.uint64), w.view(np.uint64))
    assert got_rng.random() == want_rng.random()


def test_containment_margin_matches_scalar_images():
    cfg = ExperimentConfig(seed=3, i_max=3, k_max=3, samples_per_shell=30,
                           identity_samples=20, divergence_samples=5)
    report = run_experiment(cfg, "pushout")
    got = {c.name: c.value for c in report.checks}
    # the checks draw from one generator, round by round
    state = build_pushout(cfg.pushout_initial(), cfg.pushout_dim, cfg.k_max,
                          eps_schedule=EpsSchedule(cfg.eps_base))
    rng = np.random.default_rng(cfg.seed)
    for rnd in state.rounds:
        lm, ph = _sample_shell_points(rnd.shells_before,
                                      cfg.samples_per_shell, rng)
        # the points are the columns of the coordinate-major arrays
        img_lm = np.array([rnd.apply_scaled(lms, phs)[0] for lms, phs
                           in zip(lm.T.tolist(), ph.T.tolist())]).T
        want = float(np.min(membership_margin(rnd.shells_after, img_lm)))
        name = f"pushout/round{rnd.index}/containment"
        assert want > 0.0
        assert got[name] == pytest.approx(want, rel=1e-12)
    assert report.passed


def test_suite_error_is_a_failed_check():
    # validate_config refuses i_max = 400; built directly, every suite
    # overflows while it sets up and is recorded as a failed check
    report = run_experiment(ExperimentConfig(i_max=400, k_max=1), "all")
    assert not report.passed
    assert {c.name for c in report.checks} == {
        f"{s}/error:OverflowError" for s in ("lemma", "pushout", "kobayashi")}
