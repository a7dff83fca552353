
import numpy as np
import pytest

from contactfb.experiment import (
    ExperimentConfig,
    _sample_shell_points,
    run_experiment,
)
from contactfb.fatou_bieberbach import EpsSchedule, build_pushout
from contactfb.obstacle import membership_margin


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
        img_lm = np.array([rnd.apply_scaled(lms, phs)[0]
                           for lms, phs in zip(lm.tolist(), ph.tolist())])
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
