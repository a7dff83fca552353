
import numpy as np
import pytest

from contactfb.experiment import (
    ExperimentConfig,
    _sample_shell_points,
    run_experiment,
)
from contactfb.fatou_bieberbach import EpsSchedule, build_pushout
from contactfb.numeric import ScaledComplex
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
        images = [rnd.apply_scaled([ScaledComplex(a, b)
                                    for a, b in zip(lms, phs)])
                  for lms, phs in zip(lm.tolist(), ph.tolist())]
        img_lm = np.array([[v.abs_log() for v in img] for img in images])
        want = float(np.min(membership_margin(rnd.shells_after, img_lm)))
        name = f"pushout/round{rnd.index}/containment"
        assert want > 0.0
        assert got[name] == pytest.approx(want, rel=1e-12)
    assert report.passed
