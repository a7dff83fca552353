
import csv
import hashlib
import io
import math
import platform
import subprocess

import numpy as np
import pytest

from contactfb import experiment
from contactfb.experiment import (
    ExperimentConfig,
    _environment_stamp,
    _sample_shell_points,
    _write_orbit_csv,
    run_experiment,
)
from contactfb.fatou_bieberbach import (
    EpsSchedule,
    SelectionError,
    build_pushout,
    desk_schedule,
)
from contactfb.obstacle import membership_margin


def _loop_shell_points(K, per_shell, rng):
    """Kept reference (numpy kernel): ``_sample_shell_points`` with
    per-point draws for every number of shell coordinates, the form that
    drew nothing per point for one shell coordinate replaced."""
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
        img_lm = np.array([
            rnd.psi.apply_scaled(*rnd.phi.apply_scaled(lms, phs))[0]
            for lms, phs in zip(lm.T.tolist(), ph.T.tolist())]).T
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


def test_round_contracts_are_the_kernels(monkeypatch):
    # the disjointness and identity checks ask the kernel's rules, and a
    # round that a rule refuses is a failed check
    def refuse(k, *args):
        raise SelectionError(f"round {k}: refused", 0, "identity")
    monkeypatch.setattr(experiment, "check_disjoint", refuse)
    monkeypatch.setattr(experiment, "check_identity", refuse)
    cfg = ExperimentConfig(k_max=1, samples_per_shell=5, identity_samples=5,
                           divergence_samples=5)
    got = {c.name: c.verdict for c in run_experiment(cfg, "pushout").checks}
    assert not got["pushout/round1/disjointness"]
    assert not got["pushout/round1/identity"]
    assert got["pushout/round1/containment"]


def test_kobayashi_suite_in_dimension_n(monkeypatch):
    # n = 2: the obstacle, the points and the direction live in C^5, and
    # the bracket and distance are those of n = 1
    values = {1: {c.name: (c.value, c.margin) for c in
                  run_experiment(ExperimentConfig(n=1), "kobayashi").checks}}
    seen = []
    lower, upper = experiment.directed_norm_lower, \
        experiment.directed_norm_upper

    def record_lower(p, v, K):
        seen.append(("lower", p.n, v.n, K.dim))
        return lower(p, v, K)

    def record_upper(p, v, domain, K=None, budget=None):
        seen.append((domain, p.n, v.n, K.dim if K else None))
        return upper(p, v, domain, K, budget=budget)
    monkeypatch.setattr(experiment, "directed_norm_lower", record_lower)
    monkeypatch.setattr(experiment, "directed_norm_upper", record_upper)
    values[2] = {c.name: (c.value, c.margin) for c in
                 run_experiment(ExperimentConfig(n=2), "kobayashi").checks}
    assert seen == [("lower", 2, 2, 5), ("complement", 2, 2, 5),
                    ("full_space", 2, 2, None)]
    assert values[2] == values[1]
    assert values[2]["kobayashi/origin-bracket"][0] == 1.0000010000010002


def test_orbit_csv_bytes_equal_csv_writer(tmp_path):
    # every float repr a row can hold: infinities, nan, signed zero, the
    # largest and the smallest positive float
    odd = [math.inf, -math.inf, math.nan, -0.0, 0.0, 1e308, 5e-324, -2.5]
    rng = np.random.default_rng(4)
    log_mag = rng.choice(odd, (3, 40))
    phase = rng.choice(odd, (3, 40))
    logs = rng.choice(odd + [0.1, 5.0, 50.0], (40, 6))
    path = tmp_path / "orbits.csv"
    _write_orbit_csv(str(path), log_mag, phase, logs)
    text = path.read_bytes()
    rows = list(csv.reader(io.StringIO(text.decode(), newline="")))
    assert len(rows) == 1 + 40 * 6 and {len(r) for r in rows} == {5}
    out = io.StringIO(newline="")
    csv.writer(out).writerows(rows)
    assert out.getvalue().encode() == text
    assert hashlib.sha256(text).hexdigest()[:16] == "ace52f03812c97eb"
    for word in (b"inf", b"-inf", b"nan", b"-0.0", b"1e+308", b"5e-324"):
        assert word in text


def test_run_starts_no_process(tmp_path, monkeypatch):
    # platform.platform() runs `uname -p` once per interpreter to read the
    # processor; with its caches cleared the parent stamp started it here
    started = []

    def refuse(*args, **kwargs):
        started.append(args)
        raise RuntimeError("a process was started")
    monkeypatch.setattr(subprocess, "Popen", refuse)
    monkeypatch.setattr(platform, "_uname_cache", None)
    monkeypatch.setattr(platform, "_platform_cache", {})
    report = run_experiment(ExperimentConfig(), "all", str(tmp_path))
    assert report.passed and not started
    assert {p.name for p in tmp_path.iterdir()} == {
        "report.json", "orbits.csv", "pushout_state.json"}


def test_platform_string():
    got = _environment_stamp()["platform"]
    u = platform.uname()
    assert got.startswith(f"{u.system}-{u.release}-{u.machine}")
    if u.system == "Linux" and u.processor in ("", u.machine):
        assert got == platform.platform()
