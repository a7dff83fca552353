"""The four benchmark workloads.

Each workload has three steps:

* ``make_inputs(seed, tiny)`` builds every input from the seed; it runs
  during set-up, before the timed pass;
* ``run(inputs, tmp)`` is the timed pass: it calls the public API and keeps
  every output (an exception raised by one unit is kept as that unit's
  output);
* ``check(inputs, outputs)`` runs after the timer has stopped and returns
  an ``Outcome``: units attempted and failed, a digest of the outputs, exact
  result counts, and the bracket ratios where brackets are computed.

``tiny`` shrinks every size for the self-tests.  Why each workload exists
and which layers it loads is written down in README.md beside this file.
"""

from __future__ import annotations

import cmath
import hashlib
import json
import math
import os
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from contactfb.contact import (
    ContactPoint,
    TangentVector,
    alpha0_eval,
    horizontality_residual,
    pullback_eval,
)
from contactfb.experiment import ExperimentConfig, run_experiment
from contactfb.fatou_bieberbach import (
    build_pushout,
    compose_orbit,
    desk_schedule,
    load_state,
    omega_membership,
    orbit_logs_batch,
    save_state,
    state_to_dict,
)
from contactfb.kobayashi import SearchBudget, directed_norm_bracket
from contactfb.numeric import sample_polydisk
from contactfb.obstacle import (
    certify_avoidance,
    random_avoiding_disks,
    standard_obstacle,
    verify_disk_estimate,
)

I_MAX = 6  # shells at radii 1, 2, ..., 2^5


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    digest_parts: list = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)
    bracket_ratios: list = field(default_factory=list)

    def unit(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok

    def digest(self) -> str:
        blob = json.dumps(self.digest_parts, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]

    def bracket_ratio_gm(self) -> float:
        """Geometric mean of upper/lower; 1.0 (the empty product) when the
        workload computes no bracket."""
        if not self.bracket_ratios:
            return 1.0
        return math.exp(sum(map(math.log, self.bracket_ratios))
                        / len(self.bracket_ratios))


def attempt(func, *args, **kwargs):
    """func(*args, **kwargs), or the exception it raised: one unit's
    failure is recorded as that unit's output and the pass goes on."""
    try:
        return func(*args, **kwargs)
    except Exception as e:  # noqa: BLE001 - counted as a failed unit
        return e


def _sub_seeds(seed: int, count: int) -> list[int]:
    return [int(s.generate_state(1)[0])
            for s in np.random.SeedSequence(seed).spawn(count)]


def _sig(x: float, digits: int = 12) -> str:
    return f"{x:.{digits}e}"


# ---------------------------------------------------------------------------
# lemma-sampler: rejection sampler + disk-estimate verifier, no search
# ---------------------------------------------------------------------------

LEMMA_CELLS = tuple((n, N0) for n in (1, 2) for N0 in (1, 2, 3))


def lemma_inputs(seed: int, tiny: bool = False) -> dict:
    seeds = _sub_seeds(seed, len(LEMMA_CELLS))
    obstacles = {n: standard_obstacle(n, I_MAX) for n in (1, 2)}
    return {
        "obstacles": obstacles,
        "count": 2 if tiny else 40,
        "cells": [(n, N0, s) for (n, N0), s in zip(LEMMA_CELLS, seeds)],
    }


def lemma_run(inputs: dict, tmp: str) -> list:
    out = []
    for n, N0, s in inputs["cells"]:
        K = inputs["obstacles"][n]
        disks = attempt(random_avoiding_disks, n, N0, K, inputs["count"],
                        seed=s)
        if isinstance(disks, Exception):
            out.append((n, N0, disks))
            continue
        out.append((n, N0, [(f, attempt(verify_disk_estimate, f, K, N0))
                            for f in disks]))
    return out


def lemma_check(inputs: dict, outputs: list) -> Outcome:
    oc = Outcome()
    for n, N0, units in outputs:
        if isinstance(units, Exception):
            for _ in range(inputs["count"]):
                oc.unit(False)
            oc.digest_parts.append([n, N0, repr(units)])
            continue
        for f, rep in units:
            coeffs = [[str(re), str(im)] for c in f.components
                      for re, im in c.rational_coeffs]
            if isinstance(rep, Exception):
                oc.unit(False)
                oc.digest_parts.append([n, N0, coeffs, repr(rep)])
                continue
            cert = rep.certificate
            ratio_xy = max(rep.derivatives["x"] + rep.derivatives["y"]) \
                / cert.bound_xy
            ratio_z = rep.derivatives["z"] / cert.bound_z
            ok = (horizontality_residual(f).is_zero
                  and f.at(0.0).maxnorm() < 2.0 ** N0
                  and rep.avoidance == "certified"
                  and ratio_xy < 1.0 and ratio_z < 1.0)
            oc.unit(ok)
            oc.counts[f"disks.n{n}.N0{N0}"] += 1
            oc.digest_parts.append([n, N0, coeffs, rep.avoidance,
                                    _sig(ratio_xy), _sig(ratio_z)])
    return oc


# ---------------------------------------------------------------------------
# disk-search: directed norm brackets, pattern search dominates
# ---------------------------------------------------------------------------

DISK_BUDGET = SearchBudget(restarts=1, iterations=40, degree=4)
# Positions inside each gap, as fractions of its log-width, and the
# direction magnitudes (|v_x|, |v_y|); the seed jitters both and draws
# every phase, so each pass has the same mix of easy and hard units.
DISK_FRACTIONS = (0.2, 0.5, 0.8)
DISK_DIRECTIONS = ((1.0, 0.5), (0.5, 1.0), (1.0, 1.0))


def _gap(slot: int) -> tuple[float, float]:
    """Admissible max(|x|, |y|) range of gap ``slot``: 5 % clear of the
    shell radii 2^(slot-1) and 2^slot (slot 0 is the innermost hole)."""
    lo = 0.0 if slot == 0 else 1.05 * 2.0 ** (slot - 1)
    return lo, 0.95 * 2.0 ** slot


def disk_inputs(seed: int, tiny: bool = False) -> dict:
    rng = np.random.default_rng(seed)
    units = [(ContactPoint((0j,), (0j,), 0j),
              TangentVector((1 + 0j,), (0j,), 0j))]  # pinned reference unit
    slots = (0, 3) if tiny else range(I_MAX)
    fractions = DISK_FRACTIONS[:1] if tiny else DISK_FRACTIONS
    for slot in slots:
        lo, hi = _gap(slot)
        for k, frac in enumerate(fractions):
            u = frac + rng.uniform(-0.05, 0.05)
            m = lo + u * (hi - lo) if slot == 0 else lo * (hi / lo) ** u
            other = m * rng.uniform(0.3, 0.7)
            ph = rng.uniform(-math.pi, math.pi, 5)
            big, small = m * cmath.exp(1j * ph[0]), other * cmath.exp(1j * ph[1])
            x, y = (big, small) if (slot + k) % 2 == 0 else (small, big)
            z = rng.uniform(0.2, 0.8) * cmath.exp(1j * ph[2])
            ax, ay = DISK_DIRECTIONS[(slot + k) % len(DISK_DIRECTIONS)]
            vx, vy = ax * cmath.exp(1j * ph[3]), ay * cmath.exp(1j * ph[4])
            # horizontal at p: alpha0(v) = v_z + x v_y = 0
            units.append((ContactPoint((x,), (y,), z),
                          TangentVector((vx,), (vy,), -x * vy)))
    return {"K": standard_obstacle(1, I_MAX), "units": units,
            "seeds": _sub_seeds(seed, len(units))}


def disk_run(inputs: dict, tmp: str) -> list:
    return [attempt(directed_norm_bracket, p, v, inputs["K"], DISK_BUDGET,
                    seed=s)
            for (p, v), s in zip(inputs["units"], inputs["seeds"])]


def _close(a: complex, b: complex, rel: float = 1e-9) -> bool:
    return a == b or abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def disk_check(inputs: dict, outputs: list) -> Outcome:
    oc = Outcome()
    K = inputs["K"]
    for idx, ((p, v), br) in enumerate(zip(inputs["units"], outputs)):
        if isinstance(br, Exception) or br.upper_witness is None:
            oc.unit(False)
            oc.digest_parts.append([idx, repr(br)])
            continue
        f = br.upper_witness
        d0 = f.derivative_at(0.0).flat()
        ok = (br.lower <= br.upper
              and horizontality_residual(f).is_zero
              and f.at(0.0).flat() == p.flat()
              and certify_avoidance(f.components, K,
                                    DISK_BUDGET.margin).certified
              and all(_close(a, b / br.upper) for a, b in zip(d0, v.flat())))
        if idx == 0:
            ok = ok and br.lower == 0.25 and br.upper <= 1.2
        oc.unit(ok)
        oc.counts["certified_witnesses"] += 1
        oc.bracket_ratios.append(br.upper / br.lower)
        oc.digest_parts.append([idx, _sig(br.lower), _sig(br.upper)])
    return oc


# ---------------------------------------------------------------------------
# pushout-classify: push-out build, state files, orbit classification
# ---------------------------------------------------------------------------

def _polar(rng, log_lo, log_hi, count):
    """Complex numbers with log-uniform modulus and uniform phase."""
    mags = np.exp(rng.uniform(log_lo, log_hi, count))
    return mags * np.exp(1j * rng.uniform(-math.pi, math.pi, count))


def _pushout_points(rng, K, count: int) -> dict:
    """``count`` points of C^2 in each of three populations: the
    0.25-polydisk, the shells of K (the obstacle the push-out drives to
    infinity), and the annulus between the two, whose verdicts are mixed."""
    log_a, log_b, log_c = (np.array(radii) for radii in zip(
        *((s.log_a, s.log_b, s.log_c) for s in K.shells)))
    shell = rng.integers(0, len(K.shells), count)
    band = _polar(rng, log_a[shell], log_b[shell], count)
    height = _polar(rng, log_c[shell] - 6.0, log_c[shell], count)
    annulus = _polar(rng, math.log(0.25), log_a[0], (count, 2))
    polydisk = sample_polydisk(2, 0.25, count,
                               seed=int(rng.integers(2 ** 31)))
    return {
        "polydisk": [tuple(map(complex, pt)) for pt in polydisk],
        "shells": [(complex(a), complex(c)) for a, c in zip(band, height)],
        "annulus": [tuple(map(complex, pt)) for pt in annulus],
    }


def pushout_inputs(seed: int, tiny: bool = False) -> dict:
    rng = np.random.default_rng(seed)
    per_population = 4 if tiny else 150
    batch_per_population = 20 if tiny else 6000
    K = desk_schedule(2, I_MAX)
    scalar = _pushout_points(rng, K, per_population)
    batch = _pushout_points(rng, K, batch_per_population)
    pull_points = [ContactPoint.from_flat(p) for p in sample_polydisk(
        3, 0.9, 4 if tiny else 100, seed=int(rng.integers(2 ** 31)))]
    pull_dirs = [TangentVector.from_flat([complex(a, b) for a, b in row])
                 for row in rng.standard_normal((len(pull_points), 3, 2))]
    return {
        "builds": ((2, 4 if tiny else 12), (3, 2 if tiny else 6)),
        "scalar": scalar,
        "batch": [pt for pop in batch.values() for pt in pop],
        "pullback": list(zip(pull_points, pull_dirs)),
    }


def pushout_run(inputs: dict, tmp: str) -> dict:
    states, reloaded = [], []
    for dim, k_max in inputs["builds"]:
        states.append(build_pushout(desk_schedule(dim, I_MAX), dim, k_max))
    for i, state in enumerate(states):
        path = os.path.join(tmp, f"state{i}.json")
        save_state(state, path)
        reloaded.append(load_state(path))
    state2, state3 = reloaded
    verdicts = {pop: [attempt(omega_membership, state2, p) for p in pts]
                for pop, pts in inputs["scalar"].items()}
    logs = orbit_logs_batch(state2, inputs["batch"])
    maps3 = state3.theta_maps()
    pulls = [attempt(pullback_eval, maps3, p, v)
             for p, v in inputs["pullback"]]
    return {"states": states, "reloaded": reloaded, "verdicts": verdicts,
            "logs": logs, "pullbacks": pulls}


EXPECTED_VERDICTS = {
    "polydisk": {"in_omega_certified"},
    "shells": {"escaped"},
    "annulus": {"in_omega_certified", "escaped", "undecided"},
}
# Batch rows re-derived with the scalar path for the agreement check.
ORBIT_SUBSET = 24


def _pullback_oracle(maps, p, v, h=1e-6):
    """alpha0 at Phi(p) of a central difference of Phi along v."""
    def phi(vec):
        for m in maps:
            vec = m.apply_native(vec)
        return vec
    base = np.asarray(p.flat(), dtype=np.complex128)
    step = np.asarray(v.flat(), dtype=np.complex128)
    dv = (phi(base + h * step) - phi(base - h * step)) / (2 * h)
    q = ContactPoint.from_flat(phi(base).tolist())
    return alpha0_eval(q, TangentVector.from_flat(dv.tolist()))


def pushout_check(inputs: dict, outputs: dict) -> Outcome:
    oc = Outcome()
    for state, back in zip(outputs["states"], outputs["reloaded"]):
        doc = state_to_dict(state)
        oc.unit(state_to_dict(back) == doc)
        oc.digest_parts.append(doc)
    state2 = outputs["reloaded"][0]
    k = state2.k
    logs = outputs["logs"]
    for pop, verdicts in outputs["verdicts"].items():
        for v in verdicts:
            oc.unit(v in EXPECTED_VERDICTS[pop])
            oc.counts[f"{pop}.{v}"] += 1
        oc.digest_parts.append([pop, [str(v) for v in verdicts]])
    escape = np.log(np.arange(2, k + 2, dtype=float))
    oc.counts["batch.escaped"] = int(np.sum(np.any(logs > escape, axis=1)))
    stride = max(1, len(inputs["batch"]) // ORBIT_SUBSET)
    for row in range(0, len(inputs["batch"]), stride):
        scalar = compose_orbit(state2, inputs["batch"][row]).log_maxnorms
        oc.unit(all(_close(a, b) for a, b in zip(scalar, logs[row])))
    oc.digest_parts.append([_sig(x, 9) for x in logs[::stride].ravel()])
    maps3 = outputs["reloaded"][1].theta_maps()
    for (p, v), got in zip(inputs["pullback"], outputs["pullbacks"]):
        if isinstance(got, Exception):
            oc.unit(False)
            continue
        want = _pullback_oracle(maps3, p, v)
        oc.unit(abs(got - want) <= 1e-5 * max(abs(want), abs(got), 1e-9))
        oc.digest_parts.append(_sig(abs(got), 9))
    return oc


# ---------------------------------------------------------------------------
# suite-all: the command users run, default config
# ---------------------------------------------------------------------------

def suite_inputs(seed: int, tiny: bool = False) -> dict:
    if tiny:
        cfg = ExperimentConfig(seed=seed, i_max=3, k_max=2, lemma_disks=2,
                               lemma_n0=(1,), samples_per_shell=5,
                               identity_samples=5, divergence_samples=5,
                               restarts=1, iterations=4)
    else:
        cfg = ExperimentConfig(seed=seed)
    return {"cfg": cfg}


def suite_run(inputs: dict, tmp: str) -> dict:
    report = run_experiment(inputs["cfg"], "all", out_dir=tmp)
    return {"report": report,
            "state_path": os.path.join(tmp, "pushout_state.json")}


def suite_check(inputs: dict, outputs: dict) -> Outcome:
    oc = Outcome()
    report = outputs["report"]
    for c in sorted(report.checks, key=lambda c: c.name):
        oc.unit(c.verdict)
        oc.counts["checks"] += 1
        oc.digest_parts.append([c.name, c.verdict, _sig(c.value, 9)])
        if c.name == "kobayashi/origin-bracket" and c.verdict:
            upper, lower = c.value, c.value - c.margin
            oc.bracket_ratios.append(upper / lower)
    with open(outputs["state_path"], "rb") as fh:
        oc.digest_parts.append(hashlib.sha256(fh.read()).hexdigest())
    return oc


WORKLOADS = {
    "lemma-sampler": (lemma_inputs, lemma_run, lemma_check),
    "disk-search": (disk_inputs, disk_run, disk_check),
    "pushout-classify": (pushout_inputs, pushout_run, pushout_check),
    "suite-all": (suite_inputs, suite_run, suite_check),
}
