"""Config-driven experiment runner.

Loads a JSON config (numbers may be decimal strings, so schedule constants
survive byte-identically), executes one of the verification suites, and
writes machine-readable artifacts: a JSON report, per-point orbit CSV data,
and the serialized push-out construction.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import time
from dataclasses import dataclass, field, asdict
from decimal import Decimal
from functools import cached_property

import numpy as np

from .certify import (BoundCertificate, DEFAULT_AVOIDANCE_MARGIN,
                      IN_OMEGA_CERTIFIED, LemmaRefusal, check_disjoint,
                      check_identity, lemma_certificate, verify_disk_estimate)
from .contact import ContactPoint, TangentVector
from .fatou_bieberbach import (
    EpsSchedule,
    PushOutState,
    SelectionError,
    build_pushout,
    desk_schedule,
    first_escape_round,
    omega_membership,
    save_state,
)
from .kobayashi import (
    SearchBudget,
    cck_distance_upper,
    directed_norm_lower,
    directed_norm_upper,
    max_certified_x_derivative,
)
from .numeric import sample_polydisk
from .obstacle import membership_margin, random_avoiding_disks
from .shells import ShellUnion, standard_obstacle

SCHEMA_VERSION = 1
SUITES = ("lemma", "pushout", "kobayashi", "all")


class ConfigError(ValueError):
    """Invalid experiment config; message names the offending field."""


def _num(value, fieldname: str) -> float:
    """Accept finite JSON numbers or decimal strings."""
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise ConfigError(f"{fieldname}: expected a number or decimal string")
    try:
        v = float(value)
    except ValueError:
        raise ConfigError(f"{fieldname}: not a decimal number: {value!r}")
    except OverflowError:  # an integer beyond float range
        v = math.inf
    if not math.isfinite(v):
        raise ConfigError(f"{fieldname}: must be a finite number")
    return v


def _int(value, fieldname: str, minimum: int = 1) -> int:
    """Accept integral JSON numbers or decimal strings, read exactly: a JSON
    integer or an integer string past 2^53 is not rounded to a float."""
    _num(value, fieldname)  # the type, the decimal syntax and finiteness
    exact = Decimal(value) if isinstance(value, str) else value
    if exact != int(exact):
        raise ConfigError(f"{fieldname}: expected an integer")
    v = int(exact)
    if v < minimum:
        raise ConfigError(f"{fieldname}: must be >= {minimum}")
    return v


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated, fully-defaulted experiment parameters."""

    n: int = 1
    i_max: int = 6
    k_max: int = 6
    pushout_dim: int = 2
    eps_base: float = 0.5
    seed: int = 0
    margin: float = DEFAULT_AVOIDANCE_MARGIN
    schedule_kind: str = "desk"
    explicit_shells: tuple = ()          # ((a, b, c), ...) linear values
    lemma_disks: int = 60
    lemma_n0: tuple = (1, 2, 3)
    samples_per_shell: int = 200
    identity_samples: int = 1000
    divergence_samples: int = 100
    # restarts and iterations are unread; see kobayashi.SearchBudget
    restarts: int = 8
    iterations: int = 40
    lambda_budget: float = 1e3
    raw: dict = field(default_factory=dict, repr=False)

    def budget(self) -> SearchBudget:
        return SearchBudget(lambda_budget=self.lambda_budget,
                            margin=self.margin)

    def pushout_initial(self) -> ShellUnion:
        if self.schedule_kind == "desk":
            return desk_schedule(self.pushout_dim, self.i_max)
        return ShellUnion.from_linear(
            self.explicit_shells, tuple(range(self.pushout_dim - 1)),
            self.pushout_dim - 1)

    @cached_property
    def pushout_state(self) -> PushOutState:
        """The push-out of every ``k_max`` round, built once, on first use:
        ``validate_config`` builds it, and the pushout suite reads it."""
        return build_pushout(self.pushout_initial(), self.pushout_dim,
                             self.k_max, EpsSchedule(self.eps_base))

    def config_hash(self) -> str:
        blob = json.dumps(self.raw, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


#: The keys each config section may set; "" is the top level.
_CONFIG_KEYS = {
    "": ("schema_version", "n", "i_max", "k_max", "pushout_dim", "eps_base",
         "seed", "margin", "samples", "budget", "schedule", "lemma_n0"),
    "samples": ("lemma_disks", "per_shell", "identity", "divergence"),
    "budget": ("lambda_budget",),
    "schedule": ("kind", "shells"),
}


def _refuse_unknown(section: dict, name: str) -> None:
    """Raise ConfigError naming the first key of the config section
    ``name`` that the schema does not have, by its dotted path."""
    for key in section:
        if key not in _CONFIG_KEYS[name]:
            path = f"{name}.{key}" if name else key
            raise ConfigError(f"{path}: unknown key")


def _expect(value, kind: type, fieldname: str):
    """value itself, required to be a JSON object (dict) or array (list)."""
    if not isinstance(value, kind):
        what = "an object" if kind is dict else "a list"
        raise ConfigError(f"{fieldname}: expected {what}")
    return value


def validate_config(path: str) -> ExperimentConfig:
    """Parse, default, and invariant-check a config file."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as e:
            raise ConfigError(
                f"parse error at line {e.lineno} column {e.colno}: {e.msg}")
    if not isinstance(doc, dict):
        raise ConfigError("top level: expected a JSON object")
    version = doc.get("schema_version", SCHEMA_VERSION)
    if isinstance(version, bool) or version != SCHEMA_VERSION:
        raise ConfigError(f"schema_version: unsupported value {version!r}")
    _refuse_unknown(doc, "")

    d = ExperimentConfig()
    samples = _expect(doc.get("samples", {}), dict, "samples")
    _refuse_unknown(samples, "samples")
    budget = _expect(doc.get("budget", {}), dict, "budget")
    for key in ("restarts", "iterations", "degree"):
        if key in budget:
            raise ConfigError(f"budget.{key}: no longer a setting; the "
                              "directed-norm bound runs no search")
    _refuse_unknown(budget, "budget")
    sched = _expect(doc.get("schedule", {}), dict, "schedule")
    _refuse_unknown(sched, "schedule")
    kind = sched.get("kind", d.schedule_kind)
    explicit = ()
    if kind == "explicit":
        shells = _expect(sched.get("shells", []), list, "schedule.shells")
        if not shells:
            raise ConfigError("schedule.shells: required for explicit kind")
        parsed = []
        prev_b = 0.0
        for i, row in enumerate(shells, start=1):
            if not isinstance(row, list) or len(row) != 3:
                raise ConfigError(f"schedule.shells[{i}]: expected [a, b, c]")
            a = _num(row[0], f"schedule.shells[{i}].a")
            b = _num(row[1], f"schedule.shells[{i}].b")
            c = _num(row[2], f"schedule.shells[{i}].c")
            if not (0 < a <= b):
                raise ConfigError(f"schedule.shells[{i}]: requires 0 < a <= b")
            if not (prev_b < a):
                raise ConfigError(
                    f"schedule.shells[{i}]: not interleaved (b_{i-1} >= a_{i})")
            if c <= 0:
                raise ConfigError(f"schedule.shells[{i}].c: must be positive")
            parsed.append((a, b, c))
            prev_b = b
        if parsed[0][0] <= 1:  # the push-out recursion needs a_1 > 1
            raise ConfigError("schedule.shells[1].a: must be > 1")
        explicit = tuple(parsed)
    elif kind != "desk":
        raise ConfigError(f"schedule.kind: unknown kind {kind!r}")
    elif "shells" in sched:
        raise ConfigError("schedule.shells: only the explicit kind reads "
                          "shells")

    def opt(section, label, attr=None, parse=_int, **kw):
        key = label.rpartition(".")[2]
        return parse(section.get(key, getattr(d, attr or key)), label, **kw)

    n0 = tuple(_int(v, "lemma_n0[]") for v in _expect(
        doc.get("lemma_n0", list(d.lemma_n0)), list, "lemma_n0"))
    cfg = ExperimentConfig(
        n=opt(doc, "n"),
        i_max=opt(doc, "i_max"),
        k_max=opt(doc, "k_max"),
        pushout_dim=opt(doc, "pushout_dim", minimum=2),
        eps_base=opt(doc, "eps_base", parse=_num),
        seed=opt(doc, "seed", minimum=0),
        margin=opt(doc, "margin", parse=_num),
        schedule_kind=kind,
        explicit_shells=explicit,
        lemma_disks=opt(samples, "samples.lemma_disks"),
        lemma_n0=n0,
        samples_per_shell=opt(samples, "samples.per_shell",
                              "samples_per_shell"),
        identity_samples=opt(samples, "samples.identity", "identity_samples"),
        divergence_samples=opt(samples, "samples.divergence",
                               "divergence_samples"),
        lambda_budget=opt(budget, "budget.lambda_budget", parse=_num),
        raw=doc,
    )
    if not (0 < cfg.eps_base < 1):
        raise ConfigError("eps_base: must lie in (0, 1)")
    if cfg.margin <= 0:
        raise ConfigError("margin: must be positive")
    if cfg.lambda_budget <= 0:
        raise ConfigError("budget.lambda_budget: must be positive")
    try:
        height = cfg.n * 2.0 ** (3 * cfg.i_max + 1)
    except OverflowError:
        height = math.inf
    if not math.isfinite(height):
        raise ConfigError("i_max: the obstacle heights n*2^(3*i_max+1) "
                          "overflow float64")
    # every push-out round, so that the pushout suite cannot fail in one;
    # the desk schedule leaves float64 range by round 40 (about 20 ms)
    try:
        cfg.pushout_state
    except SelectionError as e:
        if e.round > 1:
            field = "k_max"
        elif e.binding == "underflow":
            field = "eps_base"
        else:
            field = "i_max" if kind == "desk" else "schedule.shells"
        raise ConfigError(f"{field}: push-out round {e.round} fails: {e}")
    # the certificates the suites build: N0 = 1, then each lemma_n0 entry
    K = standard_obstacle(cfg.n, cfg.i_max)
    for name, N0 in (("i_max", 1), *(("lemma_n0", N0) for N0 in n0)):
        try:
            lemma_certificate(N0, cfg.n, K)
        except LemmaRefusal as e:
            raise ConfigError(f"{name}: {e}")
    return cfg


# ---------------------------------------------------------------------------
# report structure
# ---------------------------------------------------------------------------

@dataclass
class CheckRecord:
    name: str
    verdict: bool
    value: float
    margin: float
    runtime: float


@dataclass
class RunReport:
    suite: str
    config_hash: str
    environment: dict
    checks: list

    @property
    def passed(self) -> bool:
        return all(c.verdict for c in self.checks)

    def as_dict(self) -> dict:
        return {
            "suite": self.suite,
            "config_hash": self.config_hash,
            "environment": self.environment,
            "passed": self.passed,
            "checks": [asdict(c) for c in sorted(self.checks,
                                                 key=lambda c: c.name)],
        }


def _environment_stamp() -> dict:
    """Package, Python and numpy versions and the platform, read without
    starting a process.

    The platform is system-release-machine-with-libc, from the
    ``os.uname`` fields of ``platform.uname()`` and from
    ``platform.libc_ver()``, which reads ``confstr``.  The processor field
    is never read: ``platform.platform()`` runs ``uname -p`` to get it, then
    drops it when it is empty or equals the machine, and on such a Linux
    host the two strings are equal.
    """
    from . import __version__
    u = platform.uname()
    libc = "".join(platform.libc_ver())
    return {
        "package_version": __version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": "-".join((u.system, u.release, u.machine)
                             + (("with", libc) if libc else ())),
    }


def _timed(checks: list, name: str, func):
    t0 = time.perf_counter()
    try:
        verdict, value, margin = func()
    except Exception as e:  # recorded, reflected in the exit code
        checks.append(CheckRecord(name, False, math.nan, math.nan,
                                  time.perf_counter() - t0))
        checks.append(CheckRecord(f"{name}/error:{type(e).__name__}",
                                  False, math.nan, math.nan, 0.0))
        return
    checks.append(CheckRecord(name, bool(verdict), float(value),
                              float(margin), time.perf_counter() - t0))


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

def _lemma_checks(cfg: ExperimentConfig, checks: list) -> None:
    K = standard_obstacle(cfg.n, cfg.i_max)
    for N0 in cfg.lemma_n0:
        def run(N0=N0):
            disks = random_avoiding_disks(cfg.n, N0, K, cfg.lemma_disks,
                                          seed=cfg.seed + 1000 * N0,
                                          margin=cfg.margin)
            reports = [verify_disk_estimate(f, K, N0, margin=cfg.margin)
                       for f in disks]
            worst = max(r.ratio for r in reports)
            ok = all(r.passed for r in reports)
            return ok, worst, 1.0 - worst
        _timed(checks, f"lemma/n{cfg.n}/N0{N0}/derivative-bounds", run)

    def contrapositive():
        best, _ = max_certified_x_derivative(K, n=cfg.n, margin=cfg.margin)
        bound = BoundCertificate(N0=1, n=cfg.n, i_max=cfg.i_max).bound_xy
        return best < bound, best, bound - best
    _timed(checks, f"lemma/n{cfg.n}/contrapositive-search", contrapositive)


def _sample_shell_points(K: ShellUnion, per_shell: int, rng):
    """Random points of each cylinder of K (log-uniform in the magnitudes),
    shell by shell, as coordinate-major (dim, m) log-magnitude and phase
    arrays: row j holds coordinate j of every point.

    One shell coordinate takes the band's log-modulus; with several, a
    random one takes it and each other one lies below it, drawn point by
    point (``rng.integers(0, 1)`` draws nothing, so one shell coordinate
    needs no per-point draws)."""
    lms, phases = [], []
    for s in K.shells:
        lm = rng.uniform(s.log_a, s.log_b, per_shell)
        phases.append(rng.uniform(-math.pi, math.pi, (per_shell, K.dim)).T)
        coords = np.empty((K.dim, per_shell))
        coords[K.disk_dim] = s.log_c + np.log(np.sqrt(rng.random(per_shell)))
        if len(K.shell_dims) == 1:
            coords[K.shell_dims[0]] = lm
        else:
            for m in range(per_shell):
                block = rng.integers(0, len(K.shell_dims))
                for bi, d in enumerate(K.shell_dims):
                    coords[d, m] = lm[m] if bi == block else \
                        lm[m] + math.log(rng.random() + 1e-12)
        lms.append(coords)
    return np.concatenate(lms, axis=1), np.concatenate(phases, axis=1)


def _pushout_checks(cfg: ExperimentConfig, checks: list, out_dir: str | None):
    state = cfg.pushout_state
    rng = np.random.default_rng(cfg.seed)

    for rnd in state.rounds:
        def containment(rnd=rnd):
            lm, ph = _sample_shell_points(rnd.shells_before,
                                          cfg.samples_per_shell, rng)
            img_lm, _ = rnd.apply_logpolar(lm, ph)
            worst = float(np.min(membership_margin(rnd.shells_after, img_lm)))
            return worst > 0.0, worst, worst
        _timed(checks, f"pushout/round{rnd.index}/containment", containment)

        # the kernel's round contracts: a round they refuse raises, which
        # _timed records as a failed check
        def disjoint(rnd=rnd):
            gap = check_disjoint(rnd.index, rnd.shells_after)
            return True, rnd.shells_after.shells[0].log_a, gap
        _timed(checks, f"pushout/round{rnd.index}/disjointness", disjoint)

        def identity(rnd=rnd):
            # the k-polydisk and its image stay in native float range
            pts = np.array(sample_polydisk(cfg.pushout_dim, float(rnd.index),
                                           cfg.identity_samples,
                                           seed=cfg.seed + rnd.index))
            img = rnd.psi.apply_native(rnd.phi.apply_native(pts))
            sampled = float(np.max(np.abs(img - pts)))
            worst = max(sampled, rnd.id_bound)
            return True, worst, check_identity(rnd.index, worst, rnd.eps)
        _timed(checks, f"pushout/round{rnd.index}/identity", identity)

    div_lm, div_ph = _sample_shell_points(state.initial,
                                          cfg.divergence_samples, rng)
    logs = state.orbit_logs(div_lm, div_ph)

    def divergence():
        ok = True
        worst = math.inf
        for k in range(1, state.k + 1):
            gap = float(np.min(logs[:, k - 1])) - math.log(k + 1.0)
            worst = min(worst, gap)
            ok = ok and gap > 0.0
        return ok, worst, worst
    _timed(checks, "pushout/divergence", divergence)

    def origin():
        pts = [(0j,) * cfg.pushout_dim] + sample_polydisk(
            cfg.pushout_dim, 0.25, 100, seed=cfg.seed + 99)
        verdicts = [omega_membership(state, p) for p in pts]
        ok = all(v == IN_OMEGA_CERTIFIED for v in verdicts)
        return ok, sum(v == IN_OMEGA_CERTIFIED for v in verdicts), 0.0
    _timed(checks, "pushout/origin-certified", origin)

    if out_dir:
        save_state(state, os.path.join(out_dir, "pushout_state.json"))
        _write_orbit_csv(os.path.join(out_dir, "orbits.csv"),
                         div_lm, div_ph, logs)


def _write_orbit_csv(path: str, log_mag, phase, logs) -> None:
    """One row per point and round: the point's coordinates, read from the
    columns of coordinate-major (dim, m) log-polar arrays, as
    ``log_mag@phase`` entries, and its (m, k) ``logs`` row.

    The rows are the bytes ``csv.writer`` writes: ints, float reprs (which
    may read inf, -inf or nan) and fixed words hold no comma, quote or
    newline, so no field is quoted, and each row ends in "\\r\\n"."""
    with open(path, "w", newline="") as fh:
        fh.write("point_index,coordinates,round,log_magnitude,"
                 "classification\r\n")
        for idx, (lms, phs) in enumerate(zip(log_mag.T.tolist(),
                                             phase.T.tolist())):
            coords = ";".join(repr(lm) + "@" + repr(ph)
                              for lm, ph in zip(lms, phs))
            row = logs[idx].tolist()
            cls = ("escaped" if first_escape_round(row) is not None
                   else "bounded-so-far")
            fh.write("".join(f"{idx},{coords},{k},{lm!r},{cls}\r\n"
                             for k, lm in enumerate(row, start=1)))


def _kobayashi_checks(cfg: ExperimentConfig, checks: list) -> None:
    K = standard_obstacle(cfg.n, cfg.i_max)
    zeros = (0j,) * cfg.n
    p0 = ContactPoint(zeros, zeros, 0j)
    v = TangentVector((1 + 0j,) + zeros[1:], zeros, 0j)  # e_x1

    def bracket():
        lower, _ = directed_norm_lower(p0, v, K)
        upper, _ = directed_norm_upper(p0, v, "complement", K,
                                       budget=cfg.budget())
        ok = (lower == 0.25) and (upper <= 1.2) and (lower <= upper)
        return ok, upper, upper - lower
    _timed(checks, "kobayashi/origin-bracket", bracket)

    def full_space():
        upper, _ = directed_norm_upper(p0, v, "full_space", budget=cfg.budget())
        return upper <= 1e-2, upper, 1e-2 - upper
    _timed(checks, "kobayashi/full-space-degeneration", full_space)

    def distance():
        q = ContactPoint(zeros, zeros, 1 + 0j)
        d = cck_distance_upper(p0, q, budget=cfg.budget())
        return d <= 1e-2, d, 1e-2 - d
    _timed(checks, "kobayashi/full-space-distance", distance)


def run_experiment(cfg: ExperimentConfig, suite: str,
                   out_dir: str | None = None) -> RunReport:
    """Execute one suite and write artifacts under out_dir (if given)."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; expected one of {SUITES}")
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
    checks: list = []
    for name, run in (("lemma", lambda: _lemma_checks(cfg, checks)),
                      ("pushout", lambda: _pushout_checks(cfg, checks, out_dir)),
                      ("kobayashi", lambda: _kobayashi_checks(cfg, checks))):
        if suite not in (name, "all"):
            continue
        t0 = time.perf_counter()
        try:
            run()
        except Exception as e:  # recorded, reflected in the exit code
            checks.append(CheckRecord(f"{name}/error:{type(e).__name__}",
                                      False, math.nan, math.nan,
                                      time.perf_counter() - t0))
    report = RunReport(suite=suite, config_hash=cfg.config_hash(),
                       environment=_environment_stamp(), checks=checks)
    if out_dir:
        with open(os.path.join(out_dir, "report.json"), "w") as fh:
            json.dump(report.as_dict(), fh, indent=1)
    return report
