"""Out-of-tree tracing for the benchmark: wrappers around the public
functions of each contactfb module, installed from outside the package.

A wrapped call opens a span.  Spans nest on one stack per thread; a span
that opens on a thread whose stack is empty (a ``ThreadPoolExecutor``
worker, as in ``experiment._lemma_checks``) is adopted as a child of the
innermost span open on the thread that installed the tracer, which is
blocked waiting for it.  Per span name the tracer keeps, in memory, the
call count, the inclusive time and the self time (inclusive time minus the
time of child spans), plus per-call durations where percentiles are
reported.  Nothing is written while tracing; ``layer_metrics`` turns the
totals into the per-layer metrics once the pass has ended.

An untraced run never constructs a Tracer, so it installs no wrapper.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import threading
import time
from collections import Counter

# (module, attribute path, span name).  Several functions may share a span
# name; their calls and times then add up under that name.
SPANS = (
    ("contactfb.numeric", "CPolynomial.__mul__", "numeric.poly_mul"),
    ("contactfb.numeric", "CPolynomial.sup_bound", "numeric.coeff_bounds"),
    ("contactfb.numeric", "CPolynomial.inf_lower_bound",
     "numeric.coeff_bounds"),
    ("contactfb.contact", "legendrian_from_xy", "contact.legendrian_from_xy"),
    ("contactfb.contact", "horizontality_residual",
     "contact.horizontality_residual"),
    ("contactfb.contact", "pullback_eval", "contact.pullback_eval"),
    ("contactfb.obstacle", "random_avoiding_disks",
     "obstacle.random_avoiding_disks"),
    ("contactfb.obstacle", "certify_avoidance", "obstacle.certify_avoidance"),
    ("contactfb.obstacle", "verify_disk_estimate",
     "obstacle.verify_disk_estimate"),
    ("contactfb.kobayashi", "directed_norm_upper",
     "kobayashi.directed_norm_upper"),
    ("contactfb.kobayashi", "max_certified_x_derivative",
     "kobayashi.max_certified_x_derivative"),
    # private, but it is where the pattern search certifies a candidate
    ("contactfb.kobayashi", "_certification_shortfall",
     "kobayashi.certification_shortfall"),
    ("contactfb.fatou_bieberbach", "build_shear_round",
     "fatou_bieberbach.build_shear_round"),
    ("contactfb.fatou_bieberbach", "select_exponent",
     "fatou_bieberbach.select_exponent"),
    ("contactfb.fatou_bieberbach", "save_state", "fatou_bieberbach.save_load"),
    ("contactfb.fatou_bieberbach", "load_state", "fatou_bieberbach.save_load"),
    ("contactfb.fatou_bieberbach", "omega_membership",
     "fatou_bieberbach.omega_membership"),
    ("contactfb.fatou_bieberbach", "ShearMap.apply_scaled",
     "fatou_bieberbach.apply_scaled"),
    ("contactfb.fatou_bieberbach", "orbit_logs_batch",
     "fatou_bieberbach.orbit_logs_batch"),
    ("contactfb.experiment", "run_experiment", "experiment.run_experiment"),
)

# Span names whose per-call durations are kept for percentiles.
PERCENTILES = {
    "obstacle.verify_disk_estimate",
    "kobayashi.directed_norm_upper",
    "fatou_bieberbach.omega_membership",
}

SEARCH_SPANS = ("kobayashi.directed_norm_upper",
                "kobayashi.max_certified_x_derivative")
SAMPLER_SPAN = "obstacle.random_avoiding_disks"


class _Frame:
    __slots__ = ("name", "parent", "child_s")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.child_s = 0.0

    def inside(self, names) -> bool:
        frame = self
        while frame is not None:
            if frame.name in names:
                return True
            frame = frame.parent
        return False


class Tracer:
    """Span and counter store; ``install`` patches, ``uninstall`` restores."""

    def __init__(self):
        self.calls = Counter()
        self.incl_s = Counter()
        self.self_s = Counter()
        self.durations = {name: [] for name in PERCENTILES}
        self.counts = Counter()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._root_stack = None
        self._patches = []

    # -- spans ------------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        """Innermost open span of this thread, or the adopted parent."""
        stack = self._stack()
        if stack:
            return stack[-1]
        root = self._root_stack
        if root is not None and root is not stack and root:
            return root[-1]
        return None

    def _enter(self, name):
        frame = _Frame(name, self.current())
        self._stack().append(frame)
        return frame

    def _exit(self, frame, dur):
        self._stack().pop()
        with self._lock:
            if frame.parent is not None:
                frame.parent.child_s += dur
            self.calls[frame.name] += 1
            self.incl_s[frame.name] += dur
            self.self_s[frame.name] += dur - frame.child_s
            if frame.name in PERCENTILES:
                self.durations[frame.name].append(dur)

    def _count(self, key, k=1):
        with self._lock:
            self.counts[key] += k

    # -- result hooks -------------------------------------------------------

    def _after(self, name, result):
        """Counters read from a call's result or its place in the spans."""
        if name == "contact.legendrian_from_xy":
            frame = self.current()
            if frame is not None and frame.inside(SEARCH_SPANS):
                self._count("kobayashi.search.evals")
            if frame is not None and frame.inside((SAMPLER_SPAN,)):
                self._count("obstacle.sampler.proposals")
        elif name == "obstacle.certify_avoidance":
            self._count("obstacle.certify_avoidance.certified",
                        int(result.certified))
        elif name == SAMPLER_SPAN:
            self._count("obstacle.sampler.accepted", len(result))
        elif name == "fatou_bieberbach.orbit_logs_batch":
            self._count("fatou_bieberbach.orbit_logs_batch.point_rounds",
                        int(result.size))
        elif name == "kobayashi.certification_shortfall":
            frame = self.current()
            if frame is not None and frame.inside(SEARCH_SPANS):
                self._count("kobayashi.search.certified", int(result[0]))

    # -- patching -----------------------------------------------------------

    def _wrap_span(self, func, name):
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            frame = tracer._enter(name)
            t0 = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                tracer._exit(frame, time.perf_counter() - t0)
            tracer._after(name, result)
            return result
        return wrapper

    def _patch_everywhere(self, original, wrapper):
        """Rebind every module attribute that holds ``original``: the
        defining module, the contactfb modules that import the name, and
        the benchmark's own workload module."""
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if namespace is None:
                continue
            for attr, value in list(namespace.items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def install(self):
        if self._patches:
            raise RuntimeError("tracer is already installed")
        self._root_stack = self._stack()
        for modname, path, name in SPANS:
            owner = importlib.import_module(modname)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = vars(owner)[attr]
            wrapper = self._wrap_span(original, name)
            if outer:  # a method: patch the class, which every caller uses
                self._patches.append((owner, attr, original))
                setattr(owner, attr, wrapper)
            else:
                self._patch_everywhere(original, wrapper)
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


def _percentile_ms(values, decile):
    if len(values) < 2:
        return 1e3 * sum(values)  # no calls, or the one call
    cuts = statistics.quantiles(values, n=10, method="inclusive")
    return 1e3 * cuts[decile - 1]


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(t: Tracer) -> dict:
    """Per-layer metrics of one traced pass, named as in BENCHMARK.json
    (all but ``trace.overhead_s``, which needs an untraced pass too)."""
    c, s, own, n = t.calls, t.incl_s, t.self_s, t.counts
    search_s = sum(s[name] for name in SEARCH_SPANS)
    m = {
        "numeric.poly_mul.calls": c["numeric.poly_mul"],
        "numeric.poly_mul.self_s": own["numeric.poly_mul"],
        "numeric.coeff_bounds.calls": c["numeric.coeff_bounds"],
        "numeric.coeff_bounds.self_s": own["numeric.coeff_bounds"],
        "contact.legendrian_from_xy.calls": c["contact.legendrian_from_xy"],
        "contact.legendrian_from_xy.self_s": own["contact.legendrian_from_xy"],
        "contact.horizontality_residual.calls":
            c["contact.horizontality_residual"],
        "contact.horizontality_residual.self_s":
            own["contact.horizontality_residual"],
        "contact.pullback_eval.calls": c["contact.pullback_eval"],
        "contact.pullback_eval.s": s["contact.pullback_eval"],
        "obstacle.random_avoiding_disks.s": s[SAMPLER_SPAN],
        "obstacle.sampler.disks_per_s": _ratio(
            n["obstacle.sampler.accepted"], s[SAMPLER_SPAN]),
        "obstacle.sampler.accept_ratio": _ratio(
            n["obstacle.sampler.accepted"], n["obstacle.sampler.proposals"]),
        "obstacle.certify_avoidance.calls": c["obstacle.certify_avoidance"],
        "obstacle.certify_avoidance.self_s": own["obstacle.certify_avoidance"],
        "obstacle.certify_avoidance.certified_ratio": _ratio(
            n["obstacle.certify_avoidance.certified"],
            c["obstacle.certify_avoidance"]),
        "kobayashi.max_certified_x_derivative.s":
            s["kobayashi.max_certified_x_derivative"],
        "kobayashi.search.evals": n["kobayashi.search.evals"],
        "kobayashi.search.evals_per_s": _ratio(
            n["kobayashi.search.evals"], search_s),
        "kobayashi.search.certified_ratio": _ratio(
            n["kobayashi.search.certified"], n["kobayashi.search.evals"]),
        "fatou_bieberbach.build_shear_round.calls":
            c["fatou_bieberbach.build_shear_round"],
        "fatou_bieberbach.build_shear_round.s":
            s["fatou_bieberbach.build_shear_round"],
        "fatou_bieberbach.select_exponent.calls":
            c["fatou_bieberbach.select_exponent"],
        "fatou_bieberbach.save_load.s": s["fatou_bieberbach.save_load"],
        "fatou_bieberbach.apply_scaled.calls":
            c["fatou_bieberbach.apply_scaled"],
        "fatou_bieberbach.apply_scaled.self_s":
            own["fatou_bieberbach.apply_scaled"],
        "fatou_bieberbach.orbit_logs_batch.s":
            s["fatou_bieberbach.orbit_logs_batch"],
        "fatou_bieberbach.orbit_logs_batch.point_rounds_per_s": _ratio(
            n["fatou_bieberbach.orbit_logs_batch.point_rounds"],
            s["fatou_bieberbach.orbit_logs_batch"]),
        "experiment.run_experiment.s": s["experiment.run_experiment"],
        "experiment.self_s": own["experiment.run_experiment"],
    }
    for name in ("obstacle.verify_disk_estimate",
                 "kobayashi.directed_norm_upper",
                 "fatou_bieberbach.omega_membership"):
        m[f"{name}.calls"] = c[name]
        m[f"{name}.s"] = s[name]
        m[f"{name}.ms_p50"] = _percentile_ms(t.durations[name], 5)
        m[f"{name}.ms_p90"] = _percentile_ms(t.durations[name], 9)
    return m


def exact_counts(metrics: dict) -> dict:
    """The call and evaluation counts, which repeat exactly for a seed."""
    return {k: v for k, v in metrics.items()
            if k.endswith(".calls") or k == "kobayashi.search.evals"}
