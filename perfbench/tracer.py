"""Per-layer counters, busy time, self time and stage spans, installed from
outside the program.

`Tracer.install()` replaces each listed public function with a wrapper in
every module of the package that binds it, because callers look a function
up in their own module: `rk45`, for instance, is bound separately in
`instanton`, `painleve`, `isomonodromy` and `stepper`, and `report` and `cli`
hold their own `make_family`, `extract_y` and friends.  Patching only the
defining module would leave those callers unmeasured.

Per-evaluation functions (`asd_rhs`, `gauge_rate`, `poles`, `solve3`, ...)
are aggregated into a call counter and busy time.  Only the functions in
`STAGES` and the operations themselves record spans, so a BVP solve with
hundreds of thousands of right-hand-side calls stays cheap to trace.

A listed function that no longer exists is reported as unmeasured; the run
continues.
"""

from __future__ import annotations

import contextlib
import sys
import time
from collections import Counter, defaultdict

PACKAGE = "painleve_instanton"
LAYERS = {
    "instanton": ("solve_bvp", "endpoint_series", "asd_rhs", "asd_closed_profile"),
    "twistor": ("fuchsian_data", "poles", "alpha_inv", "residue_closed_form"),
    "liealg": ("solve3", "eigen2"),
    "stepper": ("rk45", "rk45_path", "fd_weights"),
    "isomonodromy": ("make_family", "gauge_rate", "max_schlesinger_residual",
                     "schlesinger_integrate", "isospectral_drift", "extract_y"),
    "painleve": ("pvi_integrate", "pvi_second_derivative", "pvi_residual",
                 "max_pvi_residual"),
    "report": ("profile_for", "build_verification_report"),
    "cli": ("main",),
}

STAGES = frozenset({
    "cli.main", "report.profile_for", "report.build_verification_report",
    "instanton.solve_bvp", "instanton.asd_closed_profile",
    "isomonodromy.make_family", "isomonodromy.max_schlesinger_residual",
    "isomonodromy.schlesinger_integrate", "isomonodromy.isospectral_drift",
    "painleve.max_pvi_residual",
})


def _make_family_gauge(args, kwargs):
    return kwargs.get("gauge", args[2] if len(args) > 2 else "line")


# functions whose calls are also counted per variant, as `<key>.<variant>`
SPLITS = {"isomonodromy.make_family": (_make_family_gauge, ("line", "schlesinger"))}


def counter_keys():
    """Every key a trace reports under `.calls` and `.busy_s`, in order."""
    keys = []
    for module, names in LAYERS.items():
        for name in names:
            key = f"{module}.{name}"
            keys.append(key)
            if key in SPLITS:
                keys.extend(f"{key}.{v}" for v in SPLITS[key][1])
    return keys


class Tracer:
    def __init__(self):
        self.clock = time.perf_counter
        self.origin = self.clock()
        self.calls = Counter()
        self.busy = defaultdict(float)
        self.self_s = defaultdict(float)
        self.spans = []
        self.unmeasured = []
        self.bindings = {}
        self.op = None
        self._frames = []       # child-time accumulator of each active call
        self._open = []         # indices of the open spans
        self._active = Counter()

    @contextlib.contextmanager
    def span(self, name):
        parent = self._open[-1] if self._open else None
        rec = [name, self.clock() - self.origin, None, parent, self.op]
        self._open.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = self.clock() - self.origin
            self._open.pop()

    @contextlib.contextmanager
    def operation(self, op_id, label):
        self.op = op_id
        try:
            with self.span(label):
                yield
        finally:
            self.op = None

    def _wrap(self, key, module, fn):
        calls, busy, self_s = self.calls, self.busy, self.self_s
        frames, active, clock = self._frames, self._active, self.clock
        split = SPLITS.get(key, (None,))[0]
        stage = key in STAGES

        def wrapper(*args, **kwargs):
            keys = (key, f"{key}.{split(args, kwargs)}") if split else (key,)
            frame = [0.0]
            frames.append(frame)
            active[key] += 1
            t0 = clock()
            try:
                if stage:
                    with self.span(key):
                        return fn(*args, **kwargs)
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                frames.pop()
                active[key] -= 1
                if frames:
                    frames[-1][0] += dt
                self_s[module] += dt - frame[0]
                for k in keys:
                    calls[k] += 1
                    if not active[key]:     # outermost activation only
                        busy[k] += dt

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", key)
        return wrapper

    def install(self):
        """Wrap every listed function wherever the package binds it."""
        modules = {name: mod for name, mod in list(sys.modules.items())
                   if mod is not None and name.startswith(f"{PACKAGE}.")}
        for module, names in LAYERS.items():
            home = modules.get(f"{PACKAGE}.{module}")
            for name in names:
                key = f"{module}.{name}"
                original = getattr(home, name, None)
                if not callable(original):
                    self.unmeasured.append(key)
                    continue
                wrapper = self._wrap(key, module, original)
                where = []
                for mod_name, mod in sorted(modules.items()):
                    for attr, obj in list(vars(mod).items()):
                        if obj is original:
                            setattr(mod, attr, wrapper)
                            where.append(f"{mod_name.rpartition('.')[2]}.{attr}")
                self.bindings[key] = where

    def snapshot(self):
        return dict(self.calls)

    def report(self):
        return {"calls": dict(self.calls), "busy_s": dict(self.busy),
                "self_s": dict(self.self_s), "spans": self.spans,
                "unmeasured": self.unmeasured, "bindings": self.bindings}
