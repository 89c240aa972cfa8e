"""In-memory span tracer that wraps the termrank module attributes callers look up.

Spans are recorded from outside the program: every public function of the
traced modules (and the ``Matroid`` constructors) is replaced, in every
termrank module namespace that holds it, by a wrapper that records a span.
Calls between modules go through those namespaces, so nested calls appear as
child spans (``check_fully`` inside ``check_ryser_gen``, ``check_msmt``
inside ``construct_via_cover``).  ``bigraph`` gets no span: its work sits in
cached properties that the checkers read, so it counts in their self time.
"""

from __future__ import annotations

import importlib
import inspect
import time

TRACED_MODULES = ("cli", "jsonio", "matroid", "setfun", "feasibility", "cover", "harness")
# per-element helpers called from inner loops; their time stays in the caller
UNTRACED = {"arc_enters", "in_degree", "covers", "matroid_covers", "st_independent_pair"}
ALL_MODULES = TRACED_MODULES + ("bigraph", "errors")
CLI_CHECKERS = (
    "check_ore", "check_msmt", "check_ms_only", "check_fully",
    "check_ryser", "check_brualdi", "check_ryser_gen",
)
MATROID_BUILDERS = ("Matroid.__init__", "Matroid.uniform", "Matroid.free",
                    "Matroid.partition", "Matroid.from_bases", "restrict")
LIFTS = ("base_demand", "base_demand_source_only", "full_demand")
VALIDATORS = ("validate_witness", "validate_matching")


class Tracer:
    """Records (module, name, start, end, parent) spans of the current op."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def wrap(self, module: str, name: str, fn, on_return=None):
        tracer = self

        def traced(*args, **kwargs):
            parent = tracer.stack[-1] if tracer.stack else -1
            span = [module, name, time.perf_counter(), 0.0, parent, {}]
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                result = fn(*args, **kwargs)
                if on_return is not None:
                    span[5] = on_return(args, kwargs, result)
                return result
            finally:
                span[3] = time.perf_counter()
                tracer.stack.pop()

        traced.__wrapped__ = fn
        return traced

    def root(self, fn, *args):
        """Run ``fn(*args)`` as the op's root span (module ``cli``)."""
        return self.wrap("cli", "main", fn)(*args)

    def take(self) -> list[list]:
        """The op's spans; one the alarm cut before its ``finally`` ends now."""
        spans, self.spans, self.stack = self.spans, [], []
        now = time.perf_counter()
        for span in spans:
            if span[3] == 0.0:
                span[3] = now
        return spans

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Replace the traced functions in every termrank namespace that holds them."""
        modules = {m: importlib.import_module(f"termrank.{m}") for m in ALL_MODULES}
        modules[""] = importlib.import_module("termrank")
        wrappers: dict[int, object] = {}
        for mod_name in TRACED_MODULES:
            mod = modules[mod_name]
            for attr, value in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                if value.__module__ != mod.__name__ or attr == "main" or attr in UNTRACED:
                    continue
                wrappers[id(value)] = self.wrap(mod_name, attr, value, _COUNTERS.get(attr))
        for ns in modules.values():
            for attr, value in list(vars(ns).items()):
                wrapped = wrappers.get(id(value))
                if wrapped is not None:
                    self._set(ns, attr, wrapped)
        matroid_cls = modules["matroid"].Matroid
        self._set(matroid_cls, "__init__",
                  self.wrap("matroid", "Matroid.__init__", matroid_cls.__init__, _rank_entries))
        for attr in ("uniform", "free", "partition", "from_bases"):
            fn = vars(matroid_cls)[attr].__func__
            self._set(matroid_cls, attr, classmethod(self.wrap("matroid", f"Matroid.{attr}", fn)))
        instance_cls = modules["feasibility"].Instance
        make = vars(instance_cls)["make"].__func__
        self._set(instance_cls, "make", classmethod(self.wrap("feasibility", "Instance.make", make)))

    def uninstall(self) -> None:
        """Put every original function back."""
        for owner, attr, old in reversed(self._restore):
            setattr(owner, attr, old)
        self._restore.clear()

    def _set(self, owner, attr, value) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)


# ---------------------------------------------------------------------------
# counters read at span boundaries


def _rank_entries(args, kwargs, result):
    rank = args[2] if len(args) > 2 else kwargs.get("rank", ())
    return {"rank_entries": len(rank)}


def _classify(args, kwargs, result):
    p = args[0]
    positively = kwargs.get("positively", False)
    size = len(p.positive_masks) if positively else len(p.values)
    return {"classify.pairs": size * (size - 1) // 2}


def _lift_positive(args, kwargs, result):
    return {"lift.positive_sets": len(result.positive_masks)}


_COUNTERS = {
    "classify_supermodular": _classify,
    "full_demand": _lift_positive,
    "base_demand_source_only": _lift_positive,
}


# ---------------------------------------------------------------------------
# per-op summaries


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    own = [s[3] - s[2] for s in spans]
    for s in spans:
        if s[4] >= 0:
            own[s[4]] -= s[3] - s[2]
    return own


def summarize(spans: list[list], into: dict) -> None:
    """Add one op's spans to the running per-layer totals in ``into``."""
    own = self_times(spans)
    for span, self_s in zip(spans, own):
        module, name, start, end, parent, counts = span
        into[f"{module}.self_ms"] += self_s * 1e3
        outer = parent < 0 or spans[parent][0] != module
        if module == "feasibility" and name in CLI_CHECKERS:
            into[f"feasibility.{name}.self_ms"] += self_s * 1e3
            into[f"feasibility.{name}.calls"] += 1
            into["feasibility.calls"] += 1
        elif module == "matroid" and name in MATROID_BUILDERS:
            if outer:
                into["matroid.build.ms"] += (end - start) * 1e3
            if name == "Matroid.__init__":
                into["matroid.build.count"] += 1
        elif module == "setfun" and name in LIFTS:
            if outer:
                into["setfun.lift.ms"] += (end - start) * 1e3
        elif module == "setfun" and name == "classify_supermodular":
            into["setfun.classify.ms"] += (end - start) * 1e3
        elif module == "cover":
            if name in ("min_arc_cover", "construct_brute"):
                into[f"cover.{name}.ms"] += (end - start) * 1e3
            elif name == "find_matching_covering_bases":
                into["cover.matching.ms"] += (end - start) * 1e3
        elif module == "harness":
            if name.startswith("verify_"):
                into[f"harness.verify.{name[7:]}.self_ms"] += self_s * 1e3
            elif name in VALIDATORS:
                into["harness.validate.ms"] += (end - start) * 1e3
            elif name == "shrink_instance":
                into["harness.shrink.ms"] += (end - start) * 1e3
        elif module == "jsonio" and outer:
            side = "load" if name in ("load_instance_file", "load_instance") else "emit"
            into[f"jsonio.{side}.ms"] += (end - start) * 1e3
        if module == "feasibility" and name == "recompute_lhs":
            into["harness.recompute_lhs.ms"] += (end - start) * 1e3
        for key, value in counts.items():
            into[f"{module}.{key}"] += value
