"""Tracing from outside the package: wrap catlab's public functions.

`Tracer.install()` replaces each traced function in every `catlab.*` module
namespace that holds it (so `from .lab import state_key` copies are
wrapped too) and each traced constructor or method on its class.  No
source file is edited.  Layers that a later version of catlab removes are
skipped and report zero.

Spans record name, start, end and parent and stay in memory until
`export()`.  Hot leaves (`HOT`) are counted and timed in aggregate without
a span each.  Self time is a call's duration minus the time its traced
children cover.
"""

from __future__ import annotations

import importlib
import sys
from time import perf_counter_ns

# (metric prefix, module, attribute path); "Class.method" wraps a class
# attribute, a plain name wraps a module-level function.
TARGETS = (
    ("scenario.load", "catlab.scenario", "load_scenario"),
    ("cli.main", "catlab.cli", "main"),
    ("lab.nogo", "catlab.lab", "nogo_verdict"),
    ("lab.replay", "catlab.lab", "replay_path"),
    ("lab.state_key", "catlab.lab", "state_key"),
    ("measure.outcome_distribution", "catlab.measure", "outcome_distribution"),
    ("measure.make_measurement", "catlab.measure", "make_measurement"),
    ("qstate.density_ctor", "catlab.qstate", "DensityMatrix.__init__"),
    ("qstate.vector_ctor", "catlab.qstate", "StateVector.__init__"),
    ("qstate.canonical", "catlab.qstate", "canonical_state"),
    ("jacobi.min_eigenvalue", "catlab.jacobi", "min_eigenvalue"),
    ("protocols.enumerate", "catlab.protocols", "enumerate_protocol"),
    ("protocols.aggregate", "catlab.protocols", "aggregate_leaves"),
    ("protocols.leaf_mass", "catlab.protocols", "leaf_mass"),
    ("protocols.mc", "catlab.protocols", "run_monte_carlo"),
    ("protocols.discriminate", "catlab.protocols", "discriminate"),
    ("protocols.chi_square", "catlab.protocols", "chi_square_test"),
    ("protocols.tree_to_json", "catlab.protocols", "tree_to_json"),
    ("rng.stream", "catlab.rng", "RandomStream.__init__"),
    ("rng.uniforms", "catlab.rng", "RandomStream.uniforms"),
)

# Called per state or per draw; a span each would swamp the trace.
HOT = frozenset({
    "lab.state_key",
    "measure.outcome_distribution",
    "measure.make_measurement",
    "qstate.density_ctor",
    "qstate.vector_ctor",
    "qstate.canonical",
    "jacobi.min_eigenvalue",
    "rng.stream",
    "rng.uniforms",
})

VALUE_KEYS = (
    "lab.verdicts_violated",
    "lab.verdicts_bound_reached",
    "lab.verdicts_conclusive",
    "protocols.tree_nodes",
    "protocols.pruned_mass",
    "protocols.mc_trials",
    "rng.uniforms_draws",
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, str, int, int, int]] = []  # id, name, start, end, parent
        self.totals: dict[str, list[int]] = {name: [0, 0, 0] for name, _, _ in TARGETS}
        self.values: dict[str, float] = dict.fromkeys(VALUE_KEYS, 0)
        self._stack: list[list[int]] = []  # [child ns, span id of nearest kept span]
        self._next_id = 1
        self._undo: list[tuple[object, str, object]] = []

    # -- wrapping -------------------------------------------------------

    def _wrap(self, name: str, fn):
        stack = self._stack
        total = self.totals[name]
        keep = name not in HOT
        spans = self.spans
        observe = _OBSERVERS.get(name)
        values = self.values

        def traced(*args, **kwargs):
            parent = stack[-1][1] if stack else 0
            if keep:
                span_id = self._next_id
                self._next_id += 1
            else:
                span_id = parent
            frame = [0, span_id]
            stack.append(frame)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][0] += dur
                total[0] += 1
                total[1] += dur
                total[2] += dur - frame[0]
                if keep:
                    spans.append((span_id, name, t0, t1, parent))
            if observe is not None:
                observe(values, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every target that exists in the loaded catlab modules."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "catlab" or n.startswith("catlab."))]
        for name, modname, attr in TARGETS:
            try:
                home = importlib.import_module(modname)
            except ImportError:
                continue
            owner_name, _, leaf = attr.rpartition(".")
            owner = getattr(home, owner_name, None) if owner_name else home
            original = getattr(owner, leaf, None) if owner is not None else None
            if original is None:
                continue
            wrapped = self._wrap(name, original)
            if owner_name:
                self._patch(owner, leaf, wrapped)
            else:
                for mod in modules:
                    for key, val in list(vars(mod).items()):
                        if val is original:
                            self._patch(mod, key, wrapped)

    def _patch(self, owner, key: str, new) -> None:
        self._undo.append((owner, key, getattr(owner, key)))
        setattr(owner, key, new)

    def uninstall(self) -> None:
        while self._undo:
            owner, key, old = self._undo.pop()
            setattr(owner, key, old)

    # -- results --------------------------------------------------------

    def snapshot(self) -> dict:
        """Counters so far: {name: [calls, total_ns, self_ns]} plus values."""
        return {"totals": {k: list(v) for k, v in self.totals.items()},
                "values": dict(self.values)}

    def export(self) -> dict:
        doc = self.snapshot()
        doc["spans"] = [list(s) for s in self.spans]
        return doc


def diff(after: dict, before: dict) -> dict:
    """Counter difference between two snapshots."""
    return {
        "totals": {k: [a - b for a, b in zip(v, before["totals"][k])]
                   for k, v in after["totals"].items()},
        "values": {k: v - before["values"][k] for k, v in after["values"].items()},
    }


def add(into: dict, part: dict) -> None:
    for k, v in part["totals"].items():
        into["totals"][k] = [a + b for a, b in zip(into["totals"][k], v)]
    for k, v in part["values"].items():
        into["values"][k] += v


def empty() -> dict:
    return Tracer().snapshot()


def _observe_verdict(values, verdict) -> None:
    if verdict.violated:
        values["lab.verdicts_violated"] += 1
    elif verdict.bound_reached:
        values["lab.verdicts_bound_reached"] += 1
    else:
        values["lab.verdicts_conclusive"] += 1


def _observe_tree(values, tree) -> None:
    values["protocols.tree_nodes"] += tree.n_nodes()
    values["protocols.pruned_mass"] += tree.pruned_mass


def _observe_mc(values, result) -> None:
    values["protocols.mc_trials"] += result.n


def _observe_uniforms(values, draws) -> None:
    values["rng.uniforms_draws"] += len(draws)


_OBSERVERS = {
    "lab.nogo": _observe_verdict,
    "protocols.enumerate": _observe_tree,
    "protocols.mc": _observe_mc,
    "rng.uniforms": _observe_uniforms,
}


def layer_metrics(counters: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, by name, from one pass's counters."""
    t = counters["totals"]
    v = counters["values"]

    def calls(name):
        return (t[name][0], "count")

    def secs(name, kind=1):
        return (t[name][kind] / 1e9, "s")

    out = {
        "scenario.load_calls": calls("scenario.load"),
        "scenario.load_s": secs("scenario.load"),
        "cli.main_calls": calls("cli.main"),
        "cli.main_s": secs("cli.main"),
        "cli.self_s": secs("cli.main", 2),
        "lab.nogo_calls": calls("lab.nogo"),
        "lab.nogo_s": secs("lab.nogo"),
        "lab.nogo_self_s": secs("lab.nogo", 2),
        "lab.replay_calls": calls("lab.replay"),
        "lab.replay_s": secs("lab.replay"),
        "lab.state_key_calls": calls("lab.state_key"),
        "lab.state_key_s": secs("lab.state_key"),
        "measure.outcome_distribution_calls": calls("measure.outcome_distribution"),
        "measure.outcome_distribution_s": secs("measure.outcome_distribution"),
        "measure.make_measurement_calls": calls("measure.make_measurement"),
        "measure.make_measurement_s": secs("measure.make_measurement"),
        "qstate.density_ctor_calls": calls("qstate.density_ctor"),
        "qstate.density_ctor_s": secs("qstate.density_ctor"),
        "qstate.vector_ctor_calls": calls("qstate.vector_ctor"),
        "qstate.vector_ctor_s": secs("qstate.vector_ctor"),
        "qstate.canonical_calls": calls("qstate.canonical"),
        "qstate.canonical_s": secs("qstate.canonical"),
        "jacobi.min_eigenvalue_calls": calls("jacobi.min_eigenvalue"),
        "jacobi.min_eigenvalue_s": secs("jacobi.min_eigenvalue"),
        "protocols.enumerate_calls": calls("protocols.enumerate"),
        "protocols.enumerate_s": secs("protocols.enumerate"),
        "protocols.aggregate_calls": calls("protocols.aggregate"),
        "protocols.aggregate_s": secs("protocols.aggregate"),
        "protocols.leaf_mass_calls": calls("protocols.leaf_mass"),
        "protocols.leaf_mass_s": secs("protocols.leaf_mass"),
        "protocols.mc_calls": calls("protocols.mc"),
        "protocols.mc_s": secs("protocols.mc"),
        "protocols.discriminate_calls": calls("protocols.discriminate"),
        "protocols.discriminate_s": secs("protocols.discriminate"),
        "protocols.chi_square_calls": calls("protocols.chi_square"),
        "protocols.chi_square_s": secs("protocols.chi_square"),
        "protocols.tree_to_json_calls": calls("protocols.tree_to_json"),
        "protocols.tree_to_json_s": secs("protocols.tree_to_json"),
        "rng.stream_calls": calls("rng.stream"),
        "rng.uniforms_calls": calls("rng.uniforms"),
        "rng.uniforms_s": secs("rng.uniforms"),
    }
    for key in VALUE_KEYS:
        unit = "prob" if key == "protocols.pruned_mass" else "count"
        out[key] = (v[key], unit)
    return out
