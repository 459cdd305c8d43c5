"""One workload run, in a fresh process started by run.py.

    python3 perfbench/work.py MANIFEST --seconds T --trace 0|1
    python3 perfbench/work.py MANIFEST --setup-only

The loop is closed with one client: the next operation starts when the
previous one has returned.  Every operation is checked against an
independent route (closed forms, binomial bounds, replays, a numpy
propagation); an operation fails if it raises or disagrees.  The result
is one JSON object on the last line of stdout.
"""

from __future__ import annotations

import argparse
import csv
import gc
import io
import json
import math
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
from speed import KERNEL_NOMINAL_S, START_NOMINAL_S, Speed, kernel, start_reference

HERE = Path(__file__).resolve().parent
Z = 5.0  # binomial bound width, in standard deviations
EXACT_TOL = 1e-9
RESURRECT_TRIALS = 10000
LAB_TRIALS = 2000


def binomial_ok(count: int, n: int, p: float) -> bool:
    return abs(count - n * p) <= Z * math.sqrt(n * p * (1.0 - p)) + 1.0


# Known defects of the checker.  A no-go check that fails in one of these
# ways counts as failed but does not make the run incorrect, so a fix shows
# as fewer failures and any other failure as a new defect.
KNOWN_DEFECTS = {
    "norm-check": "a valid state trips the norm check after collapse: the post "
                  "state is divided by sqrt(p), not by the norm of P|psi>",
    "pruned-witness": "a conclusive 'no' although a witness exists whose "
                      "probability is below the search's min_prob (1e-12)",
}
NORM_CHECK_ERROR = "CatlabError: state vector norm^2"
MIN_PROB = 1e-12


class Tally:
    """Attempted and failed operations, with the failures by cause."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.known = 0
        self.failures: dict[str, int] = {}

    def record(self, op: str, why: str | None, known: bool = False) -> None:
        self.attempted += 1
        if why is None:
            return
        self.failed += 1
        self.known += known
        key = f"{op}: {why}"
        self.failures[key] = self.failures.get(key, 0) + 1


class Run:
    """Timings of one workload run, keyed by operation.  Each sample is
    stamped when it is recorded and scaled by the host speed around that
    stamp (see speed.py); an operation is charged the median of its scaled
    repetitions, and every run repeats whole passes, so each has the same
    mix of operations."""

    def __init__(self, speed: Speed | None = None):
        self.speed = speed
        self.passes = 0
        self.latencies: dict[str, list[tuple[float, float]]] = {}
        self.exact: dict[str, list[tuple[float, float]]] = {}
        self.mc: dict[str, list[tuple[float, float]]] = {}
        self.trials: dict[str, int] = {}
        self.checks: dict[str, list[tuple[float, float]]] = {}
        self.verdicts = dict.fromkeys(("violated", "bound_reached", "conclusive"), 0)

    def due(self) -> None:
        """Call before each operation: samples the host speed when due."""
        if self.speed is not None:
            self.speed.due()

    @staticmethod
    def _add(table: dict, key: str, seconds: float) -> None:
        table.setdefault(key, []).append((time.perf_counter(), seconds))

    def add_latency(self, key: str, seconds: float) -> None:
        self._add(self.latencies, key, seconds)

    def add_exact(self, key: str, seconds: float) -> None:
        self._add(self.exact, key, seconds)

    def add_mc(self, key: str, seconds: float, trials: int) -> None:
        self._add(self.mc, key, seconds)
        self.trials[key] = trials

    def add_check(self, key: str, seconds: float) -> None:
        self._add(self.checks, key, seconds)

    def results(self) -> dict:
        """Scaled figures of the run, with the measured ones beside them."""
        self.speed.sample()  # the samples after the last operation
        scaled = {name: scale(table, self.speed) for name, table in
                  (("latency", self.latencies), ("exact", self.exact),
                   ("mc", self.mc), ("check", self.checks))}
        raw = {name: scale(table, None) for name, table in
               (("exact", self.exact), ("mc", self.mc))}
        trials = sum(self.trials.values())
        out = {
            "latencies": scaled["latency"],
            "exact_s": per_op_total(scaled["exact"]),
            "mc_trials_per_s": trials / per_op_total(scaled["mc"]),
            "measured": {"exact_s": per_op_total(raw["exact"]),
                         "mc_trials_per_s": trials / per_op_total(raw["mc"])},
            "speed": self.speed.summary(),
            "passes": self.passes,
        }
        if self.checks:
            out["checks_per_s"] = len(self.checks) / per_op_total(scaled["check"])
            out["verdict_mix"] = self.verdicts
        return out


def scale(table: dict, speed: Speed | None) -> dict[str, list[float]]:
    """Stamped samples by operation -> seconds at the nominal host speed
    (measured seconds when `speed` is None)."""
    return {key: [s * (speed.factor(t) if speed else 1.0) for t, s in samples]
            for key, samples in table.items()}


def per_op_total(by_op: dict[str, list[float]]) -> float:
    """Sum over operations of the median of each one's repetitions."""
    return sum(statistics.median(v) for v in by_op.values())


def timed(fn, *args, **kwargs):
    """(seconds, result, error) of one call; errors are returned, not raised."""
    t0 = time.perf_counter()
    try:
        out = fn(*args, **kwargs)
        err = None
    except Exception as exc:  # an operation that raises is a failed operation
        out = None
        err = f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - t0, out, err


# ---------------------------------------------------------------------------
# cold CLI


def check_cli(cmd: dict, code: int, out: bytes) -> str | None:
    """Compare one command's exit code and report with its closed form."""
    if code != cmd["exit"]:
        return f"exit code {code}, expected {cmd['exit']}"
    exp = cmd["expect"]
    kind = exp["kind"]
    text = out.decode("utf-8")
    if kind.endswith("_csv"):
        rows = list(csv.reader(io.StringIO(text)))[1:]
    else:
        result = json.loads(text)["result"]
    if kind == "witness":
        w = result["witness"]
        if not result["violated"] or w is None:
            return "no witness"
        if abs(w["probability"] - exp["p"]) > EXACT_TOL:
            return f"witness p {w['probability']!r}, closed form {exp['p']}"
        return None
    if kind in ("exact", "exact_csv"):
        if kind == "exact":
            got = {r["state"]: r["probability"] for r in result["table"]}
        else:
            got = {r[0]: float(r[1]) for r in rows}
        return _table_diff(got, exp["table"])
    if kind in ("sample", "sample_csv"):
        n = exp["trials"]
        if kind == "sample":
            counts = {r["state"]: r["count"] for r in result["histogram"]}
            exact = {r["state"]: r["exact_p"] for r in result["histogram"]}
        else:
            counts = {r[0]: round(float(r[2]) * n) for r in rows}
            exact = {r[0]: float(r[1]) for r in rows}
        bad = _table_diff(exact, exp["table"])
        if bad:
            return bad
        for state, p in exp["table"].items():
            if not binomial_ok(counts[state], n, p):
                return f"{state}: {counts[state]} of {n} outside the binomial bound of {p}"
        return None
    if kind in ("discriminate", "discriminate_csv"):
        n = exp["trials"]
        if kind == "discriminate":
            if abs(result["total_variation"] - exp["tv"]) > EXACT_TOL:
                return f"total variation {result['total_variation']!r}, closed form {exp['tv']}"
            rows = []
            for o in result["outcomes"]:
                rows.append(["A", o["label"], o["exact_a"], o["freq_a"]])
                rows.append(["B", o["label"], o["exact_b"], o["freq_b"]])
        for src, label, p, freq, *_ in rows:
            want = exp["a" if src == "A" else "b"][label]
            if abs(float(p) - want) > EXACT_TOL:
                return f"{src}/{label}: exact {p}, closed form {want}"
            if not binomial_ok(round(float(freq) * n), n, want):
                return f"{src}/{label}: frequency {freq} outside the binomial bound of {want}"
        return None
    if kind == "tree":
        mass = 0.0
        stack = [result["root"]]
        while stack:
            node = stack.pop()
            stack.extend(node["children"])
            if not node["children"] and node["state"] == "alive":
                mass += node["cumulative"]
        if abs(mass - exp["alive"]) > EXACT_TOL:
            return f"alive leaf mass {mass!r}, closed form {exp['alive']}"
        return None
    return f"unknown check {kind!r}"


def _table_diff(got: dict, want: dict) -> str | None:
    if set(got) != set(want):
        return f"states {sorted(got)}, expected {sorted(want)}"
    for state, p in want.items():
        if abs(got[state] - p) > EXACT_TOL:
            return f"{state}: {got[state]!r}, closed form {p}"
    return None


def cli_trials(cmd: dict) -> int:
    """Monte Carlo draws a sampled command makes (discriminate samples both sources)."""
    exp = cmd["expect"]
    if exp["kind"].startswith("sample"):
        return exp["trials"]
    if exp["kind"].startswith("discriminate"):
        return 2 * exp["trials"]
    return 0


def run_cold_cli(manifest: dict, seconds: float, trace: bool, tally: Tally, work: Path) -> dict:
    cmds = manifest["commands"]
    order_rng = random.Random(manifest["seed"])
    plain = [sys.executable, "-m", "catlab"]
    shim_out = work / "cli-trace.json"
    shim = [sys.executable, str(HERE / "clishim.py"), str(shim_out)]
    first_out: dict[str, tuple[int, bytes]] = {}
    spans: list[dict] = []

    def invoke(cmd: dict, traced: bool) -> tuple[float, dict | None]:
        argv = (shim if traced else plain) + cmd["args"]
        t0 = time.perf_counter()
        proc = subprocess.run(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        wall = time.perf_counter() - t0
        why = None
        seen = first_out.setdefault(cmd["id"], (proc.returncode, proc.stdout))
        if seen != (proc.returncode, proc.stdout):
            why = "stdout or exit code changed between repeat invocations"
        else:
            try:
                why = check_cli(cmd, proc.returncode, proc.stdout)
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                why = f"unreadable report: {type(exc).__name__}: {exc}"
        tally.record(cmd["id"], why)
        counters = None
        if traced:
            doc = json.loads(shim_out.read_text(encoding="utf-8"))
            counters = {"totals": doc["totals"], "values": doc["values"]}
            spans.append({"command": cmd["id"], "spans": doc["spans"]})
        return wall, counters

    # untimed warm-up: bytecode caches exist before timing, as for an installed user
    subprocess.run(plain + cmds[0]["args"], stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)

    if trace:
        result = _trace_passes(
            seconds,
            lambda: sum(invoke(c, False)[0] for c in cmds),
            lambda: _cli_traced_pass(cmds, invoke),
            tally,
        )
        result["spans"] = spans
        return result

    # whole cycles of the matrix, in a seeded order, so every run has the
    # same mix of commands: at least two, so every command has repetitions,
    # and a further one only if it fits in time
    speed = Speed(start_reference, START_NOMINAL_S, every=0.0)
    by_cmd: dict[str, list[tuple[float, float]]] = {c["id"]: [] for c in cmds}
    start = time.perf_counter()
    cycles = 0
    while cycles < 2 or (time.perf_counter() - start) * (cycles + 1) / cycles <= seconds:
        batch = list(cmds)
        order_rng.shuffle(batch)
        for cmd in batch:
            speed.due()
            wall, _ = invoke(cmd, False)
            by_cmd[cmd["id"]].append((time.perf_counter(), wall))
        cycles += 1
    speed.sample()
    scaled = scale(by_cmd, speed)
    measured = scale(by_cmd, None)
    exact = [c["id"] for c in cmds if cli_trials(c) == 0]
    sampled = [c["id"] for c in cmds if cli_trials(c) > 0]
    checks = [c["id"] for c in cmds if c["expect"]["kind"] == "witness"]
    trials = sum(cli_trials(c) for c in cmds)

    def pick(by_op, ids):
        return {i: by_op[i] for i in ids}

    return {
        "latencies": scaled,
        "exact_s": per_op_total(pick(scaled, exact)),
        "mc_trials_per_s": trials / per_op_total(pick(scaled, sampled)),
        "checks_per_s": len(checks) / per_op_total(pick(scaled, checks)),
        "measured": {"exact_s": per_op_total(pick(measured, exact)),
                     "mc_trials_per_s": trials / per_op_total(pick(measured, sampled))},
        "speed": speed.summary(),
        "per_command_s": {i: statistics.median(v) for i, v in scaled.items()},
        "cycles": cycles,
    }


def _cli_traced_pass(cmds, invoke) -> tuple[float, dict]:
    total = 0.0
    counters = tracing.empty()
    for cmd in cmds:
        wall, part = invoke(cmd, True)
        total += wall
        tracing.add(counters, part)
    return total, counters


# ---------------------------------------------------------------------------
# resurrection sweep


def load_all(manifest: dict) -> dict:
    from catlab import load_scenario

    return {path: load_scenario(path)[0] for path in manifest["scenarios"]}


def resurrection_pass(manifest: dict, scenarios: dict, tally: Tally, seed: int, run: Run) -> None:
    from catlab import aggregate_leaves, enumerate_protocol, leaf_mass, run_monte_carlo
    from catlab.qstate import states_match

    sc = scenarios[manifest["scenarios"][0]]
    alive = sc.states["alive"]
    for init in manifest["initials"]:
        start = sc.initial(init)
        for k in range(1, manifest["kmax"] + 1):
            protocol = sc.protocols[f"sweep{k}"]
            closed = 1.0 - 2.0 ** -k
            op = f"sweep:{init}:K={k}"
            run.due()
            gc.collect()

            def exact():
                tree = enumerate_protocol(protocol, sc.lab, start)
                return tree, aggregate_leaves(tree), leaf_mass(tree, alive)

            t_exact, res, err = timed(exact)
            if err is None:
                tree, agg, mass = res
                agg_alive = sum(p for st, p in agg if states_match(st, alive))
                if abs(mass - closed) > EXACT_TOL:
                    err = f"leaf mass {mass!r}, closed form {closed!r}"
                elif abs(agg_alive - mass) > EXACT_TOL:
                    err = f"aggregated alive mass {agg_alive!r} != leaf mass {mass!r}"
                elif abs(sum(p for _, p in agg) + tree.pruned_mass - 1.0) > EXACT_TOL:
                    err = "aggregated mass plus pruned mass is not 1"
                del tree, agg, res
            tally.record(op + ":exact", err)
            mc_seed = seed * 1000 + k + (500 if init != "dead" else 0)
            t_mc, mc, err = timed(run_monte_carlo, protocol, sc.lab, start, RESURRECT_TRIALS, mc_seed)
            if err is None:
                hits = round(mc.frequency(alive) * mc.n)
                if not binomial_ok(hits, mc.n, closed):
                    err = f"{hits} of {mc.n} alive, outside the binomial bound of {closed!r}"
            tally.record(op + ":mc", err)
            run.add_latency(op, t_exact + t_mc)
            run.add_exact(op, t_exact)
            run.add_mc(op, t_mc, RESURRECT_TRIALS)


# ---------------------------------------------------------------------------
# random labs


def propagate(sc, protocol_steps, rho):
    """Final-outcome distribution of a measure/unitary protocol, by direct
    density-matrix propagation in numpy (independent of the outcome tree)."""
    import numpy as np

    last = {}
    for step in protocol_steps:
        if hasattr(step, "unitary"):
            u = sc.unitaries[step.unitary].mat
            rho = u @ rho @ u.conj().T
        else:
            m = sc.measurements[step.measurement]
            last = {label: float(np.real(np.trace(op.mat @ rho))) for label, op in m.outcomes}
            rho = sum(op.mat @ rho @ op.mat for _, op in m.outcomes)
    return last


def labs_pass(manifest: dict, scenarios: dict, tally: Tally, seed: int, run: Run) -> None:
    from catlab import (
        aggregate_leaves,
        enumerate_protocol,
        leaf_mass,
        make_measurement,
        nogo_verdict,
        replay_path,
        run_monte_carlo,
    )
    from catlab.qstate import squared_overlap

    def check(sc, op, candidate, max_depth, name, violating, expect_p=None):
        alive, dead = sc.states["alive"], sc.states["dead"]
        run.due()
        gc.collect()

        def verdict_and_audit():
            v = nogo_verdict(sc.lab, candidate, alive, dead, max_depth=max_depth, name=name)
            audit = None
            if v.witness is not None:
                adjoined = make_measurement(sc.space, [("S", candidate)])
                lab = sc.lab.with_measurement(name, adjoined)
                audit = replay_path(lab, dead, v.witness)
            return v, audit

        wall, res, err = timed(verdict_and_audit)
        known = err is not None and err.startswith(NORM_CHECK_ERROR)
        if err is None:
            v, audit = res
            mix = "violated" if v.violated else ("bound_reached" if v.bound_reached else "conclusive")
            run.verdicts[mix] += 1
            if violating and not v.violated:
                err = ("conclusive no although a witness exists" if mix == "conclusive"
                       else "no witness within the depth bound although one exists at depth 2")
                known = mix == "conclusive" and expect_p is not None and expect_p < MIN_PROB
            elif not violating and v.violated:
                err = "witness claimed where the lab keeps alive invariant"
            elif v.witness is not None:
                p, final = audit
                if abs(p - v.witness.probability) > EXACT_TOL * max(1.0, p):
                    err = f"replay gives {p!r}, witness says {v.witness.probability!r}"
                elif squared_overlap(final, alive) < 1.0 - 1e-9:
                    err = "replayed witness does not end on the target"
                elif expect_p is not None and abs(p - expect_p) > 1e-6 * expect_p:
                    err = f"witness p {p!r}, closed form a2*b2 = {expect_p!r}"
        tally.record(op, err, known)
        run.add_latency(op, wall)
        run.add_check(op, wall)

    for index, lab_facts in enumerate(manifest["labs"]):
        sc = scenarios[lab_facts["path"]]
        for name, violating in lab_facts["candidates"]:
            check(sc, f"{lab_facts['name']}:{name}", sc.measurements[name].projector("S"),
                  lab_facts["depth"], name, violating)
        protocol = sc.protocols["probe"]
        rho = sc.initial("rho_mix")
        alive = sc.states["alive"]
        run.due()
        gc.collect()

        def exact():
            tree = enumerate_protocol(protocol, sc.lab, rho)
            return tree, aggregate_leaves(tree), leaf_mass(tree, alive)

        t_exact, res, err = timed(exact)
        want = propagate(sc, protocol.unrolled(), rho.mat)
        p_alive = want[lab_facts["alive_outcome"]]
        if err is None:
            tree, agg, mass = res
            by_label: dict[str, float] = {}
            for leaf in tree.leaves():
                by_label[leaf.label] = by_label.get(leaf.label, 0.0) + leaf.cumulative
            slack = EXACT_TOL + tree.pruned_mass
            if any(abs(by_label.get(lbl, 0.0) - p) > slack for lbl, p in want.items()):
                err = "leaf masses by final outcome disagree with density-matrix propagation"
            elif abs(mass - p_alive) > slack:
                err = f"leaf mass on alive {mass!r}, propagation gives {p_alive!r}"
            elif abs(sum(p for _, p in agg) + tree.pruned_mass - 1.0) > EXACT_TOL:
                err = "aggregated mass plus pruned mass is not 1"
            del tree, agg, res
        tally.record(f"{lab_facts['name']}:probe:exact", err)
        run.add_exact(lab_facts["name"], t_exact)
        mc_seed = seed * 1000 + index
        t_mc, mc, err = timed(run_monte_carlo, protocol, sc.lab, rho, LAB_TRIALS, mc_seed)
        if err is None:
            hits = round(mc.frequency(alive) * mc.n)
            if not binomial_ok(hits, mc.n, p_alive):
                err = f"{hits} of {mc.n} alive, outside the binomial bound of {p_alive!r}"
        tally.record(f"{lab_facts['name']}:probe:mc", err)
        run.add_mc(lab_facts["name"], t_mc, LAB_TRIALS)

    grid = manifest["cat_grid"]
    sc = scenarios[grid["path"]]
    for name, a2 in grid["grid"]:
        check(sc, f"cat-grid:{a2!r}", sc.measurements[name].projector("S"), 8, name, True,
              expect_p=a2 * (1.0 - a2))


# ---------------------------------------------------------------------------
# in-process workloads


def run_in_process(manifest: dict, seconds: float, trace: bool, tally: Tally, seed: int) -> dict:
    one_pass = resurrection_pass if manifest["workload"] == "resurrection" else labs_pass

    if trace:
        # each pass loads its inputs, so scenario parsing shows in the trace
        tracer = tracing.Tracer()

        def timed_pass() -> float:
            t0 = time.perf_counter()
            one_pass(manifest, load_all(manifest), tally, seed, Run())
            return time.perf_counter() - t0

        def traced():
            tracer.install()
            before = tracer.snapshot()
            try:
                wall = timed_pass()
            finally:
                tracer.uninstall()
            return wall, tracing.diff(tracer.snapshot(), before)

        result = _trace_passes(seconds, timed_pass, traced, tally)
        result["spans"] = tracer.export()["spans"]
        return result

    # whole passes, so every run has the same mix of operations
    scenarios = load_all(manifest)
    deadline = time.perf_counter() + seconds
    run = Run(Speed(kernel, KERNEL_NOMINAL_S, every=0.1))
    while run.passes == 0 or time.perf_counter() < deadline:
        one_pass(manifest, scenarios, tally, seed, run)
        run.passes += 1
    return run.results()


# ---------------------------------------------------------------------------
# traced passes (shared by all workloads)


def _trace_passes(seconds: float, plain, traced, tally: Tally) -> dict:
    """Untraced and traced passes, alternating, until `seconds` are used;
    at least two of each.  The overhead is the difference of their median
    walls.  Counts must repeat exactly between traced passes."""
    start = time.perf_counter()
    plain_walls, walls, runs = [], [], []
    while len(runs) < 2 or time.perf_counter() - start + plain_walls[-1] + walls[-1] <= seconds:
        plain_walls.append(plain())
        wall, counters = traced()
        walls.append(wall)
        runs.append(counters)
    calls = [{k: v[0] for k, v in r["totals"].items()} for r in runs]
    ints = [{k: v for k, v in r["values"].items() if k != "protocols.pruned_mass"} for r in runs]
    repeat_ok = all(c == calls[0] for c in calls) and all(i == ints[0] for i in ints)
    tally.record("trace:counts-repeat", None if repeat_ok else "counts differ between traced passes")
    layers: dict[str, tuple[str, list]] = {}
    for r in runs:
        for name, (value, unit) in tracing.layer_metrics(r).items():
            layers.setdefault(name, (unit, []))[1].append(value)
    per_layer = {name: (statistics.median(values) if unit == "s" else values[0], unit)
                 for name, (unit, values) in layers.items()}
    per_layer["trace.overhead_s"] = (statistics.median(walls) - statistics.median(plain_walls), "s")
    per_layer["trace.untraced_pass_s"] = (statistics.median(plain_walls), "s")
    per_layer["trace.traced_pass_s"] = (statistics.median(walls), "s")
    per_layer["trace.passes"] = (len(runs), "count")
    return {"per_layer": per_layer}


# ---------------------------------------------------------------------------


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("manifest")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    manifest_path = Path(args.manifest)
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    if args.setup_only:
        import catlab  # noqa: F401  (interpreter start and import are part of set-up)

        if manifest["workload"] == "cold-cli":
            from catlab import load_scenario
            from catlab.scenario import iter_shipped_scenarios

            for name in iter_shipped_scenarios():
                load_scenario(name)
        else:
            load_all(manifest)
        return 0

    tally = Tally()
    if manifest["workload"] == "cold-cli":
        result = run_cold_cli(manifest, args.seconds, bool(args.trace), tally, manifest_path.parent)
    else:
        result = run_in_process(manifest, args.seconds, bool(args.trace), tally, manifest["seed"])
    if "spans" in result:
        spans_path = manifest_path.parent / "spans.json"
        spans_path.write_text(json.dumps(result.pop("spans")), encoding="utf-8")
        result["spans_file"] = str(spans_path)
    result.update(
        attempted=tally.attempted,
        failed=tally.failed,
        known_failures=tally.known,
        known_defects=KNOWN_DEFECTS,
        failures=tally.failures,
    )
    if "per_layer" in result:
        result["per_layer"] = {k: list(v) for k, v in result["per_layer"].items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
