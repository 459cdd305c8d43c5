"""Command line front end.

Four subcommands over a scenario file (a path or a shipped name):

* ``check``    - adjoin a declared measurement's projector to the lab, try
  to certify that no chain crosses a forbidden transition, and search for
  a steering path across it when no certificate is found.
* ``run``      - enumerate a protocol exactly or sample it by Monte Carlo.
* ``discriminate`` - compare two sources through one measurement.
* ``enumerate``    - dump the full outcome tree of a protocol.

Reports go to stdout; wall-time and errors go to stderr.  With fixed
inputs and seed the stdout bytes are identical across runs.  Every report
is laid out here, under ``FORMAT_VERSION``, except the ``enumerate`` tree,
which ``protocols.tree_to_json`` builds from the tree's walk.
Exit codes: 0 no violation / success, 1 input error, 2 violation witness.

``main`` runs one command and can be called in process.  ``entry`` is the
process entry that ``python -m catlab`` and the ``catlab`` script call: it
runs ``main``, then freezes every object still alive, so that the garbage
collections of interpreter shutdown do not walk them.
"""

from __future__ import annotations

import argparse
import csv
import gc
import json
import os
import sys
import time
from typing import Mapping

from . import __version__
from .errors import CatlabError
from .lab import DEFAULT_MAX_DEPTH, NoGoVerdict, nogo_verdict
from .protocols import (
    MAX_TRIALS,
    DiscriminationReport,
    aggregate_leaves,
    discriminate,
    enumerate_protocol,
    run_monte_carlo,
    tree_to_json,
)
from .qstate import StateVector, format_state
from .rng import MAX_SEED
from .scenario import SCENARIO_NAMES, Scenario, load_scenario

FORMAT_VERSION = 1
EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_VIOLATION = 2
DEFAULT_TRIALS = 10000


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on bad usage; the exit-code contract reserves
    2 for violation witnesses, so usage errors are remapped to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT_ERROR, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="catlab", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"catlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def common(p: argparse.ArgumentParser, sampled: bool) -> None:
        p.add_argument(
            "--scenario",
            required=True,
            help=f"scenario file path or shipped name ({', '.join(SCENARIO_NAMES)})",
        )
        if sampled:
            p.add_argument(
                "--seed",
                type=int,
                default=0,
                help=f"RNG seed, 0..{MAX_SEED} (default 0)",
            )
            p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("check", help="no-go check for a candidate projector")
    common(p, sampled=False)
    p.add_argument("candidate", help="declared measurement, NAME or NAME:OUTCOME")
    p.add_argument("--from", dest="source", required=True, metavar="STATE",
                   help="state the forbidden transition starts from")
    p.add_argument("--to", dest="target", required=True, metavar="STATE",
                   help="forbidden target state")
    p.add_argument("--depth", type=int, default=DEFAULT_MAX_DEPTH,
                   help="steering search depth bound")
    p.set_defaults(handler=cmd_check)

    p = sub.add_parser("run", help="run a protocol exactly or by sampling")
    common(p, sampled=True)
    p.add_argument("protocol", help="declared protocol name")
    p.add_argument("--initial", required=True, help="initial state or mixture name")
    p.add_argument("--trials", type=int, default=None,
                   help=f"Monte Carlo trials (default {DEFAULT_TRIALS})")
    p.add_argument("--exact", action="store_true",
                   help="enumerate instead of sampling")
    p.set_defaults(handler=cmd_run)

    p = sub.add_parser("discriminate", help="compare two sources through a measurement")
    common(p, sampled=True)
    p.add_argument("source_a", help="state or mixture name")
    p.add_argument("source_b", help="state or mixture name")
    p.add_argument("measurement", help="declared measurement name")
    p.add_argument("--trials", type=int, default=DEFAULT_TRIALS)
    p.set_defaults(handler=cmd_discriminate)

    p = sub.add_parser("enumerate", help="dump a protocol's full outcome tree")
    common(p, sampled=False)
    p.add_argument("protocol", help="declared protocol name")
    p.add_argument("--initial", required=True, help="initial state or mixture name")
    p.set_defaults(handler=cmd_enumerate)

    return parser


def _named(scenario: Scenario, kind: str, table: Mapping, name: str):
    if name not in table:
        raise CatlabError(f"no {kind} named {name!r} in scenario {scenario.name!r}")
    return table[name]


def state_to_json(psi: StateVector) -> dict:
    """A vector's space (labels, and name and factors when it has them) and
    the real and imaginary parts of its amplitudes."""

    def labelled(space) -> dict:
        return {"labels": list(space.labels), **({"name": space.name} if space.name else {})}

    doc = labelled(psi.space)
    if psi.space.factors is not None:
        doc["factors"] = [labelled(f) for f in psi.space.factors]
    doc["re"] = [float(v) for v in psi.amps.real]
    doc["im"] = [float(v) for v in psi.amps.imag]
    return doc


def verdict_to_json(v: NoGoVerdict) -> dict:
    witness = None
    if v.witness is not None:
        witness = {
            "steps": [
                {"operation": name, "outcome": label} for name, label in v.witness.steps
            ],
            "probability": v.witness.probability,
            "final_state": state_to_json(v.witness.final_state),
        }
    return {
        "operator": v.operator_name,
        "violated": v.violated,
        "bound_reached": v.bound_reached,
        "certificate": None if v.certificate is None else {"invariant_dim": v.certificate},
        "witness": witness,
    }


def discrimination_to_json(r: DiscriminationReport) -> dict:
    return {
        "measurement": r.measurement,
        "total_variation": r.total_variation,
        "n_trials": r.n_trials,
        "seed": r.seed,
        "outcomes": [
            {
                "label": lab,
                "exact_a": r.dist_a[lab],
                "exact_b": r.dist_b[lab],
                "freq_a": r.freq_a[lab],
                "freq_b": r.freq_b[lab],
            }
            for lab in r.labels
        ],
        "chi_square": {"statistic": r.chi_square, "df": r.chi_square_df, "p_value": r.p_value},
    }


def discrimination_csv_rows(doc: dict) -> list[list]:
    """The CSV rows of a ``discrimination_to_json`` document: source A's
    outcomes, then source B's."""
    rows = [["source", "label", "exact_p", "empirical_freq", "n"]]
    for src, exact, freq in (("A", "exact_a", "freq_a"), ("B", "exact_b", "freq_b")):
        rows += [
            [src, o["label"], repr(o[exact]), repr(o[freq]), doc["n_trials"]]
            for o in doc["outcomes"]
        ]
    return rows


def cmd_check(scenario: Scenario, args: argparse.Namespace):
    name, colon, label = args.candidate.partition(":")
    m = _named(scenario, "measurement", scenario.measurements, name)
    if not colon:
        label = m.labels[0]
    candidate = m.projector(label)
    verdict = nogo_verdict(
        scenario.lab,
        candidate,
        _named(scenario, "state", scenario.states, args.target),
        _named(scenario, "state", scenario.states, args.source),
        max_depth=args.depth,
        name=name,
        outcome_label=label,
    )
    params = {
        "candidate": name,
        "outcome": label,
        "from": args.source,
        "to": args.target,
        "depth": args.depth,
    }
    code = EXIT_VIOLATION if verdict.violated else EXIT_OK
    return params, verdict_to_json(verdict), None, code


def _enumerated(scenario: Scenario, args: argparse.Namespace):
    """The params of ``run`` and ``enumerate``, the protocol and initial
    state they name, looked up in that order, and its outcome tree."""
    protocol = _named(scenario, "protocol", scenario.protocols, args.protocol)
    initial = scenario.initial(args.initial)
    tree = enumerate_protocol(protocol, scenario.lab, initial)
    params = {"protocol": args.protocol, "initial": args.initial}
    return params, protocol, initial, tree


def cmd_run(scenario: Scenario, args: argparse.Namespace):
    if args.exact and args.trials is not None:
        raise CatlabError("--exact and --trials are mutually exclusive")
    trials = DEFAULT_TRIALS if args.trials is None else args.trials
    if not args.exact and trials < 1:
        raise CatlabError("need at least one trial (or use --exact)")
    if not args.exact and trials > MAX_TRIALS:
        raise CatlabError(f"trial count must be <= {MAX_TRIALS}")
    params, protocol, initial, tree = _enumerated(scenario, args)
    exact = aggregate_leaves(tree)
    rows = [["state", "exact_p", "empirical_freq", "n"]]

    if args.exact:
        table = [{"state": format_state(st), "probability": p} for st, p in exact]
        result = {
            "mode": "exact",
            "nodes": tree.n_nodes(),
            "leaves": tree.n_leaves(),
            "pruned_mass": tree.pruned_mass,
            "table": table,
        }
        rows += [[t["state"], repr(t["probability"]), "", ""] for t in table]
        return params, result, rows, EXIT_OK

    params["trials"] = trials
    mc = run_monte_carlo(protocol, scenario.lab, initial, trials, args.seed)
    exact_p = dict(exact)  # keyed by the lab table's state objects
    histogram = [
        {"state": format_state(st), "count": count, "frequency": freq,
         "exact_p": exact_p.get(st, 0.0)}
        for st, count, freq in mc.rows()
    ]
    result = {"mode": "sample", "trials": trials, "histogram": histogram}
    rows += [[h["state"], repr(h["exact_p"]), repr(h["frequency"]), trials] for h in histogram]
    return params, result, rows, EXIT_OK


def cmd_discriminate(scenario: Scenario, args: argparse.Namespace):
    report = discriminate(
        scenario.initial(args.source_a),
        scenario.initial(args.source_b),
        _named(scenario, "measurement", scenario.measurements, args.measurement),
        args.trials,
        args.seed,
        name=args.measurement,
    )
    params = {
        "source_a": args.source_a,
        "source_b": args.source_b,
        "measurement": args.measurement,
        "trials": args.trials,
    }
    result = discrimination_to_json(report)
    return params, result, discrimination_csv_rows(result), EXIT_OK


def cmd_enumerate(scenario: Scenario, args: argparse.Namespace):
    params, _, _, tree = _enumerated(scenario, args)
    return params, tree_to_json(tree), None, EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    seed = getattr(args, "seed", 0)
    started = time.perf_counter()
    try:
        if not 0 <= seed <= MAX_SEED:
            raise CatlabError(f"seed must be between 0 and {MAX_SEED}")
        scenario, sha = load_scenario(args.scenario)
        params, result, rows, code = args.handler(scenario, args)
    except CatlabError as err:
        _note(f"catlab: error: {err}")
        return EXIT_INPUT_ERROR

    try:
        if getattr(args, "format", "json") == "csv":
            writer = csv.writer(sys.stdout, lineterminator="\n")
            writer.writerows(rows)
        else:
            report = {
                "format_version": FORMAT_VERSION,
                "version": __version__,
                "command": args.command,
                "scenario": args.scenario,
                "scenario_sha256": sha,
                "seed": seed,
                "params": params,
                "result": result,
            }
            print(json.dumps(report, sort_keys=True, indent=2, ensure_ascii=False))
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed the pipe early (``catlab ... | head``).  The
        # report was computed, so keep its exit code.
        _to_devnull(sys.stdout)
    _note(f"elapsed {time.perf_counter() - started:.3f}s")
    return code


def entry() -> int:
    """Run ``main`` as the process, then freeze what is left alive.

    Interpreter shutdown runs full collections; frozen objects, among them
    the tens of thousands that numpy, PyYAML, argparse and catlab leave
    tracked, are skipped.  Exit handlers, stream flushes and module
    teardown still run.  ``main`` itself does not freeze, because tests
    and library callers run it in process."""
    try:
        return main()
    finally:
        gc.freeze()


def _note(line: str) -> None:
    """Print a line to stderr.  A closed stderr loses the line, not the
    exit code."""
    try:
        print(line, file=sys.stderr)
    except BrokenPipeError:
        _to_devnull(sys.stderr)


def _to_devnull(stream) -> None:
    """Point a stream whose reader has gone at devnull, so that the flush at
    interpreter shutdown does not raise again."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, stream.fileno())


if __name__ == "__main__":
    raise SystemExit(entry())
