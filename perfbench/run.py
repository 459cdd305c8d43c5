"""catlab benchmark: one command per workload, every metric by name.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1

Workloads (BENCHMARK.json records why each exists):

* ``cold-cli``: a fixed matrix of light ``catlab`` commands over the five
  shipped scenarios and four subcommands, each in a fresh interpreter;
* ``resurrection``: the round sweep K = 1..12 on the resurrection lab from
  ``dead`` and ``rho_cat``, exact and by seeded Monte Carlo;
* ``random-labs``: seeded random labs with d = 4, 8, 16 plus the paper's
  cat a^2 grid: no-go verdicts with replay audits, exact runs and sampling.

Run from the root of a checkout; catlab is imported from ``src/``.  The
client writes the generated inputs under ``.perfbench/``, runs the
workload in one fresh process (a closed loop with one client) and times
set-up in separate fresh processes.  BLAS and OpenMP threads are pinned
to 1.  Times are reported at a nominal host speed, measured by fixed
reference work between the operations (see ``speed.py``); the details
line holds the measured figures too.  With ``--trace 0`` the end-to-end
metrics are printed; with ``--trace 1`` a traced run prints the
per-layer metrics and the tracing overhead.  The last stdout line is the result object; the line before it
holds the details: environment, every metric by name, failures.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("cold-cli", "resurrection", "random-labs")
THREAD_PINS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
SETUP_REPEATS = 5
IMPORT_REPEATS = 3
WORKLOAD_TIMEOUT_S = 150


def child_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_PINS)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.pop("CATLAB_SEED", None)
    return env


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) at the highest percentile with at least ten
    samples beyond it; the maximum when there are ten samples or fewer."""
    xs = sorted(samples)
    k = len(xs) - 10
    if k < 1:
        return xs[-1], 100.0
    return xs[k - 1], 100.0 * k / len(xs)


def import_times(env: dict) -> dict[str, float]:
    """Medians, in seconds, from `python -X importtime -c "import catlab"`."""
    runs: list[dict[str, float]] = []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import catlab"],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, check=True,
        )
        figures = dict.fromkeys(("total", "scipy", "numpy", "yaml", "catlab_self"), 0.0)
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "[us]" in line:
                continue
            self_us, cum_us, name = line[len("import time:"):].split("|")
            name = name.strip()
            top = name.split(".")[0].lstrip("_")
            if name == "catlab":
                figures["total"] = int(cum_us) / 1e6
            key = "catlab_self" if top == "catlab" else top
            if key in figures and key != "total":
                figures[key] += int(self_us) / 1e6
        runs.append(figures)
    return {k: statistics.median(r[k] for r in runs) for k in runs[0]}


def environment(env: dict) -> dict:
    def version(dist: str):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "pyyaml": version("pyyaml"),
        "git_commit": commit,
        "thread_pins": {k: env[k] for k in THREAD_PINS},
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "catlab" / "__init__.py").is_file():
        print(f"perfbench: no catlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    env = child_env()
    os.environ.update(THREAD_PINS)  # the generator's own numpy, too
    import gen
    from speed import START_NOMINAL_S, Speed, start_reference

    work = ROOT / ".perfbench" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    gen.write_inputs(args.workload, args.seed, work)
    manifest_path = work / "manifest.json"
    worker = [sys.executable, str(HERE / "work.py"), str(manifest_path)]

    proc = subprocess.run(
        worker + ["--seconds", str(args.seconds), "--trace", str(args.trace)],
        env=env, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=WORKLOAD_TIMEOUT_S,
    )
    # the workload process is the only child waited for so far
    peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        print(f"perfbench: workload process exited with {proc.returncode}", file=sys.stderr)
        return 1
    result = json.loads(proc.stdout.strip().splitlines()[-1])

    detail: dict = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(env),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "error_rate": result["failed"] / result["attempted"],
        "known_failures": result["known_failures"],
        "known_defects": result["known_defects"],
        "failures": result["failures"],
    }
    if args.trace:
        layers = {k: {"value": v, "unit": u} for k, (v, u) in result["per_layer"].items()}
        for key, value in import_times(env).items():
            layers[f"import.{key}_s"] = {"value": value, "unit": "s"}
        detail["spans_file"] = result.get("spans_file")
        detail["per_layer"] = layers
        metrics = layers
    else:
        # each set-up between two process-start references, scaled like the
        # workload's operations (see speed.py)
        speed = Speed(start_reference, START_NOMINAL_S, every=0.0)
        setups = []
        for _ in range(SETUP_REPEATS):
            speed.sample()
            t0 = time.perf_counter()
            subprocess.run(worker + ["--setup-only"], env=env, cwd=ROOT, check=True)
            t1 = time.perf_counter()
            setups.append((t1, t1 - t0))
        speed.sample()
        detail["setup_runs_s"] = [s for _, s in setups]
        detail["setup_speed"] = speed.summary()
        scaled_setups = [s * speed.factor(t) for t, s in setups]
        by_op = result["latencies"]
        lat = [x for samples in by_op.values() for x in samples]
        tail_value, tail_pct = tail(lat)
        # The median and the 90th-percentile operation, each at the median
        # of its repetitions.  The tail with ten samples beyond it is in the
        # details but not gated: its percentile moves with the number of
        # passes, and over a mix of small and large operations it then jumps
        # from one operation size to the next.
        per_op = [statistics.median(v) for v in by_op.values()]
        metrics = {
            "setup_s": {"value": statistics.median(scaled_setups), "unit": "s"},
            "latency_p50_s": {"value": statistics.median(per_op), "unit": "s"},
            "latency_p90_s": {"value": statistics.quantiles(per_op, n=10)[-1], "unit": "s"},
            "exact_s": {"value": result["exact_s"], "unit": "s"},
            "mc_trials_per_s": {"value": result["mc_trials_per_s"], "unit": "1/s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
        named = dict(metrics)
        named["latency_p50_s"] = dict(metrics["latency_p50_s"], operations=len(by_op))
        named["latency_p90_s"] = dict(metrics["latency_p90_s"], operations=len(by_op))
        named["latency_tail_s"] = {"value": tail_value, "unit": "s", "percentile": tail_pct, "samples": len(lat)}
        named["error_rate"] = {"value": detail["error_rate"], "unit": "ratio",
                               "failed": result["failed"], "attempted": result["attempted"]}
        if args.workload == "cold-cli":
            named["cli_p50_s"] = named["latency_p50_s"]
            named["cli_tail_s"] = named["latency_tail_s"]
        if "checks_per_s" in result:
            named["checks_per_s"] = {"value": result["checks_per_s"], "unit": "1/s"}
        detail["metrics"] = named
        detail["measured"] = dict(result["measured"], setup_s=statistics.median(detail["setup_runs_s"]))
        for key in ("speed", "passes", "cycles", "verdict_mix", "per_command_s"):
            if key in result:
                detail[key] = result[key]

    print(json.dumps({"detail": detail}))
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    missing = [name for name in wanted if name not in metrics]
    if missing:
        print(f"perfbench: no measurement for {', '.join(missing)}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": result["failed"] == result["known_failures"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": metrics[k]["value"], "unit": metrics[k]["unit"]} for k in wanted},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
