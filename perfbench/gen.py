"""Seeded input generation for the benchmark workloads.

Every input catlab sees is written here as `.scn` text, so the scenario
parser reads generated documents rather than objects built in memory.  The
same seed always gives the same bytes.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

# Rounds of the resurrection sweep: K = 1..RESURRECT_KMAX.  The outcome tree
# doubles every round (24,571 nodes at K = 12), so aggregation and state keys
# dominate, while a pass stays short enough that a run holds about ten.
RESURRECT_KMAX = 12
RESURRECT_INITIALS = ("dead", "rho_cat")

# The paper's witness grid (a^2 = 0.1 .. 0.9) plus its near-degenerate
# tail, where the known defects show: 1e-9, 1e-10 and 3e-11 raise a norm
# error and 1e-13 returns a conclusive "no" although a witness exists.
CAT_GRID = tuple(round(0.1 * i, 1) for i in range(1, 10)) + (1e-9, 1e-10, 3e-11, 1e-13)

# Random labs: dimension, block sizes of the two coarse-grained allowed
# measurements on the complement of `alive`, steering depth bound,
# violating and non-violating candidates, rounds of the exact probe.
LAB_SHAPES = (
    (4, (2, 1), (2, 1), 4, 2, 2, 3),
    (8, (3, 4), (4, 3), 4, 2, 2, 2),
    (16, (5, 5, 5), (4, 4, 4, 3), 3, 2, 2, 1),
)


def amp(z: complex) -> str:
    """A quoted "a+bi" literal that parses back to the same doubles."""
    z = complex(z)
    im = repr(z.imag)
    if not im.startswith("-"):
        im = "+" + im
    return f'"{z.real!r}{im}i"'


def vec(v) -> str:
    return "[" + ", ".join(amp(z) for z in v) + "]"


def mat_lines(m, indent: str) -> list[str]:
    return [f"{indent}- {vec(row)}" for row in m]


# ---------------------------------------------------------------------------
# resurrection sweep


def resurrection_text(kmax: int = RESURRECT_KMAX) -> str:
    """The shipped resurrection lab with one protocol per sweep point."""
    lines = [
        "name: resurrection-sweep",
        "space:",
        "  name: cat",
        "  labels: [alive, dead]",
        "states:",
        "  alive: [1, 0]",
        "  dead: [0, 1]",
        "  s: [1, 1]",
        "  s_perp: [1, -1]",
        "mixtures:",
        "  rho_cat:",
        "    - {weight: 0.5, state: alive}",
        "    - {weight: 0.5, state: dead}",
        "measurements:",
        "  pm:",
        "    states:",
        "      S: s",
        "  basis:",
        "    states:",
        "      alive: alive",
        "      dead: dead",
        "forbidden:",
        "  - {from: dead, to: alive}",
        "lab:",
        "  measurements: [pm, basis]",
        "  unitaries: []",
        "protocols:",
    ]
    for k in range(1, kmax + 1):
        lines += [
            f"  sweep{k}:",
            "    - repeat:",
            f"        count: {k}",
            "        body:",
            "          - {measure: pm}",
            "          - {measure: basis}",
            "          - {stop_if: alive}",
        ]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# random labs


def _unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-random n x n unitary (QR with the phases of R divided out)."""
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _perp_basis(rng: np.random.Generator, d: int) -> np.ndarray:
    """d x (d-1) orthonormal columns spanning the complement of e0."""
    out = np.zeros((d, d - 1), dtype=np.complex128)
    out[1:, :] = _unitary(rng, d - 1)
    return out


def random_lab(seed: int, index: int, d: int, blocks_a: tuple[int, ...],
               blocks_b: tuple[int, ...], depth: int, n_violating: int,
               n_safe: int, rounds: int) -> tuple[str, dict]:
    """One random lab as `.scn` text plus the facts the oracle checks.

    The lab keeps `alive` (e0) invariant: both allowed measurements have e0
    as an eigenvector and the unitary fixes it, so no allowed chain leaves
    the complement of `alive` and `dead -> alive` is genuinely forbidden.
    Violating candidates project onto a|alive> + b|w>, which breaks the
    invariance, so a depth-2 witness provably exists.  Safe candidates
    project onto a random plane inside the complement and cannot break it;
    their search runs to the depth bound over states that rarely repeat.
    """
    rng = np.random.default_rng([seed, index, d])
    e = np.eye(d, dtype=np.complex128)

    def coarse(sizes: tuple[int, ...], alive_alone: bool) -> list[np.ndarray]:
        q = _perp_basis(rng, d)
        cuts = np.cumsum((0,) + sizes)
        cols = [q[:, a:b] for a, b in zip(cuts[:-1], cuts[1:])]
        if alive_alone:
            cols.insert(0, e[:, :1])
        else:
            cols[0] = np.concatenate([e[:, :1], cols[0]], axis=1)
        return [c @ c.conj().T for c in cols]

    coarse_a = coarse(blocks_a, alive_alone=True)
    coarse_b = coarse(blocks_b, alive_alone=False)
    twist = np.zeros((d, d), dtype=np.complex128)
    twist[0, 0] = 1.0
    twist[1:, 1:] = _unitary(rng, d - 1)
    mix_basis = _unitary(rng, d)
    weights = 0.5 * rng.dirichlet(np.ones(d)) + 0.5 / d
    weights = [float(w) for w in weights[:-1]]
    weights.append(1.0 - math.fsum(weights))

    violating = []
    for i in range(n_violating):
        a2 = float(rng.uniform(0.1, 0.9))
        w = _perp_basis(rng, d)[:, 0]
        violating.append((f"viol{i}", math.sqrt(a2) * e[:, 0] + math.sqrt(1 - a2) * w))
    safe = []
    for i in range(n_safe):
        plane = _perp_basis(rng, d)[:, :2]
        safe.append((f"safe{i}", plane @ plane.conj().T))

    name = f"lab{index}-d{d}"
    labels = [f"e{i}" for i in range(d)]
    lines = [f"name: {name}", "space:", f"  labels: [{', '.join(labels)}]", "states:"]
    lines.append(f"  alive: {vec(e[:, 0])}")
    lines.append(f"  dead: {vec(e[:, 1])}")
    lines += [f"  r{j}: {vec(mix_basis[:, j])}" for j in range(d)]
    lines += [f"  c_{cname}: {vec(c)}" for cname, c in violating]
    lines += ["mixtures:", "  rho_mix:"]
    lines += [f"    - {{weight: {w!r}, state: r{j}}}" for j, w in enumerate(weights)]
    lines.append("measurements:")
    projector_sets = [(m, [(f"k{k}", p) for k, p in enumerate(projs)])
                      for m, projs in (("coarse_a", coarse_a), ("coarse_b", coarse_b))]
    projector_sets += [(cname, [("S", p)]) for cname, p in safe]
    for mname, outcomes in projector_sets:
        lines += [f"  {mname}:", "    projectors:"]
        for label, p in outcomes:
            lines.append(f"      {label}:")
            lines += mat_lines(p, "        ")
    for cname, _ in violating:
        lines += [f"  {cname}:", "    states:", f"      S: c_{cname}"]
    lines += ["unitaries:", "  twist:"]
    lines += mat_lines(twist, "    ")
    lines += [
        "forbidden:",
        "  - {from: dead, to: alive}",
        "lab:",
        "  measurements: [coarse_a, coarse_b]",
        "  unitaries: [twist]",
        "protocols:",
        "  probe:",
        "    - repeat:",
        f"        count: {rounds}",
        "        body:",
        "          - {measure: coarse_b}",
        "          - {unitary: twist}",
        "          - {measure: coarse_a}",
    ]
    facts = {
        "name": name,
        "depth": depth,
        "candidates": [[c, True] for c, _ in violating] + [[c, False] for c, _ in safe],
        "alive_outcome": "k0",  # coarse_a's first block is {alive}
    }
    return "\n".join(lines) + "\n", facts


def cat_grid_text() -> tuple[str, dict]:
    """The paper's cat lab with one declared candidate per grid point."""
    lines = [
        "name: cat-grid",
        "space:",
        "  name: cat",
        "  labels: [alive, dead]",
        "states:",
        "  alive: [1, 0]",
        "  dead: [0, 1]",
    ]
    for i, a2 in enumerate(CAT_GRID):
        lines.append(f"  c{i}: [{math.sqrt(a2)!r}, {math.sqrt(1 - a2)!r}]")
    lines += ["measurements:", "  basis:", "    states:", "      alive: alive", "      dead: dead"]
    for i in range(len(CAT_GRID)):
        lines += [f"  cand{i}:", "    states:", f"      S: c{i}"]
    lines += ["forbidden:", "  - {from: dead, to: alive}", "lab:", "  measurements: [basis]", "  unitaries: []"]
    facts = {"name": "cat-grid", "grid": [[f"cand{i}", a2] for i, a2 in enumerate(CAT_GRID)]}
    return "\n".join(lines) + "\n", facts


# ---------------------------------------------------------------------------
# cold CLI matrix


def cli_matrix(seed: int) -> list[dict]:
    """The fixed command matrix; sampled commands take seeds derived from
    the benchmark seed.  Each entry names the closed form its output must
    match."""
    s = [seed * 100 + i for i in range(6)]
    cmds = [
        ("check-cat", ["check", "--scenario", "cat", "--from", "dead", "--to", "alive", "plusminus:+"],
         2, {"kind": "witness", "p": 0.25}),
        ("check-stone-bread", ["check", "--scenario", "stone-bread", "--from", "stone", "--to", "bread", "mixbasis:+"],
         2, {"kind": "witness", "p": 0.25}),
        ("check-composite", ["check", "--scenario", "composite", "--from", "dd", "--to", "ua", "sch_plus"],
         2, {"kind": "witness", "p": 0.25}),
        ("run-exact-resurrect3", ["run", "--scenario", "resurrection", "--initial", "dead", "--exact", "resurrect3"],
         0, {"kind": "exact", "table": {"alive": 0.875, "dead": 0.125}}),
        ("run-exact-csv-rho", ["run", "--scenario", "resurrection", "--initial", "rho_cat", "--exact",
                               "--format", "csv", "resurrect3"],
         0, {"kind": "exact_csv", "table": {"alive": 0.875, "dead": 0.125}}),
        ("run-exact-photon", ["run", "--scenario", "photon", "--initial", "z0", "--exact", "through_rotated"],
         0, {"kind": "exact", "table": {"0": 0.5, "1": 0.5}}),
        ("run-sample-cat", ["run", "--scenario", "cat", "--initial", "cat_plus", "--trials", "20000",
                            "--seed", str(s[0]), "observe"],
         0, {"kind": "sample", "trials": 20000, "table": {"alive": 0.5, "dead": 0.5}}),
        ("run-sample-csv-composite", ["run", "--scenario", "composite", "--initial", "rho_s", "--trials", "20000",
                                      "--seed", str(s[1]), "--format", "csv", "collective_observe"],
         0, {"kind": "sample_csv", "trials": 20000,
             "table": {"undecayed⊗alive": 0.5, "decayed⊗dead": 0.5}}),
        ("disc-cat-pm", ["discriminate", "--scenario", "cat", "--trials", "100000", "--seed", str(s[2]),
                         "cat_plus", "rho_cat", "plusminus"],
         0, {"kind": "discriminate", "trials": 100000, "tv": 0.5,
             "a": {"+": 1.0, "-": 0.0}, "b": {"+": 0.5, "-": 0.5}}),
        ("disc-cat-basis-csv", ["discriminate", "--scenario", "cat", "--trials", "100000", "--seed", str(s[3]),
                                "--format", "csv", "cat_plus", "rho_cat", "basis"],
         0, {"kind": "discriminate_csv", "trials": 100000,
             "a": {"alive": 0.5, "dead": 0.5}, "b": {"alive": 0.5, "dead": 0.5}}),
        ("disc-photon-x", ["discriminate", "--scenario", "photon", "--trials", "100000", "--seed", str(s[4]),
                           "x_plus", "rho_ph", "xbasis"],
         0, {"kind": "discriminate", "trials": 100000, "tv": 0.5,
             "a": {"+": 1.0, "-": 0.0}, "b": {"+": 0.5, "-": 0.5}}),
        ("enumerate-resurrect1", ["enumerate", "--scenario", "resurrection", "--initial", "dead", "resurrect1"],
         0, {"kind": "tree", "alive": 0.5}),
    ]
    return [
        {"id": cid, "args": args, "exit": code, "expect": expect}
        for cid, args, code, expect in cmds
    ]


# ---------------------------------------------------------------------------
# manifest


def write_inputs(workload: str, seed: int, out: Path) -> dict:
    """Write the workload's generated inputs under `out`; return the manifest."""
    out.mkdir(parents=True, exist_ok=True)
    manifest: dict = {"workload": workload, "seed": seed}
    if workload == "cold-cli":
        manifest["commands"] = cli_matrix(seed)
    elif workload == "resurrection":
        path = out / "resurrection-sweep.scn"
        path.write_text(resurrection_text(), encoding="utf-8")
        manifest["scenarios"] = [str(path)]
        manifest["kmax"] = RESURRECT_KMAX
        manifest["initials"] = list(RESURRECT_INITIALS)
    elif workload == "random-labs":
        labs = []
        for index, shape in enumerate(LAB_SHAPES):
            text, facts = random_lab(seed, index, *shape)
            path = out / f"{facts['name']}.scn"
            path.write_text(text, encoding="utf-8")
            facts["path"] = str(path)
            labs.append(facts)
        text, facts = cat_grid_text()
        path = out / "cat-grid.scn"
        path.write_text(text, encoding="utf-8")
        facts["path"] = str(path)
        manifest["labs"] = labs
        manifest["cat_grid"] = facts
        manifest["scenarios"] = [lab["path"] for lab in labs] + [facts["path"]]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    (out / "manifest.json").write_text(json.dumps(manifest, indent=1), encoding="utf-8")
    return manifest
