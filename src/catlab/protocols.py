"""Protocol programs over a laboratory.

A protocol is a list of steps: apply a named measurement, apply a named
unitary, repeat a block, or stop the current branch when the last outcome
label matched.  A protocol's exact outcome distribution is propagated
forward over (state, last label) cells, and its outcome tree is built only
when read.  Protocols also run as seeded Monte Carlo trials, and two
state-preparation sources can be compared through one measurement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Mapping, Sequence, Union

import numpy as np

from .errors import CatlabError, DepthCeiling, DimensionMismatch, DisallowedOperation
from .lab import Laboratory, Transitions
from .measure import ProjectiveMeasurement, outcome_distribution
from .qstate import State, StateVector, format_state, states_match
from .rng import RandomStream

MAX_UNROLLED_STEPS = 64
TRIALS_PER_BLOCK = 4096  # fixed partition unit; stream id = block index
CHI2_MIN_EXPECTED = 5.0


# ---------------------------------------------------------------------------
# protocol programs


@dataclass(frozen=True)
class MeasureStep:
    measurement: str


@dataclass(frozen=True)
class UnitaryStep:
    unitary: str


@dataclass(frozen=True)
class StopIfStep:
    """Halt the branch when the last outcome label equals ``outcome``."""

    outcome: str


@dataclass(frozen=True)
class RepeatStep:
    body: tuple["Step", ...]
    count: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "body", tuple(self.body))
        if self.count < 0:
            raise CatlabError("repeat count must be >= 0")


Step = Union[MeasureStep, UnitaryStep, StopIfStep, RepeatStep]


@dataclass(frozen=True)
class ProtocolSpec:
    steps: tuple[Step, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "steps", tuple(self.steps))

    def unrolled(self) -> tuple[Step, ...]:
        """Flatten repeats; raises ``DepthCeiling`` past MAX_UNROLLED_STEPS."""
        out: list[Step] = []
        _unroll(self.steps, out)
        return tuple(out)


def _unroll(steps: Sequence[Step], out: list[Step]) -> None:
    for step in steps:
        if isinstance(step, RepeatStep):
            # Unroll the body once and copy it, so the count costs nothing
            # when the body is empty; copies past the ceiling would only be
            # rejected by the check below.
            body: list[Step] = []
            if step.count:
                _unroll(step.body, body)
            out.extend(body * min(step.count, MAX_UNROLLED_STEPS + 1))
        elif isinstance(step, (MeasureStep, UnitaryStep, StopIfStep)):
            out.append(step)
        else:
            raise CatlabError(f"unknown protocol step {step!r}")
        if len(out) > MAX_UNROLLED_STEPS:
            raise DepthCeiling(
                f"protocol unrolls past {MAX_UNROLLED_STEPS} steps"
            )


def _resolve_steps(steps: Sequence[Step], lab: Laboratory) -> None:
    for step in steps:
        if isinstance(step, MeasureStep) and step.measurement not in lab.measurements:
            raise DisallowedOperation(
                f"measurement {step.measurement!r} is not allowed in this laboratory"
            )
        if isinstance(step, UnitaryStep) and step.unitary not in lab.unitaries:
            raise DisallowedOperation(
                f"unitary {step.unitary!r} is not allowed in this laboratory"
            )


# ---------------------------------------------------------------------------
# exact enumeration


@dataclass(slots=True)
class OutcomeNode:
    """One branch point of the exact outcome tree.

    ``operation``/``label`` describe the edge from the parent (both None at
    the root; ``label`` is None for unitary edges).  ``probability`` is the
    branch probability, ``cumulative`` the product along the path.
    ``sid`` is the id of the node's state in the tree's table: the state
    is ``tree.table.states[node.sid]``.
    """

    operation: str | None
    label: str | None
    probability: float
    cumulative: float
    sid: int
    children: list["OutcomeNode"] = field(default_factory=list)
    stopped: bool = False

    @property
    def is_leaf(self) -> bool:
        return not self.children


class OutcomeTree:
    """The exact outcome distribution of a protocol from one initial state.

    The masses, counts and ``pruned_mass`` come from a forward propagation
    (see ``enumerate_protocol``).  The node tree itself is built, by a
    depth-first walk over the same ``table``, only when ``root`` or
    ``leaves()`` is first read.
    """

    def __init__(
        self,
        table: Transitions,
        steps: tuple[Step, ...],
        start: int,
        finals: list[tuple[int, int]],
        scale: int,
        pruned: int,
        nodes: int,
        leaves: int,
    ) -> None:
        self.table = table
        # (sid, exact leaf mass times 2**scale), in first-leaf order
        self._finals = finals
        self._scale = scale
        self.pruned_mass = pruned / (1 << scale)
        self._steps = steps
        self._start = start
        self._nodes = nodes
        self._leaves = leaves
        self._root: OutcomeNode | None = None

    @property
    def root(self) -> OutcomeNode:
        if self._root is None:
            self._root = self._build()
        return self._root

    def _build(self) -> OutcomeNode:
        steps, table = self._steps, self.table
        root = OutcomeNode(None, None, 1.0, 1.0, self._start)
        # (node, step index, last outcome label)
        stack = [(root, 0, None)]
        while stack:
            node, i, last = stack.pop()
            if i >= len(steps):
                continue
            step = steps[i]
            if isinstance(step, StopIfStep):
                if last is not None and last == step.outcome:
                    node.stopped = True
                else:
                    stack.append((node, i + 1, last))
                continue
            name = step.measurement if isinstance(step, MeasureStep) else step.unitary
            cum = node.cumulative
            for label, p, nid in table.rows(name, node.sid):
                if nid is None:
                    continue
                # a unitary row's empty label: the edge has no label and the
                # last outcome stays the one before
                child = OutcomeNode(name, label or None, p, cum * p, nid)
                node.children.append(child)
                stack.append((child, i + 1, label or last))
        return root

    def leaves(self) -> list[OutcomeNode]:
        out: list[OutcomeNode] = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                out.append(node)
            else:
                stack.extend(reversed(node.children))
        return out

    def n_nodes(self) -> int:
        return self._nodes

    def n_leaves(self) -> int:
        return self._leaves


def _dyadic(p: float) -> tuple[int, int]:
    """``(n, k)`` with ``p == n / 2**k``: every finite float is dyadic."""
    n, d = p.as_integer_ratio()
    return n, d.bit_length() - 1


def enumerate_protocol(
    protocol: ProtocolSpec, lab: Laboratory, initial: State
) -> OutcomeTree:
    """Exact outcome distribution of a protocol from an initial state.

    The unrolled protocol is stepped forward over ``lab.transitions``.
    The tree's nodes fall into cells, one per (state id, last outcome
    label), and each cell keeps its exact mass, its number of nodes and
    its first path (the row indices from the root of its first node in
    depth-first order).  A mass is an integer over a power of two: row
    probabilities are floats, hence dyadic, so products and sums over paths
    stay exact, and each reported mass is the correctly rounded value of
    the exact sum.  Live cells stay in order of their first path, so the
    first insertion into a cell is its first path, and final states come in
    first-leaf order.  Branches with probability below ``PRUNE_TOL`` are
    dropped; their mass is accounted in ``tree.pruned_mass``.
    """
    if initial.space != lab.space:
        raise DimensionMismatch("initial state lives outside the laboratory space")
    steps = protocol.unrolled()
    _resolve_steps(steps, lab)
    table = lab.transitions
    start = table.intern(initial)
    # (sid, last label) -> [mass * 2**scale, node count, first path]
    cells: dict[tuple[int, str | None], list] = {(start, None): [1, 1, ()]}
    scale = pruned = 0
    nodes, leaves = 1, 0  # the root is a node
    # (first path, sid, mass * 2**at, at) of every leaf cell
    ended: list[tuple[tuple[int, ...], int, int, int]] = []
    for step in steps:
        if isinstance(step, StopIfStep):
            kept = {}
            for key, cell in cells.items():
                if key[1] is not None and key[1] == step.outcome:
                    ended.append((cell[2], key[0], cell[0], scale))
                    leaves += cell[1]
                else:
                    kept[key] = cell
            cells = kept
            continue
        name = step.measurement if isinstance(step, MeasureStep) else step.unitary
        expanded = [
            [(label, *_dyadic(p), nid) for label, p, nid in table.rows(name, sid)]
            for sid, _ in cells
        ]
        # one denominator per step: the largest one among its rows
        shift = max((k for rows in expanded for _, _, k, _ in rows), default=0)
        pruned <<= shift
        nxt: dict[tuple[int, str | None], list] = {}
        for ((sid, last), (num, count, path)), rows in zip(cells.items(), expanded):
            branched = False
            for r, (label, n, k, nid) in enumerate(rows):
                mass = num * n << (shift - k)
                if nid is None:
                    pruned += mass
                    continue
                branched = True
                nodes += count
                # a unitary row's empty label keeps the last outcome
                cell = nxt.get((nid, label or last))
                if cell is None:
                    nxt[(nid, label or last)] = [mass, count, path + (r,)]
                else:
                    cell[0] += mass
                    cell[1] += count
            if not branched:
                ended.append((path, sid, num, scale))
                leaves += count
        scale += shift
        cells = nxt
    for (sid, _), (num, count, path) in cells.items():
        ended.append((path, sid, num, scale))
        leaves += count
    # first paths are distinct, so sorting orders leaves depth-first
    finals: dict[int, int] = {}
    for _, sid, num, at in sorted(ended):
        finals[sid] = finals.get(sid, 0) + (num << (scale - at))
    return OutcomeTree(
        table, steps, start, list(finals.items()), scale, pruned, nodes, leaves
    )


def leaf_mass(tree: OutcomeTree, target: StateVector) -> float:
    """Total probability of leaves whose state matches ``target``: the
    correctly rounded value of the exact sum."""
    states = tree.table.states
    num = sum(n for sid, n in tree._finals if states_match(states[sid], target))
    return num / (1 << tree._scale)


def aggregate_leaves(tree: OutcomeTree) -> list[tuple[State, float]]:
    """Leaf masses merged by interned final state, in first-leaf order; each
    mass is the correctly rounded value of its exact sum."""
    den = 1 << tree._scale
    return [(tree.table.states[sid], n / den) for sid, n in tree._finals]


def tree_to_json(tree: OutcomeTree) -> dict:
    def node_doc(node: OutcomeNode) -> dict:
        return {
            "operation": node.operation,
            "label": node.label,
            "probability": node.probability,
            "cumulative": node.cumulative,
            "state": format_state(tree.table.states[node.sid]),
            "stopped": node.stopped,
            "children": [node_doc(c) for c in node.children],
        }

    return {"pruned_mass": tree.pruned_mass, "root": node_doc(tree.root)}


# ---------------------------------------------------------------------------
# Monte Carlo


@dataclass
class MonteCarloResult:
    """Histogram of final states over ``n`` seeded trials."""

    n: int
    seed: int
    bins: dict[tuple, tuple[State, int]]

    def rows(self) -> list[tuple[State, int, float]]:
        """(state, count, frequency) sorted by dedup key for stable output."""
        out = []
        for k in sorted(self.bins):
            st, c = self.bins[k]
            out.append((st, c, c / self.n if self.n else 0.0))
        return out

    def frequency(self, target: StateVector) -> float:
        total = sum(c for st, c in self.bins.values() if states_match(st, target))
        return total / self.n if self.n else 0.0


def run_monte_carlo(
    protocol: ProtocolSpec,
    lab: Laboratory,
    initial: State,
    n: int,
    seed: int,
) -> MonteCarloResult:
    """Run ``n`` independent seeded trials of a protocol.

    Trials are partitioned into fixed blocks of ``TRIALS_PER_BLOCK``; block
    ``j`` draws from stream ``(seed, j)``, one row of ``stride`` uniforms
    per trial, and column ``c`` of that row feeds the trial's ``c``-th
    measurement, so the histogram depends only on the seed and ``n``.  A
    block advances one protocol step at a time over the ids of its live
    trials in ``lab.transitions``, so bins hold the state objects of exact
    runs; a trial leaves the live set when a ``stop_if`` step matches its
    last outcome.
    """
    if n < 0:
        raise CatlabError("trial count must be >= 0")
    if initial.space != lab.space:
        raise DimensionMismatch("initial state lives outside the laboratory space")
    steps = protocol.unrolled()
    _resolve_steps(steps, lab)
    table = lab.transitions
    start = table.intern(initial)

    # Outcome labels as small ints; -1 means no measurement yet.  A stop_if
    # label that no row carries gets an id too, and simply never matches.
    label_ids: dict[str, int] = {}
    # (measurement, id) -> (next ids, cumulative probs, label ids) of the
    # kept rows, padded to one entry per outcome: +inf after the last
    # cumulative probability and copies of the last kept row, so that a
    # draw past the last cumulative probability clamps to the last kept row.
    samplers: dict[tuple[str, int], tuple[list[int], list[float], list[int]]] = {}

    def sampler(name: str, sid: int):
        tab = samplers.get((name, sid))
        if tab is None:
            rows = table.rows(name, sid)
            kept = [row for row in rows if row[2] is not None]
            if not kept:
                raise CatlabError("ran out of probability mass mid-trial")
            pad = len(rows) - len(kept)
            nids = [nid for _, _, nid in kept]
            labels = [label_ids.setdefault(label, len(label_ids)) for label, _, _ in kept]
            tab = (
                nids + nids[-1:] * pad,
                list(accumulate(p for _, p, _ in kept)) + [math.inf] * pad,
                labels + labels[-1:] * pad,
            )
            samplers[(name, sid)] = tab
        return tab

    # The protocol is straight-line, so every live trial is at the same
    # step and has used the same number of draws: a measure step's column.
    plan: list[tuple[type, str | int, int]] = []
    stride = 0
    for step in steps:
        if isinstance(step, MeasureStep):
            plan.append((MeasureStep, step.measurement, stride))
            stride += 1
        elif isinstance(step, UnitaryStep):
            plan.append((UnitaryStep, step.unitary, 0))
        else:
            plan.append((StopIfStep, label_ids.setdefault(step.outcome, len(label_ids)), 0))
    stride = max(stride, 1)

    bins: dict[int, int] = {}
    for block_index, done in enumerate(range(0, n, TRIALS_PER_BLOCK)):
        block_n = min(TRIALS_PER_BLOCK, n - done)
        u = RandomStream(seed, block_index).uniforms(block_n * stride)
        u = u.reshape(block_n, stride)
        live = np.arange(block_n)
        sid = np.full(block_n, start)
        last = np.full(block_n, -1)
        finals = []
        for kind, arg, col in plan:
            if kind is StopIfStep:
                hit = last == arg
                if hit.any():
                    finals.append(sid[hit])
                    keep = ~hit
                    live, sid, last = live[keep], sid[keep], last[keep]
                    if not live.size:
                        break
                continue
            # the distinct live ids in ascending order, and each trial's
            # index among them; ids are dense, so counting replaces the sort
            # of np.unique, which maps numpy's sort kernels (about 0.6 MB)
            present = np.bincount(sid) > 0
            ids = np.flatnonzero(present)
            inv = (np.cumsum(present) - 1)[sid]
            if kind is UnitaryStep:
                nxt = np.array([table.rows(arg, s)[0][2] for s in ids.tolist()])
                sid = nxt[inv]
                continue
            nxt, cum, lab_id = map(np.array, zip(*(sampler(arg, s) for s in ids.tolist())))
            # bisect_right: the number of cumulative probabilities <= u,
            # counted one column at a time (a row-wise sum is far slower)
            x = u[live, col]
            idx = np.zeros(live.size, dtype=np.intp)
            for c in range(cum.shape[1]):
                idx += cum[:, c][inv] <= x
            idx = np.minimum(idx, cum.shape[1] - 1)
            sid = nxt[inv, idx]
            last = lab_id[inv, idx]
        finals.append(sid)
        del u  # free this block's draws before the next block draws its own
        counts = np.bincount(np.concatenate(finals))
        for s in np.flatnonzero(counts).tolist():
            bins[s] = bins.get(s, 0) + int(counts[s])
    return MonteCarloResult(
        n, seed, {table.keys[s]: (table.states[s], c) for s, c in bins.items()}
    )


# ---------------------------------------------------------------------------
# discrimination


@dataclass(frozen=True)
class DiscriminationReport:
    """Exact and sampled comparison of two sources through one measurement.

    ``p_value`` is a chi-square test of source B's sampled counts against
    source A's exact distribution; small values mean the two sources are
    statistically distinguishable by this measurement.
    """

    measurement: str
    labels: tuple[str, ...]
    dist_a: Mapping[str, float]
    dist_b: Mapping[str, float]
    total_variation: float
    n_trials: int
    seed: int
    freq_a: Mapping[str, float]
    freq_b: Mapping[str, float]
    chi_square: float
    chi_square_df: int
    p_value: float

    def to_json(self) -> dict:
        return {
            "measurement": self.measurement,
            "total_variation": self.total_variation,
            "n_trials": self.n_trials,
            "seed": self.seed,
            "outcomes": [
                {
                    "label": lab,
                    "exact_a": self.dist_a[lab],
                    "exact_b": self.dist_b[lab],
                    "freq_a": self.freq_a[lab],
                    "freq_b": self.freq_b[lab],
                }
                for lab in self.labels
            ],
            "chi_square": {
                "statistic": self.chi_square,
                "df": self.chi_square_df,
                "p_value": self.p_value,
            },
        }

    def to_csv_rows(self) -> list[list]:
        rows = [["source", "label", "exact_p", "empirical_freq", "n"]]
        for src, dist, freq in (("A", self.dist_a, self.freq_a), ("B", self.dist_b, self.freq_b)):
            for lab in self.labels:
                rows.append([src, lab, repr(dist[lab]), repr(freq[lab]), self.n_trials])
        return rows


def total_variation(dist_a: Mapping[str, float], dist_b: Mapping[str, float]) -> float:
    """Total variation distance between two label distributions."""
    labels = set(dist_a) | set(dist_b)
    return 0.5 * sum(abs(dist_a.get(l, 0.0) - dist_b.get(l, 0.0)) for l in labels)


def exact_distribution(m: ProjectiveMeasurement, x: State) -> dict[str, float]:
    return {rec.label: rec.probability for rec in outcome_distribution(m, x)}


def _sample_counts(
    probs: Sequence[float], n: int, stream: RandomStream
) -> np.ndarray:
    cum = np.cumsum(np.asarray(probs, dtype=np.float64))
    u = stream.uniforms(n)
    idx = np.searchsorted(cum, u, side="right")
    idx = np.minimum(idx, len(cum) - 1)
    return np.bincount(idx, minlength=len(cum))


def _chi2_sf(x: float, df: int) -> float:
    """Upper tail P(X > x) of a chi-square variable with integer ``df`` >= 1.

    Finite series, Abramowitz & Stegun 26.4.4-26.4.5 with h = x/2: even
    df sums e^-h h^i / i! for i < df/2; odd df is erfc(sqrt h) plus
    e^-h h^(r-1/2) / Gamma(r+1/2) for r = 1..(df-1)/2.
    """
    h = x / 2.0
    if df % 2:
        total = math.erfc(math.sqrt(h))
        term = 2.0 * math.exp(-h) * math.sqrt(h / math.pi)  # r = 1: Gamma(3/2) = sqrt(pi)/2
        first = 1.5
    else:
        total = 0.0
        term = math.exp(-h)
        first = 1.0
    for i in range(df // 2):
        total += term
        term *= h / (first + i)
    return total


def chi_square_test(
    counts: Mapping[str, int], expected: Mapping[str, float], n: int
) -> tuple[float, int, float]:
    """Pearson chi-square of observed counts against expected probabilities.

    Labels whose expected count falls below ``CHI2_MIN_EXPECTED`` are merged
    into one catch-all bin (labelled like the measurement complement).
    Returns (statistic, degrees of freedom, p-value).
    """
    exp: dict[str, float] = {}
    obs: dict[str, int] = {}
    catch = "⊥"
    for label, p in expected.items():
        e = n * p
        target = label if e >= CHI2_MIN_EXPECTED else catch
        exp[target] = exp.get(target, 0.0) + e
        obs[target] = obs.get(target, 0) + int(counts.get(label, 0))
    stat = 0.0
    df = -1
    for label, e in exp.items():
        o = obs.get(label, 0)
        if e <= 0.0:
            if o > 0:
                return math.inf, max(df, 0), 0.0
            continue  # empty bin carries no information
        stat += (o - e) ** 2 / e
        df += 1
    if df <= 0:
        return stat, max(df, 0), 1.0 if stat == 0.0 else 0.0
    return stat, df, _chi2_sf(stat, df)


def discriminate(
    source_a: State,
    source_b: State,
    m: ProjectiveMeasurement,
    n: int,
    seed: int,
    *,
    name: str = "measurement",
) -> DiscriminationReport:
    """Compare two sources through one measurement, exactly and by sampling.

    Exact Born distributions give the total variation distance; ``n``
    seeded draws per source (streams 0 and 1 under ``seed``) give the
    empirical frequencies and the chi-square p-value of B against A.
    """
    if n < 1:
        raise CatlabError("discrimination needs at least one trial")
    dist_a = exact_distribution(m, source_a)
    dist_b = exact_distribution(m, source_b)
    labels = m.labels
    tv = total_variation(dist_a, dist_b)
    pa = [dist_a[l] for l in labels]
    pb = [dist_b[l] for l in labels]
    counts_a = _sample_counts(pa, n, RandomStream(seed, 0))
    counts_b = _sample_counts(pb, n, RandomStream(seed, 1))
    freq_a = {l: int(counts_a[i]) / n for i, l in enumerate(labels)}
    freq_b = {l: int(counts_b[i]) / n for i, l in enumerate(labels)}
    stat, df, p = chi_square_test(
        {l: int(counts_b[i]) for i, l in enumerate(labels)}, dist_a, n
    )
    return DiscriminationReport(
        measurement=name,
        labels=labels,
        dist_a=dist_a,
        dist_b=dist_b,
        total_variation=tv,
        n_trials=n,
        seed=seed,
        freq_a=freq_a,
        freq_b=freq_b,
        chi_square=stat,
        chi_square_df=df,
        p_value=p,
    )
