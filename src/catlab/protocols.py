"""Protocol programs over a laboratory.

A protocol is a list of steps: apply a named measurement, apply a named
unitary, repeat a block, or stop the current branch when the last outcome
label matched.  A protocol's exact outcome distribution is propagated
forward over (state, last label) cells, and its outcome tree is built only
when read.  A seeded Monte Carlo histogram is drawn as trial counts over
the same cells, and two state-preparation sources can be compared through
one measurement.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping, Sequence, Union

import numpy as np

from .errors import CatlabError, DepthCeiling, DimensionMismatch, DisallowedOperation
from .lab import Laboratory
from .measure import COMPLEMENT_LABEL, ProjectiveMeasurement, outcome_distribution
from .qstate import State, StateVector, format_state, states_match
from .rng import RandomStream

MAX_UNROLLED_STEPS = 64
MAX_TRIALS = (1 << 63) - 1  # numpy draws counts as 64-bit integers
SPLIT_GRID = float(1 << 40)  # a split snaps probabilities to multiples of 1/SPLIT_GRID
CHI2_MIN_EXPECTED = 5.0


# ---------------------------------------------------------------------------
# protocol programs


class _Value:
    """A record that compares and hashes by its type and its slot fields."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash((self.__class__, self._fields()))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(map(repr, self._fields()))})"


class MeasureStep(_Value):
    __slots__ = ("measurement",)

    def __init__(self, measurement: str) -> None:
        self.measurement = measurement


class UnitaryStep(_Value):
    __slots__ = ("unitary",)

    def __init__(self, unitary: str) -> None:
        self.unitary = unitary


class StopIfStep(_Value):
    """Halt the branch when the last outcome label equals ``outcome``."""

    __slots__ = ("outcome",)

    def __init__(self, outcome: str) -> None:
        self.outcome = outcome


class RepeatStep(_Value):
    __slots__ = ("body", "count")

    def __init__(self, body: Iterable["Step"], count: int) -> None:
        body = tuple(body)
        if count < 0:
            raise CatlabError("repeat count must be >= 0")
        self.body: tuple[Step, ...] = body
        self.count = count


Step = Union[MeasureStep, UnitaryStep, StopIfStep, RepeatStep]


class ProtocolSpec(_Value):
    __slots__ = ("steps",)

    def __init__(self, steps: Iterable[Step]) -> None:
        self.steps: tuple[Step, ...] = tuple(steps)

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


class OutcomeNode:
    """One branch point of the exact outcome tree.

    ``operation``/``label`` describe the edge from the parent (both None at
    the root; ``label`` is None for unitary edges).  ``probability`` is the
    branch probability, ``cumulative`` the product along the path.
    ``sid`` is the id of the node's state in the tree's lab: the state
    is ``tree.lab.states[node.sid]``.
    """

    __slots__ = ("operation", "label", "probability", "cumulative", "sid", "children", "stopped")

    def __init__(
        self,
        operation: str | None,
        label: str | None,
        probability: float,
        cumulative: float,
        sid: int,
        children: list["OutcomeNode"] | None = None,
        stopped: bool = False,
    ) -> None:
        self.operation = operation
        self.label = label
        self.probability = probability
        self.cumulative = cumulative
        self.sid = sid
        self.children: list[OutcomeNode] = [] if children is None else children
        self.stopped = stopped

    @property
    def is_leaf(self) -> bool:
        return not self.children


class OutcomeTree:
    """The exact outcome distribution of a protocol from one initial state.

    The masses, counts and ``pruned_mass`` come from a forward propagation
    (see ``enumerate_protocol``).  The node tree itself is built, by a
    depth-first walk over the same ``lab`` rows, only when ``root`` or
    ``leaves()`` is first read.
    """

    def __init__(
        self,
        lab: Laboratory,
        steps: tuple[Step, ...],
        start: int,
        finals: list[tuple[int, int]],
        scale: int,
        pruned: int,
        nodes: int,
        leaves: int,
    ) -> None:
        self.lab = lab
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
        steps, lab = self._steps, self.lab
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
            for label, p, nid in lab.rows(name, node.sid):
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

    The unrolled protocol is stepped forward over the rows of ``lab``.
    The tree's nodes fall into cells, one per (state id, last outcome
    label), and each cell keeps its exact mass, its number of nodes and
    its first path (the row indices from the root of its first node in
    depth-first order).  A mass is an integer over a power of two: row
    probabilities are floats, hence dyadic, so products and sums over paths
    stay exact, and each reported mass is the correctly rounded value of
    the exact sum.  Live cells stay in order of their first path, so the
    first insertion into a cell is its first path, and final states come in
    first-leaf order.  Branches with probability below ``PRUNE_TOL`` are
    dropped; their mass is accounted in ``tree.pruned_mass``.  Each
    (operation, state id) pair's rows are converted to dyadic form once per
    run, however many cells and steps meet the pair.
    """
    if initial.space != lab.space:
        raise DimensionMismatch("initial state lives outside the laboratory space")
    steps = protocol.unrolled()
    _resolve_steps(steps, lab)
    start = lab.intern(initial)
    # (sid, last label) -> [mass * 2**scale, node count, first path]
    cells: dict[tuple[int, str | None], list] = {(start, None): [1, 1, ()]}
    scale = pruned = 0
    nodes, leaves = 1, 0  # the root is a node
    # (first path, sid, mass * 2**at, at) of every leaf cell
    ended: list[tuple[tuple[int, ...], int, int, int]] = []
    # (name, sid) -> its rows as (label, n, k, next id), p == n / 2**k
    dyadic: dict[tuple[str, int], list[tuple[str, int, int, int | None]]] = {}
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
        expanded = []
        for sid, _ in cells:
            rows = dyadic.get((name, sid))
            if rows is None:
                rows = dyadic[(name, sid)] = [
                    (label, *_dyadic(p), nid) for label, p, nid in lab.rows(name, sid)
                ]
            expanded.append(rows)
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
        lab, steps, start, list(finals.items()), scale, pruned, nodes, leaves
    )


def leaf_mass(tree: OutcomeTree, target: StateVector) -> float:
    """Total probability of leaves whose state matches ``target``: the
    correctly rounded value of the exact sum."""
    states = tree.lab.states
    num = sum(n for sid, n in tree._finals if states_match(states[sid], target))
    return num / (1 << tree._scale)


def aggregate_leaves(tree: OutcomeTree) -> list[tuple[State, float]]:
    """Leaf masses merged by interned final state, in first-leaf order; each
    mass is the correctly rounded value of its exact sum."""
    den = 1 << tree._scale
    return [(tree.lab.states[sid], n / den) for sid, n in tree._finals]


def tree_to_json(tree: OutcomeTree) -> dict:
    def node_doc(node: OutcomeNode) -> dict:
        return {
            "operation": node.operation,
            "label": node.label,
            "probability": node.probability,
            "cumulative": node.cumulative,
            "state": format_state(tree.lab.states[node.sid]),
            "stopped": node.stopped,
            "children": [node_doc(c) for c in node.children],
        }

    return {"pruned_mass": tree.pruned_mass, "root": node_doc(tree.root)}


# ---------------------------------------------------------------------------
# Monte Carlo


class MonteCarloResult:
    """Histogram of final states over ``n`` seeded trials."""

    def __init__(self, n: int, seed: int, bins: dict[tuple, tuple[State, int]]) -> None:
        self.n = n
        self.seed = seed
        self.bins = bins

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
    """Draw the histogram of ``n`` independent seeded trials of a protocol.

    The histogram is drawn as counts, not trial by trial.  Trial counts sit
    in cells, one per (state id in ``lab``, last outcome label), like the
    masses of ``enumerate_protocol``, starting with all ``n`` in the
    initial state's cell.  A step splits each cell's count over the kept
    rows of its state by one multinomial draw from stream ``(seed, 0)``; a
    cell with one kept row, such as every unitary row, passes its whole
    count on, which draws nothing from the stream.  The draw's
    probabilities are ``_weights`` of the kept rows, computed once per
    (operation, state id) pair in a run, so a cell that meets a pair again
    only draws.  They renormalise over the kept rows, so a split differs
    from the exact distribution by less than ``PRUNE_TOL`` per pruned row,
    the mass ``enumerate_protocol`` reports as pruned.  A unitary
    row's empty label keeps the last outcome, and a ``stop_if`` step moves
    the cells whose last label matches to the final states.  Cells are
    split in order of first arrival, not in id order, so the bins depend
    on the protocol, the initial state, the seed and ``n``, and not on what
    the lab's table held before, unless a row probability lies within its
    last bits of a rounding boundary of the grid.  The cost grows with
    steps times cells, not with ``n``.  Bins hold the lab's state objects.
    """
    if n < 0:
        raise CatlabError("trial count must be >= 0")
    if n > MAX_TRIALS:
        raise CatlabError(f"trial count must be <= {MAX_TRIALS}")
    if initial.space != lab.space:
        raise DimensionMismatch("initial state lives outside the laboratory space")
    steps = protocol.unrolled()
    _resolve_steps(steps, lab)
    stream = RandomStream(seed)
    # (sid, last label) -> trial count, in order of first arrival
    cells: dict[tuple[int, str | None], int] = {}
    if n:
        cells[(lab.intern(initial), None)] = n
    finals: dict[int, int] = {}
    # (name, sid) -> (kept rows, their weights, or None for a single row)
    prepared: dict[tuple[str, int], tuple[list, np.ndarray | None]] = {}
    for step in steps:
        if isinstance(step, StopIfStep):
            for key in [key for key in cells if key[1] == step.outcome]:
                finals[key[0]] = finals.get(key[0], 0) + cells.pop(key)
            continue
        name = step.measurement if isinstance(step, MeasureStep) else step.unitary
        nxt: dict[tuple[int, str | None], int] = {}
        for (sid, last), count in cells.items():
            hit = prepared.get((name, sid))
            if hit is None:
                kept = [row for row in lab.rows(name, sid) if row[2] is not None]
                if not kept:
                    raise CatlabError("ran out of probability mass mid-trial")
                weights = None if len(kept) == 1 else _weights([p for _, p, _ in kept])
                hit = prepared[(name, sid)] = (kept, weights)
            kept, weights = hit
            counts = [count] if weights is None else stream.multinomial(count, weights).tolist()
            for (label, _, nid), c in zip(kept, counts):
                if c:
                    key = (nid, label or last)
                    nxt[key] = nxt.get(key, 0) + c
        cells = nxt
    for (sid, _), count in cells.items():
        finals[sid] = finals.get(sid, 0) + count
    return MonteCarloResult(
        n, seed, {lab.keys[s]: (lab.states[s], c) for s, c in finals.items()}
    )


def _weights(probs: Sequence[float]) -> np.ndarray:
    """The multinomial probabilities that sampling draws for outcomes of
    probabilities ``probs``.  Each probability is snapped to an integer
    weight over ``SPLIT_GRID`` and the weights are renormalised, so that
    two representatives of one key, whose probabilities may differ in the
    last bits, draw alike.  A probability of at least ``PRUNE_TOL`` (about
    1.1 / SPLIT_GRID) keeps a weight of at least 1; below about
    0.5 / SPLIT_GRID it gets weight 0 and draws no trial."""
    w = np.rint(np.multiply(probs, SPLIT_GRID))
    return w / w.sum()


# ---------------------------------------------------------------------------
# discrimination


class DiscriminationReport:
    """Exact and sampled comparison of two sources through one measurement.

    ``p_value`` is a chi-square test of source B's sampled counts against
    source A's exact distribution; small values mean the two sources are
    statistically distinguishable by this measurement.
    """

    def __init__(
        self,
        measurement: str,
        labels: tuple[str, ...],
        dist_a: Mapping[str, float],
        dist_b: Mapping[str, float],
        total_variation: float,
        n_trials: int,
        seed: int,
        freq_a: Mapping[str, float],
        freq_b: Mapping[str, float],
        chi_square: float,
        chi_square_df: int,
        p_value: float,
    ) -> None:
        self.measurement = measurement
        self.labels = labels
        self.dist_a = dist_a
        self.dist_b = dist_b
        self.total_variation = total_variation
        self.n_trials = n_trials
        self.seed = seed
        self.freq_a = freq_a
        self.freq_b = freq_b
        self.chi_square = chi_square
        self.chi_square_df = chi_square_df
        self.p_value = p_value

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
    """Total variation distance between two label distributions, summed in
    label order so that the result does not depend on string hashing."""
    labels = dict.fromkeys([*dist_a, *dist_b])
    return 0.5 * sum(abs(dist_a.get(l, 0.0) - dist_b.get(l, 0.0)) for l in labels)


def exact_distribution(m: ProjectiveMeasurement, x: State) -> dict[str, float]:
    return {rec.label: rec.probability for rec in outcome_distribution(m, x)}


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
    for label, p in expected.items():
        e = n * p
        target = label if e >= CHI2_MIN_EXPECTED else COMPLEMENT_LABEL
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
    if df <= 0:  # one bin holds every count: any statistic is rounding
        return stat, max(df, 0), 1.0
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

    Exact Born distributions give the total variation distance; one
    multinomial draw of ``n`` trials per source over its ``_weights``, on
    streams 0 and 1 under ``seed``, gives the empirical frequencies and the
    chi-square p-value of B against A.
    """
    if n < 1:
        raise CatlabError("discrimination needs at least one trial")
    if n > MAX_TRIALS:
        raise CatlabError(f"trial count must be <= {MAX_TRIALS}")
    dist_a = exact_distribution(m, source_a)
    dist_b = exact_distribution(m, source_b)
    labels = m.labels
    tv = total_variation(dist_a, dist_b)

    def sample(dist: Mapping[str, float], stream: int) -> dict[str, int]:
        weights = _weights([dist[l] for l in labels])
        return dict(zip(labels, RandomStream(seed, stream).multinomial(n, weights).tolist()))

    counts_a, counts_b = sample(dist_a, 0), sample(dist_b, 1)
    freq_a = {l: c / n for l, c in counts_a.items()}
    freq_b = {l: c / n for l, c in counts_b.items()}
    stat, df, p = chi_square_test(counts_b, dist_a, n)
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
