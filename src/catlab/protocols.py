"""Protocol programs over a laboratory.

A protocol is a list of steps: apply a named measurement, apply a named
unitary, repeat a block, or stop the current branch when the last outcome
label matched.  A protocol is resolved once per laboratory into a program
of (operation name, stop labels) pairs, which every walker reads.  The exact
outcome distribution is propagated forward over (state, last label) cells,
and the outcome tree is walked, not kept, when read.  A seeded Monte Carlo
histogram is drawn as trial counts over the same cells, and two
state-preparation sources can be compared through one measurement.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence, Union

from .errors import CatlabError, DepthCeiling, DimensionMismatch, DisallowedOperation
from .lab import Laboratory, _weights, born_rows
from .measure import COMPLEMENT_LABEL, ProjectiveMeasurement
from .qstate import HilbertSpace, State, StateVector, format_state, states_match
from .rng import draw_weights, give_back, take_stream

MAX_UNROLLED_STEPS = 64
MAX_TRIALS = (1 << 63) - 1  # numpy draws counts as 64-bit integers
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


def _resolved(
    protocol: ProtocolSpec, lab: Laboratory
) -> tuple[tuple[str, tuple[str, ...]], ...]:
    """The unrolled protocol as (operation name, stop labels) pairs, resolved
    once per protocol object in the lab's lifetime: each ``stop_if`` adds its
    label to the operation before it, and one before the first operation,
    which nothing can match, is dropped.  ``lab._programs`` is keyed by the
    object's id and holds the object, so the id stays its own while the
    entry lives and a hit hashes no step.  A rejected protocol is not
    stored, so every run of it raises."""
    hit = lab._programs.get(id(protocol))
    if hit is None:
        program: list[tuple[str, tuple[str, ...]]] = []
        for step in protocol.unrolled():
            if isinstance(step, StopIfStep):
                if program:
                    program[-1] = (program[-1][0], program[-1][1] + (step.outcome,))
                continue
            if isinstance(step, MeasureStep):
                kind, name, allowed = "measurement", step.measurement, lab.measurements
            else:
                kind, name, allowed = "unitary", step.unitary, lab.unitaries
            if name not in allowed:
                raise DisallowedOperation(f"{kind} {name!r} is not allowed in this laboratory")
            program.append((name, ()))
        hit = lab._programs[id(protocol)] = (protocol, tuple(program))
    return hit[1]


# ---------------------------------------------------------------------------
# exact enumeration


class OutcomeNode(NamedTuple):
    """One leaf of the exact outcome tree, as ``OutcomeTree.leaves()`` lists it.

    ``operation``/``label`` describe the edge from the parent (both None at
    the root; ``label`` is None for unitary edges).  ``probability`` is the
    branch probability, ``cumulative`` the product along the path.
    ``sid`` is the id of the leaf's state in the lab that the tree was
    enumerated over: the state is ``lab.states[leaf.sid]``.
    """

    operation: str | None
    label: str | None
    probability: float
    cumulative: float
    sid: int
    stopped: bool = False


class OutcomeTree:
    """The exact outcome distribution of a protocol from one initial state.

    The masses, counts and ``pruned_mass`` come from a forward propagation
    (see ``enumerate_protocol``).  No node is kept: ``leaves()`` and
    ``tree_to_json`` read the nodes from ``_walk``, a depth-first walk of
    the same program over the same ``lab`` rows.
    """

    def __init__(
        self,
        lab: Laboratory,
        program: tuple[tuple[str, tuple[str, ...]], ...],
        start: int,
        finals: list[tuple[int, int]],
        scale: int,
        pruned: int,
        nodes: int,
        leaves: int,
    ) -> None:
        self._lab = lab
        # (sid, exact leaf mass times 2**scale), in first-leaf order
        self._finals = finals
        self._scale = scale
        self._pruned = pruned  # exact pruned mass times 2**scale
        self.pruned_mass = pruned / (1 << scale)
        self._program = program
        self._start = start
        self._nodes = nodes
        self._leaves = leaves

    def _walk(self) -> Iterator[tuple]:
        """Yield each node once, depth first with children in row order, as
        ``(depth, is leaf, operation, label, probability, cumulative, sid,
        stopped)``.  A node at depth i branches over the kept rows of the
        program's i-th operation, unless a ``stop_if`` halted it."""
        program, rows = self._program, self._lab.rows
        # a node as _walk yields it, less the leaf flag, then its last outcome label
        stack = [(0, None, None, 1.0, 1.0, self._start, False, None)]
        while stack:
            depth, operation, label, p, cum, sid, stopped, last = stack.pop()
            kids = []
            if not stopped and depth < len(program):
                name, stops = program[depth]
                for edge, q, nid in rows(name, sid):
                    if nid is None:
                        continue
                    now = edge or last  # a unitary row's empty label keeps the last outcome
                    kids.append((depth + 1, name, edge or None, q, cum * q, nid, now in stops, now))
            yield depth, not kids, operation, label, p, cum, sid, stopped
            stack += reversed(kids)

    def leaves(self) -> list[OutcomeNode]:
        return [OutcomeNode(*node) for _, leaf, *node in self._walk() if leaf]

    def n_nodes(self) -> int:
        return self._nodes

    def n_leaves(self) -> int:
        return self._leaves


# the last label of an ended cell: its nodes are leaves, which no step expands
_ENDED = object()


def enumerate_protocol(
    protocol: ProtocolSpec, lab: Laboratory, initial: State
) -> OutcomeTree:
    """Exact outcome distribution of a protocol from an initial state.

    The protocol's program, which ``lab`` keeps once resolved, is stepped
    forward over the rows of ``lab``.
    The tree's nodes fall into cells, one per (state id, last outcome
    label), and each cell keeps its exact mass and its number of nodes.  A
    mass is an integer over a power of two: row probabilities are floats,
    hence dyadic, so products and sums over paths stay exact, and each
    reported mass is the correctly rounded value of the exact sum.  A node
    that a ``stop_if`` halts or that has no kept row is a leaf, kept in the
    cell (state id, ``_ENDED``) that later steps pass on unexpanded.  A step
    visits cells in order and each cell's rows in row order; since every
    node of a cell has the same subtree, and a leaf none, cells stay in
    depth-first order of their first nodes, and final states come in
    first-leaf order.  Rows with no post state, on a vector those below
    ``(d * EPS)**2``, are dropped; their mass is in ``tree.pruned_mass``.  The
    rows are read from ``lab.step``, the view that sampling reads too, which
    converts each (operation, state id) pair's rows once in the lab's
    lifetime, however many runs, cells and steps meet the pair, to the kept
    rows and the pruned mass as integers over the pair's largest
    denominator ``2**k``.  A step is one pass over its cells, with
    every mass it writes over ``2**shift``: the shift starts at 0 and rises
    to a pair's ``k`` when that is larger, scaling up the cells written so
    far and the pruned mass.  It ends at the largest ``k`` of the step, so
    each integer is the one a step over that denominator would write.
    """
    if initial.space is not lab.space:
        raise DimensionMismatch("initial state lives outside the laboratory space")
    program = _resolved(protocol, lab)
    start = lab.intern(initial)
    # (sid, last label or _ENDED) -> [mass * 2**scale, node count]
    cells: dict[tuple[int, object], list[int]] = {(start, None): [1, 1]}
    scale = pruned = 0
    nodes = 1  # the root is a node
    step = lab.step
    for name, stops in program:
        # the step's denominator exponent: the largest k met so far this step
        shift = 0
        nxt: dict[tuple[int, object], list[int]] = {}
        for cell_key, (num, count) in cells.items():
            sid, last = cell_key
            if last is not _ENDED:
                k, kept, cut, _ = step(name, sid)
                if k > shift:
                    # re-scale what this step wrote over the smaller denominator
                    rise = k - shift
                    pruned <<= rise
                    for cell in nxt.values():
                        cell[0] <<= rise
                    shift = k
                up = shift - k
                pruned += num * cut << up
                if kept:
                    nodes += count * len(kept)
                    for n, label, nid, key in kept:
                        if not label:  # a unitary row's empty label keeps the last outcome
                            label = last
                            key = (nid, last)
                        if label in stops:
                            key = (nid, _ENDED)
                        cell = nxt.get(key)
                        if cell is None:
                            nxt[key] = [num * n << up, count]
                        else:
                            cell[0] += num * n << up
                            cell[1] += count
                    continue
                cell_key = (sid, _ENDED)
            cell = nxt.get(cell_key)
            if cell is None:
                nxt[cell_key] = [num << shift, count]
            else:
                cell[0] += num << shift
                cell[1] += count
        scale += shift
        cells = nxt
    finals: dict[int, int] = {}
    leaves = 0
    for (sid, _), (num, count) in cells.items():
        finals[sid] = finals.get(sid, 0) + num
        leaves += count
    return OutcomeTree(
        lab, program, start, list(finals.items()), scale, pruned, nodes, leaves
    )


def leaf_mass(tree: OutcomeTree, target: StateVector) -> float:
    """Total probability of leaves whose state matches ``target``: the
    correctly rounded value of the exact sum.

    Raises ``DimensionMismatch`` for a target outside the lab's space.
    Whether a final state matches is read from ``lab._matches``, under the
    target's bits, and tested with ``states_match`` only the first time the
    lab meets that (state id, target bits) pair, in this tree or another."""
    lab = tree._lab
    if target.space is not lab.space:
        raise DimensionMismatch("target lives outside the laboratory space")
    matches = lab._matches.setdefault(target.amps.tobytes(), {})
    num = 0
    for sid, n in tree._finals:
        hit = matches.get(sid)
        if hit is None:
            hit = matches[sid] = states_match(lab.states[sid], target)
        if hit:
            num += n
    return num / (1 << tree._scale)


def aggregate_leaves(tree: OutcomeTree) -> list[tuple[State, float]]:
    """Leaf masses merged by interned final state, in first-leaf order; each
    mass is the correctly rounded value of its exact sum."""
    den = 1 << tree._scale
    return [(tree._lab.states[sid], n / den) for sid, n in tree._finals]


def tree_to_json(tree: OutcomeTree) -> dict:
    # path[d] is the last node seen at depth d, so path[0] is the root
    path: list[dict] = []
    shown: dict[int, str] = {}  # sid -> its formatted state: a tree has few states
    for depth, _, operation, label, p, cum, sid, stopped in tree._walk():
        state = shown.get(sid)
        if state is None:
            state = shown[sid] = format_state(tree._lab.states[sid])
        doc = {
            "operation": operation,
            "label": label,
            "probability": p,
            "cumulative": cum,
            "state": state,
            "stopped": stopped,
            "children": [],
        }
        del path[depth:]
        if path:
            path[-1]["children"].append(doc)
        path.append(doc)
    return {"pruned_mass": tree.pruned_mass, "root": path[0]}


# ---------------------------------------------------------------------------
# Monte Carlo


class MonteCarloResult(NamedTuple):
    """Histogram of final states over ``n`` seeded trials.

    ``finals`` lists ``(state, count)`` once per final state that drew a
    trial, in order of arrival; the states are the lab's representatives,
    so no two share a ``key``.  ``space`` is the lab's, for ``frequency``.
    """

    n: int
    seed: int
    finals: list[tuple[State, int]]
    space: HilbertSpace

    def rows(self) -> list[tuple[State, int, float]]:
        """(state, count, frequency) sorted by dedup key for stable output."""
        n = self.n
        ordered = sorted(self.finals, key=lambda final: final[0].key)
        return [(st, c, c / n if n else 0.0) for st, c in ordered]

    def frequency(self, target: StateVector) -> float:
        if target.space is not self.space:
            raise DimensionMismatch("target lives outside the laboratory space")
        total = sum(c for st, c in self.finals if states_match(st, target))
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
    rows of its state by one draw from stream ``(seed, 0)``, through
    ``RandomStream.draw``, on a stream that ``take_stream`` re-keys from
    the idle pool once the input is checked and the run holds until it
    returns or raises: a binomial draw for two kept rows and a
    multinomial draw for more, which for two rows is the same draw; a cell
    with one kept row, such as every unitary row, passes its whole count
    on, which draws nothing from the stream.  The draw's probabilities are
    ``_weights`` of the kept rows, read from ``lab.step``, the view that
    exact propagation reads too, which computes them once per (operation,
    state id) pair in the lab's lifetime, so a cell that meets a pair
    again, in this run or a later one, only draws.
    They renormalise over the kept rows, so a split differs from the exact
    distribution by the mass of the pruned rows, which
    ``enumerate_protocol`` reports as pruned, and by the snapping of
    ``_weights``: a kept row below about 0.5 * 2**-40 draws no trial.  A
    cell whose state keeps no row raises ``CatlabError``, in every run that
    reaches it.  A unitary row's empty label keeps the last outcome.  After
    each split, the cells whose last label is one of its stop labels move
    to the final states, in the order the ``stop_if`` steps were written.
    Cells are split in order of first arrival, not in id order, so the
    result depends on the protocol, the initial state, the seed and ``n``,
    and not on what the lab's table held before, unless a row probability lies within its last bits of a
    rounding boundary of the grid.  The cost grows with steps times cells,
    not with ``n``.  The result's ``finals`` lists the lab's state objects
    with their counts in order of arrival, read by id, so no state's ``key``
    is hashed; the program, like the step views, is kept in ``lab`` after
    the first run.
    """
    if n < 0:
        raise CatlabError("trial count must be >= 0")
    if n > MAX_TRIALS:
        raise CatlabError(f"trial count must be <= {MAX_TRIALS}")
    if initial.space is not lab.space:
        raise DimensionMismatch("initial state lives outside the laboratory space")
    program = _resolved(protocol, lab)
    # (sid, last label) -> trial count, in order of first arrival
    cells: dict[tuple[int, str | None], int] = {}
    if n:
        cells[(lab.intern(initial), None)] = n
    finals: dict[int, int] = {}
    stream = take_stream(seed)
    step, draw = lab.step, stream.draw
    try:
        for name, stops in program:
            nxt: dict[tuple[int, str | None], int] = {}
            for (sid, last), count in cells.items():
                _, kept, _, weights = step(name, sid)
                if not kept:
                    raise CatlabError("ran out of probability mass mid-trial")
                counts = (count,) if weights is None else draw(count, weights)
                for (_, label, nid, key), c in zip(kept, counts):
                    if c:
                        if not label:  # a unitary row's empty label keeps the last outcome
                            key = (nid, last)
                        nxt[key] = nxt.get(key, 0) + c
            for stop in stops:
                for key in [key for key in nxt if key[1] == stop]:
                    finals[key[0]] = finals.get(key[0], 0) + nxt.pop(key)
            cells = nxt
    finally:
        give_back(stream)
    for (sid, _), count in cells.items():
        finals[sid] = finals.get(sid, 0) + count
    states = lab.states
    return MonteCarloResult(n, seed, [(states[s], c) for s, c in finals.items()], lab.space)


# ---------------------------------------------------------------------------
# discrimination


class DiscriminationReport(NamedTuple):
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


def total_variation(dist_a: Mapping[str, float], dist_b: Mapping[str, float]) -> float:
    """Total variation distance between two label distributions, summed
    exactly so that the result does not depend on label order."""
    labels = {*dist_a, *dist_b}
    return 0.5 * math.fsum(abs(dist_a.get(l, 0.0) - dist_b.get(l, 0.0)) for l in labels)


def exact_distribution(m: ProjectiveMeasurement, x: State) -> dict[str, float]:
    return {label: p for label, p, _ in born_rows(m, x)}


def _chi2_sf(x: float, df: int) -> float:
    """Upper tail P(X > x) of a chi-square variable with integer ``df`` >= 1.

    Finite series, Abramowitz & Stegun 26.4.4-26.4.5 with h = x/2: even
    df sums e^-h h^i / i! for i < df/2; odd df is erfc(sqrt h) plus
    e^-h h^(r-1/2) / Gamma(r+1/2) for r = 1..(df-1)/2.  An infinite ``x``
    has tail 0, which the series would give as 0 * inf.
    """
    if x == math.inf:
        return 0.0
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
    Returns (statistic, degrees of freedom, p-value).  Sums are exact
    (``math.fsum``), so the result does not depend on the order of
    ``expected``.
    """
    parts: dict[str, list[float]] = {}
    obs: dict[str, int] = {}
    for label, p in expected.items():
        e = n * p
        target = label if e >= CHI2_MIN_EXPECTED else COMPLEMENT_LABEL
        parts.setdefault(target, []).append(e)
        obs[target] = obs.get(target, 0) + int(counts.get(label, 0))
    exp = {label: math.fsum(es) for label, es in parts.items()}
    # an empty bin carries no information, so df counts the others, in any order
    df = sum(e > 0.0 for e in exp.values()) - 1
    if any(e <= 0.0 and obs[label] > 0 for label, e in exp.items()):
        return math.inf, max(df, 0), 0.0
    stat = math.fsum((obs[label] - e) ** 2 / e for label, e in exp.items() if e > 0.0)
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

    Exact Born distributions give the total variation distance; one draw
    of ``n`` trials per source over its ``_weights``, on streams 0 and 1
    under ``seed``, gives the empirical frequencies and the chi-square
    p-value of B against A.  The draw is ``RandomStream.draw``'s: one
    binomial for a two-label measurement, one multinomial for more.  Each
    source's draw holds a stream from ``take_stream`` for that draw alone,
    so one idle stream serves both.
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
        weights = draw_weights(_weights([dist[l] for l in labels]))
        rs = take_stream(seed, stream)
        try:
            return dict(zip(labels, rs.draw(n, weights)))
        finally:
            give_back(rs)

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
