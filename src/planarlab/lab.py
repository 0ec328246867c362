"""Experiment harness: event indicators, exact and sampled probabilities,
density regimes, and phase tables.

Exact rows are ratios of census counts (rationals), every event counted from
the connected counts with each connected graph marked by its share of it.
Sampled rows carry a binomial standard error, and MCMC-backed rows are always
tagged diagnostic because single-swap chain uniformity is unproven.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from fractions import Fraction

from ._bits import bit_positions
from .census import (  # enumerate_all: the benchmark's tracer patches lab.enumerate_all
    Marks,
    _check_int,
    _validate_params,
    check_exact,
    class_counts,
    connected_counts,
    enumerate_all,  # noqa: F401
    marked_counts,
    max_planar_edges,
)
from .errors import EmptyClassError, InvalidArgumentError
from .graphs import (
    LabeledGraph,
    add_count,
    bridges,
    degree_histogram,
    encode,
    kappa,
)
from .patterns import (
    Pattern,
    appearance_law,
    count_appearances,
    count_components_isomorphic,
    count_good_triangles,
    has_copy,
    pattern_from_name,
)
from .sampler import sample_many

# kind -> (takes a pattern, takes a threshold, indicator(g, event)): each row
# holds the kind's indicator on a whole graph, which sampled rows read; exact
# counts read the same meaning off the components, by _marks, and the tests
# check the two against each other.  Callees are looked up when called, since
# bench/tracing.py patches them here.
EVENT_KINDS = {
    "connected": (False, False, lambda g, e: kappa(g) == 1),
    "component": (True, False, lambda g, e: count_components_isomorphic(g, e.pattern) >= 1),
    "copy": (True, False, lambda g, e: has_copy(g, e.pattern)),
    "isolated": (False, False, lambda g, e: isolated_vertex_count(g) >= 1),
    "pendant": (False, True, lambda g, e: pendant_edge_count(g) >= e.threshold),
    "appearances": (True, True, lambda g, e: count_appearances(g, e.pattern) >= e.threshold),
    "components": (True, True,
                   lambda g, e: count_components_isomorphic(g, e.pattern) >= e.threshold),
}


@dataclass(frozen=True)
class EventKind:
    """An event, written ``kind[:pattern][>=threshold]`` (``describe``,
    ``parse_event``); each kind takes a pattern, a threshold, both or none."""

    kind: str
    pattern: Pattern | None = None
    threshold: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in EVENT_KINDS:
            raise InvalidArgumentError(f"unknown event kind {self.kind!r}")
        for part, value, takes in zip(("pattern", "threshold"), (self.pattern, self.threshold),
                                      EVENT_KINDS[self.kind]):
            if (value is not None) != takes:
                verb = "takes no" if value is not None else "needs a"
                raise InvalidArgumentError(f"event {self.kind!r} {verb} {part}")
        if self.threshold is not None:
            _check_int(f"event {self.kind!r} threshold", self.threshold)

    def describe(self) -> str:
        text = self.kind
        if self.pattern is not None:
            text += f":{self.pattern.name}"
        if self.threshold is not None:
            text += f">={self.threshold}"
        return text

    # convenience constructors
    @staticmethod
    def connected() -> "EventKind":
        return EventKind("connected")

    @staticmethod
    def has_component(pattern: Pattern) -> "EventKind":
        return EventKind("component", pattern)

    @staticmethod
    def has_copy(pattern: Pattern) -> "EventKind":
        return EventKind("copy", pattern)

    @staticmethod
    def has_isolated_vertex() -> "EventKind":
        return EventKind("isolated")

    @staticmethod
    def min_pendant_edges(threshold: int) -> "EventKind":
        return EventKind("pendant", None, threshold)

    @staticmethod
    def min_appearances(pattern: Pattern, threshold: int) -> "EventKind":
        return EventKind("appearances", pattern, threshold)

    @staticmethod
    def min_components(pattern: Pattern, threshold: int) -> "EventKind":
        return EventKind("components", pattern, threshold)


def parse_event(token: str) -> EventKind:
    """Parse ``kind[:pattern][>=threshold]``, the syntax describe() writes."""
    head, has_threshold, digits = token.strip().partition(">=")
    kind, has_pattern, name = head.partition(":")
    threshold = None
    if has_threshold:
        try:
            threshold = int(digits)
        except ValueError:
            raise InvalidArgumentError(f"bad threshold {digits!r} in event {token!r}") from None
    return EventKind(kind, pattern_from_name(name) if has_pattern else None, threshold)


def pendant_edge_count(g: LabeledGraph) -> int:
    """Edges with an endpoint of degree 1 (an isolated edge counts once)."""
    adj = g.adjacency
    leaves = sum(1 << v for v in range(1, g.n + 1) if adj[v].bit_count() == 1)
    # each leaf owns one edge; an isolated edge is owned by both of its ends
    return leaves.bit_count() - sum(1 for v in bit_positions(leaves) if adj[v] & leaves) // 2


def isolated_vertex_count(g: LabeledGraph) -> int:
    return g.adjacency.count(0) - 1  # index 0 is no vertex


def evaluate_event(g: LabeledGraph, event: EventKind) -> bool:
    """Indicator of the event on one graph, by its kind's EVENT_KINDS row; never raises."""
    return EVENT_KINDS[event.kind][2](g, event)


# -- density regimes -------------------------------------------------------------


@dataclass(frozen=True)
class DensityRegime:
    label: str  # sparse | critical | middle | saturated
    ratio: Fraction


_BAND = Fraction(1, 20)  # the critical and saturated bands are n/20 wide, exactly


def regime_of(n: int, m: int) -> DensityRegime:
    """Classify m/n against the sparse / critical / middle / saturated bands."""
    _validate_params(n, m)
    ratio = Fraction(m, n)
    if ratio < 1 - _BAND:
        label = "sparse"
    elif abs(ratio - 1) <= _BAND:
        label = "critical"
    elif m < 3 * n - 6 - _BAND * n:
        label = "middle"
    else:
        label = "saturated"
    return DensityRegime(label, ratio)


# -- probabilities ----------------------------------------------------------------


def _check_class(n: int, m: int) -> None:
    """Refuse bad counts, an empty class, then n past the orbit census."""
    _validate_params(n, m)
    if m > max_planar_edges(n):
        raise EmptyClassError(f"class ({n}, {m}) is empty")
    check_exact(n)


def _marks(event: EventKind) -> Marks:
    """An event other than ``connected`` as a sum over the components:
    ``isolated`` (H = K1) and the component kinds mark those isomorphic to H,
    ``copy`` one that holds a copy of H (H is connected), ``pendant`` one by
    its pendant edges.  ``appearances`` marks one by its appearances, which
    lie inside it and are rooted at the smallest label of their set, an order
    that placing the component keeps: their law splits its labelings."""
    h, threshold = event.pattern, event.threshold
    if event.kind == "isolated":
        return Marks(1, shape=(1, 0, 1))
    if event.kind in ("component", "components"):
        return Marks(1 if threshold is None else threshold, (h.size, h.edge_count, h.aut_count))
    if event.kind == "copy":
        return Marks(1, law=lambda g, labelings: [(int(has_copy(g, h)), labelings)])
    if event.kind == "pendant":
        return Marks(threshold, law=lambda g, labelings: [(pendant_edge_count(g), labelings)])
    return Marks(threshold, law=lambda g, labelings: [
        (a, labelings * p.numerator // p.denominator)
        for a, p in enumerate(appearance_law(g, h))])


def exact_event_counts(n: int, events, m_values=None) -> dict[int, list[int]]:
    """Satisfying-graph counts per m for several events, from the connected
    counts alone: ``connected`` is C_n, and every other event is the class
    less the graphs whose components' marks (``_marks``) sum below its
    threshold, with no orbit composed.  Refuses n > 9, and an m that is not a
    non-negative integer, before any work; an m past ``max_planar_edges(n)``
    names an empty class, whose row is all zeros."""
    check_exact(n)  # before any arithmetic on n
    events = list(events)
    top = max_planar_edges(n)
    m_values = range(top + 1) if m_values is None else list(m_values)
    for m in m_values:
        _validate_params(n, m)
    wanted = set(m_values)
    marked = iter(marked_counts(
        n, [_marks(event) for event in events if event.kind != "connected"], wanted))
    connected = connected_counts(n)
    columns = [connected if event.kind == "connected" else next(marked) for event in events]
    return {m: [column[m] if m <= top else 0 for column in columns] for m in wanted}


def exact_probability(n: int, m: int, event: EventKind) -> Fraction:
    """P[event] under the uniform class law, as an exact rational."""
    _check_class(n, m)
    hits = exact_event_counts(n, [event], [m])[m][0]
    return Fraction(hits, class_counts(n)[m])


@dataclass(frozen=True)
class ProbabilityEstimate:
    value: float
    stderr: float
    method: str  # "exact-sample" or "mcmc-diagnostic"
    k: int
    seed: int

    @property
    def diagnostic(self) -> bool:
        return self.method.startswith("mcmc")


def estimate_probability(
    n: int,
    m: int,
    event: EventKind,
    *,
    method: str = "mcmc",
    k: int = 1000,
    seed: int = 0,
    burn_in: int | None = None,
    thinning: int | None = None,
    census=None,
) -> ProbabilityEstimate:
    """Sample frequency of the event with its binomial standard error."""
    _check_int("sample size k", k, 1)
    batch = sample_many(
        n, m, k, method=method, seed=seed, burn_in=burn_in, thinning=thinning, census=census
    )
    [(p_hat, stderr)] = _sampled_frequencies(batch, [event])
    tag = "exact-sample" if method == "exact" else "mcmc-diagnostic"
    return ProbabilityEstimate(p_hat, stderr, tag, k, seed)


def _sampled_frequencies(batch, events) -> list[tuple[float, float]]:
    """(frequency, binomial standard error) of each event over the batch's
    samples, of which there is at least one."""
    graphs = [LabeledGraph(batch.n, mask) for mask in batch.samples]
    k = len(graphs)
    out = []
    for event in events:
        p_hat = sum(1 for g in graphs if evaluate_event(g, event)) / k
        out.append((p_hat, (p_hat * (1.0 - p_hat) / k) ** 0.5))
    return out


# -- phase tables -----------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentSpec:
    grid: tuple[tuple[int, int], ...]
    events: tuple[EventKind, ...]
    method: str = "exact"  # "exact" | "mcmc"
    k: int | None = None
    seed: int | None = None


@dataclass(frozen=True)
class ExperimentRow:
    n: int
    m: int
    ratio: Fraction
    regime: str
    event: str
    prob: float
    stderr: float
    method: str
    k: int
    seed: int | None


@dataclass(frozen=True)
class ExperimentResult:
    spec: ExperimentSpec
    rows: tuple[ExperimentRow, ...]

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["n", "m", "ratio", "regime", "event", "prob", "stderr",
                         "method", "k", "seed"])
        for row in self.rows:
            writer.writerow([
                row.n, row.m, str(row.ratio), row.regime, row.event,
                repr(row.prob), repr(row.stderr) if row.method != "exact" else "0",
                row.method, row.k, "" if row.seed is None else row.seed,
            ])
        return buf.getvalue()


def phase_table(spec: ExperimentSpec) -> ExperimentResult:
    """One row per (n, m, event), exact over the census or sampled."""
    rows: list[ExperimentRow] = []
    if spec.method == "exact":
        by_n: dict[int, list[int]] = {}
        for n, m in spec.grid:
            _check_class(n, m)
            by_n.setdefault(n, []).append(m)
        tallies = {n: exact_event_counts(n, spec.events, ms) for n, ms in by_n.items()}
        totals = {n: class_counts(n) for n in by_n}
        for n, m in spec.grid:
            total = totals[n][m]
            regime = regime_of(n, m)
            for idx, event in enumerate(spec.events):
                p = Fraction(tallies[n][m][idx], total)
                rows.append(ExperimentRow(
                    n, m, regime.ratio, regime.label, event.describe(),
                    float(p), 0.0, "exact", total, None,
                ))
    elif spec.method == "mcmc":
        if spec.k is None or spec.seed is None:
            raise InvalidArgumentError("mcmc phase tables need k and seed")
        _check_int("sample size k", spec.k, 1)
        for cell_index, (n, m) in enumerate(spec.grid):
            cell_seed = spec.seed + cell_index
            batch = sample_many(n, m, spec.k, method="mcmc", seed=cell_seed)
            regime = regime_of(n, m)
            frequencies = _sampled_frequencies(batch, spec.events)
            for event, (p_hat, stderr) in zip(spec.events, frequencies):
                rows.append(ExperimentRow(
                    n, m, regime.ratio, regime.label, event.describe(),
                    p_hat, stderr, "mcmc-diagnostic", spec.k, cell_seed,
                ))
    else:
        raise InvalidArgumentError(f"unknown method {spec.method!r}")
    return ExperimentResult(spec, tuple(rows))


# -- per-graph statistics ------------------------------------------------------------


def compute_statistics(g: LabeledGraph, pattern: Pattern | None = None) -> dict:
    """The JSON payload of CLI ``stats``; f_H is None without a pattern."""
    return {
        "graph": encode(g),
        "f_H": None if pattern is None else count_appearances(g, pattern),
        "pendant_edges": pendant_edge_count(g),
        "add_count": add_count(g),
        "kappa": kappa(g),
        "bridges": [list(edge) for edge in sorted(bridges(g))],
        "isolated": isolated_vertex_count(g),
        "good_triangles": count_good_triangles(g),
        "degree_histogram": {str(d): c for d, c in degree_histogram(g).items()},
    }
