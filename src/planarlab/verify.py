"""Per-graph verification of the deterministic facts behind the class.

Each check is a theorem about every member of the class, so a single
violation on an enumerated graph means a bug in this package, not in the
mathematics.  Strict inequalities are compared in exact integer arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Any

from ._bits import bit_positions
from .census import enumerate_class
from .errors import (
    NotPlanarInputError,
    NotTriangulationError,
    PatternNotTwoEdgeConnectedError,
)
from .graphs import (
    LabeledGraph,
    addable_nonedges,
    bridges,
    decode,
    degree_histogram,
    encode,
    is_planar,
    kappa,
)
from .patterns import (
    Pattern,
    appearance_witnesses,
    count_good_triangles,
    is_two_edge_connected,
    pattern_from_name,
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    holds: bool
    lhs: Any
    rhs: Any


@dataclass(frozen=True)
class VerificationReport:
    encoding: str
    checks: tuple[CheckResult, ...]

    @property
    def all_pass(self) -> bool:
        return all(c.holds for c in self.checks)


def check_component_bound(g: LabeledGraph) -> CheckResult:
    """Component count is at least n - m (each edge closes at most one gap)."""
    k = kappa(g)
    return CheckResult("component-bound", k >= g.n - g.m, k, g.n - g.m)


def check_addable_cross_component(g: LabeledGraph) -> CheckResult:
    """Every cross-component pair is addable, so add(G) >= #cross pairs."""
    comps = g.component_masks
    cross = (g.n * g.n - sum(c.bit_count() ** 2 for c in comps)) // 2
    addable = addable_nonedges(g)
    comp_of = {v: comp for comp in comps for v in bit_positions(comp)}
    # addable pairs are distinct, so all cross pairs are addable iff
    # exactly ``cross`` of them join two components
    cross_addable = sum(1 for i, j in addable if comp_of[i] != comp_of[j])
    holds = len(addable) >= cross and cross_addable == cross
    return CheckResult("addable-cross-component", holds, len(addable), cross)


def check_cutedge_bound(g: LabeledGraph) -> CheckResult:
    """Cut-edge count is strictly below (3n - m)/2."""
    if not is_planar(g):
        raise NotPlanarInputError("check requires a planar graph")
    c = len(bridges(g))
    return CheckResult("cutedge-bound", 2 * c < 3 * g.n - g.m, c, Fraction(3 * g.n - g.m, 2))


def check_triangulation_degrees(g: LabeledGraph) -> CheckResult:
    """On a triangulation: sum of d_i for i <= 6 exceeds n/7, and there are
    at least n/7 triangles with a vertex of degree <= 6."""
    if g.n < 3 or g.m != 3 * g.n - 6 or not is_planar(g):
        raise NotTriangulationError("check requires a triangulation (m = 3n - 6)")
    small = degree_histogram(g).at_most(6)
    good = count_good_triangles(g)
    holds = 7 * small > g.n and 7 * good >= g.n
    return CheckResult("triangulation-degrees", holds, (small, good), Fraction(g.n, 7))


def check_appearance_disjointness(g: LabeledGraph, pattern: Pattern) -> CheckResult:
    """Witness sets of a 2-edge-connected pattern never share a vertex."""
    if not is_two_edge_connected(pattern.h):
        raise PatternNotTwoEdgeConnectedError(
            f"pattern {pattern.name} is not 2-edge-connected"
        )
    witnesses = appearance_witnesses(g, pattern) if pattern.size < g.n else []
    seen: set[int] = set()
    overlaps = 0
    for w in witnesses:
        if seen & set(w):
            overlaps += 1
        seen.update(w)
    return CheckResult(f"appearance-disjoint-{pattern.name}", overlaps == 0, overlaps, 0)


def verify_graph(g: LabeledGraph, disjointness_patterns=None) -> VerificationReport:
    """Run every applicable check on one planar graph."""
    if disjointness_patterns is None:
        disjointness_patterns = _default_disjointness_patterns()
    checks = [
        check_component_bound(g),
        check_addable_cross_component(g),
        check_cutedge_bound(g),
    ]
    if g.n >= 3 and g.m == 3 * g.n - 6:
        checks.append(check_triangulation_degrees(g))
    for pattern in disjointness_patterns:
        if pattern.size < g.n:
            checks.append(check_appearance_disjointness(g, pattern))
    return VerificationReport(encode(g), tuple(checks))


@lru_cache(maxsize=None)
def _default_disjointness_patterns() -> tuple[Pattern, ...]:
    return (pattern_from_name("triangle"), pattern_from_name("k4"))


@dataclass
class ClassVerification:
    n: int
    m: int
    class_size: int
    checked: dict[str, int]
    violations: dict[str, int]

    @property
    def all_pass(self) -> bool:
        return all(v == 0 for v in self.violations.values())

    def _absorb(self, g: LabeledGraph) -> None:
        """Run the check battery on one more graph and tally the outcome."""
        self.class_size += 1
        for result in verify_graph(g, _default_disjointness_patterns()).checks:
            self.checked[result.name] = self.checked.get(result.name, 0) + 1
            self.violations[result.name] = (
                self.violations.get(result.name, 0) + int(not result.holds)
            )


def verify_class(n: int, m: int, census=None, *, budget: int | None = None) -> ClassVerification:
    """Run the full check battery over every graph of the class.

    If a census store with graphs for (n, m) is supplied, its stored graphs
    are used; otherwise the class is enumerated directly.
    """
    outcome = ClassVerification(n, m, 0, {}, {})
    record = census.get(n, m) if census is not None else None
    if record is not None and record.graphs is not None:
        for enc in record.graphs:
            outcome._absorb(decode(enc))
    else:
        enumerate_class(n, m, outcome._absorb, budget=budget)
    return outcome


def verify_batch(batch) -> ClassVerification:
    """Run the check battery over a sample batch instead of a full class."""
    outcome = ClassVerification(batch.n, batch.m, 0, {}, {})
    for enc in batch.samples:
        outcome._absorb(decode(enc))
    return outcome
