"""Per-graph verification of the deterministic facts behind the class.

Each check is a theorem about every member of the class, so a single
violation on an enumerated graph means a bug in this package, not in the
mathematics.  Strict inequalities are compared in exact integer arithmetic.
``verify_graph`` returns the public ``check_*`` results on one graph; a class
verification tallies, per check, the graphs checked and the violations.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Any

from .census import class_masks
from .errors import (
    NotPlanarInputError,
    NotTriangulationError,
    PatternNotTwoEdgeConnectedError,
)
from .graphs import (
    LabeledGraph,
    addable_nonedges,
    bridges,
    degree_histogram,
    is_planar,
    kappa,
)
from .graphs import encode  # noqa: F401  (bench/tracing.py)
from .patterns import (
    Pattern,
    appearance_witnesses,
    count_good_triangles,
    is_two_edge_connected,
    pattern_from_name,
)


# Not frozen, as LabeledGraph: a frozen __init__ costs three times as much.
@dataclass(unsafe_hash=True, slots=True)
class CheckResult:
    name: str
    holds: bool
    lhs: Any
    rhs: Any


@dataclass(unsafe_hash=True, slots=True)
class VerificationReport:
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
    addable = addable_nonedges(g)
    cross = cross_addable = 0
    if len(comps) > 1:  # one component has no cross pair
        cross = (g.n * g.n - sum(c.bit_count() ** 2 for c in comps)) // 2
        # addable pairs are distinct, so all cross pairs are addable iff
        # exactly ``cross`` of them join two components
        comp = 0  # the component of i; i ascends along the list
        for i, j in addable:
            if not comp >> i & 1:
                comp = next(c for c in comps if c >> i & 1)
            cross_addable += not comp >> j & 1
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
    seen = overlaps = 0  # vertex bitsets
    for w in appearance_witnesses(g, pattern):
        side = sum(1 << v for v in w)
        overlaps += bool(seen & side)
        seen |= side
    return CheckResult(f"appearance-disjoint-{pattern.name}", overlaps == 0, overlaps, 0)


def verify_graph(g: LabeledGraph) -> VerificationReport:
    """Run every applicable check on one planar graph."""
    checks = [check_component_bound(g), check_addable_cross_component(g), check_cutedge_bound(g)]
    if g.n >= 3 and g.m == 3 * g.n - 6:
        checks.append(check_triangulation_degrees(g))
    for pattern in _default_disjointness_patterns():
        if pattern.size < g.n:
            checks.append(check_appearance_disjointness(g, pattern))
    return VerificationReport(tuple(checks))


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

    def _absorb(self, masks) -> ClassVerification:
        """Run the check battery on each graph of ``masks`` and tally the outcomes."""
        checked = self.checked
        for mask in masks:
            self.class_size += 1
            for result in verify_graph(LabeledGraph(self.n, mask)).checks:
                name = result.name
                count = checked.get(name)
                if count is None:  # the first graph: both tallies start here
                    checked[name] = 1
                    self.violations[name] = int(not result.holds)
                else:
                    checked[name] = count + 1
                    if not result.holds:
                        self.violations[name] += 1
        return self


def verify_class(n: int, m: int, census=None, *, budget: int | None = None) -> ClassVerification:
    """Run the full check battery over every graph of the class, as
    ``census.class_masks`` gives them: from a census, which must hold the
    whole class, or else streamed from the class search, with ``budget``
    bounding it past n = 7."""
    return ClassVerification(n, m, 0, {}, {})._absorb(class_masks(n, m, census, budget=budget))


def verify_batch(batch) -> ClassVerification:
    """Run the check battery over a sample batch instead of a full class."""
    return ClassVerification(batch.n, batch.m, 0, {}, {})._absorb(batch.samples)
