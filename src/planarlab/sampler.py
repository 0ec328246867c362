"""Uniform sampling from the planar classes.

Exact sampling draws an index into a stored census.  The Markov chain swaps
one edge for one non-edge per step and accepts exactly when the result stays
planar; the proposal is symmetric (edge and non-edge counts are invariant),
so the uniform distribution on the reachable class is stationary.  Chains are
deterministic functions of their 64-bit seed (Mersenne Twister via
random.Random, documented and stable).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ._bits import edges_from_mask, mask_from_edges, pair_count, pair_index, pairs_in_order
from .errors import CensusMissingError, EmptyClassBoundError, EmptyClassError, InvalidArgumentError
from .graphs import LabeledGraph, decode, encode
from .planarity import is_planar_edges

DEFAULT_BURN_IN_FACTOR = 50  # burn_in = 50 * n * m
# thinning = n * m


def fan_triangulation_edges(n: int) -> list[tuple[int, int]]:
    """Canonical triangulation on {1..n}: fan at 1, path 2..n, chords from 2."""
    if n <= 1:
        return []
    if n == 2:
        return [(1, 2)]
    edges = [(1, j) for j in range(2, n + 1)]
    edges += [(j, j + 1) for j in range(2, n)]
    edges += [(2, j) for j in range(4, n + 1)]
    return sorted(edges)


def mcmc_init(n: int, m: int) -> LabeledGraph:
    """Deterministic start state: first m fan-triangulation edges, lex order."""
    if n < 1 or m < 0:
        raise InvalidArgumentError("need n >= 1 and m >= 0")
    fan = fan_triangulation_edges(n)
    if m > len(fan):
        raise EmptyClassBoundError(f"no planar graph with n={n}, m={m}")
    return LabeledGraph(n, mask_from_edges(n, fan[:m]))


@dataclass
class ChainState:
    """One edge-swap chain; deterministic given (n, m, seed)."""

    n: int
    m: int
    seed: int
    steps_taken: int = 0

    def __post_init__(self) -> None:
        start = mcmc_init(self.n, self.m)
        self.mask = start.mask
        # the edges in the order randrange(m) picks from; a swap keeps the slot
        self._edges: list[tuple[int, int]] = list(edges_from_mask(self.n, self.mask))
        self.rng = random.Random(self.seed)

    @property
    def current(self) -> LabeledGraph:
        return LabeledGraph(self.n, self.mask)


def mcmc_step(state: ChainState) -> ChainState:
    """Advance one step; rejected proposals still advance the counter."""
    state.steps_taken += 1
    n, m = state.n, state.m
    total = pair_count(n)
    if m == 0 or m == total:
        return state  # single-state chain
    rng = state.rng
    edges = state._edges
    mask = state.mask
    drop = rng.randrange(m)
    removed = edges[drop]
    while True:  # rejection-sample a uniform non-edge
        slot = rng.randrange(total)
        if not mask >> slot & 1:
            break
    edges[drop] = pairs_in_order(n)[slot]
    if is_planar_edges(n, edges):
        state.mask = mask ^ (1 << slot | 1 << pair_index(n, *removed))
    else:
        edges[drop] = removed
    return state


@dataclass(frozen=True)
class SampleBatch:
    """Samples plus the parameters that produced them, as encodings."""

    n: int
    m: int
    method: str
    seed: int
    burn_in: int
    thinning: int
    samples: tuple[str, ...]


def _stored_graphs(n: int, m: int, census) -> tuple[str, ...]:
    """The encodings of a non-empty class, from a census record that stores them."""
    record = census.get(n, m) if census is not None else None
    if record is None:
        raise CensusMissingError(f"no census record for ({n}, {m})")
    if record.count == 0:
        raise EmptyClassError(f"class ({n}, {m}) is empty")
    if record.graphs is None:
        raise CensusMissingError(f"census record for ({n}, {m}) has no stored graphs")
    return record.graphs


def exact_sample(n: int, m: int, seed: int, census) -> LabeledGraph:
    """One uniform draw from a census record that stores its graphs."""
    graphs = _stored_graphs(n, m, census)
    return decode(graphs[random.Random(seed).randrange(len(graphs))])


def sample_many(
    n: int,
    m: int,
    count: int,
    *,
    method: str = "mcmc",
    seed: int = 0,
    burn_in: int | None = None,
    thinning: int | None = None,
    census=None,
) -> SampleBatch:
    """Draw ``count`` samples; exact draws are independent, MCMC is one chain."""
    if count < 0:
        raise InvalidArgumentError(f"count must be non-negative, got {count}")
    if method == "exact":
        graphs = _stored_graphs(n, m, census)
        rng = random.Random(seed)
        samples = tuple(graphs[rng.randrange(len(graphs))] for _ in range(count))
        return SampleBatch(n, m, "exact", seed, 0, 0, samples)
    if method != "mcmc":
        raise InvalidArgumentError(f"unknown sampling method {method!r}")
    if burn_in is None:
        burn_in = DEFAULT_BURN_IN_FACTOR * n * m
    if thinning is None:
        thinning = max(1, n * m)
    if thinning < 1:
        raise InvalidArgumentError(f"thinning must be at least 1, got {thinning}")
    if burn_in < 0:
        raise InvalidArgumentError(f"burn-in must be non-negative, got {burn_in}")
    state = ChainState(n, m, seed)
    for _ in range(burn_in):
        mcmc_step(state)
    out: list[str] = []
    for _ in range(count):
        for _ in range(thinning):
            mcmc_step(state)
        out.append(encode(state.current))
    return SampleBatch(n, m, "mcmc", seed, burn_in, thinning, tuple(out))


def tv_distance_to_uniform(batch: SampleBatch, census) -> float:
    """Half the L1 gap between the batch's empirical law and uniform."""
    graphs = _stored_graphs(batch.n, batch.m, census)
    if not batch.samples:
        raise InvalidArgumentError("cannot measure an empty batch")
    support = set(graphs)
    freq: dict[str, int] = {}
    for enc in batch.samples:
        if enc not in support:
            raise InvalidArgumentError(f"sample {enc!r} is not in the stored class")
        freq[enc] = freq.get(enc, 0) + 1
    k = len(batch.samples)
    target = 1.0 / len(graphs)
    total = sum(abs(freq.get(enc, 0) / k - target) for enc in graphs)
    return total / 2.0
