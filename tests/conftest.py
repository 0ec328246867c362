from __future__ import annotations

import pytest
from hypothesis import strategies as st

from planarlab import build_graph
from tests.oracles import pairs_in_order


@st.composite
def labeled_graphs(draw, max_n: int = 12, min_n: int = 1):
    n = draw(st.integers(min_n, max_n))
    pairs = pairs_in_order(n)
    if pairs:
        edges = draw(st.sets(st.sampled_from(pairs)))
    else:
        edges = set()
    return build_graph(n, sorted(edges))


@pytest.fixture(scope="session")
def small_patterns():
    from planarlab import pattern_from_name

    return {name: pattern_from_name(name) for name in ("vertex", "edge", "path3", "triangle", "k4")}


@pytest.fixture
def cold_orbit_caches():
    """The orbit census with nothing read, composed or summed, before and after the test."""
    from planarlab import census

    caches = (census._read_connected, census._compose, census._class_sizes)
    for cache in caches:
        cache.cache_clear()
    yield
    for cache in caches:
        cache.cache_clear()


@pytest.fixture
def cold_planar_tables():
    """No n <= 7 planarity table read, before and after the test."""
    from planarlab.planarity import planar_mask_table

    planar_mask_table.cache_clear()
    yield
    planar_mask_table.cache_clear()
