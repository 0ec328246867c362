"""Per-layer tracing from outside the library.

Every planarlab module binds its collaborators with ``from .x import f``, so
a call into a layer is intercepted by replacing the name at each import site
(``lab.kappa``, ``sampler.is_planar_edges``, ...) with a timing wrapper, and
putting the original back afterwards.  Calls are aggregated in memory per
(caller, callee) pair as [calls, total seconds, seconds spent in traced
children], so the tens of millions of per-graph calls in an n=7 sweep cost a
dict update each instead of a stored span.  A key's self time is its total
minus its children's; a layer's self time is the sum over its keys.
"""

from __future__ import annotations

import os
import time

# (module, attribute, traced key).  Keys are "<layer>.<function>"; the layer
# is the module the function lives in, not the module that calls it.
_SITES = (
    ("cli", "sample_many", "sampler.sample_many"),
    ("cli", "verify_class", "verify.verify_class"),
    ("cli", "decode", "graphs.decode"),
    ("cli", "pattern_from_name", "patterns.pattern_from_name"),
    ("census", "build_census", "census.build_census"),
    ("census", "save_census", "census.save_census"),
    ("census", "load_census", "census.load_census"),
    ("census", "class_counts", "census.class_counts"),
    ("census", "count_class", "census.count_class"),
    ("census", "enumerate_class", "census.enumerate_class"),
    ("census", "enumerate_all", "census.enumerate_all"),
    ("census", "graph_from_mask", "graphs.graph_from_mask"),
    ("census", "encode", "graphs.encode"),
    ("census", "decode", "graphs.decode"),
    ("census", "is_planar_edges", "planarity.is_planar_edges"),
    ("census", "planar_mask_table", "planarity.planar_mask_table"),
    ("lab", "parse_event", "lab.parse_event"),
    ("lab", "phase_table", "lab.phase_table"),
    ("lab", "exact_event_counts", "lab.exact_event_counts"),
    ("lab", "evaluate_event", "lab.evaluate_event"),
    ("lab", "class_counts", "census.class_counts"),
    ("lab", "enumerate_all", "census.enumerate_all"),
    ("lab", "kappa", "graphs.kappa"),
    ("lab", "bridges", "graphs.bridges"),
    ("lab", "add_count", "graphs.add_count"),
    ("lab", "encode", "graphs.encode"),
    ("lab", "has_copy", "patterns.has_copy"),
    ("lab", "count_components_isomorphic", "patterns.count_components_isomorphic"),
    ("lab", "count_appearances", "patterns.count_appearances"),
    ("lab", "count_good_triangles", "patterns.count_good_triangles"),
    ("lab", "pattern_from_name", "patterns.pattern_from_name"),
    ("lab", "sample_many", "sampler.sample_many"),
    ("graphs", "is_planar_edges", "planarity.is_planar_edges"),
    ("graphs", "addable_nonedges", "graphs.addable_nonedges"),
    ("graphs", "decode", "graphs.decode"),
    ("graphs", "encode", "graphs.encode"),
    ("patterns", "bridges", "graphs.bridges"),
    ("patterns", "kappa", "graphs.kappa"),
    ("patterns", "is_planar", "graphs.is_planar"),
    ("planarity", "_left_right_planar", "planarity.left_right"),
    ("sampler", "mcmc_step", "sampler.mcmc_step"),
    ("sampler", "encode", "graphs.encode"),
    ("sampler", "decode", "graphs.decode"),
    ("verify", "verify_graph", "verify.verify_graph"),
    ("verify", "addable_nonedges", "graphs.addable_nonedges"),
    ("verify", "bridges", "graphs.bridges"),
    ("verify", "kappa", "graphs.kappa"),
    ("verify", "encode", "graphs.encode"),
    ("verify", "degree_histogram", "graphs.degree_histogram"),
    ("verify", "appearance_witnesses", "patterns.appearance_witnesses"),
    ("verify", "count_good_triangles", "patterns.count_good_triangles"),
    ("verify", "is_two_edge_connected", "patterns.is_two_edge_connected"),
    ("verify", "pattern_from_name", "patterns.pattern_from_name"),
)

# Generators whose yields are the census DFS output; wrapped only to count.
_DFS_GENERATORS = ("_iter_all_masks", "_iter_class_masks")
# Functions taking a per-graph visitor: argument index of the visitor.
_VISITOR_ARG = {"census.enumerate_all": 1, "census.enumerate_class": 2}

LAYERS = ("cli", "lab", "census", "graphs", "patterns", "planarity", "sampler", "verify")


class Tracer:
    """Aggregated call tree: (caller key, callee key) -> [calls, total, child]."""

    def __init__(self) -> None:
        self.stack: list[list] = [["bench", 0.0]]
        self.edges: dict[tuple[str, str], list] = {}
        self.counters: dict[str, float] = {}
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, key: str, fn, on_result=None, visitor_arg: int | None = None):
        stack = self.stack
        edges = self.edges
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if visitor_arg is not None and len(args) > visitor_arg:
                args = list(args)
                args[visitor_arg] = self._wrap_visitor(args[visitor_arg])
            frame = [key, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                caller = stack[-1]
                caller[1] += elapsed
                rec = edges.get((caller[0], key))
                if rec is None:
                    rec = edges[(caller[0], key)] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += elapsed
                rec[2] += frame[1]
            if on_result is not None:
                on_result(args, result)
            return result

        return traced

    def _wrap_visitor(self, visitor):
        """A visitor is the caller's code: time it as the caller's layer."""
        layer = getattr(visitor, "__module__", "").rpartition(".")[2]
        if layer not in LAYERS or layer == "census":
            return visitor
        return self.wrap(f"{layer}.visit", visitor)

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def patch(self, owner, attr: str, replacement) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self, planarlab) -> None:
        """Replace every traced import site; ``restore`` undoes it."""
        modules = {name: getattr(planarlab, name) for name in
                   ("cli", "census", "lab", "graphs", "patterns", "planarity",
                    "sampler", "verify")}
        hooks = {
            "planarity.is_planar_edges": self._on_planarity,
            "verify.verify_graph": self._on_verify_graph,
            "census.save_census": self._on_save_census,
        }
        for module_name, attr, key in _SITES:
            owner = modules[module_name]
            self.patch(owner, attr, self.wrap(
                key, getattr(owner, attr), hooks.get(key), _VISITOR_ARG.get(key)))
        # The one is_planar_edges call in mcmc_step decides acceptance.
        sampler = modules["sampler"]
        self.patch(sampler, "is_planar_edges", self.wrap(
            "planarity.is_planar_edges", sampler.is_planar_edges, self._on_chain_decision))
        census = modules["census"]
        for name in _DFS_GENERATORS:
            self.patch(census, name, self._counting(getattr(census, name)))
        result_cls = modules["lab"].ExperimentResult
        self.patch(result_cls, "to_csv", self.wrap("lab.to_csv", result_cls.to_csv))

    def restore(self) -> None:
        while self._patched:
            owner, attr, value = self._patched.pop()
            setattr(owner, attr, value)

    def _counting(self, generator_fn):
        counters = self.counters

        def counted(*args, **kwargs):
            produced = 0
            try:
                for item in generator_fn(*args, **kwargs):
                    produced += 1
                    yield item
            finally:
                counters["census.graphs"] = counters.get("census.graphs", 0) + produced

        return counted

    # -- result hooks -------------------------------------------------------

    def _on_planarity(self, args, result) -> None:
        if result:
            self.count("planarity.planar")

    def _on_chain_decision(self, args, result) -> None:
        self._on_planarity(args, result)
        if result:
            self.count("sampler.accepted")

    def _on_verify_graph(self, args, report) -> None:
        self.count("verify.checks", len(report.checks))
        self.count("verify.violations", sum(1 for c in report.checks if not c.holds))

    def _on_save_census(self, args, result) -> None:
        self.count("census.file_bytes", os.path.getsize(args[1]))

    # -- metrics --------------------------------------------------------------

    def per_key(self) -> dict[str, list]:
        """key -> [calls, total, self] over all callers."""
        out: dict[str, list] = {}
        for (_, key), (calls, total, child) in self.edges.items():
            row = out.setdefault(key, [0, 0.0, 0.0])
            row[0] += calls
            row[1] += total
            row[2] += total - child
        return out

    def layer_self_total(self) -> float:
        """Self time summed over every key of a planarlab layer."""
        return sum(row[2] for key, row in self.per_key().items()
                   if key.partition(".")[0] in LAYERS)
