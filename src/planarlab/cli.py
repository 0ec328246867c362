"""Command-line interface.

Subcommands: enumerate, sample, verify, experiment, stats.  Pattern arguments
accept the presets vertex, edge, triangle, k4, path<k>, cycle<k>, star<k>
(<k> counts vertices) or a raw "n:HEX" encoding.
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import chain, islice

from . import census as census_mod
from . import lab
from .errors import InvalidArgumentError, PlanarLabError
from .graphs import LabeledGraph, decode, encode
from .patterns import pattern_from_name
from .sampler import sample_many
from .verify import verify_class

# Far past any grid that could finish: an mcmc cell takes a second or more.
MAX_GRID_CELLS = 100_000


def _parse_int_list(text: str) -> list[range]:
    """Integers and ascending ranges "lo-hi", comma-separated, as ranges
    (never built out); at least one."""
    out: list[range] = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        lo, _, hi = chunk.partition("-") if "-" in chunk[1:] else (chunk, "", chunk)
        try:
            lo, hi = int(lo), int(hi)
        except ValueError:
            raise InvalidArgumentError(f"bad integer list {text!r}") from None
        if lo > hi:
            raise InvalidArgumentError(f"descending range {chunk!r} in {text!r}")
        out.append(range(lo, hi + 1))
    if not out:
        raise InvalidArgumentError(f"integer list {text!r} names no integer")
    return out


def _emit(path, text: str) -> None:
    """Write text to the ``--out`` file as ``save_census`` writes a census
    (beside the target, then renamed; a target that is not a regular file
    refused), or print it when there is none; a failed write is an
    IoFailureError."""
    if path:
        census_mod._write_beside(path, lambda handle: handle.write(text))
    else:
        print(text, end="")


def _cmd_enumerate(args) -> int:
    store = census_mod.build_census(
        args.n, [args.m], store_graphs=args.store, budget=args.budget
    )
    record = store.get(args.n, args.m)
    if args.out:
        census_mod.save_census(store, args.out)
        print(f"wrote {args.out}: {args.n} {args.m} {record.count}")
    else:
        sys.stdout.writelines(f"{line}\n" for line in record.iter_lines())
    return 0


def _cmd_sample(args) -> int:
    if args.budget is not None:  # whatever the method, before any work
        census_mod._check_int("budget", args.budget)
    if args.method == "mcmc" and args.census is not None:
        raise InvalidArgumentError("--census is read by --method exact only")
    census = None
    if args.method == "exact":
        if args.census:
            census = census_mod.load_census(args.census)
        else:
            census = census_mod.build_census(
                args.n, [args.m], store_graphs=True, budget=args.budget
            )
    batch = sample_many(
        args.n,
        args.m,
        args.count,
        method=args.method,
        seed=args.seed,
        burn_in=args.burnin,
        thinning=args.thin,
        census=census,
    )
    text = "".join(encode(LabeledGraph(batch.n, mask)) + "\n" for mask in batch.samples)
    _emit(args.out, text)
    return 0


def _cmd_verify(args) -> int:
    if args.all_m:
        m_values = range(census_mod.max_planar_edges(args.n) + 1)
    else:
        m_values = [args.m]
    census = census_mod.load_census(args.census) if args.census else None
    lines = ["n,m,check,checked,violations"]
    failures = 0
    for m in m_values:
        outcome = verify_class(args.n, m, census, budget=args.budget)
        for name in sorted(outcome.checked):
            lines.append(
                f"{args.n},{m},{name},{outcome.checked[name]},{outcome.violations[name]}"
            )
            failures += outcome.violations[name]
    text = "\n".join(lines) + "\n"
    _emit(args.out, text)
    return 1 if failures else 0


def _grid_cells(n_ranges, m_ranges, exact: bool):
    """The cells (n, m) of an experiment grid in order, ``m_ranges`` None for
    every m, up to the first that the table refuses: an empty class, or an
    exact n past the orbit census."""
    for n in chain.from_iterable(n_ranges):
        top = census_mod.max_planar_edges(n)
        for m in range(top + 1) if m_ranges is None else chain.from_iterable(m_ranges):
            yield n, m
            if m > top or exact and n > census_mod.EXACT_MAX_N:
                return


def _cmd_experiment(args) -> int:
    n_ranges = _parse_int_list(args.n_list)
    events = tuple(lab.parse_event(tok) for tok in args.events.split(","))
    m_ranges = None if args.m_list == "all" else _parse_int_list(args.m_list)
    cells = _grid_cells(n_ranges, m_ranges, args.method == "exact")
    grid = tuple(islice(cells, MAX_GRID_CELLS + 1))  # never more built
    if len(grid) > MAX_GRID_CELLS:
        raise InvalidArgumentError(f"the grid has more than {MAX_GRID_CELLS} cells")
    spec = lab.ExperimentSpec(
        grid=grid,
        events=events,
        method=args.method,
        k=args.k,
        seed=args.seed,
    )
    result = lab.phase_table(spec)
    _emit(args.out, result.to_csv())
    if args.out:
        print(f"wrote {args.out}: {len(result.rows)} rows")
    return 0


def _cmd_stats(args) -> int:
    g = decode(args.graph)
    pattern = pattern_from_name(args.pattern) if args.pattern else None
    stats = lab.compute_statistics(g, pattern)
    print(json.dumps(stats.as_dict(), indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="planarlab",
        description="Enumerate, sample, verify, and run experiments on the "
        "uniform classes of labeled planar graphs with a fixed edge count.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="count or list one class")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--store", action="store_true", help="store the graphs, not just the count")
    p.add_argument("--out", help="write a census file here")
    p.add_argument("--budget", type=int, default=None, help="search-node budget")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("sample", help="draw uniform (exact) or chain (mcmc) samples")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--method", choices=("exact", "mcmc"), required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--burnin", type=int, default=None)
    p.add_argument("--thin", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--census", help="census file with stored graphs (exact method)")
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("verify", help="run the per-graph check battery over a class")
    p.add_argument("--n", type=int, required=True)
    which = p.add_mutually_exclusive_group(required=True)
    which.add_argument("--m", type=int)
    which.add_argument("--all-m", action="store_true")
    p.add_argument("--census", help="check the class stored whole in this census file")
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("experiment", help="evaluate event probabilities over a grid")
    p.add_argument("--n-list", required=True, help="e.g. 6,7")
    p.add_argument("--m-list", required=True, help='e.g. "0-12", "5,7,9", or "all"')
    p.add_argument("--events", required=True,
                   help="comma-separated, e.g. connected,component:triangle,copy:k4")
    p.add_argument("--method", choices=("exact", "mcmc"), default="exact")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--k", type=int, default=1000)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("stats", help="print the statistics bundle of one graph as JSON")
    p.add_argument("--graph", required=True, help='encoding like "4:FC"')
    p.add_argument("--pattern", help="pattern for the appearance count")
    p.set_defaults(func=_cmd_stats)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except PlanarLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
