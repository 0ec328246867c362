"""Command-line interface.

Subcommands: enumerate, sample, verify, experiment, stats.  Pattern arguments
accept the presets vertex, edge, triangle, k4, path<k>, cycle<k>, star<k>
(<k> counts vertices) or a raw "n:HEX" encoding.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import census as census_mod
from . import lab
from .errors import InvalidArgumentError, IoFailureError, PlanarLabError
from .graphs import decode
from .patterns import pattern_from_name
from .sampler import sample_many
from .verify import verify_class


def _parse_int_list(text: str) -> list[int]:
    """Integers and ascending ranges "lo-hi", comma-separated; at least one."""
    out: list[int] = []
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
        out.extend(range(lo, hi + 1))
    if not out:
        raise InvalidArgumentError(f"integer list {text!r} names no integer")
    return out


def _write_text(path, text: str) -> None:
    """Write an ``--out`` file; a failed write is an IoFailureError."""
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise IoFailureError(str(exc)) from exc


def _cmd_enumerate(args) -> int:
    store = census_mod.build_census(
        args.n, [args.m], store_graphs=args.store, budget=args.budget
    )
    record = store.get(args.n, args.m)
    if args.out:
        census_mod.save_census(store, args.out)
        print(f"wrote {args.out}: {args.n} {args.m} {record.count}")
    else:
        print(f"{args.n} {args.m} {record.count}")
        if args.store and record.graphs:
            for enc in record.graphs:
                print(f"  {enc}")
    return 0


def _cmd_sample(args) -> int:
    census_mod._check_budget(args.budget)  # whatever the method, before any work
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
    lines = "\n".join(batch.samples)
    if args.out:
        _write_text(args.out, lines + ("\n" if lines else ""))
    else:
        if lines:
            print(lines)
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
    if args.out:
        _write_text(args.out, text)
    else:
        print(text, end="")
    return 1 if failures else 0


def _cmd_experiment(args) -> int:
    n_values = _parse_int_list(args.n_list)
    events = tuple(lab.parse_event(tok) for tok in args.events.split(","))
    grid: list[tuple[int, int]] = []
    for n in n_values:
        if args.m_list == "all":
            ms = range(census_mod.max_planar_edges(n) + 1)
        else:
            ms = _parse_int_list(args.m_list)
        grid.extend((n, m) for m in ms)
    spec = lab.ExperimentSpec(
        grid=tuple(grid),
        events=events,
        method=args.method,
        k=args.k,
        seed=args.seed,
    )
    result = lab.phase_table(spec)
    text = result.to_csv()
    if args.out:
        _write_text(args.out, text)
        print(f"wrote {args.out}: {len(result.rows)} rows")
    else:
        print(text, end="")
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
    p.add_argument("--census", help="reuse stored graphs from this census file")
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
