"""Command-line front end.

Subcommands: ``build`` (sparse filtration file), ``persist`` (diagram
from a filtration file or built in-process), ``verify`` (run the check
battery on an input), ``stats`` (size-scaling table).  Exit codes:
0 success, 1 data or computation error, 2 usage error.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

from . import filtration as filt
from . import metric as met
from .generators import GENERATORS
from .greedy import _schedule_csv, deletion_times, greedy_permutation
from .persistence import compute_persistence, diagram_to_csv, diagram_to_json
from .relaxed import WeightContext
from .verify import OracleSizeError, run_battery

EXIT_OK = 0
EXIT_DATA = 1
EXIT_USAGE = 2


def _atomic_write(path: str, content) -> None:
    """Write ``content``, a str or an iterable of bytes chunks, to a new
    file beside ``path`` that replaces ``path`` once it is whole, so a
    failed write leaves ``path`` as it was.  The file gets the mode that
    ``open`` would give it: 0o666 less the umask."""
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f".tmp-{os.urandom(8).hex()}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)   # never an existing file
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.writelines([content.encode()] if isinstance(content, str) else content)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _load_input(args) -> met.MetricInput:
    if args.metric == "matrix":
        return met.load_matrix(args.input, fmt=args.format, header=args.header)
    return met.load_points(args.input, fmt=args.format, header=args.header,
                           metric_kind=args.metric)


def _add_input_opts(p: argparse.ArgumentParser, required: bool = True) -> None:
    p.add_argument("--input", required=required, help="point or matrix file")
    p.add_argument("--format", choices=["csv", "whitespace"], default="csv")
    p.add_argument("--header", action="store_true", help="skip the first line")
    p.add_argument("--metric",
                   choices=["euclidean", "manhattan", "chebyshev", "matrix"],
                   default="euclidean")


def _check_epsilon(parser, epsilon: float) -> None:
    if not (0.0 < epsilon <= 1.0 / 3.0):
        parser.error(f"--epsilon must be in (0, 1/3], got {epsilon}")


def _check_count(parser, option: str, value: int) -> None:
    if value < 1:
        parser.error(f"{option} must be >= 1, got {value}")


def _check_seed(m: met.MetricInput, seed: int) -> None:
    """The greedy seed indexes the points left after deduplication."""
    if not (0 <= seed < m.n):
        raise ValueError(f"--seed {seed} out of range for n={m.n}")


def cmd_build(parser, args) -> int:
    _check_epsilon(parser, args.epsilon)
    _check_count(parser, "--k", args.k)
    m = _load_input(args)
    _check_seed(m, args.seed)
    t0 = time.perf_counter()
    gp = greedy_permutation(m, seed=args.seed)
    schedule = deletion_times(gp, args.epsilon)
    ctx = WeightContext(epsilon=args.epsilon, schedule=schedule, metric=m)
    edges = filt.sparse_edges(m, ctx)
    f = filt.clique_expand(edges, m.n, args.k, vertex_caps=schedule.t)
    elapsed = time.perf_counter() - t0

    _atomic_write(args.out, filt._filtration_chunks(f))
    if args.schedule_out:
        _atomic_write(args.schedule_out, _schedule_csv(gp, schedule))

    counts = f.counts_by_dim()
    print(f"n={m.n} epsilon={args.epsilon} k={args.k} seed={args.seed}")
    for d, c in enumerate(counts):
        print(f"  dim {d}: {c} simplices")
    print(f"  total: {len(f)} simplices")
    print(f"  max |E(p)|: {filt.charged_degrees(edges, schedule.t).max()}")
    print(f"  wall time: {elapsed:.3f}s")
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_persist(parser, args) -> int:
    if bool(args.filtration) == bool(args.input):
        parser.error("exactly one of --filtration or --input is required")
    # each source takes only its own options, so none is silently dropped
    source, own = (("--filtration", ()) if args.filtration else
                   ("--full", ("--full", "--alpha-max", "--k")) if args.full else
                   ("a sparse build", ("--epsilon", "--k", "--seed")))
    for option, value in (("--full", args.full or None), ("--alpha-max", args.alpha_max),
                          ("--epsilon", args.epsilon), ("--k", args.k), ("--seed", args.seed)):
        if value is not None and option not in own:
            parser.error(f"{option} does not go with {source}")
    if args.filtration:
        f = filt.read_filtration(args.filtration)
    else:   # every usage error before the input is read
        k = 2 if args.k is None else args.k
        _check_count(parser, "--k", k)
        if args.full:
            if args.alpha_max is None or not args.alpha_max > 0:
                parser.error("--full requires a positive --alpha-max")
        elif args.epsilon is None:
            parser.error("building in-process requires --epsilon")
        else:
            _check_epsilon(parser, args.epsilon)
        m = _load_input(args)
        if args.full:
            f = filt.full_rips(m, args.alpha_max, k)
        else:
            seed = 0 if args.seed is None else args.seed
            _check_seed(m, seed)
            f = filt.build_sparse(m, args.epsilon, k, seed=seed)
    dgm = compute_persistence(f, keep_zero_pairs=args.keep_zero_pairs)
    text = diagram_to_csv(dgm) if args.csv else diagram_to_json(dgm) + "\n"
    _atomic_write(args.out, text)
    for d in range(dgm.k):
        print(f"  H{d}: {len(dgm.in_dim(d))} pairs")
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_verify(parser, args) -> int:
    _check_epsilon(parser, args.epsilon)
    _check_count(parser, "--k", args.k)
    _check_count(parser, "--samples", args.samples)
    m = _load_input(args)
    _check_seed(m, args.seed)
    try:
        results = run_battery(m, args.epsilon, k=args.k, samples=args.samples,
                              seed=args.seed, force=args.force)
    except OracleSizeError as exc:
        print(f"refusing: {exc}", file=sys.stderr)
        return EXIT_USAGE
    failed = False
    for r in results:
        print(r.line())
        failed |= not r.ok
    return EXIT_DATA if failed else EXIT_OK


def cmd_stats(parser, args) -> int:
    _check_epsilon(parser, args.epsilon)
    _check_count(parser, "--k", args.k)
    _check_count(parser, "--trials", args.trials)
    if args.seed < 0:   # numpy's seed error would name no option
        parser.error(f"--seed must be >= 0, got {args.seed}")
    if args.generator not in GENERATORS:
        parser.error(f"unknown generator {args.generator!r}; "
                     f"choose from {sorted(GENERATORS)}")
    try:
        sizes = [int(x) for x in args.n.split(",") if x.strip()]
    except ValueError:
        parser.error(f"--n must be a comma-separated list of integers, got {args.n!r}")
    if not sizes or any(s < 1 for s in sizes):
        parser.error("--n sizes must be positive")
    gen = GENERATORS[args.generator]
    rows = ["n,epsilon,k,simplex_count,max_degree,seconds"]
    for n in sizes:
        for trial in range(args.trials):
            rng = np.random.default_rng([args.seed, n, trial])
            pts = gen(n, rng)
            t0 = time.perf_counter()
            m = met.from_points(pts)
            ctx = WeightContext.build(m, args.epsilon, seed=0)
            stats = filt.sparse_size_stats(m, ctx, args.k)
            elapsed = time.perf_counter() - t0
            rows.append(f"{n},{args.epsilon},{args.k},{stats.total},"
                        f"{stats.max_degree},{elapsed:.4f}")
            print(rows[-1])
    _atomic_write(args.out, "\n".join(rows) + "\n")
    print(f"wrote {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sparse-rips",
        description="Sparse Vietoris-Rips filtrations, persistence, and checks")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="build the sparse filtration")
    _add_input_opts(p)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--seed", type=int, default=0, help="greedy seed point index")
    p.add_argument("--out", required=True)
    p.add_argument("--schedule-out", default=None,
                   help="also write the deletion schedule CSV")

    p = sub.add_parser("persist", help="compute a persistence diagram")
    p.add_argument("--filtration", default=None, help="filtration text file")
    _add_input_opts(p, required=False)
    p.add_argument("--full", action="store_true",
                   help="build the full Vietoris-Rips filtration in-process")
    p.add_argument("--alpha-max", type=float, default=None, help="scale cap, with --full only")
    p.add_argument("--epsilon", type=float, default=None, help="sparse build, without --full")
    p.add_argument("--k", type=int, default=None,
                   help="dimension cap of an in-process build (default 2)")
    p.add_argument("--seed", type=int, default=None,
                   help="greedy seed of a sparse build (default 0)")
    p.add_argument("--keep-zero-pairs", action="store_true")
    p.add_argument("--csv", action="store_true", help="write CSV instead of JSON")
    p.add_argument("--out", required=True)

    p = sub.add_parser("verify", help="run the guarantee checks on an input")
    _add_input_opts(p)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--samples", type=int, default=16)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--force", action="store_true",
                   help="override the size guard for the reference filtrations")

    p = sub.add_parser("stats", help="size-scaling table on synthetic inputs")
    p.add_argument("--generator", required=True)
    p.add_argument("--n", required=True, help="comma-separated sizes")
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    commands = {
        "build": cmd_build,
        "persist": cmd_persist,
        "verify": cmd_verify,
        "stats": cmd_stats,
    }
    try:
        return commands[args.command](parser, args)
    except (met.MetricFormatError, filt.MalformedFiltrationError, ValueError,
            OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
