"""Size sweep on uniform 2-D points: per-stage seconds, simplices and peak RSS.

    python3 perfbench/sweep.py --n 1000,2000,4000

Prints the table of ROADMAP's open items for each n, at the benchmark's
eps = 1/3 and k = 2: simplices of ``build_sparse``, seconds of ingest and
the greedy permutation (with the distance matrix), of edge births and
extraction (``sparse_edges``), of clique expansion and of the reduction
(only up to ``REDUCE_MAX_N`` points), and peak RSS after the edges and at
the end.  Each n runs in its own process, one at a time, so each peak RSS is
its own.  This report is not gated and has no bounds.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time

from run import CHILD_TIMEOUT, SRC, THREAD_VARS

#: larger sizes skip the reduction, which would take minutes
REDUCE_MAX_N = 4000


def rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def single(n: int) -> dict:
    sys.path.insert(0, str(SRC))
    import numpy as np
    import sparse_rips as sr
    from sparse_rips import filtration as filt
    import inputs

    row: dict = {"n": n}
    points = np.array(inputs.uniform(n, 2, inputs.seeded_rng("sweep", n, 0)))
    t0 = time.perf_counter()
    m = sr.from_points(points)
    ctx = sr.WeightContext.build(m, inputs.EPSILON, seed=0)
    t1 = time.perf_counter()
    edges = sr.sparse_edges(m, ctx)
    t2 = time.perf_counter()
    row["rss_edges_mb"] = rss_mb()
    f = sr.clique_expand(edges, m.n, inputs.K, vertex_caps=ctx.schedule.t, kind=filt.KIND_SPARSE)
    t3 = time.perf_counter()
    row.update(simplices=len(f), greedy_s=t1 - t0, edges_s=t2 - t1, cliques_s=t3 - t2)
    if n <= REDUCE_MAX_N:
        sr.compute_persistence(f)
        row["reduce_s"] = time.perf_counter() - t3
    row["rss_peak_mb"] = rss_mb()
    return row


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", default="1000,2000", help="comma-separated sizes")
    parser.add_argument("--single", type=int, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if args.single is not None:
        print(json.dumps(single(args.single)))
        return 0

    sizes = [int(x) for x in args.n.split(",") if x.strip()]
    print("uniform 2-D, epsilon=1/3, k=2, seed=0")
    print("| n | simplices | ingest+greedy | edges+births | cliques | reduction "
          "| peak RSS (edges) | peak RSS |")
    print("|---|---|---|---|---|---|---|---|")
    for n in sizes:
        cmd = [sys.executable, os.path.abspath(__file__), "--single", str(n)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=True,
                              timeout=CHILD_TIMEOUT)
        row = json.loads(proc.stdout.splitlines()[-1])
        reduction = f"{row['reduce_s']:.2f} s" if "reduce_s" in row else "-"
        print(f"| {n} | {row['simplices']} | {row['greedy_s']:.2f} s | {row['edges_s']:.2f} s "
              f"| {row['cliques_s']:.2f} s | {reduction} | {row['rss_edges_mb']:.0f} MB "
              f"| {row['rss_peak_mb']:.0f} MB |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
