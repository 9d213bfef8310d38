"""The benchmark's workloads: timed call sequences, output checks, traced replays.

Each workload has four steps.  ``prepare`` makes one instance's inputs.
``calls`` is the sequence a user runs; its wall time is the workload's
``wall_s``.  ``check`` compares the outputs against references taken on
the seed commit and returns the counts the outputs carry.  ``replay``
runs only in the traced pass: where a timed call hides the layers below
it, it calls those layers' public functions again, one span each, with
the arguments the hidden call uses.

Spans are recorded here, around calls into ``sparse_rips``; nothing is
added inside the package.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import time
from dataclasses import dataclass

import numpy as np

import sparse_rips as sr
from sparse_rips import cli
from sparse_rips import filtration as filt

import inputs
from inputs import BATTERY_SAMPLES, EPSILON, K

MB = 1e6


@dataclass
class Span:
    name: str
    call: str
    replay: bool
    seconds: float


class Tracer:
    """Spans of one workload's traced pass, kept in memory."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[Span] = []

    def _timed(self, name, replay, fn, args, kwargs):
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        self.spans.append(Span(name, fn.__qualname__, replay,
                               time.perf_counter() - t0))
        return result

    def call(self, name, fn, *args, **kwargs):
        """A call of the workload's own sequence."""
        return self._timed(name, False, fn, args, kwargs)

    def replay(self, name, fn, *args, **kwargs):
        """A call repeated to expose a layer that a sequence call hides."""
        return self._timed(name, True, fn, args, kwargs)

    def seconds(self, name: str) -> float:
        return sum(s.seconds for s in self.spans if s.name == name)

    def sequence_seconds(self) -> float:
        """Traced time of the sequence itself, replays left out."""
        return sum(s.seconds for s in self.spans if not s.replay)


class Untraced:
    """Stand-in tracer for the measured runs: calls pass straight through."""

    @staticmethod
    def call(name, fn, *args, **kwargs):
        return fn(*args, **kwargs)


UNTRACED = Untraced()


class Checks:
    """Counts checked operations and compares output digests.

    ``references`` maps ``"<workload>/n=<n>"`` to ``{instance: sha256}``.
    With ``references=None`` digests are only recorded, never compared.
    """

    def __init__(self, references: dict | None):
        self.references = references
        self.recorded: dict[str, dict[str, str]] = {}
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.messages.append(what)

    def digest_matches(self, key: str, instance: int, data: bytes) -> bool:
        digest = hashlib.sha256(data).hexdigest()
        self.recorded.setdefault(key, {})[str(instance)] = digest
        if self.references is None:
            return True
        want = self.references.get(key, {}).get(str(instance))
        if digest != want:
            self.messages.append(f"{key} instance {instance}: sha256 {digest} "
                                 f"!= reference {want}")
            return False
        return True


@dataclass
class Prepared:
    instance: int
    points: np.ndarray | None = None
    csv: str | None = None
    battery: list | None = None


class Pipeline:
    """README quick start: from_points, build_sparse, compute_persistence, JSON."""

    name = "pipeline"
    timed = ("persistence.reduce", "persistence.json")

    def __init__(self, n: int = inputs.PIPELINE_N):
        self.n = n
        self.key = f"{self.name}/n={n}"

    def prepare(self, instance: int, workdir: str) -> Prepared:
        return Prepared(instance, points=np.array(inputs.pipeline_points(instance, self.n)))

    def calls(self, prep: Prepared, tr=UNTRACED):
        m = tr.call("metric.from_points", sr.from_points, prep.points)
        f = tr.call("filtration.build_sparse", sr.build_sparse, m, EPSILON, K)
        dgm = tr.call("persistence.reduce", sr.compute_persistence, f)
        text = tr.call("persistence.json", sr.diagram_to_json, dgm)
        return f, dgm, text

    def check(self, prep: Prepared, out, checks: Checks) -> dict:
        f, dgm, text = out
        checks.expect(checks.digest_matches(self.key, prep.instance, text.encode()),
                      f"{self.name}: diagram JSON differs from the reference")
        return {"persistence.columns": sum(f.counts_by_dim()[1:]),
                "persistence.pairs_d0": len(dgm.in_dim(0)),
                "persistence.pairs_d1": len(dgm.in_dim(1))}

    def replay(self, prep, tr, checks, workdir) -> dict:
        return {}


class Roundtrip:
    """CLI ``build`` in-process on a CSV file, then ``read_filtration``."""

    name = "build_roundtrip"
    timed = ("cli.build", "filtration.read", "metric.load", "metric.ingest",
             "metric.distances", "greedy.permutation", "greedy.deletion",
             "filtration.edges", "filtration.cliques", "filtration.write",
             "filtration.max_degree")

    def __init__(self, n: int = inputs.ROUNDTRIP_N):
        self.n = n
        self.key = f"{self.name}/n={n}"

    def prepare(self, instance: int, workdir: str) -> Prepared:
        points = inputs.roundtrip_points(instance, self.n)
        path = os.path.join(workdir, f"points-{instance}.csv")
        with open(path, "w") as fh:
            fh.write(inputs.points_csv(points))
        return Prepared(instance, points=np.array(points), csv=path)

    @staticmethod
    def _out(workdir: str) -> str:
        return os.path.join(workdir, "filtration.txt")

    def calls(self, prep: Prepared, tr=UNTRACED):
        out = self._out(os.path.dirname(prep.csv))
        argv = ["build", "--input", prep.csv, "--epsilon", repr(EPSILON),
                "--k", str(K), "--seed", "0", "--out", out]
        with contextlib.redirect_stdout(io.StringIO()):
            code = tr.call("cli.build", cli.main, argv)
        back = tr.call("filtration.read", sr.read_filtration, out)
        return code, back

    def check(self, prep: Prepared, out, checks: Checks) -> dict:
        code, back = out
        with open(self._out(os.path.dirname(prep.csv)), "rb") as fh:
            data = fh.read()
        checks.expect(code == 0 and checks.digest_matches(self.key, prep.instance, data),
                      f"{self.name}: build exit {code} or file differs from the reference")
        written = sum(1 for line in data.splitlines() if line and not line.startswith(b"#"))
        checks.expect(len(back) == written,
                      f"{self.name}: read {len(back)} simplices, file has {written}")
        counts = {f"filtration.simplices_d{d}": c for d, c in enumerate(back.counts_by_dim())}
        counts["filtration.file_mb"] = len(data) / MB
        return counts

    def replay(self, prep: Prepared, tr: Tracer, checks: Checks, workdir: str) -> dict:
        """The stages hidden inside CLI ``build``, one span each."""
        tr.replay("metric.load", sr.load_points, prep.csv)
        m = tr.replay("metric.ingest", sr.from_points, prep.points)
        dmat = tr.replay("metric.distances", m.distance_matrix)
        gp = tr.replay("greedy.permutation", sr.greedy_permutation, m, seed=0)
        schedule = tr.replay("greedy.deletion", sr.deletion_times, gp, EPSILON)
        ctx = sr.WeightContext(epsilon=EPSILON, schedule=schedule, metric=m)
        edges = tr.replay("filtration.edges", sr.sparse_edges, m, ctx)
        f = tr.replay("filtration.cliques", sr.clique_expand, edges, m.n, K,
                      vertex_caps=schedule.t, kind=filt.KIND_SPARSE)
        copy = os.path.join(workdir, "replay.txt")
        tr.replay("filtration.write", sr.write_filtration, f, copy)
        tr.replay("filtration.max_degree", sr.max_edge_degree, m, ctx)
        with open(copy, "rb") as a, open(self._out(workdir), "rb") as b:
            checks.expect(a.read() == b.read(),
                          f"{self.name}: replayed stages wrote a different file")
        # computed after the timed calls, from the inputs
        t = schedule.t
        candidates = int(np.count_nonzero(np.triu(dmat <= np.minimum.outer(t, t), k=1)))
        return {"filtration.edges": len(edges),
                "relaxed.candidate_pairs": candidates,
                "relaxed.keep_ratio": len(edges) / candidates,
                "metric.matrix_mb": 8 * m.n * m.n / MB}


class Battery:
    """``run_battery`` on one small instance of each generator shape."""

    name = "verify_battery"
    timed = ("verify.interleaving", "verify.nets", "verify.betti",
             "verify.diagram_equality", "verify.c_approximation",
             "filtration.static", "persistence.betti", "filtration.full_rips",
             "filtration.relaxed_rips", "persistence.reduce_ref",
             "compare.equal", "compare.match")

    def __init__(self, n: int = inputs.BATTERY_N):
        self.n = n

    def prepare(self, instance: int, workdir: str) -> Prepared:
        return Prepared(instance, battery=[
            (shape, eps, np.array(points))
            for shape, eps, points in inputs.battery_instances(instance, self.n)])

    def calls(self, prep: Prepared, tr=UNTRACED):
        results = []
        for shape, eps, points in prep.battery:
            m = tr.call("metric.from_points", sr.from_points, points)
            results.append(tr.call("verify.run_battery", sr.run_battery, m, eps,
                                   k=K, samples=BATTERY_SAMPLES, seed=0))
        return results

    def check(self, prep: Prepared, out, checks: Checks) -> dict:
        failed = 0
        for (shape, eps, _), results in zip(prep.battery, out):
            for r in results:
                checks.expect(r.ok, f"{self.name} {shape} eps={eps:.4g}: {r.line()}")
                failed += not r.ok
        return {"verify.checks_failed": failed}

    def replay(self, prep: Prepared, tr: Tracer, checks: Checks, workdir: str) -> dict:
        """The five checks of ``run_battery``, then the blocks inside them."""
        reference_simplices = 0
        for shape, eps, points in prep.battery:
            m = tr.replay("metric.from_points", sr.from_points, points)
            ctx = tr.replay("relaxed.weight_context", sr.WeightContext.build, m, eps, seed=0)
            rng = np.random.default_rng(0)
            tr.replay("verify.interleaving", sr.check_interleaving, m, ctx, n_pairs=100, rng=rng)
            tr.replay("verify.nets", sr.check_nets, m, ctx, samples=BATTERY_SAMPLES, rng=rng)
            state = rng.bit_generator.state
            n_scales = max(4, BATTERY_SAMPLES // 2)
            tr.replay("verify.betti", sr.check_betti, m, ctx, k=K, samples=n_scales, rng=rng)
            tr.replay("verify.diagram_equality", sr.check_diagram_equality, m, ctx, k=K)
            tr.replay("verify.c_approximation", sr.check_c_approximation, m, ctx, k=K)

            # check_betti: the same scales, drawn from the same generator state
            rng = np.random.default_rng()
            rng.bit_generator.state = state
            finite = ctx.schedule.t[np.isfinite(ctx.schedule.t)]
            hi = float(finite.max()) * 1.1
            for _ in range(n_scales):
                alpha = float(rng.uniform(0.0, hi))
                q = tr.replay("filtration.static", sr.static_complex, m, ctx, alpha, "Q_open", K)
                r = tr.replay("filtration.static", sr.static_complex, m, ctx, alpha,
                              "relaxed_full", K)
                bq = tr.replay("persistence.betti", sr.betti_numbers, q)
                br = tr.replay("persistence.betti", sr.betti_numbers, r)
                checks.expect(bq == br, f"{self.name} {shape}: replayed Betti numbers differ")

            # check_diagram_equality and check_c_approximation: their reference
            # filtrations, reductions and comparisons
            sparse = tr.replay("filtration.build_sparse", sr.build_sparse, m, eps, K, seed=0)
            ds = tr.replay("persistence.reduce_sparse", sr.compute_persistence, sparse)
            births = tr.replay("relaxed.birth_matrix", sr.birth_matrix, m, ctx)
            top = float(births[np.isfinite(births)].max())
            relaxed = tr.replay("filtration.relaxed_rips", sr.relaxed_rips, m, ctx,
                                top * (1.0 + 1e-9) + 1e-12, K)
            diam = float(m.distance_matrix().max())
            full = tr.replay("filtration.full_rips", sr.full_rips, m,
                             diam * (1.0 + 1e-9) + 1e-12, K)
            dr = tr.replay("persistence.reduce_ref", sr.compute_persistence, relaxed)
            df = tr.replay("persistence.reduce_ref", sr.compute_persistence, full)
            equal = tr.replay("compare.equal", sr.diagram_equal, ds, dr)
            match = tr.replay("compare.match", sr.multiplicative_match, ds, df,
                              1.0 / (1.0 - 2.0 * eps))
            checks.expect(equal and match.ok,
                          f"{self.name} {shape}: replayed diagram comparisons failed")
            reference_simplices += len(relaxed) + len(full)
        return {"filtration.reference_simplices": reference_simplices}


def suite(pipeline_n: int = inputs.PIPELINE_N, roundtrip_n: int = inputs.ROUNDTRIP_N,
          battery_n: int = inputs.BATTERY_N) -> dict:
    """The three workloads by name, at the benchmark's sizes by default."""
    return {w.name: w for w in (Pipeline(pipeline_n), Roundtrip(roundtrip_n),
                                Battery(battery_n))}

