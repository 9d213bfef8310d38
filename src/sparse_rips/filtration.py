"""Filtration construction.

Builds the sparse clique filtration (edges filtered by deletion times,
simplices admitted while all their vertices are alive) together with the
two reference filtrations used to check it: the full Vietoris-Rips
filtration and the relaxed Vietoris-Rips filtration on all points.
Static snapshots for rank comparisons are constant-0 filtrations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .greedy import net_at
from .metric import MetricInput
from .relaxed import WeightContext, birth_matrix, weight_batch

KIND_SPARSE = "sparse_S"
KIND_FULL = "full_rips"
KIND_RELAXED = "relaxed_rips"

STATIC_KINDS = ("Q_open", "Q_closed", "relaxed_full")


class MalformedFiltrationError(ValueError):
    """A filtration breaks the order, value or face rules of its format."""


@dataclass(frozen=True, slots=True)
class FilteredSimplex:
    """A simplex (strictly increasing vertex tuple) with its birth scale."""

    vertices: tuple[int, ...]
    value: float

    @property
    def dim(self) -> int:
        return len(self.vertices) - 1


@dataclass(frozen=True)
class SparseFiltration:
    """Simplices sorted by (value, dimension, vertex order).

    The sort key guarantees that every face appears before its cofaces,
    even among simplices sharing a birth value.  Vertices always appear
    with value 0.
    """

    simplices: list[FilteredSimplex]
    k: int
    kind: str
    alpha_max: float | None = None

    def __len__(self) -> int:
        return len(self.simplices)

    def counts_by_dim(self) -> list[int]:
        counts = [0] * (self.k + 1)
        for s in self.simplices:
            counts[s.dim] += 1
        return counts


def _edges_within(values: np.ndarray, cap) -> list[tuple[int, int, float]]:
    """Pairs p < q with values[p, q] <= cap (a scalar or broadcast array),
    in row-major order, as Python (int, int, float) tuples."""
    iu, ju = np.nonzero(np.triu(values <= cap, k=1))
    return list(zip(iu.tolist(), ju.tolist(), values[iu, ju].tolist()))


def sparse_edges(m: MetricInput, ctx: WeightContext) -> list[tuple[int, int, float]]:
    """Edges of the sparse filtration with their birth scales.

    A pair (p, q) is kept iff its relaxed birth scale is at most
    min(t_p, t_q), i.e. the edge condition is met while both endpoints
    are still present.  Brute force over all pairs.
    """
    births = birth_matrix(m, ctx, within_deletion_caps=True)
    t = ctx.schedule.t
    return _edges_within(births, np.minimum(t[:, None], t[None, :]))


def clique_expand(edges, n: int, k: int, vertex_caps=None,
                  kind: str = KIND_SPARSE, alpha_max: float | None = None,
                  vertices=None) -> SparseFiltration:
    """Clique (flag) filtration of an edge list with birth scales.

    Every clique of at most k + 1 vertices enters at the maximum of its
    edge births.  With ``vertex_caps`` a clique is admitted only while
    all its vertices are alive: max edge birth <= min vertex cap.  The
    admission test is monotone under taking cofaces, so rejected cliques
    prune their entire extension subtree.
    """
    if k < 1:
        raise ValueError("dimension cap k must be >= 1")
    verts = list(range(n)) if vertices is None else sorted(int(v) for v in vertices)
    vset = set(verts)

    birth: dict[tuple[int, int], float] = {}
    adj: dict[int, set[int]] = {v: set() for v in verts}
    for p, q, b in edges:
        if p == q:
            raise ValueError(f"degenerate edge ({p}, {q})")
        if p > q:
            p, q = q, p
        if p not in vset or q not in vset:
            continue
        if (p, q) in birth:
            raise ValueError(f"duplicate edge ({p}, {q})")
        birth[(p, q)] = float(b)
        adj[p].add(q)
        adj[q].add(p)

    caps = None if vertex_caps is None else np.asarray(vertex_caps, dtype=float)
    out = [FilteredSimplex((v,), 0.0) for v in verts]

    def extend(clique: tuple[int, ...], value: float, cap: float, cands):
        for i, u in enumerate(cands):
            v = value
            for w in clique:
                b = birth[(w, u) if w < u else (u, w)]
                if b > v:
                    v = b
            c = cap if caps is None else min(cap, caps[u])
            if caps is not None and v > c:
                continue
            sigma = clique + (u,)
            out.append(FilteredSimplex(sigma, v))
            if len(sigma) <= k:
                extend(sigma, v, c, [w for w in cands[i + 1:] if w in adj[u]])

    for (p, q), b in sorted(birth.items()):
        cap = math.inf if caps is None else min(caps[p], caps[q])
        if caps is not None and b > cap:
            continue
        out.append(FilteredSimplex((p, q), b))
        if k >= 2:
            extend((p, q), b, cap, sorted(w for w in adj[p] & adj[q] if w > q))

    out.sort(key=lambda s: (s.value, len(s.vertices), s.vertices))
    return SparseFiltration(simplices=out, k=k, kind=kind, alpha_max=alpha_max)


def build_sparse(m: MetricInput, epsilon: float, k: int,
                 seed: int = 0) -> SparseFiltration:
    """End-to-end sparse filtration: greedy order, deletion times, edges, cliques."""
    return build_sparse_from_context(m, WeightContext.build(m, epsilon, seed=seed), k)


def full_rips(m: MetricInput, alpha_max: float, k: int) -> SparseFiltration:
    """Reference Vietoris-Rips filtration: simplex value = diameter.

    Simplices with diameter above ``alpha_max`` are omitted; the full
    untruncated k-skeleton is Theta(n^(k+1)), so keep n small.
    """
    if alpha_max <= 0:
        raise ValueError("alpha_max must be positive")
    edges = _edges_within(m.distance_matrix(), alpha_max)
    return clique_expand(edges, m.n, k, kind=KIND_FULL, alpha_max=float(alpha_max))


def relaxed_rips(m: MetricInput, ctx: WeightContext, alpha_max: float,
                 k: int) -> SparseFiltration:
    """Reference relaxed Vietoris-Rips filtration on all points.

    Edge value is the relaxed birth scale with no deletion filter;
    higher simplices enter at the maximum of their edge values.
    """
    if alpha_max <= 0:
        raise ValueError("alpha_max must be positive")
    edges = _edges_within(birth_matrix(m, ctx, within_deletion_caps=False), alpha_max)
    return clique_expand(edges, m.n, k, kind=KIND_RELAXED, alpha_max=float(alpha_max))


def static_complex(m: MetricInput, ctx: WeightContext, alpha: float,
                   kind: str, k: int) -> SparseFiltration:
    """Snapshot complex at scale alpha, as a constant-0 filtration.

    Vertex set: the open net for Q_open, the closed net for Q_closed,
    all points for relaxed_full.  Simplices are the cliques of the graph
    {(p, q) : relaxed distance at alpha <= alpha} on that vertex set,
    every one with value 0.0; ``kind`` is the snapshot kind.
    """
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    if kind not in STATIC_KINDS:
        raise ValueError(f"kind must be one of {STATIC_KINDS}, got {kind!r}")
    if kind == "relaxed_full":
        verts = np.arange(m.n)
    else:
        verts = net_at(ctx.schedule, alpha, closed=(kind == "Q_closed"))

    dmat = m.distance_matrix()
    w = weight_batch(alpha, ctx.schedule.t, ctx.epsilon)
    rel = dmat[np.ix_(verts, verts)] + w[verts, None] + w[None, verts]
    vl = verts.tolist()
    edges = [(vl[i], vl[j], 0.0) for i, j, _ in _edges_within(rel, alpha)]
    return clique_expand(edges, m.n, k, kind=kind, vertices=vl)


def validate_filtration(f: SparseFiltration) -> list[tuple[int, ...]]:
    """Check a filtration and return the facet indices of each simplex.

    Raises MalformedFiltrationError unless every simplex has strictly
    increasing vertices, dimension <= k and a finite value >= 0; the
    simplices are sorted by (value, dimension, vertex order) without
    duplicates; vertices have value 0; and every facet of a simplex is
    listed before it.  Entry i of the result holds the positions of the
    facets of simplex i (empty for a vertex): the boundary column of
    simplex i over GF(2).
    """
    index: dict[tuple[int, ...], int] = {}
    facets: list[tuple[int, ...]] = []
    prev_key = None
    for i, s in enumerate(f.simplices):
        verts = s.vertices
        if list(verts) != sorted(set(verts)):
            raise MalformedFiltrationError(
                f"vertices not strictly increasing: {verts}")
        if s.dim > f.k:
            raise MalformedFiltrationError(
                f"simplex {verts} exceeds dimension cap {f.k}")
        if not (s.value >= 0 and math.isfinite(s.value)):
            raise MalformedFiltrationError(f"bad value {s.value} for simplex {verts}")
        key = (s.value, len(verts), verts)
        if prev_key is not None and key < prev_key:
            raise MalformedFiltrationError(f"simplices out of order at position {i}")
        prev_key = key
        if verts in index:
            raise MalformedFiltrationError(f"duplicate simplex {verts}")
        index[verts] = i
        if len(verts) == 1 and s.value != 0.0:
            raise MalformedFiltrationError(
                f"vertex {verts} has nonzero value {s.value}")
        # with the order above, a face listed before its coface is born no later
        faces = []
        for v in range(len(verts)) if len(verts) > 1 else ():
            face = verts[:v] + verts[v + 1:]
            j = index.get(face)
            if j is None:
                raise MalformedFiltrationError(
                    f"missing face {face} before simplex {verts}")
            faces.append(j)
        facets.append(tuple(faces))  # smaller than a list: one per simplex
    return facets


# --- degree and size accounting -----------------------------------------

def charged_degrees(edges, t: np.ndarray) -> np.ndarray:
    """Per-point count of the sparse edges charged to it.

    An edge counts for its endpoint with the smaller deletion time, and
    for both endpoints on a tie: degrees[p] = #{q : t_p <= t_q and
    birth(p, q) <= t_p}, since a sparse edge has birth <= min(t_p, t_q).
    """
    deg = np.zeros(len(t), dtype=np.int64)
    if edges:
        p, q = np.array([(p, q) for p, q, _ in edges]).T
        np.add.at(deg, p, t[p] <= t[q])
        np.add.at(deg, q, t[q] <= t[p])
    return deg


def max_edge_degree(m: MetricInput, ctx: WeightContext) -> int:
    return int(charged_degrees(sparse_edges(m, ctx), ctx.schedule.t).max()) if m.n else 0


@dataclass(frozen=True)
class SizeStats:
    counts_by_dim: tuple[int, ...]
    max_degree: int

    @property
    def total(self) -> int:
        return sum(self.counts_by_dim)


def sparse_size_stats(m: MetricInput, ctx: WeightContext, k: int) -> SizeStats:
    """Simplex counts of the sparse filtration without materializing it.

    Counts each simplex at its vertex of minimum deletion time (smallest
    index on ties); a simplex rooted at p consists of later points q, r,
    ... whose pairwise births are all <= t_p.  Fast paths cover k <= 2;
    larger k expands the sparse edges, which also give the degrees.
    """
    n = m.n
    t = ctx.schedule.t
    if k > 2:
        edges = sparse_edges(m, ctx)
        filt = clique_expand(edges, n, k, vertex_caps=t)
        return SizeStats(counts_by_dim=tuple(filt.counts_by_dim()),
                         max_degree=int(charged_degrees(edges, t).max()) if n else 0)
    births = birth_matrix(m, ctx, within_deletion_caps=True)
    order = np.arange(n)
    # strict "later than p" relation with index tie-break
    later = (t[None, :] > t[:, None]) | ((t[None, :] == t[:, None])
                                         & (order[None, :] > order[:, None]))
    rooted = (births <= t[:, None]) & later
    n_edges = int(rooted.sum())
    counts = [n, n_edges]
    if k >= 2:
        n_tri = 0
        for p in range(n):
            nb = np.flatnonzero(rooted[p])
            if len(nb) >= 2:
                sub = births[np.ix_(nb, nb)] <= t[p]
                n_tri += int(np.triu(sub, k=1).sum())
        counts.append(n_tri)
    keep = (births <= t[:, None]) & (t[None, :] >= t[:, None])
    np.fill_diagonal(keep, False)
    return SizeStats(counts_by_dim=tuple(counts),
                     max_degree=int(keep.sum(axis=1).max()) if n else 0)


def build_sparse_from_context(m: MetricInput, ctx: WeightContext,
                              k: int) -> SparseFiltration:
    """build_sparse variant reusing an existing WeightContext."""
    edges = sparse_edges(m, ctx)
    return clique_expand(edges, m.n, k, vertex_caps=ctx.schedule.t, kind=KIND_SPARSE)


# --- text format ---------------------------------------------------------

def filtration_text(f: SparseFiltration) -> str:
    """Text format: one ``value v0 v1 ... vd`` line per simplex.

    A leading comment line records k / kind / alpha_max so that the file
    round-trips; readers that ignore comments still get valid data.
    """
    amax = "none" if f.alpha_max is None else repr(float(f.alpha_max))
    lines = [f"# k={f.k} kind={f.kind} alpha_max={amax}"]
    for s in f.simplices:
        lines.append(" ".join([repr(float(s.value))] + [str(v) for v in s.vertices]))
    return "\n".join(lines) + "\n"


def write_filtration(f: SparseFiltration, path) -> None:
    """Write :func:`filtration_text` to ``path``."""
    with open(path, "w") as fh:
        fh.write(filtration_text(f))


def read_filtration(path) -> SparseFiltration:
    """Read the text format written by :func:`write_filtration`."""
    k = None
    kind = KIND_SPARSE
    alpha_max = None
    sims: list[FilteredSimplex] = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                for tok in line[1:].split():
                    key, _, val = tok.partition("=")
                    if key == "k":
                        k = int(val)
                    elif key == "kind":
                        kind = val
                    elif key == "alpha_max" and val != "none":
                        alpha_max = float(val)
                continue
            parts = line.split()
            if len(parts) < 2:
                raise ValueError(f"{path}: malformed line {lineno}: {line!r}")
            try:
                value = float(parts[0])
                verts = tuple(int(v) for v in parts[1:])
            except ValueError:
                raise ValueError(f"{path}: malformed line {lineno}: {line!r}") from None
            sims.append(FilteredSimplex(verts, value))
    if not sims:
        raise ValueError(f"{path}: empty filtration")
    if k is None:
        k = max(s.dim for s in sims)
    return SparseFiltration(simplices=sims, k=k, kind=kind, alpha_max=alpha_max)
