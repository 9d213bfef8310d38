"""Filtration construction.

Builds the sparse clique filtration (edges filtered by deletion times,
simplices admitted while all their vertices are alive) together with the
two reference filtrations used to check it: the full Vietoris-Rips
filtration and the relaxed Vietoris-Rips filtration on all points.
Static snapshots for rank comparisons are constant-0 filtrations.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain

import numpy as np
from scipy.spatial import cKDTree

from .greedy import net_at
from .metric import EXPLICIT_MATRIX, MetricInput
from .relaxed import WeightContext, _births_within_caps, birth_matrix, weight_batch

KIND_SPARSE = "sparse_S"
KIND_FULL = "full_rips"
KIND_RELAXED = "relaxed_rips"

STATIC_KINDS = ("Q_open", "Q_closed", "relaxed_full")


class MalformedFiltrationError(ValueError):
    """A filtration breaks the order, value or face rules of its format."""


@dataclass(frozen=True, eq=False)
class SparseFiltration:
    """Simplices of dimension 0..k: ``vertices[d]``, an int64 (m_d, d + 1)
    array of strictly increasing rows, and ``values[d]``, their float64
    births.  Each dimension is sorted by (value, vertex order), which is
    the global order (value, dimension, vertex order) restricted to it.
    Vertices always have value 0.  The arrays are made read-only on
    construction, so the cached :attr:`facets` cannot go stale."""

    vertices: tuple[np.ndarray, ...]
    values: tuple[np.ndarray, ...]
    k: int
    kind: str
    alpha_max: float | None = None

    def __post_init__(self):
        for a in (*self.vertices, *self.values):
            a.setflags(write=False)

    @classmethod
    def from_simplices(cls, pairs, k: int, kind: str,
                       alpha_max: float | None = None) -> "SparseFiltration":
        """Filtration of (vertex tuple, value) pairs listed in the global order;
        MalformedFiltrationError at the first pair out of that order."""
        pairs = list(pairs)
        return cls._from_flat(np.array([v for _, v in pairs], dtype=float),
                              np.array([len(s) for s, _ in pairs], dtype=np.int64),
                              list(chain.from_iterable(s for s, _ in pairs)),
                              k, kind, alpha_max)

    @classmethod
    def _from_flat(cls, values: np.ndarray, sizes: np.ndarray, labels, k: int,
                   kind: str, alpha_max: float | None) -> "SparseFiltration":
        """Filtration of simplices listed in the global order: simplex i has
        value ``values[i]`` and the next ``sizes[i]`` entries of ``labels``
        as its vertices.  MalformedFiltrationError at the first simplex out
        of that order."""
        try:
            labels = np.asarray(labels, dtype=np.int64)
        except OverflowError:
            raise MalformedFiltrationError("vertex label outside the int64 range") from None
        dims = sizes - 1
        _reject(dims < 0, lambda i: f"empty simplex at position {i}")
        first = np.cumsum(sizes) - sizes   # position in labels of each simplex's first vertex
        where = [np.flatnonzero(dims == d) for d in range(max(k, dims.max(initial=0)) + 1)]
        rows = [labels[first[pos, None] + np.arange(d + 1)] for d, pos in enumerate(where)]
        bad = np.r_[False, _order_breaks(dims[:, None], values)]   # by (value, dim)
        for pos, r in zip(where, rows):   # then by vertices: the first True is the first break
            bad[pos[1:]] |= _order_breaks(r, values[pos])
        _reject(bad, lambda i: f"simplices out of order at position {i}")
        return cls(tuple(rows), tuple(values[pos] for pos in where), k, kind, alpha_max)

    @cached_property
    def facets(self) -> list[np.ndarray]:
        """The checks and the result of :func:`validate_filtration`, run once."""
        return _facets(self)

    def simplices(self) -> list[tuple[tuple[int, ...], float]]:
        """(vertex tuple, value) pairs in the global order."""
        rows = [r for v in self.vertices for r in map(tuple, v.tolist())]
        values = np.concatenate(self.values).tolist()
        return [(rows[i], values[i]) for i in self._merge_order().tolist()]

    def _merge_order(self) -> np.ndarray:
        """The global order: a stable merge of the dimensions on (value, dimension)."""
        dims = np.repeat(np.arange(len(self.values)), self.counts_by_dim())
        return np.lexsort((dims, np.concatenate(self.values)))

    def __len__(self) -> int:
        return sum(len(v) for v in self.values)

    def counts_by_dim(self) -> list[int]:
        return [len(v) for v in self.values]


def _reject(bad: np.ndarray, message, error=MalformedFiltrationError) -> None:
    """Raise ``error(message(i))`` at the first True entry i of ``bad``."""
    if bad.any():
        raise error(message(int(np.argmax(bad))))


def _order_breaks(rows: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Entry j: simplex j + 1 sorts before simplex j by (value, vertex order)."""
    a, b = rows[1:], rows[:-1]
    first = (a != b).argmax(axis=1)[:, None]   # 0 for equal rows, which are not less
    less = (np.take_along_axis(a, first, 1) < np.take_along_axis(b, first, 1))[:, 0]
    return (values[1:] < values[:-1]) | ((values[1:] == values[:-1]) & less)


def _find_rows(table: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Index in ``table`` of each row of ``queries``, -1 where absent.  Whole
    rows are compared, so no label can overflow a packed key; the stable
    sort puts a table row just before the queries equal to it."""
    both = np.concatenate([table, queries])
    order = np.lexsort(both.T[::-1])
    in_table = order < len(table)
    last = np.maximum.accumulate(np.where(in_table, np.arange(len(order)), -1))[~in_table]
    cand, query = order[np.maximum(last, 0)], order[~in_table]
    hit = last >= 0
    for j in range(both.shape[1]):
        hit &= both[cand, j] == both[query, j]
    found = np.full(len(queries), -1, dtype=np.int64)
    found[query[hit] - len(table)] = cand[hit]
    return found


def _edges_within(values: np.ndarray, cap) -> list[tuple[int, int, float]]:
    """Pairs p < q with values[p, q] <= cap (a scalar or broadcast array),
    in row-major order, as Python (int, int, float) tuples."""
    iu, ju = np.nonzero(np.triu(values <= cap, k=1))
    return list(zip(iu.tolist(), ju.tolist(), values[iu, ju].tolist()))


def sparse_edges(m: MetricInput, ctx: WeightContext) -> list[tuple[int, int, float]]:
    """Edges of the sparse filtration with their birth scales.

    A pair (p, q) is kept iff its relaxed birth scale is at most
    min(t_p, t_q), i.e. the edge condition is met while both endpoints
    are still present.  Births are computed only for the pairs of
    :func:`_candidate_pairs` that can meet it, lower index first, as in
    :func:`birth_matrix`.
    """
    t = ctx.schedule.t
    a, b, d = _candidate_pairs(m, t)
    at, births = _births_within_caps(d, t[a], t[b], ctx.epsilon)
    return list(zip(a[at].tolist(), b[at].tolist(), births.tolist()))


#: Minkowski p of the KD-tree for each point kernel
_TREE_P = {"euclidean": 2, "manhattan": 1, "chebyshev": np.inf}


def _candidate_pairs(m: MetricInput, t: np.ndarray):
    """Pairs a < b with d(a, b) <= min(t_a, t_b), in row-major order, and
    their distances.  A sparse edge is one of them, since its birth is >= d.

    An explicit matrix is masked whole.  Points are grouped into levels by
    the binary exponent of t (exact and monotone; t = inf on top, t = 0 at
    the bottom).  Each level is queried, at its largest t, against itself
    and against a KD-tree of the points above it, so each pair is found
    once, from its endpoint of lower level.  For deletion times of a greedy
    permutation the points at or above a level are a packing at about its
    radius, so each query returns O(1) points for a fixed eps.  The tree
    only proposes pairs; the exact kernel decides."""
    n = m.n
    if m.metric_kind == EXPLICIT_MATRIX:
        a, b = np.nonzero(np.triu(m.matrix <= np.minimum.outer(t, t), k=1))
        return a, b, m.matrix[a, b]
    level = np.where(t > 0, np.frexp(t)[1], -1100)   # frexp gives -1073..1024
    level[np.isinf(t)] = 1100
    by_level = np.argsort(-level, kind="stable")
    ends = np.flatnonzero(np.diff(level[by_level])) + 1
    p_norm = _TREE_P[m.metric_kind]
    found = []
    for lo, hi in zip(np.r_[0, ends], np.r_[ends, n]):
        query, above = by_level[lo:hi], by_level[:lo]
        radius = t[query].max() * (1 + 1e-9)   # slack: the tree sums in its own order
        tree = cKDTree(m.points[query])
        found.append(query[tree.query_pairs(radius, p=p_norm, output_type="ndarray")])
        if lo:
            pairs = tree.sparse_distance_matrix(cKDTree(m.points[above]), radius,
                                                p=p_norm, output_type="ndarray")
            found.append(np.c_[query[pairs["i"]], above[pairs["j"]]])
    p, q = np.concatenate(found).T
    a, b = np.divmod(np.sort(np.minimum(p, q) * n + np.maximum(p, q)), n)
    d = m.distances(a, b)
    keep = d <= np.minimum(t[a], t[b])
    return a[keep], b[keep], d[keep]


def clique_expand(edges, n: int, k: int, vertex_caps=None,
                  kind: str = KIND_SPARSE, alpha_max: float | None = None,
                  vertices=None) -> SparseFiltration:
    """Clique (flag) filtration of an edge list with birth scales.

    Every clique of at most k + 1 vertices enters at the maximum of its
    edge births.  With ``vertex_caps`` a clique is admitted only while
    all its vertices are alive: max edge birth <= min vertex cap.  That
    is monotone under taking cofaces, so a (d+1)-clique grows from an
    admitted d-clique and an upper neighbour of its last vertex
    (Zomorodian 2010); its other edges are found by binary search."""
    if k < 1:
        raise ValueError("dimension cap k must be >= 1")
    verts = (np.arange(n, dtype=np.int64) if vertices is None
             else np.unique(np.asarray(vertices, dtype=np.int64)))
    ends = np.array([(p, q) for p, q, _ in edges], dtype=np.int64).reshape(-1, 2)
    births = np.array([b for _, _, b in edges], dtype=float)
    ends.sort(axis=1)
    _reject(ends[:, 0] == ends[:, 1],
            lambda i: f"degenerate edge {tuple(ends[i].tolist())}", ValueError)
    inside = np.isin(ends, verts).all(axis=1)
    nv = len(verts)   # dense vertex indices: a pair key a * nv + c is below nv**2
    a, c = np.searchsorted(verts, ends[inside]).T
    order = np.lexsort((c, a))
    a, c, births = a[order], c[order], births[inside][order]
    _reject((a[1:] == a[:-1]) & (c[1:] == c[:-1]),
            lambda i: f"duplicate edge {tuple(verts[[a[i], c[i]]].tolist())}", ValueError)
    caps = (np.full(nv, np.inf) if vertex_caps is None
            else np.asarray(vertex_caps, dtype=float)[verts])
    cap = np.minimum(caps[a], caps[c])
    keep = ~(births > cap)
    a, c, births, cap = a[keep], c[keep], births[keep], cap[keep]
    start = np.searchsorted(a, np.arange(nv + 1))   # upper neighbours of a: c[start[a]:start[a+1]]
    key = a * nv + c

    rows, values = [np.arange(nv)[:, None], np.c_[a, c]], [np.zeros(nv), births]
    for d in range(2, k + 1):
        last = rows[-1][:, -1]
        size = start[last + 1] - start[last]
        src = np.repeat(np.arange(len(last)), size)
        # candidate i: entry i - (its row's first candidate) of the neighbour row
        slot = np.arange(len(src)) + np.repeat(start[last] - np.cumsum(size) + size, size)
        u, value = c[slot], np.maximum(values[-1][src], births[slot])
        for j in range(d - 1):   # the edges from the other vertices to u
            want = rows[-1][src, j] * nv + u
            at = np.minimum(np.searchsorted(key, want), len(key) - 1)
            hit = key[at] == want
            src, u, at = src[hit], u[hit], at[hit]
            value = np.maximum(value[hit], births[at])
        cap = np.minimum(cap[src], caps[u])
        keep = ~(value > cap)
        src, u, value, cap = src[keep], u[keep], value[keep], cap[keep]
        rows.append(np.c_[rows[-1][src], u])
        values.append(value)
    order = [np.lexsort((*r.T[::-1], v)) for r, v in zip(rows, values)]
    return SparseFiltration(tuple(verts[r[o]] for r, o in zip(rows, order)),
                            tuple(v[o] for v, o in zip(values, order)), k, kind, alpha_max)


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


def validate_filtration(f: SparseFiltration) -> list[np.ndarray]:
    """Check a filtration and return the facet positions of its simplices.

    Raises MalformedFiltrationError unless every simplex has strictly
    increasing vertices, dimension <= k and a finite value >= 0; each
    dimension is sorted by (value, vertex order) without duplicates;
    vertices have value 0; and every facet is present with a value at most
    its coface's, so listed earlier.  Entry d of the result, (m_d, d + 1),
    holds in column v the position of the facet without vertex v.  The
    result is ``f.facets``: a filtration is checked once."""
    return f.facets


def _facets(f: SparseFiltration) -> list[np.ndarray]:
    if len(f.vertices) != len(f.values) or len(f.values) <= f.k or any(
            r.shape != (len(v), d + 1) for d, (r, v) in enumerate(zip(f.vertices, f.values))):
        raise MalformedFiltrationError(
            f"expected arrays of shapes (m_d, d + 1) and (m_d,) for d = 0..{f.k} or more")
    facets = [np.zeros((len(f.values[0]), 0), dtype=np.int64)]
    for d, (rows, values) in enumerate(zip(f.vertices, f.values)):
        _reject(np.full(len(rows), d > f.k),
                lambda i: f"simplex {tuple(rows[i].tolist())} exceeds dimension cap {f.k}")
        _reject((rows[:, 1:] <= rows[:, :-1]).any(axis=1),
                lambda i: f"vertices not strictly increasing: {tuple(rows[i].tolist())}")
        _reject(~(np.isfinite(values) & (values >= 0)),
                lambda i: f"bad value {values[i]} for simplex {tuple(rows[i].tolist())}")
        _reject((values != 0.0) & (d == 0),
                lambda i: f"vertex {tuple(rows[i].tolist())} has nonzero value {values[i]}")
        _reject(_order_breaks(rows, values),
                lambda i: f"simplices out of order at position {i + 1} of dimension {d}")
        lex = np.lexsort(rows.T[::-1])
        _reject((rows[lex[1:]] == rows[lex[:-1]]).all(axis=1),
                lambda i: f"duplicate simplex {tuple(rows[lex[i]].tolist())}")
        if d == 0:
            continue
        at = np.stack([_find_rows(f.vertices[d - 1], np.delete(rows, v, axis=1))
                       for v in range(d + 1)], axis=1)
        ok = at >= 0
        ok[ok] = f.values[d - 1][at[ok]] <= np.broadcast_to(values[:, None], at.shape)[ok]
        _reject(~ok.ravel(), lambda i: (
            f"missing face {tuple(np.delete(rows[i // (d + 1)], i % (d + 1)).tolist())} "
            f"before simplex {tuple(rows[i // (d + 1)].tolist())}"))
        facets.append(at)
    for a in facets:
        a.setflags(write=False)
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
    # each distinct value (told apart by its bits, so -0.0 keeps its sign)
    # and each distinct label is formatted once; a line joins those tokens
    bits, at = np.unique(np.concatenate(f.values, dtype=float).view(np.int64),
                         return_inverse=True)
    value_tokens = np.array(list(map(repr, bits.view(float).tolist())), dtype=object)[at]
    labels = np.unique(np.concatenate([r.ravel() for r in f.vertices]))
    label_tokens = np.array([" %d" % x for x in labels.tolist()], dtype=object)
    lines, start = [], 0
    for rows in f.vertices:
        # searchsorted is faster column by column: a column mostly ascends
        columns = label_tokens[np.searchsorted(labels, rows.T.copy())]
        lines += map("".join, zip(value_tokens[start:start + len(rows)], *columns))
        start += len(rows)
    lines = np.array(lines, dtype=object)[f._merge_order()].tolist()
    return "\n".join([f"# k={f.k} kind={f.kind} alpha_max={amax}", *lines]) + "\n"


def write_filtration(f: SparseFiltration, path) -> None:
    """Write :func:`filtration_text` to ``path``."""
    with open(path, "w") as fh:
        fh.write(filtration_text(f))


_BLOCK_CHARS = 1 << 20   # read_filtration parses about this much text at a time


def read_filtration(path) -> SparseFiltration:
    """Read and check the text format written by :func:`write_filtration`:
    ValueError naming the line for a line that does not parse or a header
    field that is not a number, MalformedFiltrationError for a label beyond
    int64, simplices out of order or against :func:`validate_filtration`.
    Comment lines (``#``) may appear anywhere; their ``key=value`` fields
    form the header, the last value of a key winning."""
    header: dict[str, str] = {}
    header_line: dict[str, int] = {}   # the line that set each header field
    blocks = []   # (values, sizes, labels) of each block
    with open(path) as fh:
        lineno = 0   # lines before the block
        while lines := fh.readlines(_BLOCK_CHARS):
            try:
                blocks.append(_parse_block(lines, lineno, header, header_line))
            except (ValueError, OverflowError):
                _raise_at_bad_line(path, lines, lineno)
                raise
            lineno += len(lines)
    if not sum(len(values) for values, _, _ in blocks):
        raise ValueError(f"{path}: empty filtration")
    values, sizes, labels = map(np.concatenate, zip(*blocks))

    def field(key, convert, what):
        try:
            return convert(header[key])
        except ValueError:
            raise ValueError(f"{path}: malformed header line {header_line[key]}: "
                             f"{key}={header[key]!r} is not {what}") from None

    k = field("k", int, "an integer") if "k" in header else int(sizes.max()) - 1
    amax = (None if header.get("alpha_max", "none") == "none"
            else field("alpha_max", float, "a number"))
    f = SparseFiltration._from_flat(values, sizes, labels, k,
                                    header.get("kind", KIND_SPARSE), amax)
    validate_filtration(f)
    return f


def _parse_block(lines: list[str], lineno: int, header: dict, header_line: dict):
    """Values, vertex counts and labels of the data lines of ``lines``, the
    lines after the first ``lineno``; comment lines go into ``header``.
    The block is split once, and each distinct token converted once.
    ValueError or OverflowError if some data line does not parse."""
    counts = np.fromiter(map(len, map(str.split, lines)), np.int64, len(lines))
    text = "".join(lines)
    tokens = np.array(text.split(), dtype=object)
    first = np.cumsum(counts) - counts   # index in tokens of each line's first token
    data = counts > 0
    if "#" in text:   # a comment line is one whose first token starts with '#'
        comment = np.zeros_like(data)
        comment[data] = [t[0] == "#" for t in tokens[first[data]].tolist()]
        for i in np.flatnonzero(comment):
            for item in lines[i].strip()[1:].split():
                key, _, header[key] = item.partition("=")
                header_line[key] = lineno + i + 1
        data &= ~comment
    if (counts[data] < 2).any():
        raise ValueError("a data line needs a value and a vertex")
    is_label = np.repeat(data, counts)
    is_label[first[data]] = False
    return (_convert(tokens[first[data]].tolist(), float, float), counts[data] - 1,
            _convert(tokens[is_label].tolist(), int, np.int64))


def _convert(tokens: list[str], convert, dtype) -> np.ndarray:
    """``convert`` of each token as a ``dtype`` array, calling it once per
    distinct token."""
    table = {t: convert(t) for t in set(tokens)}
    return np.fromiter(map(table.__getitem__, tokens), dtype, len(tokens))


def _raise_at_bad_line(path, lines: list[str], lineno: int) -> None:
    """Raise the error of the first data line of a block that does not
    parse as a value and int64 labels; the lines follow line ``lineno``."""
    for n, raw in enumerate(lines, start=lineno + 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        try:
            float(parts[0])
            vertices = [int(p) for p in parts[1:]]
        except ValueError:
            vertices = []   # malformed, as is a line without vertices
        if not vertices:
            raise ValueError(f"{path}: malformed line {n}: {line!r}")
        if not all(-2**63 <= v < 2**63 for v in vertices):
            raise MalformedFiltrationError(
                f"{path}: vertex label outside the int64 range on line {n}: {line!r}")
