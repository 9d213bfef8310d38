"""Filtration construction.

Builds the sparse clique filtration (edges filtered by deletion times,
simplices admitted while all their vertices are alive) together with the
two reference filtrations used to check it: the full Vietoris-Rips
filtration and the relaxed Vietoris-Rips filtration on all points.
Static snapshots for rank comparisons are constant-0 filtrations.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from itertools import chain
from numbers import Real

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
    """A filtration breaks the order, value, face or header rules of its format."""


@dataclass(frozen=True, eq=False, init=False)
class SparseFiltration:
    """Simplices of dimension 0..k, stored as their face index: the sorted
    dimension-0 labels, ``values[d]``, the float64 births of dimension d,
    and ``facets[d]`` (:func:`validate_filtration`).  Each dimension is
    sorted by (value, vertex order), the global order (value, dimension,
    vertex order) restricted to it; vertices have value 0.  ``vertices[d]``
    derives the int64 (m_d, d + 1) rows of dimension d, strictly
    increasing, on each access (:class:`_FaceRows`).  The fields cannot be
    set, and the arrays are read-only.

    This constructor checks outside input as it is made, as
    :meth:`from_simplices` and :func:`read_filtration` do: the header
    (:func:`_check_header`), then the rows (:func:`_face_index`), whose
    arrays it makes read-only.  The builders store the face index they
    found (:func:`_indexed`).  ``dataclasses.replace`` raises."""

    _labels: np.ndarray
    values: tuple[np.ndarray, ...]
    facets: tuple[np.ndarray, ...]
    k: int
    kind: str
    alpha_max: float | None

    def __init__(self, vertices: Sequence[np.ndarray], values: Sequence[np.ndarray], k: int,
                 kind: str, alpha_max: float | None = None):
        _check_header(alpha_max, k, kind)
        rows = list(vertices)
        for a in (*rows, *values):
            a.setflags(write=False)
        _fill(self, *_face_index(rows, values, k, ordered=False), values, k, kind, alpha_max)

    def __reduce__(self):   # unpickled by _indexed, so its arrays are read-only again
        return _indexed, (self._labels, self.facets, self.values, self.k, self.kind,
                          self.alpha_max)

    @classmethod
    def from_simplices(cls, pairs, k: int, kind: str,
                       alpha_max: float | None = None) -> "SparseFiltration":
        """Filtration of (vertex tuple, value) pairs listed in the global order;
        MalformedFiltrationError at the first pair out of that order, or
        where the face check fails, as for :func:`read_filtration`."""
        pairs = list(pairs)
        try:
            labels = np.array(list(chain.from_iterable(s for s, _ in pairs)), dtype=np.int64)
        except OverflowError:
            raise MalformedFiltrationError("vertex label outside the int64 range") from None
        return _listed(*_by_dimension([(
            np.array([v for _, v in pairs], dtype=float),
            np.array([len(s) for s, _ in pairs], dtype=np.int64), labels)]), k, kind, alpha_max)

    @property
    def vertices(self) -> _FaceRows:
        return _FaceRows(self._labels, self.facets)

    def _merge_order(self) -> np.ndarray:
        """The global order: the dimensions, concatenated in order, stably sorted by value."""
        return np.argsort(np.concatenate(self.values), kind="stable")

    def __len__(self) -> int:
        return sum(len(v) for v in self.values)

    def counts_by_dim(self) -> list[int]:
        return [len(v) for v in self.values]


def _fill(f: SparseFiltration, labels: np.ndarray, facets, values, k: int, kind: str,
          alpha_max: float | None) -> SparseFiltration:
    """Set the fields of the new filtration ``f``, the face index and the
    header, read-only: the one place they are written."""
    for a in (labels, *values, *facets):
        a.setflags(write=False)
    vars(f).update(_labels=labels, values=tuple(values), facets=tuple(facets), k=k,
                   kind=kind, alpha_max=alpha_max)
    return f


def _indexed(labels: np.ndarray, facets, values, k: int, kind: str,
             alpha_max: float | None = None) -> SparseFiltration:
    """The filtration stored as the face index its builder found: the
    sorted dimension-0 ``labels``, the facet positions and ``values``,
    with only the header checked."""
    _check_header(alpha_max, k, kind)
    return _fill(SparseFiltration.__new__(SparseFiltration), labels, facets, values, k, kind,
                 alpha_max)


def _listed(rows: list, values: list, bad: int, k: int, kind: str,
            alpha_max: float | None) -> SparseFiltration:
    """The filtration of simplices listed in the global order, as
    :func:`_by_dimension` split them (``from_simplices`` and the reader):
    MalformedFiltrationError if the simplex at position ``bad`` >= 0 was
    out of that order; else completed with empty dimensions up to k, its
    header checked, then its rows by the face check."""
    if bad >= 0:
        raise MalformedFiltrationError(f"simplices out of order at position {bad}")
    for d in range(len(rows), k + 1):
        rows.append(np.zeros((0, d + 1), dtype=np.int64))
        values.append(np.zeros(0))
    _check_header(alpha_max, k, kind)
    return _fill(SparseFiltration.__new__(SparseFiltration),
                 *_face_index(rows, values, k, ordered=True), values, k, kind, alpha_max)


def _check_header(alpha_max, k, kind) -> None:
    """MalformedFiltrationError unless ``alpha_max`` is None or a positive
    number, ``k`` an integer and ``kind`` one word without whitespace, so
    that :func:`read_filtration` reads back the header that
    :func:`write_filtration` writes."""
    if not (alpha_max is None or isinstance(alpha_max, Real) and not isinstance(alpha_max, bool)
            and alpha_max > 0):
        raise MalformedFiltrationError(
            f"alpha_max must be None or a positive number, got {alpha_max!r}")
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)):
        raise MalformedFiltrationError(f"k must be an integer, got {k!r}")
    if not (isinstance(kind, str) and kind.split() == [kind]):
        raise MalformedFiltrationError(
            f"kind must be one word without whitespace, got {kind!r}")


class _FaceRows(Sequence):
    """The vertex rows of a filtration stored as its face index, derived on
    each access and read-only: the labels at the :func:`_positions` of
    every simplex of the dimension."""

    def __init__(self, labels: np.ndarray, facets: tuple[np.ndarray, ...]):
        self.labels, self.facets = labels, facets

    def __len__(self) -> int:
        return len(self.facets)

    def __getitem__(self, d):
        d = range(len(self))[d]   # IndexError past the last dimension
        rows = self.labels[_positions(self.facets, d, np.arange(len(self.facets[d])))]
        rows.setflags(write=False)
        return rows


def _positions(facets: tuple[np.ndarray, ...], d: int, at: np.ndarray) -> np.ndarray:
    """The dimension-0 positions of the vertices of the d-simplices at
    positions ``at`` of dimension d, one row each.  Vertex j is the face
    on vertices 0..j (the simplex with its last vertex dropped d - j
    times, column e of ``facets[e]``) with its first vertex dropped j
    times (column 0)."""
    out = np.empty((len(at), d + 1), dtype=np.int64)
    for j in range(d, -1, -1):   # at: the positions of the faces on vertices 0..j
        p = at
        for e in range(j, 0, -1):
            p = facets[e][p, 0]
        out[:, j] = p
        if j:
            at = facets[j][at, j]
    return out


def _by_dimension(blocks):
    """The simplices listed in the global order in ``blocks``, each a flat
    (values, vertex counts, labels) of the simplices after those of the
    blocks before it, as rows and values per dimension, split block by
    block, so no flat array outlives its block.  Also the position of the
    first simplex out of order, by (value, dimension) against the simplex
    before it or by vertex order against the one before it in its
    dimension; -1 if none.  MalformedFiltrationError for an empty
    simplex."""
    rows, vals = [], []   # rows[d], vals[d]: the pieces of dimension d, block after block
    before = np.zeros(0), np.zeros(0, dtype=np.int64)   # the value and dimension of the last simplex
    offset, first_bad = 0, -1
    for values, sizes, labels in blocks:
        dims = sizes - 1
        _reject(dims < 0, lambda i: f"empty simplex at position {offset + i}")
        bad = np.zeros(len(dims), dtype=bool)
        if len(dims):
            breaks = _order_breaks(np.r_[before[1], dims][:, None], np.r_[before[0], values])
            bad[len(bad) - len(breaks):] = breaks
            before = values[-1:], dims[-1:]
        first = np.cumsum(sizes) - sizes   # position in labels of each simplex's first vertex
        by_dim = np.argsort(dims, kind="stable")   # dimension d: by_dim[cut[d]:cut[d + 1]]
        cut = np.searchsorted(dims[by_dim], np.arange(dims.max(initial=-1) + 2))
        for d in np.flatnonzero(np.diff(cut)).tolist():
            pos = by_dim[cut[d]:cut[d + 1]]
            r, v = labels[first[pos, None] + np.arange(d + 1)], values[pos]
            rows += [[] for _ in range(d + 1 - len(rows))]
            vals += [[] for _ in range(d + 1 - len(vals))]
            if rows[d]:   # against the last simplex of dimension d in the blocks before
                bad[pos] |= _order_breaks(np.r_[rows[d][-1][-1:], r], np.r_[vals[d][-1][-1:], v])
            else:
                bad[pos[1:]] |= _order_breaks(r, v)
            rows[d].append(r)
            vals[d].append(v)
        if first_bad < 0 and bad.any():
            first_bad = offset + int(np.argmax(bad))
        offset += len(dims)
    for d in range(len(rows)):   # one dimension at a time, so its pieces go as it is joined
        rows[d] = np.concatenate(rows[d]) if rows[d] else np.zeros((0, d + 1), dtype=np.int64)
        vals[d] = np.concatenate(vals[d]) if vals[d] else np.zeros(0)
    return rows, vals, first_bad


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


def _search(keys: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Index in the ascending array ``keys`` of each query, -1 where absent,
    by binary search."""
    if not len(keys):
        return np.full(len(queries), -1)
    at = np.minimum(np.searchsorted(keys, queries), len(keys) - 1)
    return np.where(keys[at] == queries, at, -1)


#: Fibonacci hashing (Knuth, TAOCP vol. 3, 6.4): 2**64 over the golden
#: ratio, odd.  It spreads arithmetic progressions, such as dense labels
#: and the keys s * nv + r of the face check, evenly over the slots
_FIB = np.uint64(0x9E3779B97F4A7C15)
#: the slots a key or a query of _lookup probes at most
_PROBES = 16
#: _hash_table and _lookup fill and probe this many keys or queries at a time
_HASH_BLOCK = 1 << 16


def _hash_table(keys: np.ndarray) -> tuple:
    """A hash table of ``keys``, distinct int64 values in any order, for
    :func:`_lookup`; built once, probed any number of times.

    The table has 2**b slots, the least power of two >= 2 * len(keys); a
    slot holds a key and its index, index -1 when empty.  Key x's home
    slot is the top b bits of x * _FIB mod 2**64; collisions go on to the
    next slot (linear probing).  Keys are placed in rounds over blocks of
    _HASH_BLOCK, each probing at most _PROBES slots; the keys left without
    a slot are kept, sorted, for a binary search.  Keys that all share a
    home slot cost _PROBES probes each and that search."""
    bits = (2 * len(keys) - 1).bit_length()
    shift = np.uint64(64 - bits)
    table = np.zeros(1 << bits, dtype=np.int64)   # each slot's key
    index = np.full(1 << bits, -1, dtype=np.int64)   # and its index in keys
    left = [np.zeros(0, dtype=np.int64)]   # the keys that found no slot
    for lo in range(0, len(keys), _HASH_BLOCK):
        at = np.arange(lo, min(lo + _HASH_BLOCK, len(keys)))
        slot = _home(keys[at], shift)
        for p in range(_PROBES):
            if p:
                slot += 1
                slot &= len(table) - 1
            free = index[slot] < 0
            index[slot[free]] = at[free]   # of keys that meet at one free slot, one wins
            won = index[slot] == at
            table[slot[won]] = keys[at[won]]
            lost = ~won
            at, slot = at[lost], slot[lost]
            if not len(at):
                break
        left.append(at)
    left = np.concatenate(left)
    left = left[np.argsort(keys[left])]
    return shift, table, index, left, keys[left]


def _lookup(hashed: tuple, queries: np.ndarray) -> np.ndarray:
    """Index in the keys of the :func:`_hash_table` ``hashed`` of each int64
    query, -1 where absent, in expected O(1) per query.

    Queries are answered in rounds over blocks of _HASH_BLOCK, each probing
    at most _PROBES slots from its home slot; the queries left unanswered
    meet the keys left without a slot in one binary search.  That is
    exact: slots only fill, so every slot a key passed over stays full; a
    key in the table is found within _PROBES probes, a query that meets an
    empty slot is absent, and one that meets neither is a leftover key or
    absent."""
    shift, table, index, left, left_keys = hashed
    out = np.full(len(queries), -1, dtype=np.int64)
    open_ = [np.zeros(0, dtype=np.int64)]   # queries that met neither key nor empty slot
    for lo in range(0, len(queries), _HASH_BLOCK):
        query = queries[lo:lo + _HASH_BLOCK]
        at = np.arange(lo, lo + len(query))
        slot = _home(query, shift)
        for p in range(_PROBES):
            if p:
                slot += 1
                slot &= len(table) - 1
            found = index[slot]
            hit = table[slot] == query
            full = found >= 0
            hit &= full
            out[at[hit]] = found[hit]
            full &= ~hit   # a full slot with another key: probe on
            at, query, slot = at[full], query[full], slot[full]
            if not len(at):
                break
        open_.append(at)
    open_ = np.concatenate(open_)
    if len(left) and len(open_):
        found = _search(left_keys, queries[open_])
        out[open_] = np.where(found >= 0, left[found], -1)
    return out


def _home(x: np.ndarray, shift: np.uint64) -> np.ndarray:
    """The home slot of each int64 in ``x``: the top bits of x * _FIB mod 2**64."""
    slot = np.asarray(x, dtype=np.int64).view(np.uint64) * _FIB
    slot >>= shift
    return slot.view(np.int64)   # below 2**63


#: an edge list: one record per edge, lower endpoint first, in row-major order
EDGE_DTYPE = np.dtype([("p", np.int64), ("q", np.int64), ("birth", np.float64)])


def _edge_list(p, q, birth) -> np.ndarray:
    edges = np.empty(len(p), EDGE_DTYPE)
    edges["p"], edges["q"], edges["birth"] = p, q, birth
    return edges


def _as_edges(edges) -> np.ndarray:
    """An edge list, records ``p``, ``q``, ``birth``: an EDGE_DTYPE array as it is, or
    (p, q, birth) tuples as one.  ValueError otherwise (a list of 3-lists is 2-D)."""
    edges = np.asarray(edges, EDGE_DTYPE)
    if edges.ndim != 1:
        raise ValueError(f"edges must be (p, q, birth) tuples, got shape {edges.shape}")
    return edges


def _edges_within(values: np.ndarray, cap) -> np.ndarray:
    """Edge list, records ``p`` < ``q`` and ``birth`` = values[p, q], of the
    pairs with values[p, q] <= cap (a scalar or broadcast array)."""
    iu, ju = np.nonzero(np.triu(values <= cap, k=1))
    return _edge_list(iu, ju, values[iu, ju])


def sparse_edges(m: MetricInput, ctx: WeightContext) -> np.ndarray:
    """Edge list of the sparse filtration: records ``p`` < ``q`` and ``birth``.

    A pair (p, q) is kept iff its relaxed birth scale is at most
    min(t_p, t_q), i.e. the edge condition is met while both endpoints
    are still present.  Births are computed only for the pairs of
    :func:`_candidate_pairs` that can meet it, lower index first, as in
    :func:`birth_matrix`.
    """
    t = ctx.schedule.t
    a, b, d = _candidate_pairs(m, t)
    at, births = _births_within_caps(d, t[a], t[b], ctx.epsilon)
    return _edge_list(a[at], b[at], births)


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
        pairs = _edges_within(m.matrix, np.minimum.outer(t, t))
        return pairs["p"], pairs["q"], pairs["birth"]
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


def _ranges(start: np.ndarray, size: np.ndarray) -> np.ndarray:
    """The integers ``start[i] .. start[i] + size[i] - 1`` for each i in turn,
    sizes 0 allowed: one cumulative sum of the steps between them."""
    start, size = start[size > 0], size[size > 0]
    step = np.ones(size.sum(), dtype=np.intp)   # from each integer to the next
    step[np.cumsum(size) - size] = start - np.r_[0, start[:-1] + size[:-1] - 1]
    return np.cumsum(step)   # into a new array: in place, a 3,000-point build peaked 4% higher


def _row_slots(start: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The entries of CSR rows ``rows`` (row r holds ``start[r]:start[r + 1]``),
    concatenated by :func:`_ranges`: ``slot`` is each entry's position,
    ``src`` its index in ``rows``."""
    size = start[rows + 1] - start[rows]
    return np.repeat(np.arange(len(rows)), size), _ranges(start[rows], size)


#: clique_expand grows each dimension from about this many candidates at a time
_GROW_BLOCK = 1 << 16


def clique_expand(edges, n: int, k: int, vertex_caps=None,
                  kind: str = KIND_SPARSE, alpha_max: float | None = None) -> SparseFiltration:
    """Clique (flag) filtration of an edge list (:func:`_as_edges`), in any
    order, on the vertices 0..n-1; ValueError for an edge outside them, a
    birth that is not a finite number >= 0, ``vertex_caps`` of a shape
    other than (n,) or a vertex cap that is NaN.

    Every clique of at most k + 1 vertices enters at the maximum of its
    edge births.  With ``vertex_caps`` a clique is admitted only while
    all its vertices are alive: max edge birth <= min vertex cap.  That
    is monotone under taking cofaces, so a d-simplex (x_0, .., x_{d-1}, u)
    grows from an admitted (d-1)-simplex, its parent, and an upper
    neighbour u of the parent's last vertex (Zomorodian 2010); its other
    edges to u lie in its facet without x_{d-1}, an admitted clique found
    by binary search.  Edges that arrive in vertex order, as from
    :func:`sparse_edges` and :func:`_edges_within`, are not sorted into it.
    Each dimension grows from blocks of parents with about ``_GROW_BLOCK``
    candidates in all, and keeps, per simplex, its facets, its key (the
    parent's position * n + u, which ascends in vertex order and gives u
    back as key mod n), its value rank and its cap: no vertex rows.

    The edges go into filtration order by one stable sort of their
    births, and each simplex carries a value rank, the first position of
    its value in that order: the largest rank of its edges.  Each
    dimension d >= 2 goes into filtration order by one in-place sort of
    the int64 keys rank * m_d + vertex-order position, then their
    remainder mod m_d; the values are gathered once, from the ranks.  A
    simplex of value 0 keeps the sign of its last edge's birth, +0.0 or
    -0.0: that edge (x_{d-1}, x_d) is its face reached by dropping the
    first vertex d - 1 times.  ValueError if a key could reach 2**63.

    The result is stored as its face index (:class:`SparseFiltration`):
    the labels 0..n-1, the values and the :attr:`~SparseFiltration.facets`
    found as the cliques grow, with only its header checked.  The facet
    without u is the parent, the one without x_{d-1} is found as above,
    and the one without another x_v is the parent's facet without x_v
    grown by u (for a triangle, the edge (x_1, u))."""
    if k < 1:
        raise ValueError("dimension cap k must be >= 1")
    edges = _as_edges(edges)
    ends, births = np.c_[edges["p"], edges["q"]], edges["birth"]
    ends.sort(axis=1)
    _reject(ends[:, 0] == ends[:, 1],
            lambda i: f"degenerate edge {tuple(ends[i].tolist())}", ValueError)
    _reject((ends[:, 0] < 0) | (ends[:, 1] >= n),
            lambda i: f"edge {tuple(ends[i].tolist())} outside vertices 0..{n - 1}", ValueError)
    _reject(~(np.isfinite(births) & (births >= 0)),
            lambda i: f"bad birth {births[i]} for edge {tuple(ends[i].tolist())}", ValueError)
    caps = np.full(n, np.inf) if vertex_caps is None else np.asarray(vertex_caps, dtype=float)
    if caps.shape != (n,):
        raise ValueError(f"vertex_caps must have shape ({n},), got {caps.shape}")
    _reject(np.isnan(caps), lambda i: f"bad cap {caps[i]} for vertex {i}", ValueError)
    key = ends[:, 0] * n + ends[:, 1]   # below n**2, ascending in vertex order
    if not (key[1:] > key[:-1]).all():   # sparse_edges and _edges_within emit that order
        order = np.argsort(key)
        ends, births, key = ends[order], births[order], key[order]
    _reject(key[1:] == key[:-1], lambda i: f"duplicate edge {tuple(ends[i].tolist())}",
            ValueError)
    cap = np.minimum(caps[ends[:, 0]], caps[ends[:, 1]])
    keep = births <= cap
    ends, key, births, cap = ends[keep], key[keep], births[keep], cap[keep]
    a, c = ends.T
    start = np.searchsorted(a, np.arange(n + 1))   # upper neighbours of a: c[start[a]:start[a+1]]

    # a value rank: the first position of a birth in the edges' stable birth order
    by_birth = np.argsort(births, kind="stable")
    ascending = births[by_birth]
    first = np.arange(len(births))   # each position, 0 where the birth ties the one before
    first[1:][ascending[1:] == ascending[:-1]] = 0   # (-0.0 ties with 0.0)
    rank = np.empty_like(first)
    rank[by_birth] = np.maximum.accumulate(first)
    del first, births

    # each dimension in vertex order: its facet positions and value ranks, and,
    # to grow the next, its keys and caps
    facets, ranks = [np.zeros((n, 0), dtype=np.int64), ends[:, ::-1]], [None, rank]
    for d in range(2, k + 1):
        m = len(key)
        if m * n >= _KEY_LIMIT:
            raise ValueError(f"{m} simplices of dimension {d - 1} on {n} "
                             f"vertices are too many to index")
        size = np.diff(start)[key % n]   # each parent's candidates: its last vertex's upper neighbours
        cut = np.searchsorted(np.cumsum(size), np.arange(_GROW_BLOCK, size.sum(), _GROW_BLOCK))
        del size
        grown = []   # per block: the facets, ranks, keys and caps of the simplices it admits
        for lo, hi in zip(np.r_[0, cut], np.r_[cut, m]):
            src, slot = _row_slots(start, key[lo:hi] % n)
            src += lo
            u = c[slot]
            at = _search(key, facets[-1][src, d - 1] * n + u)   # the facet without x_{d-1}
            hit = at >= 0
            src, slot, u, at = src[hit], slot[hit], u[hit], at[hit]
            value = np.maximum(np.maximum(ranks[-1][src], ranks[-1][at]), rank[slot])
            capped = np.minimum(cap[src], caps[u])
            keep = ascending[value] <= capped
            src, slot, u, at, value, capped = (x[keep] for x in (src, slot, u, at, value, capped))
            other = ([slot] if d == 2 else   # a triangle's first facet is the edge
                     [_search(key, facets[-1][src, v] * n + u) for v in range(d - 1)])
            grown.append([np.column_stack([*other, at, src]), value]
                         + ([src * n + u, capped] if d < k else []))
        grown = [list(x) for x in zip(*grown)]
        del key, cap   # the dimension below's: its parents are grown
        for j in range(len(grown)):   # one array at a time, so its pieces go as it is joined
            grown[j] = np.concatenate(grown[j])
        facets.append(grown[0])
        ranks.append(grown[1])
        key, cap = grown[2:] or (None, None)
        del grown
    del key, cap, start, ends, a, c

    # filtration order: the edges by birth, stably; each dimension above by one
    # sort of rank * m_d + vertex-order position, then the remainder
    values = [np.zeros(n), ascending]
    facets[1] = facets[1][by_birth]
    position = np.empty_like(by_birth)   # position[i]: where simplex i of the dimension below ends up
    position[by_birth] = np.arange(len(by_birth))
    del by_birth
    for d in range(2, k + 1):
        o, m = ranks[d], len(ranks[d])
        ranks[d] = None
        if len(ascending) * m >= _KEY_LIMIT:
            raise ValueError(f"{m} simplices of dimension {d} over {len(ascending)} edges "
                             f"are too many to sort")
        o *= m
        o += np.arange(m)
        if not (o[1:] > o[:-1]).all():   # a constant-0 snapshot is in order already
            o.sort()
        rank = o // m
        values.append(ascending[rank])
        rank *= m
        o -= rank   # the remainder, the vertex-order position, faster than o %= m
        del rank
        facets[d] = position[facets[d]]   # in two steps, each dropping the array before
        facets[d] = np.take(facets[d], o, axis=0)
        position = np.empty_like(o)
        position[o] = np.arange(m)
        del o
        if np.signbit(ascending).any():
            # np.maximum of equal births gave the last, so a simplex of value 0
            # has the sign of the birth of its last edge (x_{d-1}, x_d)
            zero = np.flatnonzero(values[d] == 0)
            edge = facets[d][zero, 0]
            for e in range(d - 1, 1, -1):
                edge = facets[e][edge, 0]
            values[d][zero] = ascending[edge]
    return _indexed(np.arange(n), facets, values, k, kind, alpha_max)


def build_sparse(m: MetricInput, epsilon: float, k: int,
                 seed: int = 0) -> SparseFiltration:
    """End-to-end sparse filtration: greedy order, deletion times, edges, cliques."""
    return build_sparse_from_context(m, WeightContext.build(m, epsilon, seed=seed), k)


def full_rips(m: MetricInput, alpha_max: float, k: int) -> SparseFiltration:
    """Reference Vietoris-Rips filtration: simplex value = diameter.

    Simplices with diameter above ``alpha_max`` are omitted; the full
    untruncated k-skeleton is Theta(n^(k+1)), so keep n small.
    """
    return _capped_reference(m.distance_matrix, m.n, alpha_max, k, KIND_FULL)


def relaxed_rips(m: MetricInput, ctx: WeightContext, alpha_max: float,
                 k: int) -> SparseFiltration:
    """Reference relaxed Vietoris-Rips filtration on all points.

    Edge value is the relaxed birth scale with no deletion filter;
    higher simplices enter at the maximum of their edge values.
    """
    return _capped_reference(lambda: birth_matrix(m, ctx), m.n, alpha_max, k, KIND_RELAXED)


def _capped_reference(matrix, n: int, alpha_max: float, k: int,
                      kind: str) -> SparseFiltration:
    """Clique filtration of the pairs with ``matrix()`` <= ``alpha_max`` > 0."""
    if not alpha_max > 0:
        raise ValueError("alpha_max must be positive")
    return clique_expand(_edges_within(matrix(), alpha_max), n, k,
                         kind=kind, alpha_max=float(alpha_max))


def static_complex(m: MetricInput, ctx: WeightContext, alpha: float,
                   kind: str, k: int) -> SparseFiltration:
    """Snapshot complex at scale alpha, as a constant-0 filtration.

    Vertex set: the open net for Q_open, the closed net for Q_closed,
    all points for relaxed_full.  Simplices are the cliques of the graph
    {(p, q) : relaxed distance at alpha <= alpha} on that vertex set,
    every one with value 0.0; ``kind`` is the snapshot kind.  They are
    expanded on net positions, whose map to labels keeps their order, so
    the facet positions of the expansion hold for the labels too.
    """
    if not alpha >= 0:
        raise ValueError("alpha must be nonnegative")
    if kind not in STATIC_KINDS:
        raise ValueError(f"kind must be one of {STATIC_KINDS}, got {kind!r}")
    verts = (np.arange(m.n) if kind == "relaxed_full"
             else net_at(ctx.schedule, alpha, closed=(kind == "Q_closed")))

    w = weight_batch(alpha, ctx.schedule.t[verts], ctx.epsilon)
    edges = _edges_within(m.distance_matrix()[np.ix_(verts, verts)]
                          + w[:, None] + w[None, :], alpha)
    edges["birth"] = 0.0
    f = clique_expand(edges, len(verts), k, kind=kind)
    return _indexed(verts, f.facets, f.values, k, kind)


def validate_filtration(f: SparseFiltration) -> tuple[np.ndarray, ...]:
    """The facet positions of the simplices of ``f``, ``f.facets``: entry d,
    (m_d, d + 1), holds in column v the position of the facet without
    vertex v.  Nothing is checked here: a filtration holds the facets its
    builder found (:func:`clique_expand`) or those of the check that
    outside input passed when it was made (:func:`_face_index`)."""
    return f.facets


#: a facet key is an int64 below this
_KEY_LIMIT = 2**63


def _face_index(rows: list, values, k: int, ordered: bool) -> tuple[np.ndarray, list]:
    """The sorted dimension-0 labels and the facet positions of the rows
    and values per dimension, or MalformedFiltrationError unless every
    simplex has strictly increasing vertices, dimension <= k and a finite
    value >= 0; each dimension is sorted by (value, vertex order) without
    duplicates; vertices have value 0.0 (not -0.0); and every facet is
    present with a value at most its coface's, so listed earlier.

    Faces are indexed by one int64 key per simplex, kept in the order of
    its dimension: the position of its prefix facet (all vertices but the
    last) one dimension down, times the number of vertices nv, plus the
    rank of its last label.  A rank, and each step of the chain that finds
    an e-simplex by its keys in dimensions 1 .. e, is a hash lookup
    (:func:`_lookup`) in one table per key array (:func:`_hash_table`), so
    the check takes expected O(m) time for m simplices at a fixed k.
    Equal keys are duplicates, found by one sort of each dimension's keys;
    m_{d-1} * nv >= 2**63 is refused, so no key overflows.  A dimension
    without simplices costs nothing, and the order within each dimension
    is not checked when ``ordered`` (:func:`_by_dimension` checked it).
    Each entry d >= 1 of ``rows`` is set to None once its labels are
    ranked: the check goes on with the ranks, and a message names a
    simplex by the labels at its ranks, or by its row if a label is not a
    vertex."""
    if len(rows) != len(values) or len(values) <= k or any(
            r.shape != (len(v), d + 1) for d, (r, v) in enumerate(zip(rows, values))):
        raise MalformedFiltrationError(
            f"expected arrays of shapes (m_d, d + 1) and (m_d,) for d = 0..{k} or more")
    facets = [np.zeros((len(values[0]), 0), dtype=np.int64)]
    keys = [None]   # keys[d]: the key of each simplex of dimension d, in its order
    for d, vals in enumerate(values):
        r = rows[d]
        if d and not len(r):   # nothing to check: a simplex above misses a face, found as usual
            facets.append(np.zeros((0, d + 1), dtype=np.int64))
            keys.append(np.zeros(0, dtype=np.int64))
            continue
        _reject(np.full(len(r), d > k),
                lambda i: f"simplex {tuple(r[i].tolist())} exceeds dimension cap {k}")
        _reject((r[:, 1:] <= r[:, :-1]).any(axis=1),
                lambda i: f"vertices not strictly increasing: {tuple(r[i].tolist())}")
        _reject(~(np.isfinite(vals) & (vals >= 0)),
                lambda i: f"bad value {vals[i]} for simplex {tuple(r[i].tolist())}")
        _reject((vals != 0.0) & (d == 0),
                lambda i: f"vertex {tuple(r[i].tolist())} has nonzero value {vals[i]}")
        _reject(np.signbit(vals) & (d == 0),
                lambda i: f"vertex {tuple(r[i].tolist())} has value -0.0, not 0.0")
        if not ordered:
            _reject(_order_breaks(r, vals),
                    lambda i: f"simplices out of order at position {i + 1} of dimension {d}")
        if d == 0:   # at value 0 the order is the label order
            labels = r[:, 0]
            _reject(labels[1:] == labels[:-1],
                    lambda i: f"duplicate simplex {tuple(r[i].tolist())}")
            tables = [_hash_table(labels)]   # tables[e]: of the positions in dimension e
            continue
        nv = len(labels)
        if len(values[d - 1]) * nv >= _KEY_LIMIT:
            raise MalformedFiltrationError(
                f"{len(values[d - 1])} simplices of dimension {d - 1} on {nv} vertices "
                f"are too many to index")
        tables += [_hash_table(keys[e]) for e in range(len(tables), d)]
        # the rank of each label, -1 for a label that is not a vertex
        rank = _lookup(tables[0], r.ravel()).reshape(r.shape)
        named = r if rank.min() < 0 else None   # a row to name, else the labels at its ranks
        rows[d] = r = None

        def simplex(i):
            return tuple((labels[rank[i]] if named is None else named[i]).tolist())

        column = list(rank.T)
        below = np.append(values[d - 1], np.inf)   # below[-1]: a missing face
        at = np.empty(rank.shape, dtype=np.int64)
        ok = np.empty(rank.shape, dtype=bool)
        for v in reversed(range(d + 1)):   # the prefix facet, v = d, gives the keys
            at[:, v] = _key_position(tables, nv, column[:v] + column[v + 1:])
            ok[:, v] = below[at[:, v]] <= vals
            if v == d:
                key = np.where((at[:, d] >= 0) & (column[d] >= 0), at[:, d] * nv + column[d], -1)
                if key.min() >= 0:   # else a face is missing, reported below
                    _reject_duplicates(rank, key, simplex)
        del column, below
        _reject(~ok.ravel(), lambda i: (
            f"missing face {tuple(np.delete(simplex(i // (d + 1)), i % (d + 1)).tolist())} "
            f"before simplex {simplex(i // (d + 1))}"))
        facets.append(at)
        keys.append(key)
        del ok, rank
    return labels, facets


def _reject_duplicates(rank: np.ndarray, key: np.ndarray, simplex) -> None:
    """MalformedFiltrationError naming, by ``simplex(i)``, the row i of least
    ranks, so least in vertex order, whose key is another row's too."""
    ascending = np.sort(key)
    twice = ascending[1:][ascending[1:] == ascending[:-1]]
    if len(twice):
        at = np.flatnonzero(np.isin(key, twice))
        first = min(zip(map(tuple, rank[at].tolist()), at.tolist()))[1]
        raise MalformedFiltrationError(f"duplicate simplex {simplex(first)}")


def _key_position(tables: list, nv: int, rank: list[np.ndarray]) -> np.ndarray:
    """Position in dimension e of the e-simplices whose vertices have the
    ranks ``rank[0] .. rank[e]``, -1 where absent or a rank is -1.  The key
    of a simplex is the position of its prefix facet (all vertices but the
    last) one dimension down, times nv, plus the rank of its last vertex; a
    vertex's position is its rank.  Each step is one :func:`_lookup` in
    ``tables[e]``, the hash table of the keys of dimension e."""
    s = rank[0]
    for e, r in enumerate(rank[1:], start=1):
        s = _lookup(tables[e], np.where((s >= 0) & (r >= 0), s * nv + r, -1))
    return s


# --- degree and size accounting -----------------------------------------

def charged_degrees(edges, t: np.ndarray) -> np.ndarray:
    """Per-point count of the edges of an edge list (:func:`_as_edges`)
    charged to it.  An edge counts for its endpoint with the smaller
    deletion time, and for both on a tie: degrees[p] = #{q : t_p <= t_q
    and birth(p, q) <= t_p}, since a sparse edge has birth <= min(t_p, t_q)."""
    edges = _as_edges(edges)
    p, q = edges["p"], edges["q"]
    return (np.bincount(p[t[p] <= t[q]], minlength=len(t))
            + np.bincount(q[t[q] <= t[p]], minlength=len(t)))


def max_edge_degree(m: MetricInput, ctx: WeightContext) -> int:
    return int(charged_degrees(sparse_edges(m, ctx), ctx.schedule.t).max(initial=0))


@dataclass(frozen=True)
class SizeStats:
    counts_by_dim: tuple[int, ...]
    max_degree: int

    @property
    def total(self) -> int:
        return sum(self.counts_by_dim)


def sparse_size_stats(m: MetricInput, ctx: WeightContext, k: int) -> SizeStats:
    """Simplex counts and largest charged degree of the sparse filtration,
    from :func:`sparse_edges`; only k > 2 materializes the filtration."""
    t = ctx.schedule.t
    edges = sparse_edges(m, ctx)
    if k > 2:   # every sparse edge has birth <= min(t_p, t_q), so all are kept
        counts = clique_expand(edges, m.n, k, vertex_caps=t).counts_by_dim()
    else:
        counts = [m.n, len(edges)] + ([_count_triangles(edges, t)] if k == 2 else [])
    return SizeStats(tuple(counts), int(charged_degrees(edges, t).max(initial=0)))


def _count_triangles(edges: np.ndarray, t: np.ndarray) -> int:
    """Triangles of the sparse filtration with edge list ``edges``.
    A simplex is rooted at its vertex r of least (t, index); a triangle
    rooted at r is an edge (q, s) inside out(r), the far ends of the edges
    rooted at r, with birth(q, s) <= t_r, so each is found once."""
    p, q, births = edges["p"], edges["q"], edges["birth"]   # p < q
    flip = t[q] < t[p]
    root, other = np.where(flip, q, p), np.where(flip, p, q)
    order = np.argsort(root, kind="stable")
    other, births = other[order], births[order]
    start = np.searchsorted(root[order], np.arange(len(t) + 1))
    cap = np.full(len(t), -np.inf)   # t_r on out(r) while r is scanned
    count = 0
    for r in np.flatnonzero(np.diff(start) >= 2).tolist():
        out = other[start[r]:start[r + 1]]
        cap[out] = t[r]
        slot = _row_slots(start, out)[1]
        count += int(np.count_nonzero(births[slot] <= cap[other[slot]]))
        cap[out] = -np.inf
    return count


def build_sparse_from_context(m: MetricInput, ctx: WeightContext,
                              k: int) -> SparseFiltration:
    """build_sparse variant reusing an existing WeightContext."""
    return clique_expand(sparse_edges(m, ctx), m.n, k, vertex_caps=ctx.schedule.t)


# --- text format ---------------------------------------------------------

#: the writer formats this many lines per chunk; a chunk's temporaries, a
#: few arrays of its lines, tokens and bytes, take about 17 bytes per byte
#: of its text: about 9 MB for 16384 lines of 33 bytes
_WRITE_ROWS = 1 << 14


def filtration_text(f: SparseFiltration) -> str:
    """The text that :func:`write_filtration` writes, as one string."""
    return b"".join(_filtration_chunks(f)).decode()


def write_filtration(f: SparseFiltration, path) -> None:
    """Text format: one ``value v0 v1 ... vd`` line per simplex, in the
    global order, each value written as its ``repr`` and each label as an
    integer.  A leading comment line records k / kind / alpha_max so that
    the file round-trips; readers that ignore comments still get valid data.

    A filtration was checked when it was made, so the writer checks
    nothing; :func:`read_filtration` reads back what it writes, unless
    that has no simplex.  The file is written a chunk of lines at a time, so beyond the filtration
    the writer holds an index array per simplex and one chunk."""
    with open(path, "wb") as fh:
        fh.writelines(_filtration_chunks(f))


def _filtration_chunks(f: SparseFiltration):
    """The file of :func:`write_filtration` as bytes: the header line, then
    each run of ``_WRITE_ROWS`` lines in the global order.  A chunk is one
    gather of :func:`_ranges` from a pool of :func:`_tokens`: ``repr`` of
    each of its values (told apart by their bits, so -0.0 keeps its sign),
    ``" %d"`` of each vertex label and ``"\\n"``.  A vertex's token is its
    position in dimension 0, read off the checked face index, so no label
    is searched for."""
    amax = "none" if f.alpha_max is None else repr(float(f.alpha_max))
    yield f"# k={f.k} kind={f.kind} alpha_max={amax}\n".encode()
    labels = f._labels
    pool, start, size = _tokens([" %d" % x for x in labels.tolist()] + ["\n"])
    count = f.counts_by_dim()
    end = np.cumsum(count)
    order = f._merge_order()
    for lo in range(0, len(order), _WRITE_ROWS):
        flat = order[lo:lo + _WRITE_ROWS]   # positions in the concatenated dimensions
        dim = np.searchsorted(end, flat, side="right")
        tokens = dim + 3   # a value, d + 1 labels and a newline
        first = np.cumsum(tokens) - tokens   # each line's first token
        ids = np.empty(first[-1] + tokens[-1], dtype=np.intp)
        values = np.empty(len(flat))
        for d in np.unique(dim).tolist():
            at = np.flatnonzero(dim == d)
            pos = flat[at] - (end[d] - count[d])   # the positions in dimension d
            values[at] = f.values[d][pos]
            ids[first[at, None] + 1 + np.arange(d + 1)] = _positions(f.facets, d, pos)
        bits = values.view(np.int64)
        new = np.r_[True, bits[1:] != bits[:-1]]   # the file is in value order: runs
        ids[first] = len(labels) + np.cumsum(new)   # after the labels and "\n"
        ids[first + tokens - 1] = len(labels)
        vpool, vstart, vsize = _tokens(list(map(repr, values[new].tolist())))
        yield np.concatenate([pool, vpool])[_ranges(np.r_[start, len(pool) + vstart][ids],
                                                    np.r_[size, vsize][ids])].tobytes()


def _tokens(words: list[str]):
    """The bytes of the ASCII ``words`` one after another, and the start and
    size of each word in them."""
    size = np.fromiter(map(len, words), dtype=np.intp, count=len(words))
    return np.frombuffer("".join(words).encode(), np.uint8), np.cumsum(size) - size, size


_BLOCK_CHARS = 1 << 20   # read_filtration reads and parses about this many bytes at a time

#: False at the ASCII whitespace that ``bytes.split`` splits on: \t \n \v \f \r
#: and space; a token is a run of the other bytes
_TOKEN_BYTE = np.ones(256, dtype=bool)
_TOKEN_BYTE[list(b"\t\n\v\f\r ")] = False
#: value tokens up to this many bytes are compared with the one before in
#: 8-byte words; a longer one starts a run of its own
_RUN_BYTES = 32
#: _KEEP[L]: the mask, as 8-byte words, that keeps the first L of _RUN_BYTES bytes
_KEEP = np.where(np.arange(_RUN_BYTES) < np.arange(_RUN_BYTES + 1)[:, None],
                 np.uint8(255), np.uint8(0)).view(np.uint64)
#: labels of up to this many digits are below 10**18 < 2**63: exact in int64
_LABEL_DIGITS = 18


def read_filtration(path) -> SparseFiltration:
    r"""Read and check the text format written by :func:`write_filtration`:
    ValueError naming the line for a line that does not parse, a header
    ``k`` that is not an integer or an ``alpha_max`` that is not ``none`` or
    a positive number, MalformedFiltrationError for a label beyond int64,
    simplices out of order or against :func:`validate_filtration`.
    Comment lines (``#``) may appear anywhere; their ``key=value`` fields
    form the header, the last value of a key winning.

    The file is read and parsed as bytes, a block of whole lines at a time
    (:func:`_line_blocks`).  Lines end at ``\n``, ``\r\n`` or ``\r``;
    tokens are separated by the ASCII whitespace of ``bytes.split`` (space,
    ``\t``, ``\v``, ``\f``), so a non-ASCII byte between tokens makes the
    line malformed.  Values and labels are what ``float`` and ``int``
    accept of a token's bytes.  Each block's labels are split into rows by
    dimension as it is parsed (:func:`_by_dimension`).  The result is made
    as ``SparseFiltration.from_simplices`` makes one (:func:`_listed`): the
    header is checked, then the rows, by :func:`_face_index`, which drops
    each dimension's rows once it has ranked them, and the filtration
    stores the face index it returns."""
    header: dict[str, str] = {}
    header_line: dict[str, int] = {}   # the line that set each header field

    def parsed(fh):
        lineno = 0   # lines before the block
        for block in _line_blocks(fh):
            try:
                simplices = _parse_block(block, lineno, header, header_line)
            except (ValueError, OverflowError):
                _raise_at_bad_line(path, block, lineno)
                raise
            yield simplices
            lineno += block.count(b"\n")

    with open(path, "rb") as fh:
        rows, values, bad = _by_dimension(parsed(fh))
    if not sum(map(len, values)):
        raise ValueError(f"{path}: empty filtration")

    def field(key, convert, what):
        try:
            return convert(header[key])
        except ValueError:
            raise ValueError(f"{path}: malformed header line {header_line[key]}: "
                             f"{key}={header[key]!r} is not {what}") from None

    k = field("k", int, "an integer") if "k" in header else len(rows) - 1
    amax = (None if header.get("alpha_max", "none") == "none"
            else field("alpha_max", _positive, "a positive number"))
    return _listed(rows, values, bad, k, header.get("kind", KIND_SPARSE), amax)


def _line_blocks(fh):
    r"""The bytes of the binary file ``fh``, read ``_BLOCK_CHARS`` at a time,
    as blocks of whole lines: a block is cut after its last ``\n`` or
    ``\r``, and its ``\r\n`` and then ``\r`` become ``\n``.  A ``\r`` that
    ends a read may begin a ``\r\n``, so it waits for the next read, as
    does a line longer than a read.  Only the last line of the file may
    lack a line end."""
    held = []   # the bytes read since the last cut
    while chunk := fh.read(_BLOCK_CHARS):
        cut = max(chunk.rfind(b"\n"), chunk.rfind(b"\r", 0, len(chunk) - 1)) + 1
        if cut:
            yield _newlines(b"".join([*held, chunk[:cut]]))
            held = []
        held.append(chunk[cut:])
    if rest := b"".join(held):
        yield _newlines(rest)


def _newlines(block: bytes) -> bytes:
    return block.replace(b"\r\n", b"\n").replace(b"\r", b"\n")


def _positive(text: str) -> float:
    """``float(text)``; ValueError unless it is above 0 (``inf`` is)."""
    value = float(text)
    if not value > 0:
        raise ValueError(text)
    return value


def _parse_block(block: bytes, lineno: int, header: dict, header_line: dict):
    r"""Values, vertex counts and labels of the data lines of ``block``, the
    lines after the first ``lineno``, each ending at ``\n``; comment lines
    go into ``header``.  The tokens are found with one lookup per byte.
    ValueError or OverflowError if some data line does not parse."""
    n = len(block)
    buf = np.frombuffer(block + bytes(_RUN_BYTES), np.uint8)   # padded for the gathers
    inside = np.zeros(n + 2, dtype=bool)   # inside[i + 1]: byte i is in a token
    np.take(_TOKEN_BYTE, buf[:n], out=inside[1:-1])
    edge = np.flatnonzero(inside[1:] != inside[:-1])   # token starts and ends, alternating
    start, size = edge[::2], edge[1::2] - edge[::2]
    newline = np.flatnonzero(buf[:n] == ord("\n"))
    first = np.searchsorted(start, np.append(0, newline + 1))   # each line's first token
    counts = np.diff(first, append=len(start))   # tokens on each line
    data = counts > 0
    comment = np.zeros_like(data)   # a comment line's first token starts with '#'
    comment[data] = buf[start[first[data]]] == ord("#")
    for i in np.flatnonzero(comment).tolist():
        stop = newline[i] if i < len(newline) else n
        for item in block[start[first[i]] + 1:stop].split():
            key, _, header[key] = item.decode(errors="replace").partition("=")
            header_line[key] = lineno + i + 1
    data &= ~comment
    if (counts[data] < 2).any():
        raise ValueError("a data line needs a value and a vertex")
    is_label = np.repeat(data, counts)
    at = first[data]
    is_label[at] = False
    return (_parse_values(block, buf, start[at], size[at]), counts[data] - 1,
            _parse_labels(block, buf, start[is_label], size[is_label]))


def _parse_values(block: bytes, buf: np.ndarray, start: np.ndarray,
                  size: np.ndarray) -> np.ndarray:
    """``float`` of each token of ``size`` bytes at ``start``, called once
    per run of equal tokens: the file is in value order, so about once per
    value."""
    words = -(-min(int(size.max(initial=1)), _RUN_BYTES) // 8)
    rows = np.lib.stride_tricks.sliding_window_view(buf, 8 * words)[start].view(np.uint64)
    rows &= _KEEP[np.minimum(size, _RUN_BYTES), :words]   # clear the bytes after each token
    new = np.ones(len(start), dtype=bool)
    new[1:] = (size[1:] != size[:-1]) | (size[1:] > _RUN_BYTES)
    for w in range(words):
        new[1:] |= rows[1:, w] != rows[:-1, w]
    run = np.flatnonzero(new)
    values = [float(block[a:a + b]) for a, b in zip(start[run].tolist(), size[run].tolist())]
    return np.repeat(np.array(values, dtype=float), np.diff(run, append=len(start)))


def _parse_labels(block: bytes, buf: np.ndarray, start: np.ndarray,
                  size: np.ndarray) -> np.ndarray:
    """``int`` of each token of ``size`` bytes at ``start``, as int64: by
    digit arithmetic for up to 18 ASCII digits, else by ``int`` once per
    distinct token (a sign, ``_`` or more digits); OverflowError beyond int64."""
    labels = np.zeros(len(start), dtype=np.int64)
    plain = size <= _LABEL_DIGITS
    for j in range(min(int(size.max(initial=0)), _LABEL_DIGITS)):
        live = j < size
        digit = buf[start + j] - ord("0")   # uint8: a byte below '0' wraps above 9
        plain &= ~live | (digit <= 9)
        labels = np.where(live, labels * 10 + digit, labels)
    other = np.flatnonzero(~plain)
    if len(other):
        tokens = [block[a:a + b] for a, b in zip(start[other].tolist(), size[other].tolist())]
        table = {t: int(t) for t in set(tokens)}
        labels[other] = np.array([table[t] for t in tokens], dtype=np.int64)
    return labels


def _raise_at_bad_line(path, block: bytes, lineno: int) -> None:
    """Raise the error of the first data line of a block that does not
    parse as a value and int64 labels; the lines follow line ``lineno``."""
    for n, raw in enumerate(block.split(b"\n"), start=lineno + 1):
        parts = raw.split()
        if not parts or parts[0].startswith(b"#"):
            continue
        line = raw.strip().decode(errors="replace")
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
