import math
import pickle
import re
import tempfile
import tracemalloc
from dataclasses import FrozenInstanceError, replace
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings

from sparse_rips import (MalformedFiltrationError, PersistenceDiagram,
                         SparseFiltration, WeightContext,
                         betti_numbers, birth_matrix, build_sparse, charged_degrees,
                         clique_expand, compute_persistence, diagram_equal, filtration_text,
                         from_matrix, from_points, full_rips, net_at, pair_birth,
                         pair_relaxed_distance, point_weight, read_filtration,
                         relaxed_rips, sparse_edges,
                         sparse_size_stats, static_complex, validate_filtration,
                         write_filtration, weight_batch)
from sparse_rips import filtration
from sparse_rips.greedy import DeletionSchedule
from sparse_rips.metric import MetricInput

from filtration_helpers import simplices, tie_heavy_graphs

INF = math.inf
SQ2 = math.sqrt(2.0)

SQUARE = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]


def manual_ctx(points, t_values, eps):
    m = from_points(points)
    s = DeletionSchedule(epsilon=eps, t=np.asarray(t_values, dtype=float))
    return m, WeightContext(epsilon=eps, schedule=s, metric=m)


def brute_flag_filtration(edge_set, verts, k, caps):
    """Every admitted clique on ``verts`` with its value (oracle).

    A clique of two or more vertices enters at its largest edge birth
    and is admitted iff that is at most every vertex cap.
    """
    out = {}
    for size in range(1, k + 2):
        for combo in combinations(sorted(verts), size):
            pairs = list(combinations(combo, 2))
            if not all(e in edge_set for e in pairs):
                continue
            value = max((edge_set[e] for e in pairs), default=0.0)
            if size == 1 or caps is None or value <= min(caps[v] for v in combo):
                out[combo] = value
    return out


# --- sparse_edges ---------------------------------------------------------

def test_sparse_edges_all_infinite_times_is_full_graph():
    m, ctx = manual_ctx(SQUARE, [INF] * 4, 1.0 / 3.0)
    edges = sparse_edges(m, ctx)
    assert len(edges) == 6
    dmat = m.distance_matrix()
    for p, q, b in edges:
        assert b == dmat[p, q]


def test_sparse_edges_inclusion_by_deletion_time():
    eps = 1.0 / 3.0
    m, ctx = manual_ctx([[0.0], [5.0]], [9.0, INF], eps)
    assert sparse_edges(m, ctx).tolist() == [(0, 1, 7.0)]
    m2, ctx2 = manual_ctx([[0.0], [20.0]], [9.0, INF], eps)
    assert sparse_edges(m2, ctx2).tolist() == []  # birth 30 exceeds t = 9


def test_sparse_edges_match_exact_rational_births():
    # Integer inputs force ties in distances, insertion radii and deletion
    # times.  Recompute every birth in Fraction arithmetic from the same
    # float d, t and eps: sparse_edges must keep exactly the pairs with
    # exact birth <= min(t_p, t_q), with births equal up to rounding.  On a
    # line with eps = 0.1, (1 - 2 eps) t_p rounds to d for some pairs while
    # the exact value is below it; their exact birth is just above t_p.
    rng = np.random.default_rng(42)
    inputs = [[[i % w, i // w] for i in range(w * h)]
              for w, h in ((3, 3), (4, 4), (5, 3), (6, 2), (7, 7))]
    inputs += [[[i * step] for i in range(25)] for step in (1, 3)]
    inputs += [np.unique(rng.integers(0, 8, size=(20, 2)), axis=0) for _ in range(3)]
    inputs += [np.unique(rng.integers(0, 4, size=(20, 3)), axis=0) for _ in range(2)]
    cases = 0
    for pts in inputs:
        m = from_points(np.asarray(pts, dtype=float))
        dmat = m.distance_matrix()
        for eps in (0.1, 0.2, 0.25, 1.0 / 3.0):
            ctx = WeightContext.build(m, eps)
            t = [INF if math.isinf(x) else Fraction(float(x)) for x in ctx.schedule.t]
            exact = {}
            for p, q in combinations(range(m.n), 2):
                b = pair_birth(Fraction(float(dmat[p, q])), t[p], t[q],
                               Fraction(ctx.epsilon))
                if b <= min(t[p], t[q]):
                    exact[(p, q)] = b
            got = {(p, q): b for p, q, b in sparse_edges(m, ctx)}
            assert got.keys() == exact.keys(), (pts, eps, got.keys() ^ exact.keys())
            for pq, b in exact.items():
                assert abs(Fraction(got[pq]) - b) <= b * Fraction(1, 10**12)
            cases += 1
    assert cases == 48


KERNELS = ("euclidean", "manhattan", "chebyshev")


def dense_edges(m, ctx):
    """sparse_edges by the dense n x n birth matrix (oracle)."""
    t = ctx.schedule.t
    return filtration._edges_within(birth_matrix(m, ctx), np.minimum.outer(t, t))


@pytest.mark.parametrize("kind", KERNELS)
def test_sparse_edges_match_dense_oracle_random(kind):
    rng = np.random.default_rng(100 + KERNELS.index(kind))
    for _ in range(100):
        dim, n = int(rng.integers(1, 11)), int(rng.integers(2, 40))
        m = from_points(rng.normal(size=(n, dim)) * 10.0 ** int(rng.integers(-3, 4)), kind)
        eps = float(rng.choice([0.05, 0.1, 0.25, 1.0 / 3.0]))
        ctx = WeightContext.build(m, eps, seed=int(rng.integers(0, m.n)))
        assert sparse_edges(m, ctx).tolist() == dense_edges(m, ctx).tolist(), (dim, n, eps)


@pytest.mark.parametrize("kind", KERNELS)
def test_sparse_edges_match_dense_oracle_on_tie_grids_and_extreme_scales(kind):
    grids = [[(x, y) for x in range(w) for y in range(h)] for w, h in ((5, 5), (8, 3))]
    grids += [[(x, y, z) for x in range(3) for y in range(3) for z in range(3)],
              [(3 * x,) for x in range(20)]]
    rng = np.random.default_rng(7)
    # squared distances subnormal (euclidean) or near overflow
    scaled = [rng.random((25, 2)) * 1e-160, rng.random((25, 3)) * 1e150]
    for pts in [np.asarray(g, dtype=float) for g in grids] + scaled:
        m = from_points(pts, kind)
        for eps in (0.1, 0.2, 0.25, 1.0 / 3.0):
            for seed in (0, m.n - 1):
                ctx = WeightContext.build(m, eps, seed=seed)
                assert (sparse_edges(m, ctx).tolist()
                        == dense_edges(m, ctx).tolist()), (m.n, eps, seed)


def test_sparse_edges_match_dense_oracle_on_hand_schedules():
    # several t = inf points, ties in t, and t = 0
    rng = np.random.default_rng(9)
    for i in range(40):
        n = int(rng.integers(1, 25))
        pts = rng.random((n, int(rng.integers(1, 4)))) * 4
        t = rng.choice([0.0, 0.5, 1.0, 1.0, 2.0, 3.0, INF, INF], size=n)
        m, ctx = manual_ctx(pts, t, float(rng.choice([0.1, 1.0 / 3.0])))
        assert sparse_edges(m, ctx).tolist() == dense_edges(m, ctx).tolist(), i


def test_sparse_edges_match_dense_oracle_on_one_and_two_points():
    for pts, t in [([[0.0]], [INF]), ([[2.0, 1.0]], [0.0]), ([[0.0], [3.0]], [INF, INF]),
                   ([[0.0], [3.0]], [1.0, INF]), ([[0.0], [3.0]], [5.0, 5.0]),
                   ([[0.0], [3.0]], [4.5, INF]), ([[0.0], [3.0]], [0.0, 0.0])]:
        m, ctx = manual_ctx(pts, t, 1.0 / 3.0)
        assert sparse_edges(m, ctx).tolist() == dense_edges(m, ctx).tolist(), (pts, t)
        greedy = WeightContext.build(m, 0.25, seed=m.n - 1)
        assert sparse_edges(m, greedy).tolist() == dense_edges(m, greedy).tolist(), pts
    # a hand-made input may keep duplicates: t = 0 still admits d = 0
    m = MetricInput("euclidean", 3, points=np.array([[1.0], [1.0], [2.0]]))
    ctx = WeightContext(1.0 / 3.0, DeletionSchedule(1.0 / 3.0, np.array([0.25, 0.0, INF])), m)
    assert sparse_edges(m, ctx).tolist() == dense_edges(m, ctx).tolist() == [(0, 1, 0.0)]


@pytest.mark.filterwarnings("ignore:removed .* duplicate point")
@pytest.mark.parametrize("kind", KERNELS)
def test_candidate_pairs_match_dense_mask_with_distance_ties(kind):
    # every t is the distance of some pair, so pairs lie exactly on the
    # query radius; the tree's own rounding must not lose them, also where
    # the squared distances are subnormal
    rng = np.random.default_rng(200 + KERNELS.index(kind))
    for i in range(400):
        n, dim = int(rng.integers(2, 30)), int(rng.integers(1, 11))
        m = from_points(rng.normal(size=(n, dim)) * [1e-160, 1e-3, 1.0, 1e150][i % 4], kind)
        dmat = m.distance_matrix()
        t = dmat[np.arange(m.n), (np.arange(m.n) + 1 + rng.integers(0, m.n, m.n)) % m.n]
        t[rng.integers(0, m.n)] = INF
        a, b, d = filtration._candidate_pairs(m, t)
        iu, ju = np.nonzero(np.triu(dmat <= np.minimum.outer(t, t), k=1))
        assert (a.tolist(), b.tolist(), d.tolist()) == (iu.tolist(), ju.tolist(),
                                                         dmat[iu, ju].tolist()), i


def test_sparse_edges_keep_exact_ties_whose_float_slack_is_negative():
    # d equal to the exact g(c) = c - w_p(c) - w_q(c) at c = min(t_p, t_q),
    # where the float g(c) rounds below d: the exact birth is c, an edge
    rng = np.random.default_rng(12)
    cases = 0
    while cases < 40:
        eps = float(rng.choice([0.1, 0.2, 0.25, 0.3, 1.0 / 3.0]))
        tp = float(rng.integers(1, 1000)) / float(rng.integers(1, 50))
        tq = tp * float(rng.uniform(1.0, 1.5)) if rng.random() < 0.5 else tp
        c, t_p, t_q, e = map(Fraction, (tp, tp, tq, eps))
        exact = c - point_weight(c, t_p, e) - point_weight(c, t_q, e)
        d = float(exact)
        if Fraction(d) > exact:
            d = float(np.nextafter(d, 0.0))
        if not tp - weight_batch(tp, tp, eps) - weight_batch(tp, tq, eps) < d:
            continue
        m, ctx = manual_ctx([[0.0], [d]], [tp, tq], eps)
        assert sparse_edges(m, ctx).tolist() == dense_edges(m, ctx).tolist(), (eps, tp, tq, d)
        assert [(p, q) for p, q, _ in sparse_edges(m, ctx)] == [(0, 1)]
        cases += 1


def test_sparse_edges_of_an_explicit_matrix_match_dense_oracle():
    rng = np.random.default_rng(10)
    for _ in range(10):
        pts = np.unique(rng.integers(0, 4, size=(int(rng.integers(2, 20)), 2)), axis=0)
        pts = pts.astype(float)
        m = from_matrix(np.abs(pts[:, None] - pts[None, :]).max(axis=2))
        ctx = WeightContext.build(m, 0.2)
        assert sparse_edges(m, ctx).tolist() == dense_edges(m, ctx).tolist()


# --- clique_expand --------------------------------------------------------

def test_clique_expand_triangle_value_is_max_edge():
    f = clique_expand([(0, 1, 1.0), (0, 2, 2.0), (1, 2, 3.0)], 3, 2)
    tris = [(verts, value) for verts, value in simplices(f) if len(verts) == 3]
    assert len(tris) == 1
    assert tris[0][0] == (0, 1, 2)
    assert tris[0][1] == 3.0


def test_clique_expand_path_has_no_triangles():
    f = clique_expand([(0, 1, 1.0), (1, 2, 1.0)], 3, 2)
    assert all(len(verts) - 1 < 2 for verts, _ in simplices(f))


def test_clique_expand_unit_square():
    m, ctx = manual_ctx(SQUARE, [INF] * 4, 1.0 / 3.0)
    f = clique_expand(sparse_edges(m, ctx), 4, 2)
    values = {}
    for verts, value in simplices(f):
        values.setdefault(len(verts) - 1, []).append(round(value, 12))
    assert values[0] == [0.0] * 4
    assert sorted(values[1]) == pytest.approx([1.0] * 4 + [SQ2] * 2)
    assert values[2] == pytest.approx([SQ2] * 4)


def test_clique_expand_matches_brute_force_enumeration():
    rng = np.random.default_rng(31)
    for _ in range(10):
        n = int(rng.integers(3, 9))
        k = int(rng.integers(1, 4))
        edge_set = {}
        for a, b in combinations(range(n), 2):
            if rng.random() < 0.55:
                edge_set[(a, b)] = float(rng.uniform(0.1, 2.0))
        f = clique_expand([(a, b, v) for (a, b), v in edge_set.items()], n, k)
        got = {verts for verts, _ in simplices(f)}
        assert got == set(brute_flag_filtration(edge_set, range(n), k, None))
        for verts, value in simplices(f):  # value = max over edges
            if len(verts) >= 2:
                expect = max(edge_set[e] for e in combinations(verts, 2))
                assert value == expect
        assert_built_facets(f)


def test_clique_expand_matches_brute_force_with_caps_and_ties():
    rng = np.random.default_rng(48)
    for trial in range(240):
        n = int(rng.integers(1, 9))
        k = 1 + trial % 3
        ties = trial % 2 == 0  # integer births and caps tie with each other
        draw = ((lambda: float(rng.integers(0, 4))) if ties
                else (lambda: float(rng.uniform(0.1, 2.0))))
        edge_set = {(a, b): draw() for a, b in combinations(range(n), 2)
                    if rng.random() < 0.6}
        edges = [(b, a, v) if rng.random() < 0.5 else (a, b, v)
                 for (a, b), v in edge_set.items()]
        edges = [edges[i] for i in rng.permutation(len(edges))]
        caps = None
        if trial % 4 >= 2:
            caps = np.array([INF if rng.random() < 0.2 else draw() for _ in range(n)])
        f = clique_expand(edges, n, k, vertex_caps=caps)
        assert_built_facets(f)
        sims = simplices(f)
        assert sims == sorted(sims, key=lambda s: (s[1], len(s[0]), s[0]))
        expect = brute_flag_filtration(edge_set, range(n), k, caps)
        assert dict(sims) == expect and len(sims) == len(expect)


def test_clique_expand_refuses_a_nan_vertex_cap():
    # compared as a float, a NaN cap lifted the cap of every clique on its
    # vertex: edge (0, 5) and triangle (0, 3, 5) came in at 1.0 although
    # vertex 0 has cap 0
    caps = [0.0, 1.0, INF, 0.0, INF, math.nan, INF, INF]
    edges = [(0, 3, 0.0), (0, 5, 1.0), (3, 5, 1.0)]
    assert clique_expand(edges, 8, 2, vertex_caps=np.nan_to_num(caps, nan=1.0)).counts_by_dim() \
        == [8, 1, 0]
    with pytest.raises(ValueError, match=r"^bad cap nan for vertex 5$"):
        clique_expand(edges, 8, 2, vertex_caps=caps)


@pytest.mark.parametrize("caps", [[1.0, 1.0], [[1.0, 1.0, 1.0]], [1.0, 1.0, 1.0, 1.0]])
def test_clique_expand_refuses_vertex_caps_of_another_shape(caps):
    # two caps for three vertices raised a bare IndexError, and four were taken
    with pytest.raises(ValueError, match=r"^vertex_caps must have shape \(3,\), got "):
        clique_expand([(0, 1, 0.5), (1, 2, 0.5)], 3, 2, vertex_caps=caps)


def test_clique_expand_vertex_caps_prune():
    # triangle whose longest edge outlives the earliest-deleted vertex
    edges = [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 5.0)]
    caps = np.array([2.0, INF, INF])
    f = clique_expand(edges, 3, 2, vertex_caps=caps)
    names = {verts for verts, _ in simplices(f)}
    assert (0, 1) in names and (0, 2) in names
    assert (1, 2) in names  # cap of its own endpoints allows it
    assert (0, 1, 2) not in names  # max edge 5 > min cap 2


def test_clique_expand_rejects_bad_edges():
    with pytest.raises(ValueError):
        clique_expand([(0, 0, 1.0)], 2, 2)
    with pytest.raises(ValueError):
        clique_expand([(0, 1, 1.0), (1, 0, 2.0)], 2, 2)
    with pytest.raises(ValueError):
        clique_expand([(0, 1, 1.0)], 2, 0)


@pytest.mark.parametrize("birth", [math.nan, INF, -INF, -1.0, -5e-324])
@pytest.mark.parametrize("caps", [None, [0.5, 0.5, 0.5]])
def test_clique_expand_rejects_bad_births(birth, caps):
    # the build is not checked again, so a birth that is no finite number >= 0
    # is refused, named by its edge, even where a vertex cap would drop it
    edges = [(0, 1, 0.25), (2, 0, birth), (1, 2, 0.5)]
    message = rf"^bad birth {re.escape(str(birth))} for edge \(0, 2\)$"
    with pytest.raises(ValueError, match=message):
        clique_expand(edges, 3, 2, vertex_caps=caps)


def test_clique_expand_accepts_a_negative_zero_birth():
    f = clique_expand([(0, 1, -0.0), (0, 2, 0.0), (1, 2, 1.0)], 3, 2)
    assert f.values[1].tolist() == [0.0, 0.0, 1.0] and np.signbit(f.values[1][0])
    assert f.values[2].tolist() == [1.0]
    assert_built_facets(f)


def test_signed_zero_births_keep_their_bits():
    # an edge keeps the bits of its birth; a simplex of value 0 takes the bits
    # of its last edge (x_{d-1}, x_d), as the maximum of its births gave them
    edges = [(0, 1, -0.0), (0, 2, 0.0), (1, 2, -0.0), (0, 3, 0.0), (1, 3, 0.0),
             (2, 3, -0.0), (0, 4, 1.0), (1, 4, -0.0), (2, 4, 0.0), (3, 4, -0.0)]
    expect = {
        1: ([[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [1, 4], [2, 3], [2, 4], [3, 4], [0, 4]],
            [1, 0, 0, 1, 0, 1, 1, 0, 1, 0]),
        2: ([[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3], [1, 2, 4], [1, 3, 4], [2, 3, 4],
             [0, 1, 4], [0, 2, 4], [0, 3, 4]], [1, 0, 1, 1, 0, 1, 1, 0, 0, 0]),
        3: ([[0, 1, 2, 3], [1, 2, 3, 4], [0, 1, 2, 4], [0, 1, 3, 4], [0, 2, 3, 4]],
            [1, 1, 0, 0, 0]),
    }
    for order in (edges, edges[::-1]):
        f = clique_expand(order, 5, 3)
        for d, (rows, negative) in expect.items():
            assert f.vertices[d].tolist() == rows
            assert f.values[d].tolist() == [float({0, 4} <= set(r)) for r in rows]
            assert np.signbit(f.values[d]).astype(int).tolist() == negative
        assert_built_facets(f)


def test_a_vertex_value_of_negative_zero_is_refused(tmp_path):
    # the writer would write it back as "-0.0" and the diagram would carry it
    message = "vertex (0,) has value -0.0, not 0.0"
    path = tmp_path / "filt.txt"
    path.write_text("-0.0 0\n0.0 1\n1.0 0 1\n")
    with pytest.raises(MalformedFiltrationError) as exc:
        read_filtration(path)
    assert str(exc.value) == message
    with pytest.raises(MalformedFiltrationError) as exc:   # so no writer can meet it
        SparseFiltration((np.array([[0], [1]]), np.array([[0, 1]])),
                         (np.array([-0.0, 0.0]), np.array([1.0])), 1, "sparse_S")
    assert str(exc.value) == message


def test_clique_expand_refuses_keys_that_could_overflow(monkeypatch):
    # a (d+1)-simplex is keyed by its parent's position * n + its last vertex
    edges = [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)]   # 3 vertices, 3 edges, 1 triangle
    monkeypatch.setattr(filtration, "_KEY_LIMIT", 10)
    assert clique_expand(edges, 3, 2).counts_by_dim() == [3, 3, 1]
    monkeypatch.setattr(filtration, "_KEY_LIMIT", 9)
    assert clique_expand(edges, 3, 1).counts_by_dim() == [3, 3]
    with pytest.raises(ValueError,
                       match="^3 simplices of dimension 1 on 3 vertices are too many to index$"):
        clique_expand(edges, 3, 2)


def test_clique_expand_refuses_sort_keys_that_could_overflow(monkeypatch):
    # a d-simplex sorts by its value rank * m_d + its vertex-order position,
    # and a rank is below the edge count: K5 has 10 edges and 10 triangles
    edges = [(a, b, float(a + b)) for a, b in combinations(range(5), 2)]
    monkeypatch.setattr(filtration, "_KEY_LIMIT", 101)
    assert clique_expand(edges, 5, 2).counts_by_dim() == [5, 10, 10]
    monkeypatch.setattr(filtration, "_KEY_LIMIT", 100)   # growth keys stay below 10 * 5
    with pytest.raises(ValueError,
                       match="^10 simplices of dimension 2 over 10 edges are too many to sort$"):
        clique_expand(edges, 5, 2)


def test_a_shuffled_edge_list_builds_the_same_filtration():
    # edges in vertex order skip the sort into it; any other order takes it
    rng = np.random.default_rng(65)
    for n, ties in ((60, False), (40, True)):
        grid = np.argwhere(np.ones((8, 8)))[rng.choice(64, n, replace=False)]   # ties
        m = from_points(grid if ties else rng.random((n, 2)))
        ctx = WeightContext.build(m, 1 / 3)
        edges = sparse_edges(m, ctx)
        assert (np.diff(edges["p"] * n + edges["q"]) > 0).all()
        f = clique_expand(edges, n, 3, vertex_caps=ctx.schedule.t)
        shuffled = edges[rng.permutation(len(edges))]
        flip = rng.random(len(edges)) < 0.5
        shuffled["p"], shuffled["q"] = (np.where(flip, shuffled["q"], shuffled["p"]),
                                        np.where(flip, shuffled["p"], shuffled["q"]))
        g = clique_expand(shuffled, n, 3, vertex_caps=ctx.schedule.t)
        assert_same_filtration(f, g)
        assert_same_facets(f.facets, g.facets)
        assert f.counts_by_dim()[3] > 0


@pytest.mark.parametrize("edge", [(-1, 2), (2, -1), (0, 3), (3, 1)])
def test_clique_expand_rejects_labels_outside_the_vertices(edge):
    # the vertices are 0..n-1; an edge that leaves them is an error, not dropped
    edges = [(0, 1, 2.0), (*edge, 0.5)]
    lo, hi = sorted(edge)
    with pytest.raises(ValueError, match=rf"^edge \({lo}, {hi}\) outside vertices 0\.\.2$"):
        clique_expand(edges, 3, 2)


def test_edge_list_forms():
    # tuples and the EDGE_DTYPE array give one filtration; the array is read
    # as it is; 3-lists (which numpy reads as 2-D records) and 2-tuples are refused
    tuples = [(0, 1, 1.0), (1, 2, 2.0), (0, 2, 3.0), (2, 3, 0.5)]
    array = np.array(tuples, dtype=filtration.EDGE_DTYPE)
    assert filtration._as_edges(array) is array
    t = np.array([1.0, 2.0, 2.0, INF])
    want = simplices(clique_expand(tuples, 4, 2))
    assert want[-1] == ((0, 1, 2), 3.0)
    assert simplices(clique_expand(array, 4, 2)) == want
    # (1, 2) is a tie in t, so it counts for both ends
    assert charged_degrees(array, t).tolist() == charged_degrees(tuples, t).tolist() == [2, 1, 2, 0]
    assert simplices(clique_expand([], 4, 2)) == [((v,), 0.0) for v in range(4)]
    assert charged_degrees([], t).tolist() == [0, 0, 0, 0]
    for bad in ([list(e) for e in tuples], [(p, q) for p, q, _ in tuples], [[0, 1, 1.0]]):
        with pytest.raises(ValueError):
            clique_expand(bad, 4, 2)
        with pytest.raises(ValueError):
            charged_degrees(bad, t)


# --- build_sparse ---------------------------------------------------------

def test_build_sparse_single_point():
    f = build_sparse(from_points([[0.0]]), 0.1, 2)
    assert len(simplices(f)) == 1
    assert simplices(f)[0][0] == (0,)
    assert simplices(f)[0][1] == 0.0


def test_build_sparse_four_point_line():
    # hand-composed: t = [inf, 9, 18, 36] by point index, eps = 1/3
    m = from_points([[0.0], [1.0], [2.0], [4.0]])
    f = build_sparse(m, 1.0 / 3.0, 1)
    edges = {verts: value for verts, value in simplices(f) if len(verts) == 2}
    ctx = WeightContext.build(m, 1.0 / 3.0)
    t = ctx.schedule.t
    from sparse_rips import pair_birth
    dmat = m.distance_matrix()
    expect = {}
    for p, q in combinations(range(4), 2):
        b = pair_birth(float(dmat[p, q]), float(t[p]), float(t[q]), 1.0 / 3.0)
        if b <= min(t[p], t[q]):
            expect[(p, q)] = b
    assert edges == expect
    assert len(f.counts_by_dim()) == 2


def test_build_sparse_tiny_epsilon_equals_full_rips():
    # all deletion times far beyond the diameter: no weight ever activates
    pts = [[0.0, 0.0], [1.0, 0.1], [2.0, -0.1], [2.8, 0.4], [1.4, 1.2]]
    m = from_points(pts)
    eps = 0.01
    f = build_sparse(m, eps, 2)
    diam = float(m.distance_matrix().max())
    full = full_rips(m, diam * 1.01, 2)
    assert simplices(f) == simplices(full)


def test_build_sparse_subset_of_relaxed_with_same_values():
    rng = np.random.default_rng(32)
    m = from_points(rng.random((14, 2)))
    ctx = WeightContext.build(m, 0.25)
    from sparse_rips import build_sparse_from_context
    f = build_sparse_from_context(m, ctx, 2)
    births = {}
    rel = relaxed_rips(m, ctx, 1e9, 2)
    for verts, value in simplices(rel):
        births[verts] = value
    for verts, value in simplices(f):
        assert verts in births
        assert births[verts] == value


# --- full_rips ------------------------------------------------------------

def test_full_rips_unit_square():
    m = from_points(SQUARE)
    f = full_rips(m, 2.0, 2)
    counts = f.counts_by_dim()
    assert counts == [4, 6, 4]
    values1 = sorted(round(value, 12) for verts, value in simplices(f) if len(verts) == 2)
    assert values1 == pytest.approx([1.0] * 4 + [SQ2] * 2)


def test_full_rips_truncation():
    m = from_points([[0.0], [3.0]])
    f = full_rips(m, 2.0, 2)
    assert f.counts_by_dim() == [2, 0, 0]
    assert f.alpha_max == 2.0


def test_full_rips_equilateral():
    m = from_points([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3) / 2]])
    f = full_rips(m, 1.5, 2)
    assert f.counts_by_dim() == [3, 3, 1]
    tri = [(verts, value) for verts, value in simplices(f) if len(verts) == 3][0]
    assert tri[1] == pytest.approx(1.0)


def test_full_rips_alpha_max_validation():
    with pytest.raises(ValueError):
        full_rips(from_points([[0.0]]), 0.0, 2)


# --- relaxed_rips ---------------------------------------------------------

def test_relaxed_rips_all_infinite_equals_full():
    m, ctx = manual_ctx(SQUARE, [INF] * 4, 0.25)
    rel = relaxed_rips(m, ctx, 2.0, 2)
    full = full_rips(m, 2.0, 2)
    assert simplices(rel) == simplices(full)


def test_relaxed_rips_two_points():
    m, ctx = manual_ctx([[0.0], [5.0]], [INF, 9.0], 1.0 / 3.0)
    rel = relaxed_rips(m, ctx, 50.0, 1)
    edge = [(verts, value) for verts, value in simplices(rel) if len(verts) == 2][0]
    assert edge[1] == pytest.approx(7.0, abs=1e-12)


def test_relaxed_edges_within_metric_interleaving():
    # every relaxed edge at value v satisfies d <= v, and every metric
    # edge with d <= (1 - 2 eps) alpha_max appears at value <= d/(1 - 2 eps)
    rng = np.random.default_rng(33)
    m = from_points(rng.random((12, 2)))
    eps = 0.25
    ctx = WeightContext.build(m, eps)
    alpha_max = 1.0
    rel = relaxed_rips(m, ctx, alpha_max, 1)
    dmat = m.distance_matrix()
    rel_edges = {verts: value for verts, value in simplices(rel) if len(verts) == 2}
    for (p, q), v in rel_edges.items():
        assert dmat[p, q] <= v
    full = full_rips(m, alpha_max, 1)
    for verts, value in simplices(full):
        if len(verts) == 2 and value <= (1 - 2 * eps) * alpha_max:
            assert verts in rel_edges
            assert rel_edges[verts] <= value / (1 - 2 * eps) + 1e-12


# --- static_complex -------------------------------------------------------

def test_static_complex_isolated_below_everything():
    rng = np.random.default_rng(34)
    m = from_points(rng.random((8, 2)))
    ctx = WeightContext.build(m, 0.25)
    c = static_complex(m, ctx, 1e-9, "relaxed_full", 2)
    assert c.counts_by_dim() == [8, 0, 0]


def test_static_complex_open_equals_closed_off_deletion_times():
    rng = np.random.default_rng(35)
    m = from_points(rng.random((10, 2)))
    ctx = WeightContext.build(m, 1.0 / 3.0)
    t = ctx.schedule.t
    hi = t[np.isfinite(t)].max() * 1.2
    for alpha in rng.uniform(0, hi, size=8):
        alpha = float(alpha)
        if np.any(np.abs(t - alpha) < 1e-12):
            continue
        a = static_complex(m, ctx, alpha, "Q_open", 2)
        b = static_complex(m, ctx, alpha, "Q_closed", 2)
        assert simplices(a) == simplices(b)


def test_static_complex_boundary_at_deletion_time():
    m = from_points([[0.0], [1.0], [2.0], [4.0]])
    ctx = WeightContext.build(m, 1.0 / 3.0)  # t = [inf, 9, 18, 36]
    q_open = static_complex(m, ctx, 9.0, "Q_open", 2)
    q_closed = static_complex(m, ctx, 9.0, "Q_closed", 2)
    open_verts = {verts[0] for verts, _ in simplices(q_open) if len(verts) == 1}
    closed_verts = {verts[0] for verts, _ in simplices(q_closed) if len(verts) == 1}
    assert 1 not in open_verts
    assert 1 in closed_verts


def test_static_open_is_induced_subcomplex_of_relaxed():
    rng = np.random.default_rng(36)
    m = from_points(rng.random((12, 2)))
    ctx = WeightContext.build(m, 0.25)
    t = ctx.schedule.t
    for alpha in rng.uniform(0.05, t[np.isfinite(t)].max(), size=6):
        alpha = float(alpha)
        q = static_complex(m, ctx, alpha, "Q_open", 2)
        r = static_complex(m, ctx, alpha, "relaxed_full", 2)
        net = set(net_at(ctx.schedule, alpha).tolist())
        induced = {verts for verts, _ in simplices(r) if set(verts) <= net}
        assert {verts for verts, _ in simplices(q)} == induced


def test_static_complex_is_a_constant_zero_filtration():
    rng = np.random.default_rng(33)
    m = from_points(rng.random((12, 2)))
    ctx = WeightContext.build(m, 0.25)
    t = ctx.schedule.t
    for alpha in rng.uniform(0.0, t[np.isfinite(t)].max(), size=4):
        for kind in ("Q_open", "Q_closed", "relaxed_full"):
            c = static_complex(m, ctx, float(alpha), kind, 2)
            assert isinstance(c, SparseFiltration)
            assert c.kind == kind and c.k == 2
            assert_built_facets(c)
            assert {value for _, value in simplices(c)} == {0.0}


def test_static_nets_match_brute_force_on_integer_grids():
    # points of an integer grid tie distances, deletion times and scales; with
    # eps = 1/4 the weights are exact, so the scales at deletion times and at
    # weight breakpoints land on the boundaries of nets and edges
    rng = np.random.default_rng(49)
    grid = np.indices((8, 8)).reshape(2, -1).T
    for trial, metric in enumerate(["manhattan", "euclidean", "chebyshev"] * 2):
        m = from_points(grid[rng.choice(64, size=16, replace=False)], metric_kind=metric)
        ctx = WeightContext.build(m, 0.25, seed=trial)
        t, dmat = ctx.schedule.t, m.distance_matrix()
        finite = t[np.isfinite(t)]
        k = 2 + trial % 2
        for alpha in sorted({*range(int(finite.max()) + 1),
                             *(0.5 * finite).tolist(), *(0.75 * finite).tolist()}):
            for kind in ("Q_open", "Q_closed"):
                net = net_at(ctx.schedule, alpha, closed=(kind == "Q_closed")).tolist()
                edge_set = {(p, q): 0.0 for p, q in combinations(net, 2)
                            if pair_relaxed_distance(float(dmat[p, q]), t[p], t[q],
                                                     0.25, alpha) <= alpha}
                c = static_complex(m, ctx, float(alpha), kind, k)
                assert_built_facets(c)
                sims = simplices(c)
                assert sims == sorted(sims, key=lambda s: (len(s[0]), s[0]))
                assert dict(sims) == brute_flag_filtration(edge_set, net, k, None)
                assert len(sims) == len(dict(sims))


def test_static_complex_kind_validation():
    m = from_points([[0.0], [1.0]])
    ctx = WeightContext.build(m, 0.2)
    with pytest.raises(ValueError):
        static_complex(m, ctx, 1.0, "bogus", 2)


# --- invariants, stats, and io -------------------------------------------

def test_filtration_validity_of_all_constructions():
    rng = np.random.default_rng(37)
    m = from_points(rng.random((15, 2)))
    ctx = WeightContext.build(m, 0.2)
    from sparse_rips import build_sparse_from_context
    for f in (build_sparse_from_context(m, ctx, 3),
              full_rips(m, 0.8, 2),
              relaxed_rips(m, ctx, 0.8, 2)):
        assert_built_facets(f)


def test_admission_filter_invariant():
    rng = np.random.default_rng(38)
    m = from_points(rng.random((15, 2)))
    ctx = WeightContext.build(m, 1.0 / 3.0)
    from sparse_rips import build_sparse_from_context
    f = build_sparse_from_context(m, ctx, 3)
    t = ctx.schedule.t
    for verts, value in simplices(f):
        assert value <= min(t[v] for v in verts)


def test_size_stats_match_materialized_build():
    # counts against the materialized filtration; the degree also against
    # the dense birth matrix: max_p #{q != p : t_q >= t_p, birth <= t_p}
    from sparse_rips import build_sparse_from_context, max_edge_degree
    rng = np.random.default_rng(39)
    contexts = []
    for _ in range(6):
        n = int(rng.integers(3, 35))
        m = from_points(rng.random((n, 2)))
        contexts.append(WeightContext.build(m, float(rng.choice([0.1, 0.25, 1 / 3]))))
    # integer tie grids
    grids = [[(x, y) for x in range(w) for y in range(h)] for w, h in ((5, 5), (8, 3))]
    grids += [[(x, y, z) for x in range(3) for y in range(3) for z in range(3)],
              [(3 * x,) for x in range(20)]]
    for pts in grids:
        m = from_points(np.asarray(pts, dtype=float))
        contexts += [WeightContext.build(m, eps, seed=seed)
                     for eps in (0.1, 0.25, 1.0 / 3.0) for seed in (0, m.n - 1)]
    # hand schedules: several t = inf, ties in t (an edge's root is then its
    # lower index) and t = 0; then n = 1 and 2
    hand = np.random.default_rng(10)
    for _ in range(40):
        n = int(hand.integers(1, 25))
        pts = hand.random((n, int(hand.integers(1, 4)))) * 4
        t = hand.choice([0.0, 0.5, 1.0, 1.0, 2.0, 3.0, INF, INF], size=n)
        contexts.append(manual_ctx(pts, t, float(hand.choice([0.1, 1.0 / 3.0])))[1])
    for pts, t in [([[0.0]], [INF]), ([[2.0, 1.0]], [0.0]), ([[0.0], [3.0]], [INF, INF]),
                   ([[0.0], [3.0]], [1.0, INF]), ([[0.0], [3.0]], [5.0, 5.0]),
                   ([[0.0], [3.0]], [4.5, INF]), ([[0.0], [1.0], [0.5]], [INF, INF, INF]),
                   ([[0.0], [1.0], [0.5]], [2.0, 2.0, 2.0])]:
        m, ctx = manual_ctx(pts, t, 1.0 / 3.0)
        contexts += [ctx, WeightContext.build(m, 0.25, seed=m.n - 1)]
    # explicit matrices: a line of integers (ties), random points, one point
    x, pts = np.arange(12.0), rng.random((20, 2))
    for mat in (np.abs(np.subtract.outer(x, x)), np.hypot(*(pts[:, None] - pts).T), [[0.0]]):
        m = from_matrix(mat)
        contexts += [WeightContext.build(m, eps) for eps in (0.1, 1.0 / 3.0)]
    for i, ctx in enumerate(contexts):
        m, t = ctx.metric, ctx.schedule.t
        keep = (birth_matrix(m, ctx) <= t[:, None]) & (t[None, :] >= t[:, None])
        np.fill_diagonal(keep, False)
        for k in (1, 2, 3):
            st = sparse_size_stats(m, ctx, k)
            f = build_sparse_from_context(m, ctx, k)
            assert st.counts_by_dim == tuple(f.counts_by_dim()), (i, k)
            assert st.max_degree == max_edge_degree(m, ctx), (i, k)
            assert st.max_degree == int(keep.sum(axis=1).max()), (i, k)


def test_size_stats_build_one_birth_matrix(monkeypatch):
    # the stats count on the sparse edge list: no n x n birth matrix for any k
    import sparse_rips.filtration as filtration
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return birth_matrix(*args, **kwargs)

    monkeypatch.setattr(filtration, "birth_matrix", counted)
    m = from_points(np.random.default_rng(44).random((20, 2)))
    ctx = WeightContext.build(m, 0.25)
    for k in (1, 2, 3):
        calls.clear()
        sparse_size_stats(m, ctx, k)
        assert len(calls) == 0, k


def test_edge_degree_definition():
    # degrees count neighbors with later-or-equal deletion and early birth
    eps = 1.0 / 3.0
    m, ctx = manual_ctx([[0.0], [5.0], [40.0]], [9.0, INF, INF], eps)
    deg = charged_degrees(sparse_edges(m, ctx), ctx.schedule.t)
    # (0,1): birth 7 <= t0 = 9, counted for 0 only since t1 > t0.
    # (1,2): birth 35, both immortal, the tie counts for both.
    # (0,2): birth 60 > t0 = 9, no edge.
    assert deg.tolist() == [1, 1, 1]


def test_filtration_text_round_trip(tmp_path):
    rng = np.random.default_rng(40)
    m = from_points(rng.random((10, 2)))
    f = build_sparse(m, 0.25, 2)
    path = tmp_path / "filt.txt"
    write_filtration(f, path)
    g = read_filtration(path)
    assert g.k == f.k and g.kind == f.kind and g.alpha_max == f.alpha_max
    assert simplices(g) == simplices(f)


def test_read_filtration_infers_k_without_header(tmp_path):
    path = tmp_path / "filt.txt"
    path.write_text("0.0 0\n0.0 1\n1.0 0 1\n")
    f = read_filtration(path)
    assert f.k == 1
    assert len(simplices(f)) == 3


# --- text format: the block reader and the token writer --------------------

def reference_read(path):
    """The line-at-a-time reader that the block parser replaced: the oracle
    for its arrays, header fields and malformed-line messages."""
    header, sims = {}, []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                header.update(tok.partition("=")[::2] for tok in line[1:].split())
                continue
            parts = line.split()
            try:
                if len(parts) < 2:
                    raise ValueError
                sims.append((tuple(map(int, parts[1:])), float(parts[0])))
            except ValueError:
                raise ValueError(f"{path}: malformed line {lineno}: {line!r}") from None
    if not sims:
        raise ValueError(f"{path}: empty filtration")
    k = int(header["k"]) if "k" in header else max(len(v) for v, _ in sims) - 1
    amax = header.get("alpha_max", "none")
    return SparseFiltration.from_simplices(sims, k, header.get("kind", "sparse_S"),
                                           None if amax == "none" else float(amax))


def reference_text(f):
    """The one-format-per-line writer that the token writer replaced."""
    amax = "none" if f.alpha_max is None else repr(float(f.alpha_max))
    return "\n".join([f"# k={f.k} kind={f.kind} alpha_max={amax}"] + [
        ("%r" + " %d" * len(verts)) % (value, *verts) for verts, value in simplices(f)]) + "\n"


def assert_same_filtration(f, g):
    assert (f.k, f.kind, f.alpha_max) == (g.k, g.kind, g.alpha_max)
    assert len(f.vertices) == len(g.vertices) == len(f.values) == len(g.values)
    for a, b in zip((*f.vertices, *f.values), (*g.vertices, *g.values)):
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())


def relabelled(f, relabel, revalue=lambda v: v):
    """f with vertex v renamed relabel[v], one to one, and value x replaced by
    revalue(x), monotone, put back into the global order."""
    sims = sorted(((tuple(sorted(relabel[v] for v in verts)), revalue(value))
                   for verts, value in simplices(f)),
                  key=lambda s: (s[1], len(s[0]), s[0]))
    return SparseFiltration.from_simplices(sims, f.k, f.kind, f.alpha_max)


def text_cases():
    pts = np.random.default_rng(48).random((40, 2))
    m = from_points(pts)
    circle = from_points(np.c_[np.cos(np.arange(24)), np.sin(np.arange(24))])
    grid = full_rips(from_points([[i, j] for i in range(4) for j in range(4)]), 2.0, 3)
    cases = {f"sparse_k{k}": build_sparse(m, 1 / 3, k) for k in (1, 2, 3)}
    cases["full_rips"] = full_rips(from_points(pts[:12]), 0.5, 2)
    cases["q_closed"] = static_complex(circle, WeightContext.build(circle, 0.1), 0.8,
                                       "Q_closed", 2)
    cases["labels_near_2**62"] = relabelled(grid, {v: 2**62 + 3 * v for v in range(16)})
    cases["negative_labels"] = relabelled(grid, {v: v - 8 for v in range(16)})
    cases["int64_ends"] = relabelled(grid, {0: -2**63, 15: 2**63 - 1,
                                            **{v: 10**12 * v - 7 for v in range(1, 15)}})
    cases["empty_upper_dims"] = full_rips(from_points(pts[:5]), 1e-3, 3)
    return cases


TEXT_CASES = text_cases()

REFORMAT = {
    "as_written": lambda text: text,
    "tabs": lambda text: text.replace(" ", "\t"),
    "spaces": lambda text: "".join("  " + line.replace(" ", " \t  ")
                                   for line in text.splitlines(keepends=True)),
    "blank_lines": lambda text: text.replace("\n", "\n\n \t\n"),
    "crlf": lambda text: text.replace("\n", "\r\n"),
    "mid_comments": lambda text: "".join(
        line + ("# comment line\n#note=mid\n" if i % 7 == 3 else "")
        for i, line in enumerate(text.splitlines(keepends=True))),
    "no_header": lambda text: text.split("\n", 1)[1],
    "lone_cr": lambda text: text.replace("\n", "\r"),
    "vt_ff": lambda text: "".join(line.replace(" ", "\v" if i % 2 else "\f \v")
                                  for i, line in enumerate(text.splitlines(keepends=True))),
    "plus_signs": lambda text: re.sub(r" (\d)", r" +\1", text),
    # 0, 13, 29 or 30 leading zeros, two lines at a time: "0.0" becomes 32 or
    # 33 bytes, either side of the width up to which runs are compared in words
    "long_values": lambda text: "".join(
        re.sub(r"^(-?)(?=\d)", r"\g<1>" + "0" * (0, 13, 29, 30)[i // 2 % 4], line)
        for i, line in enumerate(text.splitlines(keepends=True))),
    "19_digits": lambda text: re.sub(r" (-?)(\d+)", lambda m: f" {m[1]}{m[2]:0>19}", text),
}


@pytest.mark.parametrize("block", [None, 64])
@pytest.mark.parametrize("fmt", sorted(REFORMAT))
@pytest.mark.parametrize("case", sorted(TEXT_CASES))
def test_read_filtration_matches_the_line_reader(case, fmt, block, tmp_path, monkeypatch):
    # block=64 puts a block boundary every few lines
    if block is not None:
        monkeypatch.setattr(filtration, "_BLOCK_CHARS", block)
    f = TEXT_CASES[case]
    path = tmp_path / "filt.txt"
    path.write_bytes(REFORMAT[fmt](filtration_text(f)).encode())
    g = read_filtration(path)
    assert_same_filtration(g, reference_read(path))
    if fmt != "no_header":
        assert_same_filtration(g, f)


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
def test_read_filtration_parses_whole_lines_about_a_block_at_a_time(end, tmp_path,
                                                                   monkeypatch):
    # a lone "\r" ends a line too, so it bounds a block as "\n" does
    monkeypatch.setattr(filtration, "_BLOCK_CHARS", 64)
    blocks = []
    parse = filtration._parse_block

    def recorded(block, *args):
        blocks.append(block)
        return parse(block, *args)

    monkeypatch.setattr(filtration, "_parse_block", recorded)
    f = TEXT_CASES["sparse_k2"]
    path = tmp_path / "filt.txt"
    path.write_bytes(filtration_text(f).replace("\n", end).encode())
    assert_same_filtration(read_filtration(path), f)
    assert len(blocks) > 10 and all(b.endswith(b"\n") and len(b) < 64 + 40 for b in blocks)


BAD_LINES = ["1.0", "abc 0 1", "1.0 0 1.5", "1.0 0 1 # note", "-nan0 1 2"]


@pytest.mark.parametrize("bad, lines_before, block", [
    *[(bad, 3, None) for bad in BAD_LINES], *[(bad, 40, 64) for bad in BAD_LINES],
    ("1.0 0 1.5", 130_000, None)])
def test_malformed_line_is_named_as_the_line_reader_names_it(bad, lines_before, block,
                                                             tmp_path, monkeypatch):
    # the bad line is in the first block, or follows several blocks of 64
    # characters, or follows more than one default block (2**20 characters)
    if block is not None:
        monkeypatch.setattr(filtration, "_BLOCK_CHARS", block)
    head = "# k=2 kind=sparse_S alpha_max=none\r\n\r\n# note\n"
    body = "".join(f"0.0 {i}\n" for i in range(lines_before))
    path = tmp_path / "bad.txt"
    path.write_bytes((head + body + "\t" + bad + " \n" + "0.0 1\n").encode())
    message = f"{path}: malformed line {4 + lines_before}: {bad!r}"
    with pytest.raises(ValueError) as ours:
        read_filtration(path)
    with pytest.raises(ValueError) as theirs:
        reference_read(path)
    assert str(ours.value) == str(theirs.value) == message


def test_first_of_two_malformed_lines_in_different_blocks_is_named(tmp_path, monkeypatch):
    monkeypatch.setattr(filtration, "_BLOCK_CHARS", 16)
    path = tmp_path / "bad.txt"
    path.write_text("0.0 0\n0.0 1\n0.0 2\n0.0 3\n1.0 x\n0.0 5\n0.0 6\n1.0\n")
    with pytest.raises(ValueError, match=r"malformed line 5: '1.0 x'$"):
        read_filtration(path)


@pytest.mark.parametrize("bad", ["0.0\xa01", "1.0 0\x1c1", "1.0\x1c0 1"])
def test_non_ascii_whitespace_between_tokens_is_malformed(bad, tmp_path):
    # tokens are split at the ASCII whitespace of bytes.split only; U+00A0
    # and \x1c, which str.split splits at, are part of a token
    path = tmp_path / "bad.txt"
    path.write_bytes(f"# k=1\n0.0 0\n0.0 1\n{bad}\n0.0 2\n".encode())
    with pytest.raises(ValueError) as exc:
        read_filtration(path)
    assert str(exc.value) == f"{path}: malformed line 4: {bad!r}"


@pytest.mark.parametrize("text", ["", "# k=2 kind=sparse_S alpha_max=none\n\n#\n  \n"])
def test_read_filtration_rejects_an_empty_filtration(text, tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text(text)
    with pytest.raises(ValueError) as exc:
        read_filtration(path)
    assert str(exc.value) == f"{path}: empty filtration"


def test_reading_a_large_header_k_does_no_key_work_on_empty_dimensions(tmp_path,
                                                                      monkeypatch):
    # one edge under k = 30 or 60: the lookups must not grow with k**2 per
    # dimension, as they did when every empty dimension ran its key chains
    lookup, calls = filtration._lookup, []

    def counted(hashed, queries):
        calls.append(hashed)
        return lookup(hashed, queries)

    monkeypatch.setattr(filtration, "_lookup", counted)
    counts = []
    for k in (30, 60):
        path = tmp_path / f"k{k}.txt"
        path.write_text(f"# k={k}\n0.0 0\n0.0 1\n1.0 0 1\n")
        before = len(calls)
        assert read_filtration(path).counts_by_dim() == [2, 1] + [0] * (k - 1)
        counts.append(len(calls) - before)
    assert 0 < counts[1] <= 2 * counts[0]


def test_a_large_header_k_reads_and_reduces_to_the_right_diagram(tmp_path):
    # 19,999 empty dimensions: each costs an empty array, not a check or a column
    path = tmp_path / "k20000.txt"
    path.write_text("# k=20000\n0.0 0\n0.0 1\n1.0 0 1\n")
    f = read_filtration(path)
    assert f.k == 20000 and f.counts_by_dim() == [2, 1] + [0] * 19999
    dgm = compute_persistence(f)
    assert dgm.k == 20000 and dgm.in_dim(0) == [(0.0, 1.0), (0.0, INF)]
    assert dgm.total_points() == 2


def test_the_read_path_checks_the_vertex_order_once(tmp_path, monkeypatch):
    # the reader checks the order of the flat list: (value, dimension) once and
    # the vertex order once per dimension that has simplices; the face check
    # does not check it again, but checks a hand-made copy itself when it is made
    breaks, calls = filtration._order_breaks, []

    def counted(rows, values):
        calls.append(len(rows))
        return breaks(rows, values)

    f = TEXT_CASES["sparse_k2"]
    path = tmp_path / "filt.txt"
    write_filtration(f, path)
    monkeypatch.setattr(filtration, "_order_breaks", counted)
    g = read_filtration(path)
    assert len(calls) == 1 + 3
    assert_same_facets(g.facets, f.facets)
    del calls[:]
    h = SparseFiltration.from_simplices(simplices(f), f.k, f.kind, f.alpha_max)
    assert_same_facets(validate_filtration(h), f.facets)
    assert len(calls) == 1 + 3
    del calls[:]
    SparseFiltration(h.vertices, h.values, h.k, "copy", h.alpha_max)
    assert calls == f.counts_by_dim()


@pytest.mark.parametrize("amax", ["nan", "-1", "0"])
def test_read_filtration_rejects_an_alpha_max_that_is_not_positive(amax, tmp_path):
    # no builder makes one: full_rips and relaxed_rips refuse alpha_max <= 0
    path = tmp_path / "filt.txt"
    path.write_text(f"# k=1 kind=full_rips\n0.0 0\n# alpha_max={amax}\n")
    with pytest.raises(ValueError) as exc:
        read_filtration(path)
    assert str(exc.value) == (f"{path}: malformed header line 3: "
                              f"alpha_max={amax!r} is not a positive number")


@pytest.mark.parametrize("amax, value", [("inf", math.inf), ("1e-300", 1e-300)])
def test_read_filtration_takes_an_alpha_max_that_is_positive(amax, value, tmp_path):
    path = tmp_path / "filt.txt"
    path.write_text(f"# k=1 kind=full_rips alpha_max={amax}\n0.0 0\n")
    assert read_filtration(path).alpha_max == value


def two_vertices(**fields):
    header = {"k": 0, "kind": "sparse_S", "alpha_max": None, **fields}
    return SparseFiltration((np.array([[0], [1]]),), (np.zeros(2),), **header)


@pytest.mark.parametrize("field, value", [
    ("alpha_max", -1.0), ("alpha_max", 0.0), ("alpha_max", -math.inf), ("alpha_max", math.nan),
    ("alpha_max", "1.5"), ("alpha_max", True),
    ("k", 1.0), ("k", True), ("k", "2"), ("k", None),
    ("kind", "my kind"), ("kind", ""), ("kind", "a\tb"), ("kind", "line\n"), ("kind", None),
])
def test_a_header_field_the_reader_would_refuse_is_refused_on_construction(field, value):
    # the writer writes these fields into the header line as they are
    with pytest.raises(MalformedFiltrationError, match=f"^{field} must be "):
        two_vertices(**{field: value})
    f = two_vertices()
    with pytest.raises(TypeError, match="_labels"):   # no copy escapes the check
        replace(f, **{field: value})


def test_a_header_error_comes_before_a_face_error_on_read(tmp_path):
    # the reader checks the header as the constructor does, before the faces
    path = tmp_path / "filt.txt"
    path.write_text("# k=2 kind=\n0.0 0\n0.0 1\n1.0 0 2\n")   # vertex 2 is missing
    with pytest.raises(MalformedFiltrationError) as exc:
        read_filtration(path)
    assert str(exc.value) == "kind must be one word without whitespace, got ''"


def test_clique_expand_refuses_an_alpha_max_the_reader_would_refuse():
    with pytest.raises(MalformedFiltrationError) as exc:
        clique_expand([(0, 1, 1.0)], 2, 1, alpha_max=-1.0)
    assert str(exc.value) == "alpha_max must be None or a positive number, got -1.0"


@pytest.mark.parametrize("alpha_max", [None, 1.5, math.inf])
@pytest.mark.parametrize("kind", [filtration.KIND_SPARSE, filtration.KIND_FULL,
                                  filtration.KIND_RELAXED, *filtration.STATIC_KINDS])
def test_the_header_round_trips_for_every_kind_the_library_makes(tmp_path, kind, alpha_max):
    path = tmp_path / "filt.txt"
    for k in (2, np.int64(1)):
        write_filtration(clique_expand([(0, 1, 0.5), (1, 2, 1.0)], 3, k, kind=kind,
                                       alpha_max=alpha_max), path)
        g = read_filtration(path)
        assert (g.k, g.kind, g.alpha_max) == (k, kind, alpha_max)


def adversarial_filtration():
    # tie groups of every size, floats whose repr is short, long, subnormal,
    # or has an exponent, and labels up to 2**62
    f = full_rips(from_points(np.random.default_rng(49).random((9, 2))), 2.0, 3)
    distinct = sorted({v for _, v in simplices(f) if v > 0})
    specials = [-0.0, 5e-324, 1e-05, 0.1 + 0.2, 1 / 3, 1.0, 1e16, 1e16 + 2, 2.5e300]
    bucket = {v: specials[i * len(specials) // len(distinct)] for i, v in enumerate(distinct)}
    labels = {v: 2**62 - 9 + v if v > 4 else 10**v for v in range(9)}
    return relabelled(f, labels, lambda v: bucket.get(v, 0.0))


@pytest.mark.parametrize("f", [
    adversarial_filtration(), TEXT_CASES["q_closed"], TEXT_CASES["labels_near_2**62"],
    TEXT_CASES["empty_upper_dims"],
    SparseFiltration.from_simplices([((7,), 0.0)], 1, "sparse_S"),
], ids=["adversarial", "q_closed", "labels_near_2**62", "empty_upper_dims", "one_vertex"])
def test_filtration_text_matches_the_line_formatter(f, tmp_path):
    text = filtration_text(f)
    assert text == reference_text(f)
    path = tmp_path / "filt.txt"
    path.write_text(text)
    assert_same_filtration(read_filtration(path), f)


def test_adversarial_filtration_has_the_cases_it_claims():
    f = adversarial_filtration()
    values = np.concatenate(f.values)
    assert {5e-324, 1e-05, 0.1 + 0.2, 1e16}.issubset(values.tolist())
    assert np.signbit(values).any() and np.unique(values, return_counts=True)[1].max() > 20
    assert np.concatenate([v.ravel() for v in f.vertices]).max() == 2**62 - 1


def hand_made(rows, values, k):
    """A SparseFiltration made directly, so checked when it is made:
    ``rows[d]`` lists the labels of dimension d row after row."""
    return SparseFiltration(
        tuple(np.array(r, dtype=np.int64).reshape(-1, d + 1) for d, r in enumerate(rows)),
        tuple(np.array(v, dtype=float) for v in values), k, "sparse_S")


# hand-made filtrations on labels that no vertex line has, some between the
# vertex labels, some beyond them up to the int64 limits, as the arguments
# of hand_made and the message of the check: each fails it, so none can be
# made, let alone written
MISSING_LABELS = {
    "dense": (([[0, 1, 2, 4], [-4, 1, 1, 3, 2, 7], [1, 3, 7]],
               [[0.0] * 4, [0.5, 1.0, 1.5], [2.0]], 2),
              "missing face (-4,) before simplex (-4, 1)"),
    "sparse": (([[0, 10**12], [-2**63, 0, 5, 10**12, 10**12, 2**63 - 1], []],
                [[0.0, 0.0], [1.0, 1.0, 2.0], []], 2),
               f"missing face ({-2**63},) before simplex ({-2**63}, 0)"),
    "no_vertices": (([[], [0, 1, 1, 2]], [[], [0.5, 0.25]], 1),
                    "simplices out of order at position 1 of dimension 1"),
}


# filtrations with no simplices, as the public builders make them
EMPTY = {"empty_from_simplices": SparseFiltration.from_simplices([], 1, "sparse_S"),
         "empty_clique_expand": clique_expand([], 0, 2)}


@pytest.mark.parametrize("rows", [None, 1, 2, 5])
@pytest.mark.parametrize("case", sorted(MISSING_LABELS) + sorted(EMPTY) + [
    "adversarial", "sparse_k3", "negative_labels", "int64_ends"])
def test_written_text_does_not_depend_on_the_chunk_size(case, rows, tmp_path, monkeypatch):
    if rows is not None:
        monkeypatch.setattr(filtration, "_WRITE_ROWS", rows)
    if case in MISSING_LABELS:   # refused when it is made, so no writer meets it
        args, message = MISSING_LABELS[case]
        with pytest.raises(MalformedFiltrationError) as exc:
            hand_made(*args)
        assert str(exc.value) == message
        return
    f = adversarial_filtration() if case == "adversarial" else {**TEXT_CASES, **EMPTY}[case]
    path = tmp_path / "filt.txt"
    path.write_bytes(b"0.0 0\nan older file\n")
    write_filtration(f, path)
    assert path.read_bytes() == filtration_text(f).encode() == reference_text(f).encode()


def test_writer_and_reader_memory_stay_within_a_few_file_sizes(tmp_path):
    # the 3,000-point instance of the build_roundtrip benchmark: uniform
    # 2-D points, eps 1/3, k 2, about 450k simplices in a 14.8 MB file
    m = from_points(np.random.default_rng(0).random((3000, 2)))
    ctx = WeightContext.build(m, 1 / 3)
    edges = sparse_edges(m, ctx)
    tracemalloc.start()
    try:
        f = clique_expand(edges, m.n, 2, vertex_caps=ctx.schedule.t)   # as build_sparse does
        build_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    path = tmp_path / "filt.txt"
    tracemalloc.start()
    try:
        write_filtration(f, path)
        write_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        g = read_filtration(path)
        read_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert len(g) == len(f) > 400_000 and size > 14e6
    # the result, values and facets, is about 0.94 times the file; growing
    # the cliques adds the keys, ranks and caps of the dimension below and
    # of one block of candidates, and sorting them two copies of a
    # dimension's facets: about 1.9 in all.  Growing a whole dimension's
    # candidates at once gave 3.8, as did the rows and candidates held
    # before the face index was the stored form, so 2.5 catches either
    assert build_peak < 2.5 * size
    # the writer holds, beyond the filtration, the merge order (8 bytes a
    # simplex, a quarter of the file at about 33 bytes a line), the value
    # copy it sorts, and one chunk of 16384 lines (0.6); about 0.9 times
    # the file.  A Python string per line came to 4.7 times, and the whole
    # text held at once would be one more file size, so 1.5 is exceeded by
    # either and leaves room for another numpy's sort buffers
    assert write_peak < 1.5 * size
    # the result alone is about 0.94 times the file (labels and values
    # 0.24, the face index 0.7); the rows split by dimension as each block is
    # parsed, the checks' keys, ranks and lookups come on top, about 2.7
    # times in all.  The bound was 4.5 while the result held the rows and
    # the flat parse arrays outlived the blocks (3.8 then); keeping the rows
    # through the check and in the result now gives 3.4, so 3.2 catches it
    assert read_peak < 3.2 * size


def counted_face_checks(monkeypatch) -> list:
    """The calls of the face check from here on, one entry each."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return face_index(*args, **kwargs)

    face_index = filtration._face_index
    monkeypatch.setattr(filtration, "_face_index", counted)
    return calls


def test_read_and_persistence_check_the_filtration_once(tmp_path, monkeypatch):
    calls = counted_face_checks(monkeypatch)   # TEXT_CASES["sparse_k2"] is built
    path = tmp_path / "filt.txt"
    write_filtration(TEXT_CASES["sparse_k2"], path)
    g = read_filtration(path)
    assert compute_persistence(g).pairs == compute_persistence(TEXT_CASES["sparse_k2"]).pairs
    assert len(calls) == 1 and validate_filtration(g) is g.facets


def test_filtration_arrays_are_read_only():
    f = TEXT_CASES["sparse_k2"]
    with pytest.raises(ValueError, match="read-only"):
        f.values[1][0] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        f.vertices[1][0, 0] = 0
    with pytest.raises(ValueError, match="read-only"):
        f.facets[1][0, 0] = 0


def test_every_filtration_is_frozen_and_read_only(tmp_path):
    # made by hand, from simplices, read, built or snapshot: one stored form,
    # whose fields cannot be set and whose arrays cannot be written, also
    # after a pickle round trip
    path = tmp_path / "filt.txt"
    write_filtration(TEXT_CASES["sparse_k2"], path)
    sims = [((0,), 0.0), ((1,), 0.0), ((2,), 0.0), ((0, 1), 1.0), ((0, 2), 1.0),
            ((1, 2), 2.0), ((0, 1, 2), 2.0)]
    m = from_points(SQUARE)
    made = {
        "hand_made": hand_made([[0, 1, 2], [0, 1, 0, 2, 1, 2], [0, 1, 2]],
                               [[0.0] * 3, [1.0, 1.0, 2.0], [2.0]], 2),
        "from_simplices": SparseFiltration.from_simplices(sims, 2, "sparse_S"),
        "read_filtration": read_filtration(path),
        "clique_expand": clique_expand([(0, 1, 1.0), (0, 2, 1.0), (1, 2, 2.0)], 3, 2),
        "static_complex": static_complex(m, WeightContext.build(m, 0.25), 2.0, "Q_closed", 2),
    }
    for name, f in made.items():
        for g in (f, pickle.loads(pickle.dumps(f))):
            assert g.counts_by_dim()[2] > 0, name
            for field in ("values", "facets", "k", "kind", "alpha_max", "_labels"):
                with pytest.raises(FrozenInstanceError):
                    setattr(g, field, getattr(g, field))
                with pytest.raises(FrozenInstanceError):
                    delattr(g, field)
            for arrays in (g.values, g.facets, g.vertices):
                for d in range(g.k + 1):
                    with pytest.raises(ValueError, match="read-only"):
                        arrays[d][:1] = 0
            with pytest.raises(TypeError):
                replace(g)
        assert_same_filtration(pickle.loads(pickle.dumps(f)), f)


# --- facet lookup ----------------------------------------------------------

def assert_same_facets(got, expect):
    assert len(got) == len(expect)
    for a, b in zip(got, expect):
        assert a.dtype == b.dtype and a.shape == b.shape and (a == b).all()


def checked_facets(f):
    """The facets the full check finds on a hand-made copy of ``f``."""
    return SparseFiltration(f.vertices, f.values, f.k, f.kind, f.alpha_max).facets


def assert_built_facets(f):
    """The facets a builder set, read-only, are the ones the full check finds."""
    assert all(not a.flags.writeable for a in f.facets)
    assert_same_facets(f.facets, checked_facets(f))


def brute_facets(f):
    """Facet positions from a dict of vertex tuples to positions (oracle)."""
    index = [{r: i for i, r in enumerate(map(tuple, rows.tolist()))} for rows in f.vertices]
    return [np.zeros((len(index[0]), 0), dtype=np.int64)] + [
        np.array([[index[d - 1][r[:v] + r[v + 1:]] for v in range(d + 1)] for r in index[d]],
                 dtype=np.int64).reshape(-1, d + 1) for d in range(1, len(index))]


def colliding(n):
    """n distinct int64 keys that all have the same home slot in the hash
    table of filtration._hash_table: i times the inverse of its multiplier, mod
    2**64, is i after the multiplication, so the top bits are 0 for i < 2**16."""
    inverse = pow(int(filtration._FIB), -1, 2**64)
    return [(x + 2**63) % 2**64 - 2**63 for x in (i * inverse % 2**64 for i in range(n))]


LABELS = {   # n distinct labels, in random order
    "dense": lambda rng, n: rng.permutation(n).tolist(),
    "sparse": lambda rng, n: rng.choice(10**6, n, replace=False).tolist(),
    "negative": lambda rng, n: (rng.choice(10**6, n, replace=False) - 10**6).tolist(),
    "near_2**62": lambda rng, n: (2**62 + rng.choice(10**3, n, replace=False)).tolist(),
    "int64_ends": lambda rng, n: rng.permutation(
        [-2**63, 2**63 - 1, *range(-(n // 2), n - 2 - n // 2)]).tolist(),
    "colliding": lambda rng, n: rng.permutation(colliding(n)).tolist(),
}


def lookup_cases():
    """(keys, queries): distinct int64 keys in random order, dense around 0
    or spread up to the int64 limits, and queries of every key, -1, 0 and
    values that are no key."""
    rng = np.random.default_rng(63)
    for n in (0, 1, 7, 1_000, 70_000):   # 70,000 keys: more than one block
        dense = rng.permutation(2 * n + 1)[:n] - n
        spread = rng.permutation(np.r_[-2**63, 2**63 - 1,
                                       rng.integers(-2**62, 2**62, max(n - 2, 0))][:n])
        for keys in (dense, spread):
            others = np.r_[rng.integers(-2 * n - 1, 2 * n + 1, n + 10),
                           rng.integers(-2**63, 2**63 - 1, n + 10, endpoint=True)]
            yield keys, rng.permutation(np.r_[keys, keys[:n // 3], others,
                                              -1, 0, -2**63, 2**63 - 1])
    keys = np.array(colliding(40), dtype=np.int64)
    yield rng.permutation(keys), rng.permutation(np.r_[keys, -1, 0, 40, keys + 1])


def test_hashed_lookup_matches_a_dict_index():
    seen = set()
    for keys, queries in lookup_cases():
        index = {x: i for i, x in enumerate(keys.tolist())}
        assert len(index) == len(keys)
        got = filtration._lookup(filtration._hash_table(keys), queries)
        assert got.dtype == np.int64
        assert got.tolist() == [index.get(q, -1) for q in queries.tolist()]
        seen.add(len(keys))
    assert seen == {0, 1, 7, 1_000, 40, 70_000}


def test_keys_that_share_one_home_slot_take_the_sorted_fallback(monkeypatch):
    # 16 of them find a slot, the other 24 and the queries that pass the
    # 16 full slots go to one binary search: no quadratic probing
    keys = np.random.default_rng(64).permutation(colliding(40))
    bits = (2 * len(keys) - 1).bit_length()
    assert len(set(filtration._home(keys, np.uint64(64 - bits)).tolist())) == 1
    searched = []
    search = filtration._search

    def counted(sorted_keys, queries):
        searched.append(len(sorted_keys))
        return search(sorted_keys, queries)

    monkeypatch.setattr(filtration, "_search", counted)
    queries = np.r_[keys, keys + 1, -1]
    index = {x: i for i, x in enumerate(keys.tolist())}
    got = filtration._lookup(filtration._hash_table(keys), queries)
    assert got.tolist() == [index.get(q, -1) for q in queries.tolist()]
    assert searched == [40 - filtration._PROBES]


def facet_cases(rng):
    """Rips prefixes and sparse filtrations with k = 1 .. 3, some with tied values."""
    for _ in range(8):
        n = int(rng.integers(2, 10))
        grid = np.argwhere(np.ones((3, 3)))   # distances tie
        pts = grid[rng.choice(9, n, replace=False)] if rng.random() < 0.3 else rng.random((n, 2))
        k = int(rng.integers(1, 4))
        full = full_rips(from_points(pts), float(rng.uniform(0.3, 2.0)), k)
        yield n, SparseFiltration.from_simplices(
            simplices(full)[:int(rng.integers(1, len(full) + 1))], k, full.kind)
    for k in (1, 2, 3):
        yield 30, build_sparse(from_points(rng.random((30, 2))), 1 / 3, k)


@pytest.mark.parametrize("labels", sorted(LABELS))
def test_facet_lookup_matches_a_dict_index(labels):
    rng = np.random.default_rng([60, len(labels)])
    for n, f in facet_cases(rng):
        g = relabelled(f, LABELS[labels](rng, n))
        got, expect = validate_filtration(g), brute_facets(g)
        assert len(got) == g.k + 1
        assert_same_facets(got, expect)
        assert_same_facets(f.facets, brute_facets(f))   # set by the builder or checked


@pytest.mark.parametrize("vertices, above, message", [
    ([0, 1], [[[0, 5]]], "missing face (5,) before simplex (0, 5)"),
    ([1, 5], [[[0, 5]]], "missing face (0,) before simplex (0, 5)"),
    ([], [[[0, 5]]], "missing face (5,) before simplex (0, 5)"),
    ([-7, 2**62], [[[-7, 3]]], "missing face (3,) before simplex (-7, 3)"),
    ([0, 1, 2], [[[0, 1], [0, 2], [1, 2]], [[0, 1, 7]]],
     "missing face (1, 7) before simplex (0, 1, 7)"),
])
def test_a_simplex_on_a_label_that_is_no_vertex_has_a_missing_face(vertices, above, message):
    # dimension d holds the rows given for it, each with value d
    rows = [np.array(vertices, dtype=np.int64).reshape(-1, 1)]
    rows += [np.array(r, dtype=np.int64) for r in above]
    with pytest.raises(MalformedFiltrationError) as exc:
        SparseFiltration(tuple(rows), tuple(np.full(len(r), float(d)) for d, r in enumerate(rows)),
                         len(above), "sparse_S")
    assert str(exc.value) == message


def test_a_simplex_above_an_empty_dimension_misses_a_face():
    # an empty dimension does no key work; the face is found missing above it
    with pytest.raises(MalformedFiltrationError) as exc:
        hand_made([[0, 1, 2, 3], [0, 1, 0, 2, 1, 2], [], [0, 1, 2, 3]],
                  [[0.0] * 4, [1.0] * 3, [], [3.0]], 3)
    assert str(exc.value) == "missing face (1, 2, 3) before simplex (0, 1, 2, 3)"


def test_a_duplicate_without_its_faces_is_reported_as_one_or_the_other():
    # the duplicate has no key while its prefix facet is missing
    with pytest.raises(MalformedFiltrationError,
                       match=r"^(duplicate simplex \(0, 1, 2\)|"
                             r"missing face \(0, 1\) before simplex \(0, 1, 2\))$"):
        SparseFiltration((np.array([[0], [1], [2]]), np.array([[0, 2], [1, 2]]),
                          np.array([[0, 1, 2], [0, 1, 2]])),
                         (np.zeros(3), np.ones(2), np.full(2, 2.0)), 2, "sparse_S")


def built_cases():
    """Every builder at k = 1 .. 4, on random points and on integer grids
    whose distances, deletion times and scales tie, and without edges."""
    rng = np.random.default_rng(61)
    grid = np.indices((5, 5)).reshape(2, -1).T
    for trial in range(8):
        n = int(rng.integers(2, 16))
        pts = grid[rng.choice(25, n, replace=False)] if trial % 2 else rng.random((n, 2))
        m = from_points(pts, metric_kind=("euclidean", "manhattan", "chebyshev")[trial % 3])
        ctx = WeightContext.build(m, 0.25, seed=trial % n)
        t = ctx.schedule.t
        scales = [0.0, *np.quantile(t[np.isfinite(t)], [0.3, 0.7]).tolist()]
        for k in (1, 2, 3, 4):
            yield build_sparse(m, 1 / 3, k, seed=trial % n)
            yield full_rips(m, 1.5 if trial % 2 else 0.6, k)
            yield relaxed_rips(m, ctx, 1.5 if trial % 2 else 0.6, k)
            for kind in filtration.STATIC_KINDS:   # on the nets, labels are not 0..n-1
                yield from (static_complex(m, ctx, alpha, kind, k) for alpha in scales)
    for k in (1, 2, 3, 4):
        yield clique_expand([], 4, k)
        yield full_rips(from_points(SQUARE), 0.5, k)   # no edge within 0.5
        yield build_sparse(from_points([[0.0, 0.0]]), 1 / 3, k)


def test_built_facets_match_the_checked_ones():
    seen = set()
    for f in built_cases():
        assert_built_facets(f)
        assert_same_facets(f.facets, brute_facets(f))
        seen.add((f.kind, f.k, len(f.values[f.k]) > 0))
    kinds = ("sparse_S", "full_rips", "relaxed_rips", *filtration.STATIC_KINDS)
    assert {(kind, k, True) for kind in kinds for k in (1, 2, 3)} <= seen
    assert {(kind, k, False) for kind in ("sparse_S", "full_rips") for k in (1, 4)} <= seen


def brute_rows(births, labels, k):
    """Rows of dimensions 0..k of the cliques of :func:`brute_flag_filtration`
    on ``labels`` of the graph with edge births ``births`` ({(p, q): birth}
    for p < q), in the global order: in vertex order, stably sorted by
    value."""
    cliques = brute_flag_filtration(births, labels, k, None)   # in vertex order
    return [[list(c) for c in sorted((c for c in cliques if len(c) == d + 1), key=cliques.get)]
            for d in range(k + 1)]


def assert_derived_rows(f, expect):
    """``f.vertices`` holds the rows ``expect``, read-only, and the facets of
    ``f`` are the ones the full check finds on a hand-made copy."""
    assert len(f.vertices) == len(expect)
    for d, rows in enumerate(expect):
        got = f.vertices[d]
        assert got.dtype == np.int64 and got.shape == (len(rows), d + 1)
        assert got.tolist() == rows and not got.flags.writeable
    assert_same_facets(f.facets, checked_facets(f))


@given(tie_heavy_graphs())
@settings(max_examples=60, deadline=None)
def test_vertex_rows_are_the_cliques_on_every_path(graph):
    # every filtration stores the face index and derives the rows from it.
    # Values tie in large
    # groups, so the order rests on the vertex-order tie break
    n, edges = graph
    births = {(min(p, q), max(p, q)): b for p, q, b in edges}
    expect = brute_rows(births, range(n), 3)
    f = clique_expand(edges, n, 3)
    assert_derived_rows(f, expect)
    sims = sorted(((tuple(r), max((births[e] for e in combinations(r, 2)), default=0.0))
                   for rows in expect for r in rows), key=lambda s: s[1])
    assert_derived_rows(SparseFiltration.from_simplices(sims, 3, "sparse_S"), expect)
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/filt.txt"
        write_filtration(f, path)
        assert_derived_rows(read_filtration(path), expect)
    # the graph as a metric: 2 + birth / 3 on an edge, 4 elsewhere, which
    # keeps the triangle inequality (4 <= 2 + 2)
    dist = np.full((n, n), 4.0)
    for (p, q), b in births.items():
        dist[p, q] = dist[q, p] = 2 + b / 3
    np.fill_diagonal(dist, 0.0)
    m = from_matrix(dist)
    assert_derived_rows(full_rips(m, 3.5, 3),
                        brute_rows({e: dist[e] for e in births}, range(n), 3))
    ctx = WeightContext.build(m, 1 / 3)
    relaxed = birth_matrix(m, ctx)
    assert_derived_rows(relaxed_rips(m, ctx, 3.5, 3), brute_rows(
        {e: relaxed[e] for e in combinations(range(n), 2) if relaxed[e] <= 3.5}, range(n), 3))
    for alpha in (0.0, 2.5, 3.5):   # snapshots on nets, relabelled to the points
        for kind in filtration.STATIC_KINDS:
            verts = (np.arange(n) if kind == "relaxed_full"
                     else net_at(ctx.schedule, alpha, closed=(kind == "Q_closed")))
            w = weight_batch(alpha, ctx.schedule.t[verts], ctx.epsilon)
            near = dist[np.ix_(verts, verts)] + w[:, None] + w[None, :] <= alpha
            snapshot = {(int(verts[i]), int(verts[j])): 0.0
                        for i, j in combinations(range(len(verts)), 2) if near[i, j]}
            assert_derived_rows(static_complex(m, ctx, alpha, kind, 3),
                                brute_rows(snapshot, verts.tolist(), 3))


def test_built_filtrations_are_not_checked_again(tmp_path, monkeypatch):
    # a builder sets the facets; a filtration read back is checked exactly once
    calls = counted_face_checks(monkeypatch)
    m = from_points(np.random.default_rng(62).random((40, 2)))
    f = build_sparse(m, 1 / 3, 3)
    dgm = compute_persistence(f)
    ctx = WeightContext.build(m, 1 / 3)
    betti_numbers(static_complex(m, ctx, 0.2, "Q_open", 2), through_dim=2)
    assert validate_filtration(f) is f.facets and calls == []
    path = tmp_path / "filt.txt"
    write_filtration(f, path)
    g = read_filtration(path)
    assert compute_persistence(g).pairs == dgm.pairs
    assert len(calls) == 1


def test_facet_keys_that_could_overflow_are_refused(monkeypatch):
    # a key is below m_{d-1} * nv, so that product must stay below the limit
    f = full_rips(from_points(SQUARE[:3]), 2.0, 2)   # 3 vertices, 3 edges, 1 triangle
    monkeypatch.setattr(filtration, "_KEY_LIMIT", 10)
    SparseFiltration(f.vertices, f.values, f.k, f.kind)
    monkeypatch.setattr(filtration, "_KEY_LIMIT", 9)
    with pytest.raises(MalformedFiltrationError) as exc:
        SparseFiltration(f.vertices, f.values, f.k, f.kind)
    assert str(exc.value) == "3 simplices of dimension 0 on 3 vertices are too many to index"


def test_degree_stays_bounded_as_n_grows():
    # max |E(p)| at 4n within 20 percent of its value at n, averaged over trials
    eps = 1.0 / 3.0
    n0 = 400
    means = {}
    for n in (n0, 4 * n0):
        degs = []
        for trial in range(5):
            rng = np.random.default_rng([41, n, trial])
            m = from_points(rng.random((n, 2)))
            ctx = WeightContext.build(m, eps)
            degs.append(sparse_size_stats(m, ctx, 1).max_degree)
        means[n] = float(np.mean(degs))
    assert means[4 * n0] <= 1.2 * means[n0]


# --- invariance under scaling and relabeling ------------------------------

def sparse_diagram(points, eps, seed=0):
    return compute_persistence(build_sparse(from_points(points), eps, 2, seed=seed))


@pytest.mark.parametrize("s, tol", [(2.0 ** 20, 0.0), (2.0 ** -20, 0.0),
                                    (1e6, 1e-9), (1e-6, 1e-9)])
def test_sparse_diagram_scales_with_the_points(s, tol):
    # s * points gives s times the diagram; powers of two scale every float exactly
    for trial in range(10):
        rng = np.random.default_rng([46, trial])
        pts = rng.random((40, 2))
        eps = (0.1, 0.25, 1.0 / 3.0)[trial % 3]
        base = sparse_diagram(pts, eps)
        scaled = PersistenceDiagram(
            pairs={d: [(b * s, dth * s) for b, dth in base.in_dim(d)]
                   for d in range(base.k)}, k=base.k)
        assert diagram_equal(sparse_diagram(pts * s, eps), scaled, tol=tol)


def test_sparse_diagram_ignores_point_labels():
    # permuted points, with the greedy order started from the same point
    for trial in range(10):
        rng = np.random.default_rng([47, trial])
        pts = rng.random((40, 2))
        eps = (0.1, 0.25, 1.0 / 3.0)[trial % 3]
        perm = rng.permutation(40)
        seed = int(np.flatnonzero(perm == 0)[0])
        assert sparse_diagram(pts[perm], eps, seed=seed).pairs == \
            sparse_diagram(pts, eps).pairs
