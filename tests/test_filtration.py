import math
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from sparse_rips import (PersistenceDiagram, SparseFiltration, WeightContext,
                         birth_matrix, build_sparse, charged_degrees, clique_expand,
                         compute_persistence, diagram_equal, filtration_text,
                         from_matrix, from_points, full_rips, net_at, pair_birth,
                         point_weight, read_filtration, relaxed_rips, sparse_edges,
                         sparse_size_stats, static_complex, validate_filtration,
                         write_filtration, weight_batch)
from sparse_rips import filtration
from sparse_rips.greedy import DeletionSchedule
from sparse_rips.metric import MetricInput

INF = math.inf
SQ2 = math.sqrt(2.0)

SQUARE = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]


def manual_ctx(points, t_values, eps):
    m = from_points(points)
    s = DeletionSchedule(epsilon=eps, t=np.asarray(t_values, dtype=float))
    return m, WeightContext(epsilon=eps, schedule=s, metric=m)


def brute_cliques(edge_set, n, k):
    """All cliques of the edge graph up to k + 1 vertices (oracle)."""
    out = set()
    for size in range(1, k + 2):
        for combo in combinations(range(n), size):
            if all((a, b) in edge_set or (b, a) in edge_set
                   for a, b in combinations(combo, 2)):
                out.add(combo)
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
    assert sparse_edges(m, ctx) == [(0, 1, 7.0)]
    m2, ctx2 = manual_ctx([[0.0], [20.0]], [9.0, INF], eps)
    assert sparse_edges(m2, ctx2) == []  # birth 30 exceeds t = 9


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
    return filtration._edges_within(birth_matrix(m, ctx, within_deletion_caps=True),
                                    np.minimum.outer(t, t))


@pytest.mark.parametrize("kind", KERNELS)
def test_sparse_edges_match_dense_oracle_random(kind):
    rng = np.random.default_rng(100 + KERNELS.index(kind))
    for _ in range(100):
        dim, n = int(rng.integers(1, 11)), int(rng.integers(2, 40))
        m = from_points(rng.normal(size=(n, dim)) * 10.0 ** int(rng.integers(-3, 4)), kind)
        eps = float(rng.choice([0.05, 0.1, 0.25, 1.0 / 3.0]))
        ctx = WeightContext.build(m, eps, seed=int(rng.integers(0, m.n)))
        assert sparse_edges(m, ctx) == dense_edges(m, ctx), (dim, n, eps)


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
                assert sparse_edges(m, ctx) == dense_edges(m, ctx), (m.n, eps, seed)


def test_sparse_edges_match_dense_oracle_on_hand_schedules():
    # several t = inf points, ties in t, and t = 0
    rng = np.random.default_rng(9)
    for i in range(40):
        n = int(rng.integers(1, 25))
        pts = rng.random((n, int(rng.integers(1, 4)))) * 4
        t = rng.choice([0.0, 0.5, 1.0, 1.0, 2.0, 3.0, INF, INF], size=n)
        m, ctx = manual_ctx(pts, t, float(rng.choice([0.1, 1.0 / 3.0])))
        assert sparse_edges(m, ctx) == dense_edges(m, ctx), i


def test_sparse_edges_match_dense_oracle_on_one_and_two_points():
    for pts, t in [([[0.0]], [INF]), ([[2.0, 1.0]], [0.0]), ([[0.0], [3.0]], [INF, INF]),
                   ([[0.0], [3.0]], [1.0, INF]), ([[0.0], [3.0]], [5.0, 5.0]),
                   ([[0.0], [3.0]], [4.5, INF]), ([[0.0], [3.0]], [0.0, 0.0])]:
        m, ctx = manual_ctx(pts, t, 1.0 / 3.0)
        assert sparse_edges(m, ctx) == dense_edges(m, ctx), (pts, t)
        greedy = WeightContext.build(m, 0.25, seed=m.n - 1)
        assert sparse_edges(m, greedy) == dense_edges(m, greedy), pts
    # a hand-made input may keep duplicates: t = 0 still admits d = 0
    m = MetricInput("euclidean", 3, points=np.array([[1.0], [1.0], [2.0]]))
    ctx = WeightContext(1.0 / 3.0, DeletionSchedule(1.0 / 3.0, np.array([0.25, 0.0, INF])), m)
    assert sparse_edges(m, ctx) == dense_edges(m, ctx) == [(0, 1, 0.0)]


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
        assert sparse_edges(m, ctx) == dense_edges(m, ctx), (eps, tp, tq, d)
        assert [(p, q) for p, q, _ in sparse_edges(m, ctx)] == [(0, 1)]
        cases += 1


def test_sparse_edges_of_an_explicit_matrix_match_dense_oracle():
    rng = np.random.default_rng(10)
    for _ in range(10):
        pts = np.unique(rng.integers(0, 4, size=(int(rng.integers(2, 20)), 2)), axis=0)
        pts = pts.astype(float)
        m = from_matrix(np.abs(pts[:, None] - pts[None, :]).max(axis=2))
        ctx = WeightContext.build(m, 0.2)
        assert sparse_edges(m, ctx) == dense_edges(m, ctx)


# --- clique_expand --------------------------------------------------------

def test_clique_expand_triangle_value_is_max_edge():
    f = clique_expand([(0, 1, 1.0), (0, 2, 2.0), (1, 2, 3.0)], 3, 2)
    tris = [(verts, value) for verts, value in f.simplices() if len(verts) == 3]
    assert len(tris) == 1
    assert tris[0][0] == (0, 1, 2)
    assert tris[0][1] == 3.0


def test_clique_expand_path_has_no_triangles():
    f = clique_expand([(0, 1, 1.0), (1, 2, 1.0)], 3, 2)
    assert all(len(verts) - 1 < 2 for verts, _ in f.simplices())


def test_clique_expand_unit_square():
    m, ctx = manual_ctx(SQUARE, [INF] * 4, 1.0 / 3.0)
    f = clique_expand(sparse_edges(m, ctx), 4, 2)
    values = {}
    for verts, value in f.simplices():
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
        got = {verts for verts, _ in f.simplices()}
        assert got == brute_cliques(set(edge_set), n, k)
        for verts, value in f.simplices():  # value = max over edges
            if len(verts) >= 2:
                expect = max(edge_set[e] for e in combinations(verts, 2))
                assert value == expect
        validate_filtration(f)


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


def test_clique_expand_matches_brute_force_with_caps_ties_and_subsets():
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
        verts = None
        if trial % 3 == 0:  # the static_complex path: a vertex subset
            verts = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False).tolist()
        f = clique_expand(edges, n, k, vertex_caps=caps, vertices=verts)
        validate_filtration(f)
        sims = f.simplices()
        assert sims == sorted(sims, key=lambda s: (s[1], len(s[0]), s[0]))
        expect = brute_flag_filtration(edge_set, range(n) if verts is None else verts,
                                       k, caps)
        assert dict(sims) == expect and len(sims) == len(expect)


def test_clique_expand_vertex_caps_prune():
    # triangle whose longest edge outlives the earliest-deleted vertex
    edges = [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 5.0)]
    caps = np.array([2.0, INF, INF])
    f = clique_expand(edges, 3, 2, vertex_caps=caps)
    names = {verts for verts, _ in f.simplices()}
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


# --- build_sparse ---------------------------------------------------------

def test_build_sparse_single_point():
    f = build_sparse(from_points([[0.0]]), 0.1, 2)
    assert len(f.simplices()) == 1
    assert f.simplices()[0][0] == (0,)
    assert f.simplices()[0][1] == 0.0


def test_build_sparse_four_point_line():
    # hand-composed: t = [inf, 9, 18, 36] by point index, eps = 1/3
    m = from_points([[0.0], [1.0], [2.0], [4.0]])
    f = build_sparse(m, 1.0 / 3.0, 1)
    edges = {verts: value for verts, value in f.simplices() if len(verts) == 2}
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
    assert f.simplices() == full.simplices()


def test_build_sparse_subset_of_relaxed_with_same_values():
    rng = np.random.default_rng(32)
    m = from_points(rng.random((14, 2)))
    ctx = WeightContext.build(m, 0.25)
    from sparse_rips import build_sparse_from_context
    f = build_sparse_from_context(m, ctx, 2)
    births = {}
    rel = relaxed_rips(m, ctx, 1e9, 2)
    for verts, value in rel.simplices():
        births[verts] = value
    for verts, value in f.simplices():
        assert verts in births
        assert births[verts] == value


# --- full_rips ------------------------------------------------------------

def test_full_rips_unit_square():
    m = from_points(SQUARE)
    f = full_rips(m, 2.0, 2)
    counts = f.counts_by_dim()
    assert counts == [4, 6, 4]
    values1 = sorted(round(value, 12) for verts, value in f.simplices() if len(verts) == 2)
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
    tri = [(verts, value) for verts, value in f.simplices() if len(verts) == 3][0]
    assert tri[1] == pytest.approx(1.0)


def test_full_rips_alpha_max_validation():
    with pytest.raises(ValueError):
        full_rips(from_points([[0.0]]), 0.0, 2)


# --- relaxed_rips ---------------------------------------------------------

def test_relaxed_rips_all_infinite_equals_full():
    m, ctx = manual_ctx(SQUARE, [INF] * 4, 0.25)
    rel = relaxed_rips(m, ctx, 2.0, 2)
    full = full_rips(m, 2.0, 2)
    assert rel.simplices() == full.simplices()


def test_relaxed_rips_two_points():
    m, ctx = manual_ctx([[0.0], [5.0]], [INF, 9.0], 1.0 / 3.0)
    rel = relaxed_rips(m, ctx, 50.0, 1)
    edge = [(verts, value) for verts, value in rel.simplices() if len(verts) == 2][0]
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
    rel_edges = {verts: value for verts, value in rel.simplices() if len(verts) == 2}
    for (p, q), v in rel_edges.items():
        assert dmat[p, q] <= v
    full = full_rips(m, alpha_max, 1)
    for verts, value in full.simplices():
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
        assert a.simplices() == b.simplices()


def test_static_complex_boundary_at_deletion_time():
    m = from_points([[0.0], [1.0], [2.0], [4.0]])
    ctx = WeightContext.build(m, 1.0 / 3.0)  # t = [inf, 9, 18, 36]
    q_open = static_complex(m, ctx, 9.0, "Q_open", 2)
    q_closed = static_complex(m, ctx, 9.0, "Q_closed", 2)
    open_verts = {verts[0] for verts, _ in q_open.simplices() if len(verts) == 1}
    closed_verts = {verts[0] for verts, _ in q_closed.simplices() if len(verts) == 1}
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
        induced = {verts for verts, _ in r.simplices() if set(verts) <= net}
        assert {verts for verts, _ in q.simplices()} == induced


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
            validate_filtration(c)
            assert {value for _, value in c.simplices()} == {0.0}


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
        validate_filtration(f)


def test_admission_filter_invariant():
    rng = np.random.default_rng(38)
    m = from_points(rng.random((15, 2)))
    ctx = WeightContext.build(m, 1.0 / 3.0)
    from sparse_rips import build_sparse_from_context
    f = build_sparse_from_context(m, ctx, 3)
    t = ctx.schedule.t
    for verts, value in f.simplices():
        assert value <= min(t[v] for v in verts)


def test_size_stats_match_materialized_build():
    rng = np.random.default_rng(39)
    for _ in range(6):
        n = int(rng.integers(3, 35))
        m = from_points(rng.random((n, 2)))
        eps = float(rng.choice([0.1, 0.25, 1 / 3]))
        ctx = WeightContext.build(m, eps)
        from sparse_rips import build_sparse_from_context, max_edge_degree
        for k in (1, 2, 3):
            st = sparse_size_stats(m, ctx, k)
            f = build_sparse_from_context(m, ctx, k)
            assert st.counts_by_dim == tuple(f.counts_by_dim())
            assert st.max_degree == max_edge_degree(m, ctx)


def test_size_stats_build_one_birth_matrix(monkeypatch):
    # k <= 2: one n x n birth matrix, shared by the counts and the degrees;
    # k > 2 expands the sparse edges, which build none
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
        assert len(calls) == (1 if k <= 2 else 0), k


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
    assert g.simplices() == f.simplices()


def test_read_filtration_infers_k_without_header(tmp_path):
    path = tmp_path / "filt.txt"
    path.write_text("0.0 0\n0.0 1\n1.0 0 1\n")
    f = read_filtration(path)
    assert f.k == 1
    assert len(f.simplices()) == 3


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
        ("%r" + " %d" * len(verts)) % (value, *verts) for verts, value in f.simplices()]) + "\n"


def assert_same_filtration(f, g):
    assert (f.k, f.kind, f.alpha_max) == (g.k, g.kind, g.alpha_max)
    assert len(f.vertices) == len(g.vertices) == len(f.values) == len(g.values)
    for a, b in zip(f.vertices + f.values, g.vertices + g.values):
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())


def relabelled(f, relabel, revalue=lambda v: v):
    """f with vertex v renamed relabel[v] and value x replaced by revalue(x),
    both monotone, put back into the global order."""
    sims = sorted(((tuple(relabel[v] for v in verts), revalue(value))
                   for verts, value in f.simplices()),
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


@pytest.mark.parametrize("text", ["", "# k=2 kind=sparse_S alpha_max=none\n\n#\n  \n"])
def test_read_filtration_rejects_an_empty_filtration(text, tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text(text)
    with pytest.raises(ValueError) as exc:
        read_filtration(path)
    assert str(exc.value) == f"{path}: empty filtration"


def adversarial_filtration():
    # tie groups of every size, floats whose repr is short, long, subnormal,
    # or has an exponent, and labels up to 2**62
    f = full_rips(from_points(np.random.default_rng(49).random((9, 2))), 2.0, 3)
    distinct = sorted({v for _, v in f.simplices() if v > 0})
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


def test_read_and_persistence_check_the_filtration_once(tmp_path, monkeypatch):
    calls = []

    def counted(f):
        calls.append(f)
        return facets(f)

    facets = filtration._facets
    monkeypatch.setattr(filtration, "_facets", counted)
    path = tmp_path / "filt.txt"
    write_filtration(TEXT_CASES["sparse_k2"], path)
    g = read_filtration(path)
    assert compute_persistence(g).pairs == compute_persistence(TEXT_CASES["sparse_k2"]).pairs
    assert calls.count(g) == 1 and validate_filtration(g) is g.facets


def test_filtration_arrays_are_read_only():
    f = TEXT_CASES["sparse_k2"]
    with pytest.raises(ValueError, match="read-only"):
        f.values[1][0] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        f.vertices[1][0, 0] = 0
    with pytest.raises(ValueError, match="read-only"):
        f.facets[1][0, 0] = 0


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
