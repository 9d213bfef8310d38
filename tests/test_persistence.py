import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings

from sparse_rips import (MalformedFiltrationError, PersistenceDiagram,
                         SparseFiltration, WeightContext, betti_numbers,
                         build_sparse, compute_persistence, diagram_from_json,
                         diagram_to_csv, diagram_to_json,
                         clique_expand, from_points, full_rips, read_filtration,
                         static_complex)
from sparse_rips import persistence

from filtration_helpers import naive_diagram, simplices, tie_heavy_graphs

INF = math.inf
SQUARE = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]


def filt(simplices, k):
    sims = [(tuple(v), float(val)) for v, val in simplices]
    sims.sort(key=lambda s: (s[1], len(s[0]), s[0]))
    return SparseFiltration.from_simplices(sims, k, "sparse_S")


def random_filtration(rng, max_sims=40):
    n = int(rng.integers(3, 8))
    if rng.random() < 0.25:  # grid points force ties in the values
        side = int(rng.integers(2, 4))
        pts = np.array([[i, j] for i in range(side) for j in range(side)],
                       dtype=float)[: int(rng.integers(3, 8))]
    else:
        pts = rng.random((n, 2))
    m = from_points(pts)
    k = int(rng.integers(1, 4))
    f = full_rips(m, float(rng.uniform(0.4, 1.8)), k)
    sims = simplices(f)[:max_sims]  # a prefix is closed under faces
    return SparseFiltration.from_simplices(sims, k, f.kind, alpha_max=None)


# --- examples -------------------------------------------------------------

def test_two_edges_path():
    f = filt([((0,), 0), ((1,), 0), ((2,), 0), ((0, 1), 1), ((1, 2), 2)], k=2)
    dgm = compute_persistence(f)
    assert dgm.in_dim(0) == [(0.0, 1.0), (0.0, 2.0), (0.0, INF)]
    assert dgm.in_dim(1) == []


def test_unit_square_full_rips():
    dgm = compute_persistence(full_rips(from_points(SQUARE), 2.0, 2))
    assert dgm.in_dim(0) == [(0.0, 1.0)] * 3 + [(0.0, INF)]
    assert dgm.in_dim(1) == [(1.0, pytest.approx(math.sqrt(2)))]


def test_single_vertex():
    f = filt([((0,), 0)], k=1)
    assert compute_persistence(f).in_dim(0) == [(0.0, INF)]


def test_vertex_only_filtration_has_an_empty_diagram():
    f = filt([((0,), 0), ((1,), 0), ((5,), 0)], k=0)
    assert compute_persistence(f) == PersistenceDiagram(pairs={}, k=0)
    assert compute_persistence(f, keep_zero_pairs=True).total_points() == 0


def test_missing_face_reported():
    sims = [((0,), 0.0), ((1,), 0.0), ((2,), 0.0), ((0, 1), 1.0),
            ((0, 1, 2), 2.0)]
    with pytest.raises(MalformedFiltrationError, match=r"\(1, 2\)"):
        SparseFiltration.from_simplices(sims, 2, "sparse_S")


MALFORMED = {
    "duplicate": ([((0,), 0), ((1,), 0), ((0, 1), 1), ((0, 1), 1)], 1),
    "vertices-not-increasing": ([((0,), 0), ((1,), 0), ((1, 0), 1)], 1),
    "dim-above-k": ([((0,), 0), ((1,), 0), ((2,), 0), ((0, 1), 1), ((0, 2), 1),
                     ((1, 2), 1), ((0, 1, 2), 1)], 1),
    "nan-value": ([((0,), 0), ((1,), 0), ((0, 1), math.nan)], 1),
    "negative-value": ([((0,), 0), ((1,), 0), ((0, 1), -1.0)], 1),
    "nonzero-vertex-value": ([((0,), 0), ((1,), 0.5), ((0, 1), 1)], 1),
    "out-of-order": ([((0,), 0), ((1,), 0), ((2,), 0), ((0, 1), 5), ((0, 2), 5),
                      ((1, 2), 5), ((0, 1, 2), 1)], 2),
}


@pytest.mark.parametrize("shape", sorted(MALFORMED))
def test_malformed_filtration_rejected(shape):
    simplices, k = MALFORMED[shape]
    sims = [(tuple(v), float(val)) for v, val in simplices]  # kept unsorted
    with pytest.raises(MalformedFiltrationError):
        compute_persistence(SparseFiltration.from_simplices(sims, k, "sparse_S"))


@pytest.mark.parametrize("shape", sorted(MALFORMED))
def test_malformed_filtration_file_rejected_on_read(shape, tmp_path):
    simplices, k = MALFORMED[shape]
    path = tmp_path / f"{shape}.txt"
    path.write_text(f"# k={k} kind=sparse_S alpha_max=none\n" + "".join(
        " ".join([repr(float(val))] + [str(v) for v in verts]) + "\n"
        for verts, val in simplices))
    with pytest.raises(MalformedFiltrationError):
        read_filtration(path)


# per shape: the message when the simplices are listed as given
# (from_simplices, read_filtration), and when they are first put into the
# global order, each dimension in the listed order, so that only the face
# check sees them
MALFORMED_MESSAGE = {
    "duplicate": ("duplicate simplex (0, 1)",) * 2,
    "vertices-not-increasing": ("vertices not strictly increasing: (1, 0)",) * 2,
    "dim-above-k": ("simplex (0, 1, 2) exceeds dimension cap 1",) * 2,
    "nan-value": ("bad value nan for simplex (0, 1)",) * 2,
    "negative-value": ("simplices out of order at position 2",
                       "bad value -1.0 for simplex (0, 1)"),
    "nonzero-vertex-value": ("vertex (1,) has nonzero value 0.5",) * 2,
    "out-of-order": ("simplices out of order at position 6",
                     "missing face (1, 2) before simplex (0, 1, 2)"),
}


def in_global_order(simplices, k):
    """The simplices stably sorted by (value, dimension), so each dimension
    keeps the listed order, then made by from_simplices."""
    return SparseFiltration.from_simplices(sorted(simplices, key=lambda s: (s[1], len(s[0]))),
                                           k, "sparse_S")


@pytest.mark.parametrize("shape", sorted(MALFORMED))
def test_malformed_filtration_message_is_exact(shape, tmp_path):
    simplices, k = MALFORMED[shape]
    listed, checked = MALFORMED_MESSAGE[shape]
    sims = [(tuple(v), float(val)) for v, val in simplices]
    with pytest.raises(MalformedFiltrationError) as exc:
        compute_persistence(SparseFiltration.from_simplices(sims, k, "sparse_S"))
    assert str(exc.value) == listed
    path = tmp_path / f"{shape}.txt"
    path.write_text(f"# k={k} kind=sparse_S alpha_max=none\n" + "".join(
        " ".join([repr(val)] + [str(v) for v in verts]) + "\n" for verts, val in sims))
    with pytest.raises(MalformedFiltrationError) as exc:
        read_filtration(path)
    assert str(exc.value) == listed
    with pytest.raises(MalformedFiltrationError) as exc:
        compute_persistence(in_global_order(sims, k))
    assert str(exc.value) == checked


@pytest.mark.parametrize("sims, position", [
    ([((0,), 0), ((1,), 0), ((2,), 0), ((0, 2), 1), ((0, 1), 1)], 4),  # vertex order
    ([((0,), 0), ((1,), 0), ((0, 1), 1), ((2,), 0)], 3),                # value
    ([((0,), 0), ((1,), 0), ((0, 1), 0), ((2,), 0)], 3),                # dimension
])
def test_from_simplices_rejects_the_first_simplex_out_of_order(sims, position):
    with pytest.raises(MalformedFiltrationError,
                       match=f"out of order at position {position}$"):
        SparseFiltration.from_simplices([(v, float(x)) for v, x in sims], 1, "sparse_S")


def test_face_born_after_its_coface_rejected():
    # in the global order, but the edges are born after their triangle
    sims = [((0,), 0.0), ((1,), 0.0), ((2,), 0.0), ((0, 1, 2), 1.0),
            ((0, 1), 5.0), ((0, 2), 5.0), ((1, 2), 5.0)]
    with pytest.raises(MalformedFiltrationError, match=r"missing face \(1, 2\)"):
        SparseFiltration.from_simplices(sims, 2, "sparse_S")


def test_face_lookup_takes_labels_beyond_packed_keys(tmp_path):
    # with labels near 2**40 a key packed from the labels, such as
    # v0 * n**2 + v1 * n + v2, overflows int64; the facet keys pack label
    # ranks instead, so the diagram is the same
    f = full_rips(from_points([[0.0, 0.0], [1.0, 0.0], [0.2, 0.9], [1.1, 1.3]]), 3.0, 3)

    def write(name, relabel, drop=None):
        sims = [(tuple(relabel[v] for v in verts), value)
                for i, (verts, value) in enumerate(simplices(f)) if i != drop]
        path = tmp_path / name
        path.write_text("# k=3 kind=full_rips alpha_max=3.0\n" + "".join(
            " ".join([repr(value)] + [str(v) for v in verts]) + "\n"
            for verts, value in sims))
        return path

    big = {0: 0, 1: 1, 2: 2**40, 3: 2**40 + 1}
    small = compute_persistence(read_filtration(write("small.txt", {v: v for v in big})))
    large = compute_persistence(read_filtration(write("large.txt", big)))
    assert diagram_to_json(large) == diagram_to_json(small)
    assert small.pairs == compute_persistence(f).pairs
    triangle = next(i for i, (verts, _) in enumerate(simplices(f)) if len(verts) == 3)
    with pytest.raises(MalformedFiltrationError, match="missing face"):
        read_filtration(write("holed.txt", big, drop=triangle))


def test_zero_persistence_pairs_dropped_by_default():
    f = filt([((0,), 0), ((1,), 0), ((0, 1), 0)], k=1)
    assert compute_persistence(f).in_dim(0) == [(0.0, INF)]
    kept = compute_persistence(f, keep_zero_pairs=True).in_dim(0)
    assert kept == [(0.0, 0.0), (0.0, INF)]


# --- oracle comparison and accounting ------------------------------------

def test_matches_naive_reduction_on_random_filtrations():
    rng = np.random.default_rng(51)
    cases = [random_filtration(rng) for _ in range(25)]
    for _ in range(4):  # k = 3 and >= 200 simplices: columns fill in
        full = full_rips(from_points(rng.random((10, 2))), 1.5, 3)
        sims = simplices(full)[: int(rng.integers(200, len(full) + 1))]
        cases.append(SparseFiltration.from_simplices(sims, 3, full.kind))
    for f in cases:
        for keep in (False, True):
            got = compute_persistence(f, keep_zero_pairs=keep)
            expect = naive_diagram(f, keep_zero_pairs=keep)
            assert got.pairs == expect.pairs


def assert_matches_naive(f):
    for keep in (False, True):
        got = compute_persistence(f, keep_zero_pairs=keep)
        assert got.pairs == naive_diagram(f, keep_zero_pairs=keep).pairs


# (n, eps, k): n is smaller where k = 3 or eps = 0.1 makes the complex dense
SPARSE_ORACLE_CASES = [(40, 0.1, 1), (40, 1 / 3, 1), (24, 0.1, 2), (40, 1 / 3, 2),
                       (20, 0.1, 3), (25, 1 / 3, 3)]


@pytest.mark.parametrize("n,eps,k", SPARSE_ORACLE_CASES)
def test_sparse_filtration_matches_naive_reduction(n, eps, k):
    rng = np.random.default_rng([57, n, k])
    assert_matches_naive(build_sparse(from_points(rng.random((n, 2))), eps, k))


def test_constant_zero_snapshots_match_naive_reduction():
    # every value ties, so the order is (dimension, vertices) alone
    rng = np.random.default_rng(58)
    for kind in ("Q_open", "Q_closed", "relaxed_full"):
        for _ in range(3):
            theta = rng.uniform(0, 2 * math.pi, 14)
            pts = np.c_[np.cos(theta), np.sin(theta)] + rng.normal(0, 0.05, (14, 2))
            m = from_points(pts)
            ctx = WeightContext.build(m, 0.05)
            alpha = float(rng.uniform(0.5, 1.5))
            assert_matches_naive(static_complex(m, ctx, alpha, kind, 3))


def test_union_find_past_its_first_block_matches_naive_reduction():
    # two far-apart clusters, each complete at alpha: in a snapshot the edges
    # follow vertex order, so every merge in the second cluster comes after
    # all C(60, 2) edges of the first, past the first block of edges
    rng = np.random.default_rng(59)
    m = from_points(np.r_[rng.random((60, 1)), 10 + rng.random((40, 1))])
    f = static_complex(m, WeightContext.build(m, 0.1), 4.0, "relaxed_full", 1)
    assert f.counts_by_dim() == [100, math.comb(60, 2) + math.comb(40, 2)]
    assert math.comb(60, 2) > persistence._EDGE_BLOCK
    assert_matches_naive(f)
    assert compute_persistence(f).in_dim(0) == [(0.0, INF)] * 2


def test_integer_grid_rips_prefixes_match_naive_reduction():
    # grid distances tie in large groups; a prefix is closed under faces
    grid = from_points([[i, j] for i in range(4) for j in range(4)])
    for k in (1, 2, 3):
        full = full_rips(grid, 2.0, k)
        for stop in np.linspace(len(full) // 4, len(full), 4).astype(int):
            prefix = SparseFiltration.from_simplices(simplices(full)[:stop], k,
                                                     full.kind)
            assert_matches_naive(prefix)


@given(tie_heavy_graphs())
@settings(max_examples=120, deadline=None)
def test_tie_heavy_flag_filtrations_match_the_oracles(graph):
    # values tie in large groups, so the order rests on the vertex-order tie break
    n, edges = graph
    f = clique_expand(edges, n, 3)
    births = {(min(p, q), max(p, q)): b for p, q, b in edges}
    for d in range(4):   # every clique, listed in vertex order, stably sorted by value
        cliques = [c for c in combinations(range(n), d + 1)
                   if all(e in births for e in combinations(c, 2))]
        expect = sorted(((c, max((births[e] for e in combinations(c, 2)), default=0.0))
                         for c in cliques), key=lambda s: s[1])
        assert f.vertices[d].tolist() == [list(c) for c, _ in expect]
        assert f.values[d].tobytes() == np.array([v for _, v in expect], dtype=float).tobytes()
    checked = SparseFiltration.from_simplices(simplices(f), f.k, f.kind).facets   # a copy
    for a, b in zip(f.facets, checked, strict=True):
        assert a.dtype == b.dtype and a.shape == b.shape and (a == b).all()
    assert_matches_naive(f)


def test_cofacet_keys_that_could_overflow_are_refused(monkeypatch):
    # the cofacet index sorts facet * m_{d+1} + cofacet: K5 has 10 edges and
    # 10 triangles
    f = clique_expand([(a, b, float(a + b)) for a, b in combinations(range(5), 2)], 5, 2)
    monkeypatch.setattr(persistence, "_KEY_LIMIT", 101)
    expect = compute_persistence(f)
    assert expect.pairs == naive_diagram(f).pairs
    monkeypatch.setattr(persistence, "_KEY_LIMIT", 100)
    with pytest.raises(ValueError, match="^10 simplices of dimension 1 and 10 of dimension 2 "
                                         "are too many to index$"):
        compute_persistence(f)


def test_pairing_accounting():
    # 2 * finite pairs + infinite pairs + unreported top creators = simplices
    rng = np.random.default_rng(52)
    for _ in range(10):
        f = random_filtration(rng)
        dgm = compute_persistence(f, keep_zero_pairs=True)
        finite = sum(1 for d in range(f.k) for _, dth in dgm.in_dim(d)
                     if not math.isinf(dth))
        infinite = dgm.total_points() - finite
        counts = [0] * (f.k + 1)
        for verts, _ in simplices(f):
            counts[len(verts) - 1] += 1
        killers_of_topm1 = sum(1 for _, dth in dgm.in_dim(f.k - 1)
                               if not math.isinf(dth))
        top_creators = counts[f.k] - killers_of_topm1
        assert 2 * finite + infinite + top_creators == len(simplices(f))


def test_diagram_invariant_under_relabeling():
    rng = np.random.default_rng(53)
    pts = rng.random((9, 2))
    perm = rng.permutation(9)
    a = compute_persistence(full_rips(from_points(pts), 1.5, 2))
    b = compute_persistence(full_rips(from_points(pts[perm]), 1.5, 2))
    from sparse_rips import diagram_equal
    assert diagram_equal(a, b, tol=1e-12)


# --- betti numbers --------------------------------------------------------

def test_betti_four_cycle():
    m = from_points(SQUARE)
    ctx = WeightContext.build(m, 0.01)
    c = static_complex(m, ctx, 1.2, "relaxed_full", 2)
    assert betti_numbers(c) == [1, 1]


def test_betti_isolated_vertices():
    rng = np.random.default_rng(54)
    m = from_points(rng.random((6, 2)))
    ctx = WeightContext.build(m, 0.01)
    c = static_complex(m, ctx, 1e-9, "relaxed_full", 2)
    assert betti_numbers(c) == [6, 0]


def test_betti_filled_triangle():
    m = from_points([[0.0, 0.0], [1.0, 0.0], [0.5, 0.8]])
    ctx = WeightContext.build(m, 0.01)
    c = static_complex(m, ctx, 1.5, "relaxed_full", 2)
    assert betti_numbers(c) == [1, 0]


def test_betti_takes_a_constant_zero_filtration():
    # a snapshot is an ordinary filtration with every value 0.0
    hollow = [((0,), 0), ((1,), 0), ((2,), 0), ((0, 1), 0), ((0, 2), 0), ((1, 2), 0)]
    assert betti_numbers(filt(hollow, 2)) == [1, 1]
    assert betti_numbers(filt(hollow + [((0, 1, 2), 0)], 2)) == [1, 0]
    m = from_points(SQUARE)
    c = static_complex(m, WeightContext.build(m, 0.01), 1.2, "relaxed_full", 2)
    square = [((v,), 0) for v in range(4)] + [((0, 1), 0), ((1, 2), 0),
                                               ((2, 3), 0), ((0, 3), 0)]
    assert simplices(c) == simplices(filt(square, 2))
    assert betti_numbers(c) == betti_numbers(filt(square, 2)) == [1, 1]


def test_euler_characteristic_uncapped():
    rng = np.random.default_rng(55)
    for _ in range(6):
        n = int(rng.integers(3, 9))
        m = from_points(rng.random((n, 2)))
        ctx = WeightContext.build(m, 0.01)
        c = static_complex(m, ctx, float(rng.uniform(0.2, 1.2)),
                           "relaxed_full", n)
        counts = c.counts_by_dim()
        euler_counts = sum((-1) ** i * x for i, x in enumerate(counts))
        betti = betti_numbers(c, through_dim=len(counts) - 1)
        euler_betti = sum((-1) ** i * b for i, b in enumerate(betti))
        assert euler_counts == euler_betti


def test_constant_filtration_reproduces_betti():
    rng = np.random.default_rng(56)
    for _ in range(6):
        m = from_points(rng.random((7, 2)))
        ctx = WeightContext.build(m, 0.25)
        c = static_complex(m, ctx, float(rng.uniform(0.1, 0.9)),
                           "relaxed_full", 3)
        dgm = naive_diagram(c, keep_zero_pairs=True)
        infinite = [sum(1 for _, dth in dgm.in_dim(d) if math.isinf(dth))
                    for d in range(c.k)]
        assert infinite == betti_numbers(c)
        # betti_k = n_k - rank of the boundary map = n_k - pairs the k-simplices close
        destroyed = len(dgm.in_dim(c.k - 1)) - infinite[c.k - 1]
        top = c.counts_by_dim()[c.k] - destroyed
        assert infinite + [top] == betti_numbers(c, through_dim=c.k)


def densely_relabelled(f):
    """f with its vertex labels renamed 0 .. nv - 1 in their order."""
    rank = {v: i for i, v in enumerate(f.vertices[0][:, 0].tolist())}   # keeps the order
    return SparseFiltration.from_simplices(
        [(tuple(rank[v] for v in verts), value) for verts, value in simplices(f)],
        f.k, f.kind, f.alpha_max)


@pytest.mark.parametrize("kind", ["Q_open", "Q_closed"])
def test_betti_of_net_snapshots_whose_labels_are_not_dense(kind):
    # two noisy circles; a net snapshot keeps only the labels of the net's points
    rng = np.random.default_rng(59)
    theta = rng.uniform(0, 2 * math.pi, 40)
    pts = np.c_[np.cos(theta), np.sin(theta)] + rng.normal(0, 0.05, (40, 2))
    pts[20:] += [6.0, 0.0]
    m = from_points(pts)
    ctx = WeightContext.build(m, 1 / 3)
    t = ctx.schedule.t
    gaps = 0
    for alpha in np.quantile(t[np.isfinite(t)], [0.05, 0.2, 0.4, 0.6, 0.8, 1.0]):
        q = static_complex(m, ctx, float(alpha), kind, 2)
        labels = q.vertices[0][:, 0]
        gaps += labels[-1] > len(labels) - 1
        dgm = naive_diagram(q, keep_zero_pairs=True)
        infinite = [sum(1 for _, dth in dgm.in_dim(d) if math.isinf(dth)) for d in range(q.k)]
        assert betti_numbers(q) == betti_numbers(densely_relabelled(q)) == infinite
    assert gaps >= 5


# --- serialization --------------------------------------------------------

def test_json_round_trip():
    dgm = compute_persistence(full_rips(from_points(SQUARE), 2.0, 2))
    back = diagram_from_json(diagram_to_json(dgm))
    assert back.pairs == dgm.pairs
    assert back.k == dgm.k and back.alpha_max == dgm.alpha_max


def test_csv_round_trip():
    # each value is written as its repr, or "inf", so it parses back to itself
    dgm = compute_persistence(full_rips(from_points(SQUARE), 2.0, 2))
    header, *lines = diagram_to_csv(dgm).splitlines()
    back = {d: [] for d in range(dgm.k)}
    for line in lines:
        d, birth, death = line.split(",")
        assert birth == repr(float(birth)) and death in ("inf", repr(float(death)))
        back[int(d)].append((float(birth), float(death)))
    assert header == "dim,birth,death" and back == dgm.pairs
    assert any(math.isinf(death) for pairs in back.values() for _, death in pairs)


def test_json_encodes_infinity_as_string():
    dgm = compute_persistence(filt([((0,), 0)], k=1))
    assert '"inf"' in diagram_to_json(dgm)
