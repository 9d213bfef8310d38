import math
import warnings

import numpy as np
import pytest
from scipy.spatial.distance import cdist

import sparse_rips.filtration as filtration
import sparse_rips.metric as metric
from sparse_rips import (MetricFormatError, WeightContext, build_sparse, from_matrix,
                         from_points, lint_triangle_inequality, load_matrix, load_points,
                         max_edge_degree, sparse_size_stats)
from sparse_rips.cli import main

KERNELS = ("euclidean", "manhattan", "chebyshev")


def test_load_points_csv(tmp_path):
    f = tmp_path / "pts.csv"
    f.write_text("0,0\n1,0\n1,1\n0,1")
    m = load_points(f)
    assert m.n == 4
    assert m.dim == 2
    assert m.metric_kind == "euclidean"


def test_load_points_one_dimensional(tmp_path):
    f = tmp_path / "pts.csv"
    f.write_text("0\n1\n2\n4")
    m = load_points(f)
    assert m.n == 4
    assert m.dim == 1


def test_load_points_inconsistent_width(tmp_path):
    f = tmp_path / "bad.csv"
    f.write_text("0,0\n1")
    with pytest.raises(MetricFormatError, match="row 2"):
        load_points(f)


def test_load_points_bad_token(tmp_path):
    f = tmp_path / "bad.csv"
    f.write_text("0,0\n1,x")
    with pytest.raises(MetricFormatError, match="row 2, column 2"):
        load_points(f)


def test_load_points_empty(tmp_path):
    f = tmp_path / "empty.csv"
    f.write_text("")
    with pytest.raises(MetricFormatError, match="empty"):
        load_points(f)


def test_load_points_whitespace_and_header(tmp_path):
    f = tmp_path / "pts.txt"
    f.write_text("x y\n0 0\n3 4\n")
    m = load_points(f, fmt="whitespace", header=True)
    assert m.n == 2
    assert m.distance(0, 1) == pytest.approx(5.0)


def test_load_matrix(tmp_path):
    f = tmp_path / "mat.csv"
    f.write_text("0,1\n1,0")
    m = load_matrix(f)
    assert m.n == 2
    assert m.distance(0, 1) == 1.0
    assert m.metric_kind == "explicit_matrix"


def test_load_matrix_asymmetric(tmp_path):
    f = tmp_path / "mat.csv"
    f.write_text("0,1\n2,0")
    with pytest.raises(MetricFormatError, match="asymmetry"):
        load_matrix(f)


def test_load_matrix_nonsquare(tmp_path):
    f = tmp_path / "mat.csv"
    f.write_text("0,1,2\n1,0\n")
    with pytest.raises(MetricFormatError, match="non-square"):
        load_matrix(f)


def test_load_matrix_negative_and_diagonal(tmp_path):
    f = tmp_path / "neg.csv"
    f.write_text("0,-1\n-1,0")
    with pytest.raises(MetricFormatError, match="negative"):
        load_matrix(f)
    f2 = tmp_path / "diag.csv"
    f2.write_text("1,2\n2,0")
    with pytest.raises(MetricFormatError, match="diagonal"):
        load_matrix(f2)


def test_matrix_symmetrized_within_tolerance():
    m = from_matrix([[0.0, 1.0], [1.0 + 1e-12, 0.0]])
    assert m.distance(0, 1) == m.distance(1, 0)


def test_distance_examples():
    m = from_points([[0, 0], [3, 4]])
    assert m.distance(0, 1) == pytest.approx(5.0)
    m = from_points([[0, 0], [3, 4]], metric_kind="chebyshev")
    assert m.distance(0, 1) == pytest.approx(4.0)
    m = from_points([[0, 0], [3, 4]], metric_kind="manhattan")
    assert m.distance(0, 1) == pytest.approx(7.0)
    assert m.distance(1, 1) == 0.0


def test_distance_index_range():
    m = from_points([[0.0], [1.0]])
    with pytest.raises(IndexError):
        m.distance(0, 2)
    with pytest.raises(IndexError):
        m.distance(-1, 0)


def test_kernels_match_direct_formulas():
    rng = np.random.default_rng(5)
    pts = rng.normal(size=(30, 3))
    direct = {
        "euclidean": lambda a, b: math.sqrt(float(((a - b) ** 2).sum())),
        "manhattan": lambda a, b: float(np.abs(a - b).sum()),
        "chebyshev": lambda a, b: float(np.abs(a - b).max()),
    }
    for kind, form in direct.items():
        m = from_points(pts, metric_kind=kind)
        for _ in range(50):
            i, j = rng.integers(0, 30, 2)
            expect = form(pts[i], pts[j])
            got = m.distance(int(i), int(j))
            assert got == pytest.approx(expect, rel=1e-12, abs=1e-12)


def test_symmetry_and_zero_diagonal_random():
    rng = np.random.default_rng(6)
    m = from_points(rng.random((25, 2)))
    for _ in range(100):
        i, j = (int(x) for x in rng.integers(0, m.n, 2))
        assert m.distance(i, j) == m.distance(j, i)
        assert m.distance(i, i) == 0.0


@pytest.mark.parametrize("shape", [(0, 2), (3, 0), (0,)])
def test_points_without_points_or_coordinates_rejected(shape):
    with pytest.raises(MetricFormatError, match="non-empty"):
        from_points(np.zeros(shape))


def test_empty_matrix_rejected():
    with pytest.raises(MetricFormatError, match="distance matrix is empty"):
        from_matrix(np.zeros((0, 0)))


def test_duplicates_removed_with_warning():
    pts = [[0.0, 0.0], [1.0, 0.0], [0.0, 0.0], [2.0, 0.0], [1.0, 0.0]]
    with pytest.warns(UserWarning, match="duplicate"):
        m = from_points(pts)
    assert m.n == 3
    assert m.dedup_map == (0, 1, 0, 2, 1)


@pytest.mark.parametrize("kind", KERNELS)
def test_pairwise_kernel_bit_identical_to_cdist(kind):
    # catches a scipy whose cdist stops accumulating coordinates in order
    rng = np.random.default_rng(KERNELS.index(kind))
    i, j = np.triu_indices(40, k=1)
    for dim in range(1, 17):
        pts = rng.normal(size=(40, dim)) * 10.0 ** int(rng.integers(-3, 4))
        m = from_points(pts, metric_kind=kind)
        ref = cdist(pts, pts, metric=metric._KERNELS[kind])
        assert np.array_equal(m.distances(i, j), ref[i, j]), dim
        assert np.array_equal(m.distances(j, i), ref[j, i]), dim
        for p in (0, 17, 39):
            assert np.array_equal(m.distances(p), ref[p]), dim
        got = m.distance(3, 5)
        assert type(got) is float and got == ref[3, 5]


def test_distance_of_an_explicit_matrix_indexes_it():
    mat = np.array([[0.0, 2.0, 3.0], [2.0, 0.0, 4.0], [3.0, 4.0, 0.0]])
    m = from_matrix(mat)
    assert m.distances(1).tolist() == [2.0, 0.0, 4.0]
    assert m.distances(np.array([0, 2]), np.array([1, 1])).tolist() == [2.0, 4.0]
    assert type(m.distance(0, 2)) is float and m.distance(0, 2) == 3.0


def test_point_build_path_builds_no_matrix(monkeypatch, tmp_path, capsys):
    # the sparse build and the size stats of point input are O(n) memory: no
    # cdist, no n x n distance or birth matrix, in the library or in CLI
    # build and stats
    pts = np.random.default_rng(7).random((30, 2))
    csv = tmp_path / "pts.csv"
    csv.write_text("\n".join(f"{x!r},{y!r}" for x, y in pts.tolist()) + "\n")

    def refuse(*args, **kwargs):
        raise AssertionError("an n x n matrix was built")

    with monkeypatch.context() as patch:
        patch.setattr(metric, "cdist", refuse)
        patch.setattr(metric.MetricInput, "distance_matrix", refuse)
        patch.setattr(filtration, "birth_matrix", refuse)
        for kind in KERNELS:
            m = from_points(pts, metric_kind=kind)
            build_sparse(m, 1 / 3, 2)
            max_edge_degree(m, WeightContext.build(m, 0.25, seed=3))
            for k in (1, 2, 3):
                sparse_size_stats(m, WeightContext.build(m, 0.1, seed=5), k)
            assert main(["build", "--input", str(csv), "--metric", kind, "--epsilon",
                         "0.2", "--k", "2", "--out", str(tmp_path / "f.txt")]) == 0
        for k in ("1", "2", "3"):
            assert main(["stats", "--generator", "uniform2d", "--n", "30,40", "--epsilon",
                         "0.1", "--k", k, "--out", str(tmp_path / "s.csv")]) == 0
    assert np.array_equal(m.distance_matrix(), cdist(pts, pts, metric="chebyshev"))


def dense_dedup_map(pts, kind):
    """dedup_map from the components of the graph cdist == 0 (oracle)."""
    reach = (cdist(pts, pts, metric=metric._KERNELS[kind]) == 0.0).astype(int)
    while True:
        closed = (reach @ reach > 0).astype(int)
        if np.array_equal(closed, reach):
            break
        reach = closed
    roots = reach.argmax(axis=1)   # the smallest index of each component
    return tuple(np.searchsorted(np.unique(roots), roots).tolist())


@pytest.mark.parametrize("kind", KERNELS)
@pytest.mark.parametrize("pts", [
    [[0.0, 0.0], [1.0, 0.0], [0.0, 0.0], [2.0, 0.0], [1.0, 0.0], [0.0, 0.0]],
    # a chain: neighbours underflow to 0 in euclidean, the ends do not
    [[0.0], [1.5e-162], [3e-162], [4.5e-162], [1.0]],
    [[0.0, 1.0], [-0.0, 1.0], [0.0, -0.0], [-0.0, 0.0], [5.0, -0.0]],
    [[1e-170, 0.0], [0.0, 0.0], [0.0, 1e-170], [2e-170, 5.0], [0.0, 5.0]],
    [[3.0, 1.0, 2.0]] * 4 + [[3.0, 1.0, 2.5]],
], ids=["exact", "chain", "signed_zero", "underflow", "all_but_one"])
def test_dedup_map_matches_dense_union_find(kind, pts):
    pts = np.array(pts)
    expect = dense_dedup_map(pts, kind)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        m = from_points(pts, metric_kind=kind)
    assert m.dedup_map == expect
    keep = sorted(set(expect))
    assert m.n == len(keep)
    assert np.array_equal(m.points, pts[[expect.index(r) for r in keep]])
    removed = len(pts) - m.n
    assert [str(w.message) for w in caught] == (
        [f"removed {removed} duplicate point(s); indices remapped (see dedup_map)"]
        if removed else [])


def test_dedup_map_matches_dense_union_find_random():
    rng = np.random.default_rng(8)
    for _ in range(30):
        base = rng.integers(0, 3, size=(int(rng.integers(2, 12)), 2)).astype(float)
        pts = base[rng.integers(0, len(base), size=int(rng.integers(1, 25)))]
        for kind in KERNELS:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                assert from_points(pts, metric_kind=kind).dedup_map == dense_dedup_map(pts, kind)


def test_duplicate_matrix_entries_merged():
    mat = [[0, 0, 1], [0, 0, 1], [1, 1, 0]]
    with pytest.warns(UserWarning, match="duplicate"):
        m = from_matrix(mat)
    assert m.n == 2
    assert m.dedup_map == (0, 0, 1)


def test_triangle_inequality_lint_warns():
    bad = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 5.0], [1.0, 5.0, 0.0]])
    with pytest.warns(UserWarning, match="triangle"):
        assert not lint_triangle_inequality(bad)
    good = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 1.5], [1.0, 1.5, 0.0]])
    assert lint_triangle_inequality(good)


@pytest.mark.parametrize("shape", [(6, 2), (6,)])
def test_from_points_leaves_the_callers_array_alone(shape):
    a = np.random.default_rng(9).random(shape)
    pts = a.reshape(6, -1).copy()
    m = from_points(a)
    assert a.flags.writeable
    a[...] = 0.0
    assert np.array_equal(m.points, pts)
    i, j = np.triu_indices(6, k=1)
    assert np.array_equal(m.distances(i, j), cdist(pts, pts)[i, j])


def test_matrix_input_is_immutable():
    m = from_points([[0.0], [1.0]])
    with pytest.raises(ValueError):
        m.points[0, 0] = 5.0


@pytest.mark.parametrize("fmt, text", [("csv", "0.5,1\n2,3\n-1,4\n"),
                                       ("whitespace", "0.5 1\n2 3\n-1 4\n")])
def test_a_byte_order_mark_is_skipped(tmp_path, fmt, text):
    # spreadsheet exports start with U+FEFF; it must not reach the first field
    plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
    plain.write_text(text, encoding="utf-8")
    marked.write_text("\ufeff" + text, encoding="utf-8")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    assert np.array_equal(load_points(marked, fmt=fmt).points,
                          load_points(plain, fmt=fmt).points)
    square = "0,1,2\n1,0,1.5\n2,1.5,0\n"
    plain.write_text(square, encoding="utf-8")
    marked.write_text("\ufeff" + square, encoding="utf-8")
    assert np.array_equal(load_matrix(marked).matrix, load_matrix(plain).matrix)


#: per kernel: points some of whose distances overflow float64
OVERFLOWING = {"euclidean": [[0, 0], [1e200, 0], [0, 1e200], [1, 1]],
               "manhattan": [[0, 0], [1e308, 0], [0, 1e308], [1, 1]],
               "chebyshev": [[1e308], [-1e308], [0]]}
OVERFLOW_MESSAGE = "distances overflow: the distance across the bounding box of the points is not finite"


@pytest.mark.parametrize("kind", KERNELS)
def test_points_whose_distances_overflow_are_refused(kind):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(MetricFormatError) as exc:
            from_points(OVERFLOWING[kind], metric_kind=kind)
    assert str(exc.value) == f"{kind} {OVERFLOW_MESSAGE}"
    assert caught == []
    # below the overflow the points are taken (a euclidean kernel squares)
    x = 1e150 if kind == "euclidean" else 8e307
    assert from_points([[x], [-x]], metric_kind=kind).distance(0, 1) == 2 * x


@pytest.mark.parametrize("kind, scale", [("euclidean", 1.2e154), ("manhattan", 1e308)])
def test_points_whose_box_diagonal_overflows_are_taken_if_no_distance_does(kind, scale):
    # a diamond: the diagonal of its bounding box is not finite, yet its
    # largest distance is the box side; chebyshev has no such case, since
    # its box diagonal is the distance of two of the points
    m = from_points(np.array([[1, 0.5], [0, 0.5], [0.5, 1], [0.5, 0]]) * scale,
                    metric_kind=kind)
    assert m.distance_matrix().max() == scale


@pytest.mark.parametrize("kind", KERNELS)
def test_cli_refuses_points_whose_distances_overflow(tmp_path, capsys, kind):
    src = tmp_path / "far.csv"
    src.write_text("\n".join(",".join(map(repr, map(float, p))) for p in OVERFLOWING[kind]))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["build", "--input", str(src), "--metric", kind, "--epsilon", "0.25",
                     "--out", str(tmp_path / "filt.txt")])
    assert code == 1
    assert capsys.readouterr().err == f"error: {kind} {OVERFLOW_MESSAGE}\n"
    assert caught == []
    assert not (tmp_path / "filt.txt").exists()
