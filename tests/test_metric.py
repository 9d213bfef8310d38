import math

import numpy as np
import pytest

import sparse_rips.metric as metric
from sparse_rips import (MetricFormatError, build_sparse, from_matrix, from_points,
                         lint_triangle_inequality, load_matrix, load_points)


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


def test_duplicates_removed_with_warning():
    pts = [[0.0, 0.0], [1.0, 0.0], [0.0, 0.0], [2.0, 0.0], [1.0, 0.0]]
    with pytest.warns(UserWarning, match="duplicate"):
        m = from_points(pts)
    assert m.n == 3
    assert m.dedup_map == (0, 1, 0, 2, 1)


def test_distances_computed_once_without_duplicates(monkeypatch):
    real_cdist = metric.cdist
    calls = []

    def counting_cdist(*args, **kwargs):
        calls.append(1)
        return real_cdist(*args, **kwargs)

    monkeypatch.setattr(metric, "cdist", counting_cdist)
    pts = np.random.default_rng(7).random((30, 2))
    m = from_points(pts)
    build_sparse(m, 1 / 3, 2)
    assert len(calls) == 1
    assert np.array_equal(m.distance_matrix(), real_cdist(pts, pts))


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


def test_matrix_input_is_immutable():
    m = from_points([[0.0], [1.0]])
    with pytest.raises(ValueError):
        m.points[0, 0] = 5.0
