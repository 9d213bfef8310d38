import math
import sys

import numpy as np
import pytest

from sparse_rips import (PersistenceDiagram, build_sparse, compute_persistence,
                         diagram_equal, from_points, full_rips, match_report_json,
                         multiplicative_match)

INF = math.inf


def dgm(pairs_by_dim, k=2, alpha_max=None):
    pairs = {d: sorted(pairs_by_dim.get(d, [])) for d in range(k)}
    return PersistenceDiagram(pairs=pairs, k=k, alpha_max=alpha_max)


# --- diagram_equal ----------------------------------------------------------

def test_equal_identical():
    a = dgm({0: [(0, 1), (0, INF)], 1: [(1, 2)]})
    assert diagram_equal(a, a, tol=1e-9)


def test_equal_within_tolerance():
    a = dgm({1: [(1, 2)]})
    b = dgm({1: [(1, 2 + 1e-12)]})
    assert diagram_equal(a, b, tol=1e-9)


def test_not_equal():
    a = dgm({1: [(1, 2)]})
    b = dgm({1: [(1, 3)]})
    assert not diagram_equal(a, b, tol=1e-9)


@pytest.mark.parametrize("scale", [1e-12, 1e12])
def test_equal_tolerance_scales_with_the_values(scale):
    a = dgm({1: [(scale, 2 * scale)]})
    assert diagram_equal(a, dgm({1: [(scale, (2 + 1e-12) * scale)]}), tol=1e-9)
    assert not diagram_equal(a, dgm({1: [(scale, 3 * scale)]}), tol=1e-9)


@pytest.mark.parametrize("scale", [1.0, 1e-12])
def test_equal_tells_sparse_from_full_rips_at_any_scale(scale):
    # same pair counts per dimension, different values: only the values decide
    m = from_points(np.random.default_rng(0).random((12, 2)) * scale)
    sparse = compute_persistence(build_sparse(m, 1 / 3, 2))
    diam = float(m.distance_matrix().max())
    full = compute_persistence(full_rips(m, diam * (1 + 1e-9), 2))
    assert [len(sparse.in_dim(d)) for d in range(2)] == \
        [len(full.in_dim(d)) for d in range(2)]
    assert diagram_equal(sparse, sparse)
    assert not diagram_equal(sparse, full)


def test_equal_infinity_only_matches_infinity():
    a = dgm({0: [(0, INF)]})
    b = dgm({0: [(0, 1e18)]})
    assert not diagram_equal(a, b, tol=1e-9)


def test_equal_count_mismatch():
    assert not diagram_equal(dgm({0: [(0, 1)]}), dgm({0: []}), tol=1e-9)


def test_equal_dimension_cap_mismatch():
    with pytest.raises(ValueError):
        diagram_equal(dgm({}, k=2), dgm({}, k=3))


# --- multiplicative_match ---------------------------------------------------

def test_match_identity():
    a = dgm({1: [(1, 2)]})
    assert multiplicative_match(a, a, 1.0).ok
    assert multiplicative_match(a, a, 5.0).ok


def test_match_within_ratio():
    a = dgm({1: [(1, 2)]})
    b = dgm({1: [(1.2, 1.9)]})
    res = multiplicative_match(a, b, 1.5)
    assert res.ok
    assert (1, 0, 0) in res.matching


def test_match_via_diagonal():
    a = dgm({1: [(1, 1.1)]})
    b = dgm({1: []})
    res = multiplicative_match(a, b, 1.5)  # 1.1 <= 1.5^2 * 1
    assert res.ok
    assert (1, 0, None) in res.matching


def test_match_diagonal_refused_when_too_persistent():
    a = dgm({1: [(1, 3)]})
    b = dgm({1: []})
    res = multiplicative_match(a, b, 1.5)  # 3 > 2.25
    assert not res.ok
    assert res.witness == (1, "a", 0, (1, 3))


def test_match_zero_births_bucket():
    a = dgm({0: [(0, 1)]})
    b = dgm({0: [(0.01, 1)]})
    assert not multiplicative_match(a, b, 100.0).ok
    assert multiplicative_match(dgm({0: [(0, 1)]}), dgm({0: [(0, 1.5)]}), 1.5).ok


def test_match_infinite_deaths():
    a = dgm({0: [(0, INF)]})
    b = dgm({0: [(0, INF)]})
    assert multiplicative_match(a, b, 1.0).ok
    assert not multiplicative_match(a, dgm({0: [(0, 5.0)]}), 10.0).ok


def test_match_b_side_witness():
    a = dgm({1: []})
    b = dgm({1: [(1, 3)]})
    res = multiplicative_match(a, b, 1.5)
    assert not res.ok
    assert res.witness[1] == "b"


def test_match_factor_validation():
    with pytest.raises(ValueError):
        multiplicative_match(dgm({}), dgm({}), 0.9)


def test_match_monotone_in_factor():
    rng = np.random.default_rng(61)
    for _ in range(20):
        a = dgm({1: [(x, x * (1 + rng.random())) for x in rng.uniform(0.5, 2, 3)]})
        b = dgm({1: [(x, x * (1 + rng.random())) for x in rng.uniform(0.5, 2, 3)]})
        prev = False
        for c in (1.0, 1.3, 2.0, 4.0, 50.0):
            ok = multiplicative_match(a, b, c).ok
            assert ok or not prev  # once ok, stays ok
            prev = ok
        assert multiplicative_match(a, b, 1e6).ok


def test_match_symmetric():
    rng = np.random.default_rng(62)
    for _ in range(20):
        a = dgm({0: [(0, float(x)) for x in rng.uniform(0.5, 2, 2)],
                 1: [(float(x), float(x) * 2) for x in rng.uniform(0.5, 2, 2)]})
        b = dgm({0: [(0, float(x)) for x in rng.uniform(0.5, 2, 2)],
                 1: [(float(x), float(x) * 2) for x in rng.uniform(0.5, 2, 3)]})
        for c in (1.1, 1.8, 3.0):
            assert multiplicative_match(a, b, c).ok == \
                   multiplicative_match(b, a, c).ok


def test_match_long_augmenting_paths_need_no_deep_recursion():
    # on this geometric chain the augmenting paths grow with the diagram,
    # about one step per point; the search must not recurse once per step
    n = 300
    a = dgm({0: [(1.2 ** i, 1.2 ** i * 1e6) for i in range(n)]}, k=1)
    b = dgm({0: [(1.1 * 1.2 ** i, 1.2 ** i * 1e6) for i in range(n)]}, k=1)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(200)
    try:
        r = multiplicative_match(a, b, 1.5)
    finally:
        sys.setrecursionlimit(limit)
    assert r.ok
    assert sorted(j for _, i, j in r.matching) == list(range(n))
    for _, i, j in r.matching:
        assert max(b.in_dim(0)[j][0] / a.in_dim(0)[i][0],
                   a.in_dim(0)[i][0] / b.in_dim(0)[j][0]) <= 1.5


def test_match_censored_deaths():
    # a death equal to the truncation scale may match any later death
    a = dgm({1: [(1.0, 2.0)]}, alpha_max=2.0)
    b = dgm({1: [(1.0, 50.0)]})
    assert multiplicative_match(a, b, 1.5).ok
    assert not multiplicative_match(a, dgm({1: [(1.0, 1.0 + 1e-9)]}), 1.2).ok


def test_match_report_json():
    res = multiplicative_match(dgm({1: [(1, 2)]}), dgm({1: [(1, 2)]}), 1.5)
    doc = match_report_json(res)
    assert '"ok": true' in doc
    bad = multiplicative_match(dgm({1: [(1, 9)]}), dgm({1: []}), 1.5)
    doc = match_report_json(bad)
    assert '"ok": false' in doc and '"witness"' in doc
