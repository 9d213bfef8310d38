import itertools
import math
import sys

import numpy as np
import pytest

from sparse_rips import (PersistenceDiagram, build_sparse, compute_persistence,
                         diagram_equal, from_points, full_rips, multiplicative_match)

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


def test_equal_pairs_near_ties_that_sort_differently():
    # sorted, a pairs (1, 2) with (1, 1.5); as multisets the diagrams agree
    a = dgm({1: [(1, 2), (1 + 1e-13, 1.5)]})
    b = dgm({1: [(1 + 2e-13, 2), (1, 1.5)]})
    assert diagram_equal(a, b, tol=1e-9)
    assert diagram_equal(b, a, tol=1e-9)


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
    # neither point may go to the diagonal (3 > 1.5^2 * 1, 2.9 > 1.5^2 * 1.2)
    a = dgm({1: [(1, 3)]})
    b = dgm({1: [(1.2, 2.9)]})
    res = multiplicative_match(a, b, 1.5)
    assert res.ok
    assert res.matching == [(1, 0, 0)]


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
    # inf * 0 on a zero birth would be NaN
    with pytest.raises(ValueError, match=r"^factor must be a finite number >= 1, got inf$"):
        multiplicative_match(dgm({0: [(0, 1)]}), dgm({0: [(0, 1)]}), INF)


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
    n = 2000
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


def grid_diagram(cap):
    # the 4 x 4 unit grid: 9 unit squares, each a loop born at 1 that fills at sqrt(2)
    m = from_points(np.array(list(itertools.product(range(4), repeat=2)), dtype=float))
    return compute_persistence(full_rips(m, cap, 2))


def test_a_death_at_the_cap_is_a_real_death():
    a = grid_diagram(math.sqrt(2))
    assert a.alpha_max == math.sqrt(2) and a.in_dim(1) == [(1.0, math.sqrt(2))] * 9
    moved = PersistenceDiagram(pairs={0: a.in_dim(0), 1: [(1.0, 3.0)] * 9}, k=2,
                               alpha_max=a.alpha_max)
    # 3.0 > 1.5 * sqrt(2), and (1, 3) is too far from the diagonal
    assert not multiplicative_match(a, moved, 1.5).ok
    assert not multiplicative_match(moved, a, 1.5).ok
    assert multiplicative_match(a, moved, 3.0 / math.sqrt(2)).ok


def test_a_class_alive_at_the_cap_has_an_infinite_death():
    a = grid_diagram(1.0)
    assert a.in_dim(1) == [(1.0, INF)] * 9 and a.in_dim(0).count((0.0, INF)) == 1
    assert not multiplicative_match(a, grid_diagram(math.sqrt(2)), 1e6).ok


# --- brute-force oracle -----------------------------------------------------
# the scalar predicates below are the reference for the array ones in compare.py

def within_factor(x, y, c, rtol):
    if x == 0.0 or y == 0.0 or math.isinf(x) or math.isinf(y):
        return x == y
    lo, hi = (x, y) if x <= y else (y, x)
    return hi <= c * lo * (1.0 + rtol)


def compatible(pa, pb, c, rtol):
    return within_factor(pa[0], pb[0], c, rtol) and within_factor(pa[1], pb[1], c, rtol)


def diagonal_ok(p, c, rtol):
    birth, death = p
    if math.isinf(death) or birth <= 0.0:
        return False
    return death <= c * c * birth * (1.0 + rtol)


def brute_match(a, b, c, rtol=1e-12):
    """Try every injective partial map from a to b, the rest to the diagonal."""
    def feasible(pa, pb, image):
        used = [j for j in image if j is not None]
        return (len(set(used)) == len(used)
                and all(diagonal_ok(p, c, rtol) if j is None
                        else compatible(p, pb[j], c, rtol)
                        for p, j in zip(pa, image))
                and all(diagonal_ok(q, c, rtol) for j, q in enumerate(pb) if j not in used))

    for d in range(a.k):
        pa, pb = a.in_dim(d), b.in_dim(d)
        images = itertools.product([None, *range(len(pb))], repeat=len(pa))
        if not any(feasible(pa, pb, image) for image in images):
            return False
    return True


def brute_equal(a, b, tol):
    def close(x, y):
        if math.isinf(x) or math.isinf(y):
            return x == y
        return abs(x - y) <= tol * max(abs(x), abs(y))
    for d in range(a.k):
        pa, pb = a.in_dim(d), b.in_dim(d)
        if len(pa) != len(pb) or not any(
                all(close(p[0], q[0]) and close(p[1], q[1]) for p, q in zip(pa, perm))
                for perm in itertools.permutations(pb)):
            return False
    return True


def random_diagram(rng, k, alpha_max):
    """Up to 3 points per dimension with zero births, zero persistence, ties,
    infinite deaths and deaths at the cap alpha_max."""
    pairs = {}
    for d in range(k):
        pairs[d] = []
        for _ in range(int(rng.integers(0, 4))):
            birth = float(rng.choice([0.0, 1.0, 1.5, 2.0, rng.uniform(0.5, 3)]))
            r = rng.random()
            if r < 0.2:
                death = INF
            elif r < 0.4 and alpha_max is not None:
                death = alpha_max
            else:
                death = birth + float(rng.choice([0.0, 0.5, 1.0, 1.25, rng.uniform(0.01, 4)]))
            pairs[d].append((birth, death))
    return dgm(pairs, k=k, alpha_max=alpha_max)


def test_match_and_equal_agree_with_brute_force():
    rng = np.random.default_rng(11)
    decided = set()
    for _ in range(400):
        k = int(rng.integers(1, 3))
        a = random_diagram(rng, k, rng.choice([None, 4.0, INF]))
        b = random_diagram(rng, k, rng.choice([None, 4.0, 2.5]))
        c = float(rng.choice([1.0, 1.25, 1.5, 2.0, 3.0, rng.uniform(1, 3)]))
        res = multiplicative_match(a, b, c)
        assert res.ok == brute_match(a, b, c)
        decided.add(res.ok)
        if res.ok:
            for d, i, j in res.matching:
                if i is None:
                    assert diagonal_ok(b.in_dim(d)[j], c, 1e-12)
                elif j is None:
                    assert diagonal_ok(a.in_dim(d)[i], c, 1e-12)
                else:
                    assert compatible(a.in_dim(d)[i], b.in_dim(d)[j], c, 1e-12)
            for d in range(k):
                entries = [e for e in res.matching if e[0] == d]
                assert sorted(i for _, i, _ in entries if i is not None) == \
                    list(range(len(a.in_dim(d))))
                assert sorted(j for _, _, j in entries if j is not None) == \
                    list(range(len(b.in_dim(d))))
        else:
            d, side, index, pair = res.witness
            assert (a if side == "a" else b).in_dim(d)[index] == pair
        # equality: a against a jittered copy of itself, and against b
        jitter = dgm({d: [(x * (1 + 1e-13 * rng.random()), y)
                          for x, y in a.in_dim(d)] for d in range(k)}, k=k)
        for tol in (1e-9, 0.0):
            assert diagram_equal(a, jitter, tol) == brute_equal(a, jitter, tol)
            assert diagram_equal(a, b, tol) == brute_equal(a, b, tol)
    assert decided == {True, False}
