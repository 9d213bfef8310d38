import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparse_rips import (WeightContext, deletion_times, from_points,
                         greedy_permutation, pair_birth, pair_birth_batch,
                         pair_relaxed_distance, point_weight, weight_batch)

INF = math.inf


def bisect_birth(d, tp, tq, eps, iters=200):
    """Monotone bisection oracle for the earliest scale with g(alpha) >= d."""
    def g(a):
        return a - point_weight(a, tp, eps) - point_weight(a, tq, eps)

    hi = 1.0
    while g(hi) < d:
        hi *= 2.0
    lo = 0.0
    for _ in range(iters):
        mid = (lo + hi) / 2.0
        if g(mid) >= d:
            hi = mid
        else:
            lo = mid
    return hi


def ctx_for(m, eps, seed=0):
    return WeightContext.build(m, eps, seed=seed)


# --- weight ---------------------------------------------------------------

def test_weight_branch_values():
    eps = 1.0 / 3.0
    assert point_weight(3.0, 9.0, eps) == 0.0
    assert point_weight(6.0, 9.0, eps) == pytest.approx(1.5)
    assert point_weight(9.0, 9.0, eps) == pytest.approx(3.0)
    # middle branch limit at the breakpoint equals the third branch
    assert point_weight(9.0 - 1e-12, 9.0, eps) == pytest.approx(3.0, abs=1e-9)
    # infinite deletion time: weight identically 0
    assert point_weight(1e12, INF, eps) == 0.0


@given(
    eps=st.fractions(min_value=Fraction(1, 100), max_value=Fraction(1, 3)),
    t=st.fractions(min_value=0, max_value=100),
    a=st.fractions(min_value=0, max_value=200),
    b=st.fractions(min_value=0, max_value=200),
)
@settings(max_examples=200, deadline=None)
def test_weight_lipschitz_and_bounds_exact(eps, t, a, b):
    wa = point_weight(a, t, eps)
    wb = point_weight(b, t, eps)
    assert abs(wa - wb) * 2 <= abs(a - b)          # 1/2-Lipschitz
    assert 0 <= wa <= eps * a                       # pinched between 0 and eps alpha


@given(
    eps=st.fractions(min_value=Fraction(1, 100), max_value=Fraction(1, 3)),
    t=st.fractions(min_value=Fraction(1, 10), max_value=100),
)
@settings(max_examples=100, deadline=None)
def test_weight_continuous_at_breakpoints_exact(eps, t):
    lo = (1 - 2 * eps) * t
    assert point_weight(lo, t, eps) == 0
    assert (t - lo) / 2 == eps * t  # middle-branch limit equals third branch


# --- relaxed distance -----------------------------------------------------

def test_relaxed_distance_examples():
    eps = 1.0 / 3.0
    assert pair_relaxed_distance(5.0, 9.0, INF, eps, 0.0) == pytest.approx(5.0)
    assert pair_relaxed_distance(5.0, 9.0, INF, eps, 6.0) == pytest.approx(6.5)
    assert pair_relaxed_distance(5.0, 9.0, 9.0, eps, 12.0) == pytest.approx(5.0 + 4.0 + 4.0)


@given(
    eps=st.fractions(min_value=Fraction(1, 100), max_value=Fraction(1, 3)),
    tp=st.fractions(min_value=Fraction(1, 10), max_value=50),
    tq=st.fractions(min_value=Fraction(1, 10), max_value=50),
    d=st.fractions(min_value=0, max_value=50),
    a=st.fractions(min_value=0, max_value=100),
    b=st.fractions(min_value=0, max_value=100),
)
@settings(max_examples=200, deadline=None)
def test_relaxed_distance_monotone_and_dominates_exact(eps, tp, tq, d, a, b):
    da = pair_relaxed_distance(d, tp, tq, eps, a)
    db = pair_relaxed_distance(d, tp, tq, eps, b)
    assert da >= d
    if a <= b:
        assert da <= db
    # once satisfied, the edge condition persists
    if da <= a and a <= b:
        assert db <= b


@given(
    eps=st.fractions(min_value=Fraction(1, 100), max_value=Fraction(1, 3)),
    tp=st.fractions(min_value=Fraction(1, 10), max_value=50),
    tq=st.fractions(min_value=Fraction(1, 10), max_value=50),
    d=st.fractions(min_value=Fraction(1, 1000), max_value=50),
    a=st.fractions(min_value=0, max_value=100),
)
@settings(max_examples=200, deadline=None)
def test_interleaving_edge_form_exact(eps, tp, tq, d, a):
    rel = pair_relaxed_distance(d, tp, tq, eps, a)
    if d <= (1 - 2 * eps) * a:
        assert rel <= a
    if rel <= a:
        assert d <= a


# --- edge birth -----------------------------------------------------------

def test_edge_birth_examples():
    eps = 1.0 / 3.0
    # weights identically zero: birth equals the distance
    assert pair_birth(5.0, INF, INF, eps) == pytest.approx(5.0)
    # one finite deletion time, middle-branch crossing
    assert pair_birth(5.0, 9.0, INF, eps) == pytest.approx(7.0, abs=1e-12)
    # crossing on the identity piece
    assert pair_birth(2.0, 9.0, INF, eps) == pytest.approx(2.0, abs=1e-12)


def test_edge_birth_exact_fraction():
    eps = Fraction(1, 3)
    assert pair_birth(Fraction(5), Fraction(9), INF, eps) == 7
    assert pair_birth(Fraction(2), Fraction(9), INF, eps) == 2
    # both points past their deletion times: birth = d / (1 - 2 eps)
    assert pair_birth(Fraction(50), Fraction(9), Fraction(9), eps) == 150


def test_edge_birth_flat_piece_leftmost():
    # both weights in the slope-1/2 regime make g locally constant;
    # with tp = tq = t the flat level is (1 - 2 eps) t at [(1-2eps)t, t]
    eps = Fraction(1, 4)
    t = Fraction(8)
    d = (1 - 2 * eps) * t  # g equals d on the whole flat piece
    assert pair_birth(d, t, t, eps) == d  # leftmost scale attaining equality


def test_edge_birth_cap():
    # the birth lies past the deletion time t_p = 9
    eps = 1.0 / 3.0
    assert pair_birth(20.0, 9.0, INF, eps) == pytest.approx(30.0)


def test_edge_birth_agrees_with_bisection_oracle():
    rng = np.random.default_rng(21)
    for _ in range(300):
        eps = float(rng.uniform(0.01, 1.0 / 3.0))
        d = float(rng.uniform(1e-3, 20.0))
        tp = INF if rng.random() < 0.2 else float(rng.uniform(0.05, 30.0))
        tq = INF if rng.random() < 0.2 else float(rng.uniform(0.05, 30.0))
        got = pair_birth(d, tp, tq, eps)
        expect = bisect_birth(d, tp, tq, eps)
        assert got == pytest.approx(expect, abs=1e-12, rel=1e-12)


def test_birth_minimality_exact():
    # at the birth scale the condition holds; slightly before it does not
    rng = np.random.default_rng(22)
    eps = Fraction(1, 5)
    for _ in range(50):
        d = Fraction(float(rng.uniform(0.01, 10.0)))
        tp = Fraction(float(rng.uniform(0.05, 12.0)))
        tq = INF if rng.random() < 0.3 else Fraction(float(rng.uniform(0.05, 12.0)))
        b = pair_birth(d, tp, tq, eps)
        assert pair_relaxed_distance(d, tp, tq, eps, b) <= b
        before = b * Fraction(999999, 1000000)
        if before < b:
            assert pair_relaxed_distance(d, tp, tq, eps, before) > before


def test_batch_matches_scalar_bitwise():
    rng = np.random.default_rng(23)
    size = 500
    eps = 0.17
    d = rng.uniform(1e-3, 15.0, size)
    tp = np.where(rng.random(size) < 0.25, INF, rng.uniform(0.05, 25.0, size))
    tq = np.where(rng.random(size) < 0.25, INF, rng.uniform(0.05, 25.0, size))
    batch = pair_birth_batch(d, tp, tq, eps)
    scalar = np.array([pair_birth(float(a), float(b), float(c), eps)
                       for a, b, c in zip(d, tp, tq)])
    assert np.array_equal(batch, scalar)


def test_weight_batch_matches_scalar():
    rng = np.random.default_rng(24)
    eps = 0.3
    t = np.where(rng.random(200) < 0.2, INF, rng.uniform(0.01, 10.0, 200))
    alpha = rng.uniform(0, 12.0, 200)
    batch = weight_batch(alpha, t, eps)
    scalar = np.array([point_weight(float(a), float(tv), eps)
                       for a, tv in zip(alpha, t)])
    assert np.array_equal(batch, scalar)


def test_weight_context_validation():
    m = from_points([[0.0], [1.0]])
    s = deletion_times(greedy_permutation(m), 0.2)
    with pytest.raises(ValueError):
        WeightContext(epsilon=0.5, schedule=s, metric=m)


def test_weight_context_rejects_a_schedule_for_another_epsilon_or_n():
    m = from_points([[0.0], [1.0], [3.0]])
    gp = greedy_permutation(m)
    with pytest.raises(ValueError, match=r"epsilon=0\.05, n=3 does not fit epsilon=0\.2, n=3"):
        WeightContext(epsilon=0.2, schedule=deletion_times(gp, 0.05), metric=m)
    other = from_points([[0.0], [1.0]])
    with pytest.raises(ValueError, match=r"epsilon=0\.2, n=3 does not fit epsilon=0\.2, n=2"):
        WeightContext(epsilon=0.2, schedule=deletion_times(gp, 0.2), metric=other)
    WeightContext(epsilon=0.2, schedule=deletion_times(gp, 0.2), metric=m)


def test_context_build_pipeline():
    rng = np.random.default_rng(25)
    m = from_points(rng.random((10, 2)))
    ctx = ctx_for(m, 0.25)
    # relaxed distance at scale 0 is the metric
    for _ in range(20):
        i, j = (int(x) for x in rng.integers(0, m.n, 2))
        if i != j:
            t = ctx.schedule.t
            assert pair_relaxed_distance(m.distance(i, j), t[i], t[j],
                                         ctx.epsilon, 0.0) == m.distance(i, j)
