import numpy as np
import pytest
from scipy.spatial.distance import cdist

from sparse_rips import (OracleSizeError, WeightContext, betti_numbers,
                         check_net_conditions, compute_persistence, from_matrix,
                         from_points, full_rips, multiplicative_match, net_at,
                         relaxed_rips, run_battery, static_complex)
from sparse_rips.metric import MetricInput
from sparse_rips.verify import (CheckResult, check_betti, check_c_approximation,
                                check_diagram_equality, check_interleaving,
                                check_nets)


def test_battery_passes_on_random_instance():
    rng = np.random.default_rng(71)
    m = from_points(rng.random((20, 2)))
    results = run_battery(m, 1.0 / 3.0, k=2, samples=16, seed=3)
    assert len(results) == 5
    for r in results:
        assert r.ok, r.line()
        assert r.line().startswith("PASS")


def test_battery_guard_refuses_large_instances():
    rng = np.random.default_rng(72)
    m = from_points(rng.random((65, 2)))
    with pytest.raises(OracleSizeError):
        run_battery(m, 0.25)


def test_individual_checks_on_explicit_context():
    rng = np.random.default_rng(73)
    m = from_points(rng.random((15, 3)))
    ctx = WeightContext.build(m, 0.1)
    assert check_interleaving(m, ctx, n_pairs=50,
                              rng=np.random.default_rng(1)).ok
    assert check_nets(m, ctx, samples=8, rng=np.random.default_rng(2)).ok
    assert check_betti(m, ctx, k=2, samples=4,
                       rng=np.random.default_rng(3)).ok
    assert check_diagram_equality(m, ctx, k=2).ok
    assert check_c_approximation(m, ctx, k=2).ok


def test_failing_check_reports_witness():
    import math
    from sparse_rips.greedy import DeletionSchedule
    rng = np.random.default_rng(74)
    m = from_points(rng.random((25, 2)))
    good = WeightContext.build(m, 1.0 / 3.0)
    bad = WeightContext(epsilon=good.epsilon,
                        schedule=DeletionSchedule(epsilon=good.epsilon,
                                                  t=good.schedule.t / 2.0),
                        metric=m)
    r = check_nets(m, bad, samples=64, rng=np.random.default_rng(4))
    assert not r.ok
    assert "FAIL" in r.line()
    assert "point" in r.detail or "pair" in r.detail


def test_interleaving_reads_sampled_distances_without_a_matrix(monkeypatch):
    # each sampled pair reads one distance, equal to the cdist entry, and the
    # result is the one the dense matrix gave
    pts = np.random.default_rng(75).random((30, 3))
    cases = [(from_points(pts, kind), cdist(pts, pts, metric=metric))
             for kind, metric in (("euclidean", "euclidean"), ("manhattan", "cityblock"),
                                  ("chebyshev", "chebyshev"))]
    cases.append((from_matrix(cdist(pts, pts)), cdist(pts, pts)))
    contexts = [(WeightContext.build(m, eps), dense) for m, dense in cases
                for eps in (0.1, 1.0 / 3.0)]
    read = []

    def refuse(self):
        raise AssertionError("an n x n matrix was built")

    def recorded(self, i, j):
        read.append((i, j, distance(self, i, j)))
        return read[-1][2]

    distance = MetricInput.distance
    monkeypatch.setattr(MetricInput, "distance_matrix", refuse)
    monkeypatch.setattr(MetricInput, "distance", recorded)
    for ctx, dense in contexts:
        read.clear()
        got = check_interleaving(ctx.metric, ctx, rng=np.random.default_rng(6))
        assert got == CheckResult("interleaving", True, "100 pairs, exact rational arithmetic")
        assert len(read) == 100
        assert all(i != j and d == dense[i, j] for i, j, d in read)


def test_battery_builds_the_sparse_filtration_once(monkeypatch):
    # the diagram-equality and c-approximation checks share one sparse build,
    # and the battery's results are those of the five public checks
    import sparse_rips.verify as verify
    builds = []

    def counted(*args):
        builds.append(args)
        return build(*args)

    build = verify.build_sparse_from_context
    monkeypatch.setattr(verify, "build_sparse_from_context", counted)
    m = from_points(np.random.default_rng(76).random((18, 2)))
    results = run_battery(m, 0.25, k=2, samples=8, seed=5)
    assert len(builds) == 1
    ctx = WeightContext.build(m, 0.25, seed=5)
    rng = np.random.default_rng(5)
    assert results == [check_interleaving(m, ctx, n_pairs=100, rng=rng),
                       check_nets(m, ctx, samples=8, rng=rng),
                       check_betti(m, ctx, k=2, samples=4, rng=rng),
                       check_diagram_equality(m, ctx, k=2),
                       check_c_approximation(m, ctx, k=2)]


NAN = float("nan")
#: each scale guard of the references and checks, given NaN, and its message
NAN_SCALES = {
    "full_rips": (lambda m, ctx: full_rips(m, NAN, 2), "alpha_max must be positive"),
    "relaxed_rips": (lambda m, ctx: relaxed_rips(m, ctx, NAN, 2),
                     "alpha_max must be positive"),
    "static_complex": (lambda m, ctx: static_complex(m, ctx, NAN, "Q_open", 2),
                       "alpha must be nonnegative"),
    "net_at": (lambda m, ctx: net_at(ctx.schedule, NAN), "alpha must be nonnegative"),
    "check_net_conditions": (lambda m, ctx: check_net_conditions(m, ctx.schedule, NAN),
                             "alpha must be nonnegative"),
    "multiplicative_match": (lambda m, ctx: multiplicative_match(
        *[compute_persistence(full_rips(m, 1.0, 2))] * 2, NAN),
        "factor must be a finite number >= 1, got nan"),
}


@pytest.mark.parametrize("call", sorted(NAN_SCALES))
def test_a_nan_scale_is_refused(call):
    # a guard written as "x < 0" lets NaN through: every comparison with it is false
    m = from_points(np.random.default_rng(73).random((8, 2)))
    ctx = WeightContext.build(m, 0.25)
    run, message = NAN_SCALES[call]
    with pytest.raises(ValueError) as exc:
        run(m, ctx)
    assert str(exc.value) == message


def test_an_infinite_scale_is_the_empty_net():
    # no point is deleted after inf: the net and the snapshot there are empty,
    # and the net check, which measures distances to the net, refuses the scale
    m = from_points(np.random.default_rng(73).random((20, 2)))
    ctx = WeightContext.build(m, 1 / 3)
    assert net_at(ctx.schedule, float("inf")).tolist() == []
    q = static_complex(m, ctx, float("inf"), "Q_open", 2)
    assert len(q) == 0 and betti_numbers(q) == [0, 0]
    with pytest.raises(ValueError, match="^alpha must be finite$"):
        check_net_conditions(m, ctx.schedule, float("inf"))
