import io
import math
import os
import stat

import numpy as np
import pytest

from sparse_rips import (DeletionSchedule, check_net_conditions, deletion_times,
                         from_matrix, from_points, greedy_permutation, net_at,
                         schedule_to_csv)


def brute_greedy(dmat, seed):
    """Farthest-point order by exhaustive search (oracle)."""
    n = dmat.shape[0]
    order = [seed]
    radii = [math.inf]
    while len(order) < n:
        rest = [i for i in range(n) if i not in order]
        best, best_d = None, -1.0
        for i in rest:
            d = min(dmat[i, j] for j in order)
            if d > best_d:  # ties keep the smallest index (rest is sorted)
                best, best_d = i, d
        order.append(best)
        radii.append(best_d)
    return order, radii


def test_four_point_line():
    m = from_points([[0.0], [1.0], [2.0], [4.0]])
    gp = greedy_permutation(m, seed=0)
    assert gp.order.tolist() == [0, 3, 2, 1]
    assert gp.insertion_radius.tolist() == [math.inf, 4.0, 2.0, 1.0]


def test_single_point():
    m = from_points([[0.0]])
    gp = greedy_permutation(m)
    assert gp.order.tolist() == [0]
    assert math.isinf(gp.insertion_radius[0])


def test_two_points():
    m = from_points([[0.0], [7.0]])
    gp = greedy_permutation(m, seed=0)
    assert gp.insertion_radius.tolist() == [math.inf, 7.0]


def test_seed_out_of_range():
    m = from_points([[0.0], [1.0]])
    with pytest.raises(IndexError):
        greedy_permutation(m, seed=2)


def test_matches_brute_force_oracle():
    rng = np.random.default_rng(11)
    for _ in range(10):
        n = int(rng.integers(2, 20))
        m = from_points(rng.random((n, 2)))
        seed = int(rng.integers(0, m.n))
        gp = greedy_permutation(m, seed=seed)
        order, radii = brute_greedy(m.distance_matrix(), seed)
        assert gp.order.tolist() == order
        assert gp.insertion_radius.tolist() == pytest.approx(radii)


@pytest.mark.parametrize("kind", ["euclidean", "manhattan", "chebyshev"])
def test_matches_brute_force_oracle_every_kernel_and_tie_grids(kind):
    rng = np.random.default_rng(["euclidean", "manhattan", "chebyshev"].index(kind))
    grids = [np.array([(x, y) for x in range(4) for y in range(4)], dtype=float),
             np.array([(x, y, z) for x in range(3) for y in range(2) for z in range(3)],
                      dtype=float),
             np.arange(9, dtype=float).reshape(-1, 1)]
    randoms = [rng.normal(size=(int(rng.integers(2, 20)), int(rng.integers(1, 6))))
               for _ in range(10)]
    for pts in grids + randoms:
        m = from_points(pts, metric_kind=kind)
        for seed in sorted({0, m.n // 2, m.n - 1}):
            gp = greedy_permutation(m, seed=seed)
            order, radii = brute_greedy(m.distance_matrix(), seed)
            assert gp.order.tolist() == order
            assert gp.insertion_radius.tolist() == radii


def test_matches_brute_force_oracle_on_an_explicit_matrix():
    pts = np.array([(x, y) for x in range(3) for y in range(3)], dtype=float)
    m = from_matrix(np.abs(pts[:, None] - pts[None, :]).sum(axis=2))
    gp = greedy_permutation(m, seed=4)
    order, radii = brute_greedy(m.distance_matrix(), 4)
    assert (gp.order.tolist(), gp.insertion_radius.tolist()) == (order, radii)


def test_radii_non_increasing_and_covering():
    rng = np.random.default_rng(12)
    m = from_points(rng.random((40, 3)))
    gp = greedy_permutation(m)
    lam = gp.insertion_radius
    assert all(lam[i] >= lam[i + 1] for i in range(1, len(lam) - 1))
    # every point is within the next insertion radius of the current prefix
    dmat = m.distance_matrix()
    for i in range(m.n - 1):
        prefix = gp.order[: i + 1]
        cover = dmat[:, prefix].min(axis=1).max()
        assert cover <= lam[i + 1] + 1e-15


def test_deletion_times_formula():
    m = from_points([[0.0], [1.0], [2.0], [4.0]])
    gp = greedy_permutation(m, seed=0)
    s = deletion_times(gp, 1.0 / 3.0)
    # epsilon (1 - 2 epsilon) = 1/9, so t = 9 * insertion radius, by point index
    assert s.t[0] == math.inf
    assert s.t[3] == pytest.approx(36.0)
    assert s.t[2] == pytest.approx(18.0)
    assert s.t[1] == pytest.approx(9.0)


@pytest.mark.parametrize("eps", [0.0, -0.1, 0.4, 0.5])
def test_deletion_times_epsilon_validation(eps):
    m = from_points([[0.0], [1.0]])
    gp = greedy_permutation(m)
    with pytest.raises(ValueError):
        deletion_times(gp, eps)


def test_net_at_boundaries():
    s = DeletionSchedule(epsilon=1.0 / 3.0,
                         t=np.array([math.inf, 36.0, 18.0, 9.0]))
    assert net_at(s, 10.0).tolist() == [0, 1, 2]
    assert net_at(s, 0.0).tolist() == [0, 1, 2, 3]
    assert net_at(s, 9.0).tolist() == [0, 1, 2]
    assert net_at(s, 9.0, closed=True).tolist() == [0, 1, 2, 3]


def test_net_is_prefix_of_greedy_order():
    rng = np.random.default_rng(13)
    m = from_points(rng.random((30, 2)))
    gp = greedy_permutation(m)
    s = deletion_times(gp, 0.25)
    for alpha in rng.uniform(0, s.t[np.isfinite(s.t)].max() * 1.2, size=12):
        net = set(net_at(s, float(alpha)).tolist())
        assert net == set(gp.order[: len(net)].tolist())


def test_check_net_conditions_hand_example():
    m = from_points([[0.0], [1.0], [2.0], [4.0]])
    s = deletion_times(greedy_permutation(m, seed=0), 1.0 / 3.0)
    rep = check_net_conditions(m, s, 10.0)
    # net {0, 2, 4}: point 1 at distance 1 <= 10/9; min pairwise 2 >= 10/9
    assert rep.cover_ok and rep.pack_ok
    assert rep.worst_cover == pytest.approx(1.0)
    assert rep.worst_cover_point == 1
    assert rep.worst_pack == pytest.approx(2.0)


def test_check_net_conditions_alpha_zero():
    m = from_points([[0.0], [1.0], [5.0]])
    s = deletion_times(greedy_permutation(m), 0.2)
    rep = check_net_conditions(m, s, 0.0)
    assert rep.cover_ok and rep.pack_ok
    assert rep.bound == 0.0


def test_net_conditions_random_instances():
    rng = np.random.default_rng(14)
    for eps in (0.1, 0.25, 1.0 / 3.0):
        for _ in range(5):
            m = from_points(rng.random((30, 2)))
            s = deletion_times(greedy_permutation(m), eps)
            hi = s.t[np.isfinite(s.t)].max() * 1.5
            for alpha in rng.uniform(0, hi, size=8):
                rep = check_net_conditions(m, s, float(alpha))
                assert rep.cover_ok, rep
                assert rep.pack_ok, rep


def test_sabotaged_schedule_fails_covering_with_witness():
    rng = np.random.default_rng(15)
    m = from_points(rng.random((40, 2)))
    s = deletion_times(greedy_permutation(m), 1.0 / 3.0)
    halved = DeletionSchedule(epsilon=s.epsilon, t=s.t / 2.0)
    hi = s.t[np.isfinite(s.t)].max() * 2.0
    failures = [check_net_conditions(m, halved, float(a))
                for a in rng.uniform(0.01, hi, size=64)]
    bad = [r for r in failures if not r.cover_ok]
    assert bad, "halving deletion times must break covering somewhere"
    assert all(0 <= r.worst_cover_point < m.n for r in bad)
    assert all(r.worst_cover > r.bound for r in bad)


def test_strengthened_covering():
    # for every p with t_p <= alpha there is q with t_q >= alpha / (1 - 2 eps)
    # and d(p, q) <= eps * alpha
    rng = np.random.default_rng(16)
    for eps in (0.1, 1.0 / 3.0):
        m = from_points(rng.random((30, 2)))
        s = deletion_times(greedy_permutation(m), eps)
        dmat = m.distance_matrix()
        hi = s.t[np.isfinite(s.t)].max() * 1.2
        for alpha in rng.uniform(0.01, hi, size=10):
            strong = np.flatnonzero(s.t >= alpha / (1 - 2 * eps))
            for p in np.flatnonzero(s.t <= alpha):
                assert dmat[p, strong].min() <= eps * alpha + 1e-12


def test_schedule_csv_export(tmp_path):
    m = from_points([[0.0], [1.0], [2.0], [4.0]])
    gp = greedy_permutation(m, seed=0)
    s = deletion_times(gp, 1.0 / 3.0)
    out = tmp_path / "schedule.csv"
    schedule_to_csv(gp, s, out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "index,greedy_position,insertion_radius,deletion_time"
    assert lines[1] == "0,0,inf,inf"
    row3 = lines[4].split(",")
    assert row3[0] == "3" and row3[1] == "1"
    assert float(row3[2]) == 4.0 and float(row3[3]) == 36.0


class FullDisk(io.BufferedWriter):
    """A new file that takes the first 20 bytes, then finds the disk full."""

    def writelines(self, chunks):
        self.write(b"".join(chunks)[:20])
        self.flush()
        raise OSError(28, "No space left on device")


def test_a_failed_schedule_write_leaves_the_old_file_and_no_temporary(tmp_path, monkeypatch):
    m = from_points([[0.0], [1.0], [2.0], [4.0]])
    gp = greedy_permutation(m, seed=0)
    s = deletion_times(gp, 1.0 / 3.0)
    out = tmp_path / "schedule.csv"
    out.write_bytes(b"index,greedy_position\r\nan older schedule\n")
    monkeypatch.setattr(os, "fdopen", lambda fd, mode: FullDisk(io.FileIO(fd, "w")))
    with pytest.raises(OSError, match="No space left on device"):
        schedule_to_csv(gp, s, out)
    monkeypatch.undo()
    assert out.read_bytes() == b"index,greedy_position\r\nan older schedule\n"
    assert os.listdir(tmp_path) == ["schedule.csv"]


def test_the_schedule_replaces_a_symlink_and_gets_the_mode_of_the_umask(tmp_path):
    m = from_points([[0.0], [1.0], [2.0], [4.0]])
    gp = greedy_permutation(m, seed=0)
    s = deletion_times(gp, 1.0 / 3.0)
    target, out, plain = tmp_path / "target.csv", tmp_path / "schedule.csv", tmp_path / "plain.csv"
    target.write_bytes(b"not to be written through\n")
    out.symlink_to(target)
    old = os.umask(0o027)
    try:
        schedule_to_csv(gp, s, out)
        schedule_to_csv(gp, s, plain)
    finally:
        os.umask(old)
    assert target.read_bytes() == b"not to be written through\n"
    assert not out.is_symlink() and out.read_bytes() == plain.read_bytes()
    assert out.read_bytes().startswith(b"index,greedy_position,insertion_radius,deletion_time\n")
    assert stat.S_IMODE(out.stat().st_mode) == 0o640
    assert sorted(os.listdir(tmp_path)) == ["plain.csv", "schedule.csv", "target.csv"]
