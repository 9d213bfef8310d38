"""Acceptance battery.

Each test exercises one advertised guarantee end to end at its stated
tolerance and prints one PASS/FAIL line.  Run with ``pytest -s
tests/test_acceptance.py`` to see the per-criterion lines.
"""

import math
import time
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

import sparse_rips as sr

from filtration_helpers import simplices

INF = math.inf


def report(num, ok, detail):
    print(f"ACCEPTANCE {num} {'PASS' if ok else 'FAIL'}: {detail}")


# --- independent oracles ---------------------------------------------------

def oracle_weight(alpha, t, eps):
    """Piecewise weight, written out independently in rational arithmetic."""
    if t == INF:
        return Fraction(0)
    lo = (1 - 2 * eps) * t
    hi = t
    if alpha <= lo:
        return Fraction(0)
    if alpha >= hi:
        return eps * alpha
    return (alpha - lo) / 2


def oracle_relaxed(d, tp, tq, eps, alpha):
    return d + oracle_weight(alpha, tp, eps) + oracle_weight(alpha, tq, eps)


def naive_diagram(f, keep_zero_pairs=False):
    """Dense GF(2) reduction, single pass in filtration order, no clearing."""
    sims = simplices(f)
    n = len(sims)
    index = {verts: i for i, (verts, _) in enumerate(sims)}
    R = np.zeros((n, n), dtype=np.uint8)
    for j, (verts, _) in enumerate(sims):
        for v in range(len(verts)) if len(verts) > 1 else []:
            face = verts[:v] + verts[v + 1:]
            R[index[face], j] = 1
    pivot_of_row, pivots = {}, {}
    for j in range(n):
        while R[:, j].any():
            low = int(np.flatnonzero(R[:, j]).max())
            if low not in pivot_of_row:
                pivot_of_row[low] = j
                pivots[j] = low
                break
            R[:, j] ^= R[:, pivot_of_row[low]]
    pairs = {d: [] for d in range(f.k)}
    for j, low in pivots.items():
        d = len(sims[low][0]) - 1
        if d < f.k:
            b, dth = sims[low][1], sims[j][1]
            if b != dth or keep_zero_pairs:
                pairs[d].append((b, dth))
    for j in range(n):
        if j not in pivots and j not in pivot_of_row and len(sims[j][0]) - 1 < f.k:
            pairs[len(sims[j][0]) - 1].append((sims[j][1], INF))
    for d in pairs:
        pairs[d].sort()
    return sr.PersistenceDiagram(pairs=pairs, k=f.k, alpha_max=f.alpha_max)


def exact_context(m, eps_exact, seed=0):
    """Deletion times as exact rationals from the float greedy radii."""
    gp = sr.greedy_permutation(m, seed=seed)
    scale = eps_exact * (1 - 2 * eps_exact)
    t = {}
    for pos, p in enumerate(gp.order.tolist()):
        lam = gp.insertion_radius[pos]
        t[p] = INF if math.isinf(lam) else Fraction(float(lam)) / scale
    return t


def charged_degree(births, t, caps):
    """max_p #{q != p : t_q >= t_p and births[p, q] <= caps[p]}."""
    keep = (births <= caps[:, None]) & (t[None, :] >= t[:, None])
    np.fill_diagonal(keep, False)
    return int(keep.sum(axis=1).max())


# --- criteria ---------------------------------------------------------------

def test_criterion_1_interleaving_exact():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    eps_values = [Fraction(1, 10), Fraction(1, 4), Fraction(1, 3)]
    pairs_checked = 0
    for inst in range(10):
        m = sr.from_points(rng.random((20, 2)))
        eps = eps_values[inst % 3]
        t = exact_context(m, eps)
        dmat = m.distance_matrix()
        for _ in range(10):
            i = int(rng.integers(0, m.n))
            j = (i + 1 + int(rng.integers(0, m.n - 1))) % m.n
            d = Fraction(float(dmat[i, j]))
            ti, tj = t[i], t[j]
            # premise boundary: d = (1 - 2 eps) alpha exactly
            alpha = d / (1 - 2 * eps)
            assert oracle_relaxed(d, ti, tj, eps, alpha) <= alpha
            # larger alpha keeps the premise and the conclusion
            alpha2 = alpha * Fraction(17, 16)
            assert oracle_relaxed(d, ti, tj, eps, alpha2) <= alpha2
            # reverse direction at the implementation's exact birth scale
            b = sr.pair_birth(d, ti, tj, eps)
            assert oracle_relaxed(d, ti, tj, eps, b) <= b
            assert d <= b
            # and the oracle confirms the weights used by the implementation
            assert sr.point_weight(alpha, ti, eps) == oracle_weight(alpha, ti, eps)
            pairs_checked += 1
    elapsed = time.perf_counter() - t0
    report(1, True, f"interleaving exact on {pairs_checked} pairs "
                    f"({elapsed:.2f}s)")
    assert pairs_checked == 100
    assert elapsed < 1.0


def test_criterion_2_net_conditions():
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    eps_values = [0.1, 0.25, 1.0 / 3.0]
    failures = 0
    for inst in range(10):
        m = sr.from_points(rng.random((50, 2)))
        eps = eps_values[inst % 3]
        s = sr.deletion_times(sr.greedy_permutation(m), eps)
        hi = s.t[np.isfinite(s.t)].max() * 1.2
        for alpha in rng.uniform(0.0, hi, size=16):
            rep = sr.check_net_conditions(m, s, float(alpha))
            if not (rep.cover_ok and rep.pack_ok):
                failures += 1
    elapsed = time.perf_counter() - t0
    report(2, failures == 0,
           f"net covering/packing, 10 instances x 16 scales, "
           f"{failures} failures ({elapsed:.2f}s)")
    assert failures == 0
    assert elapsed < 1.0


def test_criterion_3_sparsification_preserves_homology():
    t0 = time.perf_counter()
    rng = np.random.default_rng(303)
    eps_values = [0.1, 1.0 / 3.0]
    mismatches = 0
    checked = 0
    for inst in range(20):
        n = int(rng.integers(6, 13))
        m = sr.from_points(rng.random((n, 2)))
        eps = eps_values[inst % 2]
        ctx = sr.WeightContext.build(m, eps)
        t = ctx.schedule.t
        hi = t[np.isfinite(t)].max() * 1.2
        drawn = 0
        while drawn < 8:
            alpha = float(rng.uniform(0.0, hi))
            if np.any(np.abs(t - alpha) < 1e-9):
                continue
            drawn += 1
            q = sr.static_complex(m, ctx, alpha, "Q_open", 3)
            r = sr.static_complex(m, ctx, alpha, "relaxed_full", 3)
            bq = sr.betti_numbers(q)[:2]
            br = sr.betti_numbers(r)[:2]
            checked += 1
            if bq != br:
                mismatches += 1
    elapsed = time.perf_counter() - t0
    report(3, mismatches == 0,
           f"betti equality on {checked} snapshots, {mismatches} mismatches "
           f"({elapsed:.2f}s)")
    assert mismatches == 0
    assert elapsed < 30.0


def _criterion45_instances():
    rng = np.random.default_rng(404)
    out = []
    for inst in range(10):
        n = int(rng.integers(8, 17))
        pts = rng.random((n, 2))
        for eps in (0.1, 1.0 / 3.0):
            out.append((sr.from_points(pts), eps))
    return out


def test_criterion_4_sparse_diagram_equals_relaxed():
    t0 = time.perf_counter()
    failures = 0
    for m, eps in _criterion45_instances():
        ctx = sr.WeightContext.build(m, eps)
        sparse = sr.build_sparse_from_context(m, ctx, 2)
        births = sr.birth_matrix(m, ctx)
        amax = float(births[np.isfinite(births)].max()) * 1.001
        relaxed = sr.relaxed_rips(m, ctx, amax, 2)
        ds = sr.compute_persistence(sparse)
        dr = sr.compute_persistence(relaxed)
        if not sr.diagram_equal(ds, dr, tol=1e-9):
            failures += 1
    elapsed = time.perf_counter() - t0
    report(4, failures == 0,
           f"sparse vs relaxed diagrams identical on 20 runs, "
           f"{failures} failures ({elapsed:.2f}s)")
    assert failures == 0
    assert elapsed < 60.0


def test_criterion_5_c_approximation_of_true_rips():
    t0 = time.perf_counter()
    failures = 0
    for m, eps in _criterion45_instances():
        c = 1.0 / (1.0 - 2.0 * eps)
        sparse = sr.build_sparse(m, eps, 2)
        diam = float(m.distance_matrix().max())
        rips = sr.full_rips(m, diam * 1.001, 2)
        ds = sr.compute_persistence(sparse)
        dr = sr.compute_persistence(rips)
        if not sr.multiplicative_match(ds, dr, c).ok:
            failures += 1
    elapsed = time.perf_counter() - t0
    report(5, failures == 0,
           f"1/(1-2eps)-approximation of the Rips diagram on 20 runs, "
           f"{failures} failures ({elapsed:.2f}s)")
    assert failures == 0
    assert elapsed < 60.0


def test_criterion_6_circle_recovery():
    t0 = time.perf_counter()
    rng = np.random.default_rng(606)
    theta = np.linspace(0.0, 2.0 * np.pi, 30, endpoint=False)
    r = 1.0 + rng.uniform(-0.05, 0.05, 30)
    pts = np.column_stack([r * np.cos(theta), r * np.sin(theta)])
    m = sr.from_points(pts)
    eps = 0.1
    sparse = sr.build_sparse(m, eps, 2)
    ds = sr.compute_persistence(sparse)
    prominent = [(b, d) for b, d in ds.in_dim(1)
                 if not math.isinf(d) and d / b >= 3.0]
    diam = float(m.distance_matrix().max())
    dr = sr.compute_persistence(sr.full_rips(m, diam * 1.001, 2))
    top = max(dr.in_dim(1), key=lambda p: p[1] / p[0])
    c = 1.0 / (1.0 - 2.0 * eps)
    ok = len(prominent) == 1
    (b, d) = prominent[0] if prominent else (1.0, 1.0)
    ratio_ok = (max(b, top[0]) / min(b, top[0]) <= c * (1 + 1e-12)
                and max(d, top[1]) / min(d, top[1]) <= c * (1 + 1e-12))
    elapsed = time.perf_counter() - t0
    report(6, ok and ratio_ok,
           f"one prominent loop (birth {b:.3f}, death {d:.3f}) vs full Rips "
           f"({top[0]:.3f}, {top[1]:.3f}) within factor {c:.3g} ({elapsed:.2f}s)")
    assert ok, f"expected exactly one H1 pair with death/birth >= 3, got {prominent}"
    assert ratio_ok
    assert elapsed < 10.0


def test_criterion_7_linear_size_scaling():
    t0 = time.perf_counter()
    eps_exact, k = Fraction(1, 10), 2
    eps = float(eps_exact)
    sizes = [250, 500, 1000, 2000]
    # Size theorem (charging/packing): charge each simplex to its vertex p
    # of earliest deletion.  Its other vertices q have t_q >= t_p, so
    # lambda_q >= lambda_p: they and p lie in a lambda_p-separated greedy
    # prefix, within d(p, q) <= birth <= t_p = lambda_p / (eps (1 - 2 eps))
    # of p.  Disjoint disks of radius lambda_p / 2 then fit at most
    # (1 + 2 / (eps (1 - 2 eps)))^2 such points into the Euclidean plane.
    # Exact arithmetic: the float expression floors to 675, not 676.
    packing = math.floor((1 + 2 / (eps_exact * (1 - 2 * eps_exact))) ** 2)
    degree_bound = packing - 1
    per_vertex = sum(math.comb(degree_bound, j) for j in range(k + 1))
    per_n, max_deg, worst_deg, uncapped = {}, {}, 0, {}
    for n in sizes:
        totals, degs = [], []
        for trial in range(5):
            rng = np.random.default_rng([707, n, trial])
            m = sr.from_points(rng.random((n, 2)))
            ctx = sr.WeightContext.build(m, eps)
            st = sr.sparse_size_stats(m, ctx, k)
            assert st.max_degree <= degree_bound, (
                f"n={n} trial={trial}: charged degree {st.max_degree} "
                f"exceeds the packing bound {degree_bound}")
            assert st.total <= n * per_vertex, (
                f"n={n} trial={trial}: {st.total} simplices exceed "
                f"n * {per_vertex}")
            if trial == 0 and n >= 1000:
                # negative control: without the deletion-time caps every
                # later-deleted point is a neighbor, and the bound breaks
                t = ctx.schedule.t
                births = sr.birth_matrix(m, ctx)
                assert charged_degree(births, t, t) == st.max_degree
                uncapped[n] = charged_degree(births, t, np.full(n, INF))
                assert uncapped[n] > degree_bound, (
                    f"n={n}: uncapped charged degree {uncapped[n]} does not "
                    f"exceed the bound {degree_bound}")
            totals.append(st.total)
            degs.append(st.max_degree)
        per_n[n] = float(np.mean(totals)) / n
        max_deg[n] = float(np.mean(degs))
        worst_deg = max(worst_deg, max(degs))
    elapsed = time.perf_counter() - t0
    report(7, True,
           f"charged degree <= {worst_deg} (bound {degree_bound}), "
           f"count/n <= {max(per_n.values()):.1f} (bound {per_vertex}), "
           f"uncapped control {uncapped}, "
           f"per-n counts {[round(per_n[n], 1) for n in sizes]}, "
           f"max degrees {[round(max_deg[n], 1) for n in sizes]} "
           f"({elapsed:.1f}s)")
    assert elapsed < 120.0


def test_criterion_8_degenerate_inputs():
    t0 = time.perf_counter()
    # single point: one infinite component bar
    m1 = sr.from_points([[0.0, 0.0]])
    d1 = sr.compute_persistence(sr.build_sparse(m1, 0.1, 2))
    assert d1.in_dim(0) == [(0.0, INF)] and d1.in_dim(1) == []

    # exact duplicates collapse, results match the deduplicated instance
    rng = np.random.default_rng(808)
    base = rng.random((10, 2))
    dup = np.vstack([base, base[3], base[7], base[0]])
    with pytest.warns(UserWarning, match="duplicate"):
        md = sr.from_points(dup)
    assert md.n == 10
    mc = sr.from_points(base)
    dd = sr.compute_persistence(sr.build_sparse(md, 0.25, 2))
    dc = sr.compute_persistence(sr.build_sparse(mc, 0.25, 2))
    assert sr.diagram_equal(dd, dc, tol=0.0)

    # collinear points run the whole pipeline without error
    ml = sr.from_points([[float(i), float(i)] for i in range(8)])
    results = sr.run_battery(ml, 1.0 / 3.0, k=2, samples=8, seed=0)
    assert all(r.ok for r in results)
    elapsed = time.perf_counter() - t0
    report(8, True, f"single point, duplicates, collinear all handled "
                    f"({elapsed:.2f}s)")
    assert elapsed < 1.0


def test_criterion_9_persistence_engine_vs_naive():
    t0 = time.perf_counter()
    rng = np.random.default_rng(909)
    compared = 0
    for _ in range(25):
        n = int(rng.integers(3, 8))
        if rng.random() < 0.3:  # integer grids force value ties
            pts = np.array([[i % 3, i // 3] for i in range(n)], dtype=float)
        else:
            pts = rng.random((n, 2))
        m = sr.from_points(pts)
        k = int(rng.integers(1, 4))
        f = sr.full_rips(m, float(rng.uniform(0.4, 1.8)), k)
        f = sr.SparseFiltration.from_simplices(simplices(f)[:40], k,
                                               f.kind, alpha_max=None)
        for keep in (False, True):
            got = sr.compute_persistence(f, keep_zero_pairs=keep)
            expect = naive_diagram(f, keep_zero_pairs=keep)
            assert got.pairs == expect.pairs, "engine disagrees with naive oracle"
        compared += 1
    elapsed = time.perf_counter() - t0
    report(9, True, f"clearing reduction matches naive reduction on "
                    f"{compared} filtrations ({elapsed:.2f}s)")
    assert compared == 25
    assert elapsed < 5.0
