"""Runtime verification battery.

Checks, on a concrete instance, the guarantees that make the sparse
construction trustworthy: the interleaving of the relaxed distance with
the input metric, the net covering/packing bounds, homology-rank
equality between the sparse snapshots and the relaxed reference, diagram
equality against the relaxed filtration, and the multiplicative
approximation of the true Vietoris-Rips diagram.

The interleaving check runs in exact rational arithmetic; everything
else compares quantities produced by exact closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .compare import diagram_equal, multiplicative_match
from .filtration import (build_sparse_from_context, full_rips, relaxed_rips,
                         static_complex)
from .metric import MetricInput
from .persistence import betti_numbers, compute_persistence
from .relaxed import WeightContext, pair_birth, pair_relaxed_distance
from .greedy import check_net_conditions

#: above this point count the reference filtrations get expensive
ORACLE_GUARD_N = 64


class OracleSizeError(RuntimeError):
    """Instance too large for the reference-filtration checks."""


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str

    def line(self) -> str:
        return f"{'PASS' if self.ok else 'FAIL'} {self.name}: {self.detail}"


def _exact_eps(epsilon: float) -> Fraction:
    # recognize 1/3 given as float; other values are exact binary floats
    if abs(epsilon - 1.0 / 3.0) < 1e-15:
        return Fraction(1, 3)
    return Fraction(epsilon)


def check_interleaving(m: MetricInput, ctx: WeightContext,
                       n_pairs: int = 100, rng=None) -> CheckResult:
    """Edge form of the interleaving, in exact rational arithmetic.

    For sampled pairs: d <= (1 - 2 eps) alpha implies relaxed distance
    <= alpha (checked at the boundary alpha = d / (1 - 2 eps)), and
    relaxed distance <= alpha implies d <= alpha (checked at the exact
    birth scale).  Also re-verifies the birth scale minimality.
    """
    rng = np.random.default_rng(0) if rng is None else rng
    n = m.n
    if n < 2:
        return CheckResult("interleaving", True, "fewer than 2 points, vacuous")
    eps = _exact_eps(ctx.epsilon)
    one_minus = 1 - 2 * eps
    t = ctx.schedule.t
    checked = 0
    for _ in range(n_pairs):
        i = int(rng.integers(0, n))
        j = int(rng.integers(0, n - 1))
        j = j + 1 if j >= i else j
        d = Fraction(m.distance(i, j))
        ti = math.inf if math.isinf(t[i]) else Fraction(float(t[i]))
        tj = math.inf if math.isinf(t[j]) else Fraction(float(t[j]))

        alpha = d / one_minus  # d == (1 - 2 eps) alpha exactly
        if pair_relaxed_distance(d, ti, tj, eps, alpha) > alpha:
            return CheckResult(
                "interleaving", False,
                f"d <= (1-2eps)alpha but relaxed > alpha for pair ({i},{j})")

        b = pair_birth(d, ti, tj, eps)
        if pair_relaxed_distance(d, ti, tj, eps, b) > b:
            return CheckResult(
                "interleaving", False,
                f"relaxed distance above scale at its own birth, pair ({i},{j})")
        if d > b:
            return CheckResult(
                "interleaving", False,
                f"relaxed edge before metric distance for pair ({i},{j})")
        checked += 1
    return CheckResult("interleaving", True,
                       f"{checked} pairs, exact rational arithmetic")


def check_nets(m: MetricInput, ctx: WeightContext, samples: int = 16,
               rng=None) -> CheckResult:
    """Covering and packing bounds at sampled scales, packing constant 1."""
    rng = np.random.default_rng(0) if rng is None else rng
    finite = ctx.schedule.t[np.isfinite(ctx.schedule.t)]
    hi = float(finite.max()) * 1.05 if len(finite) else 1.0
    for _ in range(samples):
        alpha = float(rng.uniform(0.0, hi))
        rep = check_net_conditions(m, ctx.schedule, alpha)
        if not rep.cover_ok:
            return CheckResult(
                "net-covering", False,
                f"alpha={alpha:.6g}: point {rep.worst_cover_point} at distance "
                f"{rep.worst_cover:.6g} > bound {rep.bound:.6g}")
        if not rep.pack_ok:
            return CheckResult(
                "net-packing", False,
                f"alpha={alpha:.6g}: pair {rep.worst_pack_pair} at distance "
                f"{rep.worst_pack:.6g} < bound {rep.bound:.6g}")
    return CheckResult("net-conditions", True,
                       f"{samples} scales, covering and packing hold")


def check_betti(m: MetricInput, ctx: WeightContext, k: int = 2,
                samples: int = 8, rng=None) -> CheckResult:
    """Betti numbers of the sparse snapshot vs the relaxed reference."""
    rng = np.random.default_rng(0) if rng is None else rng
    finite = ctx.schedule.t[np.isfinite(ctx.schedule.t)]
    hi = float(finite.max()) * 1.1 if len(finite) else 1.0
    for _ in range(samples):
        alpha = float(rng.uniform(0.0, hi))
        q = static_complex(m, ctx, alpha, "Q_open", k)
        r = static_complex(m, ctx, alpha, "relaxed_full", k)
        bq, br = betti_numbers(q), betti_numbers(r)
        if bq != br:
            return CheckResult(
                "betti-equality", False,
                f"alpha={alpha:.6g}: sparse {bq} vs relaxed {br}")
    return CheckResult("betti-equality", True,
                       f"{samples} scales, ranks agree in dims 0..{k - 1}")


def check_diagram_equality(m: MetricInput, ctx: WeightContext, k: int = 2,
                           tol: float = 1e-9) -> CheckResult:
    """Diagram of the sparse filtration equals the relaxed reference diagram."""
    sparse = build_sparse_from_context(m, ctx, k)
    return _diagram_equality(m, ctx, k, sparse, compute_persistence(sparse), tol)


def check_c_approximation(m: MetricInput, ctx: WeightContext,
                          k: int = 2) -> CheckResult:
    """Sparse diagram is a 1/(1-2eps)-approximation of the true Rips diagram."""
    ds = compute_persistence(build_sparse_from_context(m, ctx, k))
    return _c_approximation(m, ctx, k, ds)


def _diagram_equality(m, ctx, k, sparse, ds, tol=1e-9) -> CheckResult:
    relaxed = relaxed_rips(m, ctx, math.inf, k)
    ok = diagram_equal(ds, compute_persistence(relaxed), tol=tol)
    return CheckResult(
        "diagram-equality", ok,
        f"sparse ({len(sparse)} simplices) vs relaxed ({len(relaxed)}), tol={tol:g}"
        if ok else "sparse and relaxed diagrams differ")


def _c_approximation(m, ctx, k, ds) -> CheckResult:
    c = 1.0 / (1.0 - 2.0 * ctx.epsilon)
    res = multiplicative_match(ds, compute_persistence(full_rips(m, math.inf, k)), c)
    detail = (f"factor {c:.6g} matching found"
              if res.ok else f"no matching at factor {c:.6g}, witness {res.witness}")
    return CheckResult("c-approximation", res.ok, detail)


def run_battery(m: MetricInput, epsilon: float, k: int = 2, samples: int = 16,
                seed: int = 0, force: bool = False) -> list[CheckResult]:
    """Run every check; raises OracleSizeError for large n unless forced."""
    if m.n > ORACLE_GUARD_N and not force:
        raise OracleSizeError(
            f"n={m.n} exceeds the reference-filtration guard "
            f"({ORACLE_GUARD_N}); pass force to override")
    ctx = WeightContext.build(m, epsilon, seed=seed)
    rng = np.random.default_rng(seed)
    sparse = build_sparse_from_context(m, ctx, k)   # one build for the last two checks
    ds = compute_persistence(sparse)
    return [
        check_interleaving(m, ctx, n_pairs=100, rng=rng),
        check_nets(m, ctx, samples=samples, rng=rng),
        check_betti(m, ctx, k=k, samples=max(4, samples // 2), rng=rng),
        _diagram_equality(m, ctx, k, sparse, ds),
        _c_approximation(m, ctx, k, ds),
    ]
