"""Scale-dependent point weights and the relaxed distance.

Each point p carries a weight that is zero until shortly before its
deletion time t_p, then ramps up with slope 1/2, and finally grows as
eps * alpha:

    w_p(alpha) = 0                                   if alpha <= (1 - 2 eps) t_p
               = (alpha - (1 - 2 eps) t_p) / 2       if (1 - 2 eps) t_p < alpha < t_p
               = eps * alpha                         if alpha >= t_p

The relaxed distance at scale alpha is d(p, q) + w_p(alpha) + w_q(alpha).
An edge (p, q) becomes admissible at the smallest alpha with relaxed
distance <= alpha; because alpha - w_p(alpha) - w_q(alpha) is a
non-decreasing piecewise-linear function of alpha, that birth scale has
a closed form obtained by scanning at most four breakpoints.

The scalar routines here use plain Python arithmetic, so they work with
floats and with ``fractions.Fraction`` inputs alike; the latter makes
exact rational verification of the interleaving bounds possible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .greedy import DeletionSchedule, deletion_times, greedy_permutation
from .metric import MetricInput

_INF = math.inf


def point_weight(alpha, t, eps):
    """Weight of a point with deletion time ``t`` at scale ``alpha``.

    Polymorphic over float and Fraction scalars.  For t = +inf the first
    branch applies at every finite scale and the weight is 0.
    """
    thr = (1 - 2 * eps) * t
    if alpha <= thr:
        return 0
    if alpha < t:
        return (alpha - thr) / 2
    return eps * alpha


def pair_relaxed_distance(d, tp, tq, eps, alpha):
    """Relaxed distance d + w_p(alpha) + w_q(alpha) for one pair."""
    return d + point_weight(alpha, tp, eps) + point_weight(alpha, tq, eps)


def pair_birth(d, tp, tq, eps):
    """Smallest alpha >= 0 with d + w_p(alpha) + w_q(alpha) <= alpha.

    Scans the sorted finite breakpoints of
    g(alpha) = alpha - w_p(alpha) - w_q(alpha) and solves the linear
    piece on which g first reaches d.  If g is flat at level d the left
    endpoint is returned, which is the only choice consistent with
    "earliest scale".  Exact for Fraction inputs.
    """
    if d <= 0:
        return d
    nodes = sorted({x for t in (tp, tq) for x in ((1 - 2 * eps) * t, t)
                    if x != _INF})
    prev_x, prev_g = 0, 0
    for x in nodes:
        gx = x - point_weight(x, tp, eps) - point_weight(x, tq, eps)
        if gx >= d:
            slope = (gx - prev_g) / (x - prev_x)
            return prev_x + (d - prev_g) / slope
        prev_x, prev_g = x, gx
    slope = 1 - (eps if tp != _INF else 0) - (eps if tq != _INF else 0)
    return prev_x + (d - prev_g) / slope


def weight_batch(alpha, t, eps):
    """Vectorized point weight; ``alpha`` and ``t`` broadcast together."""
    alpha = np.asarray(alpha, dtype=float)
    t = np.asarray(t, dtype=float)
    thr = (1.0 - 2.0 * eps) * t
    mid = (alpha - thr) / 2.0
    return np.where(alpha <= thr, 0.0, np.where(alpha < t, mid, eps * alpha))


def pair_birth_batch(d, tp, tq, eps):
    """Vectorized ``pair_birth`` over arrays of pairs.

    Bit-identical to the scalar version: both evaluate the same
    expressions in the same order.
    """
    d = np.asarray(d, dtype=float)
    tp = np.broadcast_to(np.asarray(tp, dtype=float), d.shape)
    tq = np.broadcast_to(np.asarray(tq, dtype=float), d.shape)

    b = 1.0 - 2.0 * eps
    nodes = np.sort(np.stack([b * tp, tp, b * tq, tq], axis=-1), axis=-1)
    nodes = np.concatenate([np.zeros(d.shape + (1,)), nodes], axis=-1)
    finite = np.isfinite(nodes)
    with np.errstate(invalid="ignore"):
        g = nodes - weight_batch(nodes, tp[..., None], eps) \
                  - weight_batch(nodes, tq[..., None], eps)

    hit = (g >= d[..., None]) & finite
    has_hit = hit.any(axis=-1)
    j = hit.argmax(axis=-1)          # g(0) = 0 < d, so j >= 1 wherever has_hit
    j = np.maximum(j, 1)
    jl = j - 1

    def take(a, idx):
        return np.take_along_axis(a, idx[..., None], axis=-1)[..., 0]

    left, right = take(nodes, jl), take(nodes, j)
    gl, gr = take(g, jl), take(g, j)
    with np.errstate(invalid="ignore", divide="ignore"):
        slope = (gr - gl) / (right - left)
        on_piece = left + (d - gl) / slope

    last = finite.sum(axis=-1) - 1
    ln, lg = take(nodes, last), take(g, last)
    ray_slope = 1.0 - eps * np.isfinite(tp) - eps * np.isfinite(tq)
    on_ray = ln + (d - lg) / ray_slope

    out = np.where(has_hit, on_piece, on_ray)
    return np.where(d <= 0.0, d, out)


@dataclass(frozen=True)
class WeightContext:
    """Bundle of metric, deletion schedule, and approximation parameter.

    Immutable; all evaluations are pure functions of it, so unrestricted
    concurrent use is safe.
    """

    epsilon: float
    schedule: DeletionSchedule
    metric: MetricInput

    def __post_init__(self):
        if not (0 < self.epsilon <= 1 / 3):
            raise ValueError(f"epsilon must satisfy 0 < epsilon <= 1/3, got {self.epsilon}")

    @classmethod
    def build(cls, m: MetricInput, epsilon: float, seed: int = 0) -> "WeightContext":
        """Run the greedy permutation and derive deletion times from it."""
        s = deletion_times(greedy_permutation(m, seed=seed), epsilon)
        return cls(epsilon=float(epsilon), schedule=s, metric=m)


#: relative band around g(c) = d in which a float birth may fall on the
#: wrong side of its cap c, and is settled in exact arithmetic
_CAP_BAND = 1e-9


def _g_at_caps(tp, tq, eps):
    """c = min(t_p, t_q) and g(c) = c - w_p(c) - w_q(c): birth <= c iff g(c) >= d."""
    c = np.minimum(tp, tq)
    with np.errstate(invalid="ignore"):  # c = inf when neither point is deleted
        return c, c - weight_batch(c, tp, eps) - weight_batch(c, tq, eps)


def _births_exact_at_caps(d, tp, tq, eps):
    """``pair_birth_batch``, with each birth <= c = min(t_p, t_q) iff it is so exactly.

    Where the float g(c) (:func:`_g_at_caps`) is within rounding of d, the
    float birth can land
    on the wrong side of c (g may be flat up to c), so those pairs are
    solved in Fraction arithmetic.
    """
    births = pair_birth_batch(d, tp, tq, eps)
    c, g = _g_at_caps(tp, tq, eps)
    for i in np.flatnonzero(np.isfinite(c) & (np.abs(g - d) <= _CAP_BAND * c)).tolist():
        exact = pair_birth(*(x if x == _INF else Fraction(x)
                             for x in (d[i], tp[i], tq[i], eps)))
        births[i] = (float(exact) if exact <= c[i]
                     else max(float(exact), np.nextafter(c[i], _INF)))
    return births


def _births_within_caps(d, tp, tq, eps):
    """Positions of the pairs with birth <= min(t_p, t_q), and those births,
    as :func:`_births_exact_at_caps` gives them.  Births are computed only
    where g(c) >= d up to the band: elsewhere the birth is surely above c."""
    c, g = _g_at_caps(tp, tq, eps)
    near = np.flatnonzero(g >= d - _CAP_BAND * c)
    births = _births_exact_at_caps(d[near], tp[near], tq[near], eps)
    keep = births <= c[near]
    return near[keep], births[keep]


def birth_matrix(m: MetricInput, ctx: WeightContext,
                 within_deletion_caps: bool = False) -> np.ndarray:
    """Full n x n matrix of edge birth scales (diagonal and masked pairs +inf).

    With ``within_deletion_caps`` the computation is restricted to the
    pairs that can possibly satisfy birth <= min(t_p, t_q); all other
    entries are +inf.  Every returned finite entry is an exact birth, and
    is <= min(t_p, t_q) iff it is so in exact arithmetic on the same floats.
    """
    n = m.n
    dmat = m.distance_matrix()
    t = ctx.schedule.t
    out = np.full((n, n), _INF)
    mask = np.triu(np.ones((n, n), dtype=bool), k=1)
    if within_deletion_caps:
        # birth <= min t forces d <= min t, since the birth is >= d
        mask &= dmat <= np.minimum(t[:, None], t[None, :])
    idx = np.nonzero(mask)
    out[idx] = _births_exact_at_caps(dmat[idx], t[idx[0]], t[idx[1]], ctx.epsilon)
    return np.minimum(out, out.T)
