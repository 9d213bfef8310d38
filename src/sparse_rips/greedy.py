"""Greedy (farthest-point) permutations, deletion times, and net checks.

A greedy permutation orders the points so that each successive point is
as far as possible from the ones chosen before it.  Prefixes of this
order are nets: they cover the whole space within the next insertion
radius and are pairwise separated by at least the last one.  Only the
order and the insertion radii are kept; deletion times rescale the radii
so that thresholding them yields the nets needed downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .metric import MetricInput, _atomic_write


@dataclass(frozen=True)
class GreedyPermutation:
    """Farthest-point order with its insertion radii.

    order[i] is the i-th point chosen; insertion_radius[i] is its distance
    to the prefix order[:i] (+inf for the seed).
    """

    order: np.ndarray
    insertion_radius: np.ndarray

    @property
    def n(self) -> int:
        return len(self.order)


@dataclass(frozen=True)
class DeletionSchedule:
    """Per-point deletion times t, indexed by point index.

    t[p] = insertion_radius(p) / (eps * (1 - 2 eps)); the seed gets +inf.
    Thresholding t at a scale alpha yields the open net {t > alpha} and
    the closed net {t >= alpha}.
    """

    epsilon: float
    t: np.ndarray

    @property
    def n(self) -> int:
        return len(self.t)


def greedy_permutation(m: MetricInput, seed: int = 0) -> GreedyPermutation:
    """Compute the farthest-point permutation starting from ``seed``.

    Ties in the farthest-point selection break toward the smallest point
    index, so the output is fully deterministic.  One array holds each
    point's distance to the prefix, lowered by one :meth:`MetricInput.distances`
    row per new centre: O(n^2) time and O(n) space, no distance matrix.
    """
    n = m.n
    if not (0 <= seed < n):
        raise IndexError(f"seed {seed} out of range for n={n}")
    order = np.full(n, seed, dtype=int)
    radius = np.full(n, math.inf)

    # distance to the current prefix, -1 for chosen points: rows are >= 0,
    # so the minimum keeps them out of the argmax
    dist = np.array(m.distances(seed), dtype=float)
    dist[seed] = -1.0
    for i in range(1, n):
        idx = int(dist.argmax())  # first occurrence = smallest index
        order[i] = idx
        radius[i] = dist[idx]
        dist[idx] = -1.0
        np.minimum(dist, m.distances(idx), out=dist)

    for a in (order, radius):
        a.setflags(write=False)
    return GreedyPermutation(order=order, insertion_radius=radius)


def deletion_times(gp: GreedyPermutation, epsilon: float) -> DeletionSchedule:
    """Deletion schedule t[p] = insertion_radius(p) / (eps (1 - 2 eps))."""
    if not (0.0 < epsilon <= 1.0 / 3.0):
        raise ValueError(f"epsilon must satisfy 0 < epsilon <= 1/3, got {epsilon}")
    scale = epsilon * (1.0 - 2.0 * epsilon)
    t = np.empty(gp.n, dtype=float)
    t[gp.order] = gp.insertion_radius / scale
    t[gp.order[0]] = math.inf
    t.setflags(write=False)
    return DeletionSchedule(epsilon=float(epsilon), t=t)


def net_at(s: DeletionSchedule, alpha: float, closed: bool = False) -> np.ndarray:
    """Point indices of the net at scale alpha.

    Open net: {p : t_p > alpha}.  Closed net: {p : t_p >= alpha}.
    """
    if not alpha >= 0:
        raise ValueError("alpha must be nonnegative")
    mask = s.t >= alpha if closed else s.t > alpha
    return np.flatnonzero(mask)


@dataclass(frozen=True)
class NetConditionReport:
    """Outcome of the covering / packing check at one scale, against ``bound``.

    worst_cover is the largest distance from any point to the net (with
    its witness point); worst_pack the smallest pairwise distance inside
    the net (with its witness pair, None when the net is a single point).
    """

    alpha: float
    cover_ok: bool
    pack_ok: bool
    bound: float
    worst_cover: float
    worst_cover_point: int
    worst_pack: float
    worst_pack_pair: tuple[int, int] | None

    @property
    def ok(self) -> bool:
        return self.cover_ok and self.pack_ok


def check_net_conditions(m: MetricInput, s: DeletionSchedule,
                         alpha: float) -> NetConditionReport:
    """Check the net at scale alpha.

    Covering: every point is within eps (1 - 2 eps) alpha of the net.
    Packing: distinct net points are at least eps (1 - 2 eps) alpha
    apart, the packing constant 1 that the greedy construction achieves.
    ValueError for an alpha that is not a finite nonnegative number.
    """
    if alpha == math.inf:   # the open net would be empty
        raise ValueError("alpha must be finite")
    net = net_at(s, alpha, closed=False)   # ValueError for a negative or NaN alpha
    bound = s.epsilon * (1.0 - 2.0 * s.epsilon) * alpha
    dist = m.distances(np.arange(m.n)[:, None], net[None, :])   # the net columns only

    to_net = dist.min(axis=1)
    worst_point = int(np.argmax(to_net))
    worst_cover = float(to_net[worst_point])

    if len(net) >= 2:
        sub = dist[net]
        np.fill_diagonal(sub, math.inf)
        flat = int(np.argmin(sub))
        i, j = np.unravel_index(flat, sub.shape)
        worst_pack = float(sub[i, j])
        pair = (int(net[i]), int(net[j]))
    else:
        worst_pack, pair = math.inf, None

    return NetConditionReport(
        alpha=float(alpha),
        cover_ok=bool(worst_cover <= bound),
        pack_ok=bool(worst_pack >= bound),
        bound=float(bound),
        worst_cover=worst_cover,
        worst_cover_point=worst_point,
        worst_pack=worst_pack,
        worst_pack_pair=pair,
    )


def schedule_to_csv(gp: GreedyPermutation, s: DeletionSchedule, path) -> None:
    """Write the schedule as CSV (index, greedy_position, insertion_radius,
    deletion_time) to a new file beside ``path`` that replaces it once whole:
    a failed write keeps the old file, a symlink is replaced, and the mode
    is 0o666 less the umask."""
    position = np.empty(gp.n, dtype=int)
    position[gp.order] = np.arange(gp.n)
    rows = zip(position.tolist(), gp.insertion_radius[position].tolist(), s.t.tolist())
    lines = [f"{p},{pos},{lam!r},{t!r}\n" for p, (pos, lam, t) in enumerate(rows)]
    _atomic_write(path, "index,greedy_position,insertion_radius,deletion_time\n" + "".join(lines))
