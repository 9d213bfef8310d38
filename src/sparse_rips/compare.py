"""Diagram equality and multiplicative matching between persistence diagrams.

Multiplicative comparison works on the log scale: two finite positive
values are within factor c when max(x, y) <= c * min(x, y).  Births of
exactly 0 form their own bucket (every vertex class is born at 0) and
match only each other; infinite deaths match only infinite deaths.  A
point may be matched to the diagonal when death <= c^2 * birth.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .persistence import PersistenceDiagram

INF = math.inf

#: relative slack on factor comparisons; absorbs float rounding in values
#: that sit exactly on the guaranteed bound, nothing more.
DEFAULT_RTOL = 1e-12


def diagram_equal(a: PersistenceDiagram, b: PersistenceDiagram,
                  tol: float = 1e-9) -> bool:
    """Multiset equality up to relative ``tol`` per coordinate.

    Sorted pairwise comparison: x and y agree when |x - y| <= tol *
    max(|x|, |y|), so the test does not depend on the scale of the
    data; an infinite death agrees only with an infinite death.
    """
    if a.k != b.k:
        raise ValueError(f"dimension caps differ: {a.k} vs {b.k}")

    def close(x: float, y: float) -> bool:
        if math.isinf(x) or math.isinf(y):
            return x == y
        return abs(x - y) <= tol * max(abs(x), abs(y))

    for d in range(a.k):
        pa, pb = sorted(a.in_dim(d)), sorted(b.in_dim(d))
        if len(pa) != len(pb):
            return False
        if not all(close(b1, b2) and close(d1, d2)
                   for (b1, d1), (b2, d2) in zip(pa, pb)):
            return False
    return True


@dataclass(frozen=True)
class MatchResult:
    """Certificate for a multiplicative diagram comparison.

    When ok, ``matching`` lists (dim, index_in_a, index_in_b) for matched
    pairs and (dim, index_in_a, None) / (dim, None, index_in_b) for points
    matched to the diagonal.  When not ok, ``witness`` is (dim, side,
    index, (birth, death)) for a point with no feasible partner.
    """

    ok: bool
    factor: float
    matching: list[tuple] | None
    witness: tuple | None


def _within_factor(x: float, y: float, c: float, rtol: float) -> bool:
    if x == 0.0 or y == 0.0:
        return x == y
    lo, hi = (x, y) if x <= y else (y, x)
    return hi <= c * lo * (1.0 + rtol)


def _deaths_compatible(pa, pb, c, rtol, amax_a, amax_b) -> bool:
    da, db = pa[1], pb[1]
    cens_a = amax_a is not None and da == amax_a
    cens_b = amax_b is not None and db == amax_b
    if cens_a or cens_b:
        # censored deaths only witness "death >= alpha_max"
        ok = True
        if cens_a:
            ok &= db >= amax_a / c * (1.0 - rtol)
        if cens_b:
            ok &= da >= amax_b / c * (1.0 - rtol)
        return ok
    if math.isinf(da) or math.isinf(db):
        return math.isinf(da) and math.isinf(db)
    return _within_factor(da, db, c, rtol)


def _compatible(pa, pb, c, rtol, amax_a, amax_b) -> bool:
    return (_within_factor(pa[0], pb[0], c, rtol)
            and _deaths_compatible(pa, pb, c, rtol, amax_a, amax_b))


def _diagonal_ok(p, c, rtol) -> bool:
    birth, death = p
    if math.isinf(death) or birth <= 0.0:
        return False
    return death <= c * c * birth * (1.0 + rtol)


def _max_bipartite(n_left: int, adj: list[list[int]], n_right: int):
    """Kuhn's maximum matching; its path search is iterative, so no path overflows the stack."""
    match_l = [-1] * n_left
    match_r = [-1] * n_right
    for root in range(n_left):
        seen = [False] * n_right
        path = [(root, iter(adj[root]))]   # left vertices, each with its untried edges
        while path:
            v = next((v for v in path[-1][1] if not seen[v]), -1)
            if v == -1:   # no augmenting path on from path[-1]: back up
                path.pop()
            elif match_r[v] != -1:   # go on from v's partner
                seen[v] = True
                path.append((match_r[v], iter(adj[match_r[v]])))
            else:   # v is free: flip the matching along the path
                for u, _ in reversed(path):
                    match_l[u], match_r[v], v = v, u, match_l[u]
                break
    return match_l, match_r


def multiplicative_match(a: PersistenceDiagram, b: PersistenceDiagram,
                         c: float, rtol: float = DEFAULT_RTOL) -> MatchResult:
    """Decide whether the diagrams match within multiplicative factor c.

    Per dimension, a bipartite graph pairs points of ``a`` with
    compatible points of ``b``; leftovers on either side must be within
    c^2 of the diagonal.  Feasibility is decided by maximum matching on
    the standard doubled graph (real points plus one diagonal slot per
    opposite point).
    """
    if c < 1.0:
        raise ValueError(f"factor must be >= 1, got {c}")
    if a.k != b.k:
        raise ValueError(f"dimension caps differ: {a.k} vs {b.k}")

    matching: list[tuple] = []
    for d in range(a.k):
        pa, pb = a.in_dim(d), b.in_dim(d)
        na, nb = len(pa), len(pb)
        # left: a-points then b-diagonal slots; right: b-points then a-diagonal slots
        adj: list[list[int]] = []
        for i, p in enumerate(pa):
            row = [j for j, q in enumerate(pb)
                   if _compatible(p, q, c, rtol, a.alpha_max, b.alpha_max)]
            if _diagonal_ok(p, c, rtol):
                row.append(nb + i)
            adj.append(row)
        for j, q in enumerate(pb):
            row = list(range(nb, nb + na))  # diagonal slots pair off freely
            if _diagonal_ok(q, c, rtol):
                row.append(j)  # last resort: send q itself to the diagonal
            adj.append(row)

        match_l, match_r = _max_bipartite(na + nb, adj, nb + na)
        if any(v == -1 for v in match_l):
            u = next(u for u, v in enumerate(match_l) if v == -1)
            if u < na:
                witness = (d, "a", u, pa[u])
            else:
                # an unmatched b-slot implies some b-point has no partner
                j = next(j for j in range(nb) if match_r[j] == -1)
                witness = (d, "b", j, pb[j])
            return MatchResult(ok=False, factor=float(c), matching=None,
                               witness=witness)
        for u, v in enumerate(match_l):
            if u < na:
                matching.append((d, u, v) if v < nb else (d, u, None))
            elif v < nb:
                matching.append((d, None, v))
    return MatchResult(ok=True, factor=float(c), matching=matching, witness=None)


def match_report_json(result: MatchResult) -> str:
    doc = {
        "ok": result.ok,
        "factor": result.factor,
        "matching": None if result.matching is None
        else [list(entry) for entry in result.matching],
        "witness": None if result.witness is None else {
            "dim": result.witness[0],
            "diagram": result.witness[1],
            "index": result.witness[2],
            "pair": ["inf" if math.isinf(x) else x for x in result.witness[3]],
        },
    }
    return json.dumps(doc, indent=2, sort_keys=True)
