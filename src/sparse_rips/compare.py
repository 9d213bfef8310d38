"""Diagram equality and multiplicative matching between persistence diagrams.

Multiplicative comparison works on the log scale: two finite positive
values are within factor c when max(x, y) <= c * min(x, y).  Births of
exactly 0 form their own bucket (every vertex class is born at 0) and
match only each other; infinite deaths match only infinite deaths.  A
point may be matched to the diagonal when death <= c^2 * birth.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .persistence import PersistenceDiagram

#: relative slack on factor comparisons; absorbs float rounding in values
#: that sit exactly on the guaranteed bound, nothing more.
DEFAULT_RTOL = 1e-12


def _max_matching(graph: np.ndarray) -> np.ndarray:
    """Maximum matching of a dense boolean bipartite graph: the column
    matched to each row, or -1 (Hopcroft-Karp, in scipy's compiled code)."""
    # imported here: the package import does not pay for csgraph
    from scipy.sparse import csr_array
    from scipy.sparse.csgraph import maximum_bipartite_matching
    return maximum_bipartite_matching(csr_array(graph), perm_type="column")


def _points(dgm: PersistenceDiagram, d: int) -> np.ndarray:
    return np.array(dgm.in_dim(d), dtype=float).reshape(-1, 2)


def diagram_equal(a: PersistenceDiagram, b: PersistenceDiagram,
                  tol: float = 1e-9) -> bool:
    """Multiset equality up to relative ``tol`` per coordinate.

    x and y agree when |x - y| <= tol * max(|x|, |y|), so the test does
    not depend on the scale of the data; an infinite death agrees only
    with an infinite death.  Per dimension the diagrams are equal when
    the pairs that agree in both coordinates have a perfect matching, so
    near-ties sorted differently on the two sides do not matter.
    """
    if a.k != b.k:
        raise ValueError(f"dimension caps differ: {a.k} vs {b.k}")

    def close(x, y):
        with np.errstate(invalid="ignore"):   # inf - inf, masked below
            near = np.abs(x - y) <= tol * np.maximum(np.abs(x), np.abs(y))
        return np.where(np.isinf(x) | np.isinf(y), x == y, near)

    for d in range(a.k):
        pa, pb = _points(a, d), _points(b, d)
        if len(pa) != len(pb):
            return False
        agree = close(pa[:, None, 0], pb[:, 0]) & close(pa[:, None, 1], pb[:, 1])
        if (_max_matching(agree) == -1).any():
            return False
    return True


@dataclass(frozen=True)
class MatchResult:
    """Certificate for a multiplicative diagram comparison.

    When ok, ``matching`` lists (dim, index_in_a, index_in_b) for matched
    pairs and (dim, index_in_a, None) / (dim, None, index_in_b) for points
    matched to the diagonal.  When not ok, ``witness`` is (dim, side,
    index, (birth, death)) for a point a maximum matching leaves unmatched.
    """

    ok: bool
    factor: float
    matching: list[tuple] | None
    witness: tuple | None


def _within_factor(x, y, c, rtol):
    lo, hi = np.minimum(x, y), np.maximum(x, y)
    return np.where((x == 0.0) | (y == 0.0), x == y, hi <= c * lo * (1.0 + rtol))


def _deaths_compatible(da, db, c, rtol, amax_a, amax_b):
    censored, censored_ok = False, True
    for mine, other, amax in ((da, db, amax_a), (db, da, amax_b)):
        if amax is not None:
            # censored deaths only witness "death >= alpha_max"
            cens = mine == amax
            censored = censored | cens
            censored_ok = censored_ok & (~cens | (other >= amax / c * (1.0 - rtol)))
    inf_a, inf_b = np.isinf(da), np.isinf(db)
    plain = np.where(inf_a | inf_b, inf_a & inf_b, _within_factor(da, db, c, rtol))
    return np.where(censored, censored_ok, plain)


def _compatible(pa, pb, c, rtol, amax_a, amax_b):
    """Feasible (len(pa), len(pb)) pairs of (birth, death) rows."""
    return (_within_factor(pa[:, None, 0], pb[:, 0], c, rtol)
            & _deaths_compatible(pa[:, None, 1], pb[:, 1], c, rtol, amax_a, amax_b))


def _diagonal_ok(p, c, rtol):
    birth, death = p[:, 0], p[:, 1]
    return ~np.isinf(death) & (birth > 0.0) & (death <= c * c * birth * (1.0 + rtol))


def multiplicative_match(a: PersistenceDiagram, b: PersistenceDiagram,
                         c: float, rtol: float = DEFAULT_RTOL) -> MatchResult:
    """Decide whether the diagrams match within multiplicative factor c.

    Per dimension, a bipartite graph pairs points of ``a`` with
    compatible points of ``b``; leftovers on either side must be within
    c^2 of the diagonal.  Feasibility is decided by maximum matching on
    the standard doubled graph (real points plus one diagonal slot per
    opposite point).
    """
    if not c >= 1.0:
        raise ValueError(f"factor must be >= 1, got {c}")
    if a.k != b.k:
        raise ValueError(f"dimension caps differ: {a.k} vs {b.k}")

    matching: list[tuple] = []
    for d in range(a.k):
        pa, pb = _points(a, d), _points(b, d)
        na, nb = len(pa), len(pb)
        # rows: a-points then b-diagonal slots; columns: b-points then
        # a-diagonal slots, where the diagonal slots pair off freely
        graph = np.block([
            [_compatible(pa, pb, c, rtol, a.alpha_max, b.alpha_max),
             np.diag(_diagonal_ok(pa, c, rtol))],
            [np.diag(_diagonal_ok(pb, c, rtol)), np.ones((nb, na), bool)]])
        match = _max_matching(graph)
        free = np.flatnonzero(match == -1)
        if len(free):
            if free[0] < na:
                witness = (d, "a", int(free[0]), a.in_dim(d)[free[0]])
            else:
                # a free b-slot could take any a-diagonal column, so all of
                # those are matched and some b-point is not
                j = int(np.setdiff1d(np.arange(nb), match)[0])
                witness = (d, "b", j, b.in_dim(d)[j])
            return MatchResult(ok=False, factor=float(c), matching=None,
                               witness=witness)
        match = match.tolist()
        matching += [(d, u, v if v < nb else None) for u, v in enumerate(match[:na])]
        matching += [(d, None, v) for v in match[na:] if v < nb]
    return MatchResult(ok=True, factor=float(c), matching=matching, witness=None)

