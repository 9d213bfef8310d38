"""Persistent (co)homology over GF(2): union-find in dimension 0 and
coboundary-matrix reduction above it.

All vertices have value 0, so the classes of dimension 0 are the
components: a union-find over the edges in filtration order finds the
merging edges, exactly the edges that destroy a class, each paired with
a birth of 0 (no elder rule is needed to choose among them).  Above
dimension 0 the column of a simplex is its cofacets, taken by inverting
the facet positions ``f.facets``, which every filtration stores: the ones
its clique expansion found, or those of the check that outside input
passed when it was made.  The inversion is one in-place
sort of the int64 keys facet * m_{d+1} + cofacet, then their remainder
mod m_{d+1}, so each simplex's cofacets ascend: a column is a sorted
integer array, its pivot is its first entry, and adding two columns is
``np.setxor1d``.  Each dimension is reduced in reverse filtration order,
and clearing skips the simplices already known to destroy a class one
dimension down; a dimension without simplices is skipped.  Apparent
pairs, a simplex whose earliest cofacet has it as its latest facet, are
found with array operations and need no reduction; only the other
columns go through the Python loop.  For a fixed total order the
persistence pairing is unique and cohomology has the same pairs as
homology (de Silva, Morozov and Vejdemo-Johansson, 2011), so the output
equals the plain boundary reduction; the shortcuts are Ripser's (Bauer,
2021).  Betti numbers of a snapshot (a constant-0 filtration) are its
infinite bars.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .filtration import _KEY_LIMIT, SparseFiltration

INF = math.inf
_EDGE_BLOCK = 1024   # edges the dimension-0 union-find converts to Python ints at a time


@dataclass(frozen=True)
class PersistenceDiagram:
    """Multisets of (birth, death) pairs per homology dimension 0..k-1.

    death is +inf for classes alive at the end of the filtration.
    Classes created by dimension-k simplices are not reported: with only
    a k-skeleton their deaths are unknowable.
    """

    pairs: dict[int, list[tuple[float, float]]]
    k: int
    alpha_max: float | None = None

    def in_dim(self, dim: int) -> list[tuple[float, float]]:
        return self.pairs.get(dim, [])

    def total_points(self) -> int:
        return sum(len(v) for v in self.pairs.values())


def compute_persistence(f: SparseFiltration,
                        keep_zero_pairs: bool = False) -> PersistenceDiagram:
    """Persistent cohomology with clearing, GF(2) coefficients.

    Dimension 0 is a union-find over the edges in filtration order: an
    edge that joins two components pairs a birth of 0 with the edge, and
    these edges are cleared in dimension 1.
    For d = 1 .. k-1 each d-simplex s whose earliest cofacet c has s as
    its latest facet is paired with c at once (an apparent pair: no
    column reaches c before s does).  The other d-simplices are visited
    in reverse filtration order; the column of one is its cofacets in
    ascending order, and its pivot the earliest of them.  A new pivot
    pairs the simplex with that (d+1)-simplex, which then needs no column
    of its own (clearing); a column that empties is an infinite bar.
    ValueError if m_d * m_{d+1} reaches 2**63, where a cofacet key could
    overflow.  Pairs
    (value of creating simplex, value of destroying simplex) per finite
    class; unpaired creators of dimension < k give infinite bars.
    Zero-persistence pairs are dropped unless ``keep_zero_pairs``.
    """
    facets = f.facets
    pairs: dict[int, list[tuple[float, float]]] = {d: [] for d in range(f.k)}
    if f.k == 0:   # vertices only: no dimension is reported
        return PersistenceDiagram(pairs=pairs, k=0, alpha_max=f.alpha_max)

    def pair(d, i, j):   # d-simplices i with (d+1)-simplices j, or with inf for j = None
        birth = f.values[d][i]
        death = np.full(len(birth), INF) if j is None else f.values[d + 1][j]
        keep = (death != birth) | keep_zero_pairs
        pairs[d] += zip(birth[keep].tolist(), death[keep].tolist())

    # dimension 0: union-find over the edges in filtration order
    root = list(range(len(f.values[0])))
    cleared = []   # the merging edges
    blocks = (facets[1][lo:lo + _EDGE_BLOCK].tolist()   # stop converting with the loop
              for lo in range(0, len(facets[1]), _EDGE_BLOCK))
    for e, (u, v) in enumerate(chain.from_iterable(blocks)):
        while u != root[u]:   # path halving
            root[u] = u = root[root[u]]
        while v != root[v]:
            root[v] = v = root[root[v]]
        if u != v:
            root[u] = v
            cleared.append(e)
            if len(cleared) == len(root) - 1:
                break   # one component left
    pair(0, np.zeros(len(cleared), dtype=np.intp), cleared)   # vertex 0: all are born at 0
    pair(0, np.zeros(len(root) - len(cleared), dtype=np.intp), None)

    for d in range(1, f.k):
        m, m_up = len(f.values[d]), len(f.values[d + 1])
        if not m:   # no d-simplex: nothing to pair, and nothing cleared above
            cleared = []
            continue
        if m * m_up >= _KEY_LIMIT:
            raise ValueError(f"{m} simplices of dimension {d} and {m_up} of dimension "
                             f"{d + 1} are too many to index")
        # cofacets of d-simplex i: cofacets[start[i]:start[i + 1]], ascending;
        # one sort of the keys facet * m_up + cofacet, then the remainder
        cofacets = facets[d + 1] * m_up
        cofacets += np.arange(m_up)[:, None]
        cofacets = cofacets.ravel()
        cofacets.sort()
        start = np.searchsorted(cofacets, np.arange(m + 1) * m_up)   # no bincount: it copies
        cofacets %= m_up
        # apparent pairs (s, c): c is the earliest cofacet of s, its row's
        # first, and s the latest facet of c; no column reaches c before s,
        # so s keeps its column, built only if a later column reaches c
        s = np.flatnonzero(start[:-1] < start[1:])
        c = cofacets[start[s]]
        apparent = facets[d + 1][c].max(axis=1) == s
        s, c = s[apparent], c[apparent]
        pair(d, s, c)
        pivot_col: dict[int, int | np.ndarray] = dict(zip(c.tolist(), s.tolist()))
        todo = np.ones(m, dtype=bool)
        todo[cleared] = todo[s] = False
        start = start.tolist()
        creators, destroyers, essential = [], [], []
        for i in np.flatnonzero(todo)[::-1].tolist():
            col = cofacets[start[i]:start[i + 1]]
            while len(col):
                low = int(col[0])
                other = pivot_col.get(low)
                if other is None:
                    pivot_col[low] = col
                    creators.append(i)
                    destroyers.append(low)
                    break
                if isinstance(other, int):   # the column of an apparent pair
                    other = cofacets[start[other]:start[other + 1]]
                col = np.setxor1d(col, other, assume_unique=True)
            else:
                essential.append(i)
        pair(d, creators, destroyers)
        pair(d, essential, None)
        cleared = list(pivot_col)
    for d in pairs:
        pairs[d].sort()
    return PersistenceDiagram(pairs=pairs, k=f.k, alpha_max=f.alpha_max)


def betti_numbers(f: SparseFiltration, through_dim: int | None = None) -> list[int]:
    """Homology ranks over GF(2) of a snapshot, a constant-0 filtration.

    Reports dimensions 0..k-1 by default (the top dimension is
    unreliable under a k-skeleton); pass ``through_dim`` to override,
    e.g. for Euler characteristic checks on uncapped complexes.  Rank
    d < k counts the infinite bars of ``static_complex``'s output; rank
    k is #k-simplices minus the pairs they destroy.
    """
    top = f.k - 1 if through_dim is None else through_dim
    dgm = compute_persistence(f, keep_zero_pairs=True)
    betti = [sum(1 for _, death in dgm.in_dim(d) if death == INF)
             for d in range(top + 1)]
    if top >= f.k:
        destroyed = len(dgm.in_dim(f.k - 1)) - betti[f.k - 1]
        betti[f.k] = f.counts_by_dim()[f.k] - destroyed
    return betti


# --- diagram serialization ------------------------------------------------

def _enc(x: float):
    return "inf" if math.isinf(x) else float(x)


def _dec(x) -> float:
    return INF if x == "inf" else float(x)


def diagram_to_json(dgm: PersistenceDiagram) -> str:
    doc = {
        "k": dgm.k,
        "alpha_max": None if dgm.alpha_max is None else _enc(dgm.alpha_max),
        "diagrams": [
            {"dim": d, "pairs": [[_enc(b), _enc(dth)] for b, dth in dgm.in_dim(d)]}
            for d in range(dgm.k)
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)


def diagram_from_json(text: str) -> PersistenceDiagram:
    doc = json.loads(text)
    pairs = {int(entry["dim"]): [(_dec(b), _dec(dth)) for b, dth in entry["pairs"]]
             for entry in doc["diagrams"]}
    for d in range(int(doc["k"])):
        pairs.setdefault(d, [])
    amax = doc.get("alpha_max")
    return PersistenceDiagram(pairs=pairs, k=int(doc["k"]),
                              alpha_max=None if amax is None else _dec(amax))


def diagram_to_csv(dgm: PersistenceDiagram) -> str:
    lines = ["dim,birth,death"]
    for d in range(dgm.k):
        for b, dth in dgm.in_dim(d):
            dth_s = "inf" if math.isinf(dth) else repr(float(dth))
            lines.append(f"{d},{repr(float(b))},{dth_s}")
    return "\n".join(lines) + "\n"

