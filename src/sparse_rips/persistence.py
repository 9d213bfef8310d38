"""Persistent (co)homology over GF(2) by coboundary-matrix reduction.

The column of a simplex is the list of its cofacets, taken by inverting
the facet positions that ``validate_filtration`` returns; adding two
columns is their symmetric difference and the pivot is the smallest
index.  Each dimension is reduced in reverse filtration order, from low
dimension to high, and clearing skips the simplices already known to
destroy a class one dimension down.  For a fixed total order the
persistence pairing is unique and cohomology has the same pairs as
homology (de Silva, Morozov and Vejdemo-Johansson, 2011), so the output
equals the plain boundary reduction; the coboundary columns need far
fewer additions (Bauer, Ripser, 2021).  Betti numbers of a snapshot (a
constant-0 filtration) are its infinite bars.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .filtration import MalformedFiltrationError  # noqa: F401  (re-exported)
from .filtration import SparseFiltration, validate_filtration

INF = math.inf


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

    For d = 0 .. k-1 the d-simplices are visited in reverse filtration
    order; the column of one is its list of cofacets and its pivot the
    earliest of them.  A new pivot pairs the simplex with that
    (d+1)-simplex, which then needs no column of its own (clearing); a
    column that empties is an infinite bar.  Pairs (value of creating
    simplex, value of destroying simplex) per finite class; unpaired
    creators of dimension < k give infinite bars.  Zero-persistence
    pairs are dropped unless ``keep_zero_pairs``.
    """
    facets = validate_filtration(f)
    values = [v.tolist() for v in f.values]
    pairs: dict[int, list[tuple[float, float]]] = {d: [] for d in range(f.k)}
    cleared: set[int] = set()   # the d-simplices that destroy a (d-1)-class
    for d in range(f.k):
        # cofacets of d-simplex i: cofacets[start[i]:start[i + 1]], ascending
        flat = facets[d + 1].ravel()
        cofacets = np.argsort(flat, kind="stable") // (d + 2)
        start = np.r_[0, np.cumsum(np.bincount(flat, minlength=len(values[d])))].tolist()
        pivot_col: dict[int, list[int] | set[int]] = {}
        for i in reversed(range(len(values[d]))):
            if i in cleared:
                continue
            col = cofacets[start[i]:start[i + 1]].tolist()
            while col:
                low = min(col)
                other = pivot_col.get(low)
                if other is None:
                    pivot_col[low] = col
                    birth, death = values[d][i], values[d + 1][low]
                    if death != birth or keep_zero_pairs:
                        pairs[d].append((birth, death))
                    break
                col = set(col).symmetric_difference(other)
            else:
                pairs[d].append((values[d][i], INF))
        cleared = set(pivot_col)
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
        "alpha_max": None if dgm.alpha_max is None else float(dgm.alpha_max),
        "diagrams": [
            {"dim": d, "pairs": [[_enc(b), _enc(dth)] for b, dth in dgm.in_dim(d)]}
            for d in range(dgm.k)
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=True)


def diagram_from_json(text: str) -> PersistenceDiagram:
    doc = json.loads(text)
    pairs = {int(entry["dim"]): [(_dec(b), _dec(dth)) for b, dth in entry["pairs"]]
             for entry in doc["diagrams"]}
    for d in range(int(doc["k"])):
        pairs.setdefault(d, [])
    amax = doc.get("alpha_max")
    return PersistenceDiagram(pairs=pairs, k=int(doc["k"]),
                              alpha_max=None if amax is None else float(amax))


def diagram_to_csv(dgm: PersistenceDiagram) -> str:
    lines = ["dim,birth,death"]
    for d in range(dgm.k):
        for b, dth in dgm.in_dim(d):
            dth_s = "inf" if math.isinf(dth) else repr(float(dth))
            lines.append(f"{d},{repr(float(b))},{dth_s}")
    return "\n".join(lines) + "\n"


def diagram_from_csv(text: str, k: int | None = None,
                     alpha_max: float | None = None) -> PersistenceDiagram:
    pairs: dict[int, list[tuple[float, float]]] = {}
    rows = [r for r in text.strip().splitlines() if r.strip()]
    for row in rows[1:]:
        d_s, b_s, dth_s = row.split(",")
        pairs.setdefault(int(d_s), []).append((_dec(b_s), _dec(dth_s)))
    if k is None:
        k = max(pairs) + 1 if pairs else 1
    for d in range(k):
        pairs.setdefault(d, [])
    return PersistenceDiagram(pairs=pairs, k=k, alpha_max=alpha_max)
