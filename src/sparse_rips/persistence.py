"""Persistent homology by boundary-matrix reduction over GF(2).

A column is the Python set of the indices of its nonzero rows, taken
from the facet indices that ``validate_filtration`` returns; adding two
columns is their symmetric difference and the pivot is the largest
index.  Dimensions are processed in decreasing order so that the
clearing optimization can skip columns already known to reduce to zero;
the output is identical to the plain left-to-right reduction.  Betti
numbers of a snapshot (a constant-0 filtration) are its infinite bars.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

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
    """Standard column reduction in filtration order, GF(2) coefficients.

    Pairs (value of creating simplex, value of destroying simplex) per
    finite class; unpaired creators of dimension < k give infinite bars.
    Zero-persistence pairs are dropped unless ``keep_zero_pairs``.
    """
    sims = f.simplices
    facets = validate_filtration(f)
    dims = [s.dim for s in sims]
    maxdim = max(dims) if sims else 0

    by_dim: dict[int, list[int]] = {d: [] for d in range(maxdim + 1)}
    for i, d in enumerate(dims):
        by_dim[d].append(i)

    cleared: set[int] = set()
    finite_pairs: list[tuple[int, int]] = []   # (creator index, destroyer index)
    unpaired: dict[int, list[int]] = {d: [] for d in range(maxdim + 1)}

    for d in range(maxdim, 0, -1):
        pivot_col: dict[int, set[int]] = {}
        for j in by_dim[d]:
            if j in cleared:
                continue
            col = set(facets[j])
            while col:
                low = max(col)
                other = pivot_col.get(low)
                if other is None:
                    pivot_col[low] = col
                    finite_pairs.append((low, j))
                    cleared.add(low)
                    break
                col ^= other
            else:
                unpaired[d].append(j)
    unpaired[0] = [i for i in by_dim[0] if i not in cleared]

    pairs: dict[int, list[tuple[float, float]]] = {d: [] for d in range(f.k)}
    for i, j in finite_pairs:   # a creator is a face, so dims[i] < k
        birth, death = sims[i].value, sims[j].value
        if death != birth or keep_zero_pairs:
            pairs[dims[i]].append((birth, death))
    for d in range(min(f.k, maxdim + 1)):
        for i in unpaired[d]:
            pairs[d].append((sims[i].value, INF))
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
