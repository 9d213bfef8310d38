"""Helpers shared by the test modules."""

import math
from itertools import combinations

import numpy as np
from hypothesis import strategies as st

from sparse_rips import PersistenceDiagram


def simplices(f):
    """(vertex tuple, value) pairs of ``f`` in the global order, read from
    its vertex rows (derived from the face index on a built or read
    filtration)."""
    rows = [r for v in f.vertices for r in map(tuple, v.tolist())]
    values = np.concatenate(f.values).tolist()
    return [(rows[i], values[i]) for i in f._merge_order().tolist()]


@st.composite
def tie_heavy_graphs(draw):
    """A graph on at most 9 vertices with integer births 0..3, as an edge list
    in random order, each edge with its endpoints either way round."""
    n = draw(st.integers(1, 9))
    pairs = list(combinations(range(n), 2))
    births = draw(st.lists(st.sampled_from([None, 0, 1, 2, 3]),
                           min_size=len(pairs), max_size=len(pairs)))
    edges = [(p, q, float(b)) for (p, q), b in zip(pairs, births) if b is not None]
    flips = draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
    edges = [(q, p, b) if flip else (p, q, b) for (p, q, b), flip in zip(edges, flips)]
    return n, draw(st.permutations(edges))


def naive_diagram(f, keep_zero_pairs=False):
    """Dense GF(2) reduction, single pass in filtration order, no clearing (oracle)."""
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
            pairs[len(sims[j][0]) - 1].append((sims[j][1], math.inf))
    for d in pairs:
        pairs[d].sort()
    return PersistenceDiagram(pairs=pairs, k=f.k, alpha_max=f.alpha_max)
