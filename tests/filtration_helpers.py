"""Helpers shared by the test modules."""

from itertools import combinations

import numpy as np
from hypothesis import strategies as st


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
