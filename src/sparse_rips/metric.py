"""Metric space ingestion.

A finite metric space is either a point cloud with one of the standard
coordinate kernels (euclidean, manhattan, chebyshev) or an explicit
square distance matrix.  Everything downstream only talks to
:class:`MetricInput`, so the two representations are interchangeable.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist

EXPLICIT_MATRIX = "explicit_matrix"

# scipy names for the supported coordinate kernels
_KERNELS = {
    "euclidean": "euclidean",
    "manhattan": "cityblock",
    "chebyshev": "chebyshev",
}

#: absolute tolerance for symmetry / zero-diagonal checks on explicit matrices
MATRIX_TOL = 1e-9


class MetricFormatError(ValueError):
    """Input file or matrix cannot be interpreted as a metric space."""


@dataclass(frozen=True, eq=False)
class MetricInput:
    """A finite metric space on point indices ``0..n-1``.

    Instances are immutable after construction and safe for concurrent
    read-only use.  Exact duplicate points (pairwise distance exactly 0)
    are removed at construction; ``dedup_map`` sends each original index
    to the index of its surviving representative.
    """

    metric_kind: str
    n: int
    points: np.ndarray | None = None    # (n, D) coordinates, kernel kinds only
    matrix: np.ndarray | None = None    # (n, n), explicit_matrix only
    dedup_map: tuple[int, ...] = ()

    @cached_property
    def _dmat(self) -> np.ndarray:
        if self.metric_kind == EXPLICIT_MATRIX:
            return self.matrix
        return cdist(self.points, self.points, metric=_KERNELS[self.metric_kind])

    @cached_property
    def _columns(self) -> np.ndarray:
        return np.ascontiguousarray(self.points.T)

    def distance_matrix(self) -> np.ndarray:
        """Full pairwise distance matrix (cached, do not mutate).  For point
        input it takes O(n^2) memory; the sparse build does not call it."""
        return self._dmat

    def distances(self, p, q=None) -> np.ndarray:
        """Distances d(p, q) of index arrays that broadcast together, or the
        row d(p, .) of one index p when ``q`` is omitted.

        Explicit matrices are indexed.  For point kernels each value is
        bit-identical to the ``cdist`` entry: the coordinates are accumulated
        one at a time, in order, as scipy does (a numpy ``sum`` would add
        them pairwise and change the last bit)."""
        if self.metric_kind == EXPLICIT_MATRIX:
            return self.matrix[p] if q is None else self.matrix[p, q]
        cols = self._columns
        if q is None:
            diff = cols[:, p, None] - cols
        else:   # np.take gathers faster than cols[:, p]
            diff = np.take(cols, p, axis=1) - np.take(cols, q, axis=1)
        if self.metric_kind == "chebyshev":
            return np.abs(diff).max(axis=0)
        if self.metric_kind == "euclidean":
            diff *= diff
        else:
            np.abs(diff, out=diff)
        acc = diff[0]
        for row in diff[1:]:
            acc += row
        return np.sqrt(acc) if self.metric_kind == "euclidean" else acc

    def distance(self, i: int, j: int) -> float:
        """Distance between points ``i`` and ``j``."""
        n = self.n
        if not (0 <= i < n and 0 <= j < n):
            raise IndexError(f"point index out of range: ({i}, {j}) with n={n}")
        return float(self.distances(i, j))

    @property
    def dim(self) -> int | None:
        return None if self.points is None else int(self.points.shape[1])


def _deduplicate(n: int, iu, ju):
    """Return (keep_indices, dedup_map) merging the pairs (iu, ju), which are
    at distance exactly 0, transitively; warn if any point is removed."""
    if len(iu) == 0:
        return list(range(n)), tuple(range(n))
    # imported here: the package import does not pay for csgraph
    from scipy.sparse import coo_array
    from scipy.sparse.csgraph import connected_components
    _, group = connected_components(
        coo_array((np.ones(len(iu), bool), (iu, ju)), shape=(n, n)), directed=False)
    _, first = np.unique(group, return_index=True)   # smallest index per group
    keep, remap = np.unique(first[group], return_inverse=True)
    warnings.warn(f"removed {n - len(keep)} duplicate point(s); indices remapped (see dedup_map)")
    return keep, tuple(remap.tolist())


#: chebyshev radius of the duplicate candidates: every kernel is exactly 0
#: only for coordinates closer than this (a euclidean square underflows to 0
#: below about 1.5e-162), so the exact kernel decides among the candidates
_DUPLICATE_RADIUS = 1e-150


def from_points(points, metric_kind: str = "euclidean") -> MetricInput:
    """Build a MetricInput from an (n, D) coordinate array."""
    if metric_kind not in _KERNELS:
        raise MetricFormatError(f"unknown metric kind: {metric_kind!r}")
    pts = np.array(points, dtype=float)   # a copy: it is frozen below
    if pts.ndim == 1:
        pts = pts.reshape(-1, 1)
    if pts.ndim != 2 or pts.size < 1:
        raise MetricFormatError("points must form a non-empty 2d array")
    if not np.all(np.isfinite(pts)):
        raise MetricFormatError("points contain non-finite coordinates")
    # each coordinate difference is at most the box side, and the kernel adds
    # them in the same order, so a finite box diagonal bounds every distance;
    # else the exact kernel decides, one row at a time
    box = MetricInput(metric_kind=metric_kind, n=2, points=np.array([pts.min(0), pts.max(0)]))
    raw = MetricInput(metric_kind=metric_kind, n=pts.shape[0], points=pts)
    with np.errstate(over="ignore"):
        if not (np.isfinite(box.distances(0, 1))
                or all(np.isfinite(raw.distances(i)).all() for i in range(raw.n))):
            raise MetricFormatError(f"{metric_kind} distances overflow: the distance "
                                    f"across the bounding box of the points is not finite")
    pairs = cKDTree(pts).query_pairs(_DUPLICATE_RADIUS, p=np.inf, output_type="ndarray")
    iu, ju = pairs[raw.distances(pairs[:, 0], pairs[:, 1]) == 0.0].T
    keep, remap = _deduplicate(raw.n, iu, ju)
    if len(keep) < raw.n:
        pts = pts[keep]
    pts.setflags(write=False)
    return MetricInput(metric_kind=metric_kind, n=pts.shape[0], points=pts,
                       dedup_map=remap)


def from_matrix(matrix) -> MetricInput:
    """Build a MetricInput from an explicit square distance matrix.

    The matrix must be symmetric up to ``MATRIX_TOL`` (entries are averaged),
    have a zero diagonal up to the same tolerance, and be nonnegative.
    Triangle-inequality violations are permitted but produce a warning.
    """
    mat = np.asarray(matrix, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise MetricFormatError(f"distance matrix must be square, got shape {mat.shape}")
    if not mat.size:
        raise MetricFormatError("distance matrix is empty")
    if not np.all(np.isfinite(mat)):
        raise MetricFormatError("distance matrix contains non-finite entries")
    asym = np.abs(mat - mat.T)
    if asym.max() > MATRIX_TOL:
        i, j = np.unravel_index(np.argmax(asym), asym.shape)
        raise MetricFormatError(
            f"asymmetry {asym[i, j]:g} > {MATRIX_TOL:g} at entry ({i}, {j})"
        )
    mat = (mat + mat.T) / 2.0
    diag = np.abs(np.diag(mat))
    if diag.max() > MATRIX_TOL:
        i = int(np.argmax(diag))
        raise MetricFormatError(f"nonzero diagonal {mat[i, i]:g} at index {i}")
    np.fill_diagonal(mat, 0.0)
    if mat.min() < 0.0:
        i, j = np.unravel_index(np.argmin(mat), mat.shape)
        raise MetricFormatError(f"negative distance {mat[i, j]:g} at entry ({i}, {j})")

    keep, remap = _deduplicate(mat.shape[0], *np.nonzero(np.triu(mat == 0.0, k=1)))
    if len(keep) < mat.shape[0]:
        mat = mat[np.ix_(keep, keep)]
    lint_triangle_inequality(mat)
    mat.setflags(write=False)
    return MetricInput(metric_kind=EXPLICIT_MATRIX, n=mat.shape[0], matrix=mat,
                       dedup_map=remap)


_LINT_MIDPOINTS = 128   # lint_triangle_inequality checks at most this many midpoints


def lint_triangle_inequality(mat: np.ndarray) -> bool:
    """Warn if the matrix violates the triangle inequality.

    Checks all midpoints for n <= _LINT_MIDPOINTS, a fixed sample of that
    many otherwise.  Violations are allowed (downstream constructions still
    run) but the approximation guarantees assume a true metric.
    """
    n = mat.shape[0]
    if n < 3:
        return True
    if n <= _LINT_MIDPOINTS:
        mids = range(n)
    else:
        mids = np.random.default_rng(0).choice(n, size=_LINT_MIDPOINTS, replace=False)
    for k in mids:
        slack = mat - (mat[:, k, None] + mat[None, k, :])
        worst = slack.max()
        if worst > MATRIX_TOL:
            i, j = np.unravel_index(np.argmax(slack), slack.shape)
            warnings.warn(
                f"triangle inequality violated: d({i},{j}) exceeds "
                f"d({i},{k}) + d({k},{j}) by {worst:g}; "
                "approximation guarantees assume a true metric"
            )
            return False
    return True


def _parse_rows(path, fmt: str, header: bool,
                rectangular: bool = True) -> list[list[float]]:
    text = Path(path).read_text(encoding="utf-8-sig")   # a leading byte-order mark is dropped
    if fmt not in ("csv", "whitespace"):
        raise MetricFormatError(f"unknown format: {fmt!r}")
    rows: list[list[float]] = []
    width = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if header and lineno == 1:
            continue
        line = raw.strip()
        if not line:
            continue
        fields = [f.strip() for f in line.split(",")] if fmt == "csv" else line.split()
        values = []
        for col, field in enumerate(fields, start=1):
            try:
                values.append(float(field))
            except ValueError:
                raise MetricFormatError(
                    f"{path}: cannot parse {field!r} as a number "
                    f"at row {lineno}, column {col}"
                ) from None
        if width is None:
            width = len(values)
        elif rectangular and len(values) != width:
            raise MetricFormatError(
                f"{path}: inconsistent row width at row {lineno}: "
                f"expected {width} fields, got {len(values)}"
            )
        rows.append(values)
    if not rows:
        raise MetricFormatError(f"{path}: empty input")
    return rows


def load_points(path, fmt: str = "csv", header: bool = False,
                metric_kind: str = "euclidean") -> MetricInput:
    """Load a point cloud from a text file, one point per line."""
    rows = _parse_rows(path, fmt, header)
    return from_points(np.array(rows, dtype=float), metric_kind=metric_kind)


def load_matrix(path, fmt: str = "csv", header: bool = False) -> MetricInput:
    """Load an explicit square distance matrix from a text file."""
    rows = _parse_rows(path, fmt, header, rectangular=False)
    n = len(rows)
    if any(len(r) != n for r in rows):
        bad = next(i for i, r in enumerate(rows) if len(r) != n)
        raise MetricFormatError(
            f"{path}: non-square matrix ({n} rows, row {bad + 1} has {len(rows[bad])} entries)"
        )
    return from_matrix(np.array(rows, dtype=float))
