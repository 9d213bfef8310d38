"""Seeded workload inputs, generated by the benchmark's own code.

Inputs come from Python's ``random.Random`` seeded with a string, whose
stream is fixed across Python versions, and not from
``sparse_rips.generators`` or numpy's generators: a change to the package
or to numpy cannot change what the benchmark feeds it.
"""

from __future__ import annotations

import math
import random

#: digests are recorded for this many instances per workload; a workload
#: seed picks its instances modulo this pool
POOL = 32

EPSILON = 1.0 / 3.0
K = 2

PIPELINE_N = 300
ROUNDTRIP_N = 3000
BATTERY_N = 48
BATTERY_SAMPLES = 16
BATTERY_EPSILONS = (1.0 / 3.0, 0.2)
SHAPES = ("uniform2d", "uniform3d", "circle", "clusters")


def seeded_rng(*key) -> random.Random:
    return random.Random(":".join(str(part) for part in key))


def uniform(n: int, dim: int, rng: random.Random) -> list[list[float]]:
    """n points uniform in the unit cube of dimension ``dim``."""
    return [[rng.random() for _ in range(dim)] for _ in range(n)]


def noisy_circle(n: int, rng: random.Random, noise: float = 0.05) -> list[list[float]]:
    """n equally spaced angles on the unit circle with uniform radial noise."""
    out = []
    for i in range(n):
        theta = 2.0 * math.pi * i / n
        r = 1.0 + rng.uniform(-noise, noise)
        out.append([r * math.cos(theta), r * math.sin(theta)])
    return out


def two_clusters(n: int, rng: random.Random, separation: float = 4.0,
                 spread: float = 0.5) -> list[list[float]]:
    """Two gaussian clusters of n // 2 and n - n // 2 points."""
    half = n // 2
    return [[(separation if i >= half else 0.0) + rng.gauss(0.0, spread),
             rng.gauss(0.0, spread)] for i in range(n)]


def shape_points(shape: str, n: int, rng: random.Random) -> list[list[float]]:
    if shape == "uniform2d":
        return uniform(n, 2, rng)
    if shape == "uniform3d":
        return uniform(n, 3, rng)
    if shape == "circle":
        return noisy_circle(n, rng)
    if shape == "clusters":
        return two_clusters(n, rng)
    raise ValueError(f"unknown shape {shape!r}")


def pipeline_points(instance: int, n: int = PIPELINE_N) -> list[list[float]]:
    return uniform(n, 2, seeded_rng("pipeline", n, instance))


def roundtrip_points(instance: int, n: int = ROUNDTRIP_N) -> list[list[float]]:
    return uniform(n, 2, seeded_rng("build_roundtrip", n, instance))


def battery_instances(instance: int, n: int = BATTERY_N):
    """One (shape, epsilon, points) triple per shape.

    The epsilon alternates between shapes and between consecutive
    instances, so every iteration has the same mix of two of each.
    """
    return [(shape, BATTERY_EPSILONS[(i + instance) % 2],
             shape_points(shape, n, seeded_rng("verify_battery", n, instance, shape)))
            for i, shape in enumerate(SHAPES)]


def points_csv(points) -> str:
    """CSV text with exact (repr) coordinates, one point per line."""
    return "".join(",".join(repr(x) for x in p) + "\n" for p in points)
