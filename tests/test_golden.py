"""Byte-identity of the library's outputs on fixed inputs.

Each case builds one filtration and checks the sha256 of its
``filtration_text`` and of the ``diagram_to_json`` of its persistence
diagram.  The digests were recorded on the object-per-simplex
implementation that the array-backed filtration replaced, so a refactor
of the filtration or of the reduction must reproduce its output exactly.
"""

import hashlib

import numpy as np
import pytest

import sparse_rips as sr

GOLDEN = {
    "sparse_k2": ("9636ee26126e9cc00d1d805790f1da0244a625d78d94a65175629f82fd8884ad",
                  "eea8e2a93f728f81512045335baabec47d0c7497a534eb3643f2981b50d94aa3"),
    "sparse_k3": ("2274198f349c5845a6ffb773e8282e105a4c90738b95056f5dc9b94f40bd250b",
                  "7fdc452950c2be0d53caf9fe5cff7c3f1ba80ca8b84aa3dbeac4c07e12378400"),
    "grid_full_rips": ("e679cb0e0f4feec708891c4fea728131f9d9da5955fc5057adf817af0532093d",
                       "e36fc10ff5a912e0b028dfac14d0fbf1acf1485e90d42e7414713f04c34bfef1"),
    "static_q_closed": ("eab8ce6fb8e50777506a66b5756dd798a604be03d2a66ab49a72d6b4488d6e21",
                        "0d7e2accb9b01206b595b953a467ff5a9b0d8682511bff7650a398d807fbb117"),
}


def build(name):
    pts = np.random.default_rng(61).random((60, 2))
    if name == "sparse_k2":
        return sr.build_sparse(sr.from_points(pts), 1 / 3, 2)
    if name == "sparse_k3":
        return sr.build_sparse(sr.from_points(pts[:30]), 0.2, 3)
    if name == "grid_full_rips":  # integer distances tie in large groups
        grid = sr.from_points([[i, j] for i in range(4) for j in range(4)])
        return sr.full_rips(grid, 2.0, 3)
    # a snapshot on a vertex subset: the closed net of a noisy circle
    rng = np.random.default_rng(62)
    theta = rng.uniform(0, 2 * np.pi, 24)
    m = sr.from_points(np.c_[np.cos(theta), np.sin(theta)] + rng.normal(0, 0.05, (24, 2)))
    return sr.static_complex(m, sr.WeightContext.build(m, 0.1), 0.8, "Q_closed", 2)


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_outputs_are_byte_identical(name):
    f = build(name)
    text_digest, diagram_digest = GOLDEN[name]
    assert sha256(sr.filtration_text(f)) == text_digest
    assert sha256(sr.diagram_to_json(sr.compute_persistence(f))) == diagram_digest
