"""Brute-force reference for the triple-quantified ring axioms.

rings._verify_ring proves associativity of + and *, and distributivity,
by reduction to an additive generating set. This literal n^3 scan is
the reference the tests hold that reduction to.
"""

import numpy as np


def verify_triples_literal(add: np.ndarray, mul: np.ndarray) -> None:
    # brute-force cubes; only run for small rings
    if not np.array_equal(add[add], add[:, add]):
        x, y, z = np.argwhere(add[add] != add[:, add])[0]
        raise ValueError(f"+ not associative at ({x}, {y}, {z})")
    if not np.array_equal(mul[mul], mul[:, mul]):
        x, y, z = np.argwhere(mul[mul] != mul[:, mul])[0]
        raise ValueError(f"* not associative at ({x}, {y}, {z})")
    lhs = mul[:, add]
    rhs = add[mul[:, :, None], mul[:, None, :]]
    if not np.array_equal(lhs, rhs):
        x, y, z = np.argwhere(lhs != rhs)[0]
        raise ValueError(f"* not distributive at ({x}, {y}, {z})")
