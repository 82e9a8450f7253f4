"""Brute-force references for the ring axioms and for homomorphisms.

rings._verify_ring proves associativity of + and *, and distributivity,
by reduction to an additive generating set, and rings.Homomorphism
checks its two equations on the rows of the same generators. The
literal n^3 scan and the literal comparison over all n^2 pairs are the
references the tests hold those reductions to.
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


def homomorphism_literal(source, target, mapping) -> dict[str, np.ndarray]:
    """For + and for *, the n x n mask of the pairs (a, b) of source
    elements at which f(a op b) != f(a) op f(b). A map with f(0) = 0 and
    f(1) = 1 is a unital homomorphism exactly when both masks are empty."""
    f = np.asarray(mapping)
    images = np.ix_(f, f)
    return {"+": f[source.add] != target.add[images],
            "*": f[source.mul] != target.mul[images]}
