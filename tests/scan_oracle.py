"""Definitional reference for the six classifiers and the 1-triple zeros.

Each key builds its whole violation cube from the definition, n^2 for
the prime pair and n^3 for the others, and its witness is the first
index np.argwhere returns, which is the lexicographically least. The
1-triple zeros are every index of their cube, in the same order. The
scans in idealis.classify must agree with all of it.
"""

import numpy as np

from idealis import Ideal


def _cube_parts(p: Ideal):
    """x*y*z for every triple, and which triples are all nonunits."""
    ring = p.ring
    xyz = ring.mul[ring.mul[:, :, None], np.arange(ring.size)[None, None, :]]
    nu = ~ring.unit_mask
    return xyz, nu[:, None, None] & nu[None, :, None] & nu[None, None, :]


def oracle_witnesses(p: Ideal) -> dict[str, tuple | None]:
    mask, mul, zero = p.mask, p.ring.mul, p.ring.zero
    xyz, nonunits = _cube_parts(p)
    xy_in = mask[mul]
    prime = xy_in & ~mask[:, None] & ~mask[None, :]
    two = (mask[xyz] & ~xy_in[:, :, None] & ~xy_in[:, None, :]
           & ~xy_in[None, :, :])
    one = nonunits & mask[xyz] & ~xy_in[:, :, None] & ~mask[None, None, :]
    cubes = {
        "prime": prime,
        "weaklyPrime": prime & (mul != zero),
        "twoAbsorbing": two,
        "weaklyTwoAbsorbing": two & (xyz != zero),
        "oneAbsorbingPrime": one,
        "weaklyOneAbsorbingPrime": one & (xyz != zero),
    }
    out = {}
    for key, cube in cubes.items():
        hits = np.argwhere(cube)
        out[key] = tuple(int(a) for a in hits[0]) if len(hits) else None
    return out


def oracle_triple_zeros(p: Ideal) -> list[tuple[int, int, int]]:
    """Nonunits (x, y, z) with x*y*z = 0, x*y outside P and z outside P."""
    mask = p.mask
    xyz, nonunits = _cube_parts(p)
    cube = (nonunits & (xyz == p.ring.zero) & ~mask[p.ring.mul][:, :, None]
            & ~mask[None, None, :])
    return [tuple(int(a) for a in t) for t in np.argwhere(cube)]
