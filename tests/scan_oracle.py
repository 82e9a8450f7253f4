"""Definitional reference for the six classifiers and the 1-triple zeros.

Each key builds its whole violation cube from the definition, n^2 for
the prime pair and n^3 for the others, and its witness is the first
index np.argwhere returns, which is the lexicographically least. The
1-triple zeros are every index of their cube, in the same order. The
scans in idealis.classify must agree with all of it. The cubes need n^3
memory, so rings above 64 elements are checked against the per-x plane
search at the end of this module instead.
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


# A per-x plane search for the 1-absorbing family, the reference above
# 64 elements. It holds one (y, z) plane at a time, so it runs on rings
# of a few hundred elements, where the cubes above would not fit.


def _one_absorbing_planes(p: Ideal):
    """One plane per nonunit x, over nonunits y with x*y outside P and
    nonunits z outside P, in lex order."""
    mask, mul = p.mask, p.ring.mul
    nu = p.ring.nonunits
    zs = nu[~mask[nu]]
    for x in nu.tolist():
        xy = mul[x, nu]
        keep = ~mask[xy]
        if keep.any():
            plane = mul[np.ix_(xy[keep], zs)]
            yield x, nu[keep], zs, mask[plane], plane


def plane_one_absorbing(p: Ideal) -> tuple[tuple | None, tuple | None]:
    """The strict and weak 1-absorbing witnesses, first hits row-major."""
    strict = None
    for x, ys, zs, viol, prods in _one_absorbing_planes(p):
        if not viol.any():
            continue
        if strict is None:
            i, j = np.argwhere(viol)[0]
            strict = (x, int(ys[i]), int(zs[j]))
        weak = viol & (prods != p.ring.zero)
        if weak.any():
            i, j = np.argwhere(weak)[0]
            return strict, (x, int(ys[i]), int(zs[j]))
    return strict, None


def plane_triple_zeros(p: Ideal) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every violation of the planes as parallel x, y, z arrays: the
    1-triple zeros when P is weakly 1-absorbing prime."""
    empty = np.empty(0, dtype=np.intp)
    xs, ys, zs = [empty], [empty], [empty]
    for x, yc, zc, viol, _ in _one_absorbing_planes(p):
        yi, zi = np.nonzero(viol)
        xs.append(np.full(len(yi), x, dtype=np.intp))
        ys.append(yc[yi])
        zs.append(zc[zi])
    return np.concatenate(xs), np.concatenate(ys), np.concatenate(zs)
