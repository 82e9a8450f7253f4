"""Definitional reference for the six classifiers and the 1-triple zeros.

Each key builds its whole violation cube from the definition, n^2 for
the prime pair and n^3 for the others, and its witness is the first
index np.argwhere returns, which is the lexicographically least. The
1-triple zeros are every index of their cube, in the same order. The
scans in idealis.classify must agree with all of it. The cubes need n^3
memory, so rings above 64 elements are checked against the plane
searches at the end of this module instead. oracle_characterize decides
the six conditions of tmm_characterize from their definitions, (iv) to
(vi) as cubes over nonunits and lattice members.
"""

import numpy as np

from idealis import Ideal, all_ideals


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


# Plane searches, the reference above 64 elements: the whole n x n plane
# for the prime family, and one (y, z) plane per x for the 2-absorbing
# and 1-absorbing families. They run on rings of a few hundred elements,
# where the cubes above would not fit.


def _least_plane_hits(planes, zero: int) -> tuple[tuple | None, tuple | None]:
    """The strict and weak witnesses, first hits row-major. A plane is
    (head, ys, zs, viol, prods), head the coordinates before y and z."""
    strict = None
    for head, ys, zs, viol, prods in planes:
        if not viol.any():
            continue
        if strict is None:
            i, j = np.argwhere(viol)[0]
            strict = head + (int(ys[i]), int(zs[j]))
        weak = viol & (prods != zero)
        if weak.any():
            i, j = np.argwhere(weak)[0]
            return strict, head + (int(ys[i]), int(zs[j]))
    return strict, None


def plane_prime(p: Ideal) -> tuple[tuple | None, tuple | None]:
    """The strict and weak prime witnesses, over every x and y."""
    mask, mul = p.mask, p.ring.mul
    every = np.arange(p.ring.size)
    viol = mask[mul] & ~mask[:, None] & ~mask[None, :]
    return _least_plane_hits([((), every, every, viol, mul)], p.ring.zero)


def _two_absorbing_planes(p: Ideal):
    """One plane per element x, over every y and z."""
    mask, mul = p.mask, p.ring.mul
    every = np.arange(p.ring.size)
    yz_in = mask[mul]
    for x in range(p.ring.size):
        xrow = mul[x]
        x_in = mask[xrow]
        plane = mul[xrow]
        viol = mask[plane] & ~x_in[:, None] & ~x_in[None, :] & ~yz_in
        yield (x,), every, every, viol, plane


def plane_two_absorbing(p: Ideal) -> tuple[tuple | None, tuple | None]:
    """The strict and weak 2-absorbing witnesses."""
    return _least_plane_hits(_two_absorbing_planes(p), p.ring.zero)


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
            yield (x,), nu[keep], zs, mask[plane], plane


def plane_one_absorbing(p: Ideal) -> tuple[tuple | None, tuple | None]:
    """The strict and weak 1-absorbing witnesses."""
    return _least_plane_hits(_one_absorbing_planes(p), p.ring.zero)


def plane_triple_zeros(p: Ideal) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every violation of the planes as parallel x, y, z arrays: the
    1-triple zeros when P is weakly 1-absorbing prime."""
    empty = np.empty(0, dtype=np.intp)
    xs, ys, zs = [empty], [empty], [empty]
    for (x,), yc, zc, viol, _ in _one_absorbing_planes(p):
        yi, zi = np.nonzero(viol)
        xs.append(np.full(len(yi), x, dtype=np.intp))
        ys.append(yc[yi])
        zs.append(zc[zi])
    return np.concatenate(xs), np.concatenate(ys), np.concatenate(zs)


def oracle_characterize(p: Ideal) -> dict[str, bool]:
    """The six conditions of tmm_characterize, over every nonunit x and
    y and every w = x*y outside P: (i) by the 1-absorbing planes, (ii)
    and (iii) by the colon rows of the w, and (iv) to (vi) as cubes.
    x*Q lies in P when no q in Q has x*q outside P, and is nonzero when
    some q in Q has x*q != 0, both counted over the member masks of the
    lattice; the set {x*i*j} lies in P iff x*(IJ) does, and is nonzero
    iff x*(IJ) is. The lattice's containment matrix and product table
    are taken as given: lattice_oracle checks them."""
    ring, mask = p.ring, p.mask
    mul, zero = ring.mul, ring.zero
    nu = ring.nonunits
    out = {"i": plane_one_absorbing(p)[1] is None}

    ws = np.unique(mul[np.ix_(nu, nu)])
    ws = ws[~mask[ws]]
    wz = mul[ws]
    col, ann = mask[wz], wz == zero
    out["ii"] = bool((col == (mask | ann)).all())
    out["iii"] = bool(((col == mask).all(axis=1)
                       | (col == ann).all(axis=1)).all())

    lat = all_ideals(ring)
    kp = len(lat) - 1
    le_p = lat.le[:, lat.index(p)]
    members = lat.masks.T.astype(np.float32)            # [q, Q]: q in Q
    keys = np.concatenate([ws, nu])
    xin = (~mask[mul[keys]]).astype(np.float32) @ members == 0
    xnz = (mul[keys] != zero).astype(np.float32) @ members > 0
    viol4 = xin[:len(ws), :kp] & xnz[:len(ws), :kp] & ~le_p[None, :kp]
    out["iv"] = not viol4.any()

    pt = lat.product_table
    pr = pt[:kp, :kp]
    xin, xnz = xin[len(ws):], xnz[len(ws):]
    lhs = xnz[:, pr] & xin[:, pr]
    viol5 = lhs & ~xin[:, :kp, None] & ~le_p[None, None, :kp]
    out["v"] = not viol5.any()

    prod3 = pt[pr][:, :, :kp]
    viol6 = ((prod3 != 0) & le_p[prod3]
             & ~le_p[pr][:, :, None] & ~le_p[None, None, :kp])
    out["vi"] = not viol6.any()
    return out
