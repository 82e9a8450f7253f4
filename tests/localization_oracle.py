"""Pair-equivalence reference for localization, kept for differential tests.

S^-1 r is built straight from the definition: every pair (a, t) with
t in S, where (a, t) ~ (b, u) iff v*(a*u - b*t) = 0 for some v in S.
Pair (a, t) has index a*|S| + (position of t in sorted S), and each
class is numbered by its least pair. The m x m tables, m = |r|*|S|,
are refused above 8192 pairs. make_localization must agree with all of
it wherever this reference builds.
"""

from typing import Iterable

import numpy as np

from idealis import (
    CapExceeded,
    FiniteRing,
    Homomorphism,
    NotMultClosed,
    ZeroInS,
    element_cap,
)
from idealis.expr import Localize
from idealis.rings import element_literal

PAIR_CAP = 8192


def oracle_localization(r: FiniteRing, s: Iterable[int],
                        cap: int | None = None) -> tuple[FiniteRing, Homomorphism]:
    s_idx = np.asarray(sorted({int(a) for a in s}), dtype=np.intp)
    if len(s_idx) == 0:
        raise NotMultClosed("S is empty")
    if (s_idx < 0).any() or (s_idx >= r.size).any():
        raise ValueError("S contains indices outside the ring")
    if r.zero in s_idx:
        raise ZeroInS("S contains 0")
    if r.one not in s_idx:
        raise NotMultClosed("S does not contain 1")
    in_s = np.zeros(r.size, dtype=bool)
    in_s[s_idx] = True
    if not in_s[r.mul[np.ix_(s_idx, s_idx)]].all():
        raise NotMultClosed("S is not closed under multiplication")

    ns = len(s_idx)
    m = r.size * ns
    if m > PAIR_CAP:
        raise CapExceeded(f"localization pair table would have {m}^2 entries")
    a_vec = np.repeat(np.arange(r.size, dtype=np.intp), ns)
    t_vec = np.tile(s_idx, r.size)
    s_pos = np.full(r.size, -1, dtype=np.intp)
    s_pos[s_idx] = np.arange(ns)

    # d is killable iff some v in S annihilates it
    kill = (r.mul[s_idx] == r.zero).any(axis=0)

    neg = (r.add == r.zero).argmax(axis=1)             # neg[a] + a = 0
    term = r.mul[a_vec[:, None], t_vec[None, :]]      # [p, q] = a_p * t_q
    diff = r.add[term, neg[term.T]]
    eq = kill[diff]                                    # pair equivalence
    if not (eq.T == eq).all() or not eq.diagonal().all():
        raise ValueError("pair equivalence failed to be symmetric/reflexive")
    cls_rep = eq.argmax(axis=1)                        # least equivalent pair
    if not (cls_rep[cls_rep] == cls_rep).all():
        raise ValueError("pair equivalence failed to be transitive")
    reps = np.unique(cls_rep)
    k = len(reps)
    limit = element_cap() if cap is None else cap
    if k > limit:
        raise CapExceeded(f"ring would have {k} elements, cap is {limit}")
    rank = np.full(m, -1, dtype=np.int32)
    rank[reps] = np.arange(k, dtype=np.int32)
    pair_class = rank[cls_rep]

    ra = a_vec[reps]
    rt = t_vec[reps]
    num = r.add[r.mul[ra[:, None], rt[None, :]], r.mul[ra[None, :], rt[:, None]]]
    den_pos = s_pos[r.mul[rt[:, None], rt[None, :]]]
    q_add = pair_class[num.astype(np.int64) * ns + den_pos]
    q_mul = pair_class[r.mul[ra[:, None], ra[None, :]].astype(np.int64) * ns + den_pos]

    one_pos = int(s_pos[r.one])
    zero_c = int(pair_class[r.zero * ns + one_pos])
    one_c = int(pair_class[r.one * ns + one_pos])
    lits = tuple(element_literal(r, int(a)) for a in s_idx)
    ring = FiniteRing(q_add, q_mul, zero_c, one_c, Localize(r.provenance, lits), cap=cap)
    can = pair_class[np.arange(r.size, dtype=np.int64) * ns + one_pos]
    return ring, Homomorphism(r, ring, can)
