"""Every attribute of a ring, a lattice or an ideal is declared.

A FiniteRing, IdealLattice or Ideal gets all its attributes in __init__;
the only instance-dict entries that may appear later are the values of
the class's own cached_property descriptors. So classifying, checking
and printing never attach anything to these objects.
"""

from functools import cached_property

import pytest

from idealis import (
    all_ideals,
    build_ring_text,
    classify,
    ideal_gen,
    ideal_text,
    run_checks,
)

FAMILIES = (
    "Z12",
    "Z2 x Z4/(2)",
    "Z12/(4)",
    "Loc(Z12, 1, 3, 9)",
    "Idealize(Z4, (2))",
    "LocalAlg(2)",
)


def _late_keys(obj, before: set[str]) -> set[str]:
    cached = {name for klass in type(obj).__mro__
              for name, value in vars(klass).items()
              if isinstance(value, cached_property)}
    assert before <= set(vars(obj))
    return set(vars(obj)) - before - cached


def _parts(ring):
    """The ring and every ring its declared structure reaches."""
    out = [ring]
    for part in (ring.factors or ()):
        out += _parts(part)
    if ring.idealization is not None:
        out += _parts(ring.idealization[0])
    return out


@pytest.mark.parametrize("text", FAMILIES)
def test_no_attribute_is_attached_after_construction(text):
    ring = build_ring_text(text)
    rings = _parts(ring)
    ring_keys = [set(vars(r)) for r in rings]
    own = ideal_gen(ring, [ring.zero])
    own_keys = set(vars(own))

    lat = all_ideals(ring)
    lat_keys = set(vars(lat))
    ideal_keys = [set(vars(p)) for p in lat]
    for p in lat.proper:
        classify(p)
    classify(own)
    run_checks([ring])
    for p in lat:
        ideal_text(p)

    for r, before in zip(rings, ring_keys):
        assert _late_keys(r, before) == set(), r.text
    assert _late_keys(lat, lat_keys) == set()
    for p, before in zip(lat, ideal_keys):
        assert _late_keys(p, before) == set(), ideal_text(p)
    assert _late_keys(own, own_keys) == set()
