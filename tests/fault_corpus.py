"""The theorem checks on rings with damaged unit data, for the failure path.

Each of ten small rings has its largest unit marked as a nonunit, as if
the unit scan over its multiplication table had gone wrong, and the list
is repeated three times so that checks with many failures truncate them.
Each check runs on its own, on freshly built and damaged rings, and is
rendered with `render_checks`. `tests/golden/verify_fault.txt` holds the
output, so the failure records, the truncation lines and the outcomes
stay byte-stable.

A ring's unit data cannot be rebound or written, so the damage is done
by replacing the ring's _Proven record with a forged copy that holds
the damaged unit data. The copy is in no registry and so stays with
the ring it was given to. Each build with the same tables, whether a
repeat in the list or a ring that a check derives (a quotient by the
zero ideal, say), starts from the unit data that the verification of
those tables found.

Regenerate the golden only when an output is meant to change:

    PYTHONPATH=src python tests/fault_corpus.py > tests/golden/verify_fault.txt
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

from idealis import CHECK_ORDER, CHECKS, build_ring_text
from idealis.cli import render_checks
from idealis.rings import _Proven

GOLDEN = Path(__file__).parent / "golden" / "verify_fault.txt"

FAULT_TEXTS = ("Z8", "Z12", "Z2 x Z2", "LocalAlg(2)", "Z9", "Z30",
               "Z6 x Z4", "Z4 x Z4", "Idealize(Z4, (2))", "Z27")
REPEATS = 3


def corrupt_unit_scan(r, fake_nonunit):
    """Give the ring a damaged copy of its proof record, as if the unit
    scan over the multiplication table had gone wrong: the same tables
    and generators, fake_nonunit marked a nonunit, an empty scan memo and
    no class record."""
    proven = r._proven
    unit_mask = proven.unit_mask.copy()
    unit_mask[fake_nonunit] = False
    r._proven = _Proven(proven.add, proven.mul, proven.generators, unit_mask)
    return r


def damaged_unit(r) -> int:
    """The unit the fault corpus marks a nonunit: the ring's largest."""
    return int(np.flatnonzero(r.unit_mask)[-1])


def fault_rings():
    """The damaged corpus: FAULT_TEXTS REPEATS times, each a new ring."""
    rings = []
    for _ in range(REPEATS):
        for text in FAULT_TEXTS:
            r = build_ring_text(text)
            rings.append(corrupt_unit_scan(r, damaged_unit(r)))
    return rings


def render_fault_corpus() -> str:
    blocks = [render_checks([CHECKS[check_id](fault_rings())])
              for check_id in CHECK_ORDER]
    return "\n".join(blocks) + "\n"


if __name__ == "__main__":
    sys.stdout.write(render_fault_corpus())
