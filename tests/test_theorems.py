"""Structural checks: targeted corpora, vacuity accounting, the Z_n
classification table, corpus hashing, and fault injection.

Each check must pass on a corpus chosen to make its hypotheses
non-vacuous, and a deliberately corrupted ring must produce a recorded
counterexample rather than a crash or a silent pass.
"""

import numpy as np
import pytest

from idealis import (
    CHECK_ORDER,
    CHECKS,
    all_ideals,
    build_corpus,
    corpus_hash,
    default_corpus_exprs,
    make_local_algebra,
    make_zn,
    run_checks,
    zn_classification,
)
from idealis.theorems import (
    all_proper_w1ap,
    non_w1ap_ideal,
    zn_arithmetic_predicate,
    zn_boundary_flagged,
)

DEFAULT_HASH = "5441a8e585026433c38f72b48bb670dee9d8b0409e9bbb7e87ad3ebd4031164b"


def _rings(*texts):
    from idealis import build_ring_text
    return [build_ring_text(t) for t in texts]


def _one(check_id, rings):
    return CHECKS[check_id](rings)


def test_check_order_is_complete():
    assert len(CHECK_ORDER) == 17
    assert set(CHECK_ORDER) == set(CHECKS)


def test_default_corpus_is_pinned():
    exprs = default_corpus_exprs()
    assert len(exprs) == 260
    assert corpus_hash(exprs) == DEFAULT_HASH
    assert corpus_hash() == DEFAULT_HASH


def test_all_proper_w1ap_golden_rings():
    assert all_proper_w1ap(make_zn(8))
    assert all_proper_w1ap(make_zn(27))
    assert all_proper_w1ap(make_zn(6))
    assert not all_proper_w1ap(make_zn(16))
    assert not all_proper_w1ap(make_zn(12))
    assert all_proper_w1ap(make_local_algebra(2))
    bad = non_w1ap_ideal(make_zn(16))
    assert bad is not None and bad.elements == (0, 8)
    assert non_w1ap_ideal(make_zn(8)) is None


def test_radical_check_on_reduced_rings():
    c = _one("radical_weakly_prime", _rings("Z30", "Z6", "Z12"))
    assert c.outcome == "pass"
    assert c.tested > 0 and c.vacuous > 0      # Z12 ideals are vacuous


def test_hom_transfer_check():
    c = _one("hom_transfer", _rings("Z12", "Z8", "Z2 x Z3"))
    assert c.outcome == "pass" and c.tested > 0


def test_quotient_transfer_check():
    c = _one("quotient_transfer", _rings("Z16", "Z12", "Z8"))
    assert c.outcome == "pass" and c.tested > 0


def test_localization_transfer_check():
    c = _one("localization_transfer", _rings("Z12", "Z30"))
    assert c.outcome == "pass" and c.tested > 0
    assert "converse" in c.detail


def test_nonlocal_equivalence_check():
    c = _one("nonlocal_equivalence", _rings("Z12", "Z30", "Z8"))
    assert c.outcome == "pass"
    assert c.tested > 0 and c.vacuous > 0


def test_colon_characterization_check():
    rings = _rings("Z12", "Z30", "Z16", "LocalAlg(2)")
    c = _one("colon_characterization", rings)
    assert c.outcome == "pass"
    assert c.tested == sum(len(all_ideals(r)) - 1 for r in rings)


def test_triple_zero_check():
    c = _one("triple_zero_annihilation", _rings("Z12", "Z6", "Z8"))
    assert c.outcome == "pass" and c.tested > 0


def test_reduced_triple_zero_check():
    # Z30 with P = (0) carries the triple (2, 3, 5), so the check is
    # non-vacuous and forces P = (0)
    c = _one("reduced_triple_zero", _rings("Z30", "Z6"))
    assert c.outcome == "pass" and c.tested >= 1


def test_idealization_transfer_check():
    corpus = [line for line in ("Idealize(Z4, (0))", "Idealize(Z4, (2))",
                                "Idealize(Z6, (2))")]
    c = _one("idealization_transfer", _rings(*corpus))
    assert c.outcome == "pass" and c.tested > 0


def test_product_prime_shape_check():
    c = _one("product_prime_shape", _rings("Z4 x Z4", "Z4 x Z9", "Z6 x Z4"))
    assert c.outcome == "pass" and c.tested > 0


def test_product_all_ideals_check():
    c = _one("product_all_ideals",
             _rings("Z2 x Z3", "Z2 x Z2 x Z2", "Z4 x Z2", "Z5 x Z7"))
    assert c.outcome == "pass" and c.tested == 4


def test_jacobson_dichotomy_check():
    c = _one("jacobson_dichotomy", _rings("Z8", "Z6", "Z27", "LocalAlg(2)"))
    assert c.outcome == "pass" and c.tested == 4


def test_local_cube_zero_check():
    c = _one("local_cube_zero", _rings("Z8", "Z16", "Z27", "Z25", "LocalAlg(3)"))
    assert c.outcome == "pass" and c.tested == 5


def test_local_square_one_absorbing_check():
    c = _one("local_square_one_absorbing", _rings("Z4", "Z9", "LocalAlg(2)", "Z8"))
    assert c.outcome == "pass"
    assert c.tested == 3 and c.vacuous == 1    # Z8 has m^2 != 0


def test_two_maximal_bound_check():
    c = _one("two_maximal_bound", _rings("Z8", "Z6", "Z30", "LocalAlg(2)"))
    assert c.outcome == "pass" and c.tested == 3


def test_global_classification_check():
    c = _one("global_classification",
             _rings("Z8", "Z6", "Z12", "Z2 x Z2", "LocalAlg(2)", "Z30"))
    assert c.outcome == "pass" and c.tested == 6


def test_zn_table_check():
    c = _one("zn_table", _rings("Z8", "Z6", "Z12", "Z30", "Z5", "Z9"))
    assert c.outcome == "pass"
    assert c.tested == 4 and c.vacuous == 2    # Z5 prime, Z9 = 3^2 flagged


def test_zn_arithmetic_predicate():
    assert zn_arithmetic_predicate(8)
    assert zn_arithmetic_predicate(27)
    assert zn_arithmetic_predicate(6)
    assert zn_arithmetic_predicate(35)
    assert not zn_arithmetic_predicate(12)
    assert not zn_arithmetic_predicate(16)
    assert not zn_arithmetic_predicate(30)
    assert not zn_arithmetic_predicate(36)


def test_zn_boundary_flag():
    assert zn_boundary_flagged(2) and zn_boundary_flagged(13)
    assert zn_boundary_flagged(4) and zn_boundary_flagged(49)
    assert not zn_boundary_flagged(8) and not zn_boundary_flagged(6)


def test_zn_classification_slice():
    rows = zn_classification(30)
    assert [row["n"] for row in rows] == list(range(2, 31))
    for row in rows:
        n = row["n"]
        assert row["predicted"] == zn_arithmetic_predicate(n)
        assert row["flagged"] == zn_boundary_flagged(n)
        if not row["flagged"]:
            assert row["verdict"] == row["predicted"]
    # the flagged boundary is exactly where engine and predicate part ways
    for row in rows:
        if row["flagged"]:
            assert row["verdict"] and not row["predicted"]


def test_vacuous_outcome_on_empty_corpus():
    for check_id in CHECK_ORDER:
        c = CHECKS[check_id]([])
        assert c.outcome == "vacuous"
        assert c.tested == 0 and not c.failures


def test_run_checks_order():
    checks = run_checks(_rings("Z6"))
    assert [c.check_id for c in checks] == list(CHECK_ORDER)


def test_build_corpus_default():
    rings = build_corpus()
    assert len(rings) == 260
    assert rings[0].text == "Z2"


def _corrupt_unit_scan(r, fake_nonunit):
    """Test hook: damage the ring's derived unit data in place, as if the
    unit scan over the multiplication table had gone wrong."""
    um = r.unit_mask.copy()
    um[fake_nonunit] = False
    r.unit_mask = um
    r.units = frozenset(int(u) for u in np.flatnonzero(um))
    r.nonunits = np.flatnonzero(~um).astype(np.int32)
    r._scans = {}       # the scan memo belongs to the tables it was proved on
    return r


def test_fault_injection_is_detected():
    bad = _corrupt_unit_scan(make_zn(8), 7)
    checks = run_checks([bad])
    failing = [c for c in checks if c.outcome == "fail"]
    assert failing
    ids = {c.check_id for c in failing}
    assert "zn_table" in ids and "local_cube_zero" in ids
    for c in failing:
        for f in c.failures:
            assert f["ring"] == "Z8"
            assert f["note"]
    # the recorded counterexample re-checks as violating: the engine
    # verdict on the corrupted ring really is False
    assert not all_proper_w1ap(bad)
    wit = non_w1ap_ideal(bad)
    assert wit is not None and wit.elements == (0, 4)


def test_corrupt_table_cannot_reach_the_harness():
    # direct table damage breaks ideal closure, which every lattice
    # construction validates, so the corruption is caught before any
    # theorem check runs
    r = make_zn(9)
    mul = np.array(r.mul)
    mul[2, 2] = 1
    r.mul = mul
    with pytest.raises(ValueError):
        all_ideals(r)


def test_corrupt_add_table_cannot_reach_the_harness():
    # 3 + 3 = 7 breaks additive closure of (3) = {0, 3, 6}
    r = make_zn(9)
    add = np.array(r.add)
    add[3, 3] = 7
    r.add = add
    with pytest.raises(ValueError):
        all_ideals(r)


def test_corpus_hash_tracks_content():
    a = corpus_hash(_e("Z2", "Z3"))
    b = corpus_hash(_e("Z3", "Z2"))
    c = corpus_hash(_e("Z2", "Z3"))
    assert a == c and a != b


def _e(*texts):
    from idealis import parse_ring
    return [parse_ring(t) for t in texts]
