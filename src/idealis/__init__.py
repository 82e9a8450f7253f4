"""idealis: exact classification of prime-like ideals in finite
commutative rings with identity.

The engine represents a ring by dense addition and multiplication
tables, enumerates its full ideal lattice, decides six ideal classes
(prime, weakly prime, 2-absorbing, weakly 2-absorbing, 1-absorbing
prime, weakly 1-absorbing prime) with lexicographically least
counterexample witnesses, and runs a battery of structural checks
over corpora of constructed rings.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .classify import (
    IMPLICATIONS,
    VERDICT_KEYS,
    PropertyReport,
    Verdict,
    classify,
    find_one_triple_zeros,
    is_one_absorbing_prime,
    is_prime,
    is_two_absorbing,
    is_weakly_one_absorbing_prime,
    is_weakly_prime,
    is_weakly_two_absorbing,
    tmm_characterize,
    witness_violates,
)
from .dsl import (
    build_ring,
    build_ring_text,
    ideal_text,
    parse_ideal,
    parse_ideal_literals,
    parse_ring,
    print_expr,
    print_ideal_literal,
    resolve_literal,
)
from .errors import (
    CapExceeded,
    ElementOutOfRange,
    EngineError,
    ImproperIdeal,
    LatticeCapExceeded,
    NotMultClosed,
    NotPrime,
    NotW1AP,
    ParseError,
    RingMismatch,
    ZeroInS,
)
from .expr import Idealize, LocalAlg, Localize, Product, Quotient, RingExpr, Zn
from .ideals import (
    Ideal,
    IdealLattice,
    all_ideals,
    annihilator,
    annihilator_ideal,
    colon,
    colon_ideal,
    ideal_gen,
    ideal_intersect,
    ideal_product,
    ideal_sum,
    image_ideal,
    is_field,
    is_quasi_local,
    is_reduced,
    jacobson_radical,
    maximal_ideals,
    preimage_ideal,
    radical,
    reduced_generators,
    unit_ideal,
    zero_ideal,
)
from .rings import (
    DEFAULT_ELEMENT_CAP,
    FiniteRing,
    Homomorphism,
    element_cap,
    make_idealization,
    make_local_algebra,
    make_localization,
    make_product,
    make_quotient,
    make_zn,
    zn_isomorphism,
)
from .theorems import (
    CHECK_ORDER,
    CHECKS,
    TheoremCheck,
    build_corpus,
    corpus_hash,
    default_corpus_exprs,
    run_checks,
    run_default_checks,
    zn_classification,
)

__all__ = [name for name in dir() if not name.startswith("_")]
