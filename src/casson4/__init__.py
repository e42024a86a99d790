"""casson4: exact Casson-type invariants in low-dimensional topology.

Computes, in exact arithmetic, the classical Casson and Rohlin invariants
of homology spheres presented by surgery, equivariant Casson and
mapping-torus instanton invariants of finite-order diffeomorphisms, Floer
Lefschetz bookkeeping, vanishing certificates for Euler-number-one circle
bundles, and the mod-2 degree-zero instanton count of homology 4-tori,
together with mechanical checks of the congruences tying them together.
"""

from .bundles import (
    BundleVanishingReport,
    CircleBundleData,
    circle_bundle_report,
)
from .equivariant import (
    BranchedQuotientData,
    FreeQuotientData,
    branched_free_relation,
    check_rohlin_congruence,
    equivariant_casson_branched,
    equivariant_casson_free,
    furuta_ohta_mapping_torus,
    orientation_reversal_check,
)
from .floer import (
    FloerData,
    deduce_sign_pattern,
    lambda_fo_from_lefschetz,
    lefschetz,
    seifert_tau_floer_data,
)
from .gf2 import symplectic_basis
from .inertia import certified_signature
from .laurent import LaurentPolynomial, second_derivative_at_one
from .seifert import (
    PRESET_KNOTS,
    SeifertMatrix,
    SignatureSpectrum,
    alexander_polynomial,
    arf_invariant,
    connected_sum,
    preset_knot,
    signature_spectrum,
    tl_nullity,
    tl_signature,
    torus_knot_seifert,
)
from .spheres import (
    SphereInvariants,
    SurgeryPresentation,
    casson,
    check_casson_rohlin,
    mubar_double_branched,
    rohlin,
)
from .tori import (
    CupRing,
    SpinRohlinTable,
    ThreeTorusForm,
    admissible,
    bundle_exists,
    det3,
    det4,
    donaldson_mod2,
    four_orbit_count,
    product_ring,
    rho_bar,
    torus4_ring,
)

__version__ = "0.1.0"

__all__ = [
    "LaurentPolynomial",
    "second_derivative_at_one",
    "symplectic_basis",
    "certified_signature",
    "SeifertMatrix",
    "SignatureSpectrum",
    "alexander_polynomial",
    "tl_signature",
    "tl_nullity",
    "signature_spectrum",
    "arf_invariant",
    "torus_knot_seifert",
    "connected_sum",
    "preset_knot",
    "PRESET_KNOTS",
    "SurgeryPresentation",
    "SphereInvariants",
    "casson",
    "rohlin",
    "check_casson_rohlin",
    "mubar_double_branched",
    "BranchedQuotientData",
    "FreeQuotientData",
    "equivariant_casson_branched",
    "equivariant_casson_free",
    "furuta_ohta_mapping_torus",
    "branched_free_relation",
    "check_rohlin_congruence",
    "orientation_reversal_check",
    "FloerData",
    "lefschetz",
    "lambda_fo_from_lefschetz",
    "deduce_sign_pattern",
    "seifert_tau_floer_data",
    "CupRing",
    "ThreeTorusForm",
    "SpinRohlinTable",
    "det3",
    "det4",
    "product_ring",
    "torus4_ring",
    "rho_bar",
    "four_orbit_count",
    "donaldson_mod2",
    "admissible",
    "bundle_exists",
    "CircleBundleData",
    "circle_bundle_report",
    "BundleVanishingReport",
    "__version__",
]
