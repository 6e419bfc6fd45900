"""Certified shadowing of pseudo-orbits on dyadic cube subdivisions.

The pipeline: subdivide the cube or torus (`geometry`), describe a map
(`dynamics`), build its transition graph with certified empty gaps
(`transition`), certify every transition as a covering relation
(`covering`), then constructively shadow pseudo-orbits, periodic or
spliced (`shadowing`). `oracle` holds independent cross-checks, `exact`
rational-arithmetic iteration, and `cli` the command-line front door.
"""

from cubeshadow.covering import (
    ChainedCertificate,
    ChainValidity,
    CoveringCertificate,
    CoveringConfig,
    FailureReport,
    Inconclusive,
    Rectangle,
    certify_chained,
    check_covering,
    compose_chain,
    verify_certificate,
)
from cubeshadow.dynamics import (
    Direction,
    MapKind,
    MapSpec,
    affine_map,
    builtin_map,
    eval_point,
    identity_map,
    perturbed_map,
    standard_map,
    toral_map,
    translation_map,
)
from cubeshadow.exact import exact_step, supports_exact
from cubeshadow.errors import (
    BrokenChainError,
    CubeShadowError,
    DeltaTooLargeError,
    FixedPointTolUnreachedError,
    InvalidMapError,
    MismatchedChainError,
    NoPathError,
    NoSurvivingCellError,
    NotEndomorphismError,
    NotHyperbolicError,
    NotInvertibleError,
    ResourceLimitError,
    UncertainEdgesError,
    UncertifiedTransitionError,
)
from cubeshadow.geometry import Box, Space, Subdivision, chi, make_subdivision
from cubeshadow.oracle import (
    brute_force_fixed_points,
    brute_force_shadow,
    hyperbolic_splitting,
    linear_shadow,
)
from cubeshadow.shadowing import (
    Drift,
    PseudoOrbit,
    ShadowResult,
    UniformNoise,
    VerifyReport,
    generate_pseudo_orbit,
    itinerary,
    periodic_shadow,
    pseudo_orbit,
    shadow,
    specification_splice,
    verify_shadow,
)
from cubeshadow.transition import (
    EdgeStatus,
    TransitionGraph,
    build_graph,
    delta_bound,
    find_path,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "Space", "Box", "Subdivision", "make_subdivision", "chi",
    "MapSpec", "MapKind", "Direction", "builtin_map", "identity_map",
    "translation_map", "toral_map", "affine_map", "standard_map",
    "perturbed_map", "eval_point", "exact_step", "supports_exact",
    "EdgeStatus", "TransitionGraph", "build_graph", "delta_bound", "find_path",
    "Rectangle", "CoveringConfig", "CoveringCertificate", "Inconclusive",
    "ChainedCertificate", "FailureReport", "ChainValidity", "check_covering",
    "certify_chained", "compose_chain", "verify_certificate",
    "PseudoOrbit", "pseudo_orbit", "generate_pseudo_orbit", "UniformNoise",
    "Drift", "itinerary", "ShadowResult",
    "VerifyReport", "shadow", "periodic_shadow", "specification_splice",
    "verify_shadow",
    "hyperbolic_splitting", "linear_shadow", "brute_force_fixed_points",
    "brute_force_shadow",
    "CubeShadowError", "InvalidMapError", "NotInvertibleError",
    "NotEndomorphismError", "ResourceLimitError", "UncertainEdgesError",
    "NoPathError", "DeltaTooLargeError", "BrokenChainError",
    "UncertifiedTransitionError", "NoSurvivingCellError",
    "FixedPointTolUnreachedError", "MismatchedChainError",
    "NotHyperbolicError",
]
