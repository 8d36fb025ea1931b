"""Billiards correspondences on plane algebraic curves.

The package splits into a floating-point geometry side and an exact integer
spectral side:

* ``curve``: homogeneous plane curves, tangents, points at infinity,
  isotropic tangencies, general-position report;
* ``phase``: the secant / reflection / billiard correspondences with full
  branch multisets, the classical real map, orbit trees;
* ``blowup``: scratch points, exceptional-chart limit maps, and the
  singularity-confinement experiments;
* ``symplectic``: numerical verification of the invariant 2-form
  dx0 ^ dq0 + dx1 ^ dq1;
* ``spectral``: exact pushforward matrices on the blown-up phase space, the
  characteristic-polynomial factorization, the degree-growth bound rho_d;
* ``numerics``: the shared kernels (complex root clusters, exact integer
  linear algebra);
* ``cli``: the command line (``algbilliards spectral|orbit|confine|...``).
"""

__version__ = "0.1.0"

from .curve import (
    GenericityReport,
    PlaneCurve,
    ProjPoint,
    TangentData,
    curve_from_affine,
    curve_from_json,
    curve_to_json,
    evaluate,
    genericity_report,
    isotropic_tangency_points,
    points_at_infinity,
    proj_point,
    tangent_at,
)
from .numerics import (
    BigIntMatrix,
    ComplexPoly,
    IntPoly,
    RootCluster,
    bracketed_largest_root,
    char_poly,
    find_roots,
)
from .phase import (
    BranchSet,
    DirectionPoint,
    OrbitLevel,
    OrbitTree,
    PhasePoint,
    billiard_step,
    direction_from_slope,
    direction_point,
    orbit_tree,
    phase_point,
    real_billiard_step,
    reflect,
    secant,
)
from .blowup import (
    ExceptionalParam,
    ScratchPoint,
    confinement_experiment_infinity_multi,
    confinement_experiment_isotropic,
    enumerate_scratch_points,
    reflect_at_infinity_limit,
    reflect_at_isotropic_limit,
    secant_at_infinity_limit,
    secant_at_isotropic_limit,
)
from .spectral import (
    DivisorBasis,
    PushforwardMatrix,
    cheap_matrices,
    degree_sequence,
    intersection_form,
    jordan_structure_d2,
    phi,
    pushforward_b_hat,
    pushforward_r_hat,
    pushforward_s_hat,
    rho,
    verify_conjugation,
    verify_factorization,
)
from .symplectic import check_invariance, form_density, local_frame

__all__ = [name for name in dir() if not name.startswith("_")]
