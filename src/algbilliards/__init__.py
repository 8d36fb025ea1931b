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

The namespace is lazy (PEP 562): ``import algbilliards`` imports no layer.
A layer, or a name it exports here, is imported on first access and then
kept in this module's globals, so a caller pays only for the layers it uses.
"""

import importlib

__version__ = "0.1.0"

# each layer's names exported here
_EXPORTS = {
    "curve": (
        "GenericityReport",
        "PlaneCurve",
        "ProjPoint",
        "TangentData",
        "curve_from_affine",
        "curve_from_json",
        "curve_to_json",
        "evaluate",
        "genericity_report",
        "isotropic_tangency_points",
        "points_at_infinity",
        "proj_point",
        "tangent_at",
    ),
    "numerics": (
        "BigIntMatrix",
        "ComplexPoly",
        "IntPoly",
        "RootCluster",
        "bracketed_largest_root",
        "char_poly",
        "find_roots",
    ),
    "phase": (
        "BranchSet",
        "DirectionPoint",
        "OrbitLevel",
        "OrbitTree",
        "PhasePoint",
        "billiard_step",
        "direction_from_slope",
        "direction_point",
        "orbit_tree",
        "phase_point",
        "real_billiard_step",
        "reflect",
        "secant",
    ),
    "blowup": (
        "ExceptionalParam",
        "ScratchPoint",
        "confinement_experiment_infinity_multi",
        "confinement_experiment_isotropic",
        "enumerate_scratch_points",
        "reflect_at_infinity_limit",
        "reflect_at_isotropic_limit",
        "secant_at_infinity_limit",
        "secant_at_isotropic_limit",
    ),
    "spectral": (
        "DivisorBasis",
        "PushforwardMatrix",
        "degree_sequence",
        "intersection_form",
        "jordan_structure_d2",
        "phi",
        "pushforward_b_hat",
        "pushforward_r_hat",
        "pushforward_s_hat",
        "rho",
        "verify_conjugation",
        "verify_factorization",
    ),
    "symplectic": ("check_invariance", "form_density", "local_frame"),
}
_SOURCE = {name: layer for layer, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_SOURCE])


def __getattr__(name):
    layer = name if name in _EXPORTS else _SOURCE.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = importlib.import_module(f"{__name__}.{layer}")
    if name != layer:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__():
    return __all__
