"""Sharp embedding of dyadic A1 weights into A-infinity.

Closed-form evaluation of the associated Bellman function, constructive
near-extremizers on finite dyadic trees, and independent verification
(inequality samplers plus a brute-force supremum oracle).
"""

__version__ = "0.1.0"

from .params import (
    BOUNDARY_TOL,
    DegenerateParamsError,
    DomainError,
    DomainPoint,
    InvariantError,
    Params,
    in_omega,
    in_omega_b,
    new_params,
    osekowski_p_max,
)
from .bellman import (
    BranchInfo,
    WedgeCoeffs,
    classify_point,
    eval_B,
    eval_M,
    eval_f,
    eval_f_smooth,
    wedge_Mk,
    wedge_coeffs,
)
from .dyadic import (
    DyadicSet,
    DyadicWeight,
    WeightStats,
    a1_characteristic,
    average,
    complement,
    ess_inf,
    maximal_function,
    measure,
    pair_from_json,
    pair_to_json,
    stats,
    value_distribution,
    weight_on_set,
)
from .extremize import (
    ExtremalPair,
    apply_S,
    apply_T,
    boundary_weight,
    build_corner,
    build_extremizer,
    concatenate,
)
from .verify import (
    CheckReport,
    OracleTable,
    brute_force_oracle,
    check_concavity,
    check_main_inequality_B,
    check_main_inequality_M,
    check_t_monotonicity,
    check_smooth_bound,
    check_weak_type,
    check_wedge_inequality,
    default_value_grid,
    oracle_vs_closed_form,
    run_suite,
)

__all__ = [name for name in dir() if not name.startswith("_")]
