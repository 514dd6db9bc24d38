"""Rational Dyck paths and their bijective dynamics.

Combinatorial maps on (a,b)-Dyck paths with coprime slope: slope-line
perfect matchings, promotion and evacuation through step-sequence toggles,
rowmotion and rowvacuation on the box region, 321-avoiding grid paths and
two-row insertion, maximal cover-inclusive ribbon tilings, non-crossing
refinement chains, and the valley-sequence matching map, together with an
exhaustive identity-verification harness and a batch CLI.
"""

# `ratdyck.promotion` and `ratdyck.rowmotion` name the submodules; the maps
# themselves are `ratdyck.promotion.promotion` and `ratdyck.rowmotion.rowmotion`.
from .registry import IDENTITIES, apply_map, default_suite, orbit_table, verify
from .matching_map import BarInt, BarSequence, admissible, k_sequence, mat, mat_inverse
from .matchings import PerfectMatching, bar, dpm, pm, pm_inverse, rotate
from .noncrossing import (
    NonCrossingChain,
    NonCrossingPartition,
    dyck_to_ncp,
    kre,
    lift,
    lk,
    ncp_to_dyck,
    ref,
    rot,
    su,
)
from .paths import (
    ABTableau,
    InvariantError,
    RationalDyckPath,
    Slope,
    count_paths,
    enumerate_paths,
    from_tableau,
    is_prime,
    path_from_steps,
    path_from_word,
    path_from_young_rows,
    star,
    to_tableau,
    young_rows,
)
from .perms import (
    Permutation321,
    dyck1,
    dyck2,
    dyck3,
    e_p,
    e_p_inverse,
    e_q,
    e_v,
    e_w,
    pm_cross,
    rsk_hat,
    rsk_two_row,
)
from .promotion import (
    dual_evacuation,
    dual_promotion,
    evacuation,
    evacuation_fast,
    dual_evacuation_fast,
    toggle,
)
from .rowmotion import (
    BoxRegion,
    dual_rowvacuation,
    rank_toggle,
    rowmotion_structural,
    rowvacuation,
)
from .tilings import (
    DyckTile,
    Tiling,
    dt_map,
    kappa,
    max_tiling,
    rsk_hat_inverse,
    rsk_hat_path,
    tile_transpositions,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
