"""
Non-emptiness and dimensions of affine Deligne-Lusztig varieties in affine
flag varieties of split reductive groups, computed combinatorially in the
extended affine Weyl group.
"""

from .affine import AffineWeyl, affine_context
from .engine import (AdlvResult, necessary_condition, orbit_dim_table, predict_levi,
                     predict_shrunken, reduce_to_basic, solve, superset,
                     survey_batch)
from .roots import (RootDatum, SemistdParabolic, build_root_datum,
                    semistandard_parabolics, standard_parabolic)
from .sigma import (SigmaConjClass, class_from_invariants, classify, defect,
                    enumerate_classes, fundamental_representative,
                    grassmannian_dim_basic, grassmannian_nonempty, newton_point,
                    standard_representative)

__all__ = [
    "AffineWeyl", "affine_context", "AdlvResult", "necessary_condition",
    "orbit_dim_table", "predict_levi", "predict_shrunken", "reduce_to_basic",
    "solve", "superset", "survey_batch", "RootDatum",
    "SemistdParabolic", "build_root_datum", "semistandard_parabolics",
    "standard_parabolic", "SigmaConjClass", "class_from_invariants", "classify",
    "defect", "enumerate_classes", "fundamental_representative",
    "grassmannian_dim_basic", "grassmannian_nonempty", "newton_point",
    "standard_representative",
]

__version__ = "0.1.0"
