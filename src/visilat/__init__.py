"""Densities of simultaneously visible lattice points over rings of integers.

Predicts the density of points of O^m visible from every point of a finite
set S as an Euler product over prime ideals, with a rigorous truncation
interval, and verifies it empirically by exact counting, sieving, and Monte
Carlo over cube and ball regions.
"""

__version__ = "0.1.0"

from .counting import (CountResult, IdealCountCheck, Region, ball_region,
                       count_visible_direct, count_visible_sieve, cube_region,
                       ideal_count_check, mc_estimate)
from .density import (ExactDensity, PredictionInterval, exact_window_density,
                      predicted_density, window_density)
from .errors import CapExceeded, ConfigError, FieldError
from .ideals import (AlgInt, IdealHNF, ideal_from_generators, is_visible,
                     is_visible_from_all, point, point_set)
from .numfield import FieldSpec, field_from_json, make_field
from .primes import (PrimeIdeal, poly_factor_mod_p, primes_up_to_norm,
                     s_of_prime, split_prime, window_first_t)

__all__ = [
    "AlgInt", "CapExceeded", "ConfigError", "CountResult", "ExactDensity",
    "FieldError", "FieldSpec", "IdealCountCheck", "IdealHNF",
    "PredictionInterval", "PrimeIdeal", "Region", "ball_region",
    "count_visible_direct", "count_visible_sieve", "cube_region",
    "exact_window_density", "field_from_json", "ideal_count_check",
    "ideal_from_generators", "is_visible", "is_visible_from_all",
    "make_field", "mc_estimate", "point", "point_set", "poly_factor_mod_p",
    "predicted_density", "primes_up_to_norm", "s_of_prime", "split_prime",
    "window_density", "window_first_t", "__version__",
]
