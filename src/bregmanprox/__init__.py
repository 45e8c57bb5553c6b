"""Numerical Bregman proximal calculus in one dimension.

Distances, left/right proximal maps and Moreau envelopes, proximal hulls,
level proximal subdifferentials, and a harness that checks the governing
equivalence theorems on concrete instances.
"""

from .extreal import ExtReal, Interval, NEG_INF, POS_INF
from .numerics import (Grid, HullCurve, build_grid, finite_diff_grad,
                       grid_minimize, lower_convex_envelope, monotone_invert,
                       second_difference_convexity_test)
from .kernels import (ALL_KERNELS, BURG, CUBIC_ABS, ENERGY, HELLINGER,
                      LEGENDRE_KERNELS, QUARTIC, SHANNON, Kernel,
                      bregman_distance, dual_distance, scale_kernel,
                      symmetrized_gap, three_point_residual)
from .catalog import (F_ABS, F_ZERO, Instance, ProperFn, get_instance,
                      instance_names, shift_scale)
from .proxenv import (InstanceEngine, ProxResult, detect_unbounded, engine,
                      env_conjugate_crosscheck, euclid_crosscheck, hull_function,
                      hull_instance, left_env, left_prox, prox_hull, range_probe,
                      right_env, right_prox, threshold_scan)
from .subdiff import (CoincidenceReport, SingleValuedness, SubdiffSet,
                      coincidence_check, left_lpsubdiff_definitional,
                      left_lpsubdiff_hull, resolvent_check,
                      right_lpsubdiff_definitional, single_valuedness_at)
from .verify import (VerifyReport, check_bcoco, check_bsmooth, check_dfne,
                     check_env_convexity, check_strong_convexity_sufficient,
                     check_two_sided, check_weak_convexity, reports_to_json,
                     run_suite)

__version__ = "0.1.0"
