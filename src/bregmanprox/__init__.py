"""Numerical Bregman proximal calculus in one dimension.

Distances, left/right proximal maps and Moreau envelopes, proximal hulls,
level proximal subdifferentials, and a harness that checks the governing
equivalence theorems on concrete instances.
"""

import importlib

from .extreal import Interval
from .numerics import (Grid, HullCurve, build_grid, finite_diff_grad,
                       grid_minimize, lower_convex_envelope, monotone_invert,
                       second_difference_convexity_test)
from .kernels import (ALL_KERNELS, BURG, CUBIC_ABS, ENERGY, HELLINGER,
                      LEGENDRE_KERNELS, QUARTIC, SHANNON, Kernel,
                      bregman_distance, dual_distance, scale_kernel,
                      symmetrized_gap, three_point_residual)
from .catalog import (F_ABS, F_ZERO, Instance, ProperFn, get_instance,
                      instance_names, shift_scale)
from .proxenv import (InstanceEngine, ProxBatch, ProxResult, detect_unbounded, engine,
                      env_conjugate_crosscheck, euclid_crosscheck, hull_function,
                      hull_instance, left_env, left_prox, prox_hull, range_probe,
                      right_env, right_prox, threshold_scan)
from .subdiff import (SingleValuedness, left_lpsubdiff_definitional, left_lpsubdiff_hull,
                      right_lpsubdiff_definitional, single_valuedness_at)

# The theorem harness is imported on first use of one of its names (PEP
# 562), so importing the package or its command line does not load it.
_VERIFY = ("VerifyReport", "check_bcoco", "check_bsmooth", "check_dfne", "check_example",
           "check_env_convexity", "check_strong_convexity_sufficient",
           "check_two_sided", "check_weak_convexity", "coincidence_check",
           "reports_to_json", "resolvent_check", "run_suite")


def __getattr__(name):
    if name == "verify" or name in _VERIFY:
        verify = importlib.import_module(".verify", __name__)
        return verify if name == "verify" else getattr(verify, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__version__ = "0.1.0"
