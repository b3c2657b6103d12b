"""bracketkit: uniform brackets, containers, Mnets and shallow packings for
finite geometric set systems, with two-party protocol simulators on top.

All parameter comparisons in the package (|R| >= eps*n and the like) are done
with ``fractions.Fraction``, i.e. exact integer cross-multiplication, and a
threshold is rounded exactly, by ``math.floor``/``math.ceil`` of a Fraction.
Floats decide a branch in three places, and no returned result depends on
one:

- ``constructions._ladder``'s float estimate of its rung count decides
  whether a size ladder is refused with ``ResourceBudgetError`` before any
  rung is built; the rungs are exact Fractions.
- ``constructions._depth_cap``, a float log bound, decides whether the
  small-set recursion raises ``InternalInvariantError`` for going deeper
  than the cap, or, where the cap is beyond float range, whether the input
  is refused.  Either way it decides only whether an error is raised: a
  recursion within the cap returns the family it would return without one.
- The planar kernel's ``arctan2`` argsort and ``searchsorted`` pointers
  are proposals: exact integer cross products certify each one, and what
  fails is redone exactly.

``HeavyMnetParams.t0_raw`` (and its ceiling ``t0``) is a float that is
reported only and decides nothing.
"""

from .constructions import (
    HeavyMnetParams,
    PropertyMProvider,
    base_mnet,
    boost_epsilon,
    bootstrap_interval_mnet,
    build_bracket,
    build_container,
    container_to_mnet,
    default_provider,
    heavy_mnet,
    mnet_to_container,
    small_set_container,
)
from .errors import (
    BracketkitError,
    DegeneracyError,
    InputError,
    InternalInvariantError,
    NonRealizableError,
    PreconditionFailure,
    ResourceBudgetError,
)
from .families import (
    BracketFamily,
    ContainerFamily,
    MnetFamily,
    family_from_json,
    family_to_json,
    make_bracket,
    make_container,
    make_mnet,
)
from .geometry import (
    PointSet,
    enumerate_ball_ranges,
    enumerate_box_ranges,
    enumerate_halfspace_ranges,
    enumerate_polytope_ranges,
    jitter_points,
    lower_bound_instance,
    random_point_set,
    veronese_lift,
)
from .packing import Packing, greedy_delta_packing, nearest_neighbor, packing_bound_report
from .protocols import (
    Classifier,
    DisjointnessInstance,
    LearningInstance,
    Message,
    Transcript,
    convex_disjointness_protocol,
    exact_hull_intersection,
    learn_halfspace_protocol,
    random_disjointness_instance,
    realizable_learning_instance,
    shared_protocol_context,
)
from .setsystem import (
    SetSystem,
    VcDimension,
    complement_family,
    filter_by_size,
    project,
    sauer_shelah_check,
    vc_dimension_exact,
)
from .verify import VerifyReport, container_lower_bound, verify_bracket, verify_container, verify_mnet

__version__ = "0.1.0"
