"""bracketkit: uniform brackets, containers, Mnets and shallow packings for
finite geometric set systems, with two-party protocol simulators on top."""

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
    LinearQuery,
    PointSet,
    enumerate_ball_ranges,
    enumerate_box_ranges,
    enumerate_halfspace_ranges,
    enumerate_polytope_ranges,
    halfspace_ranges_with_witnesses,
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
    CellProfile,
    Projection,
    SetSystem,
    VcDimension,
    complement_family,
    filter_by_size,
    project,
    sauer_shelah_check,
    shallow_cell_profile,
    vc_dimension_exact,
)
from .verify import VerifyReport, container_lower_bound, verify_bracket, verify_container, verify_mnet

__version__ = "0.1.0"
