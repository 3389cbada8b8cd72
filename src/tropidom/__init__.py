"""Tropical dominating sets in vertex-coloured graphs.

Exact solvers, approximation algorithms, an FPT dynamic program for interval
graphs, hardness-reduction instance generators, and random-graph experiments.
"""

from .approx import (
    ApproxResult,
    greedy_setcover_tds,
    mds_plus_colours,
    path_five_thirds,
    path_lower_bound,
)
from .exact import (
    DEFAULT_BUDGET,
    SolveResult,
    count_rainbow_ds,
    gamma,
    gamma_t,
    rainbow_exists,
)
from .forge import (
    CnfFormula,
    ReductionArtifact,
    SubcubicGraph,
    extract_vc,
    extremal_edge_bound,
    extremal_gamma_plus,
    gen_gnpc,
    pad_colours,
    parse_dimacs_cnf,
    sat_to_path,
    vc_to_path,
)
from .graph import (
    ColouredGraph,
    DegreeProfile,
    build,
    degree_profile,
    is_connected,
    is_dominating,
    is_rainbow,
    is_tropical,
    path_order,
)
from .instance_io import Instance, parse_instance, write_instance
from .interval import (
    IntervalInstance,
    build_interval_instance,
    path_intervals,
    tdn_interval,
)
from .problab import (
    BoundsReport,
    ExperimentReport,
    RandomModel,
    audit_bounds,
    concentration_window,
    expected_rainbow_count,
    run_concentration_experiment,
    run_expectation_experiment,
    run_threshold_experiment,
    search_conjecture,
    threshold_colours,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
