"""Two-stage hide-and-seek games with partial route revelation.

A Hider places a treasure at one of n locations; a Seeker visits them along
a permutation route from an origin. After the first t_reveal visits the
Hider sees the route prefix and may relocate once to an unvisited location
for a cost. The package builds the baseline, restricted-switch, and
seeker-aware payoff matrices, solves the zero-sum games by LP, and
quantifies the value of the revealed information.
"""

from .instance import (
    ORIGIN,
    Instance,
    InstanceError,
    Point,
    distance,
    distance_matrix,
    load_instance,
    make_instance,
)
from .routes import (
    MAX_LOCATIONS,
    RouteSet,
    enumerate_routes,
    prefix_block,
)
from .payoff import (
    PayoffMatrix,
    SwitchConfig,
    base_matrix,
    dump_matrix,
    entrywise_gap,
    feedback_matrix,
    lift_feedback,
    subgame_matrix,
    switch_matrix,
)
from .matrixgame import (
    GameSolution,
    Lemma1Report,
    MixedStrategy,
    PureSaddle,
    SolverError,
    best_response_gap,
    check_lemma1,
    find_pure_saddle,
    solve_games,
    solve_zero_sum,
)
from .voi import (
    VoiReport,
    build_voi_report,
    cstar,
    cstar_global,
    expected_voi,
    report_to_csv,
    route_averaged_voi,
    termination_probability,
    theorem1_bound,
    voi_matrix,
    worst_case_voi,
)
from .experiments import (
    BoundCheck,
    BoundReport,
    SimulationResult,
    SweepRow,
    default_cost_grid,
    simulate,
    sweep,
    sweep_to_csv,
    verify_bounds,
)

__version__ = "0.1.0"
