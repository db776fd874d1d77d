"""Budgeted opinion shaping in gossip networks.

Core model: agents hold opinions in [0, 1] on a directed poll graph.
Stubborn agents are pinned, uncontrolled agents copy polled neighbors, and
controlled agents accept a planner target w_i(u_i) with probability
alpha_i.  The planner maximizes the stationary total opinion subject to a
control budget, either with the exact gradient (matrix known) or with
online schemes driven only by observed poll events.
"""

from .curves import ConstantCurve, LinearCurve, SaturatingCurve
from .errors import (
    ConfigError,
    DanglingNodeError,
    EdgeListParseError,
    InfeasibleError,
    NonAbsorbingError,
    NonFiniteRowError,
    OpinionShapeError,
)
from .network import (
    ActivationModel,
    AgentPartition,
    InteractionGraph,
    bundled_network_path,
    load_edge_list,
    random_partition,
    row_normalize,
    substochastic_matrix,
)
from .dynamics import (
    OpinionState,
    PollEvent,
    empirical_mean_opinion,
    gossip_step,
    initial_state,
    stationary_opinion,
    total_payoff,
)
from .optim import (
    LocalClocks,
    StepSchedule,
    Trajectory,
    exact_gradient,
    exact_optimum,
    project_budget_simplex,
    run_exact_gd,
)
from .sas import exact_grad_table, run_sas, sas_fast_update, sas_slow_update
from .sgd import run_sgd, sample_killed_walk, sample_weighted_walk, sgd_step
from .partial_obs import (
    Token,
    hit_law_oracle,
    partial_fast_update,
    partial_slow_update,
    probe,
    restricted_grad_oracle,
    run_partial,
)
from .general import (
    GeneralModel,
    annealed_slow_update,
    general_grad_update,
    general_payoff,
    known_p_updates,
    run_general_knownp,
    run_general_rl,
    sigma_noise,
    value_oracle,
    value_update,
)
from .harness import ExperimentConfig, parse_config, run_experiment, timing_report

__version__ = "0.1.0"
