"""Asynchronous distributed Metropolis sampler simulator.

A discrete-event simulator of a fully-asynchronous message-passing protocol
that resolves single-site Metropolis updates ahead of full neighborhood
knowledge, coupled coin-for-coin with a sequential continuous-time reference
chain so the two produce identical samples on identical randomness.
"""

from .graphs import (
    Graph,
    cycle_graph,
    empty_graph,
    greedy_coloring,
    grid_graph,
    path_graph,
    random_regular_graph,
    read_edge_list,
)
from .models import SpinModel, lipschitz_bound, make_coloring, make_hardcore, make_ising
from .schedule import UpdateId, UpdateSchedule, generate, generate_steps
from .oracle import ContinuousRun, exact_distribution, run_continuous, total_variation
from .netsim import (
    FixedDelayScheduler,
    Resolution,
    RunStats,
    Scheduler,
    Simulation,
    SimulationInvariantError,
    SimulationResult,
    UniformRandomScheduler,
    filter_range,
    make_scheduler,
    run,
    thresholds,
)
from .instrument import ResidenceReport, chain_lengths, phase2_residence

__version__ = "0.1.0"
