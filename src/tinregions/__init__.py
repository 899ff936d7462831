"""Achievable rate regions of the two-user Gaussian interference channel
with interference treated as noise.

The package computes boundaries of the region of simultaneously
achievable rate pairs under three progressively stronger formulations:
single (pure) transmit strategies, convex hulls of pure-strategy
regions, and coded time-sharing where both rates and transmit powers
are averaged across strategies.  The time-sharing boundary is obtained
by a cutting-plane method on the dualized rate-balancing problem; its
inner power allocation is maximized by enumerating the stationary
points of the objective's gradient.
Verification harnesses check the bound/propriety properties the
construction relies on, including that proper signaling attains the
full time-sharing region.
"""

from .model import (
    AlignmentPhases,
    ChannelRealization,
    PowerBudget,
    RatePair,
    RateProfile,
    TransmitStrategy,
    alignment_phases,
    enhance,
    improper_rates,
    proper_rates,
    rate_pair_improper,
    rate_pair_proper,
    rate_upper_bound,
    upper_bound_rates,
)
from .lp import LinearProgram, LpSolution, lp_solve
from .inner import DualPoint, InnerResult, inner_objective, stationary_solve
from .outer import (
    Cut,
    CuttingPlaneResult,
    OuterConfig,
    TimeSharingSolution,
    achieved_dual_value,
    cutting_plane,
    master_lp,
    primal_recover,
    ts_point,
)
from .regions import (
    BoundaryEntry,
    ContainmentReport,
    BoundCheckReport,
    RegionBoundary,
    RegionConfig,
    SamplingConfig,
    lemma1_check,
    pure_improper_samples,
    pure_proper_point,
    sweep_boundary,
    theorem1_check,
    ts_sweep,
    upper_right_hull,
)
from .fileio import (
    ChannelFileError,
    example_channel,
    example_channel_path,
    load_channel,
)

__version__ = "0.1.0"
