"""Rate models and Monte Carlo simulation of repeater link protocols.

Three ways of distributing entanglement over one fiber link are modeled:
both nodes sending photons to an analyzer at the midpoint, a sender
streaming photons into a receiving node that latches them, and both nodes
latching photons from an entangled-pair source at the midpoint. The
package provides their closed-form rates, executable control state
machines, a deterministic Monte Carlo engine for single links and
purification chains, and a sweep CLI that writes plot-ready tables.
"""

from .params import (
    ConfigurationError,
    Duration,
    HardwareProfile,
    LinkGeometry,
    MemoryBudget,
    OpticalStack,
    ProtocolConfig,
    ProtocolKind,
    hardware_preset,
    link_delay,
    link_success_probability,
    mps_success_probability,
    optical_transmission,
)
from .analytic import (
    MpsEntanglement,
    PurificationBounds,
    RateBundle,
    fast_clock_estimates,
    mitm_rate,
    mps_attempts_per_bin,
    mps_entanglement,
    mps_rate,
    purification_bounds,
    round_time,
    sr_rate,
    sr_receiver_allocation,
)
from .protocol import (
    BsaMessage,
    LinkProbabilities,
    ProtocolViolation,
    RoundOutcome,
    SlotState,
    Verdict,
    sample_bsa,
    sample_round,
)
from .engine import (
    ChainModel,
    ChainTrialStats,
    LinkModel,
    LinkTrialStats,
    PurificationPolicy,
    SummaryStats,
    run_chain_trial,
    run_link_trial,
    summarize,
)

__version__ = "0.1.0"
