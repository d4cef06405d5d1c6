"""Elastic optical network provisioning simulator with a learning agent.

The package splits along the natural seams of the problem: ``topology``
(graph, candidate paths, modulation rules), ``spectrum`` (slot occupancy
and block search), ``traffic`` (demand stream and departures),
``features`` (state encoding), ``neuralnet`` (policy/value networks with
hand-derived gradients), ``env`` (the provisioning step and heuristic
baselines), ``trainer`` (lockstep actor-learners), and ``cli`` / ``config``
(the experiment front-end).
"""

from .config import RunConfig, load_config, parse_config
from .env import BlockingStats, ProvisionOutcome, RmsaEnv
from .errors import ConfigError, ContractViolation, TopologyError
from .features import StateEncoder, state_length
from .neuralnet import (Batch, LayerSpec, ParamSet, adam_apply, backward,
                        forward_policy, forward_value, init_params,
                        load_checkpoint, save_checkpoint)
from .spectrum import NetworkSpectrum
from .topology import (CandidatePath, Link, Topology, k_shortest_paths,
                       load_topology, modulation_for, parse_topology,
                       precompute_paths, required_slots)
from .traffic import DepartureQueue, Request, RequestStream, TrafficConfig
from .trainer import (TrainingConfig, TrainingResult, discounted_returns,
                      roulette_select, run_training, sliding_window_returns)

__version__ = "0.1.0"
