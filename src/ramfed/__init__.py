"""Deterministic federated-learning simulator with risk-aware training.

A fixed, training-invisible erasure channel relays exactly one user's model
per round; local training couples each user's loss with a shared scalar
risk threshold so the global model stops neglecting rarely relayed users.
The risk-neutral baseline is the gamma = 1 special case of the same loop.
"""

from .channel import RandomAccessChannel, relay, selection_weights
from .data import Dataset, PartitionSpec, batches, gen_synthetic_2d, parse_idx, partition_heterogeneous, write_idx
from .models import Batch, ModelArch, ModelParams, finite_diff_grad, forward, init_params, loss_and_grad
from .risk import (RiskConfig, composite_grads, composite_loss, cvar_discrete,
                   cvar_grid_oracle, global_risk_objective, max_loss_limit_check)
from .training import (DivergenceError, GlobalState, RunHistory, Seeds, TrainConfig, evaluate,
                       local_update, run_round, train)

__version__ = "0.1.0"
