"""Deep Q-learning core (§2, §3.4, §3.6).

- :mod:`hyperparams` — Table 1, verbatim, as a dataclass of defaults;
- :mod:`epsilon` — the linearly annealed ε-greedy schedule with the
  workload-change bump to 0.2;
- :mod:`qnetwork` — the Q-network wrapper (observation → a vector of
  Q-values, one per action — the paper's "second type" head);
- :mod:`target` — soft target-network updates
  (θ⁻ ← θ⁻·(1−α) + θ·α);
- :mod:`agent` — the DQN agent tying it together: ε-greedy action
  selection and Equation 1 minibatch training, with the prediction-error
  history that Figure 5 plots.
"""

from repro.rl.agent import DQNAgent
from repro.rl.epsilon import EpsilonSchedule
from repro.rl.hyperparams import Hyperparameters
from repro.rl.interpret import (
    PolicyRow,
    format_policy_table,
    policy_table,
    q_sensitivity,
)
from repro.rl.qnetwork import QNetwork
from repro.rl.target import soft_update

__all__ = [
    "PolicyRow",
    "policy_table",
    "format_policy_table",
    "q_sensitivity",
    "DQNAgent",
    "EpsilonSchedule",
    "Hyperparameters",
    "QNetwork",
    "soft_update",
]
