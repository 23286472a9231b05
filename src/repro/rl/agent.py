"""The DQN agent: ε-greedy acting + experience-replay training.

Brings together the Q-network, its slowly tracking target copy, the
Adam optimiser, the ε schedule and the replay sampler.  ``train_step``
implements Equation 1:

    L(θ) = E_D[(r + γ·max_a' Q(s', a'; θ⁻) − Q(s, a; θ))²]

followed by the per-minibatch soft target update.  The loss history is
the paper's *prediction error* trace (Figure 5): "the difference between
the neural network's predicted performance ... and the actual system
performance one second later".
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional

import numpy as np

from repro.nn.network import MLP
from repro.nn.optimizers import Adam, Optimizer
from repro.replaydb.records import Minibatch
from repro.replaydb.sampler import MinibatchSampler, SamplerStarvedError
from repro.rl.epsilon import EpsilonSchedule
from repro.rl.hyperparams import Hyperparameters
from repro.rl.qnetwork import QNetwork
from repro.rl.target import target_blend
from repro.util.rng import ensure_rng


class DQNAgent:
    """Deep Q-learning agent over a discrete action space."""

    def __init__(
        self,
        obs_dim: int,
        n_actions: int,
        hp: Optional[Hyperparameters] = None,
        optimizer: Optional[Optimizer] = None,
        loss: str = "mse",
        double_dqn: bool = False,
        use_batchnorm: bool = False,
        loss_history_limit: int = 100_000,
        rng=None,
    ):
        self.hp = hp or Hyperparameters()
        #: Double-DQN target selection (van Hasselt et al., 2016).  Off
        #: by default — the paper predates it — but exposed because the
        #: vanilla max-operator's optimism bias is the classic cause of
        #: runaway Q-values on short, noisy sessions (see the ablation
        #: bench).
        self.double_dqn = bool(double_dqn)
        self.rng = ensure_rng(rng)
        net = MLP.for_q_network(
            obs_dim,
            n_actions,
            n_hidden_layers=self.hp.n_hidden_layers,
            hidden_size=self.hp.hidden_layer_size,
            use_batchnorm=use_batchnorm,
            rng=self.rng,
        )
        self.online = QNetwork(net, loss=loss)
        self.target = QNetwork(net.clone(), loss=loss)
        self.optimizer = optimizer or Adam(lr=self.hp.adam_learning_rate)
        self.epsilon = EpsilonSchedule(
            initial=self.hp.epsilon_initial,
            final=self.hp.epsilon_final,
            anneal_ticks=self.hp.exploration_ticks,
            bump_value=self.hp.epsilon_workload_bump,
        )
        if loss_history_limit <= 0:
            raise ValueError(
                f"loss_history_limit must be > 0, got {loss_history_limit}"
            )
        #: Rolling prediction-error trace (Figure 5).  Bounded: a long
        #: vectorized sweep performs millions of train steps, and an
        #: unbounded list grew without limit.  The window keeps the most
        #: recent ``loss_history_limit`` losses — far more than any
        #: Figure 5 trace plots — while per-call traces
        #: (:class:`~repro.core.session.TrainResult.losses`) remain
        #: complete and unaffected.
        self.loss_history: Deque[float] = deque(maxlen=int(loss_history_limit))
        self.train_steps = 0
        self.actions_taken = 0
        self.random_actions_taken = 0

    @property
    def n_actions(self) -> int:
        return self.online.n_actions

    @property
    def obs_dim(self) -> int:
        return self.online.obs_dim

    # -- acting --------------------------------------------------------------
    def act(self, obs: np.ndarray, greedy: bool = False) -> int:
        """ε-greedy action for ``obs``; ``greedy=True`` skips exploration."""
        self.actions_taken += 1
        if not greedy:
            eps = self.epsilon.step()
            if self.rng.random() < eps:
                self.random_actions_taken += 1
                return int(self.rng.integers(self.n_actions))
        # Single-observation inference: normalization layers (if any)
        # must use running statistics, not the degenerate batch of one.
        self.online.net.eval_mode()
        try:
            return self.online.best_action(obs)
        finally:
            self.online.net.train_mode()

    def act_batch(
        self,
        obs_batch: np.ndarray,
        greedy: bool = False,
        rngs: Optional[List[np.random.Generator]] = None,
    ) -> np.ndarray:
        """Actions for a stacked ``(n, obs_dim)`` observation batch.

        One forward pass prices every environment's actions at once —
        the vectorized-collection hot path — instead of n single-row
        inferences.  Under ``greedy=True`` this returns exactly
        ``[act(o, greedy=True) for o in obs_batch]``: the network is
        switched to eval mode for the whole batch (running statistics,
        never the batch's own), and per-row Q-values match the
        single-row path to the last ulp that matters for the argmax.

        Exploration uses ``rngs`` — one generator per environment, e.g.
        from :func:`repro.env.vector.per_env_rngs` — so each cluster's
        random-action stream is independent of the vector size; without
        ``rngs`` all rows share the agent's own generator.  ε anneals
        once per call: a batch is one action tick of system time, not n.
        """
        obs_batch = np.asarray(obs_batch, dtype=np.float64)
        if obs_batch.ndim != 2:
            raise ValueError(
                f"obs_batch must be (n, obs_dim), got shape {obs_batch.shape}"
            )
        n = obs_batch.shape[0]
        if rngs is not None and len(rngs) != n:
            raise ValueError(
                f"got {len(rngs)} rng streams for a batch of {n}"
            )
        self.actions_taken += n
        self.online.net.eval_mode()
        try:
            q = self.online.q_values(obs_batch)  # (n, A)
        finally:
            self.online.net.train_mode()
        actions = np.argmax(q, axis=1).astype(np.int64)
        if not greedy:
            eps = self.epsilon.step()
            streams = rngs if rngs is not None else [self.rng] * n
            for i, stream in enumerate(streams):
                if stream.random() < eps:
                    self.random_actions_taken += 1
                    actions[i] = int(stream.integers(self.n_actions))
        return actions

    def notify_workload_change(self) -> None:
        """§3.6: bump ε when the Interface Daemon reports a new workload."""
        self.epsilon.bump()

    # -- weight transport ------------------------------------------------
    def snapshot_weights(self, include_optimizer: bool = False) -> bytes:
        """The online network (optionally + optimiser state) as
        checkpoint bytes — the broadcast payload a decoupled trainer
        ships back to the acting agent (:mod:`repro.train`)."""
        from repro.nn.checkpoint import checkpoint_to_bytes

        return checkpoint_to_bytes(
            self.online.net,
            optimizer=self.optimizer if include_optimizer else None,
        )

    def adopt_network(self, net: "MLP", target_net: Optional["MLP"] = None) -> None:
        """Replace the online (and target) networks with ``net``.

        The single mutation point for externally produced weights —
        checkpoint loads and trainer broadcasts both go through here,
        preserving the configured loss.  Without ``target_net`` the
        target becomes a fresh clone of ``net`` (the checkpoint-load
        semantics: a restored model restarts its slow tracking copy).
        """
        loss = self.online.loss_name
        self.online = QNetwork(net, loss=loss)
        self.target = QNetwork(
            target_net if target_net is not None else net.clone(), loss=loss
        )

    # -- training --------------------------------------------------------------
    def bellman_targets(self, batch: Minibatch) -> np.ndarray:
        """y = r + γ·max_a' Q(s', a'; θ⁻) — Equation 1's target.

        With ``double_dqn`` the action is chosen by the online network
        and only *valued* by the target network, removing the max
        operator's optimism bias.
        """
        q_next = self.target.q_values(batch.s_next)  # (n, A)
        if self.double_dqn:
            chosen = np.argmax(self.online.q_values(batch.s_next), axis=1)
            future = q_next[np.arange(len(batch)), chosen]
        else:
            future = q_next.max(axis=1)
        return batch.rewards + self.hp.discount_rate * future

    def train_step(self, batch: Minibatch) -> float:
        """One SGD update on one minibatch; returns the prediction error.

        The backward pass writes ∇ (nothing to zero first); one sweep
        over the parameters then updates θ and blends it into θ⁻.
        """
        targets = self.bellman_targets(batch)
        loss = self.online.td_backward(batch.s_t, batch.actions, targets)
        alpha = self.hp.target_network_update_rate
        blend = target_blend(self.target.net, self.online.net, alpha)
        self.optimizer.step(self.online.net.parameters(), after=blend)
        self.loss_history.append(loss)
        self.train_steps += 1
        return loss

    def train_from_sampler(self, sampler: MinibatchSampler) -> Optional[float]:
        """Sample one minibatch and train; None if the DB is too sparse."""
        try:
            batch = sampler.sample_minibatch(self.hp.minibatch_size)
        except SamplerStarvedError:
            return None
        return self.train_step(batch)
