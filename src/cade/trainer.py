"""End-to-end constrained training loop.

One iteration collects ``episodes_per_iter`` episodes with the current
policy and then updates once, in a fixed order: Lagrange multiplier,
dynamics model, cost estimator, reward advantage, cost advantage, reward
estimator, actor plus trunk; a trained stage takes one optimizer step.
Batching episodes averages the policy gradient over more trajectories per
step.  Buffers are replayed in recorded order, never shuffled, so the
recurrent state seen at update time matches the rollout's bitwise.

Episode k draws from its own generators, keyed (seed, job, k) by
:func:`episode_streams`, so it depends only on the parameters in force, the
seed, k and whether the screen runs; the initial parameters draw from the
key (INIT,).
"""

from __future__ import annotations

import csv
import hashlib
import json
from collections import namedtuple
from dataclasses import dataclass, field, fields
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .advantage import ReturnWindow, gae, mgae, normalize
from .checkpoint import write_atomic
from .config import RunConfig, SafetySection
from .envs import make_env
from .focops import categorical_kl, cost_advantage, lagrange_update, policy_loss
from .homography import HomographyError, jaccard_loss, solve_homography, warp
from .nets import (Adam, CadeNets, NetConfig, action_onehot, cade_forward,
                   gru_step_np, minimize, mlp_np, mlp_taped, mse_loss,
                   onehot_rows, row_product, trunk_replay_taped)
from .safety import can_fire, screen_action

__all__ = [
    "TrainerError",
    "EpisodeBuffer",
    "METRIC_COLUMNS",
    "STAGES",
    "code_hash",
    "INIT",
    "TRAIN",
    "EVAL",
    "EpisodeStreams",
    "episode_streams",
    "collect_episode",
    "run_nets",
    "TrainState",
    "init_state",
    "iterate",
    "train",
    "evaluate",
    "summarize",
    "write_metrics_csv",
    "read_metrics_csv",
]

METRIC_COLUMNS = ("iteration", "ep_reward", "ep_cost", "beta", "kl",
                  "loss_pi", "loss_r", "loss_c", "loss_sdm", "override_rate")

STAGES = ("collect", "lagrange", "sdm", "cost_estimator", "reward_advantage",
          "cost_advantage", "reward_estimator", "actor")


class TrainerError(RuntimeError):
    """A failed train stage, eval episode or dynamics fit: a non-finite
    loss, gradient or logits, or a failed SDM solve; it ends with the snapshot's path."""


@dataclass
class EpisodeBuffer:
    """Recorded steps, aligned per step: one episode, or a batch of them.

    Each fact is kept once.  One-hot rows of the executed actions come from
    ``onehot_rows(branches, actions)``; the trunk's previous-action input
    is those rows shifted down one step, zeros first (:func:`_trunk_inputs`).
    No head output is recorded: :func:`_reward_advantage` reads the reward
    head and :func:`_actor_update` the actor head, on the hidden rows.
    """

    obs: np.ndarray          # (T, r, c) observation consumed at each step
    next_obs: np.ndarray     # (T, r, c)
    actions: np.ndarray      # (T, B) executed actions
    hiddens: np.ndarray      # (T, nh) trunk state rows after consuming obs_t
    gates: np.ndarray        # (T, 4, nh) that step's GRU gate rows r, z, n, h U_n
    rewards: np.ndarray      # (T,)
    costs: np.ndarray        # (T,)
    fired: int               # screening overrides during collection

    def __len__(self):
        return self.obs.shape[0]

    @classmethod
    def concat(cls, bufs: list[EpisodeBuffer]) -> EpisodeBuffer:
        """The episodes ``bufs`` end to end, as one batch; a lone episode is
        its own batch, not a copy (no stage writes to a buffer's arrays)."""
        if len(bufs) == 1:
            return bufs[0]
        cols = (np.concatenate([getattr(b, f.name) for b in bufs])
                for f in fields(cls) if f.name != "fired")
        return cls(*cols, fired=sum(b.fired for b in bufs))


def code_hash() -> str:
    """Content hash of the package sources, for manifest provenance."""
    root = Path(__file__).resolve().parent
    h = hashlib.sha1()
    for p in sorted(root.rglob("*.py")):
        h.update(p.relative_to(root).as_posix().encode())
        h.update(b"\0")
        h.update(p.read_bytes())
    return h.hexdigest()


INIT, TRAIN, EVAL = 0, 1, 2  # spawn-key tags; episode keys are (job, k, i)


# one episode's generators: the env's reset draw, the policy's samples, and
# the imagined rollouts of the screen and of the cost advantage
EpisodeStreams = namedtuple("EpisodeStreams", "env policy screen imagine")


def episode_streams(seed: int, job: int, k: int) -> EpisodeStreams:
    """Episode ``k`` of ``job`` (``TRAIN`` or ``EVAL``): the children of the
    ``SeedSequence(seed)`` keyed (job, k), disjoint from the init key."""
    children = np.random.SeedSequence(seed, spawn_key=(job, k)).spawn(4)
    return EpisodeStreams(*map(np.random.default_rng, children))


def collect_episode(nets: CadeNets, env, streams: EpisodeStreams,
                    screen: SafetySection | None, gamma: float) -> EpisodeBuffer:
    """Roll one episode from ``env.reset(streams.env)``, sampling from
    ``streams.policy``; ``screen`` (None: off) filters every proposed
    action, drawing from ``streams.screen`` and pricing imagined costs
    with discount ``gamma``, with one first-step memo for the episode (see
    ``cade.safety``).  The caller decides whether the screen runs:
    ``iterate`` passes it only from its activation point on.  A screen that
    ``can_fire`` proves inert under the episode's fixed heads is dropped
    for the episode: each of its calls would keep the proposal, and its
    stream feeds nothing else.  A step records the executed action, the
    screen's substitute when it fires, and no log-prob: the actor stage
    prices it from the step's hidden row."""
    if screen is not None and not can_fire(nets, screen, gamma):
        screen = None
    branches = nets.cfg.branches
    obs = env.reset(streams.env)
    hidden = nets.initial_hidden()
    prev_oh = np.zeros((1, nets.cfg.act_dim))
    steps = []  # one tuple per step: EpisodeBuffer's fields but fired
    fired = 0
    memo = {}  # the screen's first steps
    while True:
        action, hidden, gates = cade_forward(nets, obs, prev_oh, hidden,
                                             streams.policy)
        if screen is not None:
            decision = screen_action(nets, obs, hidden, action, streams.screen,
                                     cfg=screen, gamma=gamma, memo=memo)
            action = decision.action
            fired += int(decision.fired)
        res = env.step(action)
        steps.append((obs, res.obs, action, hidden[0], np.concatenate(gates),
                      res.reward, res.cost))
        prev_oh, obs = action_onehot(branches, action), res.obs
        if res.terminal:
            return EpisodeBuffer(*map(np.asarray, zip(*steps)), fired=fired)


# ---------------------------------------------------------------------------
# update stages; each runs once per iteration over the collected batch


def _trunk_inputs(branches: tuple[int, ...], buf: EpisodeBuffer) -> np.ndarray:
    """One episode's trunk inputs (T, obs + act): each observation beside
    the previous executed action's one-hot row, zeros at the first step."""
    prev = np.zeros((len(buf), int(sum(branches))))
    prev[1:] = onehot_rows(branches, buf.actions[:-1])
    return np.concatenate([buf.obs.reshape(len(buf), -1), prev], axis=1)


def _sdm_update(batch: EpisodeBuffer, branches: tuple[int, ...],
                opt: Adam) -> float:
    obs = batch.obs
    r, c = obs.shape[1:]
    x = np.concatenate([obs.reshape(len(obs), -1),
                        onehot_rows(branches, batch.actions)], axis=1)

    def loss_of(tape, p):
        offsets = mlp_taped(p, tape.const(x))
        pred = warp(obs, solve_homography(offsets, r, c))
        return jaccard_loss(pred, batch.next_obs)

    return minimize(loss_of, opt)


def _mse_update(opt: Adam, x: np.ndarray, targets: np.ndarray,
                out_act: str | None = None) -> float:
    """One MSE step of an MLP head on rows ``x``; inputs enter as constants,
    so the reward head's loss, whose rows hold trunk states, never reaches
    the trunk."""
    def loss_of(tape, p):
        return mse_loss(mlp_taped(p, tape.const(x), out_act), targets[:, None])

    return minimize(loss_of, opt)


def _cost_update(batch: EpisodeBuffer, opt: Adam) -> float:
    # the estimator prices arriving at a state: pairs are (o_{t+1}, c_t)
    next_obs = batch.next_obs
    return _mse_update(opt, next_obs.reshape(len(next_obs), -1), batch.costs,
                       out_act="sigmoid")


def _reward_advantage(nets: CadeNets, bufs: list[EpisodeBuffer],
                      cfg: RunConfig, window: ReturnWindow):
    """Per-step advantages of the batch, and the reward head's regression
    rows and targets.

    The only reader of the reward head.  MGAE reads it on (hidden, executed
    action) rows, its per-step reward estimates; GAE's critic reads it on
    (hidden, zero action) rows, the state values V.  The head regresses on
    the rows it was read on, towards r for MGAE and r + gamma V(next) for
    GAE.  Neither the head nor the trunk has moved since collection, and a
    row's bits do not depend on its batch, so these are the collection-time
    numbers.  Each episode is estimated on its own, in collection order,
    the order the return window advances in; normalization, when on, runs
    over the pooled batch.
    """
    parts = []  # (advantages, rows, targets) per episode
    for buf in bufs:
        r = buf.rewards
        act = (onehot_rows(nets.cfg.branches, buf.actions) if cfg.adv == "mgae"
               else np.zeros((len(buf), nets.cfg.act_dim)))
        rows = np.concatenate([buf.hiddens, act], axis=1)
        out = mlp_np(nets.params["reward"], rows)[:, 0]
        if cfg.adv == "mgae":
            adv, targets = mgae(r, out, window.mean()), r
        else:
            values = np.append(out, 0.0)
            adv = gae(r, values, cfg.gamma)
            targets = r + cfg.gamma * values[1:]
        window.push(float(r.sum()))
        parts.append((adv, rows, targets))
    a_r, rows, targets = map(np.concatenate, zip(*parts))
    return (normalize(a_r) if cfg.normalize_adv else a_r), rows, targets


def _replay_logits_np(nets: CadeNets, x_seqs: list) -> np.ndarray:
    """Value-level trunk+actor replay, every episode from a zero state: the
    logits (sum T_i, A) under the current parameters.

    The trunk's input side is one product over the batch, and only ``h U``
    steps row by row; the actor head runs once on all the hidden rows.  Its
    products are row products, so under the rollout's parameters these are
    the rollout's logits bitwise.
    """
    p = nets.params["trunk"]
    rows = iter((row_product(np.concatenate(x_seqs), p["W"]) + p["b"])[:, None])
    hs = []
    for xs in x_seqs:
        h = nets.initial_hidden()
        for _ in range(xs.shape[0]):
            h = gru_step_np(p, next(rows), h)[0]
            hs.append(h)
    return mlp_np(nets.params["actor"], np.concatenate(hs))


def _actor_update(nets: CadeNets, bufs: list[EpisodeBuffer],
                  batch: EpisodeBuffer, a_r: np.ndarray,
                  a_c: np.ndarray | None, beta: float, opts: dict):
    """One :func:`minimize` step of trunk and actor on the policy loss
    averaged over the batch's steps; returns the loss and the post-update
    batch KL against the collection-time policy pi_k, from one value replay.

    The batch replays as one ``gru_seq`` tape op, every episode (``bufs``,
    in ``batch`` order) from a zero state, on the rollout's hidden rows and
    gates.  Neither head has moved since collection, so the step is taken
    at pi_k: it is the score-function gradient of :func:`policy_loss`,
    which prices a screen substitute like any executed action.  pi_k's
    logits, the actor head on those rows (a row's bits do not depend on its
    batch), serve the KL alone, the only measure of how far the step moved
    the policy.
    """
    branches = nets.cfg.branches
    x_seqs = [_trunk_inputs(branches, b) for b in bufs]
    logits_old = mlp_np(nets.params["actor"], batch.hiddens)

    def loss_of(tape, trunk, actor):
        hs = trunk_replay_taped(trunk, tape, x_seqs, batch.hiddens, batch.gates)
        return policy_loss(mlp_taped(actor, hs), branches, batch.actions,
                           a_r, a_c, beta)

    loss_value = minimize(loss_of, opts["trunk"], opts["actor"])
    fresh = _replay_logits_np(nets, x_seqs)
    return loss_value, float(categorical_kl(fresh, logits_old, branches).mean())


# ---------------------------------------------------------------------------
# the training loop


def write_metrics_csv(path, rows, columns=METRIC_COLUMNS) -> None:
    """Full rewrite with repr floats; reruns must be byte-identical."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_cell(row[c]) for c in columns])


def _cell(value):
    return repr(float(value)) if isinstance(value, float) else value


def read_metrics_csv(path) -> list[dict]:
    """The rows :func:`write_metrics_csv` wrote; an int cell comes back as
    the int, a repr float as the float with its bits (a NaN as ``nan``)."""
    with open(path, newline="") as fh:
        return [{k: int(v) if v.lstrip("-").isdigit() else float(v)
                 for k, v in row.items()} for row in csv.DictReader(fh)]


def run_nets(cfg: RunConfig) -> CadeNets:
    """A run's initial networks, from the key (INIT,); a load builds them too."""
    env = make_env(cfg.env, cfg.level, timeout=cfg.timeout)
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(INIT,)))
    return CadeNets(NetConfig(int(np.prod(env.obs_shape)), tuple(env.branches),
                              cfg.hidden_dim, cfg.head_width), rng)


@dataclass
class TrainState:
    """What one iteration hands the next."""

    nets: CadeNets
    opts: dict  # head -> its Adam, over nets.params[head]
    beta: float = 0.0  # the Lagrange multiplier
    window: ReturnWindow = field(default_factory=ReturnWindow)
    it: int = 0  # iterations done; the episode index derives from it
    total: int = 0  # env steps collected
    rows: list = field(default_factory=list)  # metrics.csv's, one per iteration


def init_state(cfg: RunConfig) -> TrainState:
    """The state before iteration 1: :func:`run_nets`, fresh optimizers."""
    nets = run_nets(cfg)
    return TrainState(nets, {h: Adam(nets.params[h]) for h in CadeNets.HEADS})


def iterate(state: TrainState, cfg: RunConfig, env, note) -> dict:
    """Run iteration ``state.it + 1`` on ``env``; append its row and return it.

    ``note`` gets each stage's name just before the stage runs: ``collect``
    once per episode, then the rest of ``STAGES`` in order (``lagrange``
    and ``cost_advantage`` only with Lagrange on).
    """
    state.it += 1
    nets, opts = state.nets, state.opts
    bufs, streams = [], []
    for j in range(cfg.episodes_per_iter):
        streams.append(episode_streams(
            cfg.seed, TRAIN, (state.it - 1) * cfg.episodes_per_iter + j))
        active = state.total / cfg.step_budget >= cfg.safety.activation_fraction
        screen = cfg.safety.for_phase("train") if active else None
        note("collect")
        bufs.append(collect_episode(nets, env, streams[-1], screen, cfg.gamma))
        state.total += len(bufs[-1])
    batch = EpisodeBuffer.concat(bufs)
    ep_reward = float(np.mean([b.rewards.sum() for b in bufs]))
    ep_cost = float(np.mean([b.costs.sum() for b in bufs]))

    if cfg.lagrange.enabled:
        note("lagrange")
        state.beta = lagrange_update(state.beta, ep_cost, cfg.lagrange.budget)
    note("sdm")
    loss_sdm = _sdm_update(batch, nets.cfg.branches, opts["sdm"])
    note("cost_estimator")
    loss_c = _cost_update(batch, opts["cost"])
    note("reward_advantage")
    a_r, rows, targets = _reward_advantage(nets, bufs, cfg, state.window)
    a_c = None
    if cfg.lagrange.enabled:
        note("cost_advantage")
        a_c = np.concatenate([
            cost_advantage(nets, b.obs, b.actions, b.hiddens, s.imagine,
                           cfg.cost_adv, cfg.gamma)
            for b, s in zip(bufs, streams)])
    note("reward_estimator")
    loss_r = _mse_update(opts["reward"], rows, targets)
    note("actor")
    loss_pi, kl = _actor_update(nets, bufs, batch, a_r, a_c, state.beta, opts)

    state.rows.append(dict(
        iteration=state.it, ep_reward=ep_reward, ep_cost=ep_cost,
        beta=state.beta, kl=kl, loss_pi=loss_pi, loss_r=loss_r, loss_c=loss_c,
        loss_sdm=loss_sdm, override_rate=batch.fired / len(batch)))
    return state.rows[-1]


def train(cfg: RunConfig, run_dir, instrument=None) -> TrainState:
    """Run one seed to its step budget; artifacts land under ``run_dir``.

    An earlier run's checkpoints, diagnostic and ``metrics.csv`` go first;
    ``manifest.json`` is then written once, as provenance: the config, the
    :func:`code_hash` and the start time.  :func:`iterate` folds over
    :func:`init_state`'s state until the budget is collected, with
    ``instrument`` (optional; tests and the benchmark read the stages from
    it) as its ``note``.  The rows go to ``metrics.csv`` and, last, the
    networks to ``ckpt-final.npz`` (at zero budget, :func:`run_nets`'s), so
    a run is finished once that file exists; the end state is returned.
    When a stage fails or ``KeyboardInterrupt`` ends it, the networks go to
    ``diagnostic.npz`` instead; a ``TrainerError`` follows, or the interrupt.
    """
    cfg.validate()
    run_dir = Path(run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    for stale in [*run_dir.glob("ckpt-*.npz"), run_dir / "diagnostic.npz",
                  run_dir / "metrics.csv"]:
        stale.unlink(missing_ok=True)  # an earlier run's end state
    env = make_env(cfg.env, cfg.level, timeout=cfg.timeout)
    state = init_state(cfg)
    manifest = {"config": cfg.to_dict(), "code_hash": code_hash(),
                "started": datetime.now(timezone.utc).isoformat()}
    write_atomic(run_dir / "manifest.json", json.dumps(manifest, indent=2) + "\n")

    noted = [None]  # the last stage noted, which a failure names

    def note(stage: str) -> None:
        noted[0] = stage
        if instrument is not None:
            instrument(stage)

    failure = None
    try:
        while state.total < cfg.step_budget:
            iterate(state, cfg, env, note)
    except (HomographyError, ValueError, KeyboardInterrupt) as exc:
        # a degenerate SDM solve, non-finite rollout logits or a non-finite
        # loss or gradient (minimize raises before it steps), or an interrupt
        failure = exc
    write_metrics_csv(run_dir / "metrics.csv", state.rows)
    end = run_dir / ("diagnostic.npz" if failure else "ckpt-final.npz")
    state.nets.save(end)
    if isinstance(failure, KeyboardInterrupt):
        raise failure
    if failure is not None:
        raise TrainerError(
            f"{noted[0]} stage failed at iteration {state.it}: "
            f"{type(failure).__name__}: {failure}; diagnostic snapshot saved to {end}"
        ) from failure
    return state


# ---------------------------------------------------------------------------
# evaluation


def evaluate(nets: CadeNets, env, episodes: int, seed: int,
             screen: SafetySection | None, gamma: float) -> list[dict]:
    """Per-episode rows from ``collect_episode``, episode k on
    ``episode_streams(seed, EVAL, k)``; the screen runs unless ``screen``
    is None.

    Reward and cost are summed in step order, one step at a time.
    """
    rows = []
    for ep in range(episodes):
        buf = collect_episode(nets, env, episode_streams(seed, EVAL, ep),
                              screen, gamma)
        reward = cost = 0.0
        for r, c in zip(buf.rewards.tolist(), buf.costs.tolist()):
            reward += r
            cost += c
        rows.append({"episode": ep, "reward": reward, "cost": cost,
                     "steps": len(buf), "override_rate": buf.fired / len(buf)})
    return rows


def summarize(rows: list[dict]) -> dict:
    """Mean and population std of episodic reward and cost, plus overrides."""
    if not rows:
        raise ValueError("no episodes to summarize")
    r = np.asarray([row["reward"] for row in rows], dtype=np.float64)
    c = np.asarray([row["cost"] for row in rows], dtype=np.float64)
    o = np.asarray([row["override_rate"] for row in rows], dtype=np.float64)
    return {
        "episodes": len(rows),
        "reward_mean": float(r.mean()), "reward_std": float(r.std()),
        "cost_mean": float(c.mean()), "cost_std": float(c.std()),
        "override_rate_mean": float(o.mean()),
    }
