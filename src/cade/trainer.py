"""End-to-end constrained training loop.

One iteration collects ``episodes_per_iter`` episodes with the current
policy and then updates once, in a fixed order: Lagrange multiplier,
dynamics model, cost estimator, reward advantage, cost advantage, reward
estimator, actor plus trunk.  Batching episodes averages the policy
gradient over more trajectories per step of the trust region.  Buffers are
replayed in recorded order, never shuffled, so the recurrent state seen at
update time matches the one seen at collection time bitwise.

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
from .config import RunConfig, SafetySection, TrustSection
from .envs import make_env
from .focops import (categorical_kl, cost_advantage, kl_early_stop,
                     lagrange_update, policy_loss)
from .homography import HomographyError, jaccard_loss, solve_homography, warp
from .nets import (Adam, CadeNets, NetConfig, action_onehot, cade_forward,
                   gru_step_np, minimize, mlp_np, mlp_taped, mse_loss,
                   onehot_rows, row_product, trunk_replay_taped)
from .safety import screen_action

__all__ = [
    "TrainerError",
    "EpisodeBuffer",
    "RunManifest",
    "METRIC_COLUMNS",
    "STAGES",
    "code_hash",
    "INIT",
    "TRAIN",
    "EVAL",
    "EpisodeStreams",
    "episode_streams",
    "collect_episode",
    "train",
    "evaluate",
    "summarize",
    "write_metrics_csv",
]

METRIC_COLUMNS = ("iteration", "ep_reward", "ep_cost", "beta", "kl",
                  "loss_pi", "loss_r", "loss_c", "loss_sdm", "override_rate")

STAGES = ("collect", "lagrange", "sdm", "cost_estimator", "reward_advantage",
          "cost_advantage", "reward_estimator", "actor")


class TrainerError(RuntimeError):
    """Aborted run: non-finite loss, failed SDM solve, or broken run directory."""


@dataclass
class EpisodeBuffer:
    """Recorded steps, aligned per step: one episode, or a batch of them.

    Each fact is kept once.  One-hot rows of the executed actions come from
    ``onehot_rows(branches, actions)``; the trunk's previous-action input
    is those rows shifted down one step, zeros first (:func:`_trunk_inputs`).
    No reward-head output is recorded: :func:`_reward_advantage` reads it.
    """

    obs: np.ndarray          # (T, r, c) observation consumed at each step
    next_obs: np.ndarray     # (T, r, c)
    actions: np.ndarray      # (T, B) executed actions
    logits: np.ndarray       # (T, act_dim) behavior logits
    log_probs: np.ndarray    # (T,) behavior log-probs of executed actions
    hiddens: np.ndarray      # (T, nh) trunk state rows after consuming obs_t
    gates: np.ndarray        # (T, 4, nh) that step's GRU gate rows r, z, n, h U_n
    rewards: np.ndarray      # (T,)
    costs: np.ndarray        # (T,)
    fired: int               # screening overrides during collection

    def __len__(self):
        return self.obs.shape[0]

    @classmethod
    def concat(cls, bufs: list[EpisodeBuffer]) -> EpisodeBuffer:
        """The episodes ``bufs`` end to end, as one batch."""
        cols = (np.concatenate([getattr(b, f.name) for b in bufs])
                for f in fields(cls) if f.name != "fired")
        return cls(*cols, fired=sum(b.fired for b in bufs))


@dataclass
class RunManifest:
    """Append-only run record; rows mirror metrics.csv."""

    config: dict
    seed: int
    code_hash: str
    rows: list = field(default_factory=list)
    started: str = ""
    finished: str = ""

    def save(self, path) -> None:
        write_atomic(path, json.dumps(self.__dict__, indent=2) + "\n")


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
    ``cade.safety``).  The caller decides whether the screen runs: ``train``
    passes it only from its activation point on."""
    branches = nets.cfg.branches
    obs = env.reset(streams.env)
    hidden = nets.initial_hidden()
    prev_oh = np.zeros((1, nets.cfg.act_dim))
    steps = []  # one tuple per step: EpisodeBuffer's fields but fired
    fired = 0
    memo = {}  # the screen's first steps
    while True:
        bundle = cade_forward(nets, obs, prev_oh, hidden, streams.policy)
        action, log_prob = np.asarray(bundle.action), bundle.log_prob
        if screen is not None:
            decision = screen_action(nets, obs, bundle.hidden, action,
                                     log_prob, streams.screen, screen,
                                     gamma, memo)
            action, log_prob = np.asarray(decision.action), decision.log_prob
            fired += int(decision.fired)
        onehot = action_onehot(branches, action)
        res = env.step(action)
        steps.append((obs, res.obs, action, bundle.logits, log_prob,
                      bundle.hidden[0], np.concatenate(bundle.gates),
                      res.reward, res.cost))
        hidden, prev_oh, obs = bundle.hidden, onehot, res.obs
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
            adv, targets = mgae(r, out, window.mean(), cfg.mgae_mode), r
        else:
            values = np.append(out, 0.0)
            adv = gae(r, values, cfg.gamma, cfg.lam)
            targets = r + cfg.gamma * values[1:]
        window.push(float(r.sum()))
        parts.append((adv, rows, targets))
    a_r, rows, targets = map(np.concatenate, zip(*parts))
    return (normalize(a_r) if cfg.normalize_adv else a_r), rows, targets


def _replay_logits_np(nets: CadeNets, x_seqs: list) -> tuple:
    """Value-level trunk+actor replay, every episode from a zero state.

    Returns the logits (sum T_i, A), hidden rows (sum T_i, H) and gate rows
    (sum T_i, 4, H), the forward ``trunk_replay_taped`` records.  The
    trunk's input side is one product over the batch, and only ``h U``
    steps row by row; the actor head runs once on all the hidden rows.  Its
    products are row products, so hidden rows, gates and logits equal the
    rollout's bitwise, and the logits are ``mlp_taped``'s forward.
    """
    p = nets.params["trunk"]
    rows = iter((row_product(np.concatenate(x_seqs), p["W"]) + p["b"])[:, None])
    hs, gates = [], []
    for xs in x_seqs:
        h = nets.initial_hidden()
        for _ in range(xs.shape[0]):
            h, g = gru_step_np(p, next(rows), h)
            hs.append(h)
            gates.append(np.concatenate(g))
    hs = np.concatenate(hs)
    return mlp_np(nets.params["actor"], hs), hs, np.array(gates)


def _actor_update(nets: CadeNets, bufs: list[EpisodeBuffer],
                  batch: EpisodeBuffer, a_r: np.ndarray,
                  a_c: np.ndarray | None, beta: float,
                  trust: TrustSection, opts: dict, epochs: int):
    """Policy loss through one taped trunk replay per epoch; stops on KL breach.

    Each epoch replays the whole batch through a single ``gru_seq`` tape op,
    every episode (``bufs``, in ``batch`` order) from a fresh initial state,
    so the tape holds the same few ops whatever the episode lengths.  The
    op records hidden states and gates computed before under the parameters
    it binds: epoch 0 takes the rollout's (the trunk has not moved since
    collection), epoch k the value replay that measured the KL after epoch
    k - 1, the rows a rollout under those parameters records.  Each epoch
    is one :func:`minimize` step of trunk and actor on the loss averaged
    over the batch's steps.  An epoch whose every step the KL mask drops
    has a zero gradient: it steps neither head and ends the update, since
    every later epoch would repeat it.  Returns the last loss and the
    post-update batch KL against the collection-time policy.
    """
    branches = nets.cfg.branches
    x_seqs = [_trunk_inputs(branches, b) for b in bufs]
    hiddens, gates = batch.hiddens, batch.gates
    masked = False

    def loss_of(tape, trunk, actor):  # on the current epoch's hiddens, gates
        nonlocal masked
        hs = trunk_replay_taped(trunk, tape, x_seqs, hiddens, gates)
        loss, info = policy_loss(mlp_taped(actor, hs), batch.logits, branches,
                                 batch.actions, batch.log_probs, a_r, a_c,
                                 beta, trust)
        masked = info["masked_steps"] == len(batch)
        # a constant loss reaches no parameter, so minimize steps nothing
        return tape.const(loss.values) if masked else loss

    for _ in range(epochs):
        loss_value = minimize(loss_of, opts["trunk"], opts["actor"])
        fresh, hiddens, gates = _replay_logits_np(nets, x_seqs)
        kl_value = float(categorical_kl(fresh, batch.logits, branches).mean())
        if masked or kl_early_stop(kl_value, trust.kl_stop):
            break
    return loss_value, kl_value


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


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


def train(cfg: RunConfig, run_dir, instrument=None) -> RunManifest:
    """Run one seed to its step budget; artifacts land under ``run_dir``.

    An earlier run's checkpoints, diagnostic and ``metrics.csv`` go first,
    and an unfinished ``manifest.json`` without rows replaces its manifest.
    The k-th collected episode (k from 0, counted over the run) draws from
    ``episode_streams(cfg.seed, TRAIN, k)``, its cost advantage included.
    The screen, when on in training, runs in every episode that starts once
    ``safety.activation_fraction`` of the step budget has been collected.
    ``instrument`` (optional) is called with each stage name just before
    the stage runs: ``collect`` once per episode, then every other stage
    of ``STAGES`` once, in that order (``lagrange`` and ``cost_advantage``
    only with Lagrange on).  Tests pin the update ordering with it, and
    the benchmark times the stages.
    """
    cfg.validate()
    run_dir = Path(run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    for stale in [*run_dir.glob("ckpt-*.npz"), run_dir / "diagnostic.npz",
                  run_dir / "metrics.csv"]:
        stale.unlink(missing_ok=True)  # an earlier run's end state
    note = instrument if instrument is not None else (lambda stage: None)

    env = make_env(cfg.env, cfg.level, timeout=cfg.timeout)
    obs_dim = int(np.prod(env.obs_shape))
    init = np.random.SeedSequence(cfg.seed, spawn_key=(INIT,))
    nets = CadeNets(NetConfig(obs_dim, tuple(env.branches), cfg.hidden_dim,
                              cfg.head_width), np.random.default_rng(init))
    opts = {head: Adam(nets.params[head], lr=cfg.lr) for head in CadeNets.HEADS}
    beta = 0.0
    window = ReturnWindow(cfg.window)
    screen = cfg.safety.for_phase("train")

    manifest = RunManifest(config=cfg.to_dict(), seed=cfg.seed,
                           code_hash=code_hash(), started=_now())
    manifest.save(run_dir / "manifest.json")  # no rows, not finished
    nets.save(run_dir / "ckpt-init.npz")

    def run(stage: str, fn, *args):
        """Note ``stage`` and run it.  A ``HomographyError`` (a degenerate
        SDM solve) or ``ValueError`` (non-finite rollout logits, or a
        non-finite loss, which :func:`minimize` raises before it steps)
        aborts the run: the networks go to ``diagnostic.npz``, and the
        finished rows to ``metrics.csv`` and ``manifest.json``."""
        note(stage)
        try:
            return fn(*args)
        except (HomographyError, ValueError) as exc:
            nets.save(run_dir / "diagnostic.npz")
            write_metrics_csv(run_dir / "metrics.csv", manifest.rows)
            manifest.finished = _now()
            manifest.save(run_dir / "manifest.json")
            raise TrainerError(
                f"{stage} stage failed at iteration {it}: "
                f"{type(exc).__name__}: {exc}; diagnostic snapshot saved"
            ) from exc

    total = 0
    it = 0
    while total < cfg.step_budget:
        it += 1
        bufs, streams = [], []
        for j in range(cfg.episodes_per_iter):
            k = (it - 1) * cfg.episodes_per_iter + j
            streams.append(episode_streams(cfg.seed, TRAIN, k))
            active = total / cfg.step_budget >= cfg.safety.activation_fraction
            bufs.append(run("collect", collect_episode, nets, env, streams[-1],
                            screen if active else None, cfg.gamma))
            total += len(bufs[-1])
        batch = EpisodeBuffer.concat(bufs)
        ep_rewards = [float(b.rewards.sum()) for b in bufs]
        ep_costs = [float(b.costs.sum()) for b in bufs]

        if cfg.lagrange.enabled:
            beta = run("lagrange", lagrange_update, beta,
                       float(np.mean(ep_costs)), cfg.lagrange)
        loss_sdm = run("sdm", _sdm_update, batch, nets.cfg.branches,
                       opts["sdm"])
        loss_c = run("cost_estimator", _cost_update, batch, opts["cost"])
        a_r, rows, targets = run("reward_advantage", _reward_advantage, nets,
                                 bufs, cfg, window)
        a_c = None
        if cfg.lagrange.enabled:
            a_c = run("cost_advantage", lambda: np.concatenate([
                cost_advantage(nets, b.obs, b.actions, b.hiddens, s.imagine,
                               cfg.cost_adv, cfg.gamma)
                for b, s in zip(bufs, streams)]))
        loss_r = run("reward_estimator", _mse_update, opts["reward"], rows,
                     targets)
        loss_pi, kl_value = run("actor", _actor_update, nets, bufs, batch,
                                a_r, a_c, beta, cfg.trust, opts,
                                cfg.actor_epochs)

        manifest.rows.append({
            "iteration": it,
            "ep_reward": float(np.mean(ep_rewards)),
            "ep_cost": float(np.mean(ep_costs)),
            "beta": float(beta),
            "kl": float(kl_value),
            "loss_pi": float(loss_pi),
            "loss_r": float(loss_r),
            "loss_c": float(loss_c),
            "loss_sdm": float(loss_sdm),
            "override_rate": batch.fired / len(batch),
        })
        if it % cfg.checkpoint_every == 0:
            nets.save(run_dir / f"ckpt-{it:06d}.npz")

    if it > 0:
        nets.save(run_dir / "ckpt-final.npz")
    write_metrics_csv(run_dir / "metrics.csv", manifest.rows)
    manifest.finished = _now()
    manifest.save(run_dir / "manifest.json")
    return manifest


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
