"""The benchmark's workloads and how one run is split into sub-runs.

Every workload runs ``cade`` through its public API at level ``medium``
with the default ``RunConfig`` apart from the fields named here.

Throughput and iteration time depend strongly on the training seed: the
episode lengths of two seeds can differ several-fold over the same step
budget.  So one benchmark run trains many seeds derived from ``--seed``,
each with a short budget, and pools them.  A sub-run is one fresh worker
process that trains a block of seeds in turn; the first seed of each block
pays the import, so every sub-run yields one set-up time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["Workload", "WORKLOADS", "SubRun", "plan"]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # RunConfig overrides of a `train` workload; None for the study
    config: dict | None = None
    # `dynamics_study` arguments of the study workload
    study: dict = field(default_factory=dict)
    # env-step budget of one training seed
    step_budget: int = 0
    # seeds trained one after another in one worker process
    seeds_per_block: int = 1
    # the share of --seconds given to one block: it sizes the number of
    # blocks, so the work of a run depends on --seconds alone.  It is about
    # the wall time of one block, process start included, on a 2-vCPU
    # x86-64 VM, except for river-plain: its blocks take about 5.4 s, and
    # it is given six sub-runs at --seconds 25, so its runs last about 33 s
    block_s: float = 1.0

    def spec(self, seeds: list[int], traced: bool) -> dict:
        """Worker spec for one block (the output directory is added later)."""
        spec = {"kind": "train" if self.config is not None else "study",
                "traced": traced, "seeds": seeds}
        if self.config is None:
            spec["study"] = self.study
        else:
            spec["config"] = dict(self.config, step_budget=self.step_budget)
        return spec


_GUARDED = {"lagrange": {"enabled": True},
            "safety": {"mode": "train", "activation_fraction": 0.0}}

WORKLOADS = {w.name: w for w in (
    Workload("cliff-plain",
             "actor stage dominates (taped trunk replay, Tape.backward); no renderer, screen off",
             config={"env": "cliff-circular", "level": "medium"},
             step_budget=100, seeds_per_block=11, block_s=3.3),
    Workload("river-plain",
             "collect dominates, mostly render_river_mask; the control for actor-stage changes",
             config={"env": "planar-river", "level": "medium"},
             step_budget=30, seeds_per_block=4, block_s=4.1),
    Workload("cliff-guarded",
             "Lagrange on, screen from step 0: batch-1 sdm_predict in the screen dominates",
             config={"env": "cliff-circular", "level": "medium", **_GUARDED},
             step_budget=60, seeds_per_block=6, block_s=4.6),
    Workload("cliff-dynstudy",
             "dynamics study: taped homography solve and warp at batch 64, rollout_eval",
             study={"env_name": "cliff-circular", "level": "medium"},
             seeds_per_block=1, block_s=4.2),
)}


@dataclass(frozen=True)
class SubRun:
    seeds: tuple[int, ...]
    traced: bool


def plan(workload: Workload, seed: int, seconds: float, trace: bool) -> list[SubRun]:
    """Sub-runs of one benchmark run, in execution order.

    ``seconds / block_s`` sub-runs fit in a run.  The training seeds of
    benchmark seed ``s`` are ``s*n .. s*n + n - 1``, disjoint between
    benchmark seeds.  Untraced: every block once, then the first block
    again in a fresh process, which must write the same bytes.  Traced:
    the first quarter of the blocks, twice over, each untraced and then
    traced, for the tracing overhead, the traced-vs-untraced byte check
    and the exact-count check between the two traced runs.
    """
    k = workload.seeds_per_block
    blocks = max(1, int(seconds / workload.block_s) - 1)
    n = blocks * k
    seeds = [tuple(range(seed * n + b * k, seed * n + (b + 1) * k))
             for b in range(blocks)]
    if trace:
        quarter = seeds[:max(1, round(blocks / 4))]
        return [SubRun(s, traced) for traced in (False, True) for s in quarter] * 2
    return [SubRun(s, False) for s in seeds + seeds[:1]]
