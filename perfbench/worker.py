"""One benchmark sub-run: a block of seeds, trained in one fresh process.

Usage: python3 perfbench/worker.py '<spec json>'

The spec names what to run ("train" with a RunConfig dict, or "study" with
``dynamics_study`` arguments), the seeds, a directory for run outputs and
whether to trace.  The result is printed as one JSON line.  The clock starts
before ``cade`` is imported, so the set-up time of the first seed includes
the import.  The parent sets the BLAS thread variables before this process
loads numpy.

Every time is CPU time of this process (``time.process_time``), not wall
time.  ``cade`` runs on one thread (BLAS is pinned to one), so on an idle
core the two agree; on a shared host the CPU clock leaves out the time the
process waits for a core or the hypervisor lends its core to another guest
(steal time).  The clock also takes reference readings as it goes, and the
times measured in a seed are scaled to a fixed core speed (``speed.py``).
Per-layer span times stay unscaled.
"""

import time

T0 = time.process_time()

import csv  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from spans import TARGETS, Tracer  # noqa: E402
from speed import Clock  # noqa: E402  (loads numpy, as importing cade would)

CLOCK = Clock()

# The untraced runs wrap only these: collect_episode and collect_dataset
# (once per episode or dataset) to count exact env steps, env.step and
# Adam.step (once per minibatch) to give the clock a chance to take a
# reading, and train_dyn (once per model kind) to start study iterations.
# Each costs one timestamp pair per call.
ENV_STEPS = (("cade.envs.cliff:CliffCircular", "step", "envs.step"),
             ("cade.envs.river:PlanarRiver", "step", "envs.step"))
TRAIN_COUNTERS = (("cade.trainer", "collect_episode", "trainer.collect_episode"),
                  *ENV_STEPS)
STUDY_COUNTERS = (("cade.experiments", "collect_dataset", "dynbench.collect_dataset"),
                  ("cade.experiments", "train_dyn", "dynbench.train_dyn"),
                  ("cade.nets:Adam", "step", "nets.Adam.step"), *ENV_STEPS)

# per-call duration samples are kept for these, for per-call percentiles
CALL_SAMPLES = ("safety.screen_action", "envs.river.render")


def reset_peak_rss() -> bool:
    """Restart the kernel's peak-RSS mark of this process (Linux 4.0+)."""
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
        return True
    except OSError:
        return False


def peak_rss_mb() -> float:
    """Peak RSS since the last reset, or since the start without one."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class OutputError(RuntimeError):
    """A run wrote outputs that fail the benchmark's checks."""


class Counts:
    """Exact counters derived at the traced boundaries."""

    def __init__(self):
        self.n = dict(env_steps=0, tape_ops=0, screen_fired=0,
                      screen_rollouts=0, screen_distinct=0,
                      batch_rows=0, batch_calls=0)
        self.episode_steps: list[int] = []
        self._screen_actions: list[bytes] = []

    def observers(self) -> dict:
        n, pending, episodes = self.n, self._screen_actions, self.episode_steps

        def steps(args, kwargs, collected):
            n["env_steps"] += len(collected)
            episodes.append(len(collected))

        def tape_ops(args, kwargs, _):
            n["tape_ops"] += len(args[0].ops())

        def screen_rollout_step(args, kwargs, _):
            pending.append(args[2].tobytes())

        def screen_call(args, kwargs, decision):
            cfg = args[6] if len(args) > 6 else kwargs["cfg"]
            # every imagined rollout warps exactly `horizon` times
            firsts = pending[::cfg.horizon]
            n["screen_rollouts"] += len(firsts)
            n["screen_distinct"] += len(set(firsts))
            n["screen_fired"] += int(decision.fired)
            pending.clear()

        def warp_rows(args, kwargs, _):
            grid = getattr(args[0], "values", args[0])
            n["batch_rows"] += 1 if grid.ndim == 2 else grid.shape[0]
            n["batch_calls"] += 1

        def solve_rows(args, kwargs, _):
            n["batch_rows"] += args[0].shape[0]
            n["batch_calls"] += 1

        return {
            # the clock takes its reference readings between calls that
            # come at least every few milliseconds
            "cade.envs.cliff:CliffCircular.step": CLOCK.tick,
            "cade.envs.river:PlanarRiver.step": CLOCK.tick,
            "cade.nets:Adam.step": CLOCK.tick,
            "cade.trainer.collect_episode": steps,
            "cade.experiments.collect_dataset": steps,
            "cade.autograd:Tape.backward": tape_ops,
            "cade.safety.sdm_predict": screen_rollout_step,
            "cade.trainer.screen_action": screen_call,
            "cade.homography.solve_values": solve_rows,
            "cade.homography.warp_values": warp_rows,
            "cade.trainer.warp": warp_rows,
            "cade.dynbench.warp": warp_rows,
        }


def _stage_times(notes, end: float) -> dict[str, float]:
    """Seconds per stage from the (stage, t) notes of the instrument hook."""
    stages: dict[str, float] = {}
    for (stage, t), nxt in zip(notes, notes[1:] + [(None, end)]):
        stages[stage] = stages.get(stage, 0.0) + nxt[1] - t
    return stages


def iteration_times(starts, end: float) -> list[float]:
    """Durations of the iterations that begin at ``starts``; each runs to
    the next start, the last to ``end``."""
    return [b - a for a, b in zip(starts, starts[1:] + [end])]


def check_metrics_csv(path: Path, columns, iterations: int) -> str:
    """One header, one finite row per iteration; returns the SHA-256."""
    blob = path.read_bytes()
    rows = list(csv.reader(blob.decode().splitlines()))
    if tuple(rows[0]) != tuple(columns):
        raise OutputError(f"metrics.csv header {rows[0]}")
    if len(rows) - 1 != iterations:
        raise OutputError(f"metrics.csv has {len(rows) - 1} rows for "
                          f"{iterations} iterations")
    for i, row in enumerate(rows[1:], start=1):
        if int(row[0]) != i or not all(math.isfinite(float(v)) for v in row):
            raise OutputError(f"bad metrics.csv row {row}")
    return hashlib.sha256(blob).hexdigest()


def check_study(result: dict, horizon: int) -> str:
    """Every model kind has a full curve with IoU in [0, 1]; returns the
    SHA-256 of the result without its wall-clock field."""
    result = dict(result)
    result.pop("train_seconds")
    for kind, rows in result["rows"].items():
        if len(rows) != horizon or not all(0.0 <= r["iou_mean"] <= 1.0 for r in rows):
            raise OutputError(f"bad rollout curve for {kind}")
    return hashlib.sha256(json.dumps(result, sort_keys=True).encode()).hexdigest()


def run_train(spec: dict, seed: int, tracer: Tracer, counts: Counts) -> dict:
    from cade.config import RunConfig
    from cade import trainer

    cfg = RunConfig.from_dict(dict(spec["config"], seed=seed))
    run_dir = Path(spec["run_root"]) / f"seed-{seed}"
    notes: list = []
    note = notes.append
    with tracer.installed(TARGETS if spec["traced"] else TRAIN_COUNTERS):
        trainer.train(cfg, run_dir,
                      instrument=lambda stage: note((stage, CLOCK())))
        end = CLOCK()
    k = cfg.episodes_per_iter
    eps = counts.episode_steps
    starts = [t for i, (stage, t) in enumerate(notes)
              if stage == "collect" and (i == 0 or notes[i - 1][0] != "collect")]
    return {
        "ready": notes[0][1],
        "work_s": end - notes[0][1],
        "iterations": len(starts),
        "iter_s": iteration_times(starts, end),
        "iter_steps": [sum(eps[i:i + k]) for i in range(0, len(eps), k)],
        "stages": _stage_times(notes, end),
        "digest": check_metrics_csv(run_dir / "metrics.csv",
                                    trainer.METRIC_COLUMNS, len(starts)),
    }


def run_study(spec: dict, seed: int, tracer: Tracer, counts: Counts) -> dict:
    from cade import experiments
    from cade.envs import make_env

    params = dict(spec["study"], seed=seed)
    make_env(params["env_name"], params.get("level", "medium"), seed=seed)
    ready = CLOCK()
    with tracer.installed(TARGETS if spec["traced"] else STUDY_COUNTERS):
        start = CLOCK()
        result = experiments.dynamics_study(**params)
        end = CLOCK()
    # one iteration is the fit and the rollout evaluation of one model kind,
    # from one train_dyn call to the next; per minibatch or per epoch, the
    # kinds' different costs split the times into clusters, and the median
    # falls between two of them
    starts = [s[1] for s in tracer.spans if s[0] == "dynbench.train_dyn"]
    return {
        "ready": ready,
        "work_s": end - start,
        "iterations": 0,
        "iter_s": iteration_times(starts, end),
        "iter_steps": [1] * len(starts),
        "stages": {},
        "digest": check_study(result, params.get("horizon", 10)),
    }


def environment() -> dict:
    """Versions and BLAS build of the libraries this process loaded."""
    import numpy
    import scipy
    from cade.trainer import code_hash

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "cade_code_hash": code_hash()}


def main() -> int:
    spec = json.loads(sys.argv[1])
    runner = run_train if spec["kind"] == "train" else run_study
    seeds, setup_s = [], None
    for seed in spec["seeds"]:
        counts = Counts()
        tracer = Tracer(observers=counts.observers(), clock=CLOCK)
        # every seed starts from a collected heap, whatever ran before it,
        # and gets its own peak RSS
        gc.collect()
        peak_reset = reset_peak_rss()
        CLOCK.read()
        first = len(CLOCK.readings) - 1
        try:
            out = runner(spec, seed, tracer, counts)
        except Exception as exc:  # counted as a failed run; the block goes on
            seeds.append({"seed": seed, "error": f"{type(exc).__name__}: {exc}"})
            continue
        CLOCK.read()
        # the readings from just before the seed to just after it
        scale = CLOCK.scale(first)
        out["iter_s"] = [d * scale for d in out["iter_s"]]
        out["work_s"] *= scale
        ready = out.pop("ready")
        if not seeds:  # the first seed pays the import
            setup_s = (ready - T0) * scale
        out["scale"] = scale
        out["peak_rss_mb"] = peak_rss_mb()
        out["peak_reset"] = peak_reset
        out["seed"] = seed
        out["counts"] = counts.n
        if spec["traced"]:
            summary = tracer.summarize()
            out["layers"] = {name: {k: row[k] for k in ("calls", "self_s")}
                             for name, row in summary.items()}
            out["durations_s"] = {name: summary[name]["durations"]
                                  for name in CALL_SAMPLES if name in summary}
        seeds.append(out)
    print(json.dumps({
        "setup_s": setup_s,
        "readings": len(CLOCK.readings),
        "environment": environment(),
        "seeds": seeds,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
