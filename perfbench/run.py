"""cade benchmark: one command, four workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload cliff-plain --seed 0 --seconds 25 --trace 0

Runs the workload's sub-runs (fresh worker processes, see workloads.py),
checks their outputs, prints every metric by name with its unit, writes the
full record to .perfbench/<workload>-seed<seed>-trace<t>.json and prints one
JSON object as the last line.  ``--trace 0`` reports the end-to-end metrics
(measured with tracing off); ``--trace 1`` reports the per-layer metrics
from traced sub-runs.  Seed 0 is the default; seed 7 is held out for
re-checking a claim on inputs it was not tuned on.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from spans import highest_percentile, percentile
from workloads import WORKLOADS, SubRun, Workload, plan

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
DEFAULT_SEED = 0
HELD_OUT_SEED = 7
# one BLAS thread: every layer runs on one core, and it keeps runs steady
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
DEADLINE_S = 170.0

STAGES = ("collect", "lagrange", "sdm", "cost_estimator", "reward_advantage",
          "cost_advantage", "reward_estimator", "actor")

E2E_UNITS = {"env_steps_per_s": "steps/s", "step_ms_p50": "ms", "step_ms_p90": "ms",
             "study_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}

# per-layer metrics read straight from span summaries, "<span>.<field>"
SPAN_METRICS = (
    "nets.trunk_replay_taped.self_s", "autograd.backward.calls",
    "autograd.backward.self_s", "nets.gru_step_np.calls",
    "nets.cade_forward.calls", "nets.cade_forward.self_s",
    "nets.Adam.step.self_s", "envs.step.calls", "envs.step.self_s",
    "envs.river.render.calls", "envs.river.render.self_s",
    "safety.screen_action.calls", "safety.screen_action.self_s",
    "homography.sdm_predict.calls", "homography.sdm_predict.self_s",
    "homography.solve_values.self_s", "homography.warp_values.self_s",
    "homography.solve_homography.self_s", "homography.warp.self_s",
    "dynbench.train_dyn.self_s", "dynbench.rollout_eval.self_s",
    "dynbench.collect_dataset.self_s", "focops.cost_advantage.calls",
    "focops.cost_advantage.self_s", "focops.policy_loss.self_s",
    "checkpoint.save_params.calls", "checkpoint.save_params.self_s",
)


def unit_of(metric: str) -> str:
    if metric in E2E_UNITS:
        return E2E_UNITS[metric]
    if metric.endswith((".s", ".self_s")):
        return "s"
    if metric.endswith(".ms_p50"):
        return "ms"
    if metric.endswith(("_frac", ".rollouts_per_call", ".batch_mean")):
        return "ratio"
    return "count"


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.update({var: str(BLAS_THREADS) for var in BLAS_VARS})
    return env


def run_subrun(workload: Workload, sub: SubRun, deadline: float, out_dir: Path) -> dict:
    """Start one worker and wait for it; failures come back as "error"."""
    if deadline - time.monotonic() < 1.0:
        return {"error": "not started: the run's time is up"}
    (out_dir / "runs").mkdir(parents=True, exist_ok=True)
    run_root = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=out_dir / "runs")
    spec = dict(workload.spec(list(sub.seeds), sub.traced), run_root=run_root)
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
            cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=deadline - time.monotonic())
    except subprocess.TimeoutExpired:
        return {"error": "timed out"}
    finally:
        shutil.rmtree(run_root, ignore_errors=True)
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or [f"exit {proc.returncode}"]
        return {"error": tail[0]}
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check(subruns: list[tuple[SubRun, dict]]) -> list[str]:
    """Mark seed runs that fail or disagree with an earlier run of their seed.

    Every run of a seed must write the same bytes, make the same exact
    counts and run as many iterations; traced runs must also agree on
    every span's call count.
    Returns one message per failed seed run.
    """
    problems = []
    first: dict[int, dict] = {}
    first_traced: dict[int, dict] = {}
    for sub, res in subruns:
        if "error" in res:
            problems += [f"seed {s}: {res['error']}" for s in sub.seeds]
            continue
        for run in res["seeds"]:
            seed = run["seed"]
            if "error" in run:
                problems.append(f"seed {seed}: {run['error']}")
                continue
            ref = first.setdefault(seed, run)
            same = (run["digest"] == ref["digest"]
                    and run["iterations"] == ref["iterations"]
                    and run["counts"]["env_steps"] == ref["counts"]["env_steps"]
                    and len(run["iter_s"]) == len(ref["iter_s"]))
            if sub.traced:
                tref = first_traced.setdefault(seed, run)
                same = same and run["counts"] == tref["counts"] and \
                    {k: v["calls"] for k, v in run["layers"].items()} == \
                    {k: v["calls"] for k, v in tref["layers"].items()}
            if not same:
                run["error"] = "outputs or counts differ from an earlier run"
                problems.append(f"seed {seed}: {run['error']}")
    return problems


def _runs(subruns, traced: bool = False) -> list[dict]:
    """Every successful seed run of the (un)traced sub-runs."""
    return [run for sub, res in subruns if sub.traced == traced and "error" not in res
            for run in res["seeds"] if "error" not in run]


def _rate(runs) -> float:
    return sum(r["counts"]["env_steps"] for r in runs) / sum(r["work_s"] for r in runs)


def end_to_end(subruns, workload: Workload) -> tuple[dict, dict]:
    runs = _runs(subruns)
    procs = [res for sub, res in subruns if not sub.traced and "error" not in res]
    # each iteration's time per env step, counted once for every step
    # it took, so the percentiles are those a step sees, and a 1-step
    # episode weighs no more than the step it is
    step_ms = [t * 1e3 / n for r in runs for t, n in zip(r["iter_s"], r["iter_steps"])
               for _ in range(n)]
    rate = _rate(runs)
    if workload.config is None:
        call_s = statistics.median(r["work_s"] for r in runs)
    else:
        call_s = workload.step_budget / rate
    return {
        "env_steps_per_s": rate,
        "step_ms_p50": percentile(step_ms, 50),
        "step_ms_p90": percentile(step_ms, 90),
        "study_s": call_s,
        "setup_s": statistics.median(p["setup_s"] for p in procs
                                     if p["setup_s"] is not None),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
    }, {"seeds": len(runs), "iterations": sum(len(r["iter_s"]) for r in runs),
        "steps": len(step_ms), "processes": len(procs),
        "highest_percentile": highest_percentile(sum(len(r["iter_s"]) for r in runs)),
        "readings": sum(p["readings"] for p in procs),
        "peak_rss_per_seed": all(r["peak_reset"] for r in runs),
        "scale_median": statistics.median(r["scale"] for r in runs),
        "per_seed": [[r["seed"], r["counts"]["env_steps"], r["work_s"], len(r["iter_s"])]
                     for r in runs]}


def per_layer(subruns) -> dict:
    # the first traced run of every seed
    runs = list({r["seed"]: r for r in reversed(_runs(subruns, traced=True))}.values())

    def total(key):
        return sum(r["counts"][key] for r in runs)

    def span(name, field):
        return sum(r["layers"].get(name, {}).get(field, 0) for r in runs)

    def ms_p50(name):
        xs = [d * 1e3 for r in runs for d in r.get("durations_s", {}).get(name, ())]
        return percentile(xs, 50) if xs else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    trained = [r for r in runs if r["stages"]]
    out = {f"trainer.{st}.s": sum(r["stages"].get(st, 0.0) for r in runs)
           for st in STAGES}
    out["trainer.iterations"] = sum(r["iterations"] for r in runs)
    out["trainer.env_steps"] = sum(r["counts"]["env_steps"] for r in trained)
    out["autograd.tape_ops"] = total("tape_ops")
    out.update({metric: span(*metric.rsplit(".", 1)) for metric in SPAN_METRICS})
    screens = span("safety.screen_action", "calls")
    out["safety.screen_action.ms_p50"] = ms_p50("safety.screen_action")
    out["safety.fired_frac"] = ratio(total("screen_fired"), screens)
    out["safety.rollouts_per_call"] = ratio(total("screen_rollouts"), screens)
    out["safety.distinct_rollout_frac"] = ratio(total("screen_distinct"),
                                                total("screen_rollouts"))
    out["envs.river.render.ms_p50"] = ms_p50("envs.river.render")
    out["homography.batch_mean"] = ratio(total("batch_rows"), total("batch_calls"))
    untraced_rate = _rate(_runs(subruns))
    out["trace.overhead_frac"] = (untraced_rate - _rate(
        _runs(subruns, traced=True))) / untraced_rate
    return out


def environment(subruns) -> dict:
    env = next((res["environment"] for _, res in subruns if "error" not in res), {})
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, timeout=30)
            commit = proc.stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    return dict(env, blas_threads=BLAS_THREADS, nproc=len(os.sched_getaffinity(0)),
                git_commit=commit)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # a terminated run raises SystemExit, so the worker it waits on is killed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "cade" / "__init__.py").is_file():
        print(f"error: no cade sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds <= 0 or args.seed < 0:
        print("error: --seconds must be positive and --seed non-negative",
              file=sys.stderr)
        return 2
    result = measure(WORKLOADS[args.workload], args.seed, args.seconds,
                     bool(args.trace))
    return 0 if result is not None else 1


def measure(workload: Workload, seed: int, seconds: float, trace: bool,
            out_dir: Path = OUT) -> dict | None:
    """Run, check and report one benchmark run; returns the result line."""
    deadline = time.monotonic() + DEADLINE_S
    subruns = []
    for sub in plan(workload, seed, seconds, trace):
        subruns.append((sub, run_subrun(workload, sub, deadline, out_dir)))
    problems = check(subruns)
    attempted = sum(len(sub.seeds) for sub, _ in subruns)
    record = {"workload": workload.name, "seed": seed, "seconds": seconds,
              "trace": int(trace), "held_out_seed": HELD_OUT_SEED,
              "environment": environment(subruns), "problems": problems,
              "digests": {}}
    for sub, res in subruns:
        for run in res.get("seeds", ()):
            if "digest" in run:
                record["digests"].setdefault(str(run["seed"]), run["digest"])

    print(f"workload {workload.name}  seed {seed}  trace {int(trace)}  "
          f"(held-out seed for re-checking claims: {HELD_OUT_SEED})")
    print("environment " + json.dumps(record["environment"], sort_keys=True))
    for sub, res in subruns:
        state = res.get("error") or ("ok" if all("error" not in r for r in res["seeds"])
                                     else "seed failed")
        print(f"  sub-run seeds {sub.seeds[0]}..{sub.seeds[-1]}  "
              f"traced={int(sub.traced)}  {state}")
    for seed_, digest in record["digests"].items():
        print(f"  metrics sha256 seed {seed_}: {digest}")
    for p in problems:
        print(f"  FAILED {p}")
    print(f"fail_frac {len(problems)}/{attempted} = {len(problems) / attempted:.4f} ratio")

    try:
        if trace:
            metrics = per_layer(subruns)
        else:
            metrics, samples = end_to_end(subruns, workload)
            record["samples"] = samples
            print("samples " + json.dumps({k: v for k, v in samples.items()
                                           if k != "per_seed"}))
    except (ZeroDivisionError, ValueError, statistics.StatisticsError):
        print("error: no successful sub-run to measure", file=sys.stderr)
        return None
    for name, value in metrics.items():
        print(f"{name:40s} {value:14.6f} {unit_of(name)}")
    record["metrics"] = metrics
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"{workload.name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    line = {"correct": not problems, "attempted": attempted,
            "failed": len(problems),
            "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()}}
    print(json.dumps(line))
    return line


if __name__ == "__main__":
    sys.exit(main())
