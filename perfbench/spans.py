"""Outside-in tracing: spans around calls into ``cade``'s public functions.

Nothing under ``src/`` is edited.  Each target is replaced, for the length
of a ``Tracer.installed`` block, by a wrapper that records a span (name,
start, end, parent) and then hands the call to the original.  Modules bind
imported names at import time, so a function is wrapped under every name
its callers look it up by: ``cade.trainer.gru_step_np`` and
``cade.nets.gru_step_np`` are two targets with one span name.

Spans are kept in memory; ``summarize`` turns them into per-name call
counts, self time and durations.  Stdlib only, so the parent benchmark process
can import this without loading numpy.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from contextlib import contextmanager

__all__ = ["Tracer", "TARGETS", "self_times", "percentile",
           "highest_percentile", "resolve"]

# (owner, attribute, span name).  The owner is "module" or "module:Class";
# the span name is the layer (module) plus the function, as the metrics use.
TARGETS = (
    ("cade.trainer", "collect_episode", "trainer.collect_episode"),
    ("cade.trainer", "cade_forward", "nets.cade_forward"),
    ("cade.trainer", "screen_action", "safety.screen_action"),
    ("cade.trainer", "trunk_replay_taped", "nets.trunk_replay_taped"),
    ("cade.trainer", "policy_loss", "focops.policy_loss"),
    ("cade.trainer", "cost_advantage", "focops.cost_advantage"),
    ("cade.trainer", "gru_step_np", "nets.gru_step_np"),
    ("cade.trainer", "solve_homography", "homography.solve_homography"),
    ("cade.trainer", "warp", "homography.warp"),
    ("cade.nets", "gru_step_np", "nets.gru_step_np"),
    ("cade.safety", "sdm_predict", "homography.sdm_predict"),
    ("cade.focops", "sdm_predict", "homography.sdm_predict"),
    ("cade.dynbench", "sdm_predict", "homography.sdm_predict"),
    ("cade.dynbench", "solve_homography", "homography.solve_homography"),
    ("cade.dynbench", "warp", "homography.warp"),
    ("cade.homography", "solve_values", "homography.solve_values"),
    ("cade.homography", "warp_values", "homography.warp_values"),
    ("cade.experiments", "collect_dataset", "dynbench.collect_dataset"),
    ("cade.experiments", "train_dyn", "dynbench.train_dyn"),
    ("cade.experiments", "rollout_eval", "dynbench.rollout_eval"),
    ("cade.envs.river", "render_river_mask", "envs.river.render"),
    ("cade.envs.cliff:CliffCircular", "step", "envs.step"),
    ("cade.envs.river:PlanarRiver", "step", "envs.step"),
    ("cade.checkpoint", "save_params", "checkpoint.save_params"),
    ("cade.autograd:Tape", "backward", "autograd.backward"),
    ("cade.nets:Adam", "step", "nets.Adam.step"),
)


def resolve(owner: str):
    """``"pkg.mod"`` -> module, ``"pkg.mod:Class"`` -> the class."""
    mod, _, cls = owner.partition(":")
    obj = importlib.import_module(mod)
    return getattr(obj, cls) if cls else obj


class Tracer:
    """Span recorder; its observers derive exact counts at the same boundaries.

    ``spans`` holds ``[name, start, end, parent_index]`` lists in call
    order; a parent index of -1 marks a root span.  ``observers`` maps a
    target, written ``"owner.attribute"``, to ``fn(args, kwargs, result)``,
    called after the wrapped call returns, outside the span's interval.
    """

    def __init__(self, observers=None, clock=time.perf_counter):
        self.spans: list[list] = []
        self.observers = dict(observers or {})
        self._stack: list[int] = []
        self._clock = clock

    def wrap(self, name: str, fn, observe=None):
        spans, stack, clock = self.spans, self._stack, self._clock

        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if observe is not None:
                observe(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def installed(self, targets=TARGETS):
        """Wrap every target for the block; restore the originals after."""
        saved = []
        try:
            for owner, attr, name in targets:
                obj = resolve(owner)
                # a class attribute is read from __dict__ so a descriptor
                # goes back exactly as it was
                original = obj.__dict__[attr] if isinstance(obj, type) \
                    else getattr(obj, attr)
                saved.append((obj, attr, original))
                observe = self.observers.get(f"{owner}.{attr}")
                setattr(obj, attr, self.wrap(name, original, observe))
            yield self
        finally:
            for obj, attr, original in reversed(saved):
                setattr(obj, attr, original)

    def summarize(self) -> dict:
        """Per span name: calls, self seconds and every call's duration."""
        selfs = self_times(self.spans)
        out: dict = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "durations": []})
        for (name, start, end, _), own in zip(self.spans, selfs):
            row = out[name]
            row["calls"] += 1
            row["self_s"] += own
            row["durations"].append(end - start)
        return dict(out)


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its child spans cover.

    ``spans`` are ``(name, start, end, parent_index)``; children may
    overlap each other (then their union counts once) but are clipped to
    the parent's interval.
    """
    children: dict[int, list] = defaultdict(list)
    for span in spans:
        if span[3] >= 0:
            children[span[3]].append((span[1], span[2]))
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered, reach = 0.0, start
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def percentile(values, p: float) -> float:
    """Linear-interpolation percentile (numpy's default rule)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no samples")
    rank = p / 100.0 * (len(xs) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (rank - lo)


def highest_percentile(n: int, candidates=(99.9, 99.0, 90.0, 50.0),
                       beyond: int = 10):
    """The highest candidate percentile with at least ``beyond`` of ``n``
    samples above it, or None when even the median lacks them."""
    for p in candidates:
        if n * (100.0 - p) / 100.0 >= beyond - 1e-9:
            return p
    return None
