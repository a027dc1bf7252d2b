"""Spans around calls into the program's public functions.

``Tracer.install`` rebinds each function named in ``LAYERS`` (and every
module-level alias of it inside the package) to a wrapper that records a
span: name, start, end, parent span and whether the call raised. Spans
stay in memory until ``write``. ``self_times`` turns them into per-name
call counts, total time and self time, where self time is a span's
duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import time
from collections import defaultdict
from dataclasses import dataclass

# (span name, module, attribute path). A dotted attribute is a method
# rebound on its class; a plain one is rebound wherever the package
# imported it by name.
LAYERS = (
    ("latents.RngStream.normal", "noisediff.latents", "RngStream.normal"),
    ("latents.ks_normality", "noisediff.latents", "ks_normality"),
    ("optimizers.select_noise", "noisediff.optimizers", "select_noise"),
    ("optimizers.run_noise_diffusion", "noisediff.optimizers", "run_noise_diffusion"),
    ("diffusion.Pipeline.forward", "noisediff.diffusion", "Pipeline.forward"),
    ("scoring.latent_gradient", "noisediff.scoring", "latent_gradient"),
    ("scoring.checked_score", "noisediff.scoring", "checked_score"),
    ("scoring.remote_score", "noisediff.scoring", "remote_score"),
    ("config.from_text", "noisediff.config", "ExperimentConfig.from_text"),
    ("config.build_pipeline", "noisediff.config", "ExperimentConfig.build_pipeline"),
    ("config.build_scorer", "noisediff.config", "ExperimentConfig.build_scorer"),
    ("experiment.run_experiment", "noisediff.experiment", "run_experiment"),
    ("experiment.write_trajectory_csv", "noisediff.experiment", "write_trajectory_csv"),
)

ID, NAME, START, END, PARENT, RAISED = range(6)


class Tracer:
    """Records each finished call as a span tuple
    ``(id, name, start_ns, end_ns, parent_id, raised)``; ids count calls in
    the order they started and ``parent_id`` is -1 for a top-level call.
    Tuples of plain values keep the garbage collector's work flat however
    many spans a run records."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.spans: list[tuple] = []
        self.forward_latents = 0
        self._ids = itertools.count()
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name, fn, observe=None):
        spans, stack, clock, ids = self.spans, self._stack, self.clock, self._ids

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if observe is not None:
                observe(args)
            span_id = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            raised = False
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                raised = True
                raise
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, name, start, end, parent, raised))

        return traced

    def _count_latents(self, args):
        z = args[1]
        self.forward_latents += z.shape[0] if getattr(z, "ndim", 1) > 1 else 1

    def install(self):
        """Rebind every function in LAYERS; ``uninstall`` restores them."""
        for name, module_name, path in LAYERS:
            module = importlib.import_module(module_name)
            observe = self._count_latents if name == "diffusion.Pipeline.forward" else None
            if "." in path:
                cls_name, attr = path.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[attr]
                if isinstance(original, classmethod):
                    wrapped = classmethod(self.wrap(name, original.__func__, observe))
                else:
                    wrapped = self.wrap(name, original, observe)
                self._rebind(owner, attr, wrapped)
                continue
            original = getattr(module, path)
            wrapped = self.wrap(name, original, observe)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "noisediff" or mod_name.startswith("noisediff."):
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._rebind(mod, attr, wrapped)
        return self

    def _rebind(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    def write(self, path):
        """Write the spans as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, name, start, end, parent, raised in sorted(self.spans):
                fh.write(json.dumps({"id": span_id, "name": name, "start_ns": start,
                                     "end_ns": end, "parent": parent, "raised": raised}) + "\n")


@dataclass
class LayerTime:
    calls: int = 0
    raised: int = 0
    total_ns: int = 0
    self_ns: int = 0


def covered(interval, children) -> int:
    """Length of the part of ``interval`` covered by the union of
    ``children`` intervals."""
    lo, hi = interval
    total, reach = 0, lo
    for start, end in sorted(children):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans, root: str | None = None) -> dict[str, LayerTime]:
    """Per-name calls, total and self time. With ``root``, only spans
    that are ``root`` or lie under a ``root`` span count."""
    spans = sorted(spans)  # by id: every parent before its children
    children = defaultdict(list)
    for span in spans:
        if span[PARENT] >= 0:
            children[span[PARENT]].append((span[START], span[END]))
    inside: dict[int, bool] = {}
    for span in spans:
        inside[span[ID]] = (root is None or span[NAME] == root
                            or inside.get(span[PARENT], False))
    out: dict[str, LayerTime] = defaultdict(LayerTime)
    for span in spans:
        if not inside[span[ID]]:
            continue
        duration = span[END] - span[START]
        layer = out[span[NAME]]
        layer.calls += 1
        layer.raised += span[RAISED]
        layer.total_ns += duration
        layer.self_ns += duration - covered((span[START], span[END]), children[span[ID]])
    return dict(out)
