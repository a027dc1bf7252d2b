"""The benchmark's tracer must see every layer a run goes through.

``perfbench/tracing.py`` rebinds the module-level names in its ``LAYERS``
at install time. A name that the program binds once, early (a default
argument, a module-level table of functions), would keep the untraced
function, and its layer would vanish from the per-layer numbers. This
runs the composite workload under the tracer and counts each layer.
"""

import os
import sys
from collections import defaultdict

from noisediff import experiment
from noisediff.config import ExperimentConfig
from noisediff.latents import RngStream

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "perfbench"))

from tracing import Tracer, self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

EPOCHS = 3


def test_one_seed_run_records_every_layer(tmp_path, monkeypatch):
    text = WORKLOADS["composite-t50"].config_text([0], str(tmp_path), epochs=EPOCHS)
    attempts = []  # one candidate block is drawn per selection attempt
    normal_block = RngStream.normal_block

    def counted_block(self, *args, **kwargs):
        attempts.append(args)
        return normal_block(self, *args, **kwargs)

    monkeypatch.setattr(RngStream, "normal_block", counted_block)
    with Tracer() as tracer:  # rebinds experiment.run_experiment, not a name bound here
        result = experiment.run_experiment(ExperimentConfig.from_text(text, source="traced"))
    assert result.exit_code == 0
    layers = self_times(tracer.spans, root="experiment.run_experiment")
    calls = defaultdict(int, {name: layer.calls for name, layer in layers.items()})
    assert len(attempts) >= EPOCHS
    assert calls["optimizers.select_noise"] == len(attempts)
    # the approximate gradient reuses the forward that scored the latent:
    # one gradient per epoch, one forward and one score per epoch plus
    # the start latent's
    assert calls["scoring.latent_gradient"] == EPOCHS
    assert calls["diffusion.Pipeline.forward"] == EPOCHS + 1
    assert calls["scoring.checked_score"] == EPOCHS + 1
    assert tracer.forward_latents == EPOCHS + 1
    assert not any(layer.raised for layer in layers.values())

