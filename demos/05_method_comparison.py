"""All five optimizers on the same benchmark, paired seed by seed.

Reproduces the comparative story at desk scale: gradient-selected
diffusion updates dominate; the score-adaptive step size alone already
improves on blind resampling; the two local methods climb but drift off
the standard-normal prior. Writes comparison.svg next to this script.
"""

import os
import tempfile

import numpy as np

from noisediff import (
    BaselineConfig,
    NoiseDiffusionConfig,
    RngStream,
    run_baseline,
    run_noise_diffusion,
    sample_standard_normal,
)
from noisediff.benchmarks import composite_benchmark, composite_benchmark_config
from noisediff.config import ExperimentConfig
from noisediff.experiment import run_experiment
from noisediff.plotting import emit_plot

SEEDS = range(8)
EPOCHS = 50
pipeline, scorer = composite_benchmark(timesteps=10)

results = {}
for method in ("noise-diffusion", "random-diffusion", "random-sampling", "pgd", "mean-variance"):
    finals, drifts = [], []
    for seed in SEEDS:
        z0 = sample_standard_normal(RngStream(seed, "init"), pipeline.dim)
        if method == "noise-diffusion":
            rec = run_noise_diffusion(z0, pipeline, scorer,
                                      NoiseDiffusionConfig(epochs=EPOCHS, candidates=50),
                                      RngStream(seed, "candidates"))
        else:
            rec = run_baseline(z0, pipeline, scorer, BaselineConfig(method=method, epochs=EPOCHS),
                               RngStream(seed, f"baseline-{method}"))
        finals.append(rec.best_score)
        drifts.append(abs(rec.final_latent.var(ddof=1) - 1.0))
    results[method] = (float(np.median(finals)), float(np.median(drifts)))

print(f"{'method':18s} {'median best':>12s} {'median |var-1|':>15s}")
for method, (best, drift) in sorted(results.items(), key=lambda kv: -kv[1][0]):
    print(f"{method:18s} {best:12.4f} {drift:15.4f}")
print("\n(the |var-1| column is the distribution drift: the two local methods")
print("pay for their progress by leaving the standard-normal prior)")

# Render the mean best-score curves through the experiment runner.
out_root = tempfile.mkdtemp(prefix="noisediff-demo-")
csvs = []
for method in ("noise-diffusion", "random-diffusion", "random-sampling"):
    cfg = ExperimentConfig.from_text(
        composite_benchmark_config(method=method, seeds=SEEDS, epochs=EPOCHS,
                                   output=os.path.join(out_root, method))
    )
    result = run_experiment(cfg)
    csvs += [os.path.join(result.output_dir, f"trajectory_seed{s}.csv") for s in SEEDS]

svg_path = os.path.join(os.path.dirname(__file__) or ".", "comparison.svg")
emit_plot(csvs, svg_path)
print(f"\nwrote {svg_path}")
