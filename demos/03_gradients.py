"""Three ways to differentiate the latent score, and when the cheap one
is trustworthy.

The one-pass gradient treats noise predictions as constants, reducing the
pipeline Jacobian to a scalar. That is exact for a frozen predictor and
an approximation otherwise; the finite-difference oracle and the exact
Jacobian chain measure the gap.
"""

import numpy as np

from noisediff import (
    AnalyticMixtureDenoiser,
    ConstantDenoiser,
    GuidanceConfig,
    MixtureComponent,
    Pipeline,
    QuadraticSigmoidScorer,
    RngStream,
    build_schedule,
    grad_latent_approx,
    grad_latent_chain,
    grad_latent_fd,
)

d = 8
sched = build_schedule(50)
scorer = QuadraticSigmoidScorer(target=np.full(d, 6.0), sharpness=0.02, offset=1.0)
z = RngStream(0, "probe").normal(d) + 1.0


def compare(tag, pipe):
    approx = grad_latent_approx(z, pipe, scorer)
    fd = grad_latent_fd(z, pipe, scorer)
    rel = np.linalg.norm(approx - fd) / np.linalg.norm(fd)
    print(f"{tag}:")
    print(f"  one-pass vs finite differences: {rel:.2e} relative")
    try:
        chain = grad_latent_chain(z, pipe, scorer)
        rel_c = np.linalg.norm(chain - fd) / np.linalg.norm(fd)
        print(f"  exact chain vs finite differences: {rel_c:.2e} relative")
    except Exception as exc:
        print(f"  exact chain unavailable: {exc}")


# Exactness regime: frozen predictions.
compare("frozen predictor (exact regime)",
        Pipeline(ConstantDenoiser(np.full(d, 0.25)), GuidanceConfig(w=7.5), sched))

# Near-constant regime: far-apart wide modes.
comps = [MixtureComponent(0.5, np.full(d, 6.0), 4.0), MixtureComponent(0.5, np.full(d, -6.0), 4.0)]
compare("far-apart wide mixture (near-constant regime)",
        Pipeline(AnalyticMixtureDenoiser(comps, sched), GuidanceConfig(w=1.0), sched))

# Hard regime: close narrow modes bend the pipeline noticeably.
comps = [MixtureComponent(0.5, np.full(d, 1.0), 0.5), MixtureComponent(0.5, np.full(d, -1.0), 0.5)]
compare("close narrow mixture (approximation degrades)",
        Pipeline(AnalyticMixtureDenoiser(comps, sched), GuidanceConfig(w=1.0), sched))

print("\ncost reminder: one-pass = 1 pipeline pass; finite differences = 2d latents")
print("in one batched pass, each probe sample scored on its own;")
print("chain = 1 pass plus T dense (d, d) Jacobian products.")
