"""The benchmark's workloads, as experiment-config text.

Every workload optimizes each of its seeds for 50 epochs with N = 50
candidates using noise-diffusion. ``--seed n`` selects the block of
optimizer seeds ``n*K .. n*K + K - 1``, so distinct benchmark seeds give
disjoint inputs. The program sees only the generated text.

Why each workload exists (measured on the seed code, 2 cores):

* composite-t50: T = 50 makes ``Pipeline.forward`` ~80% of self time;
  a pipeline change shows here, a draw or selection change barely does.
* preservation-d1024: at d = 1024 candidate draws and selection are about
  half the time and a batched forward of 50 latents costs ~13x one, so a
  batching change that wins at small d and loses at large d shows. It
  also carries the distribution-preservation property.
* remote-fd: finite differences (budget 4) against the stand-in HTTP
  service make ~9 POSTs per epoch; ``remote_score`` is ~60% of self time.
  It is the only workload that measures the network layer. Client and
  service run pinned to one CPU (see run.py).
"""

from __future__ import annotations

from dataclasses import dataclass

EPOCHS = 50
CANDIDATES = 50


@dataclass(frozen=True)
class Workload:
    name: str
    benchmark: str  # "composite" or "preservation"
    timesteps: int
    seeds_per_run: int  # K
    remote: bool = False

    def seeds(self, seed: int) -> list[int]:
        base = abs(int(seed)) * self.seeds_per_run
        return list(range(base, base + self.seeds_per_run))

    def config_text(self, seeds, output: str, endpoint: str | None = None,
                    epochs: int = EPOCHS) -> str:
        if self.benchmark == "composite":
            text = composite_text(seeds, output, self.timesteps, epochs)
        else:
            text = preservation_text(seeds, output, self.timesteps, epochs)
        if not self.remote:
            return text + "gradient.mode = approx-constant-eps\n"
        lines = [line for line in text.splitlines() if not line.startswith("scorer.")]
        lines += [
            "scorer.type = remote",
            f"scorer.remote.endpoint = {endpoint}",
            "scorer.remote.timeout_ms = 2000",
            "scorer.remote.retries = 1",
            "scorer.prompt = a lion and a monkey",
            "gradient.mode = finite-difference",
            "gradient.fd_budget = 4",
        ]
        return "\n".join(lines) + "\n"

    def scorer_groups(self) -> list[dict]:
        """The local scorer's groups, for the stand-in service and for
        re-scoring best samples."""
        if self.benchmark == "composite":
            from noisediff.benchmarks import composite_benchmark as build
        else:
            from noisediff.benchmarks import preservation_benchmark as build
        _, scorer = build(timesteps=self.timesteps)
        return [
            {
                "indices": list(g.indices),
                "target": [float(t) for t in g.target],
                "radius": float(g.radius),
                "sharpness": float(g.sharpness),
            }
            for g in scorer.groups
        ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("composite-t50", "composite", timesteps=50, seeds_per_run=4),
        Workload("preservation-d1024", "preservation", timesteps=10, seeds_per_run=28),
        Workload("remote-fd", "composite", timesteps=10, seeds_per_run=4, remote=True),
    )
}


def composite_text(seeds, output: str, timesteps: int, epochs: int) -> str:
    from noisediff.benchmarks import composite_benchmark_config

    return composite_benchmark_config(
        seeds=seeds, output=output, epochs=epochs, candidates=CANDIDATES, timesteps=timesteps
    )


def preservation_text(seeds, output: str, timesteps: int, epochs: int) -> str:
    """``noisediff.benchmarks.preservation_benchmark`` as config text: a
    single standard-normal mixture component at d = 1024 (the config's
    default denoiser) under unconditioned guidance, and its two groups."""
    from noisediff.benchmarks import preservation_benchmark

    pipeline, scorer = preservation_benchmark(timesteps=timesteps)
    lines = [
        "method = noise-diffusion",
        f"dim = {pipeline.dim}",
        f"epochs = {epochs}",
        f"candidates = {CANDIDATES}",
        f"timesteps = {timesteps}",
        f"seeds = {','.join(str(s) for s in seeds)}",
        f"output = {output}",
        f"guidance.scale = {pipeline.guidance.w!r}",
        "denoiser.type = mixture",
        "scorer.type = composite",
    ]
    for j, g in enumerate(scorer.groups):
        lines += [
            f"scorer.group.{j}.indices = {','.join(str(i) for i in g.indices)}",
            f"scorer.group.{j}.target = {','.join(repr(float(t)) for t in g.target)}",
            f"scorer.group.{j}.radius = {g.radius!r}",
            f"scorer.group.{j}.sharpness = {g.sharpness!r}",
        ]
    return "\n".join(lines) + "\n"
