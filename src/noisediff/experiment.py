"""Seeded experiment runs: per-seed trajectory CSVs, a summary CSV, the
final-latent dump, and hyper-parameter sweeps.

Outputs are byte-deterministic for a fixed config except the wall_ms
column. Every run writes the fully resolved config next to its CSVs so
results stay reproducible from the artifacts alone.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .analysis import ratio_quartiles
from .config import ExperimentConfig
from .errors import ConfigError, InsufficientSampleError
from .latents import RngStream, ks_normality, sample_standard_normal
from .optimizers import TrajectoryRecord, run_baseline, run_lockstep, run_noise_diffusion

__all__ = [
    "TRAJECTORY_HEADER",
    "SUMMARY_HEADER",
    "SWEEP_HEADER",
    "SCORE_TARGET",
    "ExperimentResult",
    "run_single",
    "run_experiment",
    "run_sweep",
    "write_trajectory_csv",
    "read_trajectory_csv",
]

TRAJECTORY_HEADER = "epoch,score,best_score,gamma,selected_ratio,grad_norm,v_norm,wall_ms"
SUMMARY_HEADER = (
    "seed,initial_score,final_best_score,epochs_to_0.9,mean_selected_ratio,final_ks_stat"
)
SWEEP_HEADER = "axis,value,median_final_best_score,ratio_q1,ratio_median,ratio_q3"

SCORE_TARGET = 0.9  # threshold behind the epochs_to_0.9 summary column

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SCORER = 3
EXIT_NONFINITE = 4


@dataclass
class ExperimentResult:
    exit_code: int
    output_dir: str
    records: dict[int, TrajectoryRecord] = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)


def _fmt(value) -> str:
    """Deterministic cell formatting; None becomes an empty cell."""
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_trajectory_csv(record: TrajectoryRecord, path: str):
    lines = [TRAJECTORY_HEADER]
    for row in record.rows:
        lines.append(
            ",".join(
                [
                    str(row.epoch),
                    _fmt(row.score),
                    _fmt(row.best_score),
                    _fmt(row.gamma),
                    _fmt(row.selected_ratio),
                    _fmt(row.grad_norm),
                    _fmt(row.v_norm),
                    f"{row.wall_ms:.3f}",
                ]
            )
        )
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def read_trajectory_csv(path: str) -> dict[str, list[float]]:
    """Columns as lists of floats (NaN for empty cells)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [line.rstrip("\n") for line in fh if line.strip()]
    except OSError as exc:
        raise ConfigError(f"cannot read trajectory CSV {path!r}: {exc}")
    if not lines or lines[0] != TRAJECTORY_HEADER:
        raise ConfigError(f"{path}: not a trajectory CSV (bad header)")
    names = lines[0].split(",")
    columns: dict[str, list[float]] = {name: [] for name in names}
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) != len(names):
            raise ConfigError(f"{path}: row with {len(cells)} cells, expected {len(names)}")
        for name, cell in zip(names, cells):
            columns[name].append(float(cell) if cell else float("nan"))
    return columns


def run_single(config: ExperimentConfig, seed: int) -> TrajectoryRecord:
    """One optimizer run for one seed, with streams derived from the seed."""
    z_init, rng = _seed_start(config, seed)
    args = config.pipeline, config.scorer, config.optimizer
    if config.method == "noise-diffusion":
        return run_noise_diffusion(z_init, *args, rng)
    return run_baseline(z_init, *args, config.epochs, rng)


def _seed_start(config: ExperimentConfig, seed: int) -> tuple[np.ndarray, RngStream]:
    """A seed's start latent and the stream its optimizer draws from."""
    z_init = sample_standard_normal(RngStream(seed, "init"), config.dim)
    label = "candidates" if config.method == "noise-diffusion" else f"baseline-{config.method}"
    return z_init, RngStream(seed, label)


def _summary_row(seed: int, record: TrajectoryRecord, dim: int) -> str:
    if not record.rows:
        return f"{seed},,,,,"
    initial = record.rows[0].score
    epochs_to = record.epochs_to(SCORE_TARGET)
    ratios = record.selected_ratios()
    mean_ratio = float(ratios.mean()) if ratios.size else None
    ks_stat = None
    if record.final_latent is not None and dim >= 8:
        ks_stat, _ = ks_normality(record.final_latent)
    return ",".join(
        [
            str(seed),
            _fmt(initial),
            _fmt(record.best_score),
            str(epochs_to),
            _fmt(mean_ratio),
            _fmt(ks_stat),
        ]
    )


def run_experiment(config: ExperimentConfig, output: str | None = None) -> ExperimentResult:
    """Run every configured seed and write all artifacts.

    The seeds advance in lockstep (``optimizers.run_lockstep``): the
    config's one pipeline and scorer, one batched forward per epoch
    for every seed whose latent moved, and each seed's trajectory the one
    ``run_single`` gives for it. Exit code 0 on success; 3 when any seed
    aborted on a scorer failure, with the partial artifacts written and
    flagged in status.txt (the other seeds run on).
    """
    out_dir = output if output is not None else config.output
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "config.resolved.txt"), "w", encoding="utf-8") as fh:
        fh.write(config.resolved_text())

    result = ExperimentResult(exit_code=EXIT_OK, output_dir=out_dir)
    summary_lines = [SUMMARY_HEADER]
    latent_rows: list[str] = []
    records = run_lockstep(
        [_seed_start(config, seed) for seed in config.seeds],
        config.pipeline,
        config.scorer,
        config.optimizer,
        config.epochs,
    )
    for seed, record in zip(config.seeds, records):
        result.records[seed] = record
        write_trajectory_csv(record, os.path.join(out_dir, f"trajectory_seed{seed}.csv"))
        summary_lines.append(_summary_row(seed, record, config.dim))
        if record.final_latent is not None:
            cells = ",".join(repr(float(x)) for x in record.final_latent)
            latent_rows.append(f"{seed},{cells}")
        if record.incomplete:
            result.failures.append(f"seed {seed}: incomplete ({record.failure})")

    with open(os.path.join(out_dir, "summary.csv"), "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(summary_lines) + "\n")
    if latent_rows:
        header = "seed," + ",".join(f"z{i}" for i in range(config.dim))
        with open(
            os.path.join(out_dir, "final_latents.csv"), "w", encoding="utf-8", newline="\n"
        ) as fh:
            fh.write(header + "\n" + "\n".join(latent_rows) + "\n")

    status = ["ok"] if not result.failures else ["incomplete"] + result.failures
    with open(os.path.join(out_dir, "status.txt"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(status) + "\n")
    if result.failures:
        result.exit_code = EXIT_SCORER
    return result


SWEEP_AXES = {"T": "timesteps", "N": "candidates"}


def run_sweep(
    config: ExperimentConfig, axis: str, values, output: str | None = None
) -> tuple[int, str]:
    """Re-run the experiment for each value of T or N and tabulate the
    median final score and selected-ratio quartiles per value.

    Returns (exit_code, sweep_csv_path).
    """
    if axis not in SWEEP_AXES:
        raise ConfigError(f"sweep axis must be one of {sorted(SWEEP_AXES)}, got {axis!r}")
    values = list(values)
    if not values:
        raise ConfigError("sweep needs at least one value")
    out_dir = output if output is not None else config.output
    os.makedirs(out_dir, exist_ok=True)

    exit_code = EXIT_OK
    lines = [SWEEP_HEADER]
    for value in values:
        if value < 1:
            raise ConfigError(f"sweep value must be >= 1, got {value}")
        text = config.resolved_text(
            {SWEEP_AXES[axis]: str(value), "output": os.path.join(out_dir, f"{axis}{value}")}
        )
        sub_config = ExperimentConfig.from_text(text, source=f"{config.source}[{axis}={value}]")
        sub = run_experiment(sub_config)
        exit_code = max(exit_code, sub.exit_code)
        finals = [r.best_score for r in sub.records.values() if r.rows]
        median_final = float(np.median(finals)) if finals else None
        try:
            q1, med, q3 = ratio_quartiles(sub.records.values())
        except InsufficientSampleError:
            q1 = med = q3 = None
        lines.append(
            ",".join(
                [axis, str(value), _fmt(median_final), _fmt(q1), _fmt(med), _fmt(q3)]
            )
        )

    sweep_path = os.path.join(out_dir, "sweep.csv")
    with open(sweep_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    return exit_code, sweep_path
