"""Seeded experiment runs: per-seed trajectory CSVs, a summary CSV, the
final-latent dump, and hyper-parameter sweeps.

Outputs are byte-deterministic for a fixed config except the wall_ms
column. Every run writes the fully resolved config next to its CSVs so
results stay reproducible from the artifacts alone.
"""

from __future__ import annotations

import glob
import os
from dataclasses import dataclass, field

import numpy as np

from .analysis import ratio_quartiles
from .config import ExperimentConfig, parse_config_text
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
    "read_csv",
    "read_trajectory_csv",
    "read_run_method",
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


# formatter of each trajectory column; a cell is the EpochRow attribute of its name
_TRAJECTORY_CELLS = dict.fromkeys(TRAJECTORY_HEADER.split(","), _fmt) | {"wall_ms": "{:.3f}".format}


def _write(path: str, lines) -> None:
    """Write one artifact, each line ending in a newline; a write that
    fails is a ConfigError naming the file."""
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise ConfigError(f"cannot write {path!r}: {exc}")


def _latents_header(dim: int) -> str:
    return "seed," + ",".join(f"z{i}" for i in range(dim))


def write_trajectory_csv(record: TrajectoryRecord, path: str):
    _write(path, [TRAJECTORY_HEADER] + [
        ",".join([fmt(getattr(row, name)) for name, fmt in _TRAJECTORY_CELLS.items()])
        for row in record.rows
    ])


def read_csv(path: str) -> tuple[str, dict[str, list]]:
    """An artifact's kind ("trajectory", "summary" or "latents") and its
    columns: each seed as written (seeds can exceed 2**53), every other
    cell a float, NaN for an empty trajectory or summary cell.

    Blank lines are skipped. An unreadable file, an unknown header, a row
    of the wrong width, or a non-numeric or non-finite (nan, inf) cell is
    a ConfigError naming the file and the line.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [(n, text) for n, line in enumerate(fh, start=1) if (text := line.strip())]
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {path!r}: {exc}")
    header_at, header = lines[0] if lines else (1, "")
    kind = {TRAJECTORY_HEADER: "trajectory", SUMMARY_HEADER: "summary"}.get(header)
    if kind is None and header == _latents_header(header.count(",")):
        kind = "latents"
    if kind is None:
        raise ConfigError(f"{path}: line {header_at}: unrecognized CSV header")
    names = header.split(",")
    columns: dict[str, list] = {name: [] for name in names}
    for lineno, line in lines[1:]:
        cells = line.split(",")
        if len(cells) != len(names):
            raise ConfigError(f"{path}: line {lineno}: {len(cells)} cells, expected {len(names)}")
        for name, cell in zip(names, cells):
            try:
                if name == "seed":
                    int(cell)
                    columns[name].append(cell)
                    continue
                value = float("nan") if cell == "" and kind != "latents" else float(cell)
            except ValueError:
                raise ConfigError(
                    f"{path}: line {lineno}: {name}: expected a number, got {cell!r}"
                )
            # the writers never emit nan or inf; only an empty cell reads as NaN
            if cell and not np.isfinite(value):
                raise ConfigError(
                    f"{path}: line {lineno}: {name}: expected a finite number, got {cell!r}"
                )
            columns[name].append(value)
    return kind, columns


def read_trajectory_csv(path: str) -> dict[str, list[float]]:
    """Columns as lists of floats (NaN for empty cells)."""
    kind, columns = read_csv(path)
    if kind != "trajectory":
        raise ConfigError(f"{path}: a {kind} CSV, not a trajectory CSV")
    return columns


def read_run_method(csv_path: str) -> str | None:
    """The method named by the config.resolved.txt next to an artifact,
    None without one."""
    sidecar = os.path.join(os.path.dirname(csv_path) or ".", "config.resolved.txt")
    if not os.path.exists(sidecar):
        return None
    try:
        with open(sidecar, "r", encoding="utf-8") as fh:
            entries = parse_config_text(fh.read(), source=sidecar)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {sidecar!r}: {exc}")
    return entries["method"][0] if "method" in entries else None


def run_single(config: ExperimentConfig, seed: int) -> TrajectoryRecord:
    """One optimizer run for one seed, with streams derived from the seed."""
    z_init, rng = _seed_start(config, seed)
    args = z_init, config.pipeline, config.scorer, config.optimizer, rng
    if config.optimizer.method == "noise-diffusion":
        return run_noise_diffusion(*args)
    return run_baseline(*args)


def _seed_start(config: ExperimentConfig, seed: int) -> tuple[np.ndarray, RngStream]:
    """A seed's start latent and the stream its optimizer draws from."""
    method = config.optimizer.method
    z_init = sample_standard_normal(RngStream(seed, "init"), config.pipeline.dim)
    label = "candidates" if method == "noise-diffusion" else f"baseline-{method}"
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
    return ",".join(map(_fmt, [seed, initial, record.best_score, epochs_to, mean_ratio, ks_stat]))


def run_experiment(config: ExperimentConfig, output: str | None = None) -> ExperimentResult:
    """Run every configured seed and write all artifacts.

    The seeds advance in lockstep (``optimizers.run_lockstep``): the
    config's one pipeline and scorer, one batched forward per epoch
    for every seed whose latent moved, and each seed's trajectory the one
    ``run_single`` gives for it. Exit code 0 on success; 3 when any seed
    aborted on a scorer failure, with the partial artifacts written and
    flagged in status.txt (the other seeds run on). The artifacts an
    earlier run left in the output directory are removed first, so none
    outlives a rerun with fewer seeds or one that fails early. The scorer
    is closed when the seeds are done, however they end.
    """
    out_dir = output if output is not None else config.output
    owned = glob.glob(os.path.join(glob.escape(out_dir), "trajectory_seed*.csv"))
    for name in ("summary.csv", "final_latents.csv", "status.txt"):
        owned.append(os.path.join(out_dir, name))
    try:
        os.makedirs(out_dir, exist_ok=True)
        for path in owned:
            if os.path.isfile(path):
                os.remove(path)
    except OSError as exc:
        raise ConfigError(f"cannot prepare output directory {out_dir!r}: {exc}")
    _write(os.path.join(out_dir, "config.resolved.txt"), config.resolved_text().splitlines())

    result = ExperimentResult(exit_code=EXIT_OK, output_dir=out_dir)
    summary_lines = [SUMMARY_HEADER]
    latent_rows: list[str] = []
    try:
        records = run_lockstep(
            [_seed_start(config, seed) for seed in config.seeds],
            config.pipeline,
            config.scorer,
            config.optimizer,
        )
    finally:
        # a kept-alive connection left open would hold a single-threaded
        # score service until its idle timeout, stalling the next run
        config.scorer.close()
    for seed, record in zip(config.seeds, records):
        result.records[seed] = record
        write_trajectory_csv(record, os.path.join(out_dir, f"trajectory_seed{seed}.csv"))
        summary_lines.append(_summary_row(seed, record, config.pipeline.dim))
        if record.final_latent is not None:
            latent_rows.append(",".join(map(_fmt, [seed, *map(float, record.final_latent)])))
        if record.incomplete:
            result.failures.append(f"seed {seed}: incomplete ({record.failure})")

    _write(os.path.join(out_dir, "summary.csv"), summary_lines)
    if latent_rows:
        latent_rows.insert(0, _latents_header(config.pipeline.dim))
        _write(os.path.join(out_dir, "final_latents.csv"), latent_rows)
    status = ["ok"] if not result.failures else ["incomplete"] + result.failures
    _write(os.path.join(out_dir, "status.txt"), status)
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
    if min(values) < 1:
        raise ConfigError(f"sweep values must be >= 1, got {min(values)}")
    if len(set(values)) < len(values):
        raise ConfigError(f"each sweep value may appear once, got {values}")
    out_dir = output if output is not None else config.output
    exit_code = EXIT_OK
    lines = [SWEEP_HEADER]
    for value in values:
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
        lines.append(",".join(map(_fmt, [axis, value, median_final, q1, med, q3])))

    sweep_path = os.path.join(out_dir, "sweep.csv")
    _write(sweep_path, lines)
    return exit_code, sweep_path
