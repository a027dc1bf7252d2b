import os
import re

import numpy as np
import pytest

from noisediff.benchmarks import composite_benchmark_config
from noisediff.cli import main
from noisediff.config import ExperimentConfig
from noisediff.errors import ScorerUnavailableError
from noisediff.experiment import (
    SUMMARY_HEADER,
    TRAJECTORY_HEADER,
    read_trajectory_csv,
    run_experiment,
    run_single,
    run_sweep,
)
from noisediff.plotting import emit_plot
from noisediff.scoring import Scorer


def small_config(tmp_path, method="noise-diffusion", epochs=5, seeds="0,1", extra=""):
    text = composite_benchmark_config(method=method, epochs=epochs, candidates=10,
                                      output=str(tmp_path / "out"))
    text = re.sub(r"seeds = .*", f"seeds = {seeds}", text)
    path = tmp_path / "config.txt"
    path.write_text(text + extra)
    return path


def strip_wall(path):
    lines = path.read_text().splitlines()
    return [",".join(line.split(",")[:-1]) for line in lines]


class TestRunExperiment:
    def test_zero_epochs_single_row(self, tmp_path):
        cfg_path = small_config(tmp_path, epochs=0, seeds="0")
        assert main(["run", str(cfg_path)]) == 0
        out = tmp_path / "out"
        summary = (out / "summary.csv").read_text().splitlines()
        assert summary[0] == SUMMARY_HEADER
        assert len(summary) == 2
        cells = summary[1].split(",")
        assert cells[0] == "0"
        assert cells[1] == cells[2]  # initial == final best

    def test_reruns_are_byte_identical_modulo_wall(self, tmp_path):
        cfg_path = small_config(tmp_path, epochs=4, seeds="0,1")
        assert main(["run", str(cfg_path), "-o", str(tmp_path / "a")]) == 0
        assert main(["run", str(cfg_path), "-o", str(tmp_path / "b")]) == 0
        for name in sorted(os.listdir(tmp_path / "a")):
            fa, fb = tmp_path / "a" / name, tmp_path / "b" / name
            if name.startswith("trajectory_"):
                assert strip_wall(fa) == strip_wall(fb)
            else:
                assert fa.read_bytes() == fb.read_bytes()

    def test_artifact_set(self, tmp_path):
        cfg_path = small_config(tmp_path, epochs=2, seeds="0,3")
        main(["run", str(cfg_path)])
        out = tmp_path / "out"
        names = set(os.listdir(out))
        assert {"config.resolved.txt", "summary.csv", "status.txt",
                "final_latents.csv", "trajectory_seed0.csv", "trajectory_seed3.csv"} <= names
        assert (out / "status.txt").read_text().startswith("ok")
        # the sidecar re-parses to the same resolved config
        sidecar = ExperimentConfig.from_text((out / "config.resolved.txt").read_text())
        assert sidecar.resolved["method"] == "noise-diffusion"

    def test_trajectory_schema(self, tmp_path):
        cfg_path = small_config(tmp_path, epochs=3, seeds="0")
        main(["run", str(cfg_path)])
        path = tmp_path / "out" / "trajectory_seed0.csv"
        lines = path.read_text().splitlines()
        assert lines[0] == TRAJECTORY_HEADER
        assert len(lines) == 5  # header + epochs 0..3
        cols = read_trajectory_csv(str(path))
        assert cols["epoch"] == [0.0, 1.0, 2.0, 3.0]
        best = cols["best_score"]
        assert all(b >= a for a, b in zip(best, best[1:]))

    def test_env_seed_override(self, tmp_path, monkeypatch):
        cfg_path = small_config(tmp_path, epochs=1, seeds="0,1,2")
        monkeypatch.setenv("NOISEDIFF_SEED", "9")
        main(["run", str(cfg_path)])
        names = [n for n in os.listdir(tmp_path / "out") if n.startswith("trajectory_")]
        assert names == ["trajectory_seed9.csv"]

    def test_invalid_config_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("method = noise-diffusion\ndim = 8\nepochs = banana\n")
        assert main(["run", str(bad)]) == 2
        assert "line 3" in capsys.readouterr().err

    def test_repeated_seed_exit_2(self, tmp_path, capsys):
        cfg_path = small_config(tmp_path, seeds="0,0,1")
        lineno = cfg_path.read_text().splitlines().index("seeds = 0,0,1") + 1
        assert main(["run", str(cfg_path)]) == 2
        assert f"line {lineno}: seeds:" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("extra", ["v_norm_guard = nan", "gradient.fd_step = -0.1"])
    def test_bad_number_exit_2(self, tmp_path, capsys, extra):
        cfg_path = small_config(tmp_path, extra=extra + "\n")
        lineno = cfg_path.read_text().splitlines().index(extra) + 1
        assert main(["run", str(cfg_path)]) == 2
        assert f"line {lineno}: {extra.split(' =')[0]}:" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_empty_seeds_exit_2(self, tmp_path, capsys):
        cfg_path = small_config(tmp_path, seeds="")
        lineno = cfg_path.read_text().splitlines().index("seeds = ") + 1
        assert main(["run", str(cfg_path)]) == 2
        assert f"line {lineno}: seeds:" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_seeds_with_seeds_count_exit_2(self, tmp_path, capsys):
        cfg_path = small_config(tmp_path, seeds="0,1,2", extra="seeds.count = 2\n")
        lineno = cfg_path.read_text().splitlines().index("seeds.count = 2") + 1
        assert main(["run", str(cfg_path)]) == 2
        assert f"line {lineno}: seeds.count:" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key", ["guidance.condition", "guidance.null_condition"])
    def test_unknown_guidance_condition_exit_2(self, tmp_path, capsys, key):
        cfg_path = small_config(tmp_path)
        lines = [line for line in cfg_path.read_text().splitlines()
                 if not line.startswith(f"{key} ")] + [f"{key} = nosuch"]
        cfg_path.write_text("\n".join(lines) + "\n")
        assert main(["run", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert f"line {len(lines)}: {key}: unknown condition 'nosuch'" in err
        assert not (tmp_path / "out").exists()

    def test_missing_config_exit_2(self, tmp_path):
        assert main(["run", str(tmp_path / "nope.txt")]) == 2

    def test_rerun_with_fewer_seeds_leaves_no_stale_trajectory(self, tmp_path):
        assert main(["run", str(small_config(tmp_path, epochs=1, seeds="0,1,2"))]) == 0
        assert main(["run", str(small_config(tmp_path, epochs=1, seeds="1"))]) == 0
        out = tmp_path / "out"
        assert sorted(n for n in os.listdir(out) if n.startswith("trajectory_")) == [
            "trajectory_seed1.csv"
        ]
        assert len((out / "summary.csv").read_text().splitlines()) == 2
        assert len((out / "final_latents.csv").read_text().splitlines()) == 2

    def test_rerun_failing_at_epoch_0_leaves_no_stale_artifact(self, tmp_path):
        assert main(["run", str(small_config(tmp_path, epochs=1, seeds="0,1"))]) == 0
        cfg_path = small_config(tmp_path, epochs=1, seeds="0,1")
        text = cfg_path.read_text()
        cfg_path.write_text(text.replace("guidance.scale = 7.5", "guidance.scale = 1e300"))
        with np.errstate(all="ignore"):
            assert main(["run", str(cfg_path)]) == 4
        assert os.listdir(tmp_path / "out") == ["config.resolved.txt"]

    def test_baseline_method_via_cli(self, tmp_path):
        cfg_path = small_config(tmp_path, method="random-diffusion", epochs=3, seeds="0")
        assert main(["run", str(cfg_path)]) == 0
        cols = read_trajectory_csv(str(tmp_path / "out" / "trajectory_seed0.csv"))
        assert np.isfinite(cols["gamma"][1:]).all()
        assert not np.isfinite(cols["selected_ratio"][1])  # no selection happens


class TestSweep:
    def test_single_value_matches_run(self, tmp_path):
        cfg_path = small_config(tmp_path, epochs=3, seeds="0,1")
        cfg = ExperimentConfig.from_text(cfg_path.read_text())
        single = run_experiment(cfg, output=str(tmp_path / "direct"))
        code, sweep_path = run_sweep(cfg, "N", [10], output=str(tmp_path / "sweep"))
        assert code == 0
        lines = open(sweep_path).read().splitlines()
        assert len(lines) == 2
        cells = lines[1].split(",")
        assert cells[0] == "N" and cells[1] == "10"
        finals = [r.best_score for r in single.records.values()]
        assert float(cells[2]) == pytest.approx(float(np.median(finals)))

    def test_cli_sweep_values_parsing(self, tmp_path, capsys):
        cfg_path = small_config(tmp_path, epochs=1, seeds="0")
        assert main(["sweep", str(cfg_path), "--axis", "N", "--values", "2,x"]) == 2
        assert main(["sweep", str(cfg_path), "--axis", "N", "--values", "2,3",
                     "-o", str(tmp_path / "sw")]) == 0
        assert (tmp_path / "sw" / "sweep.csv").exists()

    @pytest.mark.parametrize("values", ["5,0", "3,3"])
    def test_bad_values_exit_2_before_any_run(self, tmp_path, capsys, values):
        cfg_path = small_config(tmp_path, epochs=1, seeds="0")
        sw = tmp_path / "sw"
        assert main(["sweep", str(cfg_path), "--axis", "T", "--values", values,
                     "-o", str(sw)]) == 2
        assert "sweep value" in capsys.readouterr().err
        assert not sw.exists()

    def test_sweep_writes_per_value_dirs(self, tmp_path):
        cfg_path = small_config(tmp_path, epochs=1, seeds="0")
        cfg = ExperimentConfig.from_text(cfg_path.read_text())
        run_sweep(cfg, "T", [2, 4], output=str(tmp_path / "sw"))
        assert (tmp_path / "sw" / "T2" / "summary.csv").exists()
        assert (tmp_path / "sw" / "T4" / "summary.csv").exists()


class TestPlot:
    def test_one_method_two_epochs(self, tmp_path):
        cfg_path = small_config(tmp_path, epochs=1, seeds="0")
        main(["run", str(cfg_path)])
        svg_path = tmp_path / "plot.svg"
        svg = emit_plot([str(tmp_path / "out" / "trajectory_seed0.csv")], str(svg_path))
        polylines = re.findall(r"<polyline points=\"([^\"]+)\"", svg)
        assert len(polylines) == 1
        assert len(polylines[0].split()) == 2  # epochs 0 and 1
        assert "noise-diffusion" in svg
        assert svg_path.exists()

    def test_two_methods_two_polylines(self, tmp_path):
        paths = []
        for method in ("noise-diffusion", "random-sampling"):
            sub = tmp_path / method
            cfg_path = small_config(tmp_path, method=method, epochs=2, seeds="0")
            main(["run", str(cfg_path), "-o", str(sub)])
            paths.append(str(sub / "trajectory_seed0.csv"))
        svg = emit_plot(paths, str(tmp_path / "cmp.svg"))
        assert len(re.findall(r"<polyline", svg)) == 2
        assert "random-sampling" in svg

    def test_header_only_trajectory_skipped_with_a_note(self, tmp_path, capsys):
        cfg_path = small_config(tmp_path, epochs=2, seeds="0")
        main(["run", str(cfg_path)])
        good = str(tmp_path / "out" / "trajectory_seed0.csv")
        empty = tmp_path / "out" / "trajectory_seed1.csv"  # a seed that failed at epoch 0
        empty.write_text(TRAJECTORY_HEADER + "\n")
        svg_path = tmp_path / "plot.svg"
        assert main(["plot", good, str(empty), "-o", str(svg_path)]) == 0
        assert f"note: {empty}: trajectory CSV with no rows" in capsys.readouterr().err
        assert svg_path.read_text() == emit_plot([good], str(tmp_path / "alone.svg"))
        assert main(["plot", str(empty), "-o", str(tmp_path / "none.svg")]) == 2
        assert not (tmp_path / "none.svg").exists()

    def test_empty_list_exit_2(self, tmp_path):
        assert main(["plot", "-o", str(tmp_path / "x.svg"), str(tmp_path / "missing.csv")]) == 2

    def test_schema_mismatch_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,2\n")
        assert main(["plot", str(bad), "-o", str(tmp_path / "x.svg")]) == 2
        summary = tmp_path / "summary.csv"
        summary.write_text(f"{SUMMARY_HEADER}\n0,0.1,0.5,-1,,\n")
        assert main(["plot", str(summary), "-o", str(tmp_path / "x.svg")]) == 2
        assert f"{summary}: a summary CSV, not a trajectory CSV" in capsys.readouterr().err

    def test_bad_cell_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "trajectory_seed0.csv"
        bad.write_text(f"{TRAJECTORY_HEADER}\n0,0.5,0.5,,,,,1.0\n1,x,0.5,,,,,1.0\n")
        assert main(["plot", str(bad), "-o", str(tmp_path / "x.svg")]) == 2
        assert f"{bad}: line 3: score:" in capsys.readouterr().err
        assert not (tmp_path / "x.svg").exists()


class TestDiagnose:
    def test_trajectory_and_latents(self, tmp_path, capsys):
        cfg_path = small_config(tmp_path, epochs=6, seeds="0")
        main(["run", str(cfg_path)])
        out = tmp_path / "out"
        code = main(["diagnose", str(out / "trajectory_seed0.csv"), str(out / "final_latents.csv"),
                     str(out / "summary.csv")])
        assert code == 0
        text = capsys.readouterr().out
        assert "best-score monotone: yes" in text
        assert "quartiles" in text
        assert "seed 0:" in text and "ks=" in text
        assert "median final best score" in text

    def test_dim_one_latents(self, tmp_path, capsys):
        cfg_path = tmp_path / "config.txt"
        cfg_path.write_text(
            f"method = noise-diffusion\ndim = 1\nepochs = 2\nseeds = 0\n"
            f"output = {tmp_path / 'out'}\n"
        )
        assert main(["run", str(cfg_path)]) == 0
        latents = tmp_path / "out" / "final_latents.csv"
        assert latents.read_text().startswith("seed,z0\n")
        assert main(["diagnose", str(latents)]) == 0
        assert "seed 0: dim 1 too small for the KS test" in capsys.readouterr().out

    def test_unknown_schema_exit_2(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("x,y\n1,2\n")
        assert main(["diagnose", str(bad)]) == 2

    @pytest.mark.parametrize("text, lineno", [
        (f"{TRAJECTORY_HEADER}\n0,0.5,0.5,,,,,1.0\n\n1,0.6,0.6,0.1,x,1.0,1.0,1.0\n", 4),
        ("seed,z0,z1,z2\n0,0.1,abc,0.3\n", 2),
        (f"{SUMMARY_HEADER}\n0,0.1,0.5,-1,,\n1,0.1,zz,-1,,\n", 3),
        ("seed," + ",".join(f"z{i}" for i in range(8)) + "\n0,0.1,0.2\n", 2),
        (f"{SUMMARY_HEADER}\n0,0.1,0.5,-1,,\n\n1,0.1\n", 4),
        ("seed,z0\n1.5,0.1\n", 2),
    ], ids=["trajectory-cell", "latents-cell", "summary-cell", "latents-width",
            "summary-width", "latents-seed"])
    def test_malformed_artifact_exit_2(self, tmp_path, capsys, text, lineno):
        bad = tmp_path / "artifact.csv"
        bad.write_text(text)
        assert main(["diagnose", str(bad)]) == 2
        assert f"error: {bad}: line {lineno}: " in capsys.readouterr().err

    @pytest.mark.parametrize("text, note", [
        (f"{TRAJECTORY_HEADER}\n0,0.5,0.5,,,,,1.0\n1,0.6,0.6,0.1,0.2,1.0,1.0,1.0\n"
         "2,0.7,0.7,0.1,0.3,1.0,1.0,1.0\n3,0.6,0.7,0.1,-0.1,1.0,1.0,1.0\n",
         "selected ratio quartiles: not enough recorded ratios"),
        (f"{SUMMARY_HEADER}\n0,0.1,,,,\n1,,,,,\n", "no completed seeds"),
    ], ids=["trajectory-three-ratios", "summary-no-completed-seed"])
    def test_too_little_to_summarize(self, tmp_path, capsys, text, note):
        artifact = tmp_path / "artifact.csv"
        artifact.write_text(text)
        assert main(["diagnose", str(artifact)]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == note

    def test_seed_printed_as_written(self, tmp_path, capsys):
        latents = tmp_path / "final_latents.csv"
        seed = 2**53 + 1
        latents.write_text("seed,z0\n" + f"{seed},0.25\n")
        assert main(["diagnose", str(latents)]) == 0
        assert f"seed {seed}: dim 1 too small" in capsys.readouterr().out

    def test_header_only_trajectory(self, tmp_path, monkeypatch, capsys):
        class Unavailable(Scorer):
            def score(self, sample):
                raise ScorerUnavailableError("no service")

        build_scorer = ExperimentConfig.build_scorer

        def unavailable_scorer(config):
            build_scorer(config)  # reads the scorer keys, as validation needs
            return Unavailable()

        monkeypatch.setattr(ExperimentConfig, "build_scorer", unavailable_scorer)
        cfg_path = small_config(tmp_path, method="random-sampling", epochs=2, seeds="0")
        assert main(["run", str(cfg_path)]) == 3
        trajectory = tmp_path / "out" / "trajectory_seed0.csv"
        assert trajectory.read_text() == TRAJECTORY_HEADER + "\n"
        capsys.readouterr()
        assert main(["diagnose", str(trajectory)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1:] == ["epochs: 0", "no scored epoch: the trajectory has a header only"]


class TestFiveMethodPlot:
    def test_five_polylines_with_unit_axis(self, tmp_path):
        paths = []
        for method in ("noise-diffusion", "pgd", "mean-variance",
                       "random-sampling", "random-diffusion"):
            sub = tmp_path / method
            cfg_path = small_config(tmp_path, method=method, epochs=2, seeds="0")
            main(["run", str(cfg_path), "-o", str(sub)])
            paths.append(str(sub / "trajectory_seed0.csv"))
        svg = emit_plot(paths, str(tmp_path / "five.svg"))
        assert len(re.findall(r"<polyline", svg)) == 5
        for method in ("noise-diffusion", "pgd", "mean-variance",
                       "random-sampling", "random-diffusion"):
            assert method in svg
        # fixed score axis [0, 1]
        assert ">0<" in svg and ">1<" in svg


class TestBuildOncePerRun:
    def _count_builds(self, monkeypatch):
        counts = {"build_pipeline": 0, "build_scorer": 0}
        for name in counts:
            original = getattr(ExperimentConfig, name)

            def counted(self, _name=name, _original=original):
                counts[_name] += 1
                return _original(self)

            monkeypatch.setattr(ExperimentConfig, name, counted)
        return counts

    def test_one_build_for_all_seeds(self, tmp_path, monkeypatch):
        text = small_config(tmp_path, epochs=2, seeds="0,1,2").read_text()
        counts = self._count_builds(monkeypatch)
        config = ExperimentConfig.from_text(text)
        result = run_experiment(config)
        assert result.exit_code == 0
        assert sorted(result.records) == [0, 1, 2]
        # built while parsing; the run uses config.pipeline and config.scorer
        assert counts == {"build_pipeline": 1, "build_scorer": 1}

    def test_run_single_builds_nothing(self, tmp_path, monkeypatch):
        config = ExperimentConfig.from_text(small_config(tmp_path, epochs=3, seeds="0,1")
                                            .read_text())
        shared = run_experiment(config).records
        counts = self._count_builds(monkeypatch)
        for seed in (0, 1):
            alone = run_single(config, seed)
            assert [(r.score, r.selected_ratio) for r in alone.rows] == [
                (r.score, r.selected_ratio) for r in shared[seed].rows
            ]
        assert counts == {"build_pipeline": 0, "build_scorer": 0}


class TestNonFiniteScorerGradient:
    class _NaNGradient(Scorer):
        def score(self, sample):
            return 0.5

        def gradient(self, sample):
            return np.full(np.asarray(sample).shape, np.nan)

    @pytest.mark.parametrize("mode", ["approx-constant-eps", "analytic-chain"])
    def test_run_exits_3_incomplete(self, tmp_path, monkeypatch, mode):
        cfg_path = small_config(tmp_path, epochs=3, seeds="0,1",
                                extra=f"gradient.mode = {mode}\n")
        build_scorer = ExperimentConfig.build_scorer

        def nan_gradient_scorer(config):
            build_scorer(config)  # reads the scorer keys, as validation needs
            return self._NaNGradient()

        monkeypatch.setattr(ExperimentConfig, "build_scorer", nan_gradient_scorer)
        assert main(["run", str(cfg_path)]) == 3
        status = (tmp_path / "out" / "status.txt").read_text().splitlines()
        assert status[0] == "incomplete"
        assert len(status) == 3
        assert all("ScorerContractError" in line and "non-finite" in line
                   for line in status[1:])
        cols = read_trajectory_csv(str(tmp_path / "out" / "trajectory_seed0.csv"))
        assert cols["epoch"] == [0.0]  # the first gradient already failed


class TestNonFiniteChainJacobian:
    def test_run_exits_4(self, tmp_path, capsys, monkeypatch):
        from noisediff.diffusion import AnalyticMixtureDenoiser

        monkeypatch.setattr(AnalyticMixtureDenoiser, "predict_jacobian",
                            lambda self, z, t, condition=None: np.full((self.dim,) * 2, np.inf))
        cfg_path = small_config(tmp_path, epochs=2, seeds="0",
                                extra="gradient.mode = analytic-chain\n")
        with np.errstate(all="ignore"):
            assert main(["run", str(cfg_path)]) == 4
        err = capsys.readouterr().err
        assert "NonFiniteError: chain Jacobian" in err


class TestNonFinitePipelineOutput:
    def test_run_exits_4_and_blames_the_pipeline(self, tmp_path, capsys):
        cfg_path = small_config(tmp_path, epochs=2, seeds="0,1")
        text = cfg_path.read_text()
        cfg_path.write_text(text.replace("guidance.scale = 7.5", "guidance.scale = 1e300"))
        with np.errstate(all="ignore"):
            assert main(["run", str(cfg_path)]) == 4
        err = capsys.readouterr().err
        assert "NonFiniteError" in err
        assert "ScorerContractError" not in err


class TestUnwritableOutput:
    """An output path that cannot be created or written is one exit-2
    error line naming the path, not a traceback."""

    def _one_error_line(self, capsys, path):
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and repr(str(path)) in err[0]

    def test_run_into_an_existing_file(self, tmp_path, capsys):
        target = tmp_path / "taken"
        target.write_text("not a directory\n")
        assert main(["run", str(small_config(tmp_path, epochs=1)), "-o", str(target)]) == 2
        self._one_error_line(capsys, target)
        assert target.read_text() == "not a directory\n"

    def test_sweep_into_an_existing_file(self, tmp_path, capsys):
        target = tmp_path / "taken"
        target.write_text("")
        args = ["sweep", str(small_config(tmp_path, epochs=1)), "--axis", "T", "--values", "3"]
        assert main(args + ["-o", str(target)]) == 2
        self._one_error_line(capsys, target / "T3")

    def test_plot_into_a_missing_directory(self, tmp_path, capsys):
        assert main(["run", str(small_config(tmp_path, epochs=1, seeds="0"))]) == 0
        capsys.readouterr()
        svg = tmp_path / "missing" / "x.svg"
        assert main(["plot", str(tmp_path / "out" / "trajectory_seed0.csv"), "-o", str(svg)]) == 2
        self._one_error_line(capsys, svg)
        assert not svg.parent.exists()
