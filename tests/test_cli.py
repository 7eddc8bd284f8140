"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["transmogrify"])

    def test_shape_defaults(self):
        args = build_parser().parse_args(["simulate"])
        assert (args.size, args.kernel, args.batch) == (64, 3, 8)


class TestCommands:
    def test_selftest(self, capsys):
        assert main(["selftest"]) == 0
        out = capsys.readouterr().out
        assert "selftest passed" in out
        assert "polyhankel" in out

    def test_algorithms(self, capsys):
        assert main(["algorithms"]) == 0
        out = capsys.readouterr().out
        assert "polyhankel" in out
        assert "im2col" in out

    def test_simulate(self, capsys):
        assert main(["simulate", "--size", "32", "--batch", "4"]) == 0
        out = capsys.readouterr().out
        assert "GeForce 3090Ti" in out
        assert "ms" in out

    def test_simulate_multiple_devices(self, capsys):
        assert main(["simulate", "--size", "32", "--devices", "v100",
                     "a10g"]) == 0
        out = capsys.readouterr().out
        assert "V100" in out and "A10G" in out

    def test_select(self, capsys):
        assert main(["select", "--size", "128", "--kernel", "5",
                     "--batch", "64", "--padding", "2"]) == 0
        out = capsys.readouterr().out
        assert "model-driven choice" in out
        assert "rule-based choice" in out

    def test_tune_small(self, capsys):
        assert main(["tune", "--size", "12", "--batch", "1",
                     "--channels", "1", "--filters", "1",
                     "--repeats", "1"]) == 0
        out = capsys.readouterr().out
        assert "best:" in out

    def test_tune_grouped(self, capsys):
        assert main(["tune", "--size", "10", "--batch", "1",
                     "--channels", "4", "--filters", "4", "--groups", "2",
                     "--repeats", "1"]) == 0
        out = capsys.readouterr().out
        assert "groups=2" in out
        assert "|g=2|" in out

    def test_figures_single_panel(self, capsys):
        assert main(["figures", "5", "--devices", "3090ti"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 5" in out
        assert "polyhankel" in out


class TestObservabilityCommands:
    def test_profile_preset(self, capsys):
        assert main(["profile", "conv16_sum_numpy",
                     "--repeats", "2"]) == 0
        out = capsys.readouterr().out
        assert "profile conv16_sum_numpy" in out
        assert "input_block_ffts" in out
        assert "drift" in out
        assert "fft invocations" in out

    def test_profile_custom_shape_gemm(self, capsys):
        assert main(["profile", "--algorithm", "gemm", "--size", "12",
                     "--batch", "1", "--channels", "1", "--filters", "1",
                     "--repeats", "1"]) == 0
        out = capsys.readouterr().out
        assert "algo=gemm" in out
        assert "im2col" in out and "gemm" in out

    def test_profile_trace_and_json(self, capsys, tmp_path):
        path = tmp_path / "profile.json"
        assert main(["profile", "conv16_sum_numpy", "--repeats", "1",
                     "--trace", "--json", str(path)]) == 0
        out = capsys.readouterr().out
        assert "spans (completion order):" in out
        assert "stage.pointwise" in out
        assert path.exists()

    def test_profile_unknown_preset(self, capsys):
        with pytest.raises(ValueError, match="unknown preset"):
            main(["profile", "definitely_not_a_case"])

    def test_cache_stats(self, capsys):
        assert main(["cache-stats"]) == 0
        out = capsys.readouterr().out
        assert "conv plans" in out
        assert "fft plans" in out
        assert "layer spectra" in out


class TestServeCommands:
    def test_serve_bench_list(self, capsys):
        assert main(["serve-bench", "--list"]) == 0
        out = capsys.readouterr().out
        assert "serve_batch8" in out
        assert "floor 2x" in out
        assert "ungated" in out

    def test_serve_bench_unknown_preset(self, capsys):
        assert main(["serve-bench", "no_such_preset"]) == 2
        assert "unknown preset" in capsys.readouterr().out

    def test_serve_stats(self, capsys):
        assert main(["serve-stats"]) == 0
        out = capsys.readouterr().out
        assert "requests" in out
        assert "coalesce rate" in out

    @pytest.mark.slow
    def test_serve_bench_single_preset_json(self, capsys, tmp_path):
        import json

        out_path = tmp_path / "serve.json"
        assert main(["serve-bench", "serve_batch8", "--repeats", "1",
                     "--out", str(out_path)]) == 0
        text = capsys.readouterr().out
        assert "serve_batch8" in text
        report = json.loads(out_path.read_text())
        assert report["serve"][0]["name"] == "serve_batch8"
        assert report["serve"][0]["exact"] is True
        assert "env_pins" in report
