"""Smoke and shape tests for the experiment regenerators.

Full fidelity lives in ``benchmarks/``; here we check that each
regenerator runs, produces well-formed results, and preserves the
paper's core qualitative relationships at reduced scale.
"""

import numpy as np
import pytest

from repro.experiments import build_deployment
from repro.experiments.common import ExperimentResult
from repro.experiments.fig5_pingpong import measure_point as fig5_point
from repro.experiments.fig6_visualization import measure_point as fig6_point
from repro.experiments.fig7_burstiness_traces import run as fig7_run
from repro.experiments.fig8_cpu_reservation import run as fig8_run
from repro.experiments.report import ascii_plot, format_table, render_result
from repro.net import mbps


class TestDeployment:
    def test_build_deployment_wiring(self):
        dep = build_deployment(contention_rate=mbps(10))
        assert dep.gq.world.size == 2
        assert dep.contention is not None
        # Conditioners installed on every host-facing edge port.
        assert len(dep.gq.domain.conditioners) == 4

    def test_deterministic_given_seed(self):
        a = fig6_point(5, 300, seed=9, duration=2.0)
        b = fig6_point(5, 300, seed=9, duration=2.0)
        assert a == b


class TestFig5Shape:
    def test_reservation_helps_contended_pingpong(self):
        starved = fig5_point(40_000, 0, duration=1.5)
        reserved = fig5_point(40_000, 6000, duration=1.5)
        assert reserved > 3 * max(starved, 1.0)


class TestFig6Shape:
    def test_adequacy_cliff(self):
        # 5 KB frames at 10 fps: 410 Kb/s target.
        inadequate = fig6_point(5, 300, duration=5.0)
        adequate = fig6_point(5, 500, duration=5.0)
        assert adequate > 0.9 * 410
        assert inadequate < 0.8 * adequate


class TestFig7:
    def test_result_structure(self):
        result = fig7_run(quick=True)
        assert isinstance(result, ExperimentResult)
        assert set(result.series) == {"10fps", "1fps"}
        for _name, (x, y) in result.series.items():
            assert len(x) == len(y)
            assert np.all(np.diff(y) >= -1e9)  # cumulative, nondecreasing
        smooth, bursty = result.rows
        assert bursty[2] > smooth[2]


class TestFig8:
    def test_three_phases(self):
        result = fig8_run(quick=True)
        assert result.extra["during_contention_kbps"] < (
            0.8 * result.extra["before_contention_kbps"]
        )
        assert result.extra["after_reservation_kbps"] > (
            0.9 * result.extra["target_kbps"]
        )
        # Trace rows well-formed.
        assert result.headers == ["time_s", "bandwidth_kbps"]
        assert all(len(row) == 2 for row in result.rows)


class TestReport:
    def test_format_table(self):
        text = format_table(["a", "bb"], [[1, 2.5], [10, 33.333]])
        lines = text.splitlines()
        assert lines[0].strip().startswith("a")
        assert "33.33" in text

    def test_format_table_empty_rows(self):
        text = format_table(["x"], [])
        assert "x" in text

    def test_ascii_plot_renders_all_series(self):
        t = np.linspace(0, 1, 20)
        text = ascii_plot({"up": (t, t), "down": (t, 1 - t)})
        assert "*" in text and "o" in text
        assert "legend" in text

    def test_ascii_plot_empty(self):
        assert ascii_plot({}) == "(no data)"
        assert ascii_plot({"e": (np.array([]), np.array([]))}) == "(no data)"

    def test_render_result(self):
        result = ExperimentResult(
            experiment="x",
            description="demo",
            headers=["h"],
            rows=[[1]],
            extra={"k": 1.0},
        )
        text = render_result(result)
        assert "demo" in text and "k: 1" in text


class TestRunnerCli:
    def test_runner_selects_and_writes_json(self, tmp_path):
        from repro.experiments.runner import main

        rc = main(["fig8", "--quick", "--out", str(tmp_path)])
        assert rc == 0
        payload = (tmp_path / "fig8.json").read_text()
        assert '"experiment": "fig8"' in payload

    def test_runner_rejects_unknown(self):
        from repro.experiments.runner import main

        with pytest.raises(SystemExit):
            main(["nonsense"])

    def test_runner_unknown_error_lists_real_names(self, capsys):
        """Regression: the old ``choices=[[], ...]`` argparse hack
        printed ``(choose from [], 'fig1', ...)`` — the error must name
        the offending argument and the actual experiments."""
        from repro.experiments.runner import main

        with pytest.raises(SystemExit):
            main(["fig2", "fig5"])
        err = capsys.readouterr().err
        assert "fig2" in err
        assert "fig1" in err and "table1" in err
        assert "[]" not in err

    def test_runner_writes_metrics_with_out(self, tmp_path):
        import json

        from repro.experiments.runner import main

        rc = main(["fig8", "--quick", "--out", str(tmp_path)])
        assert rc == 0
        metrics = json.loads((tmp_path / "fig8.metrics.json").read_text())
        assert metrics["meta"]["experiment"] == "fig8"
        assert metrics["metrics"]  # registry scraped something
        assert (tmp_path / "fig8.metrics.csv").read_text().startswith("name,")

    def test_runner_no_telemetry_skips_metrics(self, tmp_path):
        from repro.experiments.runner import main

        rc = main(["fig8", "--quick", "--no-telemetry",
                   "--out", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "fig8.json").exists()
        assert not (tmp_path / "fig8.metrics.json").exists()

    def test_runner_rejects_bad_parallel(self):
        from repro.experiments.runner import main

        with pytest.raises(SystemExit):
            main(["fig8", "--quick", "--parallel", "0"])

    def test_runner_rejects_batch_mode(self):
        """Only the packet and hybrid datapaths exist; argparse
        refuses anything else with its usage-error exit code."""
        from repro.experiments.runner import main

        with pytest.raises(SystemExit) as exc:
            main(["fig1", "--quick", "--mode", "batch"])
        assert exc.value.code == 2

    def test_runner_parallel_output_matches_serial(self, tmp_path):
        """--parallel 2 writes the same JSON a serial run does
        (elapsed_seconds aside)."""
        import json

        from repro.experiments.runner import main

        rc = main(["fig8", "--quick", "--no-telemetry",
                   "--out", str(tmp_path / "serial")])
        assert rc == 0
        rc = main(["fig8", "--quick", "--no-telemetry", "--parallel", "2",
                   "--out", str(tmp_path / "par")])
        assert rc == 0
        serial = json.loads((tmp_path / "serial" / "fig8.json").read_text())
        par = json.loads((tmp_path / "par" / "fig8.json").read_text())
        serial.pop("elapsed_seconds"), par.pop("elapsed_seconds")
        assert serial == par

    def test_runner_parallel_writes_metrics(self, tmp_path):
        """Whole-experiment parallel jobs export per-worker telemetry."""
        import json

        from repro.experiments.runner import main

        rc = main(["fig8", "--quick", "--parallel", "2",
                   "--out", str(tmp_path)])
        assert rc == 0
        metrics = json.loads((tmp_path / "fig8.metrics.json").read_text())
        assert metrics["meta"]["experiment"] == "fig8"
        assert metrics["metrics"]
