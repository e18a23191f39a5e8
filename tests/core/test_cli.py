"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.obs.trace import read_trace


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.device == "nexus5"
        assert args.order == 8

    def test_sweep_list_args(self):
        args = build_parser().parse_args(
            ["sweep", "--orders", "4,8", "--rates", "1000"]
        )
        assert args.orders == "4,8"

    def test_unknown_device_exits(self, capsys):
        with pytest.raises(SystemExit):
            main(["info", "--device", "pixel9"])


class TestInfo:
    def test_info_prints_parameters(self, capsys):
        code = main(["info", "--order", "16", "--rate", "3000"])
        assert code == 0
        out = capsys.readouterr().out
        assert "RS(" in out
        assert "rows per symbol" in out
        assert "16-CSK" in out

    def test_info_respects_device(self, capsys):
        main(["info", "--device", "iphone5s"])
        assert "iPhone 5S" in capsys.readouterr().out


class TestSweepGuard:
    def test_sweep_marks_infeasible_rates(self, capsys):
        # 13 kHz exceeds the Nexus 5's 10-row band limit: reported, not run.
        code = main(
            [
                "sweep",
                "--orders", "4",
                "--rates", "13000",
                "--duration", "0.2",
            ]
        )
        assert code == 0
        assert "band < 10 px" in capsys.readouterr().out

    def test_sweep_reports_the_worker_count_it_ran_with(self, capsys, tmp_path):
        # One cell cannot keep four workers busy: the sweep clamps to one
        # and runs it serially.  The table and the gauge show the count the
        # sweep ran with; the trace root keeps the request beside it.
        trace = tmp_path / "sweep.jsonl"
        code = main(
            [
                "sweep",
                "--orders", "4",
                "--rates", "1000",
                "--duration", "0.5",
                "--workers", "4",
                "--metrics", "-",
                "--trace", str(trace),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "device: Nexus 5 (workers: 1)" in out
        assert "colorbars.sweep.workers = 1" in out
        root = read_trace(trace)[0]
        assert root.parent_id is None
        assert root.attributes["workers"] == 4
        assert root.attributes["effective_workers"] == 1


class TestServeGuard:
    @pytest.mark.parametrize("chaos", ["0.0", "1.0"])
    @pytest.mark.parametrize("intensity", ["2", "-0.5", "nan", "inf"])
    def test_out_of_range_fault_intensity_is_a_clean_error(
        self, capsys, chaos, intensity
    ):
        with pytest.raises(SystemExit) as exc_info:
            main(
                [
                    "serve",
                    "--device", "generic",
                    "--order", "4",
                    "--rate", "1000",
                    "--sessions", "4",
                    "--duration", "0.3",
                    "--recordings", "1",
                    "--seed", "5",
                    "--chaos-sessions", chaos,
                    "--fault-intensity", intensity,
                ]
            )
        assert str(exc_info.value.code).startswith(
            "colorbars: fault_intensity must be in [0, 1]"
        )
        assert "serve  :" not in capsys.readouterr().out
