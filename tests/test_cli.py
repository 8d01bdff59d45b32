"""CLI: argument parsing and end-to-end command behaviour."""

import pytest

from repro import cli
from repro.cli import build_parser, main
from repro.core.schemes import BASELINE, PRA
from repro.sim.runner import ExperimentRunner, arithmetic_mean


class TestParser:
    def test_list_parses(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.workload == "MIX1"
        assert args.scheme == "PRA"
        assert args.policy == "relaxed"

    def test_compare_schemes(self):
        args = build_parser().parse_args(
            ["compare", "--schemes", "PRA", "Half-DRAM"]
        )
        assert args.schemes == ["PRA", "Half-DRAM"]

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_profile_flag(self):
        args = build_parser().parse_args(["run", "--profile"])
        assert args.profile is True
        args = build_parser().parse_args(["run"])
        assert args.profile is False


@pytest.mark.slow
class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "MIX1" in out
        assert "PRA" in out
        assert "relaxed" in out

    def test_run_small(self, capsys):
        code = main(["run", "--workload", "GUPS", "--scheme", "PRA",
                     "--events", "300"])
        assert code == 0
        out = capsys.readouterr().out
        assert "GUPS / PRA" in out
        assert "total_power_mw" in out
        assert "1/8 row" in out

    def test_compare_small(self, capsys):
        code = main(["compare", "--workload", "GUPS", "--events", "300",
                     "--schemes", "PRA"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Baseline" in out  # baseline auto-added
        assert "PRA" in out

    def test_unknown_scheme_clean_error(self, capsys):
        code = main(["run", "--scheme", "bogus", "--events", "300"])
        assert code == 2
        err = capsys.readouterr().err
        assert "unknown scheme" in err
        assert "Traceback" not in err

    def test_unknown_workload_clean_error(self, capsys):
        code = main(["run", "--workload", "nope", "--events", "300"])
        assert code == 2
        assert "unknown workload" in capsys.readouterr().err

    def test_run_profiled(self, capsys):
        code = main(["run", "--workload", "GUPS", "--scheme", "Baseline",
                     "--events", "300", "--profile"])
        assert code == 0
        out = capsys.readouterr().out
        assert "GUPS / Baseline" in out
        # The cProfile report follows the normal output.
        assert "cumulative" in out
        assert "function calls" in out

    def test_restricted_policy(self, capsys):
        code = main(["run", "--workload", "GUPS", "--scheme", "Baseline",
                     "--events", "300", "--policy", "restricted"])
        assert code == 0
        assert "restricted-close-page" in capsys.readouterr().out


@pytest.mark.slow
class TestSweepCommand:
    def test_sweep_csv(self, tmp_path, capsys):
        out = tmp_path / "grid.csv"
        code = main([
            "sweep", "--workloads", "GUPS", "--schemes", "Baseline", "PRA",
            "--events", "300", "--out", str(out),
        ])
        assert code == 0
        import csv

        with open(out) as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 2
        assert {r["scheme"] for r in rows} == {"Baseline", "PRA"}

    def test_sweep_json(self, tmp_path):
        out = tmp_path / "grid.json"
        code = main([
            "sweep", "--workloads", "GUPS", "--schemes", "PRA",
            "--events", "300", "--out", str(out),
        ])
        assert code == 0
        import json

        assert len(json.loads(out.read_text())) == 1

    def test_sweep_requires_out(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep"])


class TestPooledSweepCommand:
    def test_pooled_csv_matches_serial(self, tmp_path, monkeypatch):
        """``repro sweep --pool 2`` writes the serial sweep's CSV byte
        for byte: two warm fingerprints (DBI and not), one group
        message each."""
        monkeypatch.setattr(cli, "_available_cpus", lambda: 2)
        serial, pooled = tmp_path / "serial.csv", tmp_path / "pooled.csv"
        argv = [
            "sweep", "--schemes", "Baseline", "PRA", "DBI+PRA",
            "--workloads", "GUPS", "--events", "300",
        ]
        assert main(argv + ["--out", str(serial)]) == 0
        assert main(argv + ["--pool", "2", "--out", str(pooled)]) == 0
        assert pooled.read_bytes() == serial.read_bytes()


class TestBenchCommand:
    """``repro bench`` runs its grid as a ``Sweep``; its table must
    equal what :class:`ExperimentRunner`'s normalized metrics give for
    the same points, serially and on a pool."""

    ARGV = ["bench", "--suite", "quick", "--events", "300", "--seed", "3"]

    @staticmethod
    def _table(capsys, argv):
        assert main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        return lines[lines.index("-" * 38) + 1:]

    def test_serial_table_matches_runner(self, capsys):
        runner = ExperimentRunner(events_per_core=300, seed=3)
        expected = []
        for scheme in (BASELINE, PRA):
            means = [
                arithmetic_mean([metric(wl, scheme) for wl in ("GUPS", "MIX1")])
                for metric in (runner.normalized_power, runner.normalized_energy,
                               runner.normalized_edp)
            ]
            expected.append(f"{scheme.name:<14}" + "".join(f"{m:>8.3f}" for m in means))
        assert self._table(capsys, self.ARGV + ["--pool", "0"]) == expected

    def test_pooled_table_matches_serial(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "_available_cpus", lambda: 2)
        serial = self._table(capsys, self.ARGV + ["--pool", "0"])
        assert self._table(capsys, self.ARGV + ["--pool", "2"]) == serial
