"""Command-line behavior: subcommands, exit codes, file outputs."""

import json
import os
import subprocess
import sys

import pytest

import sfcheck
from sfcheck import cli
from sfcheck.cli import main
from sfcheck.formats import decode_graph6
from sfcheck.graphs import path
from sfcheck.report import load_report


class TestBuild:
    def test_explicit_base_path_graph6(self, tmp_path, capsys):
        out = tmp_path / "f3.g6"
        code = main(["build", "--kind", "F", "--r", "3", "--base", "explicit", "--out", str(out)])
        assert code == 0
        assert decode_graph6(out.read_text()) == path(6)
        assert "n=6 m=5" in capsys.readouterr().out

    def test_t_alias_for_sf(self, tmp_path):
        out = tmp_path / "sf4.g6"
        assert main(["build", "--kind", "SF", "--t", "4", "--out", str(out)]) == 0
        assert decode_graph6(out.read_text()).n == 30

    def test_dimacs_output(self, tmp_path):
        out = tmp_path / "f3.dim"
        code = main(
            ["build", "--kind", "F", "--r", "3", "--format", "dimacs", "--out", str(out)]
        )
        assert code == 0
        assert out.read_text().startswith("p edge 6 5\n")

    def test_build_error_exit_2(self, tmp_path, capsys):
        out = tmp_path / "x.g6"
        assert main(["build", "--kind", "F", "--r", "2", "--out", str(out)]) == 2
        assert "error" in capsys.readouterr().err

    def test_unknown_profile_value_exit_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as err:
            main(["build", "--kind", "F", "--r", "3", "--prod", "strong", "--out", "x"])
        assert err.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["build", "--kind", "F", "--r", "3", "--profile", "fancy", "--out", "x"],
            ["build", "--kind", "F", "--r", "3", "--profile", "default", "--out", "x"],
            ["verify", "--theorem", "1.1", "--r", "3", "--report", "x", "--deterministic"],
            ["sweep", "--t-max", "3", "--report-dir", "x", "--deterministic"],
        ],
    )
    def test_unknown_named_profile_exit_2(self, argv):
        # --profile and --deterministic are not options: a usage error.
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2


class TestVerify:
    def test_theorem_11_r3_confirmed_exit_0(self, tmp_path, capsys):
        report_path = tmp_path / "out.json"
        code = main(
            ["verify", "--theorem", "1.1", "--r", "3", "--base", "explicit",
             "--report", str(report_path)]
        )
        assert code == 0
        report = load_report(report_path)
        check = report["checks"][0]
        assert check["status"] == "CONFIRMED"
        assert check["claimed"] == 2
        assert check["computed"] == {"mono_clique": 2}
        assert "CONFIRMED" in capsys.readouterr().out

    def test_theorem_12_r2_refuted_exit_1(self, tmp_path):
        report_path = tmp_path / "out.json"
        code = main(
            ["verify", "--theorem", "1.2", "--r", "2",
             "--report", str(report_path)]
        )
        assert code == 1
        report = load_report(report_path)
        assert report["checks"][0]["status"] == "REFUTED"
        assert report["target"] == {"kind": "SF", "param": 3}
        assert report["bound"]["witness_ok"] is False

    @pytest.mark.parametrize(
        "theorem, r, message",
        [("1.1", "2", "claim T1.1 needs r >= 3, got 2"), ("1.2", "1", "claim T1.2 needs r >= 2, got 1")],
    )
    def test_small_r_names_the_claim_exit_2(self, tmp_path, capsys, theorem, r, message):
        report_path = tmp_path / "out.json"
        assert main(["verify", "--theorem", theorem, "--r", r, "--report", str(report_path)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not report_path.exists()

    def test_verify_usage_error_exit_2(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["verify", "--theorem", "2.1", "--r", "3", "--report", "x"])
        assert err.value.code == 2


class TestSweep:
    def test_sweep_t4_writes_all_reports(self, tmp_path, capsys):
        outdir = tmp_path / "reports"
        code = main(["sweep", "--t-max", "4", "--report-dir", str(outdir)])
        # SF(3) = P_6 is refuted at r=2, so the sweep must gate with exit 1.
        assert code == 1
        names = sorted(p.name for p in outdir.iterdir())
        assert names == ["t11_r3.json", "t11_r4.json", "t12_r2.json", "t12_r3.json"]
        for name in names:
            load_report(outdir / name)
        out = capsys.readouterr().out
        assert out.count("T1_1") == 2 and out.count("T1_2") == 2

    def test_sweep_rejects_small_t_max(self, tmp_path, capsys):
        assert main(["sweep", "--t-max", "2", "--report-dir", str(tmp_path)]) == 2

    def test_sweep_honors_profile_flags(self, tmp_path):
        outdir = tmp_path / "reports"
        main(["sweep", "--t-max", "3", "--base", "general", "--report-dir", str(outdir)])
        report = load_report(outdir / "t12_r2.json")
        assert report["profile"]["base_case"] == "general"
        assert report["graph_stats"]["n"] == 12

    def test_sweep_parallel_matches_serial(self, tmp_path, monkeypatch):
        serial_dir = tmp_path / "serial"
        parallel_dir = tmp_path / "parallel"
        assert main(["sweep", "--t-max", "4", "--report-dir", str(serial_dir)]) == 1
        monkeypatch.setenv("RF_THREADS", "2")
        assert main(["sweep", "--t-max", "4", "--report-dir", str(parallel_dir)]) == 1
        for name in ("t11_r3.json", "t11_r4.json", "t12_r2.json", "t12_r3.json"):
            a = json.loads((serial_dir / name).read_text())
            b = json.loads((parallel_dir / name).read_text())
            a.pop("timestamps")
            b.pop("timestamps")
            assert a == b


    def test_sweep_writes_each_report_as_its_job_finishes(self, tmp_path, capsys, monkeypatch):
        real = cli.run_verification
        calls = []

        def third_job_fails(*args):
            calls.append(args)
            if len(calls) == 3:
                raise AssertionError("job 3 failed")
            return real(*args)

        monkeypatch.delenv("RF_THREADS", raising=False)
        monkeypatch.setattr(cli, "run_verification", third_job_fails)
        assert main(["sweep", "--t-max", "4", "--report-dir", str(tmp_path)]) == 3
        assert sorted(p.name for p in tmp_path.iterdir()) == ["t11_r3.json", "t11_r4.json"]
        for name in ("t11_r3.json", "t11_r4.json"):
            load_report(tmp_path / name)
        assert capsys.readouterr().out.count("T1_1") == 2


class TestInternalError:
    @pytest.mark.parametrize(
        "exc", [AssertionError("witness failed"), RecursionError("too deep"), MemoryError()]
    )
    def test_solver_crash_exit_3(self, tmp_path, capsys, monkeypatch, exc):
        def crash(*args, **kwargs):
            raise exc

        monkeypatch.setattr("sfcheck.verify.max_clique", crash)
        report_path = tmp_path / "out.json"
        code = main(["verify", "--theorem", "1.2", "--r", "2", "--report", str(report_path)])
        assert code == 3
        assert f"internal error: {type(exc).__name__}" in capsys.readouterr().err
        assert not report_path.exists()

    def test_sweep_crash_exit_3(self, tmp_path, capsys, monkeypatch):
        def crash(*args, **kwargs):
            raise AssertionError("single-label witness spans both labels")

        monkeypatch.setattr("sfcheck.verify.max_mono_clique", crash)
        assert main(["sweep", "--t-max", "3", "--report-dir", str(tmp_path)]) == 3
        assert "internal error: AssertionError" in capsys.readouterr().err


class TestOracleCheck:
    def test_quick_run_exit_0(self, capsys):
        code = main(["oracle-check", "--trials", "30", "--max-n", "10", "--seed", "7"])
        assert code == 0
        assert "30/30 agreements" in capsys.readouterr().out

    def test_rejects_oversized_max_n(self, capsys):
        assert main(["oracle-check", "--trials", "1", "--max-n", "30", "--seed", "1"]) == 2

    @pytest.mark.parametrize("trials", ["0", "-5"])
    def test_rejects_trials_below_one(self, capsys, trials):
        assert main(["oracle-check", "--trials", trials]) == 2
        captured = capsys.readouterr()
        assert "--trials must be >= 1" in captured.err
        assert "agreements" not in captured.out

    @pytest.mark.parametrize("max_n", ["0", "-1"])
    def test_rejects_max_n_below_one(self, capsys, max_n):
        assert main(["oracle-check", "--trials", "1", "--max-n", max_n]) == 2
        assert "--max-n must be >= 1" in capsys.readouterr().err


def test_runtime_loads_only_the_standard_library():
    # -S skips site's .pth hooks, so every module listed was loaded by the import.
    src = os.path.dirname(os.path.dirname(sfcheck.__file__))
    code = "import sys, sfcheck.cli; print(' '.join(sorted({m.split('.')[0] for m in sys.modules})))"
    out = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        check=True,
    ).stdout.split()
    assert "sfcheck" in out
    outside = set(out) - sys.stdlib_module_names - {"sfcheck", "__main__", "__mp_main__"}
    assert not outside, f"non-stdlib modules loaded: {sorted(outside)}"
