"""Command-line behavior: subcommands, exit codes, file outputs."""

import errno
import importlib
import inspect
import json
import os
import pkgutil
import re
import subprocess
import sys
import tracemalloc
import typing

import pytest

import sfcheck
from sfcheck import cli, solve
from sfcheck.cli import main
from sfcheck.construct import build_SF
from sfcheck.formats import decode_graph6
from sfcheck.graphs import path
from sfcheck.report import load_report, run_verification
from sfcheck.verify import CLAIMS

from oracles import clear_memos, family_representatives, parse_dimacs, profile_argv


def run_with_stdout_gone(argv):
    """``sfcheck argv`` in a fresh process whose stdout is a pipe with its
    read end already closed, so its first line meets the closed pipe."""
    src = os.path.dirname(os.path.dirname(sfcheck.__file__))
    read, write = os.pipe()
    os.close(read)
    try:
        return subprocess.run(
            [sys.executable, "-m", "sfcheck.cli", *argv],
            env=dict(os.environ, PYTHONPATH=src),
            stdout=write,
            stderr=subprocess.PIPE,
        )
    finally:
        os.close(write)


@pytest.mark.parametrize("profile", family_representatives(), ids=str)
def test_every_report_witness_holds_in_the_exported_dimacs(profile, tmp_path, capsys):
    """Every report target with t <= 12, exported as DIMACS through the
    command line and read back by a parser of its own, holds its report's
    witness pair by pair: report vertex v is DIMACS vertex v + 1."""
    out = tmp_path / "target.dim"
    for theorem, (min_r, _, shift) in CLAIMS.items():
        for r in range(min_r, 12 - shift + 1):
            report = run_verification(theorem, r, profile)
            (kind, param), check = report["target"].values(), report["checks"][0]
            assert main(["build", "--kind", kind, "--t", str(param), *profile_argv(profile), "--format", "dimacs", "--out", str(out)]) == 0
            n, edges = parse_dimacs(out.read_text())
            assert n == report["graph_stats"]["n"] and len(edges) == report["graph_stats"]["m"], (theorem, r)
            witness = [v + 1 for v in check["witness"]]
            adjacent = {(u, v) in edges for i, u in enumerate(witness) for v in witness[i + 1 :]}
            assert len(witness) in check["computed"].values() and adjacent <= {check["witness_mode"] == "clique"}, (theorem, r)


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

    @pytest.mark.parametrize("kind, param, limit", [("SF", 400, "limit of t = 100"), ("SF", 32, "export limit of t = 31"), ("F", 101, "limit of t = 100")])
    def test_oversized_build_refused_unbuilt(self, kind, param, limit, tmp_path, monkeypatch, capsys):
        def no_build(*args):
            raise AssertionError("built a target above the export limit")

        # The stack, which gives n and m, and the row stream are all that ``build`` builds.
        monkeypatch.setattr(cli, "Stack", no_build)
        monkeypatch.setattr(cli, "build_stream", no_build)
        out = tmp_path / "big.g6"
        assert main(["build", "--kind", kind, "--r", str(param), "--out", str(out)]) == 2
        assert f"{kind}({param}) is above the {limit}" in capsys.readouterr().err
        assert not out.exists()

    def test_build_runs_on_after_its_reader_closes_the_pipe(self, tmp_path):
        # The file is written before the line that meets the closed pipe;
        # the build still exits 0, with no error.
        out = tmp_path / "sf5.g6"
        build = run_with_stdout_gone(["build", "--kind", "SF", "--t", "5", "--out", str(out)])
        assert (build.returncode, build.stderr) == (0, b"")
        assert decode_graph6(out.read_text()) == build_SF(5).graph

    @pytest.mark.parametrize("fmt", ["graph6", "dimacs"])
    def test_output_mode_is_what_open_gives_a_new_file(self, fmt, tmp_path, umask):
        out = tmp_path / "sf4.out"
        assert main(["build", "--kind", "SF", "--t", "4", "--format", fmt, "--out", str(out)]) == 0
        assert os.stat(out).st_mode & 0o777 == 0o666 & ~umask

    def test_build_writes_a_pipe_in_place(self, capsys):
        # `build --out /dev/stdout | solver` names a pipe through /dev/fd.
        reader, writer = os.pipe()
        try:
            out = f"/dev/fd/{writer}"
            assert main(["build", "--kind", "F", "--r", "3", "--base", "explicit", "--out", out]) == 0
            os.close(writer)
            writer = None
            assert decode_graph6(os.read(reader, 1 << 16).decode()) == path(6)
        finally:
            os.close(reader)
            if writer is not None:
                os.close(writer)
        assert f"-> {out} [graph6]" in capsys.readouterr().out

    def test_a_write_that_fails_partway_keeps_the_old_file(self, tmp_path, monkeypatch, capsys):
        def rows_then_disk_full(n, m, rows):
            yield f"p edge {n} {m}\n"
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(cli, "dimacs_rows", rows_then_disk_full)
        out = tmp_path / "sf4.dim"
        out.write_text("old\n")
        assert main(["build", "--kind", "SF", "--t", "4", "--format", "dimacs", "--out", str(out)]) == 2
        assert str(out) in capsys.readouterr().err
        assert out.read_text() == "old\n" and os.listdir(tmp_path) == ["sf4.dim"]

    @pytest.mark.parametrize("fmt, size", [("graph6", 600_000), ("dimacs", 20_000_000)])
    def test_export_is_streamed_to_the_file(self, fmt, size, tmp_path, capsys):
        # SF(16) has n = 2710, and its dense rows take about n²/8 = 0.92 MB;
        # its graph6 text is 0.61 MB and its DIMACS text 20.5 MB.  Streamed
        # from the stage blocks a part at a time, the build peaks at about
        # 0.36 MB (graph6) and 0.34 MB (DIMACS); built dense first, at 1.39
        # and 1.32 MB.
        out = tmp_path / f"sf16.{fmt}"
        tracemalloc.start()
        try:
            code = main(["build", "--kind", "SF", "--t", "16", "--format", fmt, "--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and out.stat().st_size > size
        assert peak < 2710**2 / 8, f"peak {peak} bytes, the dense rows {2710**2 // 8}"

    @pytest.mark.parametrize("fmt, field, off", [("graph6", "n", 1), ("graph6", "n", -1), ("dimacs", "n", 1), ("dimacs", "m", 1), ("dimacs", "m", -1)])
    def test_a_header_that_the_rows_do_not_meet_fails_the_export(self, fmt, field, off, tmp_path, monkeypatch, capsys):
        # The header's n and m come from the stack's closed forms, and the
        # encoders check the rows against them: exit 3, and no file written.
        class Miscounted(cli.Stack):
            def __init__(self, *args):
                super().__init__(*args)
                setattr(self, field, getattr(self, field) + off)

        monkeypatch.setattr(cli, "Stack", Miscounted)
        out = tmp_path / "sf5.out"
        out.write_text("old\n")
        assert main(["build", "--kind", "SF", "--t", "5", "--format", fmt, "--out", str(out)]) == 3
        assert "internal error: AssertionError" in capsys.readouterr().err
        assert out.read_text() == "old\n" and os.listdir(tmp_path) == ["sf5.out"]
        out.unlink()
        assert main(["build", "--kind", "SF", "--t", "5", "--format", fmt, "--out", str(out)]) == 3
        assert os.listdir(tmp_path) == []

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

    def test_theorem_12_r2_refuted_exit_1(self, tmp_path, capsys):
        report_path = tmp_path / "out.json"
        code = main(
            ["verify", "--theorem", "1.2", "--r", "2",
             "--report", str(report_path)]
        )
        assert code == 1
        report = load_report(report_path)
        assert report["checks"][0]["status"] == "REFUTED"
        assert report["target"] == {"kind": "SF", "param": 3}
        assert report["bound"]["implied"] is None
        assert capsys.readouterr().out.splitlines()[-1] == "bound: implied=None"

    def test_refuted_verdict_exits_1_after_its_reader_closes_the_pipe(self, tmp_path):
        # A REFUTED verdict keeps exit 1, not the usage error's 2, when its
        # summary line meets the closed pipe.
        report_path = tmp_path / "x.json"
        verify = run_with_stdout_gone(["verify", "--theorem", "1.2", "--r", "3", "--report", str(report_path)])
        assert (verify.returncode, verify.stderr) == (1, b"")
        assert load_report(report_path)["checks"][0]["status"] == "REFUTED"

    @pytest.mark.parametrize(
        "theorem, r, message",
        [("1.1", "2", "claim T1.1 needs r >= 3, got 2"), ("1.2", "1", "claim T1.2 needs r >= 2, got 1")],
    )
    def test_small_r_names_the_claim_exit_2(self, tmp_path, capsys, theorem, r, message):
        report_path = tmp_path / "out.json"
        assert main(["verify", "--theorem", theorem, "--r", r, "--report", str(report_path)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not report_path.exists()

    @pytest.mark.parametrize(
        "argv",
        [["verify", "--theorem", "1.2", "--r", "4", "--report"], ["build", "--kind", "SF", "--t", "4", "--format", "dimacs", "--out"]],
        ids=["verify", "build"],
    )
    def test_unwritable_report_names_its_path_exit_2(self, argv, tmp_path, capsys):
        report_path = tmp_path / "missing" / "dir" / "r.json"
        assert main([*argv, str(report_path)]) == 2
        err = capsys.readouterr().err
        assert str(report_path) in err and ".tmp" not in err
        assert os.listdir(tmp_path) == []

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

    def test_sweep_writes_each_report_as_its_job_finishes(self, tmp_path, capsys, monkeypatch):
        real = cli.run_verification
        calls = []

        def third_job_fails(*args):
            calls.append(args)
            if len(calls) == 3:
                raise AssertionError("job 3 failed")
            return real(*args)

        monkeypatch.setattr(cli, "run_verification", third_job_fails)
        assert main(["sweep", "--t-max", "4", "--report-dir", str(tmp_path)]) == 3
        assert sorted(p.name for p in tmp_path.iterdir()) == ["t11_r3.json", "t11_r4.json"]
        for name in ("t11_r3.json", "t11_r4.json"):
            load_report(tmp_path / name)
        assert capsys.readouterr().out.count("T1_1") == 2

    def test_sweep_ends_with_its_time_and_both_memos(self, tmp_path, capsys):
        # On empty memos, the default profile's F(3..12) are built once each
        # by the T1.1 jobs; each T1.2 job at r builds SF(r+1) on SF(r), which
        # the job before it built, and reads stage r+1, one stage memo hit.
        clear_memos()
        main(["sweep", "--t-max", "12", "--report-dir", str(tmp_path)])
        last = capsys.readouterr().out.splitlines()[-1]
        pattern = (rf"sweep: 20 reports -> {re.escape(str(tmp_path))} in \d+\.\d\d s; "
                   r"stage memo: 10 built, 10 hits; prefixes: 10 built")
        assert re.fullmatch(pattern, last), last

    def test_sweep_runs_on_after_its_reader_closes_the_pipe(self, tmp_path):
        # As `sfcheck sweep --t-max 40 ... | head -1`: the reader takes one
        # line and closes the pipe, and unbuffered, each later line meets the
        # closed pipe.  The sweep still writes every report, prints nothing
        # more, not even an error, and exits by its verdicts.
        src = os.path.dirname(os.path.dirname(sfcheck.__file__))
        argv = ["sweep", "--t-max", "40", "--report-dir", str(tmp_path)]
        sweep = subprocess.Popen(
            [sys.executable, "-u", "-m", "sfcheck.cli", *argv],
            env=dict(os.environ, PYTHONPATH=src),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        assert sweep.stdout.readline().startswith(b"T1_1 r=3 on F(3)")
        sweep.stdout.close()
        assert sweep.stderr.read() == b""
        assert sweep.wait() == 1
        paths = sorted(tmp_path.glob("*.json"))
        assert len(paths) == 76
        for path in paths:
            load_report(path)


class TestCommands:
    def test_help_lists_build_verify_and_sweep(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["--help"])
        assert err.value.code == 0
        assert re.search(r"\{build,verify,sweep\}", capsys.readouterr().out)

    def test_oracle_check_is_not_a_command(self, capsys):
        # The solver's check against the enumeration oracle runs in
        # tests/test_solvers.py::TestSolverAgainstOracle, not on the command line.
        with pytest.raises(SystemExit) as err:
            main(["oracle-check", "--trials", "1"])
        assert err.value.code == 2
        assert "invalid choice: 'oracle-check'" in capsys.readouterr().err


class TestInternalError:
    @pytest.mark.parametrize(
        "exc", [AssertionError("witness failed"), RecursionError("too deep"), MemoryError()]
    )
    def test_solver_crash_exit_3(self, tmp_path, capsys, monkeypatch, exc):
        def crash(*args, **kwargs):
            raise exc

        monkeypatch.setattr("sfcheck.verify.stage_solve", crash)
        report_path = tmp_path / "out.json"
        code = main(["verify", "--theorem", "1.2", "--r", "2", "--report", str(report_path)])
        assert code == 3
        assert f"internal error: {type(exc).__name__}" in capsys.readouterr().err
        assert not report_path.exists()

    def test_sweep_crash_exit_3(self, tmp_path, capsys, monkeypatch):
        def crash(*args, **kwargs):
            raise AssertionError("single-label witness spans both labels")

        monkeypatch.setattr("sfcheck.verify.stage_mono_clique", crash)
        assert main(["sweep", "--t-max", "3", "--report-dir", str(tmp_path)]) == 3
        assert "internal error: AssertionError" in capsys.readouterr().err

    def test_a_t11_result_below_the_claim_exit_3(self, tmp_path, capsys, monkeypatch):
        # Optima short by one vertex on every clique-view query give F(3) a
        # single-label clique of 1 against the claim's 2.  Its witness is a
        # smaller clique and refutes nothing: a solver fault, not a REFUTED
        # report that loads.
        real = solve._optimum

        def short_by_one(clusters, rows, within, flip):
            mask = real(clusters, rows, within, flip)
            return mask & (mask - 1) if flip == 0 else mask

        monkeypatch.setattr(solve, "_optimum", short_by_one)
        report_path = tmp_path / "t11_r3.json"
        clear_memos()
        try:
            code = main(["verify", "--theorem", "1.1", "--r", "3", "--report", str(report_path)])
        finally:
            clear_memos()
        assert code == 3
        assert "internal error: AssertionError: single-label clique of 1 below the claim's 2" in capsys.readouterr().err
        assert not report_path.exists()


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


@pytest.mark.parametrize("module", ["sfcheck", "sfcheck.cli"])
def test_import_loads_neither_dataclasses_nor_inspect(module):
    # The package's records are collections.namedtuple classes and its
    # annotations name collections.abc, so a cold start does not pay for
    # dataclasses or for the inspect, ast and dis modules it loads, nor for
    # typing or random.
    src = os.path.dirname(os.path.dirname(sfcheck.__file__))
    refused = {"dataclasses", "inspect", "typing", "random"}
    code = f"import sys, {module}; print(sorted({refused!r} & set(sys.modules)))"
    out = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert out.strip() == "[]"


@pytest.mark.parametrize("module", ["sfcheck", *(f"sfcheck.{m.name}" for m in pkgutil.iter_modules(sfcheck.__path__))])
def test_every_annotation_resolves(module):
    # Annotations stay strings (PEP 563), so one that names a module the
    # package does not import fails only when a tool resolves it.
    mod = importlib.import_module(module)
    defined = [v for v in vars(mod).values() if (inspect.isfunction(v) or inspect.isclass(v)) and v.__module__ == module]
    assert defined
    for obj in defined:
        typing.get_type_hints(obj)
        for member in vars(obj).values() if inspect.isclass(obj) else ():
            func = getattr(member, "__func__", getattr(member, "fget", member))  # a staticmethod, classmethod or property
            if inspect.isfunction(func):
                typing.get_type_hints(func)


def test_serial_sweep_starts_without_multiprocessing(tmp_path):
    # A sweep runs its jobs in one process, so it must not pay for loading
    # multiprocessing.
    src = os.path.dirname(os.path.dirname(sfcheck.__file__))
    code = (
        "import sys, sfcheck.cli; "
        f"sfcheck.cli.main(['sweep', '--t-max', '4', '--report-dir', {str(tmp_path)!r}]); "
        "print('multiprocessing' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        check=True,
    ).stdout.split()
    assert out[-1] == "False"
    assert len(list(tmp_path.glob("*.json"))) == 4


def test_package_names_load_lazily():
    # Each public name of the package, and each submodule it bound before
    # loading went lazy, is imported on first use; sfcheck.cli still loads
    # every module, which bench/tracer.py wraps.
    exports = {
        "graphs": "Graph complete empty path cycle complement combine product",
        "construct": "InterpretationProfile DEFAULT_PROFILE LabeledGraph build_F build_SF",
        "solve": "CliqueResult max_clique max_independent_set oracle_max_clique verify_witness",
        "verify": "check_theorem_1_1 check_theorem_1_2 confirm_R3",
        "formats": "encode_graph6 decode_graph6 encode_dimacs Graph6ParseError",
    }
    code = """if True:
        import json, sys
        loaded = lambda: sorted(m for m in sys.modules if m.startswith("sfcheck."))
        out = {}
        import sfcheck
        out["import"] = loaded()
        sfcheck.complete(3)
        out["complete"] = loaded()
        out["submodule"] = sfcheck.solve.Stack.__name__
        out["solve"] = loaded()
        try:
            sfcheck.no_such_name
        except AttributeError:
            out["unknown"] = "AttributeError"
        import sfcheck.cli
        out["cli"] = loaded()
        out["traceback"] = "traceback" in sys.modules
        exports = json.loads(sys.argv[1])
        out["same"] = {
            name: getattr(sfcheck, name) is getattr(getattr(sfcheck, module), name)
            for module, names in exports.items()
            for name in names.split()
        }
        out["all"] = sfcheck.__all__
        out["dir"] = sorted({*sfcheck.__all__, *exports} - set(dir(sfcheck)))
        print(json.dumps(out))
    """
    src = os.path.dirname(os.path.dirname(sfcheck.__file__))
    out = json.loads(
        subprocess.run(
            [sys.executable, "-S", "-c", code, json.dumps(exports)],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True,
            text=True,
            check=True,
        ).stdout
    )
    assert out["import"] == []
    assert out["complete"] == ["sfcheck.graphs"]
    assert out["submodule"] == "Stack"
    assert out["solve"] == ["sfcheck.construct", "sfcheck.graphs", "sfcheck.solve"]
    assert out["unknown"] == "AttributeError"
    modules = ["construct", "formats", "graphs", "report", "solve", "verify"]
    assert out["cli"] == ["sfcheck.cli"] + [f"sfcheck.{m}" for m in modules]
    assert out["traceback"] is False
    assert all(out["same"].values()), out["same"]
    assert out["all"] == [name for names in exports.values() for name in names.split()] + ["__version__"]
    assert out["dir"] == []
