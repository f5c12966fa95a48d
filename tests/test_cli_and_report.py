"""Tests for the CLI and the campaign report generator."""

import pytest

from repro.__main__ import main
from repro.harness import reporting

#: (command, the flag argparse names) — each value is out of range.
BAD_NUMBERS = [
    ("run bp cd --cycles 0", "--cycles"),
    ("run bp cd --cycles -3", "--cycles"),
    ("run bp cd --phase-interval 0", "--phase-interval"),
    ("run bp cd --trace t.json --issue-sample 0", "--issue-sample"),
    ("run bp cd --trace t.json --mem-sample -1", "--mem-sample"),
    ("campaign bp,cd --schemes even --phase-interval -5 --workers 1",
     "--phase-interval"),
    ("campaign bp,cd --schemes even --phase-interval -5 --workers 1 "
     "--retries 1", "--phase-interval"),
    ("campaign bp,cd --schemes even --workers 0", "--workers"),
    ("campaign bp,cd --schemes even --workers two", "--workers"),
    ("campaign bp,cd --schemes even --retries -1", "--retries"),
    ("campaign bp,cd --schemes even --timeout 0", "--timeout"),
    ("campaign bp,cd --schemes even --timeout -2", "--timeout"),
    ("campaign bp,cd --schemes even --timeout nan", "--timeout"),
    # An infinite timeout overflowed the dispatcher's wait.
    ("campaign bp,cd --schemes even --timeout inf --workers 2",
     "--timeout"),
    ("campaign bp,cd --schemes even --retries 1 --backoff -1",
     "--backoff"),
    # A negative threshold printed "--1%" and failed every check; NaN
    # passed every check.
    ("compare a b --check --threshold -1", "--threshold"),
    ("compare a b --check --threshold nan", "--threshold"),
    # An infinite threshold passed every check.
    ("compare a b --check --threshold inf", "--threshold"),
]


class TestReport:
    def test_build_report_contains_sections(self, quick_report):
        text, _verdicts = quick_report
        assert "# Reproduction campaign report" in text
        assert "Table 2" in text
        assert "sweet spot" in text
        assert "hardware overhead" in text

    def test_write_report_round_trip(self, tmp_path, monkeypatch,
                                     quick_report):
        text, _verdicts = quick_report
        calls = []

        def build_report(runner, include_sweeps):
            calls.append((runner, include_sweeps))
            return text

        monkeypatch.setattr(reporting, "build_report", build_report)
        path = tmp_path / "report.md"
        runner = object()
        assert reporting.write_report(str(path), runner,
                                      include_sweeps=False) == text
        assert path.read_text() == text
        assert calls == [(runner, False)]


class TestCLI:
    def test_schemes_listing(self, capsys):
        assert main(["schemes"]) == 0
        out = capsys.readouterr().out
        assert "ws-dmil" in out and "smk-p+w" in out

    def test_run_command(self, capsys):
        assert main(["run", "pf", "bp", "--scheme", "even",
                     "--cycles", "1200"]) == 0
        out = capsys.readouterr().out
        assert "weighted speedup" in out
        assert "pf+bp" in out

    def test_run_with_obs_appends_stall_breakdown(self, capsys):
        assert main(["run", "pf", "bp", "--scheme", "even",
                     "--cycles", "1200", "--obs"]) == 0
        out = capsys.readouterr().out
        assert "scheduler issue-slot breakdown" in out
        assert "issued=" in out

    def test_stalls_command(self, capsys):
        """``run --obs`` is the one spelling of the per-kernel stall
        breakdown."""
        assert main(["run", "st", "sv", "--scheme", "even",
                     "--cycles", "1200", "--obs"]) == 0
        out = capsys.readouterr().out
        assert "scheduler issue-slot breakdown" in out
        assert "st#0" in out and "sv#1" in out

    def test_stalls_rejects_dws(self, capsys):
        assert main(["run", "st", "sv", "--scheme", "dws",
                     "--cycles", "600", "--obs"]) == 2
        assert "dynamic Warped-Slicer" in capsys.readouterr().err

    def test_trace_command_writes_chrome_json(self, tmp_path, capsys):
        """``run --trace`` is the one spelling of the Chrome trace
        export."""
        import json
        out_path = tmp_path / "trace.json"
        assert main(["run", "st", "sv", "--scheme", "even",
                     "--cycles", "1200", "--trace", str(out_path)]) == 0
        assert "trace written" in capsys.readouterr().out
        obj = json.loads(out_path.read_text())
        assert obj["traceEvents"]
        assert {"ph", "name", "pid"} <= set(obj["traceEvents"][0])

    @pytest.mark.parametrize("extra", [[], ["--retries", "0"]],
                             ids=["plain", "retries0"])
    def test_campaign_failing_cell(self, tmp_path, capsys, extra):
        """A failing cell is one failure type at the CLI: under the
        plain policy it ends the campaign with ``error:`` and exit 1
        (no raw traceback escaping main); under a resilience policy it
        is quarantined and the campaign keeps its exit 0.  (The cell
        fails on what only the mix can tell — one SMIL limit for two
        kernels; a misspelt name never becomes a cell, see below.)"""
        code = main(["campaign", "bp,cd", "--schemes", "ws-smil:3",
                     "--workers", "1", "--cache", str(tmp_path)] + extra)
        captured = capsys.readouterr()
        if extra:
            assert code == 0
            assert "quarantined: mix ws-smil:3 bp+cd (error:ValueError)" \
                in captured.err
        else:
            assert code == 1
            assert captured.err.startswith(
                "error: job 'mix ws-smil:3 bp+cd' failed with ValueError")
            assert "one SMIL limit per kernel required" in captured.err
            assert "ws-smil:3" not in captured.out

    @pytest.mark.parametrize("command", [
        "run bp zz",
        "run bp cd --scheme nope",
        "run bp cd --scheme smk-x --trace trace.json",
        "campaign bp,zz --schemes ws --cache c",
        "campaign bp,cd --schemes ws,nope --cache c",
        "campaign bp,zz --schemes ws --cache c --retries 1",
        "campaign bp,cd --schemes ws,nope --cache c --retries 1 "
        "--artifacts arts",
    ])
    def test_unknown_names_exit_2_before_any_work(self, command, tmp_path,
                                                  monkeypatch, capsys):
        """A misspelt kernel or scheme is a usage error on every
        simulating command: one ``error:`` line naming the known
        values, exit 2, and nothing simulated, retried, quarantined or
        written (no cache dir, journal, artifact or trace file)."""
        known = "known: 3m, ax, bp" if "zz" in command else "known: spatial"
        monkeypatch.chdir(tmp_path)
        assert main(command.split()) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: unknown ")
        assert captured.err.count("\n") == 1
        assert known in captured.err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("schemes", [",", " , ,"])
    def test_campaign_without_a_scheme_exits_2_before_any_work(
            self, schemes, tmp_path, monkeypatch, capsys):
        """A ``--schemes`` list with no name in it is a usage error, not
        a campaign that simulates its isolated runs and prints an empty
        table."""
        monkeypatch.chdir(tmp_path)
        assert main(["campaign", "bp,cd", "--schemes", schemes,
                     "--cache", "c"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: --schemes {schemes!r} names no "
                                "scheme\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("mixes", [["bp"], ["bp,cd", "st,"]],
                             ids=" ".join)
    def test_campaign_with_a_one_kernel_mix_exits_2_before_any_work(
            self, mixes, tmp_path, monkeypatch, capsys):
        """A mix of one kernel is a usage error like any other: one
        ``error:`` line, exit 2, and no cache dir."""
        monkeypatch.chdir(tmp_path)
        assert main(["campaign", *mixes, "--schemes", "ws",
                     "--cache", "c"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: mix {mixes[-1]!r} needs at least "
                                "two kernels\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("plan", [
        None, "{not json", '{"version": 2, "faults": []}',
        '{"version": 1, "faults": [{"kind": "kill"}]}'],
        ids=["missing", "unparsable", "wrong-version", "malformed"])
    def test_bad_fault_plan_exits_2_before_any_work(self, plan, tmp_path,
                                                    monkeypatch, capsys):
        """A fault plan that cannot be loaded is a usage error: one
        ``error:`` line, exit 2, before any runner, cache dir or journal
        exists — not a traceback after the journal dir is made."""
        monkeypatch.chdir(tmp_path)
        if plan is not None:
            (tmp_path / "plan.json").write_text(plan)
        assert main(["campaign", "st,sv", "--schemes", "ws",
                     "--fault-plan", "plan.json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: --fault-plan plan.json: ")
        assert captured.err.count("\n") == 1
        assert [p.name for p in tmp_path.iterdir()] \
            == ([] if plan is None else ["plan.json"])

    def test_bad_fault_plan_on_a_journaled_resume_exits_2(
            self, tmp_path, monkeypatch, capsys):
        """...also when every cell is journaled and nothing would run:
        the flag is read, not skipped."""
        monkeypatch.chdir(tmp_path)
        argv = ["campaign", "st,sv", "--schemes", "ws", "--workers", "1",
                "--cache", "c"]
        assert main(argv + ["--retries", "1"]) == 0
        capsys.readouterr()
        assert main(argv + ["--resume", "--fault-plan", "missing.json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: --fault-plan missing.json: ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("value", ["two", "0"])
    def test_campaign_rejects_bad_worker_env(self, value, tmp_path,
                                             monkeypatch, capsys):
        """A malformed ``$REPRO_BENCH_WORKERS`` is a usage error too,
        not a silent fall-back to every CPU (or a clamp to 1)."""
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("REPRO_BENCH_WORKERS", value)
        assert main(["campaign", "bp,cd", "--schemes", "ws",
                     "--cache", "c"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: REPRO_BENCH_WORKERS must be a "
                                f"positive integer, got {value!r}\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command,flag", BAD_NUMBERS,
                             ids=[command for command, _ in BAD_NUMBERS])
    def test_bad_numbers_exit_2_before_any_work(self, command, flag,
                                                tmp_path, monkeypatch,
                                                capsys):
        """A numeric flag outside its range is a usage error, not a
        silent default budget (``--cycles 0``), an in-process clamp
        (``--workers 0``), a disabled deadline (``--timeout 0``) or a
        cell fault retried and quarantined (``--phase-interval -5``):
        argparse names the flag and exits 2 before any runner, job,
        cache dir or journal exists."""
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(command.split())
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: argument {flag}: expected " in captured.err
        assert list(tmp_path.iterdir()) == []

    def test_cli_import_does_not_load_concurrent_futures(self):
        """The one dispatcher manages its own processes; nothing on the
        CLI's import path may pull the executor framework back in."""
        import os
        import subprocess
        import sys

        import repro
        src = os.path.dirname(os.path.dirname(repro.__file__))
        probe = ("import sys, repro.__main__, repro.harness.runner, "
                 "repro.harness.resilience; "
                 "sys.exit('concurrent.futures' in sys.modules)")
        done = subprocess.run([sys.executable, "-c", probe],
                              env=dict(os.environ, PYTHONPATH=src))
        assert done.returncode == 0

    def test_non_simulating_subcommands_never_load_the_simulator(self):
        """``repro.__main__`` imports per subcommand: lint, dash,
        compare and schemes finish (one fresh interpreter, in-process
        ``main`` calls) with neither ``repro.sim`` nor ``repro.mem``
        loaded."""
        import os
        import subprocess
        import sys
        import tempfile

        import repro
        src = os.path.dirname(os.path.dirname(repro.__file__))
        golden = os.path.join(os.path.dirname(__file__), "golden_artifacts")
        probe = f"""
import os, sys
from repro.__main__ import main
out = os.path.join(sys.argv[1], "dash.html")
codes = [
    main(["schemes"]),
    main(["lint", "--list-rules"]),
    main(["lint", "src/repro/obs/stalls.py", "--root", {os.path.dirname(src)!r}]),
    main(["dash", {golden!r}, out]),
    main(["compare", {golden!r}, {golden!r}, "--check"]),
]
loaded = sorted(m for m in sys.modules
                if m.startswith(("repro.sim", "repro.mem")))
assert codes == [0] * 5 and os.path.getsize(out) > 0, codes
assert not loaded, loaded
"""
        with tempfile.TemporaryDirectory() as tmp:
            done = subprocess.run(
                [sys.executable, "-c", probe, tmp], capture_output=True,
                text=True, env=dict(os.environ, PYTHONPATH=src))
        assert done.returncode == 0, done.stderr

    def test_journaled_resume_never_loads_the_cycle_model(self, tmp_path):
        """A ``campaign --resume`` whose every cell is journaled prints
        the cold run's table byte for byte from a fresh interpreter
        that never loaded the simulator's engine, SMs, LSU, memory
        hierarchy, trace compiler or dynamic Warped-Slicer, nor
        ``hashlib``."""
        import os
        import subprocess
        import sys

        import repro
        env = dict(os.environ,
                   PYTHONPATH=os.path.dirname(os.path.dirname(repro.__file__)))
        argv = ["campaign", "st,sv", "--schemes", "ws", "--workers", "1",
                "--cache", str(tmp_path / "cache")]
        cold = subprocess.run(
            [sys.executable, "-m", "repro", *argv, "--retries", "1"],
            capture_output=True, text=True, env=env)
        assert cold.returncode == 0, cold.stderr
        probe = f"""
import contextlib, io, sys
from repro.__main__ import main
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = main({argv + ["--resume"]!r})
assert code == 0, code
assert out.getvalue() == sys.argv[1], out.getvalue()
heavy = ["repro.sim." + m for m in ("engine", "sm", "scheduler", "lsu", "warp")]
heavy += ["repro.mem." + m for m in ("subsystem", "dram", "interconnect", "cache")]
heavy += ["repro.workloads.trace", "repro.cke.dynamic_ws"]
heavy += ["hashlib", "_hashlib"]
loaded = [m for m in heavy if m in sys.modules]
assert not loaded, loaded
"""
        done = subprocess.run(
            [sys.executable, "-c", probe, cold.stdout], capture_output=True,
            text=True, env=env)
        assert done.returncode == 0, done.stderr
        assert "resumed from journal" in done.stderr

    def test_unobserved_resume_replays_observed_cells(self, tmp_path):
        """A journal written with ``--artifacts`` (observed cells)
        resumed without it replays every cell: the cold run's table,
        nothing simulated, the cycle model never loaded."""
        import os
        import subprocess
        import sys

        import repro
        env = dict(os.environ,
                   PYTHONPATH=os.path.dirname(os.path.dirname(repro.__file__)))
        argv = ["campaign", "bp,cd", "st,sv", "--schemes", "ws,ws-dmil",
                "--workers", "1", "--retries", "1",
                "--cache", str(tmp_path / "cache")]
        cold = subprocess.run(
            [sys.executable, "-m", "repro", *argv,
             "--artifacts", str(tmp_path / "artifacts")],
            capture_output=True, text=True, env=env)
        assert cold.returncode == 0, cold.stderr
        # The observed cells' merged stall report follows the table.
        table, report = cold.stdout.split("\n\n", 1)
        assert report.startswith("stall attribution merged over 4 cells")
        probe = f"""
import contextlib, io, sys
from repro.__main__ import main
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = main({argv + ["--resume"]!r})
assert code == 0, code
assert out.getvalue() == sys.argv[1], out.getvalue()
loaded = [m for m in ("repro.sim.engine", "repro.workloads.trace")
          if m in sys.modules]
assert not loaded, loaded
"""
        done = subprocess.run(
            [sys.executable, "-c", probe, table + "\n"],
            capture_output=True, text=True, env=env)
        assert done.returncode == 0, done.stderr
        assert "resilience: 32 cells, 4 resumed from journal" in done.stderr

    def test_cold_campaign_never_loads_hashlib(self, tmp_path):
        """A cold resilient campaign digests through ``repro._digest``
        only: iso-cache names, journal fingerprints and ledger config
        fingerprints all leave ``hashlib`` (and with it OpenSSL)
        unloaded in a fresh interpreter.  Compiled traces stay in
        process memory: the cache dir holds no trace directory."""
        import os
        import subprocess
        import sys

        import repro
        env = dict(os.environ,
                   PYTHONPATH=os.path.dirname(os.path.dirname(repro.__file__)))
        cache, artifacts = tmp_path / "cache", tmp_path / "artifacts"
        argv = ["campaign", "st,sv", "--schemes", "ws", "--workers", "1",
                "--retries", "1", "--cache", str(cache),
                "--artifacts", str(artifacts)]
        probe = f"""
import sys
from repro.__main__ import main
assert main({argv!r}) == 0
loaded = [m for m in ("hashlib", "_hashlib") if m in sys.modules]
assert not loaded, loaded
assert "repro._digest" in sys.modules
"""
        done = subprocess.run([sys.executable, "-c", probe],
                              capture_output=True, text=True, env=env)
        assert done.returncode == 0, done.stderr
        assert list(cache.glob("iso-*.json"))
        assert [p.name for p in cache.iterdir() if p.is_dir()] == ["journal"]
        assert list(cache.glob("journal/campaign-*.jsonl"))
        assert (artifacts / "ledger.json").exists()

    def test_unknown_benchmark_raises(self, capsys):
        """...a usage error, no longer a ``KeyError`` traceback: the
        first kernel of ``run`` (the sweep above has the second)."""
        assert main(["run", "nope", "bp"]) == 2
        assert "error: unknown benchmark 'nope'; known: 3m, ax, bp" \
            in capsys.readouterr().err

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    @pytest.mark.parametrize("command", ["stalls st sv",
                                         "trace st sv t.json"])
    def test_observed_runs_have_one_spelling(self, command, capsys):
        """The stall breakdown and the Chrome trace are ``run --obs``
        and ``run --trace``; no subcommand spells them twice."""
        with pytest.raises(SystemExit) as exc:
            main(command.split())
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

