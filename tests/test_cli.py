import json
import os
import time

import pytest

from alwabp import cli, generate_instance, heuristic, write_instance
from alwabp.cli import EXIT_ERROR, EXIT_INFEASIBLE, EXIT_OK, main, run
from conftest import FIG1_TEXT, SINGLE_TEXT

INFEASIBLE_TEXT = """\
alwabp 1
tasks 3
workers 2
times
inf 1
1 inf
inf 1
precedences
1 2
2 3
end
"""


@pytest.fixture
def fig1_path(tmp_path):
    path = tmp_path / "fig1.alwabp"
    path.write_text(FIG1_TEXT)
    return str(path)


class TestSolve:
    def test_fig1(self, fig1_path):
        code, text = run(["solve", fig1_path, "--seed", "42"])
        assert code == EXIT_OK
        assert "value 6" in text
        assert "status optimal" in text
        assert "best_bound 6" in text

    def test_deterministic_reports(self, fig1_path):
        first = run(["solve", fig1_path, "--seed", "42", "--no-timings"])
        second = run(["solve", fig1_path, "--seed", "42", "--no-timings"])
        assert first == second
        assert "elapsed" not in first[1]

    def test_json_schema(self, fig1_path):
        code, text = run(["solve", fig1_path, "--json", "--no-timings"])
        assert code == EXIT_OK
        report = json.loads(text)
        assert set(report) == {"config", "instance", "bounds", "best_bound", "result", "solution"}
        assert report["instance"] == {"tasks": 6, "workers": 3}
        assert report["result"]["value"] == 6
        assert report["result"]["status"] == "optimal"
        assert sorted(report["solution"]["worker_order"]) == [1, 2, 3]
        assert set(report["solution"]["assignment"]) == {str(t) for t in range(1, 7)}
        assert {b["name"] for b in report["bounds"]} >= {"LC1", "LC2", "LC3"}

    def test_infeasible_exit_code(self, tmp_path):
        path = tmp_path / "bad.alwabp"
        path.write_text(INFEASIBLE_TEXT)
        code, text = run(["solve", str(path)])
        assert code == EXIT_INFEASIBLE
        assert "status infeasible" in text


class TestHeur:
    def test_fig1(self, fig1_path):
        code, text = run(["heur", fig1_path, "--seed", "42"])
        assert code == EXIT_OK
        assert "value 6" in text
        assert "status feasible" in text

    def test_verbose_sweep_log(self, fig1_path):
        code, text = run(["heur", fig1_path, "--seed", "42", "--verbose", "--no-timings"])
        assert code == EXIT_OK
        sweep_lines = [l for l in text.splitlines() if l.startswith("C ")]
        assert sweep_lines
        assert all(len(l.split()) == 3 and l.split()[2] in ("feasible", "failed") for l in sweep_lines)
        _, timed = run(["heur", fig1_path, "--seed", "42", "--verbose"])
        timed_lines = [l for l in timed.splitlines() if l.startswith("C ")]
        assert [l.rsplit(" ", 1)[0] for l in timed_lines] == sweep_lines
        assert all(l.split()[3].isdigit() for l in timed_lines)


    def test_deadline_sweep_line(self, tmp_path, monkeypatch):
        path = tmp_path / "40x6.alwabp"
        edges = {(t, t + 1) for t in range(0, 39, 3)}
        inst = generate_instance([1 + t % 9 for t in range(40)], edges, 6, "low", 0.1, 4)
        path.write_text(write_instance(inst))
        beam = heuristic.beam_search_feasible

        def slow(inst, params, *, deadline=None):
            if deadline is not None:  # the deadline passes during the call
                time.sleep(max(0.0, deadline - time.monotonic()))
            return beam(inst, params, deadline=deadline)

        monkeypatch.setattr(heuristic, "beam_search_feasible", slow)
        code, text = run(["heur", str(path), "--verbose", "--no-timings", "--t-min", "0", "--t-max", ".5"])
        assert code == EXIT_OK
        sweep_lines = [l for l in text.splitlines() if l.startswith("C ")]
        assert len(sweep_lines) == 1 and sweep_lines[0].endswith(" deadline")


GOLDEN_SOLVES = [
    "demos/fig_example.alwabp",
    "tests/golden/solve_12x3_1201.alwabp",
    "tests/golden/solve_12x3_1203.alwabp",
    "tests/golden/solve_12x3_1204.alwabp",
]


def assert_matches_golden(path, argv, kind, monkeypatch, variant=""):
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    monkeypatch.chdir(root)
    name = os.path.basename(path).rsplit(".", 1)[0]
    with open(os.path.join("tests", "golden", f"{name}.{kind}{variant}.json"), encoding="ascii") as fh:
        golden = fh.read()
    code, text = run([kind, path, *argv, "--no-timings", "--json"])
    assert code == EXIT_OK
    assert text == golden


class TestGoldenSolve:
    """Committed `solve --seed 42 --no-timings --json` reports, made from the
    repository root with `alwabp solve PATH --seed 42 --no-timings --json`
    into tests/golden/<name>.solve.json. The 12x3 instances also have
    reports with --no-reduction-rules and with --no-heuristic added, in
    <name>.solve-no-reduction-rules.json and <name>.solve-no-heuristic.json:
    the search with no rules, and from no incumbent. A change to node
    counts, bounds or the solution found shows up here as a diff to
    explain."""

    @pytest.mark.parametrize("path", GOLDEN_SOLVES)
    def test_report_matches_golden(self, path, monkeypatch):
        assert_matches_golden(path, ["--seed", "42"], "solve", monkeypatch)

    @pytest.mark.parametrize("flag", ["--no-reduction-rules", "--no-heuristic"])
    @pytest.mark.parametrize("path", GOLDEN_SOLVES[1:])
    def test_search_path_matches_golden(self, path, flag, monkeypatch):
        assert_matches_golden(path, ["--seed", "42", flag], "solve", monkeypatch, "-" + flag[2:])


GOLDEN_HEURS = [
    "demos/fig_example.alwabp",
    "tests/golden/heur_30x5_3005.alwabp",
    "tests/golden/heur_40x6_4006.alwabp",
]
HEUR_WORKLOAD_FLAGS = ["--t-min", "0", "--t-max", "1e9", "--repetitions", "20", "--gamma", "10", "--beam-factor", "1"]


class TestGoldenHeur:
    """Committed `heur --seed 42 --no-timings --json` reports with the flags
    of the benchmark's heur workload, made from the repository root with
    `alwabp heur PATH --seed 42 <HEUR_WORKLOAD_FLAGS> --no-timings --json`
    into tests/golden/<name>.heur.json. The two generated instances are
    seeded like acceptance criterion 9 (base times 1-99, arc density 0.04):
    30x5 low variability, 10 % infeasible, seed 3005, and 40x6 high, 20 %,
    seed 4006. Any change to the random draws of the beam search, to how
    partials are ranked or to the interval or local search shows here."""

    @pytest.mark.parametrize("path", GOLDEN_HEURS)
    def test_report_matches_golden(self, path, monkeypatch):
        assert_matches_golden(path, ["--seed", "42", *HEUR_WORKLOAD_FLAGS], "heur", monkeypatch)


class TestBounds:
    def test_fig1_report(self, fig1_path):
        code, text = run(["bounds", fig1_path])
        assert code == EXIT_OK
        assert "LC1 5" in text
        assert "LC2 5" in text
        assert "LC3 5" in text
        for name in ("L1", "L1a", "L1a_bar", "L2", "L2_bar"):
            assert f"\n{name} " in text

    def test_runtime_lines_toggle(self, fig1_path):
        _, with_t = run(["bounds", fig1_path])
        _, without = run(["bounds", fig1_path, "--no-timings"])
        assert "LC1_elapsed_s" in with_t
        assert "elapsed" not in without


class TestExport:
    def test_writes_header(self, fig1_path, tmp_path):
        out = tmp_path / "fig1.lp"
        code, text = run(["export", fig1_path, "--model", "m3", "-o", str(out)])
        assert code == EXIT_OK
        assert out.read_text().startswith("\\ alwabp m3 6 3\n")
        assert f"wrote {out}" in text

    def test_stdout_mode(self, fig1_path):
        code, text = run(["export", fig1_path, "--model", "m2"])
        assert code == EXIT_OK
        assert text.startswith("\\ alwabp m2 6 3\n")
        assert text.rstrip().endswith("End")


class TestGen:
    def test_generates_parseable_instance(self, fig1_path, tmp_path):
        out = tmp_path / "gen.alwabp"
        code, _ = run(["gen", fig1_path, "--workers", "5", "--var", "high", "--inf", "0.1", "--seed", "3", "-o", str(out)])
        assert code == EXIT_OK
        from alwabp import parse_instance

        inst = parse_instance(out.read_text())
        assert inst.n_workers == 5
        assert [inst.times[t][0] for t in range(6)] == [4, 4, 3, 1, 1, 6]

    def test_deterministic(self, fig1_path):
        a = run(["gen", fig1_path, "--workers", "4", "--seed", "9"])
        b = run(["gen", fig1_path, "--workers", "4", "--seed", "9"])
        assert a == b


class TestOracle:
    def test_fig1(self, fig1_path):
        code, text = run(["oracle", fig1_path])
        assert code == EXIT_OK
        assert "value 6" in text

    def test_infeasible(self, tmp_path):
        path = tmp_path / "bad.alwabp"
        path.write_text(INFEASIBLE_TEXT)
        code, text = run(["oracle", str(path)])
        assert code == EXIT_INFEASIBLE
        assert "status infeasible" in text


class TestGlob:
    def test_multiple_files(self, tmp_path):
        (tmp_path / "a.alwabp").write_text(SINGLE_TEXT)
        (tmp_path / "b.alwabp").write_text(FIG1_TEXT)
        code, text = run(["bounds", "--glob", str(tmp_path / "*.alwabp")])
        assert code == EXIT_OK
        assert f"file {tmp_path / 'a.alwabp'}" in text
        assert f"file {tmp_path / 'b.alwabp'}" in text

    def test_glob_and_path_conflict(self, fig1_path):
        assert main(["bounds", fig1_path, "--glob", "*"]) == EXIT_ERROR


class TestErrors:
    def test_unknown_flag(self, capsys):
        assert main(["solve", "x", "--bogus"]) == EXIT_ERROR
        assert capsys.readouterr().err.startswith("alwabp:")

    def test_flag_of_another_subcommand(self, fig1_path, capsys):
        # oracle has no time limit, so the flag is refused, not ignored
        assert main(["oracle", fig1_path, "--time-limit", "5"]) == EXIT_ERROR
        assert "--time-limit" in capsys.readouterr().err

    def test_unreadable_file(self, capsys):
        assert main(["solve", "/nonexistent/path.alwabp"]) == EXIT_ERROR
        assert "cannot read" in capsys.readouterr().err

    def test_malformed_instance(self, tmp_path, capsys):
        path = tmp_path / "broken.alwabp"
        path.write_text("alwabp 2\n")
        assert main(["bounds", str(path)]) == EXIT_ERROR
        assert "alwabp 1" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["# station \u00e9\n", "tasks \u0666\n"])
    def test_non_ascii_byte_is_an_input_error(self, tmp_path, capsys, line):
        path = tmp_path / "utf8.alwabp"
        path.write_bytes((line + FIG1_TEXT).encode("utf-8"))
        assert main(["bounds", str(path)]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("alwabp: cannot read") and "non-ASCII byte at offset" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "command, flags",
        [
            ("bounds", ["--l1-iters", "0"]),
            ("solve", ["--l1-iters", "0"]),
            ("bounds", ["--l2-iters", "0"]),
            ("solve", ["--l2-iters", "-3"]),
            ("heur", ["--gamma", "0"]),
            ("heur", ["--beam-factor", "0"]),
            ("heur", ["--repetitions", "0"]),
            ("heur", ["--interval-factor", "2"]),
            ("heur", ["--interval-factor", "nan"]),
            ("heur", ["--seed", "-1"]),
            ("solve", ["--time-limit", "nan"]),
            ("heur", ["--time-limit", "-1"]),
            ("heur", ["--t-max", "nan"]),
            ("heur", ["--t-min", "nan"]),  # the sweep loop never ended
            ("gen", ["--workers", "0"]),
            ("gen", ["--workers", "2", "--inf", "1.5"]),
        ],
    )
    def test_out_of_range_number_is_a_usage_error(self, fig1_path, capsys, command, flags):
        assert main([command, fig1_path, *flags]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith(f"alwabp: argument {flags[-2]}: must be ")
        assert err.count("\n") == 1

    def test_non_number_is_a_usage_error(self, fig1_path, capsys):
        assert main(["heur", fig1_path, "--gamma", "x"]) == EXIT_ERROR
        assert capsys.readouterr().err == "alwabp: argument --gamma: invalid int value: 'x'\n"

    def test_range_ends_accepted(self, fig1_path):
        for argv in (
            ["bounds", fig1_path, "--l1-iters", "1", "--l2-iters", "1"],
            ["heur", fig1_path, "--gamma", "1", "--repetitions", "1", "--interval-factor", "0.5", "--seed", "0"],
            ["heur", fig1_path, "--t-min", "0", "--t-max", "inf", "--time-limit", "0"],
            ["gen", fig1_path, "--workers", "1", "--inf", "0"],
        ):
            assert run(argv)[0] == EXIT_OK

    def test_missing_instance_argument(self):
        assert main(["bounds"]) == EXIT_ERROR

    def test_unknown_subcommand(self):
        assert main(["frobnicate"]) == EXIT_ERROR

    def test_main_prints_report(self, fig1_path, capsys):
        assert main(["oracle", fig1_path]) == EXIT_OK
        assert "value 6" in capsys.readouterr().out


class TestParserReuse:
    def test_outputs_match_fresh_parser(self, fig1_path, capsys, monkeypatch):
        # one parser serves every call in a process; a rejected command
        # between two good ones leaves it as a freshly built one would be
        commands = (
            ["solve", fig1_path, "--no-timings"],
            ["oracle", fig1_path, "--time-limit", "5"],
            ["bounds", fig1_path, "--no-timings"],
        )

        def outputs():
            got = []
            for argv in commands:
                code = main(argv)
                captured = capsys.readouterr()
                got.append((code, captured.out, captured.err))
            return got

        assert cli._build_parser() is cli._build_parser()
        reused = outputs()
        assert [code for code, _, _ in reused] == [EXIT_OK, EXIT_ERROR, EXIT_OK]
        monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
        assert outputs() == reused

    def test_usage_error_on_every_call(self, fig1_path):
        for _ in range(3):
            with pytest.raises(cli._UsageError):
                run(["oracle", fig1_path, "--time-limit", "5"])
