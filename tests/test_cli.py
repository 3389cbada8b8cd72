import contextlib
import io
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tropidom
from tropidom import (
    ApproxResult,
    SolveResult,
    approx,
    build,
    exact,
    gamma_t,
    interval,
    parse_instance,
    path_intervals,
    path_order,
    write_instance,
)
from tropidom.cli import EXIT_BUDGET, EXIT_INPUT, EXIT_INTERNAL, EXIT_OK, main
from tropidom.exact import RainbowResult

P3 = "p tdgs 3 2 2\nv 1 1\nv 2 2\nv 3 1\ne 1 2\ne 2 3\n"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def usage_error(capsys, *argv):
    """stderr of argv, which must exit 1 with a usage line and no stdout."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    out = capsys.readouterr()
    assert exc.value.code == EXIT_INPUT and out.out == ""
    assert out.err.startswith("usage: tropidom ")
    return out.err


@pytest.fixture
def p3_file(tmp_path):
    path = tmp_path / "p3.tdgs"
    path.write_text(P3)
    return str(path)


class TestSolve:
    def test_exact_p3(self, capsys, p3_file):
        code, out, _ = run(capsys, "solve", "--algo", "exact", "--input", p3_file)
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["result"]["value"] == 2
        assert report["instance"] == {"n": 3, "m": 2, "c": 2, "delta": 1, "bigDelta": 2}

    def test_all_algos_agree_on_path(self, capsys, tmp_path):
        path = tmp_path / "p.tdgs"
        g = build(5, [(i, i + 1) for i in range(1, 5)], [1, 2, 1, 2, 1])
        from tropidom.interval import path_intervals

        path.write_text(write_instance(g, intervals=path_intervals(5)))
        values = {}
        for algo in ("exact", "greedy", "path53", "interval"):
            code, out, _ = run(capsys, "solve", "--algo", algo, "--input", str(path))
            assert code == EXIT_OK
            values[algo] = json.loads(out)["result"]["value"]
        assert values["exact"] == values["interval"] == gamma_t(g).value
        assert values["greedy"] >= values["exact"]
        assert values["path53"] >= values["exact"]

    def test_rainbow(self, capsys, p3_file):
        code, out, _ = run(capsys, "solve", "--algo", "exact-rainbow", "--input", p3_file)
        assert code == EXIT_OK
        assert json.loads(out)["result"]["exists"] is True

    def test_interval_without_representation(self, capsys, tmp_path):
        # a triangle is an interval graph, but it is no path and its file has
        # no 'i' lines
        path = tmp_path / "k3.tdgs"
        path.write_text(write_instance(build(3, [(1, 2), (1, 3), (2, 3)], [1, 2, 1])))
        code, out, err = run(capsys, "solve", "--algo", "interval", "--input", str(path))
        assert code == EXIT_INPUT and out == ""
        assert err == "error: no interval representation given, and the graph is not a path\n"

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "solve", "--algo", "exact", "--input", "/nonexistent")
        assert code == EXIT_INPUT and err

    def test_budget_exit_code(self, capsys, tmp_path):
        edges = [(i, i + 1) for i in range(1, 12)] + [(1, 12)]
        g = build(12, edges, [(i % 3) + 1 for i in range(12)])
        f = tmp_path / "g.tdgs"
        f.write_text(write_instance(g))
        code, _, err = run(
            capsys, "solve", "--algo", "exact", "--input", str(f), "--budget", "1"
        )
        assert code == EXIT_BUDGET and err

    def test_invalid_witness_is_an_internal_error(self, capsys, p3_file, monkeypatch):
        # {1} does not dominate P3, so the self-check gate must refuse it
        monkeypatch.setattr(
            exact, "gamma_t", lambda g, budget: SolveResult(1, frozenset({1}), 0)
        )
        code, out, err = run(capsys, "solve", "--algo", "exact", "--input", p3_file)
        assert code == EXIT_INTERNAL
        assert out == "" and err.startswith("internal error: ") and "Traceback" not in err

    @pytest.mark.parametrize("algo, module, name, result", [
        # {1, 2} dominates P3 and shows both colours, but is reported as size 3
        ("exact", exact, "gamma_t", lambda g, budget: SolveResult(3, frozenset({1, 2}), 0)),
        ("interval", interval, "tdn_interval", lambda inst: SolveResult(3, frozenset({1, 2}), 0)),
        ("greedy", approx, "greedy_setcover_tds", lambda g: ApproxResult(frozenset({1, 2}), 1, 1, None)),
        ("path53", approx, "path_five_thirds", lambda g: ApproxResult(frozenset({1, 2}), 3, 1, None)),
        # {1, 2, 3} is tropical and dominating but has two vertices of colour 1
        ("exact-rainbow", exact, "rainbow_exists", lambda g, budget: RainbowResult(True, frozenset({1, 2, 3}), 1)),
    ])
    def test_corrupt_witness_is_an_internal_error(self, capsys, p3_file, monkeypatch, algo, module, name, result):
        monkeypatch.setattr(module, name, result)
        code, out, err = run(capsys, "solve", "--algo", algo, "--input", p3_file)
        assert code == EXIT_INTERNAL
        assert out == "" and err.startswith("internal error: ") and "Traceback" not in err

    def test_timing_flag(self, capsys, p3_file):
        _, out_plain, _ = run(capsys, "solve", "--algo", "exact", "--input", p3_file)
        _, out_timed, _ = run(
            capsys, "solve", "--algo", "exact", "--input", p3_file, "--timing"
        )
        assert "wall_ms" not in json.loads(out_plain)
        assert "wall_ms" in json.loads(out_timed)


class TestUsageErrors:
    @pytest.mark.parametrize("argv", [
        ["solve", "--algo", "nope", "--input", "x"],
        ["experiment", "threshold", "-n", "14", "-p", "0.5", "--trials", "5",
         "--seed", "3", "--jobs", "2"],
        ["solve", "--input", "x"],
        ["solve", "--algo", "exact", "--input", "x", "--budget", "0"],
        ["solve", "--algo", "exact", "--input", "x", "--budget", "-5"],
        ["experiment", "threshold", "-n", "14", "-p", "0.5", "--trials", "0", "--seed", "3"],
        ["experiment", "threshold", "-n", "14", "-p", "0.5", "--trials", "-3", "--seed", "3"],
        [],
        ["experiment", "threshold", "-n", "12", "-p", "0.5", "-c", "0", "--trials", "2", "--seed", "1"],
    ])
    def test_usage_error_exits_with_input_code(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        out = capsys.readouterr()
        assert exc.value.code == EXIT_INPUT
        assert out.out == "" and "usage: tropidom" in out.err and "error:" in out.err

    @pytest.mark.parametrize("argv, flag", [
        (["gen", "gnpc", "-p", "0.5", "-c", "2", "--seed", "1", "--out", "x"], "-n"),
        (["gen", "extremal-gamma", "-c", "2", "--out", "x"], "--gamma"),
        (["gen", "extremal-edges", "-n", "8", "-c", "2", "--out", "x"], "-k"),
        (["gen", "sat", "--out", "x"], "--cnf"),
        (["gen", "vc", "--out", "x"], "--edges"),
        (["gen", "pad", "--input", "x", "--out", "x"], "--epsilon"),
        (["experiment", "expectation", "-n", "10", "-p", "0.5", "--trials", "2",
          "--seed", "1"], "-c"),
    ])
    def test_missing_option_is_named(self, capsys, tmp_path, monkeypatch, argv, flag):
        monkeypatch.chdir(tmp_path)
        err = usage_error(capsys, *argv)
        assert err.startswith(f"usage: tropidom {argv[0]} {argv[1]} ")
        assert err.endswith(f"error: the following arguments are required: {flag}\n")
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("argv, message", [
        (["gen", "extremal-gamma", "--gamma", "2", "-c", "2", "-n", "9", "--out", "x"],
         "unrecognized arguments: -n 9"),
        (["experiment", "concentration", "-n", "20", "-p", "0.5", "--trials", "2", "--seed", "1",
          "-c", "7"], "unrecognized arguments: -c 7"),
        (["audit", "--input", "f", "--corpus", "d"],
         "argument --corpus: not allowed with argument --input"),
    ])
    def test_foreign_option_is_refused(self, capsys, tmp_path, monkeypatch, argv, message):
        # an option that another generator, experiment or source reads
        monkeypatch.chdir(tmp_path)
        err = usage_error(capsys, *argv)
        assert err.endswith(f"error: {message}\n")
        # the command that refused it gives the usage line and the error line
        prog = " ".join(["tropidom", *itertools.takewhile(lambda a: not a.startswith("-"), argv)])
        assert err.startswith(f"usage: {prog} ") and err.endswith(f"\n{prog}: error: {message}\n")
        assert not (tmp_path / "x").exists()

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--help"])
        assert exc.value.code == EXIT_OK
        assert "usage: tropidom solve" in capsys.readouterr().out


class TestGen:
    def test_gnpc_deterministic(self, capsys, tmp_path):
        files = []
        out = tmp_path / "a.tdgs"
        for _ in range(2):
            code, stdout, _ = run(
                capsys, "gen", "gnpc", "-n", "10", "-p", "0.5", "-c", "3",
                "--seed", "7", "--out", str(out),
            )
            assert code == EXIT_OK
            files.append((out.read_bytes(), stdout))
        assert files[0] == files[1]

    def test_gnpc_requires_seed(self, capsys, tmp_path):
        err = usage_error(
            capsys, "gen", "gnpc", "-n", "5", "-p", "0.5", "-c", "2",
            "--out", str(tmp_path / "x"),
        )
        assert err.endswith("error: the following arguments are required: --seed\n")
        assert not (tmp_path / "x").exists()

    def test_extremal_generators(self, capsys, tmp_path):
        out = tmp_path / "eg"
        code, _, _ = run(capsys, "gen", "extremal-gamma", "--gamma", "2", "-c", "2", "--out", str(out))
        assert code == EXIT_OK
        assert parse_instance(out.read_text()).graph.n == 7
        code, _, _ = run(capsys, "gen", "extremal-edges", "-n", "8", "-k", "4", "-c", "2", "--out", str(out))
        assert code == EXIT_OK
        assert parse_instance(out.read_text()).graph.m == 14

    def test_sat_cnf_error_names_its_line(self, capsys, tmp_path):
        # SATLIB files end with a "%" line
        cnf = tmp_path / "f.cnf"
        cnf.write_text("p cnf 2 1\n1 -2 2 0\n%\n0\n")
        out = tmp_path / "sat.tdgs"
        code, stdout, err = run(capsys, "gen", "sat", "--cnf", str(cnf), "--out", str(out))
        assert (code, stdout) == (EXIT_INPUT, "")
        assert err == "error: line 3: clause line has a non-integer field\n"
        assert not out.exists()

    def test_sat_and_vc_and_pad(self, capsys, tmp_path):
        cnf = tmp_path / "f.cnf"
        cnf.write_text("p cnf 2 1\n1 -2 2 0\n")
        out = tmp_path / "sat.tdgs"
        code, _, _ = run(capsys, "gen", "sat", "--cnf", str(cnf), "--out", str(out))
        assert code == EXIT_OK
        inst = parse_instance(out.read_text())
        assert inst.legend  # reduction emits its colour legend

        edges = tmp_path / "g.edges"
        edges.write_text("1 2\n2 3\n")
        vout = tmp_path / "vc.tdgs"
        code, _, _ = run(capsys, "gen", "vc", "--edges", str(edges), "--out", str(vout))
        assert code == EXIT_OK
        assert parse_instance(vout.read_text()).graph.n == 9 * 3 + 3

        pout = tmp_path / "pad.tdgs"
        code, _, _ = run(
            capsys, "gen", "pad", "--input", str(vout), "--epsilon", "0.9",
            "--out", str(pout),
        )
        assert code == EXIT_OK
        assert parse_instance(pout.read_text()).graph.n > 9 * 3 + 3

        # tails of 2^500, 2^50 and 2^(5 * 10^300) vertices, refused before
        # anything is built, with the exponent in a few digits
        for epsilon, bits in (("0.01", "500"), ("0.1", "50"), ("1e-300", "5e+300")):
            code, out, err = run(
                capsys, "gen", "pad", "--input", str(vout), "--epsilon", epsilon,
                "--out", str(pout),
            )
            assert code == EXIT_INPUT and out == ""
            assert err.startswith(
                f"error: epsilon={epsilon} needs a tail of N = ceil(32^(1/epsilon)) ~ 2^{bits} vertices,"
            )

    @pytest.mark.parametrize("text, message", [
        ("", "need at least one edge"),
        ("# no edges\n\n", "need at least one edge"),
        ("1 2\n2 3 4\n", "line 2: edge line needs 2 fields, got 3"),
        ("1 2\n# c\n2 x\n", "line 3: edge line has a non-integer field"),
        # n is the largest endpoint, far beyond what a degree table could hold
        ("1 99999999999999999999999\n", "isolated vertex present"),
    ])
    def test_vc_edge_list_errors(self, capsys, tmp_path, text, message):
        edges = tmp_path / "g.edges"
        edges.write_text(text)
        out = tmp_path / "vc.tdgs"
        code, stdout, err = run(capsys, "gen", "vc", "--edges", str(edges), "--out", str(out))
        assert code == EXIT_INPUT and stdout == ""
        assert err == f"error: {message}\n"
        assert not out.exists()

    def test_path_intervals_round_trip(self, capsys, tmp_path):
        # the bare path solves as if its file carried path_intervals laid
        # along path_order
        cnf = tmp_path / "f.cnf"
        cnf.write_text("p cnf 2 1\n1 -2 2 0\n")
        out = tmp_path / "sat.tdgs"
        code, _, _ = run(capsys, "gen", "sat", "--cnf", str(cnf), "--out", str(out))
        assert code == EXIT_OK
        inst = parse_instance(out.read_text())
        assert inst.intervals is None
        code, stdout, _ = run(capsys, "solve", "--algo", "interval", "--input", str(out))
        assert code == EXIT_OK
        assert json.loads(stdout)["result"]["value"] == gamma_t(inst.graph).value

        g = inst.graph
        canon = path_intervals(g.n)
        laid = {v: canon[i] for i, v in enumerate(path_order(g), 1)}
        with_intervals = tmp_path / "sat_i.tdgs"
        with_intervals.write_text(write_instance(g, intervals=laid, legend=inst.legend))
        code, stdout_i, _ = run(
            capsys, "solve", "--algo", "interval", "--input", str(with_intervals)
        )
        assert code == EXIT_OK and stdout_i == stdout


class TestAudit:
    def test_single_file(self, capsys, p3_file):
        code, out, _ = run(capsys, "audit", "--input", p3_file)
        assert code == EXIT_OK
        report = json.loads(out)["reports"][0]
        assert report["violations"] == []
        assert report["gamma_t"] == 2

    def test_corpus_dir(self, capsys, tmp_path, p3_file):
        d = tmp_path / "corpus"
        d.mkdir()
        for i in range(3):
            (d / f"{i}.tdgs").write_text(P3)
        code, out, _ = run(capsys, "audit", "--corpus", str(d))
        assert code == EXIT_OK
        assert len(json.loads(out)["reports"]) == 3

    def test_requires_source(self, capsys):
        err = usage_error(capsys, "audit")
        assert err.endswith("error: one of the arguments --input --corpus is required\n")


class TestExperiment:
    def test_threshold_with_csv(self, capsys, tmp_path):
        csv = tmp_path / "t.csv"
        code, out, _ = run(
            capsys, "experiment", "threshold", "-n", "12", "-p", "0.5", "-c", "2",
            "--trials", "5", "--seed", "4", "--csv", str(csv),
        )
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["summary"]["trials"] == 5
        assert "success_fraction" in report["summary"]
        lines = csv.read_text().splitlines()
        assert lines[0] == "trial,seed,n,p,c,outcome,statistic" and len(lines) == 6
        code, _, _ = run(
            capsys, "experiment", "threshold", "-n", "12", "-p", "0.5", "-c", "2",
            "--trials", "5", "--seed", "4", "--csv", str(csv), "--timing",
        )
        timed = csv.read_text().splitlines()
        assert code == EXIT_OK and timed[0] == lines[0] + ",runtime_ms"
        assert [row.rsplit(",", 1)[0] for row in timed] == lines

    def test_concentration_reports_window(self, capsys):
        code, out, _ = run(
            capsys, "experiment", "concentration", "-n", "20", "-p", "0.5",
            "--trials", "3", "--seed", "4",
        )
        assert code == EXIT_OK
        assert "window" in json.loads(out)["summary"]

    @pytest.mark.parametrize("experiment", ["threshold", "concentration"])
    def test_p_below_double_resolution(self, capsys, experiment):
        # 1 - 1e-17 rounds to 1.0, so the window formula's log base is undefined
        code, out, err = run(
            capsys, "experiment", experiment, "-n", "100", "-p", "1e-17",
            "--trials", "1", "--seed", "4",
        )
        assert code == EXIT_INPUT and out == ""
        assert err == "error: p=1e-17 is too small: 1 - p rounds to 1.0\n"

    def test_window_below_one_is_refused(self, capsys):
        code, out, err = run(
            capsys, "experiment", "concentration", "-n", "20", "-p", "0.001",
            "--trials", "2", "--seed", "1",
        )
        assert code == EXIT_INPUT and out == ""
        assert err == "error: concentration window starts at -6102 < 1 at n=20 p=0.001\n"

    def test_deterministic_output(self, capsys):
        argv = [
            "experiment", "expectation", "-n", "10", "-p", "0.5", "-c", "2",
            "--trials", "10", "--seed", "4",
        ]
        outs = []
        for _ in range(2):
            code, out, _ = run(capsys, *argv)
            assert code == EXIT_OK
            outs.append(out)
        assert outs[0] == outs[1]


def test_module_entry_point(tmp_path):
    """python -m tropidom.cli exits 1 on a sub-parser's usage error, not
    argparse's own 2 (EXIT_BUDGET), and 0 on a run that writes its file."""
    src = str(Path(tropidom.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}

    def cli(*argv):
        return subprocess.run(
            [sys.executable, "-m", "tropidom.cli", *argv],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
        )

    bad = cli("gen", "gnpc", "-n", "5", "-p", "0.5", "-c", "2", "--out", "g.tdgs")
    assert bad.returncode == EXIT_INPUT and bad.stdout == ""
    assert bad.stderr.startswith("usage: tropidom gen gnpc ") and "--seed" in bad.stderr
    assert not (tmp_path / "g.tdgs").exists()
    ok = cli("gen", "gnpc", "-n", "5", "-p", "0.5", "-c", "2", "--seed", "1", "--out", "g.tdgs")
    assert ok.returncode == EXIT_OK
    assert json.loads(ok.stdout)["instance"]["n"] == 5
    assert parse_instance((tmp_path / "g.tdgs").read_text()).graph.n == 5


ALGOS = ("exact", "exact-rainbow", "greedy", "path53", "interval")
# budget 20 fails 4 of the threshold trials and 1 of the expectation trials
GOLDEN_CASES = {
    "gen_gnpc": ["gen", "gnpc", "-n", "14", "-p", "0.3", "-c", "4", "--seed", "5",
                 "--out", "g.tdgs"],
    "gen_vc": ["gen", "vc", "--edges", "cover.edges", "--out", "v.tdgs"],
    **{
        f"solve_{algo}_{inp[0]}": ["solve", "--algo", algo, "--input", inp]
        for inp in ("g.tdgs", "v.tdgs")
        for algo in ALGOS
    },
    "audit": ["audit", "--input", "g.tdgs"],
    "threshold": ["experiment", "threshold", "-n", "14", "-p", "0.3", "-c", "5",
                  "--trials", "8", "--seed", "3", "--budget", "20", "--csv", "threshold.csv"],
    "expectation": ["experiment", "expectation", "-n", "12", "-p", "0.3", "-c", "5",
                    "--trials", "8", "--seed", "4", "--budget", "20",
                    "--csv", "expectation.csv"],
}


def golden_outputs() -> dict:
    """Exit code and stdout of every golden case, run in order in the working
    directory, plus the experiment CSVs."""
    Path("cover.edges").write_text("1 2\n2 3\n1 3\n3 4\n")
    outputs = {}
    for name, argv in GOLDEN_CASES.items():
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        outputs[name] = {"code": code, "stdout": stdout.getvalue()}
        if "--csv" in argv:
            outputs[name]["csv"] = Path(argv[-1]).read_text().splitlines()
    return outputs


def test_golden_cli_outputs(tmp_path, monkeypatch):
    """Exit codes, stdout and CSVs equal tests/cli_golden.json byte for byte.

    The file was captured before the solve branches and the experiment trial
    loops were merged; to recapture, dump golden_outputs() as JSON from an
    empty directory.
    """
    monkeypatch.chdir(tmp_path)
    golden = json.loads(Path(__file__).with_name("cli_golden.json").read_text())
    assert golden_outputs() == golden
