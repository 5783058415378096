"""End-to-end CLI behavior: reports, determinism, exit codes."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from homring import codes, verify
from homring.cli import (JOBS, JobConfig, _build_parser, _job_args, _to_json, main,
                         parse_config)
from homring.errors import ParseError

from golden_corpus import GOLDEN, process_env

ANALYZE = ["code", "analyze", "--ring", "GR:2,2,2", "--subring", "Zm:4",
           "--trace", "galois", "--f", "frank:id"]


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# config parsing


def test_parse_config_roundtrip():
    cfg = parse_config("ring=Zm:5 trace=identity\nf=pow:3 gamma=1/2\nseed=4\n")
    assert cfg == JobConfig(ring="Zm:5", trace="identity", f="pow:3",
                            gamma="1/2", seed=4)


def test_parse_config_later_keys_win_and_comments_are_ignored():
    cfg = parse_config("ring=Zm:5 # trailing comment\nring=Zm:7\n# full line\n")
    assert cfg.ring == "Zm:7"


@pytest.mark.parametrize("text,line", [
    ("ring Zm:5", 1),
    ("ring=Zm:5\nbogus=1", 2),
    ("ring=", 1),
    ("budget=ten", 1),
    ("budget=0", 1),
    ("weight=euclidean", None),
    ("format=xml", None),
])
def test_parse_config_errors_carry_positions(text, line):
    with pytest.raises(ParseError) as err:
        parse_config(text)
    assert err.value.line == line


# ---------------------------------------------------------------------------
# reports


def test_analyze_report_shape(capsys):
    code, out, _ = run(capsys, ANALYZE)
    assert code == 0
    report = json.loads(out)
    assert report["ring"] == "GR:2,2,2"
    assert report["size"] == 64
    assert report["spectrum"] == ["16/1", "4/1", "0/1", "-4/1"]
    assert report["enumerator"] == [
        {"weight": "0/1", "count": 1},
        {"weight": "12/1", "count": 18},
        {"weight": "16/1", "count": 39},
        {"weight": "20/1", "count": 6},
    ]
    assert "seed" not in report
    assert "timing_seconds" not in report


def test_reports_are_byte_identical(capsys):
    _, first, _ = run(capsys, ANALYZE)
    _, second, _ = run(capsys, ANALYZE)
    assert first == second


# report-shaped values: dicts with str keys, lists and tuples, any text,
# ints of any sign and size, and int lists with bools among the ints
_REPORT_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(st.characters())
    | st.lists(st.integers() | st.booleans()),
    lambda inner: (st.lists(inner) | st.lists(inner).map(tuple)
                   | st.dictionaries(st.text(st.characters()), inner)),
    max_leaves=30)


@settings(max_examples=150, deadline=None)
@given(value=_REPORT_VALUES)
@example(value={"s": "\x7f\x00\u00e9\U0001f600\"\\\n\r\t\b\f",
                "ints": [1, -2, 3 ** 90], "mixed": [1, True], "tuple": (1, (2,)),
                "empty": [[], {}, ()]})
def test_reports_are_written_as_json_dumps_with_indent_2_writes_them(value):
    assert _to_json(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize("value", [Fraction(1, 2), 0.5, {1}, {1: "one"},
                                   [1, Fraction(1, 2)], {"a": (1, 0.5)}])
def test_the_report_writer_refuses_what_a_report_does_not_hold(value):
    with pytest.raises(TypeError):
        _to_json(value)


def test_timing_is_opt_in(capsys):
    code, out, _ = run(capsys, ANALYZE + ["--timing"])
    assert code == 0
    assert "timing_seconds" in json.loads(out)


def test_seed_is_recorded_for_seeded_functions(capsys):
    code, out, _ = run(capsys, ["code", "analyze", "--ring", "GR:2,2,2",
                                "--subring", "Zm:4", "--trace", "galois",
                                "--f", "frank:rand", "--seed", "11"])
    assert code == 0
    report = json.loads(out)
    assert report["seed"] == 11
    assert report["f"] == "frank:rand:11"


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "job.cfg"
    cfg.write_text("ring=Zm:5 f=pow:3 weight=hamming\n")
    code, out, _ = run(capsys, ["code", "analyze", "--config", str(cfg)])
    assert code == 0
    assert json.loads(out)["enumerator"][1] == {"weight": "2/1", "count": 8}
    code, out, _ = run(capsys, ["code", "analyze", "--config", str(cfg),
                                "--f", "pow:2"])
    assert code == 0
    assert json.loads(out)["f"] == "pow:2"


def test_a_config_format_is_honoured_and_a_flag_overrides_it(tmp_path, capsys):
    cfg = tmp_path / "job.cfg"
    cfg.write_text("ring=Zm:5 f=pow:3 format=csv\n")
    assert run(capsys, ["code", "analyze", "--config", str(cfg)]) == (
        0, "weight,count\n0/1,1\n5/2,8\n5/1,16\n", "")
    code, out, _ = run(capsys, ["code", "analyze", "--config", str(cfg),
                                "--format", "json"])
    assert code == 0
    assert json.loads(out)["size"] == 25
    cfg.write_text("ring=Zm:5 format=json\n")
    code, out, _ = run(capsys, ["weight", "table", "--config", str(cfg)])
    assert code == 0
    assert json.loads(out)["kind"] == "homogeneous"


def test_a_config_format_other_than_json_or_csv_is_refused(tmp_path, capsys):
    cfg = tmp_path / "job.cfg"
    cfg.write_text("ring=Zm:5 format=xml\n")
    assert run(capsys, ["weight", "table", "--config", str(cfg)]) == (
        13, "", "error: format must be json or csv, got 'xml'\n")


def test_graph_report(capsys):
    code, out, _ = run(capsys, ["code", "graph", "--ring", "Zm:5",
                                "--f", "pow:3", "--weight", "hamming"])
    assert code == 0
    report = json.loads(out)
    assert report["srg"] == {"v": 25, "k": 8, "lambda": 3, "mu": 2,
                             "degenerate": False}
    assert report["components"] == [25]
    assert report["modular"] == {"is_modular": True, "r": "1/2"}


def test_ring_info(capsys):
    code, out, _ = run(capsys, ["ring", "info", "--ring", "Zm:6"])
    assert code == 0
    report = json.loads(out)
    assert report["order"] == 6
    assert report["is_local"] is False
    assert report["residue_size"] is None
    assert report["teichmuller"] is None


def test_trace_list(capsys):
    code, out, _ = run(capsys, ["trace", "list", "--ring", "Z4X",
                                "--subring", "Zm:4"])
    assert code == 0
    report = json.loads(out)
    assert report["count"] == 8
    assert len(report["traces"]) == 8


def test_weight_table_csv_default(capsys):
    code, out, _ = run(capsys, ["weight", "table", "--ring", "Zm:6"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "element,orbit,weight"
    assert lines[1] == "0,0,0/1"
    assert lines[3] == "2,2,3/2"
    assert len(lines) == 7


def test_analyze_csv(capsys):
    code, out, _ = run(capsys, ANALYZE + ["--format", "csv"])
    assert code == 0
    assert out.splitlines() == ["weight,count", "0/1,1", "12/1,18",
                                "16/1,39", "20/1,6"]


@pytest.mark.parametrize("argv", [
    ["code", "graph", "--ring", "Zm:251", "--f", "pow:3", "--weight", "hamming"],
    ["code", "graph", "--ring", "Qm:4"],
    ["trace", "list", "--ring", "Z4X", "--subring", "Zm:4"],
])
def test_csv_is_refused_before_the_job_runs(capsys, monkeypatch, argv):
    def ran(cfg):
        raise AssertionError("the job ran")

    for job in JOBS.values():
        monkeypatch.setattr(job, "run", ran)
    code, out, err = run(capsys, argv + ["--format", "csv"])
    assert (code, out) == (2, "")
    assert err == f"error: csv output is not supported for {argv[0]}-{argv[1]}\n"


# ---------------------------------------------------------------------------
# trace check


def test_trace_check_valid(capsys):
    code, out, _ = run(capsys, ["trace", "check", "--ring", "GR:2,2,2",
                                "--subring", "Zm:4", "--trace", "galois"])
    assert code == 0
    assert json.loads(out)["valid"] is True


def test_trace_check_invalid_prints_report_and_exits_5(tmp_path, capsys):
    table = tmp_path / "t.txt"
    table.write_text("".join(f"{a} 0\n" for a in range(4)))
    code, out, _ = run(capsys, ["trace", "check", "--ring", "Zm:4",
                                "--trace", f"table:{table}"])
    assert code == 5
    report = json.loads(out)
    assert report["valid"] is False
    codes = [f["code"] for f in report["failures"]]
    assert codes == ["KernelContainsIdeal", "NotSurjective"]


def test_trace_check_reports_a_named_map_as_it_reports_its_table(tmp_path, capsys):
    # z4x:0,2, T(r0 + t*r1) = 2*r1, kills the ideal (2) and misses 1 and 3:
    # one report either way
    table = tmp_path / "z4x.txt"
    table.write_text("".join(f"{a} {2 * (a // 4) % 4}\n" for a in range(16)))
    reports = []
    for spec in ("z4x:0,2", f"table:{table}"):
        code, out, err = run(capsys, ["trace", "check", "--ring", "Z4X",
                                      "--subring", "Zm:4", "--trace", spec])
        assert (code, err) == (5, "")
        report = json.loads(out)
        assert report.pop("trace") == spec
        reports.append(report)
    assert reports[0] == reports[1]
    assert reports[0]["failures"] == [
        {"code": "KernelContainsIdeal", "witness": {"ideal_generator": 2}},
        {"code": "NotSurjective", "witness": {"missing": 1}}]


def test_a_trace_value_out_of_range_has_one_refusal(tmp_path, capsys):
    table = tmp_path / "t.txt"
    table.write_text("".join(f"{a} {a + 2}\n" for a in range(4)))
    for argv in (["trace", "check"], ["code", "analyze", "--f", "pow:3"]):
        assert run(capsys, argv + ["--ring", "Zm:4", "--trace", f"table:{table}"]) == (
            2, "", "error: trace value 4 out of range for Zm:4\n")


# ---------------------------------------------------------------------------
# verification suite


def test_verify_subset_passes(capsys):
    code, out, _ = run(capsys, ["verify", "paper", "--only", "1,3,5"])
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    assert [r["id"] for r in report["records"]] == [1, 3, 5]


def test_verify_runs_share_no_record():
    # records 1-3 read one cached computation, but no run hands out
    # another run's record
    first, again = verify.run(only=[2, 3]), verify.run(only=[2, 3])
    assert first == again and [r["id"] for r in first["records"]] == [2, 3]
    assert not any(a is b for a, b in zip(first["records"], again["records"]))


@pytest.mark.parametrize("only,rid", [("99", 99), ("0", 0), ("1,99", 99)])
def test_verify_refuses_an_unknown_record_id_as_a_parse_error(capsys, only, rid):
    assert run(capsys, ["verify", "paper", "--only", only]) == (
        13, "", f"error: unknown record id {rid}\n")


@pytest.mark.parametrize("only", [",", ""])
def test_an_only_list_that_names_no_record_is_a_parse_error(capsys, only):
    assert run(capsys, ["verify", "paper", "--only", only]) == (
        13, "", f"error: bad --only list {only!r}\n")


def test_verify_full_run_reports_known_failures(capsys, verify_report,
                                                monkeypatch):
    code, out, _ = run(capsys, ["verify", "paper"])
    assert code == 0
    report = json.loads(out)
    assert report == json.loads(json.dumps(verify_report))
    assert report["failed_records"] == []
    # a failing record still makes the run exit nonzero
    monkeypatch.setitem(verify._CRITERIA, 9, lambda: verify._record(
        9, "forced failure", "expected", "computed", False))
    code, out, _ = run(capsys, ["verify", "paper", "--only", "9"])
    assert code == 1
    assert json.loads(out)["failed_records"] == [9]


# ---------------------------------------------------------------------------
# error paths and exit codes


@pytest.mark.parametrize("argv,expected", [
    (["code", "analyze", "--ring", "Qm:4", "--f", "pow:2"], 14),
    (["code", "analyze", "--ring", "Zm:5"], 2),
    (["code", "analyze", "--f", "pow:2"], 2),
    (["code", "analyze", "--ring", "Zm:5", "--f", "pow:0"], 11),
    (["code", "analyze", "--ring", "Zm:6", "--f", "pow:2",
      "--gamma", "hamming-normalized"], 4),
    (["code", "analyze", "--ring", "Zm:5", "--f", "pow:2", "--gamma", "x"], 13),
    (["code", "analyze", "--ring", "GR:2,2,2", "--subring", "Zm:4",
      "--f", "frank:id"], 2),
    (["code", "analyze", "--ring", "GR:2,2,2", "--subring", "Zm:4",
      "--trace", "galois", "--f", "sigmaquad:swapxy"], 14),
    (["code", "analyze", "--ring", "Zm:4", "--f", "frank:id"], 10),
    (["code", "graph", "--ring", "GR:2,2,2", "--subring", "Zm:4",
      "--trace", "galois", "--f", "frank:id"], 12),
    (["code", "graph", "--ring", "Zm:5", "--f", "pow:3", "--format", "csv"], 2),
    (["trace", "check", "--ring", "Zm:4"], 2),
    (["verify", "paper", "--only", "one"], 13),
    (["code", "analyze", "--config", "/nonexistent/path.cfg"], 2),
    (["code", "analyze", "--ring", "Zm:5", "--f", "pow:3", "--gamma", "-1"], 13),
    (["weight", "table", "--ring", "Zm:4", "--gamma=-1/2"], 13),
    (["code", "analyze", "--ring", "Zm:5", "--f", "pow:3", "--weight", "hamming",
      "--gamma", "7"], 2),
    (["code", "graph", "--ring", "Zm:5", "--f", "pow:3", "--weight", "hamming",
      "--gamma", "0"], 2),
    (["weight", "table", "--ring", "Zm:5", "--weight", "hamming",
      "--gamma", "hamming-normalized"], 2),
])
def test_exit_codes(capsys, argv, expected):
    code, out, err = run(capsys, argv)
    assert code == expected
    assert err.startswith("error: ")


def test_hamming_takes_gamma_1_only(capsys, tmp_path):
    argv = ["code", "analyze", "--ring", "Zm:5", "--f", "pow:3", "--weight", "hamming"]
    code, out, _ = run(capsys, argv)
    assert code == 0
    for gamma in ("1", "2/2"):
        assert run(capsys, argv + ["--gamma", gamma]) == (0, out, "")
    cfg = tmp_path / "job.cfg"
    cfg.write_text("ring=Zm:5 f=pow:3 weight=hamming gamma=1/2\n")
    assert run(capsys, ["code", "analyze", "--config", str(cfg)]) == (
        2, "", "error: --weight hamming has gamma 1 (its weights are 0 and 1), "
               "got --gamma 1/2\n")


def test_a_graph_at_gamma_0_has_no_nonzero_weights(capsys):
    assert run(capsys, ["code", "graph", "--ring", "Zm:5", "--f", "pow:3",
                        "--gamma", "0"]) == (
        12, "", "error: code has 0 distinct nonzero weights, need exactly 2\n")


def test_an_unreadable_table_is_named_by_what_it_holds(capsys, tmp_path):
    missing = tmp_path / "missing.txt"
    for argv, noun in ((["code", "analyze", "--ring", "Zm:12", "--f"], "function table"),
                       (["trace", "check", "--ring", "Zm:12", "--trace"], "trace table")):
        code, out, err = run(capsys, argv + [f"table:{missing}"])
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot read {noun} {str(missing)!r}: "), err


def test_budget_env_is_honored(capsys, monkeypatch):
    # ANALYZE's largest estimate is its kernel and orbit labelling, 16 * 16^2
    monkeypatch.setenv("HOMRING_BUDGET", "4095")
    code, _, err = run(capsys, ANALYZE)
    assert code == 8
    assert "kernel and orbit labelling needs about 4096" in err
    monkeypatch.setenv("HOMRING_BUDGET", "4096")
    code, _, _ = run(capsys, ANALYZE)
    assert code == 0


# x^3 on Z_137 with the Hamming weight: SRG(18769, 9248, 4557, 4556), whose
# graph stage is its largest estimate, 18769 * (15 + 32) + 137^2 + 5 * 9248
GRAPH_137 = ["code", "graph", "--ring", "Zm:137", "--f", "pow:3",
             "--weight", "hamming"]


def test_graph_over_the_budget_is_refused_before_its_points(capsys):
    code, out, err = run(capsys, GRAPH_137 + ["--budget", "947151"])
    assert code == 8
    assert out == ""
    assert err == ("error: graph needs about 947152 table lookups, over the "
                   "budget of 947151; raise it with --budget or "
                   "HOMRING_BUDGET\n")


def _forbid_points(monkeypatch):
    """Make listing a code's points in codeword order raise."""
    def no_points(code):
        raise RuntimeError("the codewords were listed")

    monkeypatch.setattr(codes.Code, "points", property(no_points))


def test_graph_over_the_budget_is_refused_without_listing_the_codewords(
        capsys, monkeypatch):
    # the estimate needs |C| = |R|^2/|K| and the orbits' weights, not the
    # codewords in order
    _forbid_points(monkeypatch)
    code, _, err = run(capsys, GRAPH_137 + ["--budget", "947151"])
    assert code == 8
    assert err.startswith("error: graph needs about 947152 table lookups")


@pytest.mark.parametrize("argv", [
    ANALYZE,
    ANALYZE + ["--weight", "hamming"],
    ["code", "analyze", "--ring", "Zm:10", "--f", "pow:3", "--gamma", "1/2"],
    ["code", "analyze", "--ring", "FXY:2", "--f", "sigmaquad:swapxy"],
])
def test_analyze_never_sweeps_the_pairs(capsys, monkeypatch, argv):
    # the enumerator and spectrum come from orbits of pair space
    _forbid_points(monkeypatch)
    code, out, _ = run(capsys, argv)
    assert code == 0
    assert json.loads(out)["enumerator"]


def test_graph_at_its_estimate_is_strongly_regular(capsys):
    # x^3 on Z_137, 137 = 2 mod 3: 18769 codewords, two Hamming weights
    code, out, _ = run(capsys, GRAPH_137 + ["--budget", "947152"])
    assert code == 0
    report = json.loads(out)
    assert report["srg"] == {"v": 18769, "k": 9248, "lambda": 4557,
                             "mu": 4556, "degenerate": False}
    assert report["srg_failure"] is None


def test_the_default_budget_admits_the_graph_on_z251(capsys):
    # 63001 vertices, which the old cap of 20000 vertices refused
    code, out, _ = run(capsys, ["code", "graph", "--ring", "Zm:251", "--f",
                                "pow:3", "--weight", "hamming"])
    assert code == 0
    assert json.loads(out)["srg"] == {"v": 63001, "k": 31250, "lambda": 15501,
                                      "mu": 15500, "degenerate": False}


def test_explicit_budget_flag(capsys):
    code, _, err = run(capsys, ANALYZE + ["--budget", "4095"])
    assert code == 8
    assert run(capsys, ANALYZE + ["--budget", "4096"])[0] == 0


@pytest.mark.parametrize("argv", [
    ["code", "analyze", "--ring", "Zm:5", "--f", "pow:3"],
    ["trace", "list", "--ring", "Zm:5"],
])
@pytest.mark.parametrize("budget", ["0", "-3"])
def test_a_non_positive_budget_flag_is_refused_like_a_config_value(
        capsys, argv, budget):
    assert run(capsys, argv + ["--budget", budget]) == (
        13, "", "error: budget must be positive\n")
    with pytest.raises(ParseError) as err:
        parse_config(f"budget={budget}")
    assert str(err.value) == "budget must be positive (line 1, col 1)"


_COLD_JOB = """\
import io, sys
import homring.cli as cli
JSON = {"json", "json.decoder", "_json"}
print(sorted(({"dataclasses", "inspect", "csv"} | JSON) & set(sys.modules)))
sys.stdout = io.StringIO()
code = cli.main(["code", "analyze", "--ring", "Zm:5", "--f", "pow:3"])
sys.stdout = sys.__stdout__
print(code, sorted(({"argparse", "gettext", "homring.verify"} | JSON)
                   & set(sys.modules)))
"""


def _fresh_interpreter(script: str) -> str:
    """stdout of ``script`` run by a fresh interpreter under -S, which keeps
    site's own imports out of sys.modules."""
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run([sys.executable, "-S", "-c", script],
                          env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_cli_import_and_a_well_formed_job_leave_out_argparse_and_verify():
    # and json: reports are written by cli._to_json
    assert _fresh_interpreter(_COLD_JOB) == "[]\n0 []\n"


_RATIONAL_JOBS = """\
import io, sys
import homring.cli as cli
RATIONALS = ("fractions", "decimal", "_decimal", "numbers")
print([m for m in RATIONALS if m in sys.modules])
for argv in {jobs!r} + [["verify", "paper"], ["code", "analyze", "--ring", "Zm:5",
                                              "--f", "pow:3", "--gamma", "0.5"]]:
    sys.stdout = io.StringIO()
    code = cli.main(argv)
    sys.stdout = sys.__stdout__
    print(argv[1], code, [m for m in RATIONALS if m in sys.modules])
"""

# verify paper loads none of them either; the last job's gamma, spelled 0.5,
# is read as a Fraction, so it loads them: the absence before it is not vacuous
_VERIFY_LOADS = "paper 0 []"
_SPELLED_LOADS = "analyze 0 ['fractions', 'decimal', '_decimal', 'numbers']"


def test_jobs_that_weigh_nothing_leave_out_fractions():
    jobs = [["trace", "list", "--ring", "GR:2,1,3", "--subring", "Zm:2"],
            ["ring", "info", "--ring", "Z4X"],
            ["trace", "check", "--ring", "Zm:5", "--trace", "identity"]]
    script = _RATIONAL_JOBS.format(jobs=jobs)
    assert _fresh_interpreter(script).splitlines() == [
        "[]", "list 0 []", "info 0 []", "check 0 []", _VERIFY_LOADS, _SPELLED_LOADS]


def test_jobs_that_weigh_leave_out_fractions():
    # every weight is an integer over a denominator the job knows, gamma
    # = 1/2 included; only a spelling such as 0.5 needs Fraction to be read
    jobs = [["code", "analyze", "--ring", "Zm:5", "--f", "pow:3"],
            ["code", "analyze", "--ring", "Zm:5", "--f", "pow:3", "--gamma", "1/2"],
            ["code", "graph", "--ring", "Zm:5", "--f", "pow:3", "--weight", "hamming"],
            ["weight", "table", "--ring", "Zm:6"]]
    script = _RATIONAL_JOBS.format(jobs=jobs)
    assert _fresh_interpreter(script).splitlines() == [
        "[]", "analyze 0 []", "analyze 0 []", "graph 0 []", "table 0 []",
        _VERIFY_LOADS, _SPELLED_LOADS]


def test_only_verify_and_parse_gamma_import_fractions():
    import ast

    class Importers(ast.NodeVisitor):
        """(file, innermost enclosing function or None) of each fractions
        import, wherever it sits."""

        def __init__(self, name):
            self.name, self.scope, self.found = name, [None], set()

        def visit_FunctionDef(self, node):
            self.scope.append(node.name)
            self.generic_visit(node)
            self.scope.pop()

        visit_AsyncFunctionDef = visit_FunctionDef

        def visit_Import(self, node):
            if any(a.name.split(".")[0] == "fractions" for a in node.names):
                self.found.add((self.name, self.scope[-1]))

        def visit_ImportFrom(self, node):
            if node.module and node.module.split(".")[0] == "fractions":
                self.found.add((self.name, self.scope[-1]))

    found = set()
    package = Path(__file__).resolve().parent.parent / "src" / "homring"
    for path in sorted(package.glob("*.py")):
        visitor = Importers(path.name)
        visitor.visit(ast.parse(path.read_text(), filename=str(path)))
        found |= visitor.found
    assert found == {("weights.py", "parse_gamma")}


# ---------------------------------------------------------------------------
# the process exit: cli.entry flushes and ends through os._exit; whatever
# does not reach that exit ends as ``sys.exit(cli.main(argv))`` always has

_ENTRY = ["-m", "homring.cli"]
_SYS_EXIT = ["-c", "import sys; from homring import cli; "
             "sys.exit(cli.main(sys.argv[1:]))"]


def _process(how, argv, stdout=subprocess.PIPE):
    done = subprocess.run([sys.executable, *how, *argv], stdout=stdout,
                          stderr=subprocess.PIPE, env=process_env(),
                          timeout=120)
    return done.returncode, done.stdout, done.stderr.decode("utf-8")


def _to_a_closed_pipe(how, argv):
    """Exit code and stderr of a job whose stdout's reader is gone before
    the process starts."""
    read, write = os.pipe()
    os.close(read)
    try:
        code, _, err = _process(how, argv, stdout=write)
    finally:
        os.close(write)
    return code, err


def test_a_small_report_to_a_closed_pipe_exits_as_before():
    # the report fits stdout's buffer, so the entry's flush is what fails
    argv = ["code", "analyze", "--ring", "Zm:5", "--f", "pow:3"]
    code, err = _to_a_closed_pipe(_ENTRY, argv)
    assert (code, err) == _to_a_closed_pipe(_SYS_EXIT, argv)
    assert code == 120
    assert err.startswith("Exception ignored in: <_io.TextIOWrapper name='<stdout>'")
    assert err.endswith("BrokenPipeError: [Errno 32] Broken pipe\n")


def test_a_large_report_to_a_closed_pipe_exits_as_before():
    # the write inside main fails; the traceback's frames above main differ
    # (runpy and entry against -c), from main's frame on they are the same
    argv = ["trace", "list", "--ring", "GR:2,1,6", "--subring", "Zm:2"]
    code, err = _to_a_closed_pipe(_ENTRY, argv)
    ref_code, ref_err = _to_a_closed_pipe(_SYS_EXIT, argv)
    assert code == ref_code == 1
    assert err.startswith("Traceback (most recent call last):\n")
    tail = err[err.rindex("  File "):]
    assert tail == ref_err[ref_err.rindex("  File "):]
    assert ", in main\n" in tail
    assert tail.endswith("BrokenPipeError: [Errno 32] Broken pipe\n")


@pytest.mark.parametrize("argv,expected", [
    (["code", "analyze", "--help"], 0),
    (["code", "analyze", "--ring"], 2),
])
def test_help_and_usage_errors_exit_as_before(argv, expected):
    done = _process(_ENTRY, argv)
    assert done == _process(_SYS_EXIT, argv)
    assert done[0] == expected


_ATEXIT_JOB = """\
import atexit, sys
from homring import cli
atexit.register(sys.stderr.write, "teardown\\n")
sys.argv[1:] = ["code", "analyze", "--ring", "Zm:5", "--f", "pow:3"]
cli.entry()
"""


def test_a_finished_job_skips_interpreter_teardown():
    code, out, err = _process(["-c", _ATEXIT_JOB], [])
    assert (code, err) == (0, "")
    assert json.loads(out)["ring"] == "Zm:5"


# ---------------------------------------------------------------------------
# argparse output, pinned byte for byte at 80 columns (Python 3.11 wording)

_JOB_OPTIONS = """
options:
  -h, --help            show this help message and exit
  --config CONFIG       path to a key=value config file
  --ring RING
  --subring SUBRING
  --trace TRACE
  --f F
  --gamma GAMMA
  --weight {homogeneous,hamming}
  --format {json,csv}
  --budget BUDGET
  --seed SEED
  --timing
"""

_RING_INFO_USAGE = """\
usage: homring ring info [-h] [--config CONFIG] [--ring RING]
                         [--subring SUBRING] [--trace TRACE] [--f F]
                         [--gamma GAMMA] [--weight {homogeneous,hamming}]
                         [--format {json,csv}] [--budget BUDGET] [--seed SEED]
                         [--timing]
"""

_CODE_ANALYZE_USAGE = """\
usage: homring code analyze [-h] [--config CONFIG] [--ring RING]
                            [--subring SUBRING] [--trace TRACE] [--f F]
                            [--gamma GAMMA] [--weight {homogeneous,hamming}]
                            [--format {json,csv}] [--budget BUDGET]
                            [--seed SEED] [--timing]
"""


def _job_usage(leaf: str) -> str:
    """The usage block of a job leaf whose name wraps like ``code analyze``'s."""
    prefix = f"usage: homring {leaf} "
    head, *rest = _CODE_ANALYZE_USAGE.splitlines(keepends=True)
    return "".join([prefix + head[len("usage: homring code analyze "):]]
                   + [" " * len(prefix) + line.lstrip(" ") for line in rest])


def _group_help(command: str, choices: str, pad: int, extra: str = "") -> str:
    return (f"usage: homring {command} [-h] {{{choices}}} ...\n\n"
            f"positional arguments:\n  {{{choices}}}\n{extra}\n"
            f"options:\n  -h, --help{' ' * pad}show this help message and exit\n")


HELP_TEXTS = {
    (): ("usage: homring [-h] {ring,trace,weight,code,verify} ...\n\n"
         "positional arguments:\n  {ring,trace,weight,code,verify}\n\n"
         "options:\n  -h, --help            show this help message and exit\n"),
    ("ring",): _group_help("ring", "info", 2),
    ("trace",): _group_help("trace", "list,check", 4),
    ("weight",): _group_help("weight", "table", 2, "    table\n"),
    ("code",): _group_help("code", "analyze,graph", 7),
    ("verify",): _group_help("verify", "paper", 2),
    ("ring", "info"): _RING_INFO_USAGE + _JOB_OPTIONS,
    ("trace", "list"): _job_usage("trace list") + _JOB_OPTIONS,
    ("trace", "check"): _job_usage("trace check") + _JOB_OPTIONS,
    ("weight", "table"): _job_usage("weight table") + _JOB_OPTIONS,
    ("code", "analyze"): _CODE_ANALYZE_USAGE + _JOB_OPTIONS,
    ("code", "graph"): _job_usage("code graph") + _JOB_OPTIONS,
    ("verify", "paper"): ("usage: homring verify paper [-h] [--only ONLY] [--timing]\n\n"
                          "options:\n"
                          "  -h, --help   show this help message and exit\n"
                          "  --only ONLY  comma-separated record ids\n"
                          "  --timing\n"),
}


def _exit_of(capsys, argv):
    with pytest.raises(SystemExit) as done:
        main(argv)
    out = capsys.readouterr()
    return done.value.code, out.out, out.err


@pytest.mark.parametrize("argv", list(HELP_TEXTS), ids=" ".join)
def test_help_text_is_pinned(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    assert _exit_of(capsys, [*argv, "--help"]) == (0, HELP_TEXTS[argv], "")


@pytest.mark.parametrize("argv,err", [
    ([], "usage: homring [-h] {ring,trace,weight,code,verify} ...\n"
         "homring: error: the following arguments are required: command\n"),
    (["code", "analyze", "--weight", "euclidean"],
     _CODE_ANALYZE_USAGE + "homring code analyze: error: argument --weight: "
     "invalid choice: 'euclidean' (choose from 'homogeneous', 'hamming')\n"),
    (["ring", "info", "--budget", "ten"],
     _RING_INFO_USAGE + "homring ring info: error: argument --budget: "
     "invalid int value: 'ten'\n"),
], ids=["no-command", "bad-choice", "bad-int"])
def test_argparse_errors_are_pinned(capsys, monkeypatch, argv, err):
    monkeypatch.setenv("COLUMNS", "80")
    assert _exit_of(capsys, argv) == (2, "", err)


# ---------------------------------------------------------------------------
# the fast parse: JOBS' flags read without argparse, and what it leaves to
# argparse

_FLAGS = sorted({f"--{name}" for job in JOBS.values() for name, *_ in job.flags}
                | {"--timing"})
_WORDS = ["Zm:5", "pow:3", "GR:2,2,2", "", " 5", "0", "7", "-3", "ten", "1/2",
          "homogeneous", "hamming", "euclidean", "json", "csv", "1,3", ",",
          "-h", "--help", "--", "-", "code", "analyze", "paper"]
_value = st.one_of(st.sampled_from(_WORDS), st.text(max_size=3))
_token = st.one_of(
    st.sampled_from(_FLAGS + _WORDS),
    # abbreviations, ambiguous ones too (--s: --subring, --seed)
    st.sampled_from(_FLAGS).flatmap(
        lambda f: st.integers(3, len(f)).map(lambda k: f[:k])),
    st.tuples(st.sampled_from(_FLAGS), _value).map("=".join),
    _value)


def _pair(flag):
    """--name and a value: one of its type and choices, or any value."""
    name, is_int, choices, _ = flag
    good = (st.sampled_from(choices) if choices
            else st.integers(-2, 99).map(str) if is_int
            else st.sampled_from(["Zm:5", "pow:3", "", " 5", "1,3"]))
    dashed = st.sampled_from(["-h", "--help", "--ring", "--", "-x", "-3", "-"])
    return st.tuples(st.just(f"--{name}"),
                     st.one_of(*[good] * 3, _value, dashed)).map(list)


def _leaf_argv(leaf):
    """The leaf's command and action, then mostly its own flags."""
    pair = st.sampled_from(JOBS[leaf].flags).flatmap(_pair)
    part = st.one_of(*[pair] * 6, st.just(["--timing"]), _token.map(lambda t: [t]))
    return st.lists(part, max_size=5).map(
        lambda parts: [*leaf, *(tok for p in parts for tok in p)])


_argv = st.one_of(
    *[st.sampled_from(list(JOBS)).flatmap(_leaf_argv)] * 3,
    st.lists(st.one_of(st.sampled_from(["code", "analyze", "verify", "paper",
                                        "ring", "info", "-h", "x"]), _token),
             max_size=6))


@settings(max_examples=400, deadline=None)
@given(argv=_argv)
def test_the_fast_parse_sets_what_argparse_sets(argv):
    args = _job_args(argv)
    if args is not None:
        assert args == vars(_build_parser().parse_args(argv))


def test_the_fast_parse_takes_every_benchmark_and_golden_job(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # nothing under bench/
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    import workloads

    argvs = [job.argv for name in workloads.WORKLOADS for seed in (1, 2, 3)
             for job in workloads.build(name, seed)]
    # the golden jobs all spell their flags in full, as --name value
    argvs += [json.loads(path.read_text(encoding="utf-8"))["argv"]
              for path in sorted(GOLDEN.glob("*.json"))]
    parser = _build_parser()
    for argv in argvs:
        assert _job_args(argv) == vars(parser.parse_args(argv)), argv


def test_a_repeated_flag_keeps_its_last_value():
    args = _job_args(["ring", "info", "--ring", "Zm:5", "--timing", "--ring",
                      "Zm:7", "--budget", "9", "--budget", "10"])
    assert (args["ring"], args["budget"], args["timing"]) == ("Zm:7", 10, True)


_ZM5_POW3 = json.dumps({
    "ring": "Zm:5", "subring": "Zm:5", "trace": "identity", "f": "pow:3",
    "gamma": "1/1", "weight": "homogeneous", "size": 25,
    "spectrum": ["5/1", "5/2", "0/1"],
    "enumerator": [{"weight": "0/1", "count": 1}, {"weight": "5/2", "count": 8},
                   {"weight": "5/1", "count": 16}]}, indent=2) + "\n"


# each is argparse's, recorded before the fast parse was added
@pytest.mark.parametrize("argv,done", [
    (["code", "analyze", "--rin", "Zm:5", "--f", "pow:3"], (0, _ZM5_POW3, "")),
    (["code", "analyze", "--ring=Zm:5", "--f", "pow:3"], (0, _ZM5_POW3, "")),
    (["code", "analyze", "--f", "pow:3", "--ring"], (
        2, "", _CODE_ANALYZE_USAGE + "homring code analyze: error: argument "
        "--ring: expected one argument\n")),
    (["code", "analyze", "--ring", "Zm:5", "--foo", "x"], (
        2, "", "usage: homring [-h] {ring,trace,weight,code,verify} ...\n"
        "homring: error: unrecognized arguments: --foo x\n")),
    (["code", "analyze", "--ring", "Zm:5", "--f", "pow:3", "-h"], (
        0, _CODE_ANALYZE_USAGE + _JOB_OPTIONS, "")),
    (["code"], (2, "", "usage: homring code [-h] {analyze,graph} ...\n"
                "homring code: error: the following arguments are required: "
                "action\n")),
], ids=["abbreviation", "equals", "no-value", "unknown-flag", "late-help",
        "no-action"])
def test_argv_the_fast_parse_defers_keeps_its_argparse_bytes(
        capsys, monkeypatch, argv, done):
    monkeypatch.setenv("COLUMNS", "80")
    assert _job_args(argv) is None
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    assert (code, out.out, out.err) == done
