import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import folkman
from folkman import cli
from folkman.cli import _FORMATS, build_parser, main
from folkman.formats import _CODECS, serialize_edge_list, serialize_graph, serialize_graph6
from folkman.graphs import complement, complete, cycle, from_edges, join
from folkman.witnesses import parse_certificate

from conftest import circulant


@pytest.fixture
def c5_path(tmp_path):
    path = tmp_path / "c5.g6"
    path.write_text(serialize_graph6(cycle(5)) + "\n")
    return str(path)


@pytest.fixture
def p4_path(tmp_path):
    path = tmp_path / "p4.el"
    path.write_text(serialize_edge_list(from_edges(4, [(0, 1), (1, 2), (2, 3)])))
    return str(path)


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_arrow_true(capsys, c5_path):
    code, out, _ = run_cli(capsys, ["arrow", "--graph", c5_path, "--sig", "2,2"])
    assert code == 0
    assert "arrows: true" in out


def test_arrow_false_prints_coloring(capsys, p4_path):
    code, out, _ = run_cli(capsys, ["arrow", "--graph", p4_path, "--sig", "2,2"])
    assert code == 0
    assert "arrows: false" in out
    assert "class 1:" in out and "class 2:" in out


def _c13_path(tmp_path):
    """C13(1,2,3,5), omega = 4: a general part that arrows (3,4) in 632
    nodes, undecided at a budget of 5."""
    path = tmp_path / "c13.g6"
    path.write_text(serialize_graph6(circulant(13, (1, 2, 3, 5))) + "\n")
    return path


def test_arrow_budget_exit_code(capsys, tmp_path):
    big = _c13_path(tmp_path)
    code, out, _ = run_cli(capsys, ["arrow", "--graph", str(big), "--sig", "3,4",
                                    "--budget", "5"])
    assert code == 2
    assert "undecided" in out


def test_arrow_negative_budget_exits_one(capsys, c5_path):
    code, out, err = run_cli(capsys, ["arrow", "--graph", c5_path, "--sig", "2,2",
                                      "--budget", "-1"])
    assert code == 1 and out == ""
    assert err.strip() == "error: budget must be >= 0 (0 means unlimited)"


def test_arrow_json_schema(capsys, c5_path):
    code, out, _ = run_cli(capsys, ["arrow", "--graph", c5_path, "--sig", "2,2", "--json"])
    assert code == 0
    record = json.loads(out)
    assert set(record) == {"command", "result", "seconds", "nodes"}
    assert record["command"] == "arrow"
    assert record["result"]["arrows"] is True
    assert isinstance(record["seconds"], float)
    assert isinstance(record["nodes"], int)


def _rejected_by_the_parser(capsys, argv, command):
    """argv is a usage error: exit 1, nothing on stdout, and under --json the
    error envelope, whose message is the one on stderr."""
    code, out, err = run_cli(capsys, argv)
    assert code == 1 and out == "" and "error:" in err
    code, out, err = run_cli(capsys, argv + ["--json"])
    assert code == 1
    message = err.strip().splitlines()[-1]
    assert message.startswith("error: ")
    record = json.loads(out)
    assert set(record) == {"command", "result", "seconds", "nodes"}
    assert record["command"] == command and record["nodes"] is None
    assert record["result"] == {"error": message[len("error: "):]}


_SEARCH_COMMANDS = ("arrow", "witness", "verify")
_BUDGET_FLAG = {"arrow": "--budget", "verify": "--budget"}
_FAULTS = ("unknown-flag", "missing-required", "bad-budget", "abbreviated-json",
           "abbreviated-budget")


def _valid_argv(command, graph_path):
    return {"arrow": ["arrow", "--graph", graph_path, "--sig", "2,2"],
            "witness": ["witness", "--sig", "2,2", "--q", "3"],
            "verify": ["verify", "--graph", graph_path, "--sig", "2,2", "--q", "3"]}[command]


def test_jobs_flag_is_a_usage_error(capsys, c5_path):
    for command in _SEARCH_COMMANDS:
        argv = _valid_argv(command, c5_path)
        assert run_cli(capsys, argv)[0] == 0
        _rejected_by_the_parser(capsys, argv + ["--jobs", "2"], command)


def test_witness_budget_flag_is_a_usage_error(capsys):
    # A stock witness is decided at no node, so `witness` takes no budget.
    argv = _valid_argv("witness", None)
    assert run_cli(capsys, argv)[0] == 0
    _rejected_by_the_parser(capsys, argv + ["--verify-budget", "5"], "witness")


@pytest.mark.parametrize("fault,command", [
    (fault, command) for fault in _FAULTS for command in _SEARCH_COMMANDS
    if "budget" not in fault or command in _BUDGET_FLAG])
def test_parser_errors_exit_one(capsys, c5_path, command, fault):
    argv = _valid_argv(command, c5_path)
    if fault == "unknown-flag":
        argv.append("--bogus")
    elif fault == "missing-required":
        argv = argv[:1] + argv[3:]  # drop the first flag and its value
    elif fault == "abbreviated-json":
        argv.append("--js")  # flags count only when written out in full
    elif fault == "abbreviated-budget":
        argv += [_BUDGET_FLAG[command][:-5], "10"]  # --b
    else:
        argv += [_BUDGET_FLAG[command], "abc"]
    _rejected_by_the_parser(capsys, argv, command)


def test_parser_errors_without_a_command(capsys):
    _rejected_by_the_parser(capsys, [], None)
    _rejected_by_the_parser(capsys, ["bogus"], None)


def test_help_exits_zero(capsys):
    for argv in (["--help"], ["arrow", "--help"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert "usage: folkman" in capsys.readouterr().out


_FORMAT = ("--format", False, None, _FORMATS, None)
_JSON = ("--json", False, None, None, 0)  # nargs 0: a switch that takes no value

# Each command's flags in --help order: (option strings, required, type,
# choices, nargs).
_COMMAND_FLAGS = {
    "arrow": [("--graph", True, None, None, None), ("--sig", True, None, None, None),
              ("--budget", False, int, None, None), _FORMAT, _JSON],
    "bound": [("--sig", True, None, None, None), ("--q", True, int, None, None),
              ("--table", False, None, None, None), _JSON],
    "table": [("--kind", True, None, ["cor1", "cor2", "both"], None),
              ("--p", True, None, None, None), _JSON],
    "witness": [("--sig", True, None, None, None), ("--q", True, int, None, None),
                ("--out", False, None, None, None), _JSON],
    "verify": [("--graph", True, None, None, None), ("--sig", True, None, None, None),
               ("--q", True, int, None, None), ("--budget", False, int, None, None),
               _FORMAT, _JSON],
}


def test_each_command_takes_exactly_its_flags():
    commands = build_parser()._subparsers._group_actions[0].choices
    assert list(commands) == list(_COMMAND_FLAGS)
    for name, parser in commands.items():
        flags = [(*a.option_strings, a.required, a.type, a.choices, a.nargs)
                 for a in parser._actions if a.dest != "help"]
        assert flags == _COMMAND_FLAGS[name], name
        assert parser.get_default("handler") is getattr(cli, f"_cmd_{name}")


def test_the_format_choices_are_the_codec_names():
    # `cli` writes the names out so that it need not load `formats`.
    assert list(_FORMATS) == sorted(_CODECS)


def test_arrow_stdin_requires_format(capsys):
    code, _, err = run_cli(capsys, ["arrow", "--graph", "-", "--sig", "2,2"])
    assert code == 1
    assert "format" in err


def test_arrow_stdin_accepts_every_format_name(capsys, monkeypatch):
    for name in _CODECS:
        monkeypatch.setattr("sys.stdin", io.StringIO(serialize_graph(cycle(5), name)))
        code, out, _ = run_cli(capsys, ["arrow", "--graph", "-", "--format", name, "--sig", "2,2"])
        assert (code, out) == (0, "arrows: true\n"), name
    monkeypatch.setattr("sys.stdin", io.StringIO("Dhc\n"))
    code, _, err = run_cli(capsys, ["arrow", "--graph", "-", "--format", "dot", "--sig", "2,2"])
    assert code == 1
    assert "invalid choice: 'dot'" in err


def test_signature_normalization_notice(capsys, c5_path):
    code, out, err = run_cli(capsys, ["arrow", "--graph", c5_path, "--sig", "2,1,2"])
    assert code == 0
    assert "normalized to 2,2" in err
    assert "arrows: true" in out


def test_bound_composition_provenance(capsys):
    code, out, _ = run_cli(capsys, ["bound", "--sig", "3,9", "--q", "10"])
    assert code == 0
    assert "lower 22, upper 35" in out
    assert "4+5: 13+22" in out


def test_bound_exact_from_table(capsys):
    code, out, _ = run_cli(capsys, ["bound", "--sig", "2,2,4", "--q", "5"])
    assert code == 0
    assert "= 13 (exact)" in out


def test_bound_without_a_rule_has_no_bounds(capsys):
    code, out, _ = run_cli(capsys, ["bound", "--sig", "2,3,4", "--q", "5"])
    assert code == 0
    assert out.strip() == ("F(2,3,4;5): no bounds "
                           "(no rule for q=5 < m-1=6; supply known values)")


def test_bound_above_m(capsys):
    code, out, _ = run_cli(capsys, ["bound", "--sig", "3,4", "--q", "8"])
    assert code == 0
    assert "= 6 (exact)" in out


def test_bound_json_round_trip(capsys):
    code, out, _ = run_cli(capsys, ["bound", "--sig", "3,9", "--q", "10", "--json"])
    assert code == 0
    record = json.loads(out)
    assert record["result"]["lower"] == 22
    assert record["result"]["upper"] == 35
    assert record["result"]["exact"] is False
    assert any(r["rule"] == "THEOREM-COMPOSE" for r in record["result"]["provenance"])


def test_bound_extra_table(capsys, tmp_path):
    extra = tmp_path / "extra.txt"
    extra.write_text("3,9;10;-;30;local\n")
    code, out, _ = run_cli(capsys, ["bound", "--sig", "3,9", "--q", "10",
                                    "--table", str(extra)])
    assert code == 0
    assert "upper 30" in out


def test_table_cor1(capsys):
    code, out, _ = run_cli(capsys, ["table", "--kind", "cor1", "--p", "4..12"])
    assert code == 0
    assert "8 26" in out.splitlines()


def test_table_cor2(capsys):
    code, out, _ = run_cli(capsys, ["table", "--kind", "cor2", "--p", "4..12"])
    assert code == 0
    assert "7 28" in out.splitlines()


def test_table_both_has_check_column(capsys):
    code, out, _ = run_cli(capsys, ["table", "--kind", "both", "--p", "4..8", "--json"])
    assert code == 0
    rows = json.loads(out)["result"]["rows"]
    assert all(row["cor2_le_cor1"] for row in rows)
    assert rows[0] == {"p": 4, "cor1": 13, "cor2": 13, "cor2_le_cor1": True}


def test_table_bad_range(capsys):
    code, _, err = run_cli(capsys, ["table", "--kind", "cor1", "--p", "2..5"])
    assert code == 1
    assert "error:" in err


def test_table_empty_range_under_json(capsys):
    code, out, err = run_cli(capsys, ["table", "--kind", "both", "--p", "9..5", "--json"])
    assert code == 1 and err.strip() == "error: empty p range '9..5'"
    assert json.loads(out)["result"] == {"error": "empty p range '9..5'"}


@pytest.mark.parametrize("text", ["4..", "x", "4..x"])
def test_table_malformed_p_names_the_flag(capsys, text):
    message = f"error: --p expects N or LO..HI, got {text!r}"
    code, out, err = run_cli(capsys, ["table", "--kind", "both", "--p", text])
    assert code == 1 and out == "" and err.strip() == message
    code, out, err = run_cli(capsys, ["table", "--kind", "both", "--p", text, "--json"])
    assert code == 1 and err.strip() == message
    record = json.loads(out)
    assert record["command"] == "table"
    assert record["result"] == {"error": message[len("error: "):]}


def test_witness_writes_certificate(capsys, tmp_path):
    out_path = tmp_path / "w.cert"
    code, out, _ = run_cli(capsys, ["witness", "--sig", "3,3", "--q", "5",
                                    "--out", str(out_path)])
    assert code == 0
    cert = parse_certificate(out_path.read_text())
    assert cert.status == "verified"
    assert cert.vertices == 8
    assert "status: verified" in out


def test_witness_json(capsys):
    code, out, _ = run_cli(capsys, ["witness", "--sig", "2,2", "--q", "3", "--json"])
    assert code == 0
    result = json.loads(out)["result"]
    assert result["status"] == "verified"
    assert result["vertices"] == 5


def test_witness_unverified_exit_code(capsys, tmp_path):
    # A stock witness is decided at no node, so `witness` never runs out of
    # budget; an external witness with a general part does.
    code, out, _ = run_cli(capsys, ["verify", "--graph", str(_c13_path(tmp_path)),
                                    "--sig", "3,4", "--q", "5", "--budget", "5"])
    assert code == 2
    assert "status: unverified" in out


def test_verify_accepts_c5(capsys, c5_path):
    code, out, _ = run_cli(capsys, ["verify", "--graph", c5_path, "--sig", "2,2",
                                    "--q", "3"])
    assert code == 0
    assert "status: verified" in out


def test_verify_refutes_k4(capsys, tmp_path):
    path = tmp_path / "k4.g6"
    path.write_text(serialize_graph6(complete(4)) + "\n")
    code, out, _ = run_cli(capsys, ["verify", "--graph", str(path), "--sig", "2,2",
                                    "--q", "3"])
    assert code == 0
    assert "status: refuted" in out
    assert "clique:" in out


def test_verify_decides_a_64_vertex_composite_by_its_blocks(capsys, tmp_path):
    # Three self-joins of the stock (3,3;5) witness join(K1, co-C7): a
    # (3,24;33) witness whose clique check stalled when searched whole.
    g = join(complete(1), complement(cycle(7)))
    for _ in range(3):
        g = join(g, g)
    path = tmp_path / "w3_24.g6"
    path.write_text(serialize_graph6(g) + "\n")
    code, out, _ = run_cli(capsys, ["verify", "--graph", str(path), "--sig", "3,24",
                                    "--q", "33"])
    assert code == 0
    assert "status: verified" in out


def test_usage_errors_exit_one(capsys, c5_path):
    code, _, err = run_cli(capsys, ["arrow", "--graph", c5_path, "--sig", "2,x"])
    assert code == 1 and "error:" in err
    code, _, err = run_cli(capsys, ["arrow", "--graph", "/nonexistent.g6", "--sig", "2,2"])
    assert code == 1 and "error:" in err
    for sig in ("", "2,,3", "2,3,"):
        code, _, err = run_cli(capsys, ["bound", "--sig", sig, "--q", "4"])
        assert code == 1 and "error:" in err, sig


def test_errors_under_json_emit_an_envelope(capsys):
    code, out, err = run_cli(capsys, ["arrow", "--graph", "/nonexistent.g6", "--sig", "2,2",
                                      "--json"])
    assert code == 1 and err.startswith("error:")
    record = json.loads(out)
    assert set(record) == {"command", "result", "seconds", "nodes"}
    assert record["command"] == "arrow" and record["nodes"] is None
    assert record["result"] == {"error": err.strip()[len("error: "):]}


def test_a_closed_pipe_ends_the_command_quietly(capsys, monkeypatch, tmp_path):
    # As in `folkman table ... --json | head -1`: the reader is gone, so
    # there is no envelope to print and nothing to say on stderr.
    class ClosedPipe(io.FileIO):
        def write(self, data):
            raise BrokenPipeError(32, "Broken pipe")

    with ClosedPipe(tmp_path / "stdout", "w") as pipe:
        monkeypatch.setattr(sys, "stdout", pipe)
        assert main(["table", "--kind", "both", "--p", "4..40", "--json"]) == 1
        assert os.path.samestat(os.fstat(pipe.fileno()), os.stat(os.devnull))
    assert capsys.readouterr().err == ""


def _child_env() -> dict:
    """The environment of a child interpreter that imports the same package
    this test process does."""
    src = str(Path(folkman.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_module_entry_point(c5_path):
    proc = subprocess.run(
        [sys.executable, "-m", "folkman.cli", "arrow", "--graph", c5_path,
         "--sig", "2,2"],
        capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0
    assert "arrows: true" in proc.stdout


def test_importing_the_cli_loads_no_multiprocessing():
    code = "import sys, folkman.cli; assert 'multiprocessing' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], env=_child_env(), check=True)


# `bound` and `table` read no graph, so they load neither `formats` nor `graphs`.
_BOUND_MODULES = {"folkman.signatures", "folkman.bounds"}
_ARROW_MODULES = {"folkman.signatures", "folkman.formats", "folkman.graphs", "folkman.arrowing"}
_COMMAND_MODULES = {"bound": _BOUND_MODULES, "table": _BOUND_MODULES, "arrow": _ARROW_MODULES,
                    "witness": _ARROW_MODULES | {"folkman.witnesses"},
                    "verify": _ARROW_MODULES | {"folkman.witnesses"}}

# Runs `python -m folkman.cli ARGS` in this interpreter, then prints on the
# last line of stderr the package's submodules it loaded, and `dataclasses`
# if the command loaded it (it pulls in `inspect`, `ast` and `dis`).
_MODULES_PROBE = """
import runpy, sys
preloaded = set(sys.modules)
sys.argv = ["folkman", *sys.argv[1:]]
try:
    runpy.run_module("folkman.cli", run_name="__main__")
except SystemExit as exc:
    assert exc.code == 0, exc.code
print(" ".join(sorted(m for m in sys.modules if m.startswith("folkman.")
                      or m == "dataclasses" and m not in preloaded)), file=sys.stderr)
"""


def test_importing_the_package_loads_no_submodule():
    # A submodule is still an attribute of the package, imported on first use.
    code = ("import sys, folkman; print(sorted(m for m in sys.modules if 'folkman' in m)); "
            "print(folkman.graphs.__name__, folkman.cycle.__module__)")
    proc = subprocess.run([sys.executable, "-c", code], env=_child_env(),
                          capture_output=True, text=True, check=True)
    assert proc.stdout.splitlines() == ["['folkman']", "folkman.graphs folkman.graphs"]


@pytest.mark.parametrize("command", sorted(_COMMAND_MODULES))
def test_each_command_loads_only_its_modules(c5_path, command):
    argv = {"arrow": ["--graph", c5_path, "--sig", "2,2"],
            "bound": ["--sig", "3,9", "--q", "10"],
            "table": ["--kind", "both", "--p", "4..12"],
            "witness": ["--sig", "3,3", "--q", "5"],
            "verify": ["--graph", c5_path, "--sig", "2,2", "--q", "3"]}[command]
    proc = subprocess.run([sys.executable, "-c", _MODULES_PROBE, command, *argv, "--json"],
                          env=_child_env(), capture_output=True, text=True, check=True)
    assert json.loads(proc.stdout)["command"] == command
    assert set(proc.stderr.splitlines()[-1].split()) == _COMMAND_MODULES[command]
