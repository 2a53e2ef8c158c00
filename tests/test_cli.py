import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from itertools import product
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import f4weyl
from f4weyl import cli, commands, verify
from f4weyl.branching import branch_b3a1, branch_b4, project_3d
from f4weyl.cli import export_off, main, parse_label
from f4weyl.commands import build_parser
from f4weyl.duals import convex_faces, dual_cell, dual_polytope, solve_scales
from f4weyl.orbits import generate_orbit
from f4weyl.rootsys import f4_system
from f4weyl.scalar import SQRT2, FieldScalar, parse_scalar
import oracles
from oracles import cross3, dot3, sub3

# SHA-256 of stdout for every label subcommand x 0/1 label x format,
# recorded from the reference implementation
EXPECTED = Path(__file__).resolve().parents[1] / "perfbench" / "expected"
RECORDED = EXPECTED / "cli.json"
# the same for seeded random Q(sqrt2) labels; rewrite it with
# ``PYTHONPATH=src python tests/test_cli.py --record``
RANDOM_RECORDED = Path(__file__).with_name("cli_random_labels.json")


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # a usage error
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _run_script(script, *args):
    """Stdout of ``script`` run with ``args`` in a fresh interpreter that
    imports this checkout's package."""
    src = str(Path(f4weyl.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script, *args], check=True,
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path))
    return proc.stdout


def test_parse_label():
    lab = parse_label("1,0,sqrt2,1/2")
    assert lab == (FieldScalar(1), FieldScalar(0), parse_scalar("sqrt2"),
                   parse_scalar("1/2"))
    for bad in ("1,2,3", "1,2,3,4,5", "1,foo,0,0"):
        try:
            parse_label(bad)
            assert False, bad
        except ValueError:
            pass


def test_fvector_text_contains_counts():
    code, out, _ = run_cli(["fvector", "1,0,0,1"])
    assert code == 0
    assert "N0=144 N1=576 N2=672 N3=240" in out
    assert "octahedron" in out and "triangular prism" in out


def test_branch_b4_text():
    code, out, _ = run_cli(["branch-b4", "0,0,0,1"])
    assert code == 0
    assert out == "(0,0,0,1)_F4 = (0,1,0,0)_B4\n"
    code, out, _ = run_cli(["branch-b4", "1,1,0,0"])
    assert out == ("(1,1,0,0)_F4 = (0,0,sqrt2,1)_B4 + (sqrt2,0,0,2)_B4"
                   " + (2sqrt2,0,0,1)_B4\n")


def test_branch_b3a1_text():
    code, out, _ = run_cli(["branch-b3a1", "1,0,0,0"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "(1,0,0,0)_F4 ="
    assert "(0,0,0)_B3 +/- 1  (1 vertex each)" in lines[1]


def test_zero_label_is_an_error():
    for cmd in ("orbit", "fvector", "branch-b4", "branch-b3a1", "project",
                "dual", "export"):
        code, out, err = run_cli([cmd, "0,0,0,0"])
        assert (code, out) == (1, "")
        assert err == ("error for label (0,0,0,0): the zero label spans no "
                       "polytope\n"), cmd


def test_malformed_label_is_a_usage_error(capsys):
    for label in ("1,0,0", "1/0,0,0,1", "sqrt2/0,0,0,1", "١,0,0,１",
                  "-,0,0,0"):
        try:
            main(["fvector", label])
            assert False
        except SystemExit as exc:
            assert exc.code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and label in err, err


def test_malformed_scale_is_a_usage_error(capsys):
    # the error names the scale, not the (valid) label
    for scale in ("1/0", "x", "0", "-1", "-sqrt2", "-x"):
        try:
            main(["project", "1,0,0,0", "--scale", scale])
            assert False
        except SystemExit as exc:
            assert exc.code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"scale {scale!r}" in err, err
        assert "label" not in err, err


@pytest.mark.parametrize("text", ["1 2", "1/2 3", "1 2sqrt2"])
def test_space_inside_a_number_is_a_usage_error(text, capsys):
    # digits split only by spaces are refused, not joined into one number
    for argv, named in ((["fvector", f"{text},0,0,1"], f"label '{text},0,0,1'"),
                        (["project", "1,0,0,1", "--scale", text],
                         f"scale {text!r}")):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and named in err, err
        assert f"space inside a number in scalar literal {text!r}" in err, err


def test_malformed_seed_is_a_usage_error(capsys):
    # int() would take the Arabic-Indic and fullwidth digits as seed 1
    for seed in ("\u0661", "\uff11", "x", "-x"):
        try:
            main(["verify", "--seed", seed])
            assert False
        except SystemExit as exc:
            assert exc.code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"seed {seed!r}" in err, err
        assert "Traceback" not in err and "usage" not in err, err


def test_argparse_errors_are_one_line(capsys):
    # argparse quotes the invalid-choice list up to Python 3.13.12 and
    # leaves it bare from 3.13.13 on; either rendering is one line
    for argv, messages in (
            (["fvector", "1,0,0,1", "-x"],
             ["f4weyl: error: unrecognized arguments: -x"]),
            (["fvector", "1,0,0,1", "--format", "xml"],
             ["f4weyl fvector: error: argument --format: invalid choice: "
              f"'xml' (choose from {choices})"
              for choices in ("'text', 'json'", "text, json")]),
            ([], ["f4weyl: error: the following arguments are required: "
                  "command"])):
        try:
            main(argv)
            assert False, argv
        except SystemExit as exc:
            assert exc.code == 2
        assert capsys.readouterr().err in [m + "\n" for m in messages]


def test_negative_label_reaches_the_validator():
    # exit 1 and one stderr line, whose prefix is the one place that
    # names the label
    for text in ("-1,0,0,0", "-1/2,1,0,0", "1-sqrt2,0,0,1", "1,-1,0,0"):
        for cmd in ("orbit", "fvector", "branch-b4", "branch-b3a1",
                    "project", "dual", "export"):
            code, out, err = run_cli([cmd, text])
            assert code == 1 and out == ""
            assert err == (f"error for label ({text}): the label is not "
                           "dominant (negative entry)\n")
            assert err.count(text) == 1, (cmd, err)


def test_double_dash_label_reaches_the_parser():
    # a value starting with "--" and a digit is a label, not an option: it
    # reaches the literal parser and is named in a one-line usage error;
    # "--" then a letter, "_" or "-" stays an option, and "--" ends them
    code, out, err = run_cli(["fvector", "--1,0,0,1"])
    assert (code, out) == (2, "")
    assert err == ("f4weyl: error: label '--1,0,0,1': bad scalar literal: "
                   "'--1' (at '--1')\n")
    text, json_out = (run_cli(["fvector", "1,0,0,1", *fmt])
                      for fmt in ([], ["--format", "json"]))
    assert text[0] == json_out[0] == 0 and json_out[1].startswith("{")
    assert run_cli(["fvector", "1,0,0,1", "--format=json"]) == json_out
    assert run_cli(["fvector", "--", "1,0,0,1"]) == text
    for option in ("--xyz", "---", "--_x"):
        assert run_cli(["fvector", "1,0,0,1", option]) == (
            2, "", f"f4weyl: error: unrecognized arguments: {option}\n")


# help, usage and error texts with their exit codes, as argparse renders
# them at 80 columns.  Where argparse's rendering changed between Python
# releases, each rendering is listed: 3.13 wraps the top-level usage line
# differently, and later 3.13 releases drop the quotes around the choices
_TOP_USAGE = ("usage: f4weyl [-h]\n"
              "              {verify,orbit,fvector,branch-b4,branch-b3a1,"
              "project,dual,export}%s...\n")
_TOP_HELP = """
exact F4 orbit polytopes, branchings and duals

positional arguments:
  {verify,orbit,fvector,branch-b4,branch-b3a1,project,dual,export}
    verify              run the full invariant battery
    orbit               orbit vertices and counts
    fvector             vertex/edge/face/cell counts and inventories
    branch-b4           split into signed-permutation orbits
    branch-b3a1         slice into octahedral orbits by height
    project             exact 3D layer decomposition
    dual                dual polytope: scales, shells, cell
    export              OFF mesh of the dual cell

options:
  -h, --help            show this help message and exit
"""
_LABEL_HELP = """\
usage: f4weyl {} [-h] [--format {{text,json}}] [--output OUTPUT] label

positional arguments:
  label                 four comma-separated scalars, e.g. 1,0,0,1

options:
  -h, --help            show this help message and exit
  --format {{text,json}}
  --output OUTPUT
"""
_CHOICES = "verify, orbit, fvector, branch-b4, branch-b3a1, project, dual, export"
_B4_JSON = """\
{
  "label": "(1,0,0,0)",
  "parts": [
    {
      "labels": "(0,0,0,1)",
      "size": 16
    },
    {
      "labels": "(sqrt2,0,0,0)",
      "size": 8
    }
  ]
}
"""
_B4_TEXT = "(1,0,0,0)_F4 = (0,0,0,1)_B4 + (sqrt2,0,0,0)_B4\n"
PINNED_TEXTS = {
    "-h": (0, [_TOP_USAGE % s + _TOP_HELP for s in ("\n              ", " ")],
           ""),
    "verify -h": (0, """\
usage: f4weyl verify [-h] [--seed SEED] [--format {text,json}]
                     [--output OUTPUT] [--timings]

options:
  -h, --help            show this help message and exit
  --seed SEED           seed for the randomized property checks
  --format {text,json}
  --output OUTPUT
  --timings             report the wall time of each check
""", ""),
    **{f"{cmd} -h": (0, _LABEL_HELP.format(cmd), "")
       for cmd in ("orbit", "fvector", "branch-b4", "branch-b3a1", "dual")},
    "project -h": (0, """\
usage: f4weyl project [-h] [--format {text,json}] [--scale SCALE]
                      [--output OUTPUT]
                      label

positional arguments:
  label                 four comma-separated scalars, e.g. 1,0,0,1

options:
  -h, --help            show this help message and exit
  --format {text,json}
  --scale SCALE         positive scalar applied to the orbit
  --output OUTPUT
""", ""),
    "export -h": (0, """\
usage: f4weyl export [-h] [--format {off}] [--output OUTPUT] label

positional arguments:
  label            four comma-separated scalars, e.g. 1,0,0,1

options:
  -h, --help       show this help message and exit
  --format {off}
  --output OUTPUT
""", ""),
    "": (2, "", "f4weyl: error: the following arguments are required: "
                "command\n"),
    "nosuch 1,0,0,1": (2, "", [
        "f4weyl: error: argument command: invalid choice: 'nosuch' "
        f"(choose from {choices})\n"
        for choices in (", ".join(f"'{c}'" for c in _CHOICES.split(", ")),
                        _CHOICES)]),
    "fvector": (2, "", "f4weyl fvector: error: the following arguments are "
                       "required: label\n"),
    "branch-b4 1,0,0,0 --format xml": (2, "", [
        "f4weyl branch-b4: error: argument --format: invalid choice: 'xml' "
        f"(choose from {choices})\n"
        for choices in ("'text', 'json'", "text, json")]),
    "branch-b4 1,0,0,0 --bogus": (
        2, "", "f4weyl: error: unrecognized arguments: --bogus\n"),
    "branch-b4 1,0,0,0 --format=json": (0, _B4_JSON, ""),
    "branch-b4 -- 1,0,0,0": (0, _B4_TEXT, ""),
    "branch-b4 1,0,0,0 --form json": (0, _B4_JSON, ""),
    "branch-b4 1,0,0,0 --format json --format text": (0, _B4_TEXT, ""),
    "branch-b4 1,0,0,0 --output {missing}": (
        1, "", "error: cannot write {missing}: [Errno 2] No such file or "
               "directory: '{missing}'\n"),
    "fvector 1,0,0,1 --output=": (
        1, "", "error: cannot write : [Errno 2] No such file or directory: "
               "''\n"),
    "verify --seed x": (2, "", "f4weyl: error: seed 'x' must be an "
                               "integer\n"),
    "fvector 1,2x,0,0": (2, "", "f4weyl: error: label '1,2x,0,0': bad "
                                "scalar literal: '2x' (at 'x')\n"),
    "fvector -1,0,0,0": (1, "", "error for label (-1,0,0,0): the label is "
                                "not dominant (negative entry)\n"),
    # "--name=--": an empty list from argparse up to Python 3.12, which main
    # refuses, and the value "--" from 3.13 on
    "verify --seed=--": (2, "", [
        "f4weyl: error: argument --seed: expected one argument\n",
        "f4weyl: error: seed '--' must be an integer\n"]),
    "project 1,0,0,0 --scale=--": (2, "", [
        "f4weyl: error: argument --scale: expected one argument\n",
        "f4weyl: error: scale '--': bad scalar literal: '--' (at '--')\n"]),
    "fvector 1,0,0,1 --format=--": (2, "", [
        "f4weyl: error: argument --format: expected one argument\n",
        *("f4weyl fvector: error: argument --format: invalid choice: '--' "
          f"(choose from {choices})\n"
          for choices in ("'text', 'json'", "text, json"))]),
}


def test_cli_texts_are_pinned(tmp_path, monkeypatch):
    # every help text, usage error and command error keeps its bytes and
    # its exit code, whichever parser reads the command line
    monkeypatch.setenv("COLUMNS", "80")
    missing = str(tmp_path / "missing" / "cell.off")
    for key, want in PINNED_TEXTS.items():
        argv = [a.replace("{missing}", missing) for a in key.split()]
        code, out, err = run_cli(argv)
        assert code == want[0], (key, code, err)
        for text, pinned in ((out, want[1]), (err, want[2])):
            pinned = pinned if isinstance(pinned, list) else [pinned]
            assert text in [p.replace("{missing}", missing)
                            for p in pinned], (key, text)


# grammar-biased fuzz alphabet: the literal grammar's tokens, separators and
# digits that are not ASCII
_TOKENS = ("0", "1", "2", "7", "12", "18446744073709551617", "/", "+", "-",
           "*", "sqrt2", " ", ",", "١", "１", "१")
_SOUP = st.lists(st.sampled_from(_TOKENS), max_size=10).map("".join)
# a literal-shaped entry (sign, rational, surd term), so that valid and
# dominant labels come often; each list starts with its simplest choice,
# which hypothesis draws most, and that gives a valid entry
_LITERAL = st.builds(
    "{}{}{}".format, st.sampled_from(("", "+", "-")),
    st.sampled_from(("1", "2", "7", "1/2", "12/7", "0",
                     "18446744073709551617")),
    st.sampled_from(("", "sqrt2", "*sqrt2", "+sqrt2", "-sqrt2",
                     "-1/3sqrt2")))
_ENTRY = st.one_of(_LITERAL, _SOUP)
# nonnegative entries, so that the JSON of every command is checked often
_DOMINANT = st.sampled_from(("1", "0", "2+sqrt2", "1/2", "sqrt2",
                             "7/12-1/3sqrt2", "18446744073709551617"))
_LABEL = st.one_of(*(st.lists(e, min_size=4, max_size=4).map(",".join)
                     for e in (_DOMINANT, _LITERAL, _ENTRY)), _SOUP)
# "--" is drawn explicitly: the soup can spell it, but seldom does
_SEED = st.one_of(st.integers(-10 ** 20, 10 ** 20).map(str), _SOUP,
                  st.just("--"))
_SCALE = st.one_of(_ENTRY, st.just("--"))


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(text=_ENTRY)
def test_parse_of_fuzzed_entries_matches_fraction_parser(text):
    # the digits of each term are read as integers; value and error
    # message are those of the Fraction-based parser
    assert oracles.parse_outcome(parse_scalar, text) == \
        oracles.parse_outcome(oracles.parse_scalar_fraction, text)


def fuzzed_argv(cmd, label, scale, seed, json_out, usual):
    if cmd == "verify":
        argv = ["verify"] + (["--seed", seed] if usual else [f"--seed={seed}"])
    else:
        argv = [cmd, label] if usual else [cmd]
        if cmd == "project":
            argv += ["--scale", scale] if usual else [f"--scale={scale}"]
    if json_out and cmd != "export":
        argv.append("--format=json")
    if cmd != "verify" and not usual:
        argv += ["--", label]
    return argv


def parsers_agree(argv):
    """Whether the table parse accepts ``argv``; where it does, its
    namespace is argparse's, and where argparse exits, it defers."""
    table = commands._table_parse(list(argv))
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            want = vars(build_parser().parse_args(argv))
        except SystemExit:  # help or a usage error
            want = None
    assert table is None or vars(table) == want, (argv, vars(table), want)
    return table is not None


def _labels(text):
    """The scalars of a rendered label ``(a,b,c,d)``, parsed back."""
    assert text[0] == "(" and text[-1] == ")", text
    return tuple(parse_scalar(t) for t in text[1:-1].split(","))


def _check_json_scalars(cmd, payload, label, scale):
    """Every scalar in ``payload`` parses back to the library's value."""
    sys_f4 = f4_system()
    assert _labels(payload["label"]) == label
    if cmd == "orbit":
        assert [[parse_scalar(c) for c in v] for v in payload["vertices"]] \
            == [list(v.components())
                for v in generate_orbit(sys_f4, label).vertices]
    elif cmd == "branch-b4":
        assert [_labels(p["labels"]) for p in payload["parts"]] == \
            [p.labels for p in branch_b4(label)]
    elif cmd == "branch-b3a1":
        assert [(_labels(s["labels"]), parse_scalar(s["height"]))
                for s in payload["slices"]] == \
            [(s.labels, s.height) for s in branch_b3a1(label)]
    elif cmd == "project":
        assert parse_scalar(payload["scale"]) == scale
        assert [(parse_scalar(layer["height"]),
                 [tuple(map(parse_scalar, p)) for p in layer["points"]])
                for layer in payload["layers"]] == \
            [(h, list(pts)) for h, pts in project_3d(label, scale)]
    elif cmd == "dual":
        dual, cell = dual_polytope(sys_f4, label), dual_cell(sys_f4, label)
        assert [parse_scalar(s["scale"]) for s in payload["scales"]] == \
            [s.scale for s in dual.shells]
        assert [parse_scalar(s["radius_sq"]) for s in payload["shells"]] \
            == [s.radius_sq for s in dual.shells]
        assert parse_scalar(payload["cell"]["row_scale"]) == cell.row_scale
        assert [(r["node"], tuple(map(parse_scalar, r["coords"])))
                for r in payload["cell"]["vertices"]] == cell.rows()


@pytest.mark.parametrize("cmd", ("verify", "orbit", "fvector", "branch-b4",
                                 "branch-b3a1", "project", "dual", "export"))
@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(label=_LABEL, scale=_SCALE, seed=_SEED,
       json_out=st.sampled_from((True, False)),
       usual=st.sampled_from((True, False)))
def test_fuzzed_arguments_exit_cleanly(cmd, label, scale, seed, json_out,
                                       usual):
    # each value is drawn in its usual place (a label such as "-,0,0,0"
    # first, "--scale -x") or behind "--" and in the --name=value form;
    # either way it reaches the program's own validators or argparse's
    # one-line error
    seen = []
    argv = fuzzed_argv(cmd, label, scale, seed, json_out, usual)
    # the battery's run is replaced by a recorder: the seed's way through
    # main is what is fuzzed here, and the battery takes 1 s
    with mock.patch.object(verify, "run_all",
                           lambda seed: seen.append(seed) or []):
        code, out, err = run_cli(argv)
    assert code in (0, 1, 2), argv
    if code:
        assert err.count("\n") == 1 and err.endswith("\n"), (argv, err)
        assert "Traceback" not in err and out == "", (argv, err)
        return
    assert err == "", (argv, err)
    if cmd == "verify":
        assert seen == [int(seed)] and re.fullmatch(r"-?[0-9]+", seed)
    elif json_out and cmd != "export":
        _check_json_scalars(cmd, json.loads(out), parse_label(label),
                            parse_scalar(scale) if cmd == "project" else None)


@pytest.mark.parametrize("cmd", ("verify", "orbit", "fvector", "branch-b4",
                                 "branch-b3a1", "project", "dual", "export"))
@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(label=_LABEL, scale=_SCALE, seed=_SEED,
       json_out=st.sampled_from((True, False)),
       usual=st.sampled_from((True, False)))
def test_table_parse_agrees_with_argparse_on_fuzzed_arguments(
        cmd, label, scale, seed, json_out, usual):
    # the corpus of test_fuzzed_arguments_exit_cleanly; the --name=value
    # and "--" forms always go to argparse
    accepted = parsers_agree(fuzzed_argv(cmd, label, scale, seed, json_out,
                                         usual))
    assert usual or not accepted


# command lines the table parse defers, beside the pinned ones: a second
# label, an option twice, an option of another command, a missing value,
# a refused choice, "--label", a value "-" then a non-digit and an empty
# or unknown command
DEFERRED = (["fvector", "1,0,0,1", "0,1,0,0"], ["fvector", "--label", "x"],
            ["verify", "--timings", "--timings"],
            ["verify", "--seed", "1", "--seed", "2"],
            ["fvector", "1,0,0,1", "--scale", "2"],
            ["fvector", "--timings", "1,0,0,1"], ["verify", "1,0,0,1"],
            ["project", "1,0,0,1", "--scale"],
            ["export", "1,0,0,1", "--format", "text"],
            ["fvector", "-x,0,0,0"], ["fvector", "1,0,0,1", "--output"],
            ["project", "1,0,0,1", "--scale", "-sqrt2"],
            ["fvector", "--format", "--output", "x", "1,0,0,1"],
            ["", "1,0,0,1"], ["FVECTOR", "1,0,0,1"])
# command lines it accepts that no recorded run holds: options before the
# label, empty values, values "-" and "-" then a digit (argparse reads
# each as an argument) and every verify option
ACCEPTED = (["fvector", "-"], ["project", "1,0,0,1", "--scale", "-1"],
            ["verify", "--seed", "-3"], ["fvector", "-1/2,0,0,1"],
            ["fvector", "--format", "json", "1,0,0,1"],
            ["project", "--scale", "2", "--output", "o.txt", "1,0,0,1"],
            ["fvector", ""], ["export", "1,0,0,1", "--output", ""],
            ["verify", "--seed", "7", "--timings", "--format", "json",
             "--output", "report.json"], ["verify", "--timings"],
            ["export", "1,0,0,1", "--format", "off"])


def test_table_parse_agrees_with_argparse():
    # every recorded command is accepted, so the agreement is not vacuous
    recorded = [key.split() for key in
                json.loads(RANDOM_RECORDED.read_text())]
    recorded += [[cmd, label] + (["--format", "json"] if fmt == "json"
                                 else [])
                 for cmd, label, fmt in map(str.split,
                                            json.loads(RECORDED.read_text()))]
    assert len(recorded) == 544 + 195
    assert [argv for argv in recorded + list(ACCEPTED)
            if not parsers_agree(argv)] == []
    assert [argv for argv in DEFERRED if parsers_agree(argv)] == []
    # of the pinned command lines, only those whose error comes after the
    # parse: an unwritable output, a bad seed, a bad literal and a negative
    # label
    assert {key for key in PINNED_TEXTS if parsers_agree(key.split())} == {
        "branch-b4 1,0,0,0 --output {missing}", "verify --seed x",
        "fvector 1,2x,0,0", "fvector -1,0,0,0"}


def test_table_parse_reads_the_label_through_the_module(monkeypatch):
    # the benchmark's tracer spans cli.parse_label by rebinding the name
    seen = []
    monkeypatch.setattr(cli, "parse_label",
                        lambda text: seen.append(text) or parse_label(text))
    assert run_cli(["fvector", "1,0,0,1"])[0] == 0
    assert seen == ["1,0,0,1"]


def test_orbit_json_schema():
    code, out, _ = run_cli(["orbit", "0,0,0,1", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["label"] == "(0,0,0,1)"
    assert (payload["N0"], payload["N1"], payload["N2"], payload["N3"]) == \
        (24, 96, 96, 24)
    assert len(payload["vertices"]) == 24
    assert ["1", "1", "0", "0"] in payload["vertices"]
    assert {e["name"] for e in payload["cell_inventory"]} == {"octahedron"}


def test_dual_json_schema():
    code, out, _ = run_cli(["dual", "0,1,0,0", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["vertex_count"] == 48 and payload["cell_count"] == 96
    scales = {entry["node"]: entry["scale"] for entry in payload["scales"]}
    assert scales == {1: "2/3sqrt2", 4: "1"}
    for shell in payload["shells"]:
        assert abs(shell["radius"] ** 2
                   - float(parse_scalar(shell["radius_sq"]))) < 1e-12
    rows = {tuple(v["coords"]) for v in payload["cell"]["vertices"]}
    assert ("2/3", "2/3", "2/3") in rows


# 1 followed by 600 sevens: each entry parses under the interpreter's
# int-to-str limit of 4300 digits, but the dual's scales run to 9017
# characters
BIG = "1" + "7" * 600
BIG_LABEL = f"{BIG}/3+sqrt2,0,1/{BIG},2"
# no-ops on Python 3.10.0-3.10.6, which has no such limit
get_str_digits = getattr(sys, "get_int_max_str_digits", lambda: 0)
set_str_digits = getattr(sys, "set_int_max_str_digits", lambda n: None)


def test_dual_answers_a_label_past_the_str_digit_limit():
    limit = get_str_digits()
    code, out, err = run_cli(["dual", BIG_LABEL, "--format", "json"])
    assert (code, err) == (0, "")
    assert get_str_digits() == limit  # main restores the limit
    scales = solve_scales(f4_system(), parse_label(BIG_LABEL))
    set_str_digits(0)
    try:
        expected = [{"node": j, "scale": str(s)} for j, s in scales.items()]
    finally:
        set_str_digits(limit)
    assert json.loads(out)["scales"] == expected
    assert max(len(s["scale"]) for s in expected) == 9017


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="the interpreter has no int-to-str limit")
def test_literal_past_the_str_digit_limit_is_a_usage_error():
    # a command that lifts the limit first: the parse after it still
    # runs under the limit
    assert run_cli(["fvector", "1,0,0,1"])[0] == 0
    code, out, err = run_cli(["dual", "1" * 4301 + ",0,0,1"])
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1
    assert err.startswith("f4weyl: error: label ")


def test_export_refuses_coordinates_past_float_range(monkeypatch):
    # the float lines come first: the slow hull is never reached
    from f4weyl import duals

    def unreachable(points):
        raise AssertionError("convex_faces ran before the float check")

    monkeypatch.setattr(duals, "convex_faces", unreachable)
    code, out, err = run_cli(["export", BIG_LABEL])
    assert (code, out) == (1, "")
    assert len(err.splitlines()) == 1
    assert err.endswith(": OFF coordinate too large for a float\n")


def test_project_halfscale_layers():
    code, out, _ = run_cli(["project", "1,0,0,0", "--scale", "1/sqrt2"])
    assert code == 0
    assert "5 layers" in out.splitlines()[0]
    assert "h = 1/4sqrt2  (8 points)" in out


def test_determinism_byte_identical():
    for argv in (["orbit", "1,0,0,1", "--format", "json"],
                 ["export", "1,0,0,1"],
                 ["dual", "1,1,1,1", "--format", "json"]):
        _, first, _ = run_cli(argv)
        _, second, _ = run_cli(argv)
        assert first == second and first


def test_recorded_outputs_byte_identical():
    recorded = json.loads(RECORDED.read_text())
    assert len(recorded) == 195
    wrong = []
    for key, want in recorded.items():
        cmd, label, fmt = key.split()
        argv = [cmd, label] + (["--format", "json"] if fmt == "json" else [])
        code, out, _ = run_cli(argv)
        data = out.encode()
        if (code, len(data), hashlib.sha256(data).hexdigest()) != (
                0, want["bytes"], want["sha256"]):
            wrong.append(key)
    assert not wrong


def random_label_runs():
    """argv of every label command x format on two seeded random labels per
    0/1 pattern (some entries with negative rational or sqrt2 parts) and
    two more, one past 2^64; ``project`` at scales 1, 1/2+sqrt2 and
    3-sqrt2."""
    labels = [",".join(map(str, labels))
              for labels in oracles.pattern_labels(2, 16)]
    labels += ["18446744073709551617,0,1/3,5-sqrt2", "0,7/3-sqrt2,0,1"]
    runs = []
    for label in labels:
        runs.append(["export", label])
        for fmt in ("text", "json"):
            for cmd in ("orbit", "fvector", "branch-b4", "branch-b3a1",
                        "dual"):
                runs.append([cmd, label, "--format", fmt])
            for scale in ("1", "1/2+sqrt2", "3-sqrt2"):
                runs.append(["project", label, "--format", fmt,
                             "--scale", scale])
    return runs


def _stdout_record(argv):
    code, out, _ = run_cli(argv)
    assert code == 0, argv
    data = out.encode()
    return {"bytes": len(data), "sha256": hashlib.sha256(data).hexdigest()}


def test_random_label_outputs_byte_identical():
    recorded = json.loads(RANDOM_RECORDED.read_text())
    runs = random_label_runs()
    assert sorted(recorded) == sorted(" ".join(argv) for argv in runs)
    wrong = [" ".join(argv) for argv in runs
             if _stdout_record(argv) != recorded[" ".join(argv)]]
    assert not wrong


def test_random_label_payload_invariants():
    # each JSON payload against counts read off the payloads themselves,
    # on two seeded random labels of each 0/1 pattern and a surd label
    texts = [",".join(map(str, labels))
             for labels in oracles.pattern_labels(2, 20)]
    for text in texts + ["7/3-sqrt2,0,1/2+sqrt2,2"]:
        payloads = {}
        for cmd in ("orbit", "fvector", "branch-b4", "branch-b3a1", "dual"):
            code, out, _ = run_cli([cmd, text, "--format", "json"])
            assert code == 0, (cmd, text)
            payloads[cmd] = json.loads(out)
        n0, n3 = payloads["fvector"]["N0"], payloads["fvector"]["N3"]
        rows = {tuple(v) for v in payloads["orbit"]["vertices"]}
        assert len(rows) == payloads["orbit"]["N0"] == n0, text
        parts = payloads["branch-b4"]["parts"]
        assert sum(p["size"] for p in parts) == n0, text
        slices = payloads["branch-b3a1"]["slices"]
        assert sum(s["size"] * (1 + s["paired"]) for s in slices) == n0, text
        dual = payloads["dual"]
        assert sum(s["size"] for s in dual["shells"]) == \
            dual["vertex_count"] == n3, text
        code, out, _ = run_cli(["export", text])
        assert code == 0, text
        nv, nf, ne = map(int, out.splitlines()[1].split())
        assert nv - ne + nf == 2, (text, nv, nf, ne)


@pytest.mark.parametrize("label", ("1,1,1,1", "0,1,1,0", "1/2+sqrt2,0,3,0"))
@pytest.mark.parametrize("fmt", ("text", "json"))
def test_orbit_renders_each_scalar_once(label, fmt):
    # 4 str calls for the label and 1 per distinct coordinate pair of the
    # integer rows: the text lines are rendered from the JSON payload's
    # component strings
    calls = []
    plain = FieldScalar.__str__

    def counting(self):
        calls.append(1)
        return plain(self)

    orbit = generate_orbit(f4_system(), parse_label(label))
    vertices = orbit.vertices
    pairs = {r[k:k + 2] for r in orbit.rows for k in (0, 2, 4, 6)}
    with mock.patch.object(FieldScalar, "__str__", counting):
        code, out, _ = run_cli(["orbit", label, "--format", fmt])
    assert code == 0
    assert len(calls) == len(pairs) + 4, (len(calls), len(pairs))
    if fmt == "text":
        assert out.splitlines()[1:] == list(map(oracles.quaternion_str,
                                                vertices))


def test_label_command_leaves_unit_tables_unbuilt():
    # a label command works in label space: building the group tables
    # would be a large share of a cold run's time
    script = ("import io, contextlib\n"
              "from f4weyl import binocta, cli\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              "    assert cli.main(['dual', '1,1,1,1']) == 0\n"
              "print(binocta.unit_tables.cache_info().currsize)\n")
    assert _run_script(script) == "0\n"


LABEL_COMMANDS = (["orbit", "1,1,0,1"], ["fvector", "1,0,0,1"],
                  ["branch-b4", "1,1,1,1"], ["branch-b3a1", "0,1,1,0"],
                  ["project", "1,0,0,1", "--scale", "1/2"],
                  ["dual", "1,0,1,0", "--format", "json"],
                  ["export", "1,0,0,1"])


# the layers each label command does not run
NOT_RUN = {"orbit": ("branching", "duals"), "fvector": ("branching", "duals"),
           "branch-b4": ("duals",), "branch-b3a1": ("duals",),
           "project": ("duals",), "dual": ("branching",),
           "export": ("branching",)}


def test_label_commands_leave_verify_refdata_binocta_unloaded():
    # the golden tables, the battery and the group layer cost a cold start
    # more than a label; no label command reads them, none loads a layer it
    # does not run, and a text command does not load json.  A well-formed
    # command is parsed without argparse, and only orbit renders
    # quaternions
    script = ("import io, sys, contextlib\n"
              "before = set(sys.modules)\n"
              "from f4weyl import cli\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              "    assert cli.main(sys.argv[1:]) == 0\n"
              "print(' '.join(sorted(set(sys.modules) - before)))\n")
    for argv in LABEL_COMMANDS:
        loaded = set(_run_script(script, *argv).split())
        unused = {"f4weyl." + m for m in
                  ("refdata", "verify", "binocta") + NOT_RUN[argv[0]]}
        # the scalars compute on integers: no label command loads the
        # rational and decimal number modules
        unused |= {"fractions", "decimal", "numbers", "argparse"}
        if "json" not in argv:
            unused.add("json")
        if argv[0] != "orbit":
            unused.add("f4weyl.quat")
        assert not loaded & unused, (argv, sorted(loaded & unused))


def _clean_interpreter_run(*args, script=None):
    # python -S: no site module, so what loads is what f4weyl imports
    # (-X importtime names each module as it loads); the command line, or
    # with ``script`` that script
    src = str(Path(f4weyl.__file__).resolve().parents[1])
    run = ["-m", "f4weyl"] if script is None else ["-c", script]
    proc = subprocess.run(
        [sys.executable, "-S", "-X", "importtime", *run, *args],
        capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=src))
    return proc.stdout, {line.rsplit("|", 1)[-1].strip()
                         for line in proc.stderr.splitlines()}


def test_clean_interpreter_label_command_leaves_typing_unloaded():
    out, loaded = _clean_interpreter_run("fvector", "1,0,0,1")
    assert out.startswith("(1,0,0,1)  N0=144 ")
    assert "f4weyl.cli" in loaded
    assert not {"typing", "argparse", "f4weyl.quat"} & loaded
    # no label command compiles the verify-only code, not even through
    # the duals and branching forwarders to it
    for argv in LABEL_COMMANDS:
        _, loaded = _clean_interpreter_run(*argv)
        assert not {"typing", "f4weyl.verify"} & loaded, argv
        assert "f4weyl.commands" in loaded, argv  # main loads the table


def test_clean_interpreter_export_off_leaves_commands_unloaded():
    # a library caller (the benchmark's label worker among them) imports
    # cli for its helpers and compiles no command code; import f4weyl.cli
    # loads neither the orbit layer nor dataclasses
    script = ("import sys\n"
              "from f4weyl.cli import export_off, parse_label, parse_scale\n"
              "print(*sorted({'f4weyl.orbits', 'dataclasses'}"
              " & set(sys.modules)))\n"
              "from f4weyl.duals import dual_cell\n"
              "from f4weyl.rootsys import f4_system\n"
              "cell = dual_cell(f4_system(), parse_label('1,0,0,1'))\n"
              "print(export_off([u for _, u in cell.rows()]).split()[:4],"
              " parse_scale('1/2'))\n")
    out, loaded = _clean_interpreter_run(script=script)
    assert out == "\n['OFF', '10', '8', '16'] 1/2\n"
    assert "f4weyl.cli" in loaded and "f4weyl.duals" in loaded
    assert "f4weyl.commands" not in loaded


def test_clean_interpreter_verify_leaves_typing_unloaded():
    out, loaded = _clean_interpreter_run("verify", "--format", "json")
    assert json.loads(out)["ok"] is True
    assert {"f4weyl.verify", "f4weyl.commands"} <= loaded
    assert "typing" not in loaded


def test_verify_json_default_seed():
    code, out, _ = run_cli(["verify", "--format", "json"])
    payload = json.loads(out)
    assert code == 0 and payload["ok"] and payload["seed"] == 314159
    assert "timings" not in payload


def test_verify_runs_without_numpy():
    # a checkout runs on an interpreter with no third-party package
    script = ("import io, sys, contextlib\n"
              "sys.modules['numpy'] = None\n"
              "from f4weyl import cli\n"
              "out = io.StringIO()\n"
              "with contextlib.redirect_stdout(out):\n"
              "    code = cli.main(['verify'])\n"
              "print(code)\n"
              "sys.stdout.write(out.getvalue())\n")
    code, report = _run_script(script).split("\n", 1)
    assert code == "0"
    assert report.encode() == (EXPECTED / "verify_report.txt").read_bytes()


def test_export_faces_counter_clockwise_from_outside():
    big = 10 ** 17
    labels = [p for p in product((0, 1), repeat=4) if any(p)]
    labels += [(1, 0, 0, big), (big, 0, 1, 0), (1, big, 0, 0)]
    for label in labels:
        pts = sorted(u for _, u in dual_cell(f4_system(), label).coords)
        n = len(pts)
        total = tuple(sum((p[a] for p in pts), FieldScalar(0))
                      for a in range(3))
        for cycle in convex_faces(pts):
            for i in range(len(cycle)):
                a, b, c = (pts[cycle[i - 2]], pts[cycle[i - 1]],
                           pts[cycle[i]])
                # n * a - total points from the centroid out through a
                out_dir = sub3(tuple(x * n for x in a), total)
                turn = cross3(sub3(b, a), sub3(c, b))
                assert dot3(turn, out_dir).sign() > 0, (label, cycle)
        code, text, _ = run_cli(["export", ",".join(map(str, label))])
        assert code == 0
        nv, nf, ne = map(int, text.splitlines()[1].split())
        assert nv - ne + nf == 2, (label, nv, nf, ne)


def test_export_bipyramid_counts():
    code, out, _ = run_cli(["export", "0,1,0,0"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "OFF"
    assert lines[1] == "5 6 9"
    faces = lines[2 + 5:]
    assert len(faces) == 6
    assert all(line.startswith("3 ") for line in faces)


def test_export_trapezohedron_counts():
    for label in ("1,0,0,1", "7/3-sqrt2,0,0,1/2+sqrt2"):
        code, out, _ = run_cli(["export", label])
        assert code == 0
        lines = out.splitlines()
        nv, nf, ne = map(int, lines[1].split())
        assert (nv, nf, ne) == (10, 8, 16)
        assert nv - ne + nf == 2
        faces = lines[2 + nv:]
        assert all(line.startswith("4 ") for line in faces)
        for line in faces:
            idx = list(map(int, line.split()[1:]))
            assert len(set(idx)) == 4


def test_export_off_vertex_precision():
    text = export_off([(parse_scalar(x), parse_scalar(y), parse_scalar(z))
                       for x, y, z in (("1", "0", "0"), ("-1", "0", "0"),
                                       ("0", "1", "0"), ("0", "-1", "0"),
                                       ("0", "0", "1"), ("0", "0", "-1"))])
    lines = text.splitlines()
    assert lines[1] == "6 8 12"
    assert lines[2] == "-1 0 0"
    # a surd coordinate keeps 17 significant digits
    kite = export_off([(parse_scalar(x), parse_scalar(y), parse_scalar(z))
                       for x, y, z in (("1", "0", "0"), ("-1", "0", "0"),
                                       ("0", "sqrt2", "0"), ("0", "-1", "0"),
                                       ("0", "0", "1"), ("0", "0", "-1"))])
    assert "1.4142135623730951" in kite


def test_convex_faces_rejects_degenerate_input():
    square = [(FieldScalar(x), FieldScalar(y), FieldScalar(0))
              for x in (0, 1) for y in (0, 1)]
    pentagon = [(FieldScalar(x), FieldScalar(y), FieldScalar(0))
                for x, y in ((0, 0), (2, 0), (4, 1), (2, 2), (0, 2))]
    tetra = square[:3] + [(FieldScalar(0), FieldScalar(0), FieldScalar(1))]
    for bad, message in (([], "empty geometry"),
                         (tetra + tetra[1:2], "duplicate points"),
                         (square, "degenerate (flat) geometry"),
                         (square[:3], "degenerate (flat) geometry"),
                         (pentagon, "degenerate (flat) geometry")):
        with pytest.raises(ValueError) as err:
            convex_faces(bad)
        assert str(err.value) == message, bad


def test_convex_faces_rejects_points_that_are_not_vertices():
    # a cube plus a point inside its body, inside a face or on an edge (in
    # 0, 1 or 2 of its faces, where a vertex is in 3), in rational and in
    # surd coordinates, in any order; export_off refuses the body centre
    zero, half, surd = FieldScalar(0), parse_scalar("1/2"), SQRT2 - 1
    cube = [(FieldScalar(x), FieldScalar(y), FieldScalar(z))
            for x in (0, 1) for y in (0, 1) for z in (0, 1)]
    assert len(convex_faces(cube)) == 6
    assert export_off(cube).splitlines()[1] == "8 6 12"
    for extra in ((half, half, half), (half, half, zero), (half, zero, zero),
                  (surd, half, surd), (surd, surd, zero), (surd, zero, zero)):
        for pts in (cube + [extra], [extra] + cube, sorted(cube + [extra])):
            with pytest.raises(ValueError) as err:
                convex_faces(pts)
            assert str(err.value) == "points not in convex position", extra
    with pytest.raises(ValueError, match="^points not in convex position$"):
        export_off(cube + [(half, half, half)])


def test_output_flag_writes_identical_bytes():
    _, stdout_text, _ = run_cli(["export", "0,1,0,0"])
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cell.off")
        code, out, _ = run_cli(["export", "0,1,0,0", "--output", path])
        assert code == 0 and out == ""
        with open(path) as handle:
            assert handle.read() == stdout_text


def test_output_named_double_dash(tmp_path, monkeypatch):
    # "--output=--" writes the file "--" (Python 3.13 on) or is a one-line
    # usage error (argparse reads the value as an empty list before 3.13);
    # it never prints the report
    monkeypatch.chdir(tmp_path)
    _, report, _ = run_cli(["fvector", "1,0,0,1"])
    code, out, err = run_cli(["fvector", "1,0,0,1", "--output=--"])
    assert out == ""
    if code == 0:
        assert err == "" and (tmp_path / "--").read_text() == report
    else:
        assert code == 2 and err == ("f4weyl: error: argument --output: "
                                     "expected one argument\n")
        assert list(tmp_path.iterdir()) == []


def _run_with_stdout(stdout, *args, **kwargs):
    src = str(Path(f4weyl.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, "-m", "f4weyl", *args],
                          stdout=stdout, stderr=subprocess.PIPE, text=True,
                          env=dict(os.environ, PYTHONPATH=src), **kwargs)


def test_closed_stdout_is_a_one_line_error():
    # a pipe whose reader has gone (EPIPE on the first flush) and a
    # process started with fd 1 closed (no sys.stdout at all): exit 1 and
    # one stderr line, without a traceback from main or from the
    # interpreter's final flush
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        piped = _run_with_stdout(write_end, "export", "1,1,1,1")
    finally:
        os.close(write_end)
    closed = _run_with_stdout(None, "fvector", "1,0,0,1",
                              preexec_fn=lambda: os.close(1))
    for proc, reason in ((piped, "[Errno 32] Broken pipe"),
                         (closed, "stdout is closed")):
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr == f"error: cannot write stdout: {reason}\n"


def test_unwritable_output_path(tmp_path, monkeypatch):
    code, _, err = run_cli(["export", "0,1,0,0",
                            "--output", "/no/such/dir/cell.off"])
    assert code == 1
    assert "cannot write" in err
    # an empty name cannot be opened either: it is not taken for stdout,
    # in the form the table parse reads as argparse does
    monkeypatch.chdir(tmp_path)
    argv = ["fvector", "1,0,0,1", "--output", ""]
    assert parsers_agree(argv)
    assert run_cli(argv) == (1, "", "error: cannot write : [Errno 2] No such "
                                    "file or directory: ''\n")
    assert list(tmp_path.iterdir()) == []


def test_verify_text_report():
    code, out, _ = run_cli(["verify", "--seed", "7"])
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "all 15 checks passed"
    assert all(line.startswith("[PASS]") for line in lines[:-1])
    assert any("documented misprint" in line for line in lines)


def test_verify_report_byte_identical():
    # the default-seed report, recorded from the reference implementation
    code, out, _ = run_cli(["verify"])
    assert code == 0
    assert out.encode() == (EXPECTED / "verify_report.txt").read_bytes()


def test_verify_timings_shape():
    # every check line gains its wall time; without that suffix the report
    # is the recorded one.  JSON adds seconds per check name (values vary)
    suffix = re.compile(r"  \[\d+\.\d{3} s\]$")
    code, out, _ = run_cli(["verify", "--timings"])
    lines = out.splitlines()
    assert code == 0 and all(suffix.search(line) for line in lines[:-1])
    report = "\n".join([suffix.sub("", line) for line in lines]) + "\n"
    assert report.encode() == (EXPECTED / "verify_report.txt").read_bytes()
    code, out, _ = run_cli(["verify", "--timings", "--format", "json"])
    payload = json.loads(out)
    assert code == 0 and payload["ok"]
    assert list(payload["timings"]) == [c["name"] for c in payload["checks"]]
    assert len(payload["timings"]) == 15
    assert all(t >= 0 for t in payload["timings"].values())


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    RANDOM_RECORDED.write_text(json.dumps(
        {" ".join(argv): _stdout_record(argv) for argv in random_label_runs()},
        indent=1, sort_keys=True) + "\n")
