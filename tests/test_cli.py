"""Command line: dispatch, exit codes, JSON traces, determinism."""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import skirho
from skirho import bisim, cli, core
from skirho.calculus import NAMES
from skirho.cli import main, replay_trace_json, validate_trace_json


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# dispatch and exit codes


def test_reduce_ski(capsys):
    code, out, _ = run_cli(capsys, "reduce", "--calculus", "ski", "(I K)")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "K"
    assert "steps: 1" in lines
    assert "status: normal_form" in lines


def test_translate_stopped_process(capsys):
    code, out, _ = run_cli(capsys, "translate", "--calculus", "rho", "0")
    assert code == 0
    assert out.strip() == "0"


def test_sort_unsortable_exits_3(capsys):
    code, out, _ = run_cli(capsys, "sort", "--calculus", "rho-comb", "(0 0)")
    assert code == 3
    assert out.strip() == "not sortable"


def test_sort_output_shape(capsys):
    code, out, _ = run_cli(capsys, "sort", "--calculus", "rho-comb", "((! (& 0)) 0)")
    assert code == 0
    assert out.strip() == "W"


def test_parse_error_exits_1(capsys):
    code, _, err = run_cli(capsys, "reduce", "--calculus", "ski", "(I")
    assert code == 1
    assert "parse error" in err


def test_open_process_exits_1(capsys):
    code, _, err = run_cli(capsys, "reduce", "--calculus", "rho", "*y")
    assert code == 1
    assert "closed" in err


def test_fuel_exhaustion_exits_2(capsys):
    omega = "(((S I) I) ((S I) I))"
    code, out, _ = run_cli(capsys, "reduce", "--calculus", "ski", "--fuel", "5", omega)
    assert code == 2
    assert "status: fuel_exhausted" in out


@pytest.mark.parametrize(
    "argv",
    [
        ("reduce", "--calculus", "ski", "--fuel", "-1", "(I K)"),
        ("reduce", "--calculus", "ski-gas", "--gas", "-1", "(I K)"),
        ("barbs", "--calculus", "rho", "--depth", "-1", "--names", "&0", "&0!0"),
        ("bisim", "--calculus", "rho", "--depth", "-1", "&0!0", "0"),
        ("faithfulness", "--depth", "-1", "&0!0", "0"),
    ],
)
def test_negative_bound_exits_1(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1 and "must be >= 0" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("translate", "--calculus", "rho-comb", "--fuel", "0", "((for (& 0)) (K 0))"),
        ("roundtrip", "--calculus", "rho-comb", "--fuel", "0", "((for (& 0)) (K 0))"),
        ("roundtrip", "--calculus", "rho", "--fuel", "2", "for(y <- &0)(*y) | &0!0"),
    ],
)
def test_back_translation_fuel_exits_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("reduce", "--calculus", "ski", "(I", "K)"),
        (),
        ("reduce", "--calculus", "lambda", "(I K)"),
    ],
)
def test_usage_error_exits_1(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("command, calculus, allowed, terms", [
    ("translate", "ski", "'rho', 'rho-comb'", ("I",)),
    ("roundtrip", "ski", "'rho', 'rho-comb'", ("I",)),
    ("barbs", "ski", "'rho', 'rho-comb'", ("I",)),
    ("bisim", "ski", "'rho', 'rho-comb'", ("I", "I")),
    ("sort", "rho", "'rho-comb'", ("0",)),
])
def test_a_calculus_the_command_does_not_take_exits_1(capsys, command, calculus, allowed, terms):
    code, out, err = run_cli(capsys, command, "--calculus", calculus, *terms)
    assert (code, out) == (1, "")
    assert len(err.splitlines()) == 1
    assert f"--calculus: invalid choice: {calculus!r}" in err and allowed in err


_TEXT_RUNS = [
    (("trace", "--calculus", "ski", "((K (I S)) (I K))"), 0,
     "initial: ((K (I S)) (I K))\n1. kappa@[] -> (I S)\n2. iota@[] -> S\nS\nsteps: 2\nstatus: normal_form\n"),
    (("trace", "--calculus", "ski", "(S (K (I S)))"), 0,
     "initial: (S (K (I S)))\n1. iota@[1,1] -> (S (K S))\n(S (K S))\nsteps: 1\nstatus: normal_form\n"),
    (("trace", "--calculus", "ski-whnf", "--fuel", "1", "(R (((S K) K) S))"), 2,
     "initial: ((((R S) K) K) S)\n1. sigma@[] -> (((R K) S) (K S))\n(((R K) S) (K S))\nsteps: 1\n"
     "status: fuel_exhausted\n"),
    (("trace", "--calculus", "rho", "for(y <- &0)(*y) | &0!(&0!0)"), 0,
     "initial: &0!&0!0 | for(v0 <- &0)*v0\n1. comm@[] -> *&(&0!0)\n*&(&0!0)\nsteps: 1\nstatus: normal_form\n"),
    (("trace", "--calculus", "rho-comb", "--fuel", "3", "((| C) ((K (I (& 0))) (I 0)))"), 0,
     "initial: ((| C) ((K (I (& 0))) (I 0)))\n1. kappa@[1] -> ((| C) (I (& 0)))\n"
     "2. iota@[1] -> ((| C) (& 0))\n((| C) (& 0))\nsteps: 2\nstatus: normal_form\n"),
    (("reduce", "--calculus", "ski", "--fuel", "1", "(((S K) K) S)"), 2,
     "((K S) (K S))\nsteps: 1\nstatus: fuel_exhausted\n"),
    (("reduce", "--calculus", "ski-gas", "--gas", "2", "(((S K) K) S)"), 0, "S\nsteps: 2\nstatus: normal_form\n"),
    (("reduce", "--calculus", "rho", "for(y <- &0)(*y) | &0!(&0!0)"), 0, "*&(&0!0)\nsteps: 1\nstatus: normal_form\n"),
    (("reduce", "--calculus", "ski", "--fuel", "5000", "(I " * 3000 + "K" + ")" * 3000), 0,
     "K\nsteps: 3000\nstatus: normal_form\n"),
    # of two unmatched barbs, the witness names the first in the calculus's order
    (("bisim", "--calculus", "rho", "--depth", "1", "&0!0 | &(&0!0)!0", "0"), 0,
     "distinguished: left agent shows barb &0 that the other side never shows within 1 steps\n"),
    (("bisim", "--calculus", "rho-comb", "--depth", "1", "((| ((! (& 0)) 0)) ((! (& ((! (& 0)) 0))) 0))", "0"), 0,
     "distinguished: left agent shows barb (& 0) that the other side never shows within 1 steps\n"),
]


@pytest.mark.parametrize("argv, code, text", _TEXT_RUNS, ids=[" ".join(a[:3]) for a, _, _ in _TEXT_RUNS])
def test_text_output_builds_no_json_payload(capsys, monkeypatch, argv, code, text):
    def refuse(*_):
        raise AssertionError("trace_to_json called in text mode")

    monkeypatch.setattr(cli, "trace_to_json", refuse)
    assert run_cli(capsys, *argv) == (code, text, "")


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["--help"])
    assert exit_info.value.code == 0
    assert "usage: skirho" in capsys.readouterr().out


def test_deep_term_exits_1(capsys):
    # the SKI reader and printer keep their stacks off the Python stack, so a
    # 3,000-deep spine runs; the process parser still recurses, and rho
    # recurses along the right spine of a wide parallel composition
    spine = "(I " * 3000 + "K" + ")" * 3000
    code, out, err = run_cli(capsys, "reduce", "--calculus", "ski", "--fuel", "5000", spine)
    assert (code, out.splitlines(), err) == (0, ["K", "steps: 3000", "status: normal_form"], "")
    code, out, err = run_cli(capsys, "reduce", "--calculus", "ski", spine)
    assert code == 2 and err == ""
    assert out.splitlines() == ["(I " * 2000 + "K" + ")" * 2000, "steps: 1000", "status: fuel_exhausted"]
    deep = "(" * 3000 + "0" + ")" * 3000
    wide = " | ".join(["&0!0"] * 1200)
    for process in (deep, wide):
        code, out, err = run_cli(capsys, "reduce", "--calculus", "rho", process)
        assert code == 1
        assert out == ""
        assert err == "term nested too deeply\n"
    # sorting a | group compares the order keys of its elements, and comparing
    # two deep keys recurses: a group with one deep element runs, with two it does not
    group = "((| " + "(I " * 3000 + "K" + ")" * 3000 + ") " + "(I " * 3000 + "S" + ")" * 3000 + ")"
    code, out, err = run_cli(capsys, "reduce", "--calculus", "rho-comb", "--fuel", "7000", group)
    assert (code, out, err) == (1, "", "term nested too deeply\n")


def test_deep_combinator_group_reduces(capsys):
    # sorting the | group asks for the order key of the whole spine
    spine = "((| C) " + "(I " * 3000 + "K" + ")" * 3000 + ")"
    code, out, err = run_cli(capsys, "reduce", "--calculus", "rho-comb", "--fuel", "5000", spine)
    assert (code, out.splitlines(), err) == (0, ["((| C) K)", "steps: 3000", "status: normal_form"], "")


def test_gas_run_cli(capsys):
    code, out, _ = run_cli(capsys, "reduce", "--calculus", "ski-gas", "--gas", "2", "(I K)")
    assert code == 0
    assert out.splitlines()[0] == "(R K)"
    assert "steps: 1" in out


def test_translate_back(capsys):
    code, out, _ = run_cli(capsys, "translate", "--calculus", "rho-comb",
                           "((for (& 0)) (K 0))")
    assert code == 0
    assert out.strip() == "for(v0 <- &0)0"


def test_translate_unsorted_exits_3(capsys):
    code, _, err = run_cli(capsys, "translate", "--calculus", "rho-comb", "(0 0)")
    assert code == 3


def test_translate_back_keeps_a_computed_quote_free(capsys):
    code, out, err = run_cli(capsys, "translate", "--calculus", "rho-comb",
                             "((for (& 0)) ((S (K *)) ((S (K &)) (K 0))))")
    assert (code, out, err) == (0, "for(v0 <- &0)*&0\n", "")


def test_translate_back_bound_name_under_quote_exits_3(capsys):
    code, out, err = run_cli(capsys, "translate", "--calculus", "rho-comb",
                             "((for (& 0)) ((S ((S (K !)) ((S (K &)) ((S ((S (K !)) I))"
                             " (K 0))))) (K 0)))")
    assert code == 3
    assert out == ""
    assert err == "a bound name occurs under a quote\n"


_BASE_ARGV = {
    "reduce": ("--calculus", "ski", "(I K)"),
    "trace": ("--calculus", "ski", "(I K)"),
    "translate": ("--calculus", "rho", "0"),
    "sort": ("--calculus", "rho-comb", "0"),
    "barbs": ("--calculus", "rho", "&0!0"),
    "bisim": ("--calculus", "rho", "&0!0", "0"),
    "faithfulness": ("&0!0", "0"),
    "roundtrip": ("--calculus", "rho", "0"),
}
_UNREAD_FLAGS = [
    ("translate", "--seed"), ("sort", "--seed"), ("barbs", "--seed"), ("bisim", "--seed"),
    ("faithfulness", "--seed"), ("roundtrip", "--seed"),
    ("sort", "--fuel"), ("barbs", "--fuel"), ("bisim", "--fuel"), ("faithfulness", "--fuel"),
    ("reduce", "--names"), ("trace", "--names"), ("translate", "--names"), ("sort", "--names"),
    ("roundtrip", "--names"), ("reduce", "--gas"), ("trace", "--gas"),
]


@pytest.mark.parametrize("command, flag", _UNREAD_FLAGS)
def test_flag_a_command_does_not_read_exits_1(capsys, command, flag):
    assert run_cli(capsys, command, *_BASE_ARGV[command])[0] == 0
    value = "&0" if flag == "--names" else "5"
    code, out, err = run_cli(capsys, command, flag, value, *_BASE_ARGV[command])
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1 and "unrecognized arguments" in err


@pytest.mark.parametrize("command", ["reduce", "trace"])
def test_gas_is_read_only_by_ski_gas(capsys, command):
    for calculus in NAMES:
        text = _FUZZ_TEXTS[calculus][0]
        assert run_cli(capsys, command, "--calculus", calculus, text)[0] == 0
        code, out, err = run_cli(capsys, command, "--calculus", calculus, "--gas", "3", text)
        if calculus == "ski-gas":
            assert code == 0
        else:
            assert (code, out) == (1, "")
            assert len(err.splitlines()) == 1 and "--gas" in err
    # without --gas, ski-gas starts with no markers and so takes no step
    code, out, _ = run_cli(capsys, command, "--calculus", "ski-gas", "(I K)")
    assert code == 0 and "steps: 0" in out


def test_barbs_cli(capsys):
    code, out, _ = run_cli(capsys, "barbs", "--calculus", "rho",
                           "0 | &(0|0)!0", "--names", "&0")
    assert code == 0
    assert out.strip() == "&0"


def test_bisim_cli(capsys):
    code, out, _ = run_cli(capsys, "bisim", "--calculus", "rho",
                           "&0!0", "0", "--names", "&0", "--depth", "2")
    assert code == 0
    assert "distinguished" in out


def test_faithfulness_cli(capsys):
    code, out, _ = run_cli(capsys, "faithfulness",
                           "for(y <- &0)0 | &0!0", "&0!0 | for(z <- &0)0 | 0")
    assert code == 0
    assert "agreement: yes" in out


def test_faithfulness_state_budget_exits_2(capsys, monkeypatch):
    monkeypatch.setattr(bisim, "explore", lambda *args: core.explore(*args, state_budget=1))
    code, out, err = run_cli(capsys, "faithfulness",
                             "for(y <- &0)0 | &0!0", "&0!0 | for(z <- &0)0 | 0")
    assert (code, out, err) == (2, "", "state budget exhausted; verdict inconclusive\n")


def test_bisim_pair_budget_exits_2(capsys, monkeypatch):
    monkeypatch.setattr(bisim, "DEFAULT_PAIR_BUDGET", 1)
    relay = "for(y <- &0)(y!0) | &0!0"
    code, out, err = run_cli(capsys, "bisim", "--calculus", "rho", "--depth", "3", relay, relay)
    assert (code, out, err) == (2, "", "pair budget 1 exhausted\n")


def test_faithfulness_accepts_a_name_quoting_an_open_process(capsys):
    code, out, err = run_cli(capsys, "faithfulness", "--names", "&(x!0)", "&0!0", "0")
    assert code == 0
    assert err == ""
    assert "agreement: yes" in out


def test_roundtrip_cli(capsys):
    code, out, _ = run_cli(capsys, "roundtrip", "--calculus", "rho",
                           "for(y <- &0)(*y) | &0!0")
    assert code == 0
    assert "ok " in out and "FAIL" not in out
    code, out, _ = run_cli(capsys, "roundtrip", "--calculus", "rho-comb",
                           "((for (& 0)) (K 0))")
    assert code == 0


def test_trace_lists_steps(capsys):
    code, out, _ = run_cli(capsys, "trace", "--calculus", "ski", "(((S K) K) S)")
    assert code == 0
    assert "1. sigma@[]" in out
    assert "2. kappa@[]" in out


# ---------------------------------------------------------------------------
# fuzzed argv


_FUZZ_TEXTS = {
    "ski": ("(I K)", "(((S K) K) S)", "(((S I) I) ((S I) I))", "((K (I S)) K)"),
    "ski-whnf": ("(R (I K))", "(R (R (((S K) K) S)))", "(R (((S I) I) ((S I) I)))"),
    "ski-gas": ("(I K)", "(((S K) K) S)", "((K (I S)) K)"),
    "rho": ("for(y <- &0)(*y) | &0!0", "&0!0", "0", "*&(&0!0)",
            "for(y <- &0)(y!0) | &0!0 | for(w <- &0)*w"),
    "rho-comb": ("((for (& 0)) (K 0))", "((! (& 0)) 0)", "0",
                 "((| C) ((| ((for (& 0)) (K 0))) ((! (& 0)) 0)))"),
}
_FUZZ_NAMES = ("&0", "(& 0)", "&(&0!0), &0", "&(", "")
_FUZZ_CHARS = "()&*!|<-, xyzSKIRC0#"
_FUZZ_OPTIONS = {  # the options each command accepts besides --calculus and --format
    "reduce": ("--fuel", "--seed", "--gas", "--strategy"),
    "trace": ("--fuel", "--seed", "--gas", "--strategy"),
    "translate": ("--fuel",),
    "barbs": ("--names", "--depth"),
    "bisim": ("--names", "--depth"),
    "faithfulness": ("--names", "--depth"),
    "roundtrip": ("--fuel",),
}


def _fuzz_text(rng, calculus):
    text = rng.choice(_FUZZ_TEXTS[calculus])
    mode = rng.randrange(4)
    if mode == 0:
        return text[:rng.randrange(len(text))]
    if mode == 1:
        i = rng.randrange(len(text))
        return text[:i] + rng.choice(_FUZZ_CHARS) + text[i + 1:]
    return text


def _fuzz_argv(rng, command, calculus):
    argv = [command, "--calculus", calculus]
    for option in _FUZZ_OPTIONS.get(command, ()):
        if option == "--gas" and calculus != "ski-gas":
            continue
        if option == "--strategy":
            argv += [option, rng.choice(("first", "all", "random"))]
        elif option == "--names":
            if rng.random() < 0.3:
                argv += [option, rng.choice(_FUZZ_NAMES)]
        elif option in ("--fuel", "--depth") or rng.random() < 0.5:
            argv += [option, str(rng.randint(0, 2))]
    if rng.random() < 0.3:
        argv += ["--format", rng.choice(("text", "json"))]
    texts = 2 if command in ("bisim", "faithfulness") else 1
    return argv + [_fuzz_text(rng, calculus) for _ in range(texts)]


def test_fuzzed_argv_end_in_a_documented_exit(capsys):
    rng = random.Random(2026)
    commands = ("reduce", "trace", "translate", "sort", "barbs", "bisim", "faithfulness",
                "roundtrip")
    for command in commands:
        for calculus in NAMES:
            for _ in range(10):
                argv = _fuzz_argv(rng, command, calculus)
                code, _, err = run_cli(capsys, *argv)
                assert code in (0, 1, 2, 3), argv
                assert len(err.splitlines()) <= 1, argv


# ---------------------------------------------------------------------------
# JSON traces


@pytest.mark.parametrize(
    "argv",
    [
        ("reduce", "--calculus", "ski", "--format", "json", "((I (I K)) (I S))"),
        ("reduce", "--calculus", "ski", "--format", "json", "--strategy", "all",
         "(((S K) K) S)"),
        ("reduce", "--calculus", "ski-whnf", "--format", "json", "(R (((S K) K) S))"),
        ("reduce", "--calculus", "ski-gas", "--format", "json", "--gas", "3", "(I (I K))"),
        ("reduce", "--calculus", "rho-comb", "--format", "json",
         "((| C) ((| ((for (& 0)) (K 0))) ((! (& 0)) 0)))"),
        ("reduce", "--calculus", "rho", "--format", "json",
         "for(y <- &0)(y!0) | &0!0"),
    ] + [
        ("reduce", "--calculus", calculus, "--format", "json", "--strategy", strategy,
         "--seed", "5", *extra, text)
        for strategy in ("random", "all")
        for calculus, extra, text in (
            ("rho", (), "for(y <- &0)(y!0) | &0!0 | for(w <- &0)*w"),
            ("rho-comb", (), "((| C) ((| ((for (& 0)) (K 0))) ((! (& 0)) 0)))"),
            ("ski-whnf", (), "(R (((S K) K) ((I S) K)))"),
            ("ski-gas", ("--gas", "3"), "(((S K) K) ((I S) K))"),
        )
    ],
)
def test_json_trace_validates_and_replays(capsys, argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    obj = json.loads(out)
    validate_trace_json(obj)
    replay_trace_json(obj)


def test_validate_trace_json_rejects_bad_shapes():
    with pytest.raises(ValueError):
        validate_trace_json({"calculus": "ski"})
    good = {"calculus": "ski", "initial": "K", "steps": [], "status": "normal_form"}
    validate_trace_json(good)
    bad = dict(good, status="crashed")
    with pytest.raises(ValueError):
        validate_trace_json(bad)
    bad = dict(good, steps=[{"rule": "iota", "position": "x", "result": "K"}])
    with pytest.raises(ValueError):
        validate_trace_json(bad)


_GOOD_TRACE = {"calculus": "ski", "initial": "(I K)",
               "steps": [{"rule": "iota", "position": [], "result": "K"}], "status": "normal_form"}


def _with_step(**fields):
    return dict(_GOOD_TRACE, steps=[dict(_GOOD_TRACE["steps"][0], **fields)])


@pytest.mark.parametrize("obj", [
    None, 5, "calculus", [], ["calculus", "initial", "steps", "status"],
    dict(_GOOD_TRACE, calculus=["ski"]),
    dict(_GOOD_TRACE, calculus={"ski": 1}),
    dict(_GOOD_TRACE, initial=None),
    dict(_GOOD_TRACE, status=["normal_form"]),
    dict(_GOOD_TRACE, steps={}),
    dict(_GOOD_TRACE, steps=[5]),
    dict(_GOOD_TRACE, steps=[None]),
    dict(_GOOD_TRACE, steps=["rule"]),
    dict(_GOOD_TRACE, steps=[["rule", "position", "result"]]),
    _with_step(rule=None),
    _with_step(result=["K"]),
    _with_step(position=[True]),
    _with_step(position=[0, False]),
    _with_step(position=[1.0]),
    _with_step(position=None),
])
def test_malformed_traces_raise_value_error(obj):
    validate_trace_json(_GOOD_TRACE)
    with pytest.raises(ValueError):
        validate_trace_json(obj)
    with pytest.raises(ValueError):
        replay_trace_json(obj)


def test_replay_rejects_forged_step():
    forged = {
        "calculus": "ski",
        "initial": "(I K)",
        "steps": [{"rule": "iota", "position": [], "result": "S"}],
        "status": "normal_form",
    }
    with pytest.raises(ValueError):
        replay_trace_json(forged)
    unparsable = dict(forged, steps=[{"rule": "iota", "position": [], "result": "(K"}])
    with pytest.raises(ValueError):
        replay_trace_json(unparsable)


# ---------------------------------------------------------------------------
# determinism


def test_identical_invocations_identical_json(capsys):
    argv = ("reduce", "--calculus", "ski", "--format", "json", "--strategy", "random",
            "--seed", "9", "((I (I K)) ((S K) K))")
    _, first, _ = run_cli(capsys, *argv)
    _, second, _ = run_cli(capsys, *argv)
    assert first == second


def test_subprocess_runs_byte_identical():
    argv = [sys.executable, "-m", "skirho.cli", "reduce", "--calculus", "rho",
            "--format", "json", "--strategy", "random", "--seed", "3",
            "for(y <- &0)(y!0) | &0!0 | for(w <- &0)0"]
    first = subprocess.run(argv, capture_output=True)
    second = subprocess.run(argv, capture_output=True)
    assert first.returncode == 0
    assert first.stdout == second.stdout


# ---------------------------------------------------------------------------
# fresh processes: a command loads only the calculi it runs

SRC = str(Path(skirho.__file__).resolve().parents[1])
SKI_SET = {"skirho.core", "skirho.ski", "skirho.syntax", "skirho.calculus", "skirho.cli"}
_LOADED = """
import io, sys
from contextlib import redirect_stdout
from skirho import cli
for argv in {argvs!r}:
    with redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    print(code, "json" in sys.modules, *sorted(m for m in sys.modules if m.startswith("skirho.")))
"""
_IMPORT_SETS = [
    (set(), [[command, "--calculus", calculus, *extra, text]
             for command in ("reduce", "trace")
             for calculus, extra, text in (("ski", (), "((K I) S)"), ("ski-whnf", (), "(R ((K I) S))"),
                                           ("ski-gas", ("--gas", "2"), "((K I) S)"))]),
    ({"skirho.rho"}, [[command, "--calculus", "rho", "for(y <- &0)*y | &0!0"]
                      for command in ("reduce", "trace")]),
    ({"skirho.rho", "skirho.bisim"}, [["barbs", "--calculus", "rho", "&0!0"],
                                      ["bisim", "--calculus", "rho", "&0!0", "&0!0 | 0"]]),
    ({"skirho.rho", "skirho.comb"}, [["reduce", "--calculus", "rho-comb", "((| C) 0)"],
                                     ["trace", "--calculus", "rho-comb", "((| C) 0)"],
                                     ["translate", "--calculus", "rho", "&0!0"],
                                     ["translate", "--calculus", "rho-comb", "((for (& 0)) (K 0))"],
                                     ["sort", "--calculus", "rho-comb", "((! (& 0)) 0)"],
                                     ["roundtrip", "--calculus", "rho", "&0!0"],
                                     ["roundtrip", "--calculus", "rho-comb", "((! (& 0)) 0)"]]),
    ({"skirho.rho", "skirho.comb", "skirho.bisim"}, [["faithfulness", "&0!0", "&0!0 | 0"]]),
]


def fresh(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, text=True, timeout=60)


@pytest.mark.parametrize("extra, argvs", _IMPORT_SETS,
                         ids=["ski", "rho", "rho-bisim", "rho-comb", "faithfulness"])
def test_a_command_loads_only_the_calculi_it_runs(extra, argvs):
    """One interpreter per module set runs each of its commands in turn; after
    every one the skirho modules loaded are exactly the set, and no text
    output loads `json`."""
    done = fresh("-c", _LOADED.format(argvs=argvs))
    assert done.returncode == 0, done.stderr
    want = sorted(SKI_SET | extra)
    assert [line.split() for line in done.stdout.splitlines()] == [["0", "False", *want]] * len(argvs)


@pytest.mark.parametrize("argv, code, message", [
    (["translate", "--calculus", "rho-comb", "(0 0)"], 3, "combinator is not W-sorted"),
    (["reduce", "--calculus", "rho", "*y"], 1, "process must be closed"),
    (["barbs", "--calculus", "rho", "--names", "&0,&(", "&0!0"], 1,
     "bad name literal '&(': 1:3: expected a process, found 'end of input'"),
    (["reduce", "--calculus", "ski-gas", "--gas", "1", "(R S)"], 1,
     "supply an R-free term and use --gas"),
    (["roundtrip", "--calculus", "rho-comb", "C"], 3,
     "combinator must not mention the context resource"),
], ids=["unsortable-translation", "open-process", "bad-names-literal", "marked-term-with-gas",
        "roundtrip-context-resource"])
def test_error_paths_hold_in_a_fresh_process(capsys, argv, code, message):
    """The module that raises is imported only by the command that fails."""
    done = fresh("-m", "skirho.cli", *argv)
    assert (done.returncode, done.stdout, done.stderr) == (code, "", message + "\n")
    assert run_cli(capsys, *argv) == (code, "", message + "\n")


def test_translation_error_is_defined_once_in_core():
    from skirho import comb
    assert comb.TranslationError is core.TranslationError
