"""Command-line surface: subcommands, file outputs, exit codes."""

import decimal
import json
import math
import os
import re
import subprocess
import sys
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import opr.cli
import opr.thresholds
from opr.cli import main

from cli_reference import build_parser

SHIPPED_TRACE = resources.files("opr.data") / "synthetic_intensity.csv"
SHIPPED_CARBONFREE = resources.files("opr.data") / "synthetic_carbonfree.csv"


def _forbid(monkeypatch, name):
    """Make ``opr.cli.<name>`` fail the test if the command reaches it."""
    def reached(*args, **kwargs):
        raise AssertionError(f"{name} ran before the command's checks")
    monkeypatch.setattr(opr.cli, name, reached)


SOLVE = ["solve", "--variant", "min", "--k", "4", "--u", "30", "--l", "5", "--beta", "3"]
SWEEP = ["sweep", "--variant", "min", "--k", "4", "--u", "30", "--l-min", "1", "--l-max", "4",
         "--beta-min", "0", "--beta-max", "1", "--steps", "3"]
SIMULATE = ["simulate", "--variant", "min", "--trace", str(SHIPPED_TRACE), "--trials", "2",
            "--out", "{tmp}/r.json"]

#: command lines the parser rejects, and the command or flag the one error
#: line must name
USAGE_ERRORS = {
    "unknown command": (["certify", *SOLVE[1:]], "'certify'"),
    "no command": ([], "no command given"),
    "abbreviated flag": (["solve", "--var", "min", *SOLVE[3:]], "'--var'"),
    "missing required flag": ([*SOLVE[:3], *SOLVE[5:]], "--k is required"),
    "int flag given a float": ([*SOLVE[:4], "2.5", *SOLVE[5:]], "--k: invalid int value '2.5'"),
    "float flag given a word": ([*SOLVE[:6], "abc", *SOLVE[7:]], "--u: invalid float value"),
    "unknown choice": ([*SOLVE[:2], "mid", *SOLVE[3:]], "--variant must be one of min, max"),
    "both sources": ([*SIMULATE, "--beta", "1", "--synthetic", "period=24"],
                     "exactly one of --trace --synthetic"),
    "no beta": (SIMULATE, "exactly one of --beta --beta-frac"),
    "last flag without a value": ([*SWEEP, "--out"], "--out needs a value"),
    "value starting with --": ([*SWEEP, "--out", "--x.csv"], "--out needs a value"),
    "switch given a value": ([*SOLVE, "--json=1"], "--json takes no value"),
    "flag given twice": ([*SOLVE, "--k", "5"], "--k given twice"),
}


def _child_env():
    """The environment of a fresh interpreter that imports this `opr`."""
    src = str(Path(opr.cli.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}


class TestUsage:
    @pytest.mark.parametrize("argv, names", USAGE_ERRORS.values(), ids=USAGE_ERRORS)
    def test_usage_error_exits_2_with_one_error_line_before_any_work(
        self, argv, names, tmp_path, capsys, monkeypatch
    ):
        for name in ("player_family", "sweep_ratios", "parse_trace", "synthetic_diurnal",
                     "run_experiment", "adversary_min", "adversary_max"):
            _forbid(monkeypatch, name)
        assert main([arg.replace("{tmp}", str(tmp_path)) for arg in argv]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and names in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [["-h"], ["--help"], ["simulate", "-h"],
                                      ["adversary", "--variant", "min", "--help"]])
    def test_help_lists_every_flag_of_the_table_and_exits_0(self, argv, capsys):
        assert main(argv) == 0
        out, err = capsys.readouterr()
        assert err == ""
        shown = [argv[0]] if argv[0] in opr.cli.COMMANDS else list(opr.cli.COMMANDS)
        blocks = out.split("\n\n")
        assert blocks[0].startswith("usage: opr ") and len(blocks) == 1 + len(shown)
        for name, block in zip(shown, blocks[1:]):
            assert block.startswith(f"opr {name}: {opr.cli.COMMANDS[name].help}\n")
            flags = [line.split()[0] for line in block.splitlines()[1:]]
            assert flags == [flag for flag, _, _ in opr.cli.COMMANDS[name].options]

    def test_a_run_imports_no_argparse_gettext_or_locale(self):
        # pytest itself imports argparse, so the run needs a fresh interpreter
        code = ("import sys, opr.cli; "
                f"assert opr.cli.main({SOLVE!r}) == 0; "
                "print(sorted({'argparse', 'gettext', 'locale'} & set(sys.modules)))")
        run = subprocess.run([sys.executable, "-c", code], env=_child_env(),
                             capture_output=True, text=True)
        assert run.returncode == 0, run.stderr
        assert run.stdout.splitlines()[-1] == "[]"


#: a value argparse reads as a negative number, not as a flag, when it is
#: the separate token after its flag; other values starting with `-` can
#: only be given as --flag=value
_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")
#: "--" is left out: Python 3.11's argparse drops a `--flag=--` value and
#: reads it as [] (`test_double_dash_value_is_kept` pins the table's "--")
_WORDS = st.text("abcxyz019_./,:=-", min_size=1, max_size=12).filter(lambda w: w != "--")
_VALUES = {
    int: st.integers(-10**12, 10**12).map(str),
    float: st.one_of(st.floats().map(repr), st.sampled_from(["nan", "inf", "-inf", "1e3", "-.5"])),
    str: st.one_of(_WORDS, st.just("period=24,amp=20,mean=55,seed=3")),
}


@st.composite
def command_lines(draw):
    """A valid command line: required flags, exactly one of each pair, and a
    random subset of the optional ones, shuffled, each as --f v or --f=v."""
    name = draw(st.sampled_from(list(opr.cli.COMMANDS)))
    cmd = opr.cli.COMMANDS[name]
    chosen = {draw(st.sampled_from(pair)) for pair in cmd.one_of}
    paired = {flag for pair in cmd.one_of for flag in pair}
    words = []
    for flag, conv, default in cmd.options:
        if flag in paired and flag not in chosen:
            continue
        if default is not opr.cli.REQUIRED and flag not in paired and not draw(st.booleans()):
            continue
        if conv is bool:
            words.append([flag])
            continue
        value = draw(st.sampled_from(conv) if isinstance(conv, tuple) else _VALUES[conv])
        separate = not value.startswith("-") or _NEGATIVE_NUMBER.match(value)
        words.append([flag, value] if separate and draw(st.booleans()) else [f"{flag}={value}"])
    return [name, *(word for group in draw(st.permutations(words)) for word in group)]


@settings(max_examples=300, deadline=None)
@given(command_lines())
def test_table_parses_like_the_argparse_reference(argv):
    def fields(args):
        # repr tells int from float and matches nan to nan
        return {key: repr(value) for key, value in vars(args).items() if key != "func"}

    assert fields(opr.cli._parse_args(argv)) == fields(build_parser().parse_args(argv))


def test_double_dash_value_is_kept():
    assert opr.cli._parse_args([*SWEEP, "--out=--"]).out == "--"


class TestSolve:
    def test_text_output(self, capsys):
        assert main(
            ["solve", "--variant", "min", "--k", "10", "--u", "30", "--l", "5", "--beta", "3"]
        ) == 0
        out = capsys.readouterr().out
        assert "alpha = 2.675981467" in out
        assert out.count("\n") >= 11  # header + 10 threshold rows

    def test_json_output(self, capsys):
        assert main(
            ["solve", "--variant", "max", "--k", "4", "--u", "30", "--l", "5",
             "--beta", "3", "--json"]
        ) == 0
        out = capsys.readouterr().out
        payload = json.loads(out)
        assert out == json.dumps(payload, indent=2, sort_keys=True) + "\n"
        assert payload["ratio"] > 1
        assert len(payload["lower"]) == 4
        assert all(
            hi - lo == pytest.approx(6.0) for lo, hi in zip(payload["lower"], payload["upper"])
        )

    def test_closed_stdout_exits_1_with_nothing_on_stderr(self):
        # 20000 threshold rows outrun a pipe's buffer, so the run is still
        # writing when the reader closes its end after the first line, as
        # `opr solve ... | head -1` does
        argv = ["solve", "--variant", "min", "--k", "20000", "--u", "30", "--l", "5",
                "--beta", "3"]
        with subprocess.Popen([sys.executable, "-m", "opr", *argv], env=_child_env(),
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE) as run:
            assert run.stdout.readline().startswith(b"alpha = ")
            run.stdout.close()
            err = run.stderr.read()
        assert (run.returncode, err) == (1, b"")

    def test_regime_error_exit_code(self, capsys):
        assert main(
            ["solve", "--variant", "min", "--k", "3", "--u", "10", "--l", "8",
             "--beta", "4"]
        ) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("beta", ["nan", "inf"])
    def test_non_finite_beta_exits_2(self, beta, capsys):
        assert main(
            ["solve", "--variant", "min", "--k", "4", "--u", "30", "--l", "5",
             "--beta", beta]
        ) == 2
        captured = capsys.readouterr()
        assert "beta" in captured.err
        assert captured.out == ""


class TestSweep:
    def test_grid_written_with_sentinels(self, tmp_path, capsys):
        out = tmp_path / "grid.csv"
        assert main(
            ["sweep", "--variant", "max", "--k", "2", "--u", "20", "--l-min", "1",
             "--l-max", "4", "--beta-min", "0", "--beta-max", "8", "--steps", "5",
             "--out", str(out)]
        ) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "L,beta,ratio"
        assert len(lines) == 26
        assert any(line.endswith(",inf") for line in lines[1:])

    def test_out_into_missing_directory_exits_3_before_the_grid(
        self, tmp_path, capsys, monkeypatch
    ):
        _forbid(monkeypatch, "sweep_ratios")
        assert main(
            ["sweep", "--variant", "min", "--k", "10", "--u", "30", "--l-min", "1",
             "--l-max", "10", "--beta-min", "0", "--beta-max", "5", "--steps", "50",
             "--out", str(tmp_path / "missing" / "x.csv")]
        ) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and "missing" in captured.err
        assert list(tmp_path.iterdir()) == []


class TestSweepValidation:
    def test_steps_below_two_exits_2(self, capsys):
        assert main(
            ["sweep", "--variant", "min", "--k", "2", "--u", "20", "--l-min", "1",
             "--l-max", "4", "--beta-min", "0", "--beta-max", "1", "--steps", "1",
             "--out", "/tmp/never-grid.csv"]
        ) == 2

    @pytest.mark.parametrize(
        "flag, value",
        [("--l-min", "nan"), ("--l-max", "inf"), ("--beta-min", "-inf"), ("--beta-max", "inf")],
    )
    def test_non_finite_grid_bound_exits_2_naming_the_flag(self, flag, value, tmp_path, capsys):
        grid = {"--l-min": "1", "--l-max": "4", "--beta-min": "0", "--beta-max": "1", flag: value}
        out = tmp_path / "grid.csv"
        assert main(
            ["sweep", "--variant", "max", "--k", "2", "--u", "20", "--steps", "3",
             "--out", str(out)] + [f"{name}={v}" for name, v in grid.items()]
        ) == 2
        err = capsys.readouterr().err
        assert f"{flag} must be finite, got {value}" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "variant, k, u, message",
        [
            ("max", "0", "30", "k must be a positive integer, got 0"),
            ("min", "-2", "30", "k must be a positive integer, got -2"),
            ("max", "1", "inf", "need 0 < U < inf, got U=inf"),
            ("min", "3", "inf", "need 0 < U < inf, got U=inf"),
        ],
    )
    def test_k_or_u_no_cell_can_use_exits_2(self, variant, k, u, message, tmp_path, capsys):
        # at a finite U every cell of these grids is a sentinel, so no
        # cell's solve sees k; both fail before the first cell
        out = tmp_path / "grid.csv"
        assert main(
            ["sweep", "--variant", variant, "--k", k, "--u", u, "--l-min", "1",
             "--l-max", "10", "--beta-min", "15", "--beta-max", "60", "--steps", "3",
             "--out", str(out)]
        ) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and message in captured.err
        assert not out.exists()


_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**70), max_value=2**70)
    | st.floats(allow_subnormal=True)
    | st.sampled_from([math.nan, math.inf, -math.inf, -0.0])
    # every code point, control characters and lone surrogates included
    | st.text(st.characters(exclude_categories=()), max_size=4)
)
_KEYS = st.text(st.characters(exclude_categories=()), max_size=3)


def _containers(children, size):
    """Lists, tuples and dicts of up to `size` children."""
    lists = st.lists(children, max_size=size)
    return lists | lists.map(tuple) | st.dictionaries(_KEYS, children, max_size=size)


_ITEMS = st.recursive(_LEAVES, lambda c: _containers(c, 2), max_leaves=3)
#: lists and tuples on both sides of one and two block boundaries
_LONG = st.sampled_from([0, 1, 31, 32, 33, 64, 65]).flatmap(
    lambda n: st.lists(_ITEMS, min_size=n, max_size=n))
_TREES = st.recursive(_LEAVES | _LONG | _LONG.map(tuple), lambda c: _containers(c, 3),
                      max_leaves=4)


def _written(obj) -> list[str]:
    chunks = []
    opr.cli._write_json(obj, chunks.append)
    return chunks


class TestJsonWriter:
    @given(_TREES)
    @settings(max_examples=200, deadline=None)
    def test_matches_sorted_json_dumps(self, obj):
        assert "".join(_written(obj)) == json.dumps(obj, sort_keys=True)

    def test_largest_write_does_not_grow_with_the_trial_count(self):
        def largest_write(trials):
            record = {"algs": {"dtpr": {"ratio": 1.5, "switches": 2}}, "trial": 7}
            result = {"cdf": {"dtpr": [[1.25, 0.5]] * trials}, "trials": [record] * trials}
            return max(map(len, _written(result)))

        # the largest write is one block of trial records, however many ran
        assert largest_write(1000) == largest_write(opr.cli._BLOCK)

    @pytest.mark.parametrize("n", [0, 1, 31, 32, 33, 64, 65])
    def test_a_list_goes_out_one_block_of_items_a_write(self, n):
        items = [{"i": i, "x": i / 3} for i in range(n)]
        blocks = [json.dumps(items[s:s + opr.cli._BLOCK], sort_keys=True)[1:-1]
                  for s in range(0, n, opr.cli._BLOCK)]
        assert len(blocks) == math.ceil(n / 32)
        chunks = _written(items)
        assert (chunks[0], chunks[-1]) == ("[", "]")
        assert chunks[1:-1:2] == blocks
        assert chunks[2:-1:2] == [", "] * (len(blocks) - 1)

    @pytest.mark.parametrize("obj, name", [
        ({1, 2}, "set"),
        ({"a": [b"x"]}, "bytes"),
        ({"a": [{"b": np.int64(3)}]}, "int64"),
        ({"a": 1, "b": {"c": [1, 2, 1j]}}, "complex"),
        ([object()], "object"),
        ((1, frozenset()), "frozenset"),
        ({"a": np.array([1.0])}, "ndarray"),
        ({"a": {"b": decimal.Decimal("1.5")}}, "Decimal"),
        ({"a": range(3)}, "range"),
        ({"a": {}.keys()}, "dict_keys"),
        # the bad item opens the second block, and sits in the third
        ({"trials": [{"r": 1.5}] * 32 + [{"r": np.int64(1)}]}, "int64"),
        ({"cdf": {"x": [(1.5, 0.5)] * 64 + [(1.5, np.float32(1.0))]}}, "float32"),
    ], ids=["set-root", "bytes", "int64", "complex-after-keys", "object", "frozenset-in-tuple",
            "ndarray", "Decimal", "range", "dict-keys", "second-block-int64",
            "third-block-float32"])
    def test_a_value_json_refuses_raises_type_error_naming_its_type(self, obj, name):
        with pytest.raises(TypeError, match=rf"\b{name}\b"):
            json.dumps(obj, sort_keys=True)
        with pytest.raises(TypeError, match=rf"\b{name}\b"):
            _written(obj)

    @pytest.mark.parametrize("obj, name", [
        ({1: "a"}, "int"),
        ({"a": {None: 1}}, "NoneType"),
        ({"a": {"b": {(1,): 2}}}, "tuple"),
    ])
    def test_a_key_that_is_not_a_str_raises_type_error(self, obj, name):
        with pytest.raises(TypeError, match=rf"\b{name}\b"):
            _written(obj)


class TestSimulate:
    def test_intensity_file_rejected_for_max_variant(self, capsys):
        # max studies read carbon-free percentages; intensity values > 100
        # violate that contract and must exit as an input-data error
        assert main(
            ["simulate", "--variant", "max", "--trace", str(SHIPPED_TRACE),
             "--beta", "1", "--trials", "2", "--out", "/tmp/never-max.json"]
        ) == 3

    def test_results_and_cdf_files(self, tmp_path, capsys):
        out = tmp_path / "results.json"
        cdf = tmp_path / "cdf.csv"
        code = main(
            ["simulate", "--variant", "min", "--trace", str(SHIPPED_TRACE),
             "--t-horizon", "24", "--k", "4", "--beta", "10", "--trials", "5",
             "--seed", "7", "--algs", "dtpr,agnostic", "--out", str(out),
             "--cdf", str(cdf)]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["config"]["k"] == 4
        assert len(payload["trials"]) == 5
        assert set(payload["summary"]) == {"dtpr", "agnostic"}
        lines = cdf.read_text().strip().splitlines()
        assert lines[0] == "algorithm,ratio,cum_prob"
        assert len(lines) == 1 + 2 * 5

    def test_noisy_max_run_exits_2_with_trial_2s_full_message(self, tmp_path, capsys):
        # the whole stderr line and the exit code, not only the prefix:
        # trial 2's noised segment lowers L until beta >= kL/2
        out = tmp_path / "r.json"
        assert main(
            ["simulate", "--variant", "max", "--trace", str(SHIPPED_CARBONFREE),
             "--t-horizon", "48", "--k", "8", "--beta-frac", "0.05", "--noise", "2",
             "--trials", "500", "--seed", "42", "--out", str(out)]
        ) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: trial 2: beta=4.947912397446897 >= kL/2=1.0776627445075633: "
            "profit can be forced nonpositive, max ratio is unbounded\n"
        )
        assert not out.exists()

    def test_non_ascii_trace_name_and_region_are_escaped(self, tmp_path, capsys):
        header, *rows = SHIPPED_TRACE.read_text(encoding="utf-8").splitlines(keepends=True)
        assert header.startswith("# region:")
        trace, out = tmp_path / "intensit\u00e4t.csv", tmp_path / "r.json"
        trace.write_text("# region: Z\u00fcrich\n" + "".join(rows), encoding="utf-8")
        assert main(["simulate", "--variant", "min", "--trace", str(trace), "--trials", "2",
                     "--beta-frac", "0.05", "--out", str(out)]) == 0
        text = out.read_text(encoding="utf-8")
        assert text.isascii()
        assert r"intensit\u00e4t.csv" in text and r'"region": "Z\u00fcrich"' in text
        assert text == json.dumps(json.loads(text), sort_keys=True) + "\n"

    def test_byte_identical_reruns(self, tmp_path):
        args = [
            "simulate", "--variant", "min", "--trace", str(SHIPPED_TRACE),
            "--t-horizon", "24", "--beta-frac", "0.05", "--trials", "6",
            "--seed", "21",
        ]
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_synthetic_source_max_variant(self, tmp_path):
        out = tmp_path / "r.json"
        code = main(
            ["simulate", "--variant", "max", "--synthetic",
             "period=24,amp=20,mean=55,seed=3,hours=300", "--t-horizon", "24",
             "--k", "4", "--beta", "0.5", "--trials", "4", "--out", str(out)]
        )
        assert code == 0
        assert json.loads(out.read_text())["config"]["trace_kind"] == "carbon-free"

    def test_empty_synthetic_field_is_skipped(self, tmp_path):
        specs = ("period=24,,amp=80,mean=250", "period=24,amp=80,mean=250")
        texts = []
        for i, spec in enumerate(specs):
            out = tmp_path / f"r{i}.json"
            assert main(
                ["simulate", "--variant", "min", "--synthetic", spec, "--t-horizon", "24",
                 "--beta-frac", "0.05", "--trials", "4", "--out", str(out)]
            ) == 0
            texts.append(out.read_text(encoding="utf-8"))
        # the results echo the spec as given; everything else is the same
        assert texts[0].replace(*specs) == texts[1]

    @pytest.mark.parametrize(
        "spec, message",
        [
            ("seed=nan", "synthetic seed must be finite, got nan"),
            ("hours=inf", "synthetic hours must be finite, got inf"),
            ("amp=-inf", "synthetic amp must be finite, got -inf"),
            ("hours=2.7", "synthetic hours must be a nonnegative integer, got 2.7"),
            ("seed=1.5", "synthetic seed must be a nonnegative integer, got 1.5"),
            ("seed=-1", "synthetic seed must be a nonnegative integer, got -1.0"),
            ("seed=abc", "synthetic seed must be a number, got 'abc'"),
            ("x", "bad synthetic field 'x', expected key=value"),
            ("foo=1", "unknown synthetic key 'foo'"),
            # a repeated key is an error, as a repeated flag is
            ("period=24,period=12", "synthetic period given twice"),
            ("seed=1, SEED=2", "synthetic seed given twice"),
        ],
    )
    def test_bad_synthetic_spec_exits_2_before_any_work(
        self, spec, message, monkeypatch, tmp_path, capsys
    ):
        _forbid(monkeypatch, "synthetic_diurnal")
        out = tmp_path / "r.json"
        assert main(
            ["simulate", "--variant", "min", "--synthetic", spec, "--t-horizon", "24",
             "--beta-frac", "0.05", "--trials", "2", "--out", str(out)]
        ) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("spec, message", [
        ("hours=0", "hours must be >= 1, got 0"),
        ("period=0", "need period > 0, amp >= 0, mean > 0"),
        # 1e15 int64 hours are 7.11 PiB, more than the address space, so
        # the allocation fails at once
        ("hours=1e15", "hours must fit in memory, got 1000000000000000"),
    ])
    def test_synthetic_spec_out_of_range_exits_2(self, spec, message, tmp_path, capsys):
        # rejected by synthetic_diurnal itself, before any trial
        out = tmp_path / "r.json"
        assert main(
            ["simulate", "--variant", "min", "--synthetic", spec, "--t-horizon", "24",
             "--beta-frac", "0.05", "--trials", "2", "--out", str(out)]
        ) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags",
        [["--beta-frac", "nan"], ["--beta", "inf"], ["--beta-frac", "0.05", "--noise", "nan"]],
    )
    def test_non_finite_parameters_exit_2_before_trial_0(self, flags, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert main(
            ["simulate", "--variant", "min", "--trace", str(SHIPPED_TRACE),
             "--trials", "3", "--out", str(out)] + flags
        ) == 2
        err = capsys.readouterr().err
        assert "must be finite" in err and "trial" not in err
        assert not out.exists()

    @pytest.mark.parametrize("flags, message", [
        (["--t-horizon", "5000", "--beta", "1"], "segment length 5000 exceeds trace length 2160"),
        (["--beta-frac", "1e307"], "beta must be finite and nonnegative, got inf"),
    ])
    def test_run_wide_errors_exit_2_before_trial_0(self, flags, message, tmp_path, capsys):
        # decided by the config and the trace alone: no trial is named
        out = tmp_path / "r.json"
        assert main(
            ["simulate", "--variant", "min", "--trace", str(SHIPPED_TRACE),
             "--trials", "3", "--out", str(out)] + flags
        ) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("algs", ["dtpr,dtpr", ","])
    def test_empty_or_repeated_algs_exit_2_before_trial_0(self, algs, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert main(
            ["simulate", "--variant", "min", "--trace", str(SHIPPED_TRACE),
             "--beta", "1", "--trials", "3", "--algs", algs, "--out", str(out)]
        ) == 2
        err = capsys.readouterr().err
        assert "algs" in err and "trial" not in err
        assert not out.exists()

    @pytest.mark.parametrize("missing", ["--out", "--cdf"])
    def test_output_into_missing_directory_exits_3_before_trial_0(
        self, missing, tmp_path, capsys
    ):
        paths = {"--out": tmp_path / "r.json", "--cdf": tmp_path / "cdf.csv"}
        paths[missing] = tmp_path / "absent" / paths[missing].name
        assert main(
            ["simulate", "--variant", "max", "--trace", str(SHIPPED_CARBONFREE),
             "--t-horizon", "48", "--noise", "2", "--beta-frac", "0.05", "--seed", "42",
             "--trials", "10", "--out", str(paths["--out"]), "--cdf", str(paths["--cdf"])]
        ) == 3
        err = capsys.readouterr().err
        # this run fails at trial 2 once trials start, so the error must come first
        assert "absent" in err and "trial" not in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flag", ["--out", "--cdf"])
    def test_output_naming_a_directory_exits_3_before_trial_0(
        self, flag, tmp_path, capsys, monkeypatch
    ):
        _forbid(monkeypatch, "run_experiment")
        (tmp_path / "dir").mkdir()
        paths = {"--out": str(tmp_path / "r.json"), "--cdf": str(tmp_path / "cdf.csv")}
        paths[flag] = str(tmp_path / "dir")
        assert main(
            ["simulate", "--variant", "min", "--trace", str(SHIPPED_TRACE), "--beta", "1",
             "--trials", "3", "--out", paths["--out"], "--cdf", paths["--cdf"]]
        ) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and "directory" in captured.err
        assert [p.name for p in tmp_path.iterdir()] == ["dir"]
        assert list((tmp_path / "dir").iterdir()) == []

    @pytest.mark.parametrize("flag", ["--out", "--cdf"])
    def test_output_naming_the_trace_exits_2_before_trial_0(
        self, flag, tmp_path, capsys, monkeypatch
    ):
        _forbid(monkeypatch, "run_experiment")
        trace = tmp_path / "trace.csv"
        trace.write_bytes(SHIPPED_TRACE.read_bytes())
        paths = {"--out": str(tmp_path / "r.json"), "--cdf": str(tmp_path / "cdf.csv")}
        paths[flag] = str(trace)
        assert main(
            ["simulate", "--variant", "min", "--trace", str(trace), "--beta", "1",
             "--trials", "3", "--out", paths["--out"], "--cdf", paths["--cdf"]]
        ) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "same file as the input" in captured.err
        assert trace.read_bytes() == SHIPPED_TRACE.read_bytes()
        assert [p.name for p in tmp_path.iterdir()] == ["trace.csv"]

    def test_out_and_cdf_naming_one_file_exit_2_before_trial_0(
        self, tmp_path, capsys, monkeypatch
    ):
        _forbid(monkeypatch, "run_experiment")
        monkeypatch.chdir(tmp_path)
        assert main(
            ["simulate", "--variant", "min", "--trace", str(SHIPPED_TRACE), "--beta", "1",
             "--trials", "3", "--out", "r.json", "--cdf", "./r.json"]
        ) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "same file" in captured.err
        assert list(tmp_path.iterdir()) == []

    def test_trace_naming_a_directory_exits_3(self, tmp_path, capsys):
        assert main(
            ["simulate", "--variant", "min", "--trace", str(tmp_path), "--beta", "1",
             "--out", str(tmp_path / "r.json")]
        ) == 3
        assert capsys.readouterr().out == ""
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flag, name", [
        ("--trace", "file/x.csv"),  # NotADirectoryError
        ("--trace", "t" * 300 + ".csv"),  # OSError: file name too long
        ("--out", "r" * 300 + ".json"),  # the same, from the out-path check
    ], ids=["trace-under-a-file", "trace-name-too-long", "out-name-too-long"])
    def test_os_error_on_a_path_exits_3_with_one_error_line(self, flag, name, tmp_path, capsys):
        (tmp_path / "file").write_text("")
        paths = {"--trace": str(SHIPPED_TRACE), "--out": str(tmp_path / "r.json")}
        paths[flag] = str(tmp_path / name)
        assert main(
            ["simulate", "--variant", "min", "--trace", paths["--trace"], "--beta-frac", "0.05",
             "--trials", "3", "--out", paths["--out"]]
        ) == 3
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
        assert [p.name for p in tmp_path.iterdir()] == ["file"]

    def test_missing_trace_exits_3(self, capsys):
        assert main(
            ["simulate", "--variant", "min", "--trace", "/nonexistent.csv",
             "--beta", "1", "--out", "/tmp/never.json"]
        ) == 3

    def test_undecodable_trace_exits_3_with_one_error_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"timestamp,value\n2021-01-01T00:00:00+00:00,5\n\xff\xfe,7\n")
        assert main(
            ["simulate", "--variant", "min", "--trace", str(bad), "--beta", "1",
             "--out", str(tmp_path / "r.json")]
        ) == 3
        assert capsys.readouterr() == ("", "error: row 3: not valid UTF-8\n")

    def test_malformed_trace_exits_3(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("timestamp,value\n2021-01-01T00:00:00+00:00,-4\n")
        assert main(
            ["simulate", "--variant", "min", "--trace", str(bad), "--beta", "1",
             "--out", str(tmp_path / "r.json")]
        ) == 3


class TestAdversary:
    def test_run_and_dump(self, tmp_path, capsys):
        seq = tmp_path / "seq.csv"
        code = main(
            ["adversary", "--variant", "min", "--k", "4", "--u", "30", "--l", "5",
             "--beta", "2", "--alg", "dtpr", "--dump-sequence", str(seq)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "ratio" in out and "theoretical alpha" in out
        lines = seq.read_text().strip().splitlines()
        assert lines[0] == "t,price,decision"
        assert len(lines) > 4

    def test_dump_into_missing_directory_exits_3_before_the_adversary(
        self, tmp_path, capsys, monkeypatch
    ):
        _forbid(monkeypatch, "adversary_min")
        assert main(
            ["adversary", "--variant", "min", "--k", "4", "--u", "30", "--l", "5",
             "--beta", "2", "--alg", "dtpr",
             "--dump-sequence", str(tmp_path / "missing" / "a.csv")]
        ) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and "missing" in captured.err
        assert list(tmp_path.iterdir()) == []

    def test_regime_error_exit_2(self, capsys):
        assert main(
            ["adversary", "--variant", "min", "--k", "4", "--u", "30", "--l", "5",
             "--beta", "0", "--alg", "dtpr"]
        ) == 2

    def test_bad_k_on_the_max_side_exits_2_naming_k(self, capsys):
        # the cell is checked before the regime, whose edge kL/2 would be 0
        assert main(
            ["adversary", "--variant", "max", "--k", "0", "--u", "30", "--l", "5",
             "--beta", "1", "--alg", "dtpr"]
        ) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: k must be a positive integer, got 0\n"

    def test_variant_suffixed_name_exits_2_with_choices(self, capsys):
        assert main(
            ["adversary", "--variant", "min", "--k", "4", "--u", "30", "--l", "5",
             "--beta", "2", "--alg", "dtpr-min"]
        ) == 2
        err = capsys.readouterr().err
        assert "'dtpr-min'" in err
        assert "('dtpr', 'ksearch', 'const', 'agnostic')" in err


#: the exact stdout of theory's eight `opr adversary` runs (k=40, U=30,
#: L=5, beta=3): player, slots, both totals, ratio and the cell's bound
THEORY_ADVERSARY_STDOUT = {
    ("min", "dtpr"): ("3360", "1206.000000", "435.492819", "2.769276429"),
    ("min", "ksearch"): ("120", "651.645809", "206.000000", "3.163329168"),
    ("min", "const"): ("120", "729.897948", "206.000000", "3.543193922"),
    ("min", "agnostic"): ("80", "1186.737320", "206.000000", "5.760860779"),
    ("max", "dtpr"): ("3360", "194.000000", "497.339742", "2.563606917"),
    ("max", "ksearch"): ("109", "262.387250", "804.878933", "3.067523040"),
    ("max", "const"): ("120", "249.897949", "1194.000000", "4.777950374"),
    ("max", "agnostic"): ("80", "201.583494", "1194.000000", "5.923104015"),
}

THEORY_BOUND = {"min": "theoretical alpha: 2.769276433", "max": "theoretical omega: 2.563606921"}


def _theory_adversary(variant, alg):
    return main(["adversary", "--variant", variant, "--k", "40", "--u", "30", "--l", "5",
                 "--beta", "3", "--alg", alg])


class TestTheoryAdversaryRuns:
    @pytest.mark.parametrize("variant, alg", list(THEORY_ADVERSARY_STDOUT))
    def test_stdout_is_pinned(self, variant, alg, capsys):
        slots, alg_total, opt_total, ratio = THEORY_ADVERSARY_STDOUT[variant, alg]
        assert _theory_adversary(variant, alg) == 0
        assert capsys.readouterr().out == (
            f"player          : {alg}\n"
            f"realized slots  : {slots}\n"
            f"alg total       : {alg_total}\n"
            f"opt total       : {opt_total}\n"
            f"ratio           : {ratio}\n"
            f"{THEORY_BOUND[variant]}\n"
        )

    @pytest.mark.parametrize("variant", ["min", "max"])
    @pytest.mark.parametrize("alg, solves", [("dtpr", 1), ("ksearch", 2), ("const", 1),
                                             ("agnostic", 1)])
    def test_each_cell_is_solved_once(self, variant, alg, solves, monkeypatch, capsys):
        # the probe family's cell is solved once and serves the probes, the
        # DTPR player and the printed bound; k-search adds its beta = 0 cell
        calls, solve = [], opr.thresholds.solve_ratios

        def spy(variant, cells):
            cells = list(cells)
            calls.append(cells)
            return solve(variant, cells)

        monkeypatch.setattr(opr.thresholds, "solve_ratios", spy)
        assert _theory_adversary(variant, alg) == 0
        assert len(calls) == solves
        assert all(calls)
