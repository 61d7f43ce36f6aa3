"""The command-line interface: loading, output modes, exit codes, determinism."""

import argparse
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import stallings
from stallings import FuzzConfig, InstanceReport, ReadBudgetError, Verdict, check_instance, fuzz
from stallings.cli import _build_parser, run
from stallings.verify import FAIL

from conftest import make


def invoke(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(list(argv), stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


SMALL_H = '{"generators": ["a", "bab"]}'
SMALL_K = '{"generators": ["b", "aa"]}'


# -- argument handling ---------------------------------------------------------------


def test_no_arguments_is_a_usage_error(capsys):
    assert run([]) == 1
    capsys.readouterr()


def test_help_exits_cleanly(capsys):
    assert run(["--help"]) == 0
    capsys.readouterr()


def test_unknown_subcommand(capsys):
    assert run(["frobnicate"]) == 1
    capsys.readouterr()


SWITCH = "switch"  # an option that takes no value


def test_every_subcommand_has_exactly_its_arguments_and_defaults():
    """The parser table, walked: each subcommand's positionals, and each of
    its options (``-h`` aside) with its default, or SWITCH when it takes no
    value.  The fuzz defaults are FuzzConfig's own."""
    (subcommands,) = [
        a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    found = {}
    for name, parser in subcommands.choices.items():
        actions = [a for a in parser._actions if a.dest != "help"]
        positionals = [a.metavar for a in actions if not a.option_strings]
        options = {
            option: SWITCH if a.nargs == 0 else a.default
            for a in actions
            for option in a.option_strings
        }
        found[name] = (positionals, options)

    config = FuzzConfig()
    assert config[:5] == (0, 100, 1, 4, 8)
    pair = ["SPEC_H", "SPEC_K"]
    graph = {"--json": SWITCH, "--dot": SWITCH}
    assert found == {
        "core": (["GEN"], {**graph, "--rank": 2}),
        "intersect": (pair, graph),
        "join": (pair, graph),
        "pushout": (pair, graph),
        "matrix": (pair, {"--json": SWITCH, "--normalize": SWITCH}),
        "check": (pair, {"--json": SWITCH}),
        "corpus": ([], {"--json": SWITCH}),
        "fuzz": (
            [],
            {
                "--seed": config.seed,
                "--count": config.instance_count,
                "--min-rank": config.min_generators,
                "--max-rank": config.max_generators,
                "--max-len": config.max_word_length,
                "--inequalities-only": SWITCH,
                "--nontrivial-meet": SWITCH,
            },
        ),
    }


# -- core ----------------------------------------------------------------------------


def test_core_text_output():
    code, out, err = invoke("core", "a", "bab")
    assert code == 0 and err == ""
    assert "rank: 2" in out
    assert "vertices: 3" in out
    assert "chi: -1" in out
    assert "basis:" in out


def test_core_json_output():
    code, out, _ = invoke("core", "a", "bab", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["rank"] == 2
    assert data["generators"] == ["a", "bab"]
    assert data["vertices"] == 3 and data["edges"] == 4


def test_core_dot_output():
    code, out, _ = invoke("core", "a", "bab", "--dot")
    assert code == 0
    assert out.startswith("digraph")
    assert "doublecircle" in out


def test_core_reports_word_position():
    code, out, err = invoke("core", "a", "ax")
    assert code == 1
    assert "generator 2" in err and "position 1" in err


def test_core_custom_rank():
    code, out, _ = invoke("core", "abc", "--rank", "3", "--json")
    assert code == 0
    assert json.loads(out)["alphabet_rank"] == 3


def test_core_rejects_bad_rank():
    code, out, err = invoke("core", "a", "--rank", "0")
    assert (code, out, err) == (1, "", "error: alphabet rank must be at least 1, got 0\n")


# -- intersect / join ----------------------------------------------------------------


def test_intersect_example():
    code, out, _ = invoke("intersect", SMALL_H, SMALL_K, "--json")
    assert code == 0
    data = json.loads(out)
    assert data["rank"] == 1 and data["basis"] == ["aa"]


def test_join_example():
    code, out, _ = invoke("join", SMALL_H, SMALL_K, "--json")
    assert code == 0
    data = json.loads(out)
    assert data["rank"] == 2 and (data["vertices"], data["edges"]) == (1, 2)


def test_specs_can_come_from_files(tmp_path):
    left = tmp_path / "h.json"
    right = tmp_path / "k.json"
    left.write_text(SMALL_H)
    right.write_text(SMALL_K)
    code, out, _ = invoke("intersect", str(left), str(right), "--json")
    assert code == 0 and json.loads(out)["basis"] == ["aa"]


def test_missing_file_is_named():
    code, _, err = invoke("intersect", "nosuchfile.json", SMALL_K)
    assert code == 1
    assert "SPEC_H" in err and "nosuchfile.json" in err


@pytest.mark.parametrize("kind", ["directory", "not utf-8"])
def test_unreadable_spec_file_is_an_input_error(tmp_path, kind):
    path = tmp_path
    if kind == "not utf-8":
        path = tmp_path / "latin1.json"
        path.write_bytes('{"generators": ["a"]} \u00e9'.encode("latin-1"))
    code, out, err = invoke("check", SMALL_H, str(path))
    assert code == 1 and out == ""
    assert err.startswith(f"error: SPEC_K: cannot read {path}: ")


def test_malformed_inline_json_reports_position():
    code, _, err = invoke("intersect", '{"generators": [}', SMALL_K)
    assert code == 1
    assert "SPEC_H" in err and "position" in err


def test_malformed_file_json_reports_line(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{\n  "generators": [}\n')
    code, _, err = invoke("intersect", str(bad), SMALL_K)
    assert code == 1 and "line 2" in err


def test_word_error_inside_spec_is_prefixed():
    code, _, err = invoke("intersect", '{"generators": ["ax"]}', SMALL_K)
    assert code == 1
    assert "SPEC_H" in err and "position 1" in err


@pytest.mark.parametrize(
    "spec, field",
    [
        ('{"alphabet_rank": true, "generators": ["a"]}', "alphabet_rank"),
        ('{"generators": [1]}', "generators"),
        ('{"alphabet_rank": 26, "generators": [true]}', "generators"),
    ],
)
def test_malformed_spec_fields_are_named(spec, field):
    code, out, err = invoke("check", spec, SMALL_K)
    assert code == 1 and out == ""
    assert err.startswith(f"error: SPEC_H: {field}")


def test_non_object_spec_rejected(tmp_path):
    listing = tmp_path / "list.json"
    listing.write_text('["a"]')
    code, _, err = invoke("intersect", str(listing), SMALL_K)
    assert code == 1 and "JSON object" in err


def test_alphabet_mismatch_names_both_ranks():
    wide = '{"alphabet_rank": 3, "generators": ["c"]}'
    code, _, err = invoke("intersect", SMALL_H, wide)
    assert code == 1
    assert "rank 2" in err and "rank 3" in err


# a based meet of 101 * 103 vertices, whose dart table of 2 * 838 slots a
# vertex is past SLOT_BUDGET: a refusal of the library, not of the CLI
WIDE_H = json.dumps({"alphabet_rank": 838, "generators": ["a" * 101]})
WIDE_K = json.dumps({"alphabet_rank": 838, "generators": ["a" * 103]})


@pytest.mark.parametrize("command", ["intersect", "pushout", "matrix"])
def test_a_library_refusal_exits_one_from_every_command(command):
    code, out, err = invoke(command, WIDE_H, WIDE_K)
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: a graph of rank 838 needs 17435428 dart slots")


# -- pushout -------------------------------------------------------------------------


def test_pushout_summary():
    code, out, _ = invoke("pushout", SMALL_H, SMALL_K, "--json")
    assert code == 0
    data = json.loads(out)
    assert data["chi"] == -2 and data["chi_join"] == -1
    assert data["folds_to_join"] is True
    assert data["special_vertex_count"] == 0


def test_pushout_dot():
    code, out, _ = invoke("pushout", SMALL_H, SMALL_K, "--dot")
    assert code == 0 and out.startswith("digraph")


# -- matrix --------------------------------------------------------------------------


def test_matrix_requires_normalization_hint():
    code, _, err = invoke("matrix", '{"generators": ["a", "b"]}', SMALL_K)
    assert code == 1
    assert "--normalize" in err


def test_matrix_normalized_run():
    code, out, _ = invoke("matrix", SMALL_H, SMALL_K, "--normalize", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["shape"] == [2, 2]
    assert data["entry_sum"] == 0
    assert (data["ell"], data["p"], data["q"]) == (0, 2, 2)
    assert data["star_class_count"] == 4
    assert data["entry_sum_bound"] is None
    assert data["violations"] == []
    assert data["matrix"] == [[0, 0], [0, 0]]


def test_matrix_text_render():
    code, out, _ = invoke("matrix", SMALL_H, SMALL_H, "--normalize")
    assert code == 0
    assert "matrix:" in out and "normal form:" in out
    assert "entry_sum: 2" in out
    assert "violations: none" in out


def test_matrix_trivial_meet_is_an_input_error():
    code, _, err = invoke(
        "matrix", SMALL_H, '{"generators": ["b", "aBabA"]}', "--normalize"
    )
    assert code == 1 and "intersection" in err


@pytest.mark.parametrize(
    "left, right",
    [
        ('{"alphabet_rank": 3, "generators": ["a", "bc"]}',
         '{"alphabet_rank": 3, "generators": ["ac", "b"]}'),
        ('{"alphabet_rank": 1, "generators": ["a"]}',
         '{"alphabet_rank": 1, "generators": ["aa"]}'),
    ],
)
def test_matrix_normalize_off_rank_two_is_an_input_error(left, right):
    code, out, err = invoke("matrix", left, right, "--normalize")
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "rank-2" in err


def test_matrix_normalize_walks_the_normalized_meet_once(monkeypatch):
    """self_join needs no conjugation, so the product component walked to
    test the meet for triviality is the normalized pair's meet as well."""
    from stallings import graphs, products, verify

    walked = []

    def counting(g1, g2):
        walked.append((g1, g2))
        return graphs.based_product(g1, g2)

    for module in (products, verify):
        monkeypatch.setattr(module, "based_product", counting)
    code, _, _ = invoke("matrix", SMALL_H, SMALL_H, "--normalize")
    assert code == 0
    assert len(walked) == 1


# -- check ---------------------------------------------------------------------------


def test_check_passes_on_small_pair():
    code, out, _ = invoke("check", SMALL_H, SMALL_K)
    assert code == 0
    assert "rank_meet: 1" in out
    assert "rank_join: 2" in out
    assert "overall: pass" in out


def test_check_json_is_a_full_report():
    code, out, _ = invoke("check", SMALL_H, SMALL_K, "--json")
    assert code == 0
    report = InstanceReport.from_dict(json.loads(out))
    assert (report.rank_meet, report.rank_join) == (1, 2)
    assert report.ok


def test_check_rejects_trivial_subgroup():
    code, _, err = invoke("check", '{"generators": []}', SMALL_K)
    assert code == 1 and "trivial" in err


def test_check_exit_two_on_verdict_failure(monkeypatch):
    """A failing verdict (doctored: real ones stay green) must exit 2."""
    import stallings.cli as cli_module

    real = check_instance(make("a", "bab"), make("b", "aa"))
    data = real.to_dict()
    data["verdicts"]["hanna_neumann"] = Verdict(FAIL, -1).to_dict()
    doctored = InstanceReport.from_dict(data)
    assert not doctored.ok
    monkeypatch.setattr(cli_module, "check_instance", lambda H, K: doctored)
    code, out, _ = invoke("check", SMALL_H, SMALL_K)
    assert code == 2
    assert "overall: FAIL" in out


def test_check_exits_one_when_the_double_cosets_pass_their_budget(monkeypatch):
    import stallings.products

    monkeypatch.setattr(stallings.products, "READ_BUDGET", 3)
    code, out, err = invoke("check", SMALL_H, SMALL_K)
    assert code == 1
    assert out == ""
    assert err.startswith("error: double cosets read more than 3 letters")


# -- corpus --------------------------------------------------------------------------


def test_corpus_runs_green():
    code, out, _ = invoke("corpus")
    assert code == 0
    assert "overall: pass" in out
    assert "pushout_gap" in out and "squares_construction" in out


def test_corpus_json():
    code, out, _ = invoke("corpus", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["ok"] is True and len(data["entries"]) == 9


def test_corpus_exit_two_on_failure(monkeypatch):
    import stallings.cli as cli_module

    monkeypatch.setattr(
        cli_module,
        "corpus",
        lambda: {"ok": False, "entries": [{"name": "x", "ok": False, "problems": ["boom"]}]},
    )
    code, out, _ = invoke("corpus")
    assert code == 2 and "FAIL" in out and "boom" in out


# -- fuzz ----------------------------------------------------------------------------


def test_fuzz_streams_json_lines():
    code, out, summary = invoke("fuzz", "--count", "5", "--seed", "7")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 5
    for i, line in enumerate(lines):
        data = json.loads(line)
        assert data["index"] == i
        assert "generators" in data["left"] and "report" in data
    assert "instances: 5" in summary and "ok: True" in summary


def test_fuzz_summary_goes_to_the_given_stderr(capsys):
    """The summary lands in run()'s stderr, and stdout does not change."""
    plain = io.StringIO()
    assert run(["fuzz", "--count", "4", "--seed", "5"], stdout=plain) == 0
    default_err = capsys.readouterr().err
    code, out, err = invoke("fuzz", "--count", "4", "--seed", "5")
    assert code == 0
    assert err == default_err == "instances: 4  violations: 0  ok: True\n"
    assert capsys.readouterr().err == ""
    assert out.encode() == plain.getvalue().encode()


def test_fuzz_is_byte_identical_across_runs(capsys):
    _, first, _ = invoke("fuzz", "--count", "6", "--seed", "3")
    _, second, _ = invoke("fuzz", "--count", "6", "--seed", "3")
    capsys.readouterr()
    assert first == second


def test_fuzz_seed_comes_from_the_flag_alone(capsys, monkeypatch):
    """No environment variable moves the bytes behind a ``--seed``."""
    monkeypatch.delenv("STALLINGS_SEED", raising=False)
    _, plain, _ = invoke("fuzz", "--count", "4", "--seed", "3")
    monkeypatch.setenv("STALLINGS_SEED", "11")
    code, with_env, _ = invoke("fuzz", "--count", "4", "--seed", "3")
    capsys.readouterr()
    assert code == 0 and with_env == plain


def test_fuzz_flag_validation_is_an_input_error(capsys):
    code, _, err = invoke("fuzz", "--count", "2", "--min-rank", "0")
    capsys.readouterr()
    assert code == 1 and "min_generators" in err


def test_fuzz_inequalities_only_mode(capsys):
    code, out, _ = invoke(
        "fuzz", "--count", "3", "--inequalities-only", "--nontrivial-meet"
    )
    capsys.readouterr()
    assert code == 0
    for line in out.strip().splitlines():
        report = json.loads(line)["report"]
        assert report["normalized"] is False
        assert report["rank_meet"] >= 1


def test_fuzz_exit_two_on_violation(monkeypatch):
    import stallings.cli as cli_module

    real = check_instance(make("a", "bab"), make("b", "aa"))
    data = real.to_dict()
    data["verdicts"]["burns"] = Verdict(FAIL, -2).to_dict()
    doctored = InstanceReport.from_dict(data)
    pair = (make("a", "bab").spec_dict(), make("b", "aa").spec_dict())
    monkeypatch.setattr(cli_module, "fuzz", lambda config: iter([(*pair, doctored)]))
    code, out, err = invoke("fuzz", "--count", "1")
    assert code == 2
    assert "violations: 1" in err


def test_fuzz_writes_each_line_before_the_next_pair(monkeypatch):
    import stallings.cli as cli_module

    _, expected, _ = invoke("fuzz", "--count", "3", "--seed", "7")
    items = list(fuzz(FuzzConfig(seed=7, instance_count=3)))
    out = io.StringIO()

    def stream(config):
        for i, item in enumerate(items):
            assert out.getvalue().count("\n") == i
            yield item

    monkeypatch.setattr(cli_module, "fuzz", stream)
    assert run(["fuzz", "--count", "3"], stdout=out, stderr=io.StringIO()) == 0
    assert out.getvalue() == expected


def test_fuzz_error_mid_stream_keeps_the_lines_written(monkeypatch):
    import stallings.cli as cli_module

    first = next(fuzz(FuzzConfig(seed=7, instance_count=1)))

    def stream(config):
        yield first
        raise ReadBudgetError("pair refused: too many letters read")

    monkeypatch.setattr(cli_module, "fuzz", stream)
    code, out, err = invoke("fuzz", "--count", "2")
    assert code == 1
    assert out.count("\n") == 1 and json.loads(out)["index"] == 0
    assert err == "error: pair refused: too many letters read\n"


def test_fuzz_stops_when_stdout_is_closed():
    """A reader that leaves early (``| head -n 1``) ends the campaign: exit 1,
    no traceback, and no more pairs drawn."""
    src = str(Path(stallings.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    argv = ["fuzz", "--count", "1000000", "--inequalities-only"]
    proc = subprocess.Popen(
        [sys.executable, "-m", "stallings.cli", *argv],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    try:
        assert json.loads(proc.stdout.readline())["index"] == 0
        proc.stdout.close()
        code = proc.wait(timeout=60)
        err = proc.stderr.read().decode()
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()
    assert code == 1
    assert "Traceback" not in err


# -- determinism of reporting commands ------------------------------------------------


def test_check_output_is_deterministic():
    runs = {invoke("check", SMALL_H, SMALL_K, "--json") for _ in range(3)}
    assert len(runs) == 1
