"""Command-line behaviour: exit codes, config precedence, artifact files."""

from __future__ import annotations

import json
import re

import pytest

import provekit.cli as cli_mod
from provekit.cli import main
from provekit.search import mix_seed
from provekit.trace import read_trace_dir
from provekit.training import load_trajectories

GOALS_SRC = """\
# mixed bag: two theorems, one conjunction, one falsehood
goal add_zero (x: Int) := x + 0 = x
goal mul_one (x: Int) := x * 1 = x
goal conj (x: Int) := x + 0 = x /\\ x * 1 = x
goal broken (x: Int) := x < 3
"""


@pytest.fixture()
def goals_file(tmp_path):
    path = tmp_path / "goals.txt"
    path.write_text(GOALS_SRC)
    return path


@pytest.fixture(scope="module")
def analyzed_traces(tmp_path_factory):
    """One shared generation run feeding the analyze subcommand tests."""
    base = tmp_path_factory.mktemp("analyze")
    goals = base / "goals.txt"
    goals.write_text(GOALS_SRC)
    trace_dir = base / "traces"
    code = main(
        [
            "run",
            str(goals),
            "--goal", "add_zero",
            "--goal", "broken",
            "--policy", "direct",
            "--k", "2",
            "--complete-iters", "3",
            "--qc-trials", "300",
            "--trace-dir", str(trace_dir),
        ]
    )
    assert code == 2  # broken is disproved, so not everything solved
    return trace_dir


def test_run_proves_and_exits_zero(goals_file, capsys):
    code = main(["run", str(goals_file), "--goal", "add_zero", "--policy", "direct",
                 "--k", "2", "--qc-trials", "200"])
    out = capsys.readouterr().out
    assert code == 0
    assert "add_zero: proved on run 1/2" in out


def test_run_exhausted_exits_two(goals_file, capsys):
    code = main(["run", str(goals_file), "--goal", "add_zero", "--policy", "direct",
                 "--decompose-iters", "0", "--complete-iters", "0"])
    out = capsys.readouterr().out
    assert code == 2
    assert "add_zero: exhausted after 1 run(s)" in out


def test_run_disproof_prints_witness(goals_file, capsys):
    code = main(["run", str(goals_file), "--goal", "broken", "--policy", "direct",
                 "--qc-trials", "300"])
    out = capsys.readouterr().out
    assert code == 2
    assert "broken: disproved, witness {" in out


def test_run_traces_are_named_by_run_id(goals_file, tmp_path):
    trace_dir = tmp_path / "traces"
    code = main(["run", str(goals_file), "--goal", "add_zero", "--policy", "direct",
                 "--k", "2", "--qc-trials", "200", "--trace-dir", str(trace_dir)])
    assert code == 0
    goal_seed = mix_seed(0, "add_zero")
    expected = {
        f"add_zero.r0.s{goal_seed ^ 0}.jsonl",
        f"add_zero.r1.s{goal_seed ^ 1}.jsonl",
    }
    assert {p.name for p in trace_dir.glob("*.jsonl")} == expected
    traces = read_trace_dir(trace_dir)
    assert [t.header["run_index"] for t in traces] == [0, 1]
    assert all(t.header["problem"] == "add_zero" for t in traces)


def test_run_through_worker_pool(goals_file, capsys):
    code = main(["run", str(goals_file), "--goal", "mul_one", "--policy", "direct",
                 "--workers", "2", "--qc-trials", "200"])
    assert code == 0
    assert "mul_one: proved" in capsys.readouterr().out


def test_unknown_goal_name_aborts(goals_file, capsys):
    code = main(["run", str(goals_file), "--goal", "nope", "--policy", "direct"])
    assert code == 3
    assert "no such goal" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, goal, message",
    [(GOALS_SRC, "nope", "no such goal"), ("# only a comment\n", None, "declares no goals")],
    ids=["unknown_goal", "empty_file"],
)
def test_qc_input_errors_are_engine_errors(tmp_path, capsys, text, goal, message):
    # qc's exit 1 means "counterexample found", so a goal it cannot find must not end with it.
    path = tmp_path / "goals.txt"
    path.write_text(text)
    code = main(["qc", str(path), *(["--goal", goal] if goal else [])])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("error:") and message in err


def test_qc_counterexample_exits_one(goals_file, capsys):
    code = main(["qc", str(goals_file), "--goal", "broken", "--trials", "300"])
    out = capsys.readouterr().out
    assert code == 1
    assert re.search(r"broken: counterexample at trial \d+: \{", out)


def test_qc_clean_goals_exit_zero(goals_file, capsys):
    code = main(["qc", str(goals_file), "--goal", "add_zero", "--goal", "mul_one",
                 "--trials", "200"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("no counterexample in 200 trials") == 2


def test_qc_goal_that_runs_out_of_budget_is_not_clean(tmp_path, capsys):
    # The first trial needs more than 20 000 nodes, so no trial finishes.
    path = tmp_path / "goals.txt"
    path.write_text(GOALS_SRC + "goal g := forall a: IntList, forall b: IntList, a ++ b = a ++ b\n")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"domain": {"node_budget": 20000}}))

    code = main(["--config", str(config), "qc", str(path), "--goal", "g", "--goal", "add_zero"])
    out = capsys.readouterr().out
    assert code == 2
    assert "g: stopped after 0 of 1000 trials: node budget ran out" in out
    assert "add_zero: no counterexample in 1000 trials" in out

    # A counterexample still decides the exit code.
    code = main(["--config", str(config), "qc", str(path), "--goal", "g", "--goal", "broken"])
    assert code == 1
    assert "broken: counterexample" in capsys.readouterr().out


def test_config_file_applies_and_flags_override(goals_file, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"qc": {"trials": 7}, "search": {"complete_iters": 9}}))

    code = main(["--config", str(config), "qc", str(goals_file), "--goal", "add_zero"])
    assert code == 0
    assert "no counterexample in 7 trials" in capsys.readouterr().out

    code = main(["--config", str(config), "qc", str(goals_file), "--goal", "add_zero",
                 "--trials", "12"])
    assert code == 0
    assert "no counterexample in 12 trials" in capsys.readouterr().out


def test_engine_errors_exit_three(goals_file, tmp_path, capsys):
    bad_config = tmp_path / "bad.json"
    bad_config.write_text(json.dumps({"bogus": {}}))
    code = main(["--config", str(bad_config), "qc", str(goals_file)])
    captured = capsys.readouterr()
    assert code == 3
    assert "error:" in captured.err and "bogus" in captured.err

    garbled = tmp_path / "garbled.txt"
    garbled.write_text("this is not a goal file\n")
    code = main(["qc", str(garbled)])
    assert code == 3
    assert "error:" in capsys.readouterr().err


def test_run_flag_k_overrides_the_file(goals_file, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"search": {"k_parallel": 3}}))
    argv = ["--config", str(config), "run", str(goals_file), "--goal", "add_zero",
            "--policy", "direct", "--qc-trials", "200"]
    assert main(argv) == 0
    assert "add_zero: proved on run 1/3" in capsys.readouterr().out
    assert main([*argv, "--k", "2"]) == 0
    assert "add_zero: proved on run 1/2" in capsys.readouterr().out


def test_run_flag_workers_overrides_the_file(goals_file, tmp_path, monkeypatch, capsys):
    widths = []
    real_pool = cli_mod.VerificationPool

    def recording_pool(checker, config):
        widths.append(config.max_concurrent)
        return real_pool(checker, config)

    monkeypatch.setattr(cli_mod, "VerificationPool", recording_pool)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"pool": {"max_concurrent": 7}}))
    code = main(["--config", str(config), "run", str(goals_file), "--goal", "mul_one",
                 "--policy", "direct", "--workers", "2", "--qc-trials", "200"])
    assert code == 0
    assert "mul_one: proved" in capsys.readouterr().out
    assert widths and set(widths) == {2}


def test_run_takes_its_pool_from_the_config_file(goals_file, tmp_path, capsys):
    config = tmp_path / "config.json"
    argv = ["--config", str(config), "run", str(goals_file), "--goal", "mul_one",
            "--policy", "direct", "--qc-trials", "100"]
    config.write_text(json.dumps({"pool": {"max_concurrent": 0, "bogus": 1}}))
    assert main(argv) == 3
    assert "bogus" in capsys.readouterr().err

    config.write_text(json.dumps({"pool": {"max_concurrent": 2}}))
    trace_dir = tmp_path / "traces"
    assert main([*argv, "--trace-dir", str(trace_dir)]) == 0
    (trace,) = read_trace_dir(trace_dir)
    (end,) = [e for e in trace.events if e["type"] == "run_end"]
    assert end["pool"] is not None


C3_SRC = "goal c3 (a: Int) (b: Int) (c: Int) := a + 0 = a /\\ (b * 1 = b /\\ c - 0 = c)\n"


def test_a_one_slot_pool_queues_every_leaf_of_a_sweep(tmp_path, capsys):
    goals = tmp_path / "g.txt"
    goals.write_text(C3_SRC)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"pool": {"max_concurrent": 1}}))
    trace_dir = tmp_path / "traces"
    code = main(["--config", str(config), "run", str(goals), "--policy", "split:3", "--k", "1",
                 "--decompose-iters", "1", "--trace-dir", str(trace_dir)])
    assert code == 0
    assert "c3: proved" in capsys.readouterr().out
    (trace,) = read_trace_dir(trace_dir)
    (end,) = [e for e in trace.events if e["type"] == "run_end"]
    assert end["pool"]["submitted"] == 3


def test_a_pool_queue_capacity_in_the_file_is_an_error(goals_file, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"pool": {"max_concurrent": 1, "queue_capacity": 4}}))
    code = main(["--config", str(config), "run", str(goals_file), "--goal", "add_zero",
                 "--policy", "direct", "--qc-trials", "100"])
    assert code == 3
    err = capsys.readouterr().err
    assert "config section 'pool' has unknown keys ['queue_capacity']" in err


@pytest.mark.parametrize("command", ["run", "collect"])
def test_a_non_integer_split_depth_is_an_engine_error(goals_file, tmp_path, command, capsys):
    argv = [command, str(goals_file), "--goal", "conj", "--policy", "split:x"]
    if command == "collect":
        argv += ["--out", str(tmp_path / "out.jsonl")]
    assert main(argv) == 3
    assert "error: policy 'split:x': split depth must be an integer" in capsys.readouterr().err


@pytest.mark.parametrize("depth", ["0", "-1"])
@pytest.mark.parametrize("command", ["run", "collect"])
def test_a_split_depth_below_one_is_an_engine_error(goals_file, tmp_path, command, depth, capsys):
    # At depth 0 the splitter proposed the goal itself as its only lemma.
    argv = [command, str(goals_file), "--goal", "conj", "--policy", f"split:{depth}"]
    if command == "collect":
        argv += ["--out", str(tmp_path / "out.jsonl")]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert f"error: policy 'split:{depth}': split depth must be a positive integer" in err


def test_a_flag_overrides_an_invalid_value_in_the_file(goals_file, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"search": {"k_parallel": 0}}))
    argv = ["--config", str(config), "run", str(goals_file), "--goal", "add_zero",
            "--policy", "direct", "--qc-trials", "200"]
    assert main(argv) == 3
    assert "k_parallel" in capsys.readouterr().err
    assert main([*argv, "--k", "1"]) == 0


@pytest.mark.parametrize("command", ["run", "pool-stats"])
def test_a_pool_check_timeout_in_the_file_is_an_error(goals_file, tmp_path, capsys, command):
    # The check budget is search.check_timeout_ms; the pool has none of its own.
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"pool": {"check_timeout_ms": 5}}))
    code = main(["--config", str(config), command, str(goals_file), "--goal", "mul_one",
                 "--workers", "2", "--qc-trials", "100"])
    err = capsys.readouterr().err
    assert code == 3
    assert "error:" in err and "check_timeout_ms" in err


def test_missing_input_files_are_engine_errors(goals_file, tmp_path, capsys):
    # qc's exit 1 means "counterexample found", so a missing file must not end with it.
    missing = tmp_path / "missing.json"
    code = main(["--config", str(missing), "qc", str(goals_file)])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("error:") and "missing.json" in err

    code = main(["qc", str(tmp_path / "missing_goals.txt")])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("error:") and "missing_goals.txt" in err


NOT_UTF8 = b"goal g (x: Int) := x = x \xff\n"


def test_a_goal_file_that_is_not_utf8_is_an_engine_error(tmp_path, capsys):
    # Not exit 1, which for qc means "counterexample found".
    path = tmp_path / "latin.txt"
    path.write_bytes(NOT_UTF8)
    assert main(["qc", str(path)]) == 3
    assert capsys.readouterr().err == f"error: {path} is not UTF-8 text: invalid start byte at byte 25\n"


def test_a_config_file_that_is_not_utf8_is_an_engine_error(goals_file, tmp_path, capsys):
    path = tmp_path / "latin.json"
    path.write_bytes(b'{"qc": {"trials": 10}} \xff')
    assert main(["--config", str(path), "qc", str(goals_file)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path} is not UTF-8 text")


def test_a_trace_file_that_is_not_utf8_is_an_engine_error(analyzed_traces, tmp_path, capsys):
    source = sorted(analyzed_traces.glob("*.jsonl"))[0]
    (tmp_path / "latin.jsonl").write_bytes(source.read_bytes() + NOT_UTF8)
    assert main(["analyze", "stats", str(tmp_path)]) == 3
    assert capsys.readouterr().err.startswith(f"error: {tmp_path / 'latin.jsonl'} is not UTF-8 text")


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("search", "k_parallel", "4"),
        ("search", "decompose_iters", True),
        ("search", "complete_iters", 2.0),
        ("search", "wall_budget_secs", "60"),
        ("search", "target_strategy", 1),
        ("qc", "gen_elem_lo", 1.5),
        ("domain", "int_lo", None),
        ("pool", "max_concurrent", [4]),
    ],
)
def test_config_values_of_the_wrong_json_type_are_engine_errors(
    goals_file, tmp_path, capsys, section, key, value
):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({section: {key: value}}))
    code = main(["--config", str(config), "pool-stats", str(goals_file), "--qc-trials", "100"])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith(f"error: config section {section!r} key {key!r} must be ")


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_a_wall_budget_that_is_not_finite_is_an_engine_error(goals_file, capsys, value):
    code = main(["run", str(goals_file), "--goal", "add_zero", f"--wall-budget-secs={value}"])
    assert code == 3
    assert capsys.readouterr().err == "error: wall_budget_secs must be positive and finite\n"


@pytest.mark.parametrize("value", ["1e999", "1" + "0" * 400], ids=["1e999", "401-digit-int"])
def test_a_config_file_wall_budget_past_the_float_range_is_an_engine_error(goals_file, tmp_path, capsys, value):
    config = tmp_path / "config.json"
    config.write_text('{"search": {"wall_budget_secs": %s}}' % value)
    code = main(["--config", str(config), "run", str(goals_file), "--goal", "add_zero"])
    assert code == 3
    assert "wall_budget_secs must be positive and finite" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
def test_a_config_file_holding_a_constant_that_is_not_json_is_an_engine_error(goals_file, tmp_path, capsys, value):
    config = tmp_path / "config.json"
    config.write_text('{"search": {"wall_budget_secs": %s}}' % value)
    code = main(["--config", str(config), "run", str(goals_file), "--goal", "add_zero"])
    assert code == 3
    assert capsys.readouterr().err == (
        f"error: config file {config} is not valid JSON: {value} is not a JSON number\n"
    )


def test_config_values_of_the_right_json_type_are_taken(goals_file, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "search": {"wall_budget_secs": 60, "target_strategy": "highest-score"},
        "qc": {"trials": 9, "gen_elem_lo": None, "gen_elem_hi": 2},
        "score": {"temperature": 2},
    }))
    code = main(["--config", str(config), "qc", str(goals_file), "--goal", "add_zero"])
    assert code == 0
    assert "no counterexample in 9 trials" in capsys.readouterr().out
def test_pool_stats_prints_conserved_json(goals_file, capsys):
    code = main(["pool-stats", str(goals_file), "--workers", "4", "--repeat", "3",
                 "--qc-trials", "100"])
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)
    assert payload["submitted"] == 12  # 4 goals x 3 repeats
    assert payload["completed"] == 12
    assert payload["conserved"] is True
    assert payload["peak_in_flight"] <= 4
    assert payload["latency_ms_p50"] is not None


def test_collect_exports_loadable_trajectories(goals_file, tmp_path, capsys):
    out_path = tmp_path / "trajectories.jsonl"
    code = main(["collect", str(goals_file), "--goal", "conj", "--out", str(out_path),
                 "--n-rollouts", "6", "--seed", "5", "--qc-trials", "150"])
    out = capsys.readouterr().out
    assert code == 0
    match = re.search(r"wrote (\d+) records", out)
    assert match is not None
    records = load_trajectories(out_path)
    assert len(records) == int(match.group(1))


def test_analyze_passk(analyzed_traces, tmp_path, capsys):
    csv_path = tmp_path / "passk.csv"
    code = main(["analyze", "passk", str(analyzed_traces), "--out", str(csv_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "pass@1 = 0.5000" in out and "pass@2 = 0.5000" in out
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "k,pass_rate"
    assert len(lines) == 3


def test_analyze_reduction(analyzed_traces, tmp_path, capsys):
    csv_path = tmp_path / "reduction.csv"
    code = main(["analyze", "reduction", str(analyzed_traces), "--out", str(csv_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "remaining=0.0000 r=1.0000" in out  # direct discharges on add_zero
    lines = csv_path.read_text().splitlines()
    assert lines[0].startswith("run_id,iteration,target")
    assert len(lines) >= 3  # both proved runs discharged the root


def test_analyze_success_curve(analyzed_traces, capsys):
    code = main(["analyze", "success", str(analyzed_traces)])
    out = capsys.readouterr().out
    assert code == 0
    # budgets 0..3 from the generation config; add_zero closes in stage one.
    assert "budget 0: success 0.5000" in out
    assert "budget 3: success 0.5000" in out


def test_analyze_auroc(analyzed_traces, capsys):
    code = main(["analyze", "auroc", str(analyzed_traces)])
    out = capsys.readouterr().out
    assert code == 0
    assert "auroc = 1.0000" in out  # proved runs scored 1.0, disproved 0.0


def test_analyze_auroc_refuses_a_root_score_of_nan(analyzed_traces, tmp_path, capsys):
    # Read as a float, a NaN score ranks anywhere: auroc printed a wrong figure and exited 0.
    for source in analyzed_traces.glob("*.jsonl"):
        (tmp_path / source.name).write_text(source.read_text())
    nan = sorted(tmp_path.glob("add_zero.r0.*.jsonl"))[0]
    lines = nan.read_text().splitlines()
    number = next(n for n, line in enumerate(lines, start=1) if '"S":1.0' in line)
    lines[number - 1] = lines[number - 1].replace('"S":1.0', '"S":NaN')
    nan.write_text("\n".join(lines) + "\n")
    assert main(["analyze", "auroc", str(tmp_path)]) == 3
    assert capsys.readouterr().err == (
        f"error: {nan}: line {number} is not valid JSON: NaN is not a JSON number\n"
    )


def test_analyze_stats_on_directory_and_single_file(analyzed_traces, capsys):
    code = main(["analyze", "stats", str(analyzed_traces)])
    out = capsys.readouterr().out
    assert code == 0
    stats = json.loads(out)
    assert stats["runs"] == 4
    assert stats["proved"] == 2 and stats["disproved"] == 2

    single = sorted(analyzed_traces.glob("*.jsonl"))[0]
    code = main(["analyze", "stats", str(single)])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["runs"] == 1


@pytest.mark.parametrize(
    "bad_line, message",
    [("{not json", "line 3 is not valid JSON"), ("[1, 2]", "line 3 is not a JSON object")],
    ids=["not_json", "not_an_object"],
)
def test_analyze_names_a_corrupt_trace_line(analyzed_traces, tmp_path, bad_line, message, capsys):
    source = sorted(analyzed_traces.glob("*.jsonl"))[0]
    header, first, *_ = source.read_text().splitlines()
    corrupt = tmp_path / "corrupt.jsonl"
    corrupt.write_text(f"{header}\n{first}\n{bad_line}\n")
    assert main(["analyze", "stats", str(tmp_path)]) == 3
    assert f"error: {corrupt}: {message}" in capsys.readouterr().err


def test_analyze_refuses_a_trace_whose_event_lacks_a_key(tmp_path, capsys):
    # A file of JSON lines without a trace's keys is an engine error, not a KeyError.
    path = tmp_path / "bare.jsonl"
    path.write_text('{"type": "config", "format_version": 1}\n{"type": "run_end"}\n')
    assert main(["analyze", "stats", str(tmp_path)]) == 3
    assert capsys.readouterr().err == f"error: {path}: line 1: config lacks key 'run_id'\n"
    header = {
        "type": "config", "format_version": 1, "run_id": "p.r0.s0", "problem": "p",
        "run_index": 0, "seed": 0, "config": {},
    }
    path.write_text(json.dumps(header) + '\n{"type": "run_end"}\n')
    assert main(["analyze", "stats", str(tmp_path)]) == 3
    assert capsys.readouterr().err == f"error: {path}: line 2: run_end lacks key 'outcome'\n"


@pytest.mark.parametrize("report", ["reduction", "auroc"])
def test_analyze_refuses_a_score_without_its_keys(tmp_path, capsys, report):
    # The score object is optional, but the reports index its keys when it
    # is there: a partial one is an engine error, not a KeyError.
    header = {
        "type": "config", "format_version": 1, "run_id": "p.r0.s0", "problem": "p",
        "run_index": 0, "seed": 0, "config": {},
    }
    attempt = {
        "seq": 1, "type": "decompose_attempt", "iteration": 1, "target": "p",
        "target_footprint": 2, "outcome": "accepted_decomposition", "reason": None,
        "proposal": {}, "score": {"v": 1},
    }
    end = {
        "seq": 2, "type": "run_end", "outcome": "exhausted", "decompose_iterations": 1,
        "complete_iterations": 0, "lemma_count": 2, "proof_lines": None,
        "audit_failures": 0, "witness": None, "pool": None,
    }
    path = tmp_path / "partial.jsonl"
    path.write_text("\n".join(json.dumps(line) for line in (header, attempt, end)) + "\n")
    assert main(["analyze", report, str(tmp_path)]) == 3
    assert capsys.readouterr().err == (
        f"error: {path}: line 2: decompose_attempt score lacks key 'd_parent'\n"
    )


@pytest.mark.parametrize("key", ["d_parent", "d_bar", "r"])
def test_analyze_reduction_refuses_a_score_past_the_float_range(tmp_path, capsys, key):
    # The reader takes integers of any size; the report divides and prints
    # them as floats.
    header = {
        "type": "config", "format_version": 1, "run_id": "p.r0.s0", "problem": "p",
        "run_index": 0, "seed": 0, "config": {},
    }
    score = {"v": 1, "d_parent": 5, "d_children": [2], "d_bar": 2, "r": 0.6, "S": 0.6}
    attempt = {
        "seq": 1, "type": "decompose_attempt", "iteration": 1, "target": "p",
        "target_footprint": 5, "outcome": "accepted_decomposition", "reason": None,
        "proposal": {}, "score": dict(score, **{key: 10**400}),
    }
    end = {
        "seq": 2, "type": "run_end", "outcome": "exhausted", "decompose_iterations": 1,
        "complete_iterations": 0, "lemma_count": 1, "proof_lines": None,
        "audit_failures": 0, "witness": None, "pool": None,
    }
    (tmp_path / "huge.jsonl").write_text(
        "\n".join(json.dumps(line) for line in (header, attempt, end)) + "\n"
    )
    assert main(["analyze", "reduction", str(tmp_path)]) == 3
    assert capsys.readouterr().err == (
        f"error: trace 'p.r0.s0' iteration 1: score key {key!r} is past the float range\n"
    )


def test_analyze_stats_refuses_a_count_past_the_float_range(tmp_path, capsys):
    _proved_trace(tmp_path, {}, 10**400)
    assert main(["analyze", "stats", str(tmp_path)]) == 3
    assert capsys.readouterr().err == "error: run_end 'lemma_count' values are past the float range\n"


def _proved_trace(tmp_path, config: dict, lemma_count):
    header = {
        "type": "config", "format_version": 1, "run_id": "p.r0.s0", "problem": "p",
        "run_index": 0, "seed": 0, "config": config,
    }
    end = {
        "seq": 1, "type": "run_end", "outcome": "proved", "decompose_iterations": 1,
        "complete_iterations": 1, "lemma_count": lemma_count, "proof_lines": None,
        "audit_failures": 0, "witness": None, "pool": None,
    }
    path = tmp_path / "proved.jsonl"
    path.write_text("\n".join(json.dumps(line) for line in (header, end)) + "\n")


def test_analyze_success_refuses_a_config_without_its_completion_budget(tmp_path, capsys):
    _proved_trace(tmp_path, {"decompose_iters": 1}, 1)
    assert main(["analyze", "success", str(tmp_path)]) == 3
    assert capsys.readouterr().err == (
        "error: trace 'p.r0.s0' config lacks an integer 'complete_iters'\n"
    )
    _proved_trace(tmp_path, {"complete_iters": 1}, 1)
    assert main(["analyze", "success", str(tmp_path)]) == 0


def test_analyze_stats_refuses_a_proved_run_without_its_lemma_count(tmp_path, capsys):
    _proved_trace(tmp_path, {}, None)
    assert main(["analyze", "stats", str(tmp_path)]) == 3
    assert capsys.readouterr().err == "error: a proved run_end has lemma_count null\n"
    _proved_trace(tmp_path, {}, 1)
    assert main(["analyze", "stats", str(tmp_path)]) == 0


def test_a_config_section_names_a_nested_part_as_an_unknown_key(goals_file, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"search": {"qc": {"trials": 10}}}))
    assert main(["--config", str(config), "qc", str(goals_file)]) == 3
    assert capsys.readouterr().err == "error: config section 'search' has unknown keys ['qc']\n"


@pytest.mark.parametrize(
    "document, message",
    [({"serach": {}}, "has unknown keys ['serach']"), ({"qc": [1]}, "key 'qc' must be object, not array")],
    ids=["unknown_section", "section_not_an_object"],
)
def test_a_config_file_names_a_bad_section(goals_file, tmp_path, capsys, document, message):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(document))
    assert main(["--config", str(config), "qc", str(goals_file)]) == 3
    assert capsys.readouterr().err == f"error: config file {config} {message}\n"
