"""Self-tests for the benchmark: python3 -m pytest perfbench"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import gen  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
from layers import PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _bench():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _fo_files(directory):
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            out[name] = fh.read()
    return out


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_same_seed_gives_identical_inputs(workload, tmp_path, monkeypatch):
    monkeypatch.setitem(WORKLOADS[workload], "pool", 20)
    first, second, other = (tmp_path / "a", tmp_path / "b", tmp_path / "c")
    for d in (first, second, other):
        d.mkdir()
    run.make_pool(workload, 7, str(first))
    run.make_pool(workload, 7, str(second))
    run.make_pool(workload, 8, str(other))
    assert _fo_files(first) == _fo_files(second)
    assert _fo_files(first) != _fo_files(other)


def _sentence(text_matrix, ys=("y",), z="z"):
    """Parse-free helper: build the generator's AST for a few fixed cases."""
    return {"z": z, "ys": ys, "matrix": text_matrix}


def test_reference_finds_smallest_models():
    x_eq_y = _sentence(("eq", "x", "y"))
    assert reference.smallest_model(x_eq_y, 3) == 1
    irreflexive_successor = _sentence(
        ("and", ("rel", "E", ("x", "y")), ("not", ("rel", "E", ("x", "x")))))
    assert reference.smallest_model(irreflexive_successor, 3) == 2
    everything_but_z = _sentence(("not", ("eq", "x", "z")), ys=())
    assert reference.smallest_model(everything_but_z, 4) is None


def test_generated_text_round_trips_through_the_program():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from eae_sat.syntax import parse
    rng = gen.rng_for("check-small", 3)
    for _ in range(50):
        s = gen.random_sentence(rng, WORKLOADS["check-small"]["shape"])
        parsed = parse(gen.format_sentence(s))
        assert parsed.ys == s["ys"]


SAT_JSON = json.dumps({"verdict": "SAT", "stats": {
    "witness_searches": 1, "cache_hits": 0}})
UNSAT_JSON = json.dumps({"verdict": "UNSAT", "stats": {
    "witness_searches": 2, "cache_hits": 1}, "refutation": {"candidates": [
        {"rounds": [{"round": 1}]}]}})
DIFF_OK = ("gfp       SAT\ngame      SAT\nextended  UNSAT\n"
           "oracle    no model up to size 3\n")


def test_checker_accepts_consistent_outputs():
    assert run.check_op("check", 10, SAT_JSON, 2, 3)[0] is None
    failure, verdicts, notes = run.check_op("check", 20, UNSAT_JSON, None, 3)
    assert failure is None and verdicts == ["UNSAT"]
    assert notes == {"searches": 2, "cache_hits": 1, "candidates": 1,
                     "rounds": 1}
    assert run.check_op("model", 3, '{"relation": "R"}\n', 2, 3)[0] is None
    assert run.check_op("diff", 0, DIFF_OK, None, 3)[0] is None


@pytest.mark.parametrize("command,code,stdout,model", [
    ("check", 20, UNSAT_JSON, 2),  # false UNSAT: the reference has a model
    ("model", 20, "UNSAT: no model to build\n", 1),  # false UNSAT
    ("check", 3, "", None),  # certificate rejected by its own self-check
    ("check", 1, "", None),  # unexpected exit code
    ("check", 10, UNSAT_JSON, None),  # exit code and verdict disagree
    ("model", 3, "", 2),  # internal error, not a gluing conflict
    ("model", 0, "", 2),  # success without a staged model
    ("diff", 4, DIFF_OK, None),  # hard method disagreement
    ("diff", 0, "gfp       SAT\n", None),  # truncated report
    ("diff", 0, DIFF_OK.replace("no model up to size 3", "model of size 2"),
     None),  # the program's oracle contradicts the reference
])
def test_checker_flags_planted_failures(command, code, stdout, model):
    assert run.check_op(command, code, stdout, model, 3)[0] is not None


def test_unconfirmed_sat_is_counted_not_failed():
    checked = run.check_outputs(
        "check-small", [(10, SAT_JSON)], [["check", "s00000.fo", "--json"]],
        [None])
    assert checked["failures"] == []
    assert (checked["sat"], checked["unconfirmed"]) == (1, 1)
    assert checked["agree"] == 0


def test_metric_names_are_well_formed():
    bench = _bench()
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    names += [w["name"] for w in bench["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name


def test_benchmark_json_follows_its_schema():
    bench = _bench()
    assert set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert {w["name"] for w in bench["workloads"]} == set(WORKLOADS)
    for w in bench["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200
    for m in bench["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])
    for m in bench["per_layer"]:
        assert set(m) == {"name", "unit", "better"}


def test_every_layer_metric_names_what_it_should_move():
    bench = _bench()
    end_to_end = {m["name"] for m in bench["end_to_end"]}
    workloads = {w["name"] for w in bench["workloads"]}
    listed = {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]}
    assert listed == {n: (u, b) for n, (u, b, _) in PER_LAYER.items()}
    for name, (_, _, moves) in PER_LAYER.items():
        if name.startswith("trace."):
            continue  # the benchmark's own overhead moves nothing
        assert moves, name
        for metric, workload in moves:
            assert metric in end_to_end and workload in workloads, name


def _run_bench(cwd, *args):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_one_short_run_prints_every_metric(trace):
    proc = _run_bench(ROOT, "--workload", "check-small", "--seed", "1",
                      "--seconds", "0.5", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    bench = _bench()
    wanted = bench["per_layer" if trace == "1" else "end_to_end"]
    assert set(last["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        assert last["metrics"][m["name"]]["unit"] == m["unit"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _run_bench(str(tmp_path), "--workload", "check-small", "--seed",
                      "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
