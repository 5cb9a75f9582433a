"""Byte-exact CLI outputs on every fixture.

Each fixture's stdout and exit code under `check --json` (all three
methods), `model --depth 3`, `diff --max-size 3`, `parse` and
`parse --json` are pinned in
`tests/golden/<fixture>.json`.  The fixtures under `wide/` have
partitions with more atom keys than one truth-table chunk holds; they
sit apart because a plan for them costs tenths of a second, too much
for the tests that build one per witness search.  A change meant to alter an output (a
verdict fix, say) regenerates them with

    PYTHONPATH=src python tests/test_golden.py

and the diff of `tests/golden/` shows exactly which bytes moved.
"""

import hashlib
import io
import json
import os

import pytest

from eae_sat.cli import main as cli_main
from eae_sat.syntax import format_sentence

from corpus import corpus

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURE_DIR = os.path.join(HERE, "fixtures")
GOLDEN_DIR = os.path.join(HERE, "golden")

FIXTURES = sorted(f[:-3] for f in os.listdir(FIXTURE_DIR) if f.endswith(".fo"))
FIXTURES += sorted("wide/" + f[:-3]
                   for f in os.listdir(os.path.join(FIXTURE_DIR, "wide"))
                   if f.endswith(".fo"))

COMMANDS = {
    "check-gfp": ["check", "--json", "--method", "gfp"],
    "check-game": ["check", "--json", "--method", "game"],
    "check-extended": ["check", "--json", "--method", "extended"],
    "model": ["model", "--depth", "3"],
    "diff": ["diff", "--max-size", "3"],
    "parse": ["parse"],
    "parse-json": ["parse", "--json"],
}


def run_fixture(name):
    """{command name: {"exit": code, "stdout": text}} for one fixture."""
    path = os.path.join(FIXTURE_DIR, name + ".fo")
    outputs = {}
    for command, argv in COMMANDS.items():
        out, err = io.StringIO(), io.StringIO()
        code = cli_main(argv + [path], stdout=out, stderr=err)
        outputs[command] = {"exit": code, "stdout": out.getvalue()}
    return outputs


def golden_path(name):
    return os.path.join(GOLDEN_DIR, name + ".json")


@pytest.mark.parametrize("name", FIXTURES)
def test_golden_outputs(name):
    with open(golden_path(name), encoding="utf-8") as fh:
        want = json.load(fh)
    got = run_fixture(name)
    assert got.keys() == want.keys()
    for command in COMMANDS:
        assert got[command]["exit"] == want[command]["exit"], command
        assert got[command]["stdout"].encode() == want[command]["stdout"].encode(), command


# sha256 over the exit code and stdout of `check --json` and
# `model --depth 3` on each sentence of corpus(200, seed=7), in order
POOL_SHA256 = "f83556f85dbdf0c42fc21f17c0da807c385f44b367715febc8830ba24bee4933"


def test_pool_outputs(tmp_path):
    # a change meant to keep every output byte must keep this hash; one
    # that moves it says why, as a golden change does
    path = tmp_path / "s.fo"
    h = hashlib.sha256()
    for sentence in corpus(200, seed=7):
        path.write_text(format_sentence(sentence) + "\n", encoding="utf-8")
        for argv in (["check", "--json"], ["model", "--depth", "3"]):
            out = io.StringIO()
            code = cli_main(argv + [str(path)], stdout=out, stderr=io.StringIO())
            h.update(f"{code}\n{out.getvalue()}".encode())
    assert h.hexdigest() == POOL_SHA256


if __name__ == "__main__":
    os.makedirs(os.path.join(GOLDEN_DIR, "wide"), exist_ok=True)
    for name in FIXTURES:
        with open(golden_path(name), "w", encoding="utf-8") as fh:
            json.dump(run_fixture(name), fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {golden_path(name)}")
