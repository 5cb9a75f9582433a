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

from corpus import ARITY3, corpus

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


CHECK = ["check", "--json"]
EXTENDED = ["check", "--method", "extended", "--json"]
MODEL = ["model", "--depth", "3"]

# (pool, commands, sha256 over the exit code and stdout of each command
# on each sentence of the pool, in order)
POOLS = [
    ("seed7", lambda: corpus(200, seed=7), [CHECK, MODEL],
     "f83556f85dbdf0c42fc21f17c0da807c385f44b367715febc8830ba24bee4933"),
    ("seed7-extended", lambda: corpus(200, seed=7), [EXTENDED],
     "3e6f261e296dca28af50fbf3b0b23003bd9a290046d6ccb98df305a5f7a56375"),
    ("seed9-arity3", lambda: corpus(100, seed=9, shapes=ARITY3),
     [CHECK, EXTENDED, MODEL],
     "ef7218f08b3629ac8e3307197cf2627220f2848719b0f3bf1f4a77e780e46d7a"),
]


@pytest.mark.parametrize("pool, commands, sha256",
                         [p[1:] for p in POOLS], ids=[p[0] for p in POOLS])
def test_pool_outputs(tmp_path, pool, commands, sha256):
    # a change meant to keep every output byte must keep these hashes;
    # one that moves them says why, as a golden change does
    path = tmp_path / "s.fo"
    h = hashlib.sha256()
    for sentence in pool():
        path.write_text(format_sentence(sentence) + "\n", encoding="utf-8")
        for argv in commands:
            out = io.StringIO()
            code = cli_main(argv + [str(path)], stdout=out, stderr=io.StringIO())
            h.update(f"{code}\n{out.getvalue()}".encode())
    assert h.hexdigest() == sha256


if __name__ == "__main__":
    os.makedirs(os.path.join(GOLDEN_DIR, "wide"), exist_ok=True)
    for name in FIXTURES:
        with open(golden_path(name), "w", encoding="utf-8") as fh:
            json.dump(run_fixture(name), fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {golden_path(name)}")
