"""serialize.dumps writes exactly what json.dumps(indent=2, sort_keys=True) writes."""

import io
import json
import math
import os

import pytest

from eae_sat import cli, serialize
from eae_sat.syntax import format_sentence

import corpus
from conftest import FIXTURE_DIR

COMMANDS = (
    ("check", "--json", "--method", "gfp"),
    ("check", "--json", "--method", "game"),
    ("check", "--json", "--method", "extended"),
    ("check", "--json", "--timings"),
    ("model", "--depth", "3"),
    ("diff", "--json", "--max-size", "2"),
    ("parse", "--json"),
    ("brute", "--json", "--max-size", "2"),
)


def reference(obj):
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def test_dumps_matches_json_on_every_cli_object(tmp_path, monkeypatch):
    paths = sorted(os.path.join(FIXTURE_DIR, f)
                   for f in os.listdir(FIXTURE_DIR) if f.endswith(".fo"))
    for i, s in enumerate(corpus.corpus(size=300)):
        path = tmp_path / f"c{i:03d}.fo"
        path.write_text(format_sentence(s) + "\n")
        paths.append(str(path))
    objects = []
    dumps = serialize.dumps

    def recorded(obj):
        objects.append(obj)
        return dumps(obj)

    monkeypatch.setattr(serialize, "dumps", recorded)
    for path in paths:
        for command in COMMANDS:
            cli.main([command[0], path, *command[1:]],
                     stdout=io.StringIO(), stderr=io.StringIO())
    assert len(objects) > 7 * len(paths)
    for obj in objects:
        assert dumps(obj) == reference(obj)


@pytest.mark.parametrize("obj", [
    {}, [], (), "", 0, -7, 10**30, 2.5, -0.0, 1e100, None, True, False,
    {"a": [], "b": {}, "c": [[], [{}]]},
    {"z": {"y": [1, {"x": None}]}, "a": (1, (2, 3))},
    ["é", "ü☃", "\x00\n\t\"\\", "𝔘"],
    {"ключ": "значение", "☃": {" ": 1}},
    {1: "a", 2: "b"}, {True: 1}, {None: 2}, {1.5: 3},
    [float("inf"), float("-inf")],
])
def test_dumps_matches_json_on_edge_cases(obj):
    assert serialize.dumps(obj) == reference(obj)


def test_dumps_nan():
    assert serialize.dumps([math.nan]) == reference([math.nan])


@pytest.mark.parametrize("obj", [
    {(1, 2): 3}, {"a": {1, 2}}, b"bytes", object(), [1, {"k": object()}]])
def test_dumps_rejects_what_json_rejects(obj):
    with pytest.raises(TypeError):
        reference(obj)
    with pytest.raises(TypeError):
        serialize.dumps(obj)
