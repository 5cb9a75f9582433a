"""serialize.dumps prints one line of JSON, `json.dumps(sort_keys=True)`'s."""

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


def one_line(text):
    # splitlines also breaks at \r, U+2028 and the other Unicode separators
    assert text.endswith("\n") and text.splitlines() == [text[:-1]], text
    return text


def read_key(k):
    if k is None or isinstance(k, bool):
        return {None: "null", True: "true", False: "false"}[k]
    return k if isinstance(k, str) else repr(k)


def as_read(obj):
    """`obj` as json.loads gives it back: tuples read as lists, keys as
    strings."""
    if isinstance(obj, dict):
        return {read_key(k): as_read(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [as_read(v) for v in obj]
    return obj


def test_dumps_matches_json_on_every_cli_object(tmp_path, monkeypatch):
    # every object a command prints is one line that reads back as itself
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
        assert json.loads(one_line(dumps(obj))) == as_read(obj)


@pytest.mark.parametrize("obj", [
    {}, [], (), "", 0, -7, 10**30, 2.5, -0.0, 1e100, None, True, False,
    {"a": [], "b": {}, "c": [[], [{}]]},
    {"z": {"y": [1, {"x": None}]}, "a": (1, (2, 3))},
    ["é", "ü☃", "\x00\n\t\"\\", "𝔘"],
    {"ключ": "значение", "☃": {"\u2028": 1}},
    {1: "a", 2: "b"}, {True: 1}, {None: 2}, {1.5: 3},
    [float("inf"), float("-inf")],
])
def test_dumps_matches_json_on_edge_cases(obj):
    assert json.loads(one_line(serialize.dumps(obj))) == as_read(obj)


def test_dumps_nan():
    assert serialize.dumps([math.nan]) == "[NaN]\n"


@pytest.mark.parametrize("obj", [
    {(1, 2): 3}, {"a": {1, 2}}, b"bytes", object(), [1, {"k": object()}]])
def test_dumps_rejects_what_json_rejects(obj):
    with pytest.raises(TypeError):
        serialize.dumps(obj)
