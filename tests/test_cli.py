import hashlib
import io
import json
import os
import time

import pytest

from eae_sat import cli

from conftest import fixture_path


def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = cli.main(list(argv), stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

def test_check_sat():
    code, out, _ = run("check", fixture_path("s1.fo"))
    assert code == 10
    assert out == "SAT (method=gfp, pi0={})\n"


def test_check_unsat_game():
    code, out, _ = run("check", fixture_path("s2.fo"), "--method", "game")
    assert code == 20
    assert out == "UNSAT (method=game)\n"


def test_check_extended_s4():
    code, out, _ = run("check", fixture_path("s4.fo"), "--method", "extended")
    assert code == 20


def test_check_json_outcome():
    code, out, _ = run("check", fixture_path("s3.fo"), "--json")
    assert code == 10
    obj = json.loads(out)
    assert obj["verdict"] == "SAT"
    assert obj["method"] == "gfp"
    assert obj["pi0"] == ["-E"]
    assert obj["certificate"] is not None
    assert obj["stats"]["witness_searches"] > 0
    assert obj["stats"]["elapsed_ms"] is None  # deterministic by default


def test_check_json_refutation():
    code, out, _ = run("check", fixture_path("s2.fo"), "--json")
    assert code == 20
    obj = json.loads(out)
    assert obj["certificate"] is None
    assert len(obj["refutation"]["candidates"]) == 2


def test_parse_error_exit_code(tmp_path):
    bad = tmp_path / "bad.fo"
    bad.write_text("forall x. forall w. (x = w)\n")
    code, out, err = run("check", str(bad))
    assert code == 2
    assert "universal" in err
    assert out == ""


def test_usage_errors():
    code, _, err = run("check")
    assert code == 1
    code, _, err = run()
    assert code == 1
    code, _, err = run("brute", fixture_path("s1.fo"), "--max-structures", "0")
    assert code == 1
    assert "must be positive" in err
    for removed in (("--jobs", "2"), ("--max-witnesses", "5")):
        code, _, err = run("check", fixture_path("s1.fo"), *removed)
        assert code == 1
        assert err.startswith("usage error:")


# the flags each subcommand reads, besides FILE and -o: 26 settable slots
KEPT_FLAGS = {
    "check": ("--json", "--timings", "--method", "--arity-cap"),
    "model": ("--depth",),
    "diff": ("--json", "--max-size", "--max-structures", "--arity-cap"),
    "parse": ("--json",),
    "brute": ("--json", "--max-size", "--max-structures"),
    "certify": ("--cert",),
}
FLAG_VALUES = {
    "--json": (), "--timings": (), "--method": ("game",), "--depth": ("1",),
    "--max-size": ("2",), "--max-structures": ("5",),
    "--max-game-depth": ("5",), "--arity-cap": ("4",), "--cert": ("c.json",),
}
# every subcommand once took these; each one a subcommand does not read is gone
FORMERLY_COMMON = ("--json", "--timings", "--max-structures",
                   "--max-game-depth", "--arity-cap")
DROPPED = [(cmd, flag) for cmd, kept in KEPT_FLAGS.items()
           for flag in FORMERLY_COMMON if flag not in kept]


def test_each_subcommand_declares_only_the_flags_it_reads():
    slots = 0
    for cmd, flags in KEPT_FLAGS.items():
        argv = [cmd, "in.fo", "-o", "out.txt"]
        for flag in flags:
            argv += [flag, *FLAG_VALUES[flag]]
        dests = set(vars(cli._PARSER.parse_args(argv))) - {"command"}
        assert dests == {"input", "output"} | {
            f[2:].replace("-", "_") for f in flags}, cmd
        slots += len(dests)
    assert (slots, len(DROPPED)) == (26, 21)


@pytest.mark.parametrize("cmd,flag", DROPPED, ids=lambda a: a)
def test_dropped_flag_is_a_usage_error(tmp_path, cmd, flag):
    extra = ("--cert", str(tmp_path / "c.json")) if cmd == "certify" else ()
    code, out, err = run(cmd, fixture_path("s1.fo"), *extra,
                         flag, *FLAG_VALUES[flag])
    assert (code, out) == (1, "")
    assert err.startswith("usage error:")


def test_shared_parser_keeps_no_state(monkeypatch):
    builds = []
    build = cli._build_parser
    monkeypatch.setattr(cli, "_build_parser",
                        lambda: builds.append(1) or build())
    with open(os.path.join(os.path.dirname(__file__), "golden", "s4.json"),
              encoding="utf-8") as fh:
        want = json.load(fh)["check-gfp"]
    s4 = fixture_path("s4.fo")
    code, out, _ = run("check", s4, "--method", "extended", "--json",
                       "--timings")
    assert code == 20 and json.loads(out)["stats"]["elapsed_ms"] is not None
    assert run("check", s4, "--json") == (want["exit"], want["stdout"], "")
    assert len(builds) <= 1


def test_help_goes_to_the_given_stdout():
    code, out, err = run("--help")
    assert (code, err) == (0, "")
    assert out.startswith("usage: eae-sat ") and "certify" in out


def test_subcommand_help_goes_to_the_given_stdout():
    code, out, err = run("check", "--help")
    assert (code, err) == (0, "")
    assert out.startswith("usage: eae-sat check ") and "--method" in out
    assert run("model", "-h", fixture_path("s1.fo"))[:1] == (0,)


def test_missing_file(tmp_path):
    code, _, err = run("check", "/nonexistent/sentence.fo")
    assert code == 1
    # a directory where the input file should be
    code, _, err = run("check", str(tmp_path))
    assert (code, err[:7]) == (1, "error: ")
    # output into a directory that does not exist
    code, out, err = run("check", fixture_path("s1.fo"),
                         "-o", str(tmp_path / "missing" / "out.txt"))
    assert (code, out, err[:7]) == (1, "", "error: ")
    # an input file that is not UTF-8
    latin1 = tmp_path / "latin1.fo"
    latin1.write_bytes("exists z. forall x. (x = z) # caf\xe9\n".encode("latin-1"))
    code, _, err = run("check", str(latin1))
    assert (code, err[:7]) == (2, "error: ")


# ---------------------------------------------------------------------------
# model
# ---------------------------------------------------------------------------

def test_model_s3(tmp_path):
    out_path = tmp_path / "m.json"
    code, out, _ = run("model", fixture_path("s3.fo"), "--depth", "2",
                       "-o", str(out_path))
    assert code == 0
    obj = json.loads(out_path.read_text())
    assert [st["universe_size"] for st in obj["stages"]] == [1, 2, 4]
    assert obj["b0"] == 0


def test_model_unsat():
    code, out, _ = run("model", fixture_path("s2.fo"), "--depth", "1")
    assert code == 20


def test_model_element_cap(tmp_path):
    path = tmp_path / "chain.fo"
    path.write_text("exists z. forall x. exists y1 y2. (R(x,y1) & R(y1,y2)"
                    " & ~(x = y1) & ~(y1 = y2) & ~(x = y2))\n")
    # every stage triples the universe: 3**9 elements would be megabytes
    start = time.perf_counter()
    code, out, err = run("model", str(path), "--depth", "25")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (1, "")
    assert err.startswith("error: staged model would exceed 10000 elements")
    code, out, _ = run("model", str(path), "--depth", "3")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "e94d462a5e669cc5fb8f7838383436d275ad63e9ea20c0641a9130c0a076cd4f"


def test_model_stage_cap():
    # no witness adds an element, so every stage copies the last
    start = time.perf_counter()
    code, out, err = run("model", fixture_path("s1.fo"), "--depth", "1000000")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (1, "")
    assert err.startswith("error: staged model would exceed 10000 elements")


def test_model_s4_conflict():
    code, out, _ = run("model", fixture_path("s4.fo"), "--depth", "2")
    assert code == 3
    obj = json.loads(out)
    assert obj["stage"] == 2
    assert obj["relation"] == "R"
    assert obj["tuple"] == [0, 1]


# ---------------------------------------------------------------------------
# diff
# ---------------------------------------------------------------------------

def test_diff_s3_agreement():
    code, out, _ = run("diff", fixture_path("s3.fo"), "--max-size", "2")
    assert code == 0
    assert "gfp       SAT" in out
    assert "oracle    model of size 2" in out
    assert "DISAGREEMENT" not in out


def test_diff_s4_documented_divergence():
    code, out, _ = run("diff", fixture_path("s4.fo"), "--max-size", "4")
    assert code == 0
    assert "extended  UNSAT" in out
    assert "no model up to size 4" in out
    assert "warning" in out
    assert "DISAGREEMENT" not in out


def test_diff_json():
    code, out, _ = run("diff", fixture_path("s4.fo"), "--max-size", "4",
                       "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["verdicts"] == {"gfp": "SAT", "game": "SAT",
                               "extended": "UNSAT"}
    assert obj["oracle"] is None
    assert obj["divergence"] is True
    assert obj["hard_disagreements"] == []


# ---------------------------------------------------------------------------
# parse / brute / certify
# ---------------------------------------------------------------------------

def test_parse_command():
    code, out, _ = run("parse", fixture_path("s3.fo"))
    assert code == 0
    assert out.splitlines()[0] == \
        "exists z. forall x. exists y. (E(x, y) & (~E(x, x)))"
    assert "signature: {E/2}" in out


def test_parse_json():
    code, out, _ = run("parse", fixture_path("s4.fo"), "--json")
    obj = json.loads(out)
    assert obj["signature"] == {"R": 2}
    assert obj["ys"] == ["y"]
    assert not obj["z_synthesized"]


def test_brute_found():
    code, out, _ = run("brute", fixture_path("s3.fo"), "--max-size", "2")
    assert code == 10
    assert "model of size 2" in out


def test_brute_not_found_caveat():
    code, out, _ = run("brute", fixture_path("s2.fo"), "--max-size", "3")
    assert code == 20
    assert "larger models not ruled out" in out


def test_certify_roundtrip(tmp_path):
    code, out, _ = run("check", fixture_path("s3.fo"), "--json")
    cert = json.loads(out)["certificate"]
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(json.dumps(cert))
    code, out, _ = run("certify", fixture_path("s3.fo"),
                       "--cert", str(cert_path))
    assert code == 0
    assert out == "certificate ok\n"


def test_certify_rejects_tampered(tmp_path):
    code, out, _ = run("check", fixture_path("s3.fo"), "--json")
    cert = json.loads(out)["certificate"]
    cert["strategy"][0]["descriptor"]["atom_values"][0]["value"] = \
        not cert["strategy"][0]["descriptor"]["atom_values"][0]["value"]
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(json.dumps(cert))
    code, out, _ = run("certify", fixture_path("s3.fo"),
                       "--cert", str(cert_path))
    assert code == 4
    assert "violation" in out
    # not JSON at all, and JSON nested past the recursion limit
    for text in ("not json\n", "[" * 100000 + "]" * 100000):
        cert_path.write_text(text)
        code, out, err = run("certify", fixture_path("s3.fo"),
                             "--cert", str(cert_path))
        assert code == 4
        assert out.startswith("malformed certificate:") and not err

    # negative class ids are not canonical: a P0 violation, no crash
    code, out, _ = run("check", fixture_path("s1.fo"), "--json")
    cert = json.loads(out)["certificate"]
    d = cert["strategy"][0]["descriptor"]
    d["partition"] = {v: -1 for v in d["partition"]}
    d["class_types"] = {}
    for av in d["atom_values"]:
        av["classes"] = [-1] * len(av["classes"])
    d["padding_count"] = 3
    cert_path.write_text(json.dumps(cert))
    code, out, _ = run("certify", fixture_path("s1.fo"),
                       "--cert", str(cert_path))
    assert code == 4
    assert out.startswith("violation:") and "P0" in out

    # a JSON string is no boolean, however it reads
    code, out, _ = run("check", fixture_path("s3.fo"), "--json")
    base = json.loads(out)["certificate"]
    for value in ("true", "", "false", 1):
        cert = json.loads(json.dumps(base))
        for entry in cert["strategy"]:
            for av in entry["descriptor"]["atom_values"]:
                av["value"] = value
        cert_path.write_text(json.dumps(cert))
        code, out, _ = run("certify", fixture_path("s3.fo"),
                           "--cert", str(cert_path))
        assert code == 4
        assert out.startswith("malformed certificate:")

    # ids and padding must be integers, and a JSON true is none; a
    # relation name must be a string
    for field, value in (("padding_count", True), ("padding_count", 1.0),
                         ("partition", True), ("classes", True),
                         ("rel", ["E"])):
        cert = json.loads(json.dumps(base))
        d = cert["strategy"][0]["descriptor"]
        if field == "partition":
            d["partition"] = {v: (value if c == 0 else c)
                              for v, c in d["partition"].items()}
        elif field == "classes":
            d["atom_values"][0]["classes"][0] = value
        elif field == "rel":
            # on every atom value, so that sorting them raises nothing
            for av in d["atom_values"]:
                av["rel"] = value
        else:
            d[field] = value
        cert_path.write_text(json.dumps(cert))
        code, out, _ = run("certify", fixture_path("s3.fo"),
                           "--cert", str(cert_path))
        assert code == 4, (field, value)
        assert out.startswith("malformed certificate:"), (field, value, out)

    # a variable outside the prefix, a class id outside 0..n-1, a type
    # listed twice, and a type naming a relation twice: the solver writes
    # none of them
    def extra_variable(c):
        c["strategy"][0]["descriptor"]["partition"]["w"] = 0

    def extra_class(c):
        d = c["strategy"][0]["descriptor"]
        d["class_types"][str(len(d["class_types"]))] = []

    def repeated_type(c):
        c["strategy"].append(c["strategy"][0])

    def repeated_relation(c):
        c["pi0"] = ["+E", "-E"]
        c["strategy"][0]["descriptor"]["class_types"]["0"] = ["+E", "-E"]

    for tamper in (extra_variable, extra_class, repeated_type,
                   repeated_relation):
        cert = json.loads(json.dumps(base))
        tamper(cert)
        cert_path.write_text(json.dumps(cert))
        code, out, _ = run("certify", fixture_path("s3.fo"),
                           "--cert", str(cert_path))
        assert code == 4, tamper.__name__
        assert out.startswith("malformed certificate:"), (tamper.__name__, out)


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

ALL_COMMANDS = [
    ("check", "s1.fo"),
    ("check", "s2.fo", "--method", "game"),
    ("check", "s3.fo", "--json"),
    ("check", "s4.fo", "--method", "extended", "--json"),
    ("check", "s5.fo"),
    ("model", "s3.fo", "--depth", "2"),
    ("model", "s4.fo", "--depth", "2"),
    ("diff", "s4.fo", "--max-size", "4", "--json"),
    ("parse", "s5.fo", "--json"),
    ("brute", "s3.fo", "--max-size", "2", "--json"),
]


@pytest.mark.parametrize("argv", ALL_COMMANDS,
                         ids=lambda a: " ".join(a))
def test_byte_identical_reruns(argv):
    argv = (argv[0], fixture_path(argv[1])) + argv[2:]
    first = run(*argv)
    second = run(*argv)
    assert first == second


def flat_conjunction(tmp_path, n):
    atoms = ("P(x)", "R(x,y)", "P(y)", "R(z,y)")
    path = tmp_path / f"flat{n}.fo"
    path.write_text("exists z. forall x. exists y. "
                    + " & ".join(atoms[i % len(atoms)] for i in range(n)) + "\n")
    return str(path)


def negation_chain(tmp_path, n):
    path = tmp_path / f"not{n}.fo"
    path.write_text("exists z. forall x. exists y. " + "~" * n + "R(x,y)\n")
    return str(path)


@pytest.mark.parametrize("argv,conjuncts", [
    (("check",), 1200), (("check", "--method", "extended"), 1200),
    (("parse",), 1200), (("model",), 1200),
    (("brute",), 1200), (("diff",), 1200)])
def test_deeply_nested_matrix(tmp_path, argv, conjuncts):
    # the parser builds a left-deep tree; matrices past the recursion
    # limit are a resource limit, not a crash
    code, out, err = run(argv[0], flat_conjunction(tmp_path, conjuncts), *argv[1:])
    assert (code, out, err) == (1, "", "error: matrix nested too deeply\n")
    code, out, err = run(argv[0], flat_conjunction(tmp_path, 150), *argv[1:])
    assert code in (0, 10) and out and err == ""
    if argv[0] in ("brute", "diff"):
        # every `~` adds one parser and one evaluator level
        code, out, err = run(argv[0], negation_chain(tmp_path, 1200), *argv[1:])
        assert (code, out, err) == (1, "", "error: matrix nested too deeply\n")
        code, out, err = run(argv[0], negation_chain(tmp_path, 199), *argv[1:])
        assert code in (0, 10) and out and err == ""
