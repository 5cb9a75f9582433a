import hashlib
import io
import json
import os
import time

import pytest

from eae_sat import cli

from conftest import fixture_path
from test_golden import FIXTURES


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


def test_arity_cap_reaches_only_extended():
    s4 = fixture_path("s4.fo")
    code, out, err = run("check", s4, "--method", "extended",
                         "--arity-cap", "1")
    assert (code, out) == (1, "")
    assert err == ("error: relation R has arity 2, above the extended-type "
                   "arity cap 1\n")
    assert run("check", s4, "--method", "gfp", "--arity-cap", "1") == \
        run("check", s4, "--method", "gfp") == (10, "SAT (method=gfp, "
                                                 "pi0={-R})\n", "")
    code, out, err = run("diff", s4, "--arity-cap", "1")
    assert (code, out) == (1, "")
    assert "arity cap 1" in err


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


def test_diff_keeps_verdicts_when_budget_runs_out(tmp_path):
    s3 = fixture_path("s3.fo")
    budget = ("--max-structures", "1")
    error = "error: brute-force budget exceeded after 2 structures\n"
    text = ("gfp       SAT\ngame      SAT\nextended  SAT\n"
            "oracle    budget exceeded after 2 structures\n")
    assert run("diff", s3, *budget) == (1, text, error)
    code, out, err = run("diff", s3, *budget, "--json")
    assert (code, err) == (1, error)
    assert json.loads(out) == {
        "verdicts": {"gfp": "SAT", "game": "SAT", "extended": "SAT"},
        "oracle": None, "oracle_bound": 3,
        "oracle_error": "budget exceeded after 2 structures",
        "hard_disagreements": [], "divergence": False}
    report = tmp_path / "diff.txt"
    assert run("diff", s3, *budget, "-o", str(report)) == (1, "", error)
    assert report.read_text() == text
    # brute has no verdicts to keep: no output, so no -o file
    brute = tmp_path / "brute.txt"
    assert run("brute", s3, *budget, "-o", str(brute)) == (1, "", error)
    assert not brute.exists()


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
    cert_path = tmp_path / "cert.json"
    sat = []
    for name in FIXTURES:
        path = fixture_path(name + ".fo")
        code, out, _ = run("check", path, "--json")
        if code != 10:
            continue
        sat.append(name)
        cert_path.write_text(json.dumps(json.loads(out)["certificate"]))
        assert run("certify", path, "--cert", str(cert_path)) == \
            (0, "certificate ok\n", ""), name
    # the UNSAT counters and s2 are UNSAT under gfp; the UNSAT zcounter
    # is the s4 class, SAT under gfp
    assert sorted(set(FIXTURES) - set(sat)) == [
        "counter2_unsat", "counter3_unsat", "s2"]
    # a UTF-8 byte order mark opens either file without changing its text
    bom = b"\xef\xbb\xbf"
    sentence = tmp_path / "bom.fo"
    with open(fixture_path("s3.fo"), "rb") as fh:
        sentence.write_bytes(bom + fh.read())
    code, out, err = run("check", str(sentence), "--json")
    assert (code, err) == (10, "")
    cert_path.write_bytes(bom + json.dumps(json.loads(out)["certificate"]).encode())
    assert run("certify", str(sentence), "--cert", str(cert_path)) == \
        (0, "certificate ok\n", "")


def test_certify_rejects_tampered(tmp_path):
    s3 = fixture_path("s3.fo")
    cert_path = tmp_path / "cert.json"

    def certify(text):
        cert_path.write_text(text)
        code, out, err = run("certify", s3, "--cert", str(cert_path))
        assert code == 4 and not err, (text, out, err)
        return out

    # not JSON at all, and JSON nested past the recursion limit
    for text in ("not json\n", "[" * 100000 + "]" * 100000):
        assert certify(text).startswith("malformed certificate:")

    code, out, _ = run("check", s3, "--json")
    base = json.loads(out)["certificate"]
    # partition (z, x, y) = (0, 1, 2), one symbol E, so two 1-types, and
    # the atom keys (E, (1, 1)), (E, (1, 2)): E(x,x) false, E(x,y) true
    assert base["strategy"][0]["descriptor"] == {
        "partition": [0, 1, 2], "class_types": [0, 0, 0], "valuation": 2}

    def tampered(**descriptor):
        cert = json.loads(json.dumps(base))
        cert["strategy"][0]["descriptor"].update(descriptor)
        return json.dumps(cert)

    # a flipped valuation bit: the certificate reads, and fails the check
    out = certify(tampered(valuation=3))
    assert out.startswith("violation: entry {-E}: ") and "C2" in out
    # a valuation outside the 2**K values of its K atom keys
    for valuation in (4, -1):
        out = certify(tampered(valuation=valuation))
        assert out.startswith("violation:") and "P2" in out, valuation
    # a partition of the wrong length, with negative ids, or a class type
    # too many
    for descriptor in ({"partition": [0, 1]}, {"partition": [0, 1, 2, 3]},
                       {"partition": [-1, -1, -1], "class_types": []},
                       {"class_types": [0, 0, 0, 0]}):
        out = certify(tampered(**descriptor))
        assert out.startswith("violation:") and "P0" in out, descriptor

    # integers must be exact: a JSON true, a float or a string is none;
    # a class type index lies in 0..2**|sig|-1
    for descriptor in ({"valuation": True}, {"valuation": 1.0},
                       {"valuation": "3"}, {"valuation": None},
                       {"class_types": [0, 2, 0]}, {"class_types": [0, -1, 0]},
                       {"class_types": [0, True, 0]},
                       {"partition": [0, True, 2]}):
        out = certify(tampered(**descriptor))
        assert out.startswith("malformed certificate:"), (descriptor, out)

    # the spelled-out form of earlier versions is no descriptor
    old = {"atom_values": [{"classes": [1, 1], "rel": "E", "value": False},
                           {"classes": [1, 2], "rel": "E", "value": True}],
           "class_types": {"0": ["-E"], "1": ["-E"], "2": ["-E"]},
           "padding_count": 0, "partition": {"x": 1, "y": 2, "z": 0}}
    cert = json.loads(json.dumps(base))
    cert["strategy"][0]["descriptor"] = old
    assert certify(json.dumps(cert)).startswith("malformed certificate:")

    # a type listed twice, and a type naming a relation twice: the solver
    # writes neither
    def repeated_type(c):
        c["strategy"].append(c["strategy"][0])

    def repeated_relation(c):
        c["pi0"] = ["+E", "-E"]
        c["strategy"][0]["type"] = ["-E", "-E"]

    for tamper in (repeated_type, repeated_relation):
        cert = json.loads(json.dumps(base))
        tamper(cert)
        out = certify(json.dumps(cert))
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
