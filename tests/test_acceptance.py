"""Acceptance suite.

Each test covers one acceptance criterion and prints a single
"criterion N: PASS/FAIL" line (run with -s or look at captured output).
"""

import io
import json
import time
from dataclasses import replace

import pytest

from eae_sat import solver
from eae_sat.cli import main as cli_main
from eae_sat.onetypes import enumerate_one_types, type_of_element
from eae_sat.solver import (
    bounded_game_solve,
    check_certificate,
    extended_solve,
    gfp_solve,
    solve,
)
from eae_sat.structures import (
    ConstructionConflict,
    brute_force_search,
    build_model_sequence,
    eval_qf,
)
from eae_sat.syntax import atom_keys, load_sentence
from eae_sat.witness import find_witness

import corpus
from conftest import fixture_path, search
from naive import descriptor_to_structure, naive_witnesses, verify_construction

METHODS = ("gfp", "game", "extended")


def report(num, ok, detail=""):
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {num}: {verdict}{suffix}")
    assert ok, f"criterion {num} failed{suffix}"


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = cli_main(list(argv), stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def corpus_200():
    return corpus.corpus(size=200)


@pytest.fixture(scope="module")
def corpus_outcomes(corpus_200):
    """gfp outcomes plus every witness-search context they visited."""
    outs, contexts = [], []

    def recorded(plan, root, state, allowed, is_root=False):
        contexts.append((plan.sentence, root, state, allowed, is_root))
        return find_witness(plan, root, state, allowed, is_root)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(solver, "find_witness", recorded)
        for s in corpus_200:
            before = len(contexts)
            outs.append(gfp_solve(s))
            # a fresh memo misses on every first ask: one search each
            assert len(contexts) - before == outs[-1].stats.witness_searches
    return outs, contexts


def test_criterion_1_fixture_verdicts(s1, s2, s3, s5):
    ok = True
    for s, expect, oracle_k in ((s1, "SAT", None), (s2, "UNSAT", None),
                                (s3, "SAT", 2), (s5, "SAT", 2)):
        for method in METHODS:
            t0 = time.monotonic()
            out = solve(s, method=method)
            elapsed = time.monotonic() - t0
            ok = ok and out.verdict == expect and elapsed < 1.0
        if oracle_k is not None:
            model = brute_force_search(s, oracle_k)
            ok = ok and model is not None and model.size <= oracle_k
    report(1, ok)


def test_criterion_2_documented_divergence():
    t0 = time.monotonic()
    code, out, _ = run_cli("diff", fixture_path("s4.fo"),
                           "--max-size", "4", "--json")
    elapsed = time.monotonic() - t0
    obj = json.loads(out)
    ok = (code == 0
          and obj["verdicts"] == {"gfp": "SAT", "game": "SAT",
                                  "extended": "UNSAT"}
          and obj["oracle"] is None
          and obj["divergence"] is True
          and obj["hard_disagreements"] == []
          and elapsed < 5.0)
    report(2, ok, f"{elapsed:.2f}s")


def test_criterion_3_method_agreement(corpus_200, corpus_outcomes):
    outs, _ = corpus_outcomes
    t0 = time.monotonic()
    agree = sum(out.verdict == bounded_game_solve(s).verdict
                for s, out in zip(corpus_200, outs))
    elapsed = time.monotonic() - t0
    ok = agree == len(corpus_200) and elapsed < 60.0
    report(3, ok, f"{agree}/{len(corpus_200)} agree, {elapsed:.1f}s")


def test_criterion_4_no_false_unsat(corpus_200, corpus_outcomes):
    outs, _ = corpus_outcomes
    checked = bad = 0
    for s, gfp_out in zip(corpus_200, outs):
        if brute_force_search(s, 3) is None:
            continue
        checked += 1
        verdicts = [gfp_out.verdict, bounded_game_solve(s).verdict,
                    extended_solve(s).verdict]
        if verdicts != ["SAT"] * 3:
            bad += 1
    report(4, bad == 0, f"{checked} satisfiable instances, {bad} false UNSAT")


def test_criterion_5_witness_search_completeness(corpus_outcomes):
    _, contexts = corpus_outcomes
    # against the naive reference's first witness
    bad = sum(search(ctx) != next(naive_witnesses(ctx), None)
              for ctx in contexts)
    report(5, bad == 0, f"{len(contexts)} contexts")


def test_criterion_6_certificate_soundness(corpus_200, corpus_outcomes):
    outs, _ = corpus_outcomes
    sound = mutations_caught = mutations_total = 0
    sat_total = 0
    for s, out in zip(corpus_200, outs):
        if out.verdict != "SAT":
            continue
        sat_total += 1
        cert = out.certificate
        if check_certificate(s, cert) == []:
            sound += 1
        # mutation 1: serve z with an entry's witness, which keeps z and
        # x apart (z's own obligation is x = z)
        if cert.strategy:
            mutations_total += 1
            swapped = replace(cert, root=cert.strategy[0][1])
            if check_certificate(s, swapped) != []:
                mutations_caught += 1
        # mutation 2: flip a type-forced (single-class) atom value
        for i, (pi, d) in enumerate(cert.strategy):
            forced = [j for j, (_, classes)
                      in enumerate(atom_keys(s, d.partition))
                      if len(set(classes)) == 1]
            if not forced:
                continue
            mutations_total += 1
            mutant_d = replace(d, valuation=d.valuation ^ 1 << forced[0])
            mutant = replace(cert, strategy=(
                cert.strategy[:i] + ((pi, mutant_d),) + cert.strategy[i + 1:]))
            if check_certificate(s, mutant) != []:
                mutations_caught += 1
            break
        # mutation 3: retype the x-class (needs an entry, and a nonempty
        # signature so a different one-type exists)
        types = enumerate_one_types(s.signature)
        if len(types) > 1 and cert.strategy:
            mutations_total += 1
            pi, d = cert.strategy[0]
            cx = d.partition[1]
            other = next(t for t in types if t != d.class_types[cx])
            retyped = replace(d, class_states=(
                d.class_states[:cx] + (other,) + d.class_states[cx + 1:]))
            mutant = replace(cert, strategy=(
                ((pi, retyped),) + cert.strategy[1:]))
            if check_certificate(s, mutant) != []:
                mutations_caught += 1
    ok = sound == sat_total and mutations_caught == mutations_total
    report(6, ok, f"{sound}/{sat_total} sound, "
                  f"{mutations_caught}/{mutations_total} mutations caught")


def test_criterion_7_construction_check(corpus_200, corpus_outcomes, s4):
    outs, _ = corpus_outcomes
    built = bad = 0
    for s, out in zip(corpus_200, outs):
        if out.verdict != "SAT":
            continue
        try:
            stages, glue = build_model_sequence(s, out.certificate, 2)
        except ConstructionConflict:
            continue
        built += 1
        if verify_construction(stages, glue, s, out.certificate) != []:
            bad += 1
    s4_out = gfp_solve(s4)

    def s4_conflict():
        try:
            build_model_sequence(s4, s4_out.certificate, 2)
        except ConstructionConflict as e:
            return e.args[0]
        return None

    conflicts = [s4_conflict() for _ in range(3)]
    s4_ok = (conflicts[0] is not None and conflicts[0]["stage"] == 2
             and conflicts.count(conflicts[0]) == 3)
    report(7, bad == 0 and s4_ok,
           f"{built} constructions verified, s4 conflict reproducible")


def test_criterion_8_realization_law(corpus_outcomes):
    _, contexts = corpus_outcomes
    sampled = bad = 0
    for ctx in contexts:
        if sampled >= 1000:
            break
        sentence = ctx[0]
        for d in naive_witnesses(ctx):
            if sampled >= 1000:
                break
            sampled += 1
            st, assignment = descriptor_to_structure(d, sentence)
            if not eval_qf(st, assignment, sentence.matrix):
                bad += 1
                continue
            if any(type_of_element(st, c) != d.class_types[c]
                   for c in range(d.num_classes)):
                bad += 1
    report(8, sampled == 1000 and bad == 0, f"{sampled} descriptors, {bad} bad")


def test_criterion_9_scale_smoke():
    sentence = load_sentence(fixture_path("s6_scale.fo"))
    assert len(sentence.signature) == 6
    t0 = time.monotonic()
    out = gfp_solve(sentence)
    elapsed = time.monotonic() - t0
    ok = (out.verdict == "SAT" and elapsed < 60.0
          and out.stats.cache_hits > 0
          and out.stats.types_total == 64)
    report(9, ok, f"{elapsed:.2f}s, {out.stats.cache_hits} cache hits")


def test_criterion_10_determinism():
    commands = [
        ("check", "s1.fo"),
        ("check", "s1.fo", "--json"),
        ("check", "s2.fo", "--method", "game"),
        ("check", "s3.fo", "--json"),
        ("check", "s4.fo", "--method", "extended", "--json"),
        ("check", "s5.fo", "--json"),
        ("model", "s3.fo", "--depth", "2"),
        ("model", "s1.fo", "--depth", "3"),
        ("model", "s4.fo", "--depth", "2"),
        ("diff", "s4.fo", "--max-size", "4", "--json"),
        ("diff", "s3.fo", "--max-size", "2", "--json"),
        ("parse", "s5.fo", "--json"),
        ("parse", "s2.fo"),
        ("brute", "s3.fo", "--max-size", "2", "--json"),
        ("brute", "s2.fo", "--max-size", "3"),
    ]
    bad = 0
    for argv in commands:
        argv = (argv[0], fixture_path(argv[1])) + argv[2:]
        first = run_cli(*argv)
        second = run_cli(*argv)
        if first != second:
            bad += 1
    report(10, bad == 0, f"{len(commands)} commands, {bad} mismatches")
