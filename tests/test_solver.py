import gc
import io
import weakref
from dataclasses import replace

import pytest

from eae_sat import cli, solver
from eae_sat.onetypes import (
    ExtendedType,
    OneType,
    enumerate_extended_types,
    enumerate_one_types,
    initial_extended_type,
    render_one_type,
)
from eae_sat.serialize import certificate_from_json, certificate_to_json
from eae_sat.solver import (
    Certificate,
    bounded_game_solve,
    check_certificate,
    extended_solve,
    gfp_solve,
    solve,
)
from eae_sat.structures import brute_force_search
from eae_sat.syntax import atom_keys, load_sentence, parse
from eae_sat.witness import SearchPlan, find_witness

import corpus
from conftest import fixture_path

METHODS = ("gfp", "game", "extended")


# ---------------------------------------------------------------------------
# Fixture verdicts
# ---------------------------------------------------------------------------

def test_s1_all_methods(s1):
    for method in METHODS:
        out = solve(s1, method=method)
        assert out.verdict == "SAT"
    out = gfp_solve(s1)
    assert out.pi0 == OneType(())
    assert out.certificate.good_types == {OneType(())}


def test_s2_all_methods(s2):
    for method in METHODS:
        assert solve(s2, method=method).verdict == "UNSAT"


def test_s2_refutation_trace(s2):
    out = gfp_solve(s2)
    neg, pos = OneType((False,)), OneType((True,))
    traces = {t.pi0: t for t in out.refutation}
    # pi0 = {-P}: round 1 eliminates {-P}, then the rest collapses
    assert traces[neg].rounds[0] == (1, [neg])
    assert traces[neg].surviving == []
    # pi0 = {+P}: the root dies in the first round, and the rest with it
    assert traces[pos].rounds == [(1, [pos]), (2, [neg])]
    assert traces[pos].surviving == []


def test_s3_all_methods(s3):
    for method in METHODS:
        out = solve(s3, method=method)
        assert out.verdict == "SAT"
    out = gfp_solve(s3)
    assert out.certificate.good_types == {OneType((False,))}


def test_s4_divergence(s4):
    neg = OneType((False,))
    out = gfp_solve(s4)
    assert out.verdict == "SAT"
    assert out.pi0 == neg
    assert out.certificate.good_types == {OneType((False,)), OneType((True,))}
    assert bounded_game_solve(s4).verdict == "SAT"
    assert extended_solve(s4).verdict == "UNSAT"
    assert brute_force_search(s4, 4) is None


def test_s5_all_methods(s5):
    for method in METHODS:
        assert solve(s5, method=method).verdict == "SAT"


def test_s1_game_accepts_at_minimal_depth(s1):
    # empty signature: counter bound 2^0 + 1 = 2
    out = bounded_game_solve(s1)
    assert out.verdict == "SAT"
    assert out.stats.types_total == 1


def test_game_has_no_depth_budget(tmp_path):
    # 11 relations: counter bound 2^11 + 1 = 2049, and still gfp's answer
    text = ("exists z. forall x. exists y. ((A(x) -> ~A(y)) & (B(y) | C(x) "
            "| D(y) | E(x) | F(y) | G(x) | H(y) | I(x) | J(y) | K(x)))")
    s = parse(text)
    game, gfp = bounded_game_solve(s), gfp_solve(s)
    assert game.stats.types_total == 2048
    assert (game.verdict, game.pi0, game.refutation) \
        == (gfp.verdict, gfp.pi0, gfp.refutation)
    path = tmp_path / "s.fo"
    path.write_text(text + "\n", encoding="utf-8")
    assert cli.main(["check", str(path), "--method", "game"],
                    stdout=io.StringIO(), stderr=io.StringIO()) == cli.EXIT_SAT


@pytest.mark.parametrize("seed", (7, 8))
def test_extended_sat_implies_gfp_sat(seed):
    # extended accepts a pi0 only after the plain elimination accepted it,
    # and gfp stops at the first pi0 that elimination accepts
    sats = 0
    for s in corpus.corpus(size=300, seed=seed):
        ext = extended_solve(s)
        if ext.verdict == "SAT":
            sats += 1
            gfp = gfp_solve(s)
            assert gfp.verdict == "SAT"
            assert gfp.pi0.index() <= ext.pi0.index()
    assert sats


def test_solve_dispatch(s1):
    assert solve(s1).method == "gfp"
    with pytest.raises(ValueError):
        solve(s1, method="magic")


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------

def test_certificates_pass_checker(s1, s3, s4, s5):
    for s in (s1, s3, s4, s5):
        out = gfp_solve(s)
        assert check_certificate(s, out.certificate) == []
        ext = extended_solve(s)
        if ext.verdict == "SAT":
            assert check_certificate(s, ext.certificate) == []


def test_certificate_pi0_not_covered(s3):
    out = gfp_solve(s3)
    mutated = Certificate(pi0=out.certificate.pi0, strategy=())
    bad = check_certificate(s3, mutated)
    assert any("pi0" in v for v in bad)


def test_certificate_closure_violation():
    # dropping a non-pi0 entry breaks closure for every entry whose
    # descriptor realizes the dropped type: one closure line per such entry
    broken_total = 0
    for s in corpus.corpus(size=300):
        out = gfp_solve(s)
        if out.verdict != "SAT":
            continue
        for dropped, _ in out.certificate.strategy:
            if dropped == out.certificate.pi0:
                continue
            kept = tuple(e for e in out.certificate.strategy if e[0] != dropped)
            bad = check_certificate(s, Certificate(out.certificate.pi0, kept))
            for pi, d in kept:
                label = f"entry {render_one_type(pi, s.signature)}:"
                lines = [v for v in bad if v.startswith(label) and "closure" in v]
                broken = dropped in d.class_states
                assert len(lines) == (1 if broken else 0), (s, pi, lines)
                broken_total += broken
    assert broken_total > 0


def test_certificate_flipped_atom_fails(s3):
    out = gfp_solve(s3)
    (pi, d), = out.certificate.strategy
    j = atom_keys(s3, d.partition).index(("E", (1, 1)))
    mutant = Certificate(pi0=out.certificate.pi0, strategy=(
        (pi, replace(d, valuation=d.valuation ^ 1 << j)),))
    assert check_certificate(s3, mutant) != []


def test_certificate_serialization_roundtrip(s3, s4, s5):
    for s in (s3, s4, s5):
        cert = gfp_solve(s).certificate
        obj = certificate_to_json(cert, s)
        assert certificate_from_json(obj, s) == cert


# ---------------------------------------------------------------------------
# Cross-method properties on the random corpus (small slice; the full
# 200-sentence runs live in the acceptance suite)
# ---------------------------------------------------------------------------

def test_method_agreement_sample():
    for s in corpus.corpus(size=40):
        assert gfp_solve(s).verdict == bounded_game_solve(s).verdict


def test_extended_implies_plain_sample():
    for s in corpus.corpus(size=40):
        if extended_solve(s).verdict == "SAT":
            assert gfp_solve(s).verdict == "SAT"


def test_no_false_unsat_sample():
    for s in corpus.corpus(size=30):
        if brute_force_search(s, 2) is not None:
            for method in METHODS:
                assert solve(s, method=method).verdict == "SAT"


def test_elimination_monotone():
    for s in corpus.corpus(size=30):
        out = gfp_solve(s)
        if out.refutation is None:
            continue
        total = len(enumerate_one_types(s.signature))
        for tr in out.refutation:
            sizes = [total]
            for _, removed in tr.rounds:
                assert removed
                sizes.append(sizes[-1] - len(removed))
            assert sizes[-1] == len(tr.surviving)
            assert len(tr.rounds) <= total


def test_determinism(s3, s4):
    for s in (s3, s4):
        a, b = gfp_solve(s), gfp_solve(s)
        assert (a.verdict, a.pi0, a.certificate) == (b.verdict, b.pi0, b.certificate)
        assert a.stats.witness_searches == b.stats.witness_searches
        assert a.stats.cache_hits == b.stats.cache_hits


def test_game_matches_gfp_traces():
    # the counter-bounded game reaches the gfp survivor set, so the two
    # agree on the verdict, the accepted pi0 and every elimination trace
    for s in corpus.corpus(size=200):
        gfp, game = gfp_solve(s), bounded_game_solve(s)
        assert (game.verdict, game.pi0) == (gfp.verdict, gfp.pi0)
        assert game.refutation == gfp.refutation


def test_kinds_agree_on_unary_signatures():
    # over unary relations an extended type only adds z's fixed bits, so
    # the two state kinds run the same elimination
    def projected(refutation):
        return [(tr.pi0,
                 [(r, [s.own_type() for s in removed]) for r, removed in tr.rounds],
                 [s.own_type() for s in tr.surviving])
                for tr in refutation]

    checked = 0
    for s in corpus.corpus(size=600, seed=7):
        if any(arity != 1 for _, arity in s.signature):
            continue
        gfp, ext = gfp_solve(s), extended_solve(s)
        assert (ext.verdict, ext.pi0) == (gfp.verdict, gfp.pi0)
        if gfp.refutation is not None:
            assert projected(ext.refutation) == projected(gfp.refutation)
        checked += 1
    assert checked > 300


def _survivors(plan, root, states):
    """The elimination fixpoint from `states`, apart from the solver's."""
    good = list(states)
    while True:
        allowed = frozenset(good)
        kept = [s for s in good
                if find_witness(plan, root, s, allowed) is not None]
        if kept == good:
            return good
        good = kept


def _tried(out, sig):
    """The candidates a solve tried: all of them, or up to the accepted one."""
    types = enumerate_one_types(sig)
    return types[:types.index(out.pi0) + 1] if out.pi0 is not None else types


def _jacobi_decide(sentence, method, plan):
    """(verdict, pi0, certificate) by Jacobi elimination, which searches
    every state in every round, the root among them."""
    sig = sentence.signature
    types = enumerate_one_types(sig)
    for pi0 in types:
        plain = _survivors(plan, pi0, types)
        if pi0 not in plain:
            continue
        if method == "extended":
            good = set(plain)
            states = [e for e in enumerate_extended_types(sig, pi0)
                      if e.own_type() in good]
            root = initial_extended_type(sig, pi0)
            if root not in _survivors(plan, root, states):
                continue
        allowed = frozenset(plain)
        return "SAT", pi0, Certificate(pi0=pi0, strategy=tuple(
            (pi, find_witness(plan, pi0, pi, allowed)) for pi in plain))
    return "UNSAT", None, None


@pytest.mark.parametrize("seed", (7, 8))
def test_refutations_replay_and_root_first_matches_jacobi(seed):
    # every round of an UNSAT trace names only states with no witness
    # among the states alive before it, the root dies, and what is left
    # is `surviving`; the root-first elimination decides as the Jacobi one
    replayed = 0
    for s in corpus.corpus(size=300, seed=seed):
        sig = s.signature
        plan = SearchPlan(s)
        outs = {m: solve(s, method=m) for m in METHODS}
        for m in ("gfp", "extended"):
            out = outs[m]
            assert (out.verdict, out.pi0, out.certificate) \
                == _jacobi_decide(s, m, plan), (s, m)
        for m, out in outs.items():
            if out.verdict == "SAT":
                continue
            for tr in out.refutation:
                alive = set(tr.surviving)
                for _, removed in tr.rounds:
                    alive.update(removed)
                if type(next(iter(alive))) is OneType:
                    assert alive == set(enumerate_one_types(sig)), (s, m)
                    root = tr.pi0
                else:
                    root = initial_extended_type(sig, tr.pi0)
                for _, removed in tr.rounds:
                    allowed = frozenset(alive)
                    for state in removed:
                        assert find_witness(plan, root, state, allowed) \
                            is None, (s, m)
                    alive -= set(removed)
                assert root not in alive, (s, m)
                assert set(tr.surviving) == alive, (s, m)
                replayed += 1
    assert replayed > 50, replayed


def test_plain_survivors_bound_the_extended_elimination(monkeypatch):
    # extended_solve starts each extended elimination from the states
    # whose own type survived the plain one; from all extended states the
    # fixpoint is the same, and a pi0 the plain elimination rejects loses
    # its extended root too
    runs = {}  # pi0 -> survivors of extended_solve's extended elimination
    eliminate = solver._eliminate

    def spy(pi0, states, root, memo):
        trace = eliminate(pi0, states, root, memo)
        if states and isinstance(states[0], ExtendedType):
            runs[pi0] = trace.surviving
        return trace

    monkeypatch.setattr(solver, "_eliminate", spy)
    bounded = rejected = 0
    for seed in (7, 8):
        for s in corpus.corpus(size=300, seed=seed):
            runs.clear()
            out = extended_solve(s)
            plan = SearchPlan(s)
            sig = s.signature
            tried = _tried(out, sig)
            for pi0 in enumerate_one_types(sig):
                plain = _survivors(plan, pi0, enumerate_one_types(sig))
                root = initial_extended_type(sig, pi0)
                full = _survivors(plan, root,
                                  enumerate_extended_types(sig, pi0))
                assert {e.own_type() for e in full} <= set(plain), (s, pi0)
                if pi0 not in plain:
                    assert root not in full, (s, pi0)
                    assert pi0 not in runs, (s, pi0)
                    rejected += pi0 in tried
                elif pi0 in tried:
                    assert runs[pi0] == full, (s, pi0)
                    bounded += 1
    assert bounded > 300 and rejected > 100, (bounded, rejected)


def test_plain_rejected_candidates_enumerate_no_extended_types(monkeypatch):
    calls = []
    enumerate_ext = solver.enumerate_extended_types
    monkeypatch.setattr(solver, "enumerate_extended_types",
                        lambda sig, pi0: calls.append(pi0)
                        or enumerate_ext(sig, pi0))
    rejected = 0
    for s in corpus.corpus(size=300, seed=7):
        del calls[:]
        out = extended_solve(s)
        plan = SearchPlan(s)
        for pi0 in _tried(out, s.signature):
            plain = _survivors(plan, pi0, enumerate_one_types(s.signature))
            assert calls.count(pi0) == (pi0 in plain), (s, pi0)
            rejected += pi0 not in plain
    assert rejected > 100, rejected


def test_shared_memo_gives_each_solve_its_own_outcome(monkeypatch):
    # diff's solves through one memo: the same outcomes as alone, no
    # witness search runs twice and each counts in the solve that ran
    # it, the first solve's stats are its stats alone, and the 1-types
    # are enumerated once, so memo keys of different solves hold one
    # set of objects
    calls = []
    enums = []
    find = solver.find_witness
    enum = solver.enumerate_one_types
    monkeypatch.setattr(solver, "find_witness",
                        lambda plan, *key: calls.append(key) or find(plan, *key))
    monkeypatch.setattr(solver, "enumerate_one_types",
                        lambda sig: enums.append(sig) or enum(sig))
    saved = 0
    for s in corpus.corpus(size=120):
        del calls[:]
        alone = [solve(s, method=m) for m in METHODS]
        searched_alone = len(calls)
        del calls[:], enums[:]
        memo = solver.Memo(s)
        shared = [solve(s, method=m, memo=memo) for m in METHODS]
        assert len(calls) == len(set(calls)) == len(memo.table)
        assert enums == [s.signature]
        assert sum(b.stats.witness_searches for b in shared) == len(calls)
        saved += searched_alone - len(calls)
        shared[0].stats.elapsed_ms = alone[0].stats.elapsed_ms
        assert shared[0].stats == alone[0].stats
        for a, b in zip(alone, shared):
            b.stats = a.stats
            assert a == b
    assert saved > 0


def test_shared_memo_freed_without_cycle_collection(s4):
    # a memo, its plan and the plan's tables hold no reference cycle
    gc.disable()
    try:
        memo = solver.Memo(s4)
        for m in METHODS:
            solve(s4, method=m, memo=memo)
        refs = [weakref.ref(x) for x in (memo, memo.plan)]
        del memo
        assert [r() for r in refs] == [None] * len(refs)
    finally:
        gc.enable()


def test_stats_populated(s3):
    out = gfp_solve(s3)
    assert out.stats.witness_searches > 0
    assert out.stats.types_total == 2
    assert out.stats.elapsed_ms >= 0.0


# ---------------------------------------------------------------------------
# Known false SAT
# ---------------------------------------------------------------------------

def test_s7_has_no_small_model():
    s = load_sentence(fixture_path("s7_false_sat.fo"))
    assert brute_force_search(s, 4) is None


@pytest.mark.xfail(strict=True, reason="z needs a witness of its own, and "
                   "no search requires one yet (ROADMAP item 1)")
def test_s7_extended_refutes():
    s = load_sentence(fixture_path("s7_false_sat.fo"))
    assert extended_solve(s).verdict == "UNSAT"


def test_z_false_sats_have_no_small_model():
    # size 4 takes seconds on z_rel_false_sat
    for name, size in (("z_eq_false_sat", 4), ("z_rel_false_sat", 3)):
        s = load_sentence(fixture_path(name + ".fo"))
        assert brute_force_search(s, size) is None, name


@pytest.mark.xfail(strict=True, reason="x = z forces one element, and no "
                   "search requires z's own witness yet (ROADMAP item 1)")
@pytest.mark.parametrize("method", METHODS)
def test_z_eq_false_sat_refuted(method):
    s = load_sentence(fixture_path("z_eq_false_sat.fo"))
    assert solve(s, method=method).verdict == "UNSAT"


@pytest.mark.xfail(strict=True, reason="z needs a witness of its own, and "
                   "no search requires one yet (ROADMAP item 1)")
def test_z_rel_extended_refutes():
    s = load_sentence(fixture_path("z_rel_false_sat.fo"))
    assert extended_solve(s).verdict == "UNSAT"
