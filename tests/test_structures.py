import itertools

import pytest

from eae_sat import structures, syntax
from eae_sat.onetypes import OneType, enumerate_one_types, type_of_element
from eae_sat.solver import Certificate, gfp_solve
from eae_sat.structures import (
    ConstructionConflict,
    EmptyUniverseError,
    FiniteStructure,
    MissingStrategyEntry,
    OracleBudgetExceeded,
    UnboundVariableError,
    brute_force_search,
    build_model_sequence,
    eval_qf,
    eval_sentence,
)
from eae_sat.syntax import Signature, parse

import corpus
from conftest import search
from naive import (
    descriptor_to_structure, eval_sentence_naive, naive_witnesses,
    verify_construction)

SIG_R = Signature((("R", 2),))
SIG_E = Signature((("E", 2),))


def struct(sig, size, **extents):
    return FiniteStructure(
        signature=sig, size=size,
        extents={name: frozenset(map(tuple, ts)) for name, ts in extents.items()})


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def test_eval_qf_equality(s1):
    st = struct(Signature(()), 1)
    assert eval_qf(st, {"x": 0, "y": 0}, s1.matrix)
    st2 = struct(Signature(()), 2)
    assert not eval_qf(st2, {"x": 0, "y": 1}, s1.matrix)


def test_eval_qf_relations(s3):
    st = struct(SIG_E, 2, E=[(0, 1)])
    assert eval_qf(st, {"x": 0, "y": 1}, s3.matrix)
    assert not eval_qf(st, {"x": 1, "y": 0}, s3.matrix)


def test_eval_qf_shared_tuple_clash(s4):
    st = struct(SIG_R, 2, R=[(0, 1)])
    # both conjuncts constrain the same tuple (0,1)
    assert not eval_qf(st, {"z": 0, "x": 1, "y": 1}, s4.matrix)


def test_eval_qf_unbound_variable(s3):
    st = struct(SIG_E, 1)
    with pytest.raises(UnboundVariableError):
        eval_qf(st, {"x": 0}, s3.matrix)


def test_eval_qf_relation_outside_signature(s1, s2):
    # a relation the structure does not interpret is false, and only an
    # unbound variable is an error
    st = struct(Signature(()), 1)
    assert not eval_qf(st, {"x": 0, "z": 0}, parse(
        "exists z. forall x. exists y. (P(x) | P(z))").matrix)
    assert eval_qf(st, {"x": 0, "z": 0}, s2.matrix.right)
    with pytest.raises(UnboundVariableError, match="'y'"):
        eval_qf(st, {"x": 0}, s1.matrix)
    with pytest.raises(UnboundVariableError, match="'y'"):
        eval_qf(st, {"x": 0}, parse(
            "exists z. forall x. exists y. (P(x) | P(y))").matrix)


def test_eval_sentence_fixtures(s1, s2, s3):
    assert eval_sentence(struct(Signature(()), 1), s1)
    assert eval_sentence(struct(SIG_E, 2, E=[(0, 1), (1, 0)]), s3)
    for size in (1, 2, 3):
        for bits in range(1 << size):
            st = struct(Signature((("P", 1),)), size,
                        P=[(i,) for i in range(size) if bits >> i & 1])
            assert not eval_sentence(st, s2)


def test_eval_sentence_empty_universe(s1):
    with pytest.raises(EmptyUniverseError):
        eval_sentence(struct(Signature(()), 0), s1)


def structures_in_order(sig, max_size):
    """Every structure up to max_size, in the oracle's enumeration order."""
    for size in range(1, max_size + 1):
        slots = [(n, t) for n, a in sig
                 for t in itertools.product(range(size), repeat=a)]
        for i in range(1 << len(slots)):
            extents = {n: frozenset(t for j, (m, t) in enumerate(slots)
                                    if m == n and i >> j & 1)
                       for n, _ in sig}
            yield FiniteStructure(signature=sig, size=size, extents=extents)


def test_eval_consistency_with_naive():
    for s in corpus.corpus(size=25):
        first = None
        for st in structures_in_order(s.signature, 2):
            holds = eval_sentence(st, s)
            assert holds == eval_sentence_naive(st, s)
            if holds and first is None:
                first = st
        assert brute_force_search(s, 2) == first


def test_oracle_and_eval_sentence_use_eval_matrix(monkeypatch, s3):
    # one matrix evaluator: the oracle and eval_sentence both go through it
    calls = []
    eval_matrix = structures.eval_matrix

    def counted(*args):
        calls.append(1)
        return eval_matrix(*args)

    monkeypatch.setattr(structures, "eval_matrix", counted)
    model = brute_force_search(s3, 2)
    assert model is not None and calls
    del calls[:]
    assert eval_sentence(model, s3) and calls


# ---------------------------------------------------------------------------
# Descriptor realization
# ---------------------------------------------------------------------------

def test_descriptor_to_structure_s3(s3):
    neg = OneType((False,))
    ts = frozenset(enumerate_one_types(s3.signature))
    d = search((s3, neg, neg, ts))
    st, f = descriptor_to_structure(d, s3)
    assert st.size == 3
    assert st.extents["E"] == frozenset({(1, 2)})
    assert f == {"z": 0, "x": 1, "y": 2}
    assert eval_qf(st, f, s3.matrix)


def test_descriptor_to_structure_s1_padding(s1):
    empty = OneType(())
    d = search((s1, empty, empty, frozenset({empty})))
    st, f = descriptor_to_structure(d, s1)
    assert st.size == 3  # z-class, merged x=y class, one padding element
    assert f["x"] == f["y"]
    assert eval_qf(st, f, s1.matrix)


def test_descriptor_to_structure_s4(s4):
    neg = OneType((False,))
    ts = frozenset(enumerate_one_types(s4.signature))
    d = search((s4, neg, neg, ts))
    st, f = descriptor_to_structure(d, s4)
    assert st.extents["R"] == frozenset({(0, 2)})
    assert f == {"z": 0, "x": 1, "y": 2}
    assert eval_qf(st, f, s4.matrix)


# ---------------------------------------------------------------------------
# Brute-force oracle
# ---------------------------------------------------------------------------

def test_brute_force_s1(s1):
    model = brute_force_search(s1, 1)
    assert model is not None and model.size == 1


def test_brute_force_s3_canonical_first(s3):
    model = brute_force_search(s3, 2)
    assert model is not None and model.size == 2
    assert eval_sentence(model, s3)
    # canonical-order first: re-running returns the identical structure
    assert brute_force_search(s3, 2) == model


def test_brute_force_s2_exhaustive(s2):
    assert brute_force_search(s2, 3) is None


def test_brute_force_found_model_satisfies(s5):
    model = brute_force_search(s5, 2)
    assert model is not None
    assert eval_sentence(model, s5)


def test_brute_force_budget(s3):
    with pytest.raises(OracleBudgetExceeded) as e:
        brute_force_search(s3, 2, budget=3)
    assert e.value.count == 4


def test_brute_force_bad_bound(s1):
    with pytest.raises(ValueError):
        brute_force_search(s1, 0)


def oracle_outcome(s, max_size, budget):
    try:
        return brute_force_search(s, max_size, budget=budget)
    except OracleBudgetExceeded as e:
        return ("budget exceeded", e.count)


def test_brute_force_budget_at_first_model():
    checked = 0
    for s in corpus.corpus(size=100):
        for n, st in enumerate(structures_in_order(s.signature, 2), 1):
            if eval_sentence(st, s):
                break
        else:
            continue
        assert brute_force_search(s, 2, budget=n) == st
        if n > 1:
            assert oracle_outcome(s, 2, n - 1) == ("budget exceeded", n)
            checked += 1
    assert checked >= 10


def test_brute_force_budget_exhaustive(s2):
    total = 2 + 4 + 8  # P/1 on universes of size 1, 2 and 3
    assert brute_force_search(s2, 3, budget=total) is None
    assert oracle_outcome(s2, 3, total - 1) == ("budget exceeded", total)


@pytest.mark.parametrize("bits", [1, 3])
def test_brute_force_chunk_seams(monkeypatch, bits):
    sentences = corpus.corpus(size=200)
    budgets = (1, 7, 100, 10**7)
    default = [oracle_outcome(s, 3, b) for s in sentences for b in budgets]
    monkeypatch.setattr(syntax, "CHUNK_BITS", bits)
    assert [oracle_outcome(s, 3, b) for s in sentences for b in budgets] \
        == default


def test_brute_force_one_chunk_at_size_4(monkeypatch, s4):
    # R/2 at size 4 has 16 slots: four chunks by default, one at 20 bits,
    # sixteen at 12 bits (then the first model of `late` is in chunk 3)
    below = 2 + 16 + 512  # structures of size 1, 2 and 3
    late = parse("exists z. forall x. exists y. "
                 "(~R(x,y) & R(x,z) & R(y,x))")  # first model at size 4
    budgets = [below + d for d in (1, 14673, 14674, 16384, 16385, 65535, 65536)]
    default = [oracle_outcome(s4, 4, b) for b in budgets]
    assert default[-1] is None
    assert default[:-1] == [("budget exceeded", b + 1) for b in budgets[:-1]]
    default += [oracle_outcome(late, 4, b) for b in budgets]
    model = default[9]  # the 14674th structure of size 4
    assert model.size == 4 and eval_sentence(model, late)
    assert default[7:] == [("budget exceeded", below + 2),
                           ("budget exceeded", below + 14674)] + [model] * 5
    cases = [(s, b) for s in (s4, late) for b in budgets]
    for bits in (20, 12):
        monkeypatch.setattr(syntax, "CHUNK_BITS", bits)
        assert [oracle_outcome(s, 4, b) for s, b in cases] == default


# ---------------------------------------------------------------------------
# Staged construction
# ---------------------------------------------------------------------------

def test_staged_s3(s3):
    out = gfp_solve(s3)
    staged = build_model_sequence(s3, out.certificate, 2)
    assert [st.size for st in staged.stages] == [1, 2, 4]
    assert verify_construction(staged, s3, out.certificate) == []
    # substructure chain: earlier extents are the restriction of later ones
    for a, b in zip(staged.stages, staged.stages[1:]):
        for name, _ in s3.signature:
            restricted = {t for t in b.extents[name]
                          if all(e < a.size for e in t)}
            assert restricted == set(a.extents[name])


def test_staged_s1_stays_singleton(s1):
    out = gfp_solve(s1)
    staged = build_model_sequence(s1, out.certificate, 5)
    assert [st.size for st in staged.stages] == [1] * 6
    assert verify_construction(staged, s1, out.certificate) == []


def test_staged_s4_conflict(s4):
    out = gfp_solve(s4)
    res = build_model_sequence(s4, out.certificate, 2)
    assert isinstance(res, ConstructionConflict)
    assert res.stage == 2
    assert res.relation == "R"
    assert res.tuple_ == (0, 1)  # (b0, d)
    assert res.required is False and res.existing is True


def test_staged_depth_zero(s3):
    out = gfp_solve(s3)
    staged = build_model_sequence(s3, out.certificate, 0)
    assert len(staged.stages) == 1
    assert verify_construction(staged, s3, out.certificate) == []


def test_verify_detects_corruption(s3):
    out = gfp_solve(s3)
    staged = build_model_sequence(s3, out.certificate, 2)
    last = staged.stages[-1]
    assert (1, 3) in last.extents["E"]  # element 1's witness tuple
    flipped = FiniteStructure(
        signature=last.signature, size=last.size,
        extents={"E": last.extents["E"] - {(1, 3)}})
    staged.stages[-1] = flipped
    failures = verify_construction(staged, s3, out.certificate)
    assert any(f.startswith("R2") for f in failures)


def test_missing_strategy_entry(s3):
    out = gfp_solve(s3)
    crippled = Certificate(pi0=out.certificate.pi0, strategy=())
    with pytest.raises(MissingStrategyEntry):
        build_model_sequence(s3, crippled, 1)


def test_realization_law_over_enumerations():
    for s in corpus.corpus(size=20):
        ts = enumerate_one_types(s.signature)
        for pi0 in ts:
            for pi in ts:
                ctx = (s, pi0, pi, frozenset(ts))
                for d in itertools.islice(naive_witnesses(ctx), 5):
                    st, f = descriptor_to_structure(d, s)
                    assert eval_qf(st, f, s.matrix)
                    for c in range(d.num_classes):
                        assert type_of_element(st, c) == d.class_types[c]
