import gc
import os
import weakref
from dataclasses import replace

import pytest

from eae_sat.onetypes import (
    ExtendedType,
    OneType,
    enumerate_extended_types,
    enumerate_one_types,
    initial_extended_type,
    type_of_element,
)
from eae_sat.structures import eval_qf
from eae_sat import solver, syntax, witness
from eae_sat.solver import extended_solve, gfp_solve
from eae_sat.syntax import atom_keys, load_sentence, parse
from eae_sat.witness import SearchPlan, WitnessDescriptor, find_witness

import corpus
from conftest import FIXTURE_DIR, check, fixture_path, search
from naive import candidate_count, descriptor_to_structure, naive_witnesses


def key_values(d, sentence):
    """{(relation, class tuple): value} over the descriptor's atom keys."""
    return {key: bool(d.valuation >> j & 1)
            for j, key in enumerate(atom_keys(sentence, d.partition))}


def ctx_for(sentence, pi0, pi, allowed=None, is_root=False):
    """The context of 1-type `pi`, whose root is pi0: the root's own
    obligation if `is_root` (then pi is pi0), another element's if not."""
    ts = enumerate_one_types(sentence.signature)
    return (sentence, pi0, pi,
            frozenset(allowed if allowed is not None else ts), is_root)


def all_contexts(sentence):
    """Every root's own obligation, then every other element's."""
    ts = enumerate_one_types(sentence.signature)
    for pi0 in ts:
        yield ctx_for(sentence, pi0, pi0, is_root=True)
        for pi in ts:
            yield ctx_for(sentence, pi0, pi)


# ---------------------------------------------------------------------------
# find_witness on the fixture sentences
# ---------------------------------------------------------------------------

def test_s1_witness_merges_x_and_y(s1):
    empty = OneType(())
    d = search(ctx_for(s1, empty, empty))
    assert d is not None
    # x and y share a class (the equality forces it), z stays apart
    assert d.partition == (0, 1, 1)
    assert len(d.partition) - d.num_classes == 1  # one padding element
    assert check(d, ctx_for(s1, empty, empty)) == []


def test_s2_no_witness_for_positive_pi0(s2):
    pos = OneType((True,))
    for pi in enumerate_one_types(s2.signature):
        ctx = ctx_for(s2, pos, pi)
        assert search(ctx) is None
        assert next(naive_witnesses(ctx), None) is None


def test_s2_check_descriptor_reports_c5(s2):
    # any candidate with pi0 = {+P} forces P(z-class) true, clashing with ~P(z)
    pos, neg = OneType((True,)), OneType((False,))
    d = WitnessDescriptor(
        partition=(0, 1, 2),
        class_states=(pos, pos, neg),
        valuation=0b11)  # P on the z- and the x-class
    bad = check(d, ctx_for(s2, pos, pos))
    assert any(v.startswith("C5") for v in bad)


def test_s3_witness(s3):
    neg = OneType((False,))
    ctx = ctx_for(s3, neg, neg)
    d = search(ctx)
    assert d is not None
    assert d.partition == (0, 1, 2)
    values = key_values(d, s3)
    assert values[("E", (1, 2))] is True
    assert values[("E", (1, 1))] is False  # forced by the x-class type
    assert d in naive_witnesses(ctx)


def test_s4_witness_distinct_classes(s4):
    neg = OneType((False,))
    d = search(ctx_for(s4, neg, neg))
    assert d is not None
    assert d.partition == (0, 1, 2)
    assert d.class_types == (neg, neg, neg)
    values = key_values(d, s4)
    assert values[("R", (0, 1))] is False
    assert values[("R", (0, 2))] is True


def test_c4_violation_detected(s3):
    neg, pos = OneType((False,)), OneType((True,))
    ctx = ctx_for(s3, neg, neg)
    d = search(ctx)
    retyped = replace(
        d, class_states=(d.class_states[0], pos) + d.class_states[2:])
    assert any(v.startswith("C4") for v in check(retyped, ctx))


# ---------------------------------------------------------------------------
# Consistency and canonical-first laws
# ---------------------------------------------------------------------------

def test_find_is_first_of_enumeration_fixtures(s1, s2, s3, s4, s5):
    # the naive reference's first witness, on every context
    found = 0
    for s in (s1, s2, s3, s4, s5):
        for ctx in all_contexts(s):
            first = search(ctx)
            assert first == next(naive_witnesses(ctx), None)
            found += first is not None
    assert found


def test_realized_types(s3):
    neg = OneType((False,))
    d = search(ctx_for(s3, neg, neg))
    assert set(d.class_states) == {neg}


def test_monotonicity_under_shrinking_allowed():
    # shrinking the allowed set never creates a witness out of nothing
    for s in corpus.corpus(size=30):
        ts = enumerate_one_types(s.signature)
        for pi0 in ts:
            for pi in ts:
                full_ctx = ctx_for(s, pi0, pi)
                full = set(naive_witnesses(full_ctx))
                sub = [t for t in ts if t in (pi0, pi)]
                shrunk_ctx = ctx_for(s, pi0, pi, allowed=sub)
                assert set(naive_witnesses(shrunk_ctx)) <= full
                d = search(shrunk_ctx)
                assert d is None or d in full


def test_search_determinism(s3):
    for ctx in all_contexts(s3):
        assert search(ctx) == search(ctx)


def test_descriptors_realize(s3, s4, s5):
    for s in (s3, s4, s5):
        for ctx in all_contexts(s):
            for d in naive_witnesses(ctx):
                st, assignment = descriptor_to_structure(d, s)
                assert eval_qf(st, assignment, s.matrix)
                for c in range(d.num_classes):
                    assert type_of_element(st, c) == d.class_types[c]


# ---------------------------------------------------------------------------
# Extended search
# ---------------------------------------------------------------------------

def ext_ctx_for(sentence, pi0, state, allowed=None):
    """The context of extended type `state`, an element other than z,
    whose root is pi0's initial extended type."""
    sig = sentence.signature
    states = enumerate_extended_types(sig, pi0)
    return (sentence, initial_extended_type(sig, pi0), state,
            frozenset(allowed if allowed is not None else states), False)


def test_ext_degenerates_without_relations(s1):
    empty = OneType(())
    state = initial_extended_type(s1.signature, empty)
    d = search(ext_ctx_for(s1, empty, state))
    plain = search(ctx_for(s1, empty, empty))
    assert d.partition == plain.partition
    assert d.valuation == plain.valuation
    assert check(d, ext_ctx_for(s1, empty, state)) == []


def test_ext_s4_start_state_has_witness(s4):
    neg = OneType((False,))
    start = initial_extended_type(s4.signature, neg)
    ctx = ext_ctx_for(s4, neg, start)
    d = search(ctx)
    assert d is not None
    assert check(d, ctx) == []
    # the y-class must point the successor to a state with the zx bit set
    cy = d.partition[2]
    zx_pattern = 0b10  # second argument is the current element
    ridx = s4.signature.index("R")
    assert d.class_states[cy].patterns[ridx][zx_pattern] is True


def test_ext_s4_poisoned_state_has_no_witness(s4):
    neg = OneType((False,))
    states = enumerate_extended_types(s4.signature, neg)
    ridx = s4.signature.index("R")
    for st in states:
        if st.patterns[ridx][0b10]:  # current element satisfies R(b0, a)
            assert search(ext_ctx_for(s4, neg, st)) is None


def test_ext_rejects_mismatched_state_projection(s3):
    neg, pos = OneType((False,)), OneType((True,))
    # a state whose own-type projection is {+E} cannot serve pi = {-E}
    states = enumerate_extended_types(s3.signature, neg)
    st = next(s for s in states if s.own_type() == pos)
    ctx = ext_ctx_for(s3, neg, st, allowed=[s for s in states
                                           if s.own_type() == neg])
    assert search(ctx) is None


def test_ext_c7_checked(s4):
    neg = OneType((False,))
    start = initial_extended_type(s4.signature, neg)
    ctx = ext_ctx_for(s4, neg, start)
    d = search(ctx)
    # swap the y-class extended type for one violating C7
    bad_ext = list(d.class_states)
    bad_ext[d.partition[2]] = start  # zx bit false, but atom R(z,y) is true
    mutant = replace(d, class_states=tuple(bad_ext))
    assert any(v.startswith("C7") for v in check(mutant, ctx))


def test_ext_fault_reported_once():
    # a flipped diagonal atom is one fault: C2, not C2 and again C7
    s = parse("exists z. forall x. exists y. (R(x,y) & ~R(x,x) & ~R(z,x))")
    neg = OneType((False,))
    ctx = ext_ctx_for(s, neg, initial_extended_type(s.signature, neg))
    d = search(ctx)
    cx = d.partition[1]
    j = atom_keys(s, d.partition).index(("R", (cx, cx)))
    mutant = replace(d, valuation=d.valuation ^ 1 << j)
    key = f"(R, {(cx, cx)})"
    lines = [v for v in check(mutant, ctx) if key in v]
    assert len(lines) == 1 and lines[0].startswith("C2"), lines


# ---------------------------------------------------------------------------
# The per-solve search plan
# ---------------------------------------------------------------------------

def solver_contexts(sentence, monkeypatch):
    """Every context gfp and extended solving query, in query order."""
    plain, ext = [], []

    def recorded(plan, root, state, allowed, is_root=False):
        (ext if isinstance(state, ExtendedType) else plain).append(
            (plan.sentence, root, state, allowed, is_root))
        return find_witness(plan, root, state, allowed, is_root)

    with monkeypatch.context() as m:
        m.setattr(solver, "find_witness", recorded)
        gfp_solve(sentence)
        extended_solve(sentence)
    return plain, ext


def plan_sentences():
    fixtures = [load_sentence(fixture_path(f))
                for f in sorted(os.listdir(FIXTURE_DIR)) if f.endswith(".fo")]
    return fixtures + corpus.corpus(size=200)


def test_shared_plan_matches_fresh_plans(monkeypatch):
    for s in plan_sentences():
        plain, ext = solver_contexts(s, monkeypatch)
        fresh = [(ctx, search(ctx)) for ctx in plain + ext]
        shared = SearchPlan(s)
        for ctx, want in fresh:
            assert search(ctx, shared) == want
        # another state fills each partition's first-walk memo first
        backward = SearchPlan(s)
        for ctx, want in reversed(fresh):
            assert search(ctx, backward) == want


def test_plan_memo_spares_matrix_evaluations(s3, s4, monkeypatch):
    calls = []
    eval_matrix = witness.eval_matrix

    def counted(*args):
        calls.append(1)
        return eval_matrix(*args)

    monkeypatch.setattr(witness, "eval_matrix", counted)
    for s in (s3, s4):
        plan = SearchPlan(s)
        for ctx in all_contexts(s):
            first = search(ctx, plan)
            before = len(calls)
            assert search(ctx, plan) == first
            assert len(calls) == before
    assert calls


def test_partitions_built_when_reached(s2, s4, monkeypatch):
    built = []

    class Counted(witness._Partition):
        def __init__(self, plan, part):
            built.append(part)
            super().__init__(plan, part)

    monkeypatch.setattr(witness, "_Partition", Counted)
    neg, pos = OneType((False,)), OneType((True,))
    plan = SearchPlan(s4)
    # ~R(z,x) & R(z,y) holds with z, x and y apart: one partition
    assert search(ctx_for(s4, neg, neg), plan).partition == (0, 1, 2)
    assert built == [(0, 1, 2)] == [plan.parts[0]]
    # P(x) & ~P(z) has no witness for the root {+P}: its own search
    # builds every partition that merges z and x, another element's
    # every partition that keeps them apart
    del built[:]
    plan = SearchPlan(s2)
    merged = [part for part in plan.parts if part[0] == part[1]]
    assert search(ctx_for(s2, pos, pos, is_root=True), plan) is None
    assert built == merged and len(merged) == 2
    assert search(ctx_for(s2, pos, pos), plan) is None
    assert sorted(built) == sorted(plan.parts) and len(built) == 5  # Bell(3)
    # merging z and x leaves P(x) & ~P(x): later searches skip those
    assert [plan.partition(i).empty for i in range(5)] \
        == [part[0] == part[1] for part in plan.parts]


def test_states_share_a_first_walk(monkeypatch):
    # x's class forces no key of the all-distinct partition, so every
    # state starts from the same constraint there
    s = parse("exists z. forall x. exists y. (P(y) & R(x,y))")
    types = enumerate_one_types(s.signature)
    pi0, a, b = types[0], types[1], types[-1]
    depths = []
    walk = witness._walk

    def counted(pt, ordered, constraint, depth, combo):
        depths.append(depth)
        return walk(pt, ordered, constraint, depth, combo)

    monkeypatch.setattr(witness, "_walk", counted)
    plan = SearchPlan(s)
    da = search(ctx_for(s, pi0, a), plan)
    walked = len(depths)
    db = search(ctx_for(s, pi0, b), plan)
    assert walked and len(depths) == walked and depths.count(0) == 1
    assert da.partition == db.partition == (0, 1, 2)
    assert da.valuation == db.valuation
    assert da.class_states[1] == a and db.class_states[1] == b
    assert da.class_states[::2] == db.class_states[::2]
    assert (da, db) == (search(ctx_for(s, pi0, a)),
                        search(ctx_for(s, pi0, b)))


# five tautologies on z give 64 1-types; x needs P1 and y3 needs ~P1, so
# the ~P1 types fall in the first round and the rest in the second; a y
# class's mask reads P1 alone, so 32 states of a class share each mask
FAILED_MASKS = (
    "exists z. forall x. exists y1 y2 y3. ((P2(z) | ~P2(z)) & (P3(z) | ~P3(z))"
    " & (P4(z) | ~P4(z)) & (P5(z) | ~P5(z)) & (P6(z) | ~P6(z)) & P1(x)"
    " & P1(y1) & P1(y2) & ~P1(y3) & y1 != y2 & y2 != y3 & y1 != y3"
    " & y1 != x & y2 != x & y3 != x & y1 != z & y2 != z & y3 != z)")


def test_walk_skips_failed_masks(monkeypatch):
    # a state whose mask already failed at a prefix is not walked again:
    # without that, this sentence takes 34,080 walks and 1,084,882 meets
    calls = []
    walk = witness._walk

    def counted(*args):
        calls.append(args[3])
        return walk(*args)

    monkeypatch.setattr(witness, "_walk", counted)
    out = gfp_solve(parse(FAILED_MASKS))
    assert out.verdict == "UNSAT"
    assert out.stats.witness_searches == 2144
    assert len(calls) < 1000


def test_masks_computed_when_walked():
    s = parse("exists z. forall x. exists y. (~P(y) | Q(y) | R(x) | S(z))")
    types = enumerate_one_types(s.signature)
    plan = SearchPlan(s)
    search(ctx_for(s, types[5], types[9]), plan)
    # z's, x's, and the first y state: it satisfies the matrix, so the
    # walk reaches none of the other 15 states of y's class
    assert list(plan._built) == [0]
    assert len(plan.partition(0)._masks) == 3


def test_plan_freed_without_cycle_collection(s4):
    # a plan holds no reference cycle, so dropping it frees it at once
    neg = OneType((False,))
    gc.disable()
    try:
        plan = SearchPlan(s4)
        for ctx in all_contexts(s4):
            search(ctx, plan)
        state = initial_extended_type(s4.signature, neg)
        search(ext_ctx_for(s4, neg, state), plan)
        refs = [weakref.ref(x) for x in (plan, plan.partition(0))]
        del plan
        assert [r() for r in refs] == [None] * len(refs)
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# The search against a naive reference
# ---------------------------------------------------------------------------

def test_search_matches_naive_reference(monkeypatch):
    # every context the solver queries, both kinds, with at most 1,000
    # candidates; the naive reference checks each candidate with
    # check_descriptor alone
    checked = {OneType: 0, ExtendedType: 0}
    for s in plan_sentences():
        plain, ext = solver_contexts(s, monkeypatch)
        for ctx in plain + ext:
            if candidate_count(ctx) > 1000:
                continue
            assert search(ctx) == next(naive_witnesses(ctx), None)
            checked[type(ctx[2])] += 1
    # 1,594 and 1,137 over the fixtures and corpus(200)
    assert checked[OneType] > 1500 and checked[ExtendedType] > 1000, checked


def satisfying(pt):
    """The valuations that a partition's evaluated chunks satisfy."""
    return {c << pt.bits | j for c, t in pt._table.items()
            for j in range(t.bit_length()) if t >> j & 1}


@pytest.mark.parametrize("bits", [1, 3])
def test_chunked_tables_match_one_table(monkeypatch, bits):
    # tables split into 2**bits-bit chunks give the same witnesses, and
    # each built partition's chunks, evaluated whole, the same satisfying
    # valuations as its one table
    cases = []
    for s in plan_sentences()[:120]:
        plain, ext = solver_contexts(s, monkeypatch)
        cases += [(s, ctx) for ctx in plain[:4] + ext[:4]]
    default = [search(ctx) for _, ctx in cases]
    plans = {}
    with monkeypatch.context() as m:
        m.setattr(syntax, "CHUNK_BITS", bits)
        for (s, ctx), want in zip(cases, default):
            plan = plans.setdefault(s, SearchPlan(s))
            assert search(ctx, plan) == want
    widths = []
    for s, plan in plans.items():
        whole = SearchPlan(s)
        for i, pt in plan._built.items():
            one = whole.partition(i)
            assert one.bits == len(one.keys)  # a single chunk
            for p in (pt, one):
                p.first_hit((0, 0, 0))  # allows nothing: evaluates every chunk
            assert satisfying(pt) == satisfying(one)
            widths += [t.bit_length() for t in pt._table.values()]
    assert widths and max(widths) <= 1 << bits


def test_wide_tables_stay_chunked():
    # 27 atom keys: 2**13 chunks of 2**14 valuations, never one table
    s = load_sentence(fixture_path("wide/s9_wide_t3.fo"))
    plan = SearchPlan(s)
    neg = OneType((False,))
    ctx = (s, neg, neg, frozenset(enumerate_one_types(s.signature)), False)
    assert search(ctx, plan) is None
    widest = plan.partition(0)
    assert len(widest.keys) == 27 and widest.bits == syntax.CHUNK_BITS
    # only the all-true valuation satisfies the conjunction
    assert {c: t for c, t in widest._table.items() if t} \
        == {(1 << 13) - 1: 1 << (1 << 14) - 1}


def test_wide_tables_evaluate_chunks_on_demand():
    # the disjunction of the same 27 atoms holds on the first valuation of
    # the first chunk, so no other chunk is evaluated
    with open(fixture_path("wide/s9_wide_t3.fo"), encoding="utf-8") as fh:
        s = parse(fh.read().replace(" & ", " | "))
    plan = SearchPlan(s)
    neg = OneType((False,))
    ctx = (s, neg, neg, frozenset(enumerate_one_types(s.signature)), False)
    d = search(ctx, plan)
    assert d is not None and d == search(ctx)
    assert list(plan.partition(0)._table) == [0]
