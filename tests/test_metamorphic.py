"""Verdicts are invariant under relabelings that preserve satisfiability.

These checks need no oracle, so they reach sizes and arities the oracle
cannot, in the style of semantic fusion (Winterer, Zhang & Su, PLDI
2020).  Each relabeling maps the models of a sentence one-to-one onto
the models of its image:

- flip one relation's polarity everywhere (R becomes ~R: complement R);
- permute one relation's arguments everywhere (permute R's tuples);
- rename one relation so that its place in the sorted signature moves;
- reverse the trailing existentials (exists y1 y2 is exists y2 y1).

The `gfp` and `extended` methods must give each image its original's
verdict.  Rewriting the connectives (-> and <-> into & and |, | into &
by De Morgan, and ~(a & b) into ~a | ~b) keeps the matrix's truth
function and its atoms, so it must keep the whole outcome: pi0, the
certificate or refutation, and the stats.  The pool is
corpus(200, seed=7) and seeded draws over the arity-3 shapes, where the
oracle cannot follow.
"""

import random
from itertools import permutations

import pytest

from eae_sat.serialize import outcome_to_json
from eae_sat.solver import solve
from eae_sat.syntax import Bin, Eq, Not, Rel, validate_prefix

import corpus

METHODS = ("gfp", "extended")
SEED = 7


def map_atoms(node, f):
    """The matrix with every relation atom `a` replaced by `f(a)`."""
    if isinstance(node, Rel):
        return f(node)
    if isinstance(node, Eq):
        return node
    if isinstance(node, Not):
        return Not(map_atoms(node.sub, f))
    return Bin(node.op, map_atoms(node.left, f), map_atoms(node.right, f))


def rewrite(node):
    """The matrix with each connective rewritten once, into & | and ~."""
    if isinstance(node, (Rel, Eq)):
        return node
    if isinstance(node, Not):
        sub = node.sub
        if isinstance(sub, Bin) and sub.op == "&":
            return Bin("|", Not(rewrite(sub.left)), Not(rewrite(sub.right)))
        return Not(rewrite(sub))
    a, b = rewrite(node.left), rewrite(node.right)
    if node.op == "->":
        return Bin("|", Not(a), b)
    if node.op == "<->":
        return Bin("|", Bin("&", a, b), Bin("&", Not(a), Not(b)))
    if node.op == "|":
        return Not(Bin("&", Not(a), Not(b)))
    return Bin(node.op, a, b)


def outcomes(s):
    return {m: outcome_to_json(solve(s, method=m), s) for m in METHODS}


def rebuild(s, matrix, ys):
    blocks = [("exists", [s.z]), ("forall", [s.x])]
    blocks += [("exists", [y]) for y in ys]
    return validate_prefix(blocks, matrix)


def flip(s, rng):
    if not len(s.signature):
        return None
    name = rng.choice(s.signature.relations)[0]
    return rebuild(s, map_atoms(
        s.matrix, lambda a: Not(a) if a.name == name else a), s.ys)


def permute_args(s, rng):
    wide = [(n, k) for n, k in s.signature if k > 1]
    if not wide:
        return None
    name, arity = rng.choice(wide)
    perm = rng.choice(list(permutations(range(arity)))[1:])
    return rebuild(s, map_atoms(s.matrix, lambda a: Rel(
        a.name, tuple(a.args[p] for p in perm)) if a.name == name else a),
        s.ys)


def rename(s, rng):
    """The first relation takes a name after the last one's."""
    names = [n for n, _ in s.signature]
    if len(names) < 2:
        return None
    new = names[-1] + "1"
    return rebuild(s, map_atoms(
        s.matrix, lambda a: Rel(new, a.args) if a.name == names[0] else a),
        s.ys)


def reverse_ys(s, rng):
    if len(s.ys) < 2:
        return None
    return rebuild(s, s.matrix, s.ys[::-1])


RELABELINGS = (flip, permute_args, rename, reverse_ys)


@pytest.fixture(scope="module")
def pool():
    """(sentence, {method: outcome JSON}) over the pool."""
    sentences = (corpus.corpus(200, seed=SEED)
                 + corpus.corpus(80, seed=SEED, shapes=corpus.ARITY3))
    return [(s, outcomes(s)) for s in sentences]


@pytest.mark.parametrize("relabel", RELABELINGS, ids=lambda f: f.__name__)
def test_relabeling_keeps_verdicts(pool, relabel):
    rng = random.Random(SEED)
    checked = 0
    moved = []
    for s, outs in pool:
        verdicts = {m: out["verdict"] for m, out in outs.items()}
        image = relabel(s, rng)
        if image is None:
            continue
        checked += 1
        got = {m: solve(image, method=m).verdict for m in METHODS}
        if got != verdicts:
            moved.append((s, image, verdicts, got))
    assert checked >= 40  # each relabeling applies to 46-221 of the pool
    assert moved == []


def test_connective_rewrite_keeps_outcomes(pool):
    moved = []
    for s, outs in pool:
        image = rebuild(s, rewrite(s.matrix), s.ys)
        assert image.signature == s.signature
        if outcomes(image) != outs:
            moved.append((s, image))
    assert moved == []
