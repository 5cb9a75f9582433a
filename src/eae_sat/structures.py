"""Explicit finite models: evaluation, oracle, staged building.

The brute-force model search is the independent oracle the solvers are
differential-tested against: it enumerates every structure up to a size
bound, in a fixed canonical order, and evaluates the sentence directly,
on up to 2**14 structures at once with one bit per structure.

The staged builder replays a SAT certificate as an increasing chain of
models B0 <= B1 <= ..., gluing one witness instance onto every element of
the previous stage, completing minimally (unforced tuples stay false)
and aborting with a conflict object whenever a witness dictates a value
that contradicts an already-determined one.  Conflicts are data, not
faults: they pinpoint instances where a surviving strategy cannot
actually be glued into a model.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from itertools import product

from . import syntax
from .onetypes import OneType, type_of_element
from .syntax import Signature, atom_keys, equalities_of, eval_matrix


class UnboundVariableError(Exception):
    pass


class EmptyUniverseError(Exception):
    pass


class MissingStrategyEntry(Exception):
    """A realized type has no strategy entry; the certificate was unsound."""


# Each stage of build_model_sequence can multiply the universe by 1 + the
# number of ys, or copy the last stage when no witness adds an element;
# every stage is printed.  The fixtures, tests and the benchmark's
# `model --depth 3` stay at or below 27 elements per stage; at 10**4
# elements over all stages the build stops within about a second, where
# the next stage (3**9 on three-class witnesses) or ten thousand copies
# would emit megabytes of JSON.
MAX_MODEL_ELEMENTS = 10**4


class ModelTooLarge(Exception):
    """build_model_sequence would print over MAX_MODEL_ELEMENTS elements."""


class OracleBudgetExceeded(Exception):
    def __init__(self, count):
        self.count = count
        super().__init__(
            f"brute-force budget exceeded after {count} structures")


@dataclass(frozen=True)
class FiniteStructure:
    signature: Signature
    size: int
    extents: object  # mapping relation name -> frozenset of tuples

    def __post_init__(self):
        for name, arity in self.signature:
            for tup in self.extents.get(name, ()):
                if len(tup) != arity or any(not 0 <= e < self.size for e in tup):
                    raise ValueError(f"bad tuple {tup} for {name}/{arity}")


@dataclass(frozen=True)
class GlueRecord:
    stage: int  # index of the stage this witness instance was glued into
    b: int  # the element being served
    pi: OneType
    element_map: tuple  # ((class id, element), ...)


@dataclass
class StagedModel:
    stages: list  # [FiniteStructure, ...], each a substructure of the next
    b0: int
    glue: list  # [GlueRecord, ...]


@dataclass(frozen=True)
class ConstructionConflict:
    stage: int
    element: int
    relation: str  # relation name, or "=" for an identification clash
    tuple_: tuple
    required: bool
    existing: bool


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

class _Extent(dict):
    """The tuples of one relation, each mapped to 1; any other reads 0."""

    def __missing__(self, tup):
        return 0


def _point_extents(structure):
    """The structure as a one-valuation table; a relation outside its
    signature is false."""
    return defaultdict(_Extent, {name: _Extent.fromkeys(ts, 1)
                                 for name, ts in structure.extents.items()})


def eval_qf(structure, assignment, matrix):
    """Standard quantifier-free semantics; equality is element identity."""
    try:
        return bool(eval_matrix(matrix, _point_extents(structure), assignment))
    except KeyError as e:
        raise UnboundVariableError(f"unbound variable {e.args[0]!r}") from None


def eval_sentence(structure, sentence):
    """Finite semantics of the full sentence, with early exits."""
    if structure.size == 0:
        raise EmptyUniverseError("sentences have no truth value over an empty universe")
    return bool(_models(sentence, 1, _point_extents(structure), structure.size))


# ---------------------------------------------------------------------------
# Brute-force oracle
# ---------------------------------------------------------------------------

def _models(sentence, full, ext, size):
    """Bitset of the table's structures that satisfy the sentence."""
    matrix, z, x, ys = sentence.matrix, sentence.z, sentence.x, sentence.ys
    rng = range(size)
    y_tuples = list(product(rng, repeat=len(ys)))
    env = {}
    found = 0
    for zv in rng:
        env[z] = zv
        alive = full ^ found  # not yet known to be models
        for xv in rng:
            env[x] = xv
            need = alive  # still without a witness for this x
            for yt in y_tuples:
                env.update(zip(ys, yt))
                need &= ~eval_matrix(matrix, ext, env, full)
                if not need:
                    break
            alive ^= need
            if not alive:
                break
        found |= alive
        if found == full:
            break
    return found


def brute_force_search(sentence, max_size, budget=10**7):
    """First satisfying structure in canonical enumeration order, or None.

    Universes of size 1..max_size; per size, extents are enumerated by
    binary counting over the concatenated tuple list (relations in
    signature order, tuples in positional product order, first tuple as
    least significant bit).  Exhaustive within the bound.  Structures are
    evaluated as bitsets, up to 2**syntax.CHUNK_BITS at a time: the low slots
    vary inside a chunk and the others are fixed per chunk, so the lowest
    satisfying bit is the first model in the enumeration.  A budget of n
    structures raises OracleBudgetExceeded(n + 1) unless a model lies
    among the first n.
    """
    if max_size < 1:
        raise ValueError("max_size must be at least 1")
    sig = sentence.signature
    count = 0  # structures before the current chunk
    for k in range(1, max_size + 1):
        slots = []  # (relation name, tuple) per bit position
        for name, arity in sig:
            for tup in product(range(k), repeat=arity):
                slots.append((name, tup))
        bits = min(len(slots), syntax.CHUNK_BITS)
        width = 1 << bits
        full = syntax.slot_patterns(bits)[0]
        for chunk in range(1 << (len(slots) - bits)):
            found = _models(sentence, full,
                            syntax.chunk_extents(slots, bits, chunk), k)
            if found:
                first = (found & -found).bit_length() - 1
                if count + first >= budget:
                    raise OracleBudgetExceeded(budget + 1)
                i = chunk << bits | first
                return FiniteStructure(
                    signature=sig, size=k,
                    extents={name: frozenset(tup for j, (m, tup)
                                             in enumerate(slots)
                                             if m == name and i >> j & 1)
                             for name, _ in sig})
            count += width
            if count > budget:
                raise OracleBudgetExceeded(budget + 1)
    return None


# ---------------------------------------------------------------------------
# Staged model construction
# ---------------------------------------------------------------------------

def build_model_sequence(sentence, cert, depth):
    """Grow the certificate's strategy into a chain of models.

    Every element of the previous stage gets its type's witness glued on:
    the z-class lands on b0, the x-class on the element itself, the other
    classes on fresh elements (padding adds no obligations and is
    skipped).  Returns the StagedModel, or the first ConstructionConflict
    encountered; raises ModelTooLarge once the stages would hold more than
    MAX_MODEL_ELEMENTS elements in all.
    """
    sig = sentence.signature
    strategy = dict(cert.strategy)
    # each partition's atom keys, decoded once per build
    keys = {p: atom_keys(sentence, p) for p in {d.partition for d in strategy.values()}}
    pi0 = cert.pi0
    eq_atoms = equalities_of(sentence.matrix)

    b0 = 0
    extents0 = {name: frozenset({(0,) * arity} if pi0.bit(i) else set())
                for i, (name, arity) in enumerate(sig)}
    stages = [FiniteStructure(signature=sig, size=1, extents=extents0)]
    glue = []
    next_fresh = 1
    printed = 1  # elements over the stages built so far

    def too_large(stage):
        return ModelTooLarge(
            f"staged model would exceed {MAX_MODEL_ELEMENTS} elements over "
            f"its stages at stage {stage}; lower --depth")

    for stage in range(1, depth + 1):
        prev = stages[-1]
        required = {}  # (relation, element tuple) -> bool
        for b in range(prev.size):
            pi = type_of_element(prev, b)
            d = strategy.get(pi)
            if d is None:
                raise MissingStrategyEntry(
                    f"no strategy entry for realized type {pi.bits} "
                    f"(stage {stage}, element {b})")
            cz, cx = d.partition[0], d.partition[1]
            if cz == cx and b != b0:
                # the witness identifies z and x, but this element is not b0
                return ConstructionConflict(
                    stage=stage, element=b, relation="=",
                    tuple_=(b0, b), required=True, existing=False)
            emap = {}
            for c in range(d.num_classes):
                if c == cz:
                    emap[c] = b0
                elif c == cx:
                    emap[c] = b
                else:
                    if printed + next_fresh >= MAX_MODEL_ELEMENTS:
                        raise too_large(stage)
                    emap[c] = next_fresh
                    next_fresh += 1
            glue.append(GlueRecord(
                stage=stage, b=b, pi=pi,
                element_map=tuple(sorted(emap.items()))))

            var_class = {v: d.partition[i]
                         for i, v in enumerate(sentence.prefix_vars)}
            for eq in eq_atoms:
                want = var_class[eq.left] == var_class[eq.right]
                got = emap[var_class[eq.left]] == emap[var_class[eq.right]]
                if want != got:
                    return ConstructionConflict(
                        stage=stage, element=b, relation="=",
                        tuple_=(emap[var_class[eq.left]],
                                emap[var_class[eq.right]]),
                        required=want, existing=got)

            dictated = []
            for c, t in enumerate(d.class_types):
                e = emap[c]
                for i, (name, arity) in enumerate(sig):
                    dictated.append((name, (e,) * arity, t.bit(i)))
            for j, (name, ctuple) in enumerate(keys[d.partition]):
                dictated.append((name, tuple(emap[c] for c in ctuple),
                                 bool(d.valuation >> j & 1)))

            for name, tup, v in dictated:
                if all(t < prev.size for t in tup):
                    existing = tup in prev.extents.get(name, frozenset())
                    if existing != v:
                        return ConstructionConflict(
                            stage=stage, element=b, relation=name,
                            tuple_=tup, required=v, existing=existing)
                    continue
                key = (name, tup)
                if key in required:
                    if required[key] != v:
                        return ConstructionConflict(
                            stage=stage, element=b, relation=name,
                            tuple_=tup, required=v, existing=required[key])
                else:
                    required[key] = v

        if printed + next_fresh > MAX_MODEL_ELEMENTS:
            raise too_large(stage)
        printed += next_fresh
        new_extents = {}
        for name, _ in sig:
            ts = set(prev.extents.get(name, frozenset()))
            for (rname, tup), v in required.items():
                if rname == name and v:
                    ts.add(tup)
            new_extents[name] = frozenset(ts)
        stages.append(FiniteStructure(
            signature=sig, size=next_fresh, extents=new_extents))

    return StagedModel(stages=stages, b0=b0, glue=glue)
