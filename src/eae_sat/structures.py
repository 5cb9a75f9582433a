"""Explicit finite models: evaluation, oracle, staged building.

The brute-force model search is the independent oracle the solvers are
differential-tested against: it enumerates every structure up to a size
bound, in a fixed canonical order, and evaluates the sentence directly,
on up to 2**14 structures at once with one bit per structure.

The staged builder replays a SAT certificate as an increasing chain of
models B0 <= B1 <= ..., gluing one witness instance onto every element of
the previous stage (the root's witness onto z's element b0, a strategy
entry onto any other), completing minimally (unforced tuples stay false)
and raising ConstructionConflict whenever a witness dictates a value
that contradicts an already-determined one.  A conflict is a finding,
not a fault: it pinpoints an instance where a surviving strategy cannot
actually be glued into a model.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from itertools import product

from . import syntax
from .syntax import Signature, atom_keys, eval_matrix


class UnboundVariableError(Exception):
    pass


class EmptyUniverseError(Exception):
    pass


class MissingStrategyEntry(Exception):
    """A realized type has no strategy entry; the certificate was unsound."""


class ConstructionConflict(Exception):
    """A witness dictates a tuple value that contradicts the one already
    fixed; args[0] is the report `model` prints: stage, element,
    relation, tuple, required and existing value."""


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

    Every element of the previous stage gets a witness glued on, b0
    (element 0) the certificate's root witness and any other element its
    type's strategy entry: the z-class lands on b0, the x-class on the
    element itself, the other classes on fresh elements, each of which
    takes its class's 1-type.  Each dictated tuple is checked once: against the
    previous stage if it lies there, else against the first value this
    stage dictated for it, so a fresh element's diagonal is its type row
    and an element keeps its type.  Returns (stages, glue): the
    FiniteStructure chain and one (stage, b, type, element map) row per
    served element, the map a list indexed by class.  Raises
    ConstructionConflict on the first contradiction, and ModelTooLarge
    once the stages would hold more than MAX_MODEL_ELEMENTS elements.
    """
    sig = sentence.signature
    strategy = dict(cert.strategy)
    # per witness, (relation, class tuple, value): each class's diagonal
    # atoms from its 1-type, then the valuation's atom keys
    tables = {d: [(name, (c,) * arity, t.bit(i))
                  for c, t in enumerate(d.class_types)
                  for i, (name, arity) in enumerate(sig)]
              + [(name, ctuple, bool(d.valuation >> j & 1)) for j, (name, ctuple)
                 in enumerate(atom_keys(sentence, d.partition))]
              for d in (cert.root, *strategy.values())}

    types = [cert.pi0]  # per element of the stage being built, its 1-type
    extents0 = {name: frozenset({(0,) * arity} if cert.pi0.bit(i) else set())
                for i, (name, arity) in enumerate(sig)}
    stages = [FiniteStructure(signature=sig, size=1, extents=extents0)]
    glue = []
    printed = 1  # elements over the stages built so far
    too_large = (f"staged model would exceed {MAX_MODEL_ELEMENTS} elements "
                 "over its stages at stage {}; lower --depth")

    for stage in range(1, depth + 1):
        prev = stages[-1]
        extents = {name: set(prev.extents[name]) for name, _ in sig}
        fresh = {}  # (relation, tuple with a fresh element) -> first value
        for b in range(prev.size):
            pi = types[b]
            d = cert.root if b == 0 else strategy.get(pi)
            if d is None:
                raise MissingStrategyEntry(
                    f"no strategy entry for realized type {pi.bits} "
                    f"(stage {stage}, element {b})")
            cz, cx = d.partition[0], d.partition[1]
            emap = []
            for c, t in enumerate(d.class_types):
                if c == cz:
                    emap.append(0)
                elif c == cx:
                    emap.append(b)
                else:
                    if printed + len(types) >= MAX_MODEL_ELEMENTS:
                        raise ModelTooLarge(too_large.format(stage))
                    emap.append(len(types))
                    types.append(t)
            glue.append((stage, b, pi, emap))

            for name, ctuple, v in tables[d]:
                tup = tuple(map(emap.__getitem__, ctuple))
                if max(tup) < prev.size:
                    existing = tup in prev.extents[name]
                else:
                    existing = fresh.setdefault((name, tup), v)
                if existing != v:
                    raise ConstructionConflict({
                        "stage": stage, "element": b, "relation": name,
                        "tuple": list(tup), "required": v,
                        "existing": existing})
                if v:
                    extents[name].add(tup)

        if printed + len(types) > MAX_MODEL_ELEMENTS:
            raise ModelTooLarge(too_large.format(stage))
        printed += len(types)
        stages.append(FiniteStructure(
            signature=sig, size=len(types),
            extents={name: frozenset(ts) for name, ts in extents.items()}))

    return stages, glue
