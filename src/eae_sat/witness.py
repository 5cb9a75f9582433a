"""Compressed witnesses: representation, checking, search, enumeration.

A witness descriptor stands for a structure of size n+2 together with an
assignment of the prefix variables: a partition of the variables into
classes (one element per class, plus padding duplicates of the z-class),
a state per class, and a truth value per relation atom of the matrix,
keyed by (relation, class tuple).  Equality atoms are decided by the
partition itself, and congruence is baked in by the class-tuple keying.

A state is a 1-type or a z-relative extended type; one search and one
checker serve both kinds.  The z-class holds the kind's root (pi0, or
the initial extended type), the x-class the state under test, and the
state's kind decides which atom keys a class state forces.

Search order is fixed so that "the" witness for a context is well
defined: partitions of (z, x, y1, ...) as restricted-growth strings in
reverse lexicographic order (all-distinct first, all-merged last), then
state choices for unconstrained classes in canonical state order, then
free atom values by binary counting (first key in sorted order = least
significant bit).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import product

from .onetypes import OneType, _forced_bit
from .syntax import PrenexSentence, atoms_of, eval_matrix


class WitnessBudgetExceeded(Exception):
    """Witness enumeration produced more descriptors than the budget allows."""

    def __init__(self, count):
        self.count = count
        super().__init__(f"witness enumeration budget exceeded after {count} descriptors")


@dataclass(frozen=True)
class WitnessContext:
    sentence: PrenexSentence
    pi0: OneType
    state: object  # OneType or ExtendedType; its kind is the search's
    allowed: frozenset  # states of the same kind


@dataclass(frozen=True)
class WitnessDescriptor:
    # class of each prefix variable, in prefix order (z, x, y1, ...)
    partition: tuple[int, ...]
    # state per class id
    class_states: tuple
    # ((relation, class tuple, value), ...), sorted by (relation, class tuple)
    atom_values: tuple[tuple[str, tuple[int, ...], bool], ...]
    padding_count: int

    @property
    def class_types(self):
        """The 1-type per class id."""
        return tuple(s.own_type() for s in self.class_states)

    @property
    def num_classes(self):
        return len(self.class_states)

    def value_map(self):
        return {(name, classes): v for name, classes, v in self.atom_values}


def realized_states(d):
    """The states realized by the descriptor's elements.

    Padding elements duplicate the z-class and add nothing.
    """
    return frozenset(d.class_states)


# ---------------------------------------------------------------------------
# Partition enumeration
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _partitions(k):
    """Restricted-growth strings of length k, reverse lexicographic order."""
    out = []

    def extend(prefix, mx):
        if len(prefix) == k:
            out.append(tuple(prefix))
            return
        for c in range(mx + 2):
            prefix.append(c)
            extend(prefix, max(mx, c))
            prefix.pop()

    extend([0], 0) if k else out.append(())
    out.reverse()
    return tuple(out)


# ---------------------------------------------------------------------------
# Core search
# ---------------------------------------------------------------------------

class _Replay:
    """An iterator's items, produced on first demand and replayed after."""

    def __init__(self, it):
        self._it = it
        self._items = []

    def __iter__(self):
        if self._it is None:
            return iter(self._items)
        return self._resume()

    def _resume(self):
        i = 0
        while True:
            if i == len(self._items):
                if self._it is None:
                    return
                item = next(self._it, _DONE)
                if item is _DONE:
                    self._it = None
                    return
                self._items.append(item)
            yield self._items[i]
            i += 1


_DONE = object()


class _Partition:
    """One partition's atom keys, shared by the plain and extended searches.

    It refers to nothing that refers back to it, so a plan is freed by
    reference counting as soon as its solve drops it.
    """

    def __init__(self, plan, part):
        self.part = part
        self.cz, self.cx = part[0], part[1]
        self.nclasses = max(part) + 1
        self.free_classes = tuple(
            c for c in range(self.nclasses) if c not in (self.cz, self.cx))
        key_of = {a: (a.name, tuple(part[plan.var_index[arg]] for arg in a.args))
                  for a in plan.atoms}
        self.keys = sorted(set(key_of.values()))
        slot_of_key = {key: slot for slot, key in enumerate(self.keys)}
        self._slot_of = {a: slot_of_key[key] for a, key in key_of.items()}
        self._matrix = plan.sentence.matrix
        self._eq_value = plan.eq_value(part)

    def satisfying(self, forced_slots, free_slots, forced):
        """Atom values, in sorted-key order, that satisfy the matrix and
        give the keys in `forced_slots` the values `forced`; the keys in
        `free_slots` run through binary counting, first one least
        significant."""
        keys, slot_of, eq_value = self.keys, self._slot_of, self._eq_value
        values = [None] * len(keys)
        for slot, v in zip(forced_slots, forced):
            values[slot] = v

        def rel_value(a):
            return values[slot_of[a]]

        if eval_matrix(self._matrix, rel_value, eq_value) is False:
            return
        for i in range(1 << len(free_slots)):
            for j, slot in enumerate(free_slots):
                values[slot] = bool(i >> j & 1)
            if eval_matrix(self._matrix, rel_value, eq_value) is True:
                yield tuple((name, ctuple, values[slot])
                            for slot, (name, ctuple) in enumerate(keys))


class _Forcing:
    """Which atom keys a state kind forces on a partition, and a memo.

    `rules` lists, for each forced key in sorted-key order, the (class,
    bit) of the class state that fixes its value (`onetypes._forced_bit`).
    """

    def __init__(self, partition, sig, kind):
        rules, forced_slots, free_slots = [], [], []
        for slot, (name, ctuple) in enumerate(partition.keys):
            rule = _forced_bit(sig, name, ctuple, partition.cz, kind)
            if rule is None:
                free_slots.append(slot)
            else:
                rules.append(rule)
                forced_slots.append(slot)
        self.partition = partition
        self.rules = tuple(rules)
        self._forced_slots = tuple(forced_slots)
        self._free_slots = tuple(free_slots)
        self._memo = {}

    def assignments(self, forced):
        """The partition's satisfying atom values that agree with `forced`,
        the forced keys' values in rule order; computed as far as asked."""
        replay = self._memo.get(forced)
        if replay is None:
            replay = self._memo[forced] = _Replay(self.partition.satisfying(
                self._forced_slots, self._free_slots, forced))
        return replay


class SearchPlan:
    """What every witness search for one sentence shares, settled once.

    Partitions whose equalities alone falsify the matrix are dropped
    once.  Each surviving partition gets its sorted atom keys once and,
    per state kind, its forcing rules, free keys, and a memo from forced
    valuations to their satisfying free-atom assignments, filled only as
    far as some search has asked.  Searches through one plan give
    exactly the descriptors, in exactly the order, that searches through
    fresh plans give.

    The solver builds one plan per solve; nothing in it outlives that.
    """

    def __init__(self, sentence):
        self.sentence = sentence
        self.atoms = atoms_of(sentence.matrix)
        self.var_index = {v: i for i, v in enumerate(sentence.prefix_vars)}
        self._ordered = {}  # allowed state set -> its members in canonical order
        self._forcings = {}  # state kind -> forcings()

    def ordered(self, allowed):
        """The states of `allowed` in canonical order."""
        out = self._ordered.get(allowed)
        if out is None:
            out = self._ordered[allowed] = sorted(allowed, key=lambda s: s.index())
        return out

    def eq_value(self, part):
        """The equality valuation a partition settles."""
        var_index = self.var_index

        def eq_value(u, v):
            return part[var_index[u]] == part[var_index[v]]
        return eq_value

    def forcings(self, kind):
        """The forcing by states of `kind` (OneType or ExtendedType) of
        every partition the equalities alone do not rule out, in
        canonical order."""
        out = self._forcings.get(kind)
        if out is None:
            sig = self.sentence.signature
            out = self._forcings[kind] = [
                _Forcing(pt, sig, kind) for pt in self._alive]
        return out

    @cached_property
    def _alive(self):
        matrix = self.sentence.matrix
        return [_Partition(self, part)
                for part in _partitions(len(self.sentence.prefix_vars))
                if eval_matrix(matrix, _unknown, self.eq_value(part)) is not False]


def _unknown(atom):
    return None


def _plan_for(ctx, plan):
    if plan is None:
        return SearchPlan(ctx.sentence)
    if plan.sentence != ctx.sentence:
        raise ValueError("the search plan was built for another sentence")
    return plan


def _search(plan, ctx):
    """Yield all valid descriptors for the context, in canonical order."""
    state, allowed = ctx.state, ctx.allowed
    kind = type(state)
    root = kind.root(plan.sentence.signature, ctx.pi0)
    if root not in allowed or state not in allowed:
        return
    ordered = plan.ordered(allowed)
    k = len(plan.sentence.prefix_vars)

    for forcing in plan.forcings(kind):
        pt, rules = forcing.partition, forcing.rules
        part, cz, cx, free_classes = pt.part, pt.cz, pt.cx, pt.free_classes
        if cz == cx and state != root:
            continue
        padding = k - pt.nclasses
        states = [None] * pt.nclasses
        states[cz] = root
        states[cx] = state

        for combo in product(ordered, repeat=len(free_classes)):
            for c, s in zip(free_classes, combo):
                states[c] = s
            class_states = tuple(states)
            forced = tuple([states[c].bits[b] for c, b in rules])
            for atom_values in forcing.assignments(forced):
                yield WitnessDescriptor(
                    partition=part, class_states=class_states,
                    atom_values=atom_values, padding_count=padding)


def find_witness(ctx, plan=None):
    """The canonical-first witness descriptor for the context, or None.

    `plan` is the sentence's SearchPlan, shared across the searches of
    one solve; without one, a fresh plan is built.
    """
    return next(_search(_plan_for(ctx, plan), ctx), None)


def enumerate_witnesses(ctx, budget=10**6, plan=None):
    """Every valid descriptor for the context, in canonical order.

    Intended for tiny instances; raises WitnessBudgetExceeded beyond the
    budget.
    """
    out = []
    for d in _search(_plan_for(ctx, plan), ctx):
        out.append(d)
        if len(out) > budget:
            raise WitnessBudgetExceeded(len(out))
    return out


# ---------------------------------------------------------------------------
# Independent descriptor checking
# ---------------------------------------------------------------------------

def check_descriptor(d, ctx):
    """All violations of the descriptor invariants; empty list means valid.

    Each key a class state forces is checked once: as C2 if it is
    diagonal, as C7 if only an extended type fixes it.
    """
    sentence = ctx.sentence
    sig = sentence.signature
    kind = type(ctx.state)
    violations = []
    vars_ = sentence.prefix_vars
    k = len(vars_)
    var_index = {v: i for i, v in enumerate(vars_)}

    if len(d.partition) != k:
        violations.append(f"P0: partition covers {len(d.partition)} variables, expected {k}")
        return violations
    # restricted-growth canonical numbering
    mx = -1
    for c in d.partition:
        if c > mx + 1:
            violations.append("P0: partition class ids are not first-occurrence canonical")
            return violations
        mx = max(mx, c)
    nclasses = mx + 1
    if len(d.class_states) != nclasses:
        violations.append(f"P0: {len(d.class_states)} class types for {nclasses} classes")
        return violations

    if d.padding_count != k - nclasses:
        violations.append(
            f"P1: padding_count {d.padding_count} != {k - nclasses}")
    if d.padding_count < 0:
        violations.append("P1: negative padding_count")

    cz, cx = d.partition[0], d.partition[1]
    expected_keys = sorted({
        (a.name, tuple(d.partition[var_index[arg]] for arg in a.args))
        for a in atoms_of(sentence.matrix)})
    values = {}
    seen = set()
    for name, ctuple, v in d.atom_values:
        if name == "=":
            violations.append("C1: equality atom carried in atom_values")
            continue
        if (name, ctuple) in seen:
            violations.append(f"C3: duplicate key ({name}, {ctuple})")
        seen.add((name, ctuple))
        values[(name, ctuple)] = v
    if sorted(seen) != expected_keys:
        violations.append(
            f"P2: atom keys {sorted(seen)} do not match the matrix keys "
            f"{expected_keys}")
        return violations

    for name, ctuple in expected_keys:
        hit = _forced_bit(sig, name, ctuple, cz, kind)
        if hit is None:
            continue
        c, b = hit
        got, want = values[(name, ctuple)], d.class_states[c].bits[b]
        if got == want:
            continue
        if len(set(ctuple)) == 1:
            violations.append(
                f"C2: diagonal atom ({name}, {ctuple}) valued "
                f"{got}, class type dictates {want}")
        else:
            violations.append(
                f"C7: atom ({name}, {ctuple}) valued {got}, "
                f"extended type dictates {want}")

    if d.class_states[cz] != kind.root(sig, ctx.pi0):
        violations.append("C4: z-class type differs from pi0")
    if d.class_states[cx] != ctx.state:
        violations.append("C4: x-class type differs from pi")

    def rel_value(a):
        return values[(a.name, tuple(d.partition[var_index[arg]] for arg in a.args))]

    def eq_value(u, v):
        return d.partition[var_index[u]] == d.partition[var_index[v]]

    if eval_matrix(sentence.matrix, rel_value, eq_value) is not True:
        violations.append("C5: matrix is not satisfied by the induced valuation")

    extra = realized_states(d) - ctx.allowed
    if extra:
        violations.append(
            f"closure: {len(extra)} realized type(s) outside the allowed set")
    return violations
