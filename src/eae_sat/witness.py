"""Compressed witnesses: representation, checking, search, enumeration.

A witness descriptor stands for a structure of size n+2 together with an
assignment of the prefix variables: a partition of the variables into
classes (one element per class, plus padding duplicates of the z-class),
a 1-type per class, and a truth value per relation atom of the matrix,
keyed by (relation, class tuple).  Equality atoms are decided by the
partition itself, and congruence is baked in by the class-tuple keying.

Search order is fixed so that "the" witness for a context is well
defined: partitions of (z, x, y1, ...) as restricted-growth strings in
reverse lexicographic order (all-distinct first, all-merged last), then
1-type choices for unconstrained classes in canonical type order, then
free atom values by binary counting (first key in sorted order = least
significant bit).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import product

from .onetypes import (
    ExtendedType,
    OneType,
    enumerate_one_types,
    initial_extended_type,
)
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
    pi: OneType
    allowed: frozenset


@dataclass(frozen=True)
class ExtWitnessContext:
    sentence: PrenexSentence
    pi0: OneType
    state: ExtendedType
    allowed_ext: frozenset


@dataclass(frozen=True)
class WitnessDescriptor:
    # class of each prefix variable, in prefix order (z, x, y1, ...)
    partition: tuple[int, ...]
    # 1-type per class id
    class_types: tuple[OneType, ...]
    # ((relation, class tuple, value), ...), sorted by (relation, class tuple)
    atom_values: tuple[tuple[str, tuple[int, ...], bool], ...]
    padding_count: int

    @property
    def num_classes(self):
        return len(self.class_types)

    def value_map(self):
        return {(name, classes): v for name, classes, v in self.atom_values}


@dataclass(frozen=True)
class ExtWitnessDescriptor(WitnessDescriptor):
    # extended type per class id
    class_exttypes: tuple[ExtendedType, ...] = ()


def realized_types(d):
    """The 1-types realized by the descriptor's elements.

    Padding elements duplicate the z-class and add nothing.
    """
    return frozenset(d.class_types)


def realized_exttypes(d):
    return frozenset(d.class_exttypes)


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

def _atom_keys(sentence, part):
    """Map matrix atoms through a partition; returns the sorted key list."""
    var_index = {v: i for i, v in enumerate(sentence.prefix_vars)}
    keys = set()
    for a in atoms_of(sentence.matrix):
        keys.add((a.name, tuple(part[var_index[arg]] for arg in a.args)))
    return sorted(keys)


def _ext_forced_key(ctuple, cz):
    """If the key's classes lie in {cz, c} for one class c, return (c, pattern)."""
    nonz = set(ctuple) - {cz}
    if len(nonz) > 1:
        return None
    c = nonz.pop() if nonz else cz
    if c == cz:
        return (cz, 0)
    p = 0
    for j, cc in enumerate(ctuple):
        if cc == c:
            p |= 1 << j
    return (c, p)


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
    """Which atom keys a search kind forces on a partition, and a memo.

    `rules` lists, for each forced key in sorted-key order, where its
    value comes from: (class, relation index) reads the class 1-type's
    bit, (class, relation index, pattern) the class extended type's
    pattern.  An extended search forces every key whose classes lie in
    {cz, c} by c's pattern; for a diagonal key that pattern is c's own
    1-type bit, so the extended rules subsume the plain ones and never
    contradict them.
    """

    def __init__(self, partition, sig, ext):
        rules, forced_slots, free_slots = [], [], []
        for slot, (name, ctuple) in enumerate(partition.keys):
            ridx = sig.index(name)
            if ext:
                hit = _ext_forced_key(ctuple, partition.cz)
                rule = None if hit is None else (hit[0], ridx, hit[1])
            else:
                rule = (ctuple[0], ridx) if len(set(ctuple)) == 1 else None
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

    The 1-types are enumerated once.  Partitions whose equalities alone
    falsify the matrix are dropped once.  Each surviving partition gets
    its sorted atom keys once and, per search kind (plain or extended),
    its forcing rules, free keys, and a memo from forced valuations to
    their satisfying free-atom assignments, filled only as far as some
    search has asked.  Searches through one plan give exactly the
    descriptors, in exactly the order, that searches through fresh plans
    give.

    The solver builds one plan per solve; nothing in it outlives that.
    """

    def __init__(self, sentence):
        self.sentence = sentence
        self.one_types = enumerate_one_types(sentence.signature)
        self.atoms = atoms_of(sentence.matrix)
        self.var_index = {v: i for i, v in enumerate(sentence.prefix_vars)}
        self._ordered = {}  # allowed 1-type set -> its members in canonical order
        self._ext_views = {}  # allowed extended-type set -> ext_view
        self._forcings = {}  # extended? -> forcings()

    def ordered(self, allowed):
        """The 1-types of `allowed` in canonical order."""
        out = self._ordered.get(allowed)
        if out is None:
            out = self._ordered[allowed] = [t for t in self.one_types if t in allowed]
        return out

    def ext_view(self, allowed_ext):
        """The 1-types under `allowed_ext`, and its members grouped by
        1-type, each group in canonical order."""
        view = self._ext_views.get(allowed_ext)
        if view is None:
            by_type = {}
            for e in sorted(allowed_ext, key=ExtendedType.index):
                by_type.setdefault(e.own_type(), []).append(e)
            view = self._ext_views[allowed_ext] = (frozenset(by_type), by_type)
        return view

    def eq_value(self, part):
        """The equality valuation a partition settles."""
        var_index = self.var_index

        def eq_value(u, v):
            return part[var_index[u]] == part[var_index[v]]
        return eq_value

    def forcings(self, ext):
        """The plain (False) or extended (True) forcing of every partition
        the equalities alone do not rule out, in canonical order."""
        out = self._forcings.get(ext)
        if out is None:
            sig = self.sentence.signature
            out = self._forcings[ext] = [
                _Forcing(pt, sig, ext) for pt in self._alive]
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


def _search(plan, pi0, pi, allowed, ext=None):
    """Yield all valid descriptors for the context, in canonical order.

    `ext` is None for plain search, else a (state, allowed_ext) pair; the
    plain search yields WitnessDescriptor, the extended one
    ExtWitnessDescriptor.
    """
    if pi0 not in allowed or pi not in allowed:
        return
    if ext is not None:
        state, allowed_ext = ext
        initial = initial_extended_type(plan.sentence.signature, pi0)
        if initial not in allowed_ext or state not in allowed_ext:
            return
        if state.own_type() != pi:
            return
        by_type = plan.ext_view(allowed_ext)[1]
    allowed_sorted = plan.ordered(allowed)
    k = len(plan.sentence.prefix_vars)

    for forcing in plan.forcings(ext is not None):
        pt, rules = forcing.partition, forcing.rules
        part, cz, cx, free_classes = pt.part, pt.cz, pt.cx, pt.free_classes
        if cz == cx and (pi0 != pi or ext is not None and state != initial):
            continue
        padding = k - pt.nclasses
        types = [None] * pt.nclasses
        types[cz] = pi0
        types[cx] = pi
        if ext is not None:
            exts = [None] * pt.nclasses
            exts[cz] = initial
            exts[cx] = state

        for combo in product(allowed_sorted, repeat=len(free_classes)):
            for c, t in zip(free_classes, combo):
                types[c] = t
            class_types = tuple(types)

            if ext is None:
                forced = tuple([types[c].bits[r] for c, r in rules])
                for atom_values in forcing.assignments(forced):
                    yield WitnessDescriptor(
                        partition=part, class_types=class_types,
                        atom_values=atom_values, padding_count=padding)
                continue

            for ext_combo in product(*(by_type.get(t, ()) for t in combo)):
                for c, e in zip(free_classes, ext_combo):
                    exts[c] = e
                class_exts = tuple(exts)
                forced = tuple([exts[c].patterns[r][p] for c, r, p in rules])
                for atom_values in forcing.assignments(forced):
                    yield ExtWitnessDescriptor(
                        partition=part, class_types=class_types,
                        atom_values=atom_values, padding_count=padding,
                        class_exttypes=class_exts)


def find_witness(ctx, plan=None):
    """The canonical-first witness descriptor for the context, or None.

    `plan` is the sentence's SearchPlan, shared across the searches of
    one solve; without one, a fresh plan is built.
    """
    plan = _plan_for(ctx, plan)
    return next(_search(plan, ctx.pi0, ctx.pi, ctx.allowed), None)


def enumerate_witnesses(ctx, budget=10**6, plan=None):
    """Every valid descriptor for the context, in canonical order.

    Intended for tiny instances; raises WitnessBudgetExceeded beyond the
    budget.
    """
    out = []
    for d in _search(_plan_for(ctx, plan), ctx.pi0, ctx.pi, ctx.allowed):
        out.append(d)
        if len(out) > budget:
            raise WitnessBudgetExceeded(len(out))
    return out


def find_ext_witness(ctx, plan=None):
    """Canonical-first extended descriptor for the context, or None."""
    plan = _plan_for(ctx, plan)
    allowed = plan.ext_view(ctx.allowed_ext)[0]
    return next(
        _search(plan, ctx.pi0, ctx.state.own_type(), allowed,
                ext=(ctx.state, ctx.allowed_ext)),
        None)


# ---------------------------------------------------------------------------
# Independent descriptor checking
# ---------------------------------------------------------------------------

def check_descriptor(d, ctx):
    """All violations of the descriptor invariants; empty list means valid."""
    sentence = ctx.sentence
    sig = sentence.signature
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
    if len(d.class_types) != nclasses:
        violations.append(f"P0: {len(d.class_types)} class types for {nclasses} classes")
        return violations

    if d.padding_count != k - nclasses:
        violations.append(
            f"P1: padding_count {d.padding_count} != {k - nclasses}")
    if d.padding_count < 0:
        violations.append("P1: negative padding_count")

    cz, cx = d.partition[0], d.partition[1]
    expected_keys = _atom_keys(sentence, d.partition)
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
        if len(set(ctuple)) == 1:
            want = d.class_types[ctuple[0]].bit(sig.index(name))
            if values[(name, ctuple)] != want:
                violations.append(
                    f"C2: diagonal atom ({name}, {ctuple}) valued "
                    f"{values[(name, ctuple)]}, class type dictates {want}")

    if d.class_types[cz] != ctx.pi0:
        violations.append("C4: z-class type differs from pi0")
    if d.class_types[cx] != ctx.pi:
        violations.append("C4: x-class type differs from pi")

    def rel_value(a):
        return values[(a.name, tuple(d.partition[var_index[arg]] for arg in a.args))]

    def eq_value(u, v):
        return d.partition[var_index[u]] == d.partition[var_index[v]]

    if eval_matrix(sentence.matrix, rel_value, eq_value) is not True:
        violations.append("C5: matrix is not satisfied by the induced valuation")

    extra = realized_types(d) - ctx.allowed
    if extra:
        violations.append(
            f"closure: {len(extra)} realized type(s) outside the allowed set")
    return violations


def check_ext_descriptor(d, ctx):
    """check_descriptor plus the z-relative extended-type invariants."""
    sig = ctx.sentence.signature
    pi = ctx.state.own_type()
    plain_ctx = WitnessContext(
        sentence=ctx.sentence, pi0=ctx.pi0, pi=pi,
        allowed=frozenset(e.own_type() for e in ctx.allowed_ext))
    violations = check_descriptor(d, plain_ctx)
    if not isinstance(d, ExtWitnessDescriptor) or \
            len(d.class_exttypes) != d.num_classes:
        violations.append("E0: missing or malformed class extended types")
        return violations

    cz, cx = d.partition[0], d.partition[1]
    initial = initial_extended_type(sig, ctx.pi0)
    for c, e in enumerate(d.class_exttypes):
        if e.own_type() != d.class_types[c]:
            violations.append(f"E1: class {c} extended type projects to a different 1-type")
        if e.z_type() != ctx.pi0:
            violations.append(f"E1: class {c} extended type has a foreign reference projection")
    if d.class_exttypes[cz] != initial:
        violations.append("E2: z-class extended type is not the initial one")
    if d.class_exttypes[cx] != ctx.state:
        violations.append("E2: x-class extended type differs from the current state")

    values = d.value_map()
    for name, ctuple in _atom_keys(ctx.sentence, d.partition):
        hit = _ext_forced_key(ctuple, cz)
        if hit is None:
            continue
        c, p = hit
        want = d.class_exttypes[c].patterns[sig.index(name)][p]
        if values[(name, ctuple)] != want:
            violations.append(
                f"C7: atom ({name}, {ctuple}) valued {values[(name, ctuple)]}, "
                f"extended type dictates {want}")

    extra = realized_exttypes(d) - ctx.allowed_ext
    if extra:
        violations.append(
            f"closure: {len(extra)} realized extended type(s) outside the allowed set")
    return violations
