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
from functools import lru_cache
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


def _merge_forced(forced, key, value):
    prev = forced.get(key)
    if prev is None:
        forced[key] = value
        return True
    return prev == value


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


def _search(sentence, pi0, pi, allowed, ext=None):
    """Yield all valid descriptors for the context, in canonical order.

    `ext` is None for plain search, else a (state, allowed_ext) pair; the
    plain search yields WitnessDescriptor, the extended one
    ExtWitnessDescriptor.
    """
    sig = sentence.signature
    if pi0 not in allowed or pi not in allowed:
        return
    if ext is not None:
        state, allowed_ext = ext
        initial = initial_extended_type(sig, pi0)
        if initial not in allowed_ext or state not in allowed_ext:
            return
        if state.own_type() != pi or initial.z_type() != pi0:
            return
        ext_sorted = sorted(allowed_ext, key=lambda e: e.index())
    allowed_sorted = [t for t in enumerate_one_types(sig) if t in allowed]
    var_index = {v: i for i, v in enumerate(sentence.prefix_vars)}
    matrix = sentence.matrix
    k = len(sentence.prefix_vars)

    for part in _partitions(k):
        cz, cx = part[0], part[1]
        nclasses = max(part) + 1
        if cz == cx and pi0 != pi:
            continue
        if ext is not None and cz == cx and state != initial:
            continue

        def eq_value(u, v, part=part):
            return part[var_index[u]] == part[var_index[v]]

        # equalities are settled by the partition alone; prune early
        if eval_matrix(matrix, lambda a: None, eq_value) is False:
            continue

        keys = _atom_keys(sentence, part)
        free_classes = [c for c in range(nclasses) if c not in (cz, cx)]

        for combo in product(allowed_sorted, repeat=len(free_classes)):
            types = [None] * nclasses
            types[cz] = pi0
            types[cx] = pi
            for c, t in zip(free_classes, combo):
                types[c] = t
            class_types = tuple(types)

            if ext is None:
                ext_combos = [None]
            else:
                per_class = []
                for c in free_classes:
                    cands = [e for e in ext_sorted if e.own_type() == class_types[c]]
                    per_class.append(cands)
                ext_combos = product(*per_class)

            for ext_combo in ext_combos:
                class_exts = None
                if ext is not None:
                    exts = [None] * nclasses
                    exts[cz] = initial
                    exts[cx] = state
                    for c, e in zip(free_classes, ext_combo):
                        exts[c] = e
                    class_exts = tuple(exts)

                forced = {}
                consistent = True
                for name, ctuple in keys:
                    ridx = sig.index(name)
                    if len(set(ctuple)) == 1:
                        v = class_types[ctuple[0]].bit(ridx)
                        if not _merge_forced(forced, (name, ctuple), v):
                            consistent = False
                            break
                    if ext is not None:
                        hit = _ext_forced_key(ctuple, cz)
                        if hit is not None:
                            c, p = hit
                            v = class_exts[c].patterns[ridx][p]
                            if not _merge_forced(forced, (name, ctuple), v):
                                consistent = False
                                break
                if not consistent:
                    continue

                def rel_value(a, forced=forced, part=part):
                    key = (a.name, tuple(part[var_index[arg]] for arg in a.args))
                    return forced.get(key)

                if eval_matrix(matrix, rel_value, eq_value) is False:
                    continue

                free_keys = [key for key in keys if key not in forced]
                for i in range(1 << len(free_keys)):
                    values = dict(forced)
                    for j, key in enumerate(free_keys):
                        values[key] = bool(i >> j & 1)

                    def rel_total(a, values=values, part=part):
                        return values[(a.name,
                                       tuple(part[var_index[arg]] for arg in a.args))]

                    if eval_matrix(matrix, rel_total, eq_value) is not True:
                        continue
                    atom_values = tuple(
                        (name, ctuple, values[(name, ctuple)])
                        for name, ctuple in keys)
                    if ext is None:
                        yield WitnessDescriptor(
                            partition=part, class_types=class_types,
                            atom_values=atom_values,
                            padding_count=k - nclasses)
                    else:
                        yield ExtWitnessDescriptor(
                            partition=part, class_types=class_types,
                            atom_values=atom_values,
                            padding_count=k - nclasses,
                            class_exttypes=class_exts)


def find_witness(ctx):
    """The canonical-first witness descriptor for the context, or None."""
    return next(_search(ctx.sentence, ctx.pi0, ctx.pi, ctx.allowed), None)


def enumerate_witnesses(ctx, budget=10**6):
    """Every valid descriptor for the context, in canonical order.

    Intended for tiny instances; raises WitnessBudgetExceeded beyond the
    budget.
    """
    out = []
    for d in _search(ctx.sentence, ctx.pi0, ctx.pi, ctx.allowed):
        out.append(d)
        if len(out) > budget:
            raise WitnessBudgetExceeded(len(out))
    return out


def find_ext_witness(ctx):
    """Canonical-first extended descriptor for the context, or None."""
    pi = ctx.state.own_type()
    sig = ctx.sentence.signature
    allowed = frozenset(e.own_type() for e in ctx.allowed_ext)
    return next(
        _search(ctx.sentence, ctx.pi0, pi, allowed,
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
