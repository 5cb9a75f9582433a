"""Naive references the tests check the program against.

- `naive_witnesses`: every witness candidate from `itertools.product`
  over the partitions, state combos and key valuations, in canonical
  order (`canonical_index`), that `check_descriptor` accepts;
- `eval_sentence_naive`: the sentence's truth over every assignment;
- `descriptor_to_structure`: a descriptor realized as a small structure
  and assignment, for the realization law;
- `verify_construction`: the two gluing requirements of a staged model.

They share nothing with the code under test but the data types,
`check_descriptor`, `eval_qf` and `type_of_element`.
"""

from itertools import product

from eae_sat.onetypes import render_one_type, type_of_element
from eae_sat.structures import EmptyUniverseError, FiniteStructure, eval_qf
from eae_sat.syntax import atom_keys, atoms_of
from eae_sat.witness import CheckFrames, WitnessDescriptor, check_descriptor


def canonical_index(state):
    """A state's position in the canonical order: binary counting over
    its bits, first bit least significant."""
    return sum(1 << j for j, b in enumerate(state.bits) if b)


def naive_partitions(k):
    """Restricted-growth strings of length k, reverse lexicographic order."""
    def canonical(p):
        return all(c <= max(p[:i], default=-1) + 1 for i, c in enumerate(p))
    return sorted((p for p in product(range(k), repeat=k) if canonical(p)),
                  reverse=True)


def naive_candidates(ctx):
    """Every candidate descriptor for a (sentence, root, state, allowed)
    context in canonical order: partitions, then state combos from
    `product`, then key valuations by binary counting."""
    s, root, state, allowed = ctx
    ordered = sorted(allowed, key=canonical_index)
    k = len(s.prefix_vars)
    index = {v: i for i, v in enumerate(s.prefix_vars)}
    for part in naive_partitions(k):
        n = max(part) + 1
        free = [c for c in range(n) if c not in part[:2]]
        keys = {(a.name, tuple(part[index[v]] for v in a.args))
                for a in atoms_of(s.matrix)}
        for combo in product(ordered, repeat=len(free)):
            states = dict(zip(free, combo))
            states[part[0]] = root
            states[part[1]] = state
            class_states = tuple(states[c] for c in range(n))
            for v in range(1 << len(keys)):
                yield WitnessDescriptor(
                    partition=part, class_states=class_states, valuation=v)


def naive_witnesses(ctx):
    """The candidates `check_descriptor` accepts, in canonical order."""
    sentence, root, state, allowed = ctx
    frames = CheckFrames(sentence)
    return (d for d in naive_candidates(ctx)
            if check_descriptor(d, frames, root, state, allowed) == [])


def candidate_count(ctx):
    s, _, _, allowed = ctx
    k = len(s.prefix_vars)
    index = {v: i for i, v in enumerate(s.prefix_vars)}
    total = 0
    for part in naive_partitions(k):
        keys = {(a.name, tuple(part[index[v]] for v in a.args))
                for a in atoms_of(s.matrix)}
        free = len(set(part) - set(part[:2]))
        total += len(allowed) ** free << len(keys)
    return total


def eval_sentence_naive(structure, sentence):
    """The sentence's truth by full assignment enumeration."""
    if structure.size == 0:
        raise EmptyUniverseError("sentences have no truth value over an empty universe")
    rng = range(structure.size)
    ys = sentence.ys

    def holds(zv):
        for xv in rng:
            if not any(
                eval_qf(structure,
                        dict(zip((sentence.z, sentence.x) + ys, (zv, xv) + yt)),
                        sentence.matrix)
                for yt in product(rng, repeat=len(ys))
            ):
                return False
        return True

    return any(holds(zv) for zv in rng)


def descriptor_to_structure(d, sentence):
    """Realize a valid descriptor as an (n+2)-element structure + assignment.

    One element per class in class-id order, then padding duplicates of
    the z-class (same 1-type, no other relations).  Extents hold exactly
    the class-type diagonals and the true atoms; everything else is
    false.
    """
    sig = sentence.signature
    nclasses = d.num_classes
    size = len(d.partition)
    cz = d.partition[0]
    extents = {name: set() for name, _ in sig}
    for c, t in enumerate(d.class_types):
        for i, (name, arity) in enumerate(sig):
            if t.bit(i):
                extents[name].add((c,) * arity)
    for pad in range(nclasses, size):
        for i, (name, arity) in enumerate(sig):
            if d.class_types[cz].bit(i):
                extents[name].add((pad,) * arity)
    for j, (name, ctuple) in enumerate(atom_keys(sentence, d.partition)):
        if d.valuation >> j & 1:
            extents[name].add(ctuple)
    structure = FiniteStructure(
        signature=sig, size=size,
        extents={name: frozenset(ts) for name, ts in extents.items()})
    assignment = {v: d.partition[i] for i, v in enumerate(sentence.prefix_vars)}
    return structure, assignment


def verify_construction(staged, sentence, cert):
    """Independent check of the two gluing requirements; returns failures.

    R1: every element of every stage realizes a type the strategy covers.
    R2: every element of stage i has a recorded witness tuple making the
    matrix true in stage i+1.
    """
    failures = []
    sig = sentence.signature
    good = cert.good_types
    strategy = dict(cert.strategy)
    for i, st in enumerate(staged.stages):
        for a in range(st.size):
            if type_of_element(st, a) not in good:
                failures.append(
                    f"R1: stage {i} element {a} realizes "
                    f"{render_one_type(type_of_element(st, a), sig)}, "
                    "not covered by the strategy")
    by_key = {(g.stage, g.b): g for g in staged.glue}
    for i in range(len(staged.stages) - 1):
        nxt = staged.stages[i + 1]
        for b in range(staged.stages[i].size):
            g = by_key.get((i + 1, b))
            if g is None:
                failures.append(f"R2: stage {i} element {b} has no glue record")
                continue
            d = strategy.get(g.pi)
            emap = dict(g.element_map)
            var_class = {v: d.partition[j]
                         for j, v in enumerate(sentence.prefix_vars)}
            assignment = {v: emap[var_class[v]] for v in sentence.prefix_vars}
            if assignment[sentence.z] != staged.b0 or assignment[sentence.x] != b:
                failures.append(
                    f"R2: stage {i} element {b} glue record maps z/x wrongly")
                continue
            if not eval_qf(nxt, assignment, sentence.matrix):
                failures.append(
                    f"R2: stage {i} element {b}: matrix false under the "
                    "recorded witness tuple")
    return failures
