"""Naive references the tests check the program against.

- `naive_witnesses`: every witness candidate from `itertools.product`
  over the partitions of the obligation's kind (x = z for the root's
  own, x != z for any other), state combos and key valuations, in
  canonical order (`canonical_index`), that `check_descriptor` accepts;
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
    """Every candidate descriptor for a (sentence, root, state, allowed,
    is_root) context in canonical order: partitions, then state combos
    from `product`, then key valuations by binary counting."""
    s, root, state, allowed, is_root = ctx
    ordered = sorted(allowed, key=canonical_index)
    k = len(s.prefix_vars)
    index = {v: i for i, v in enumerate(s.prefix_vars)}
    for part in naive_partitions(k):
        if (part[0] == part[1]) != is_root:
            continue  # the root's own obligation is x = z, any other x != z
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
    sentence, *key = ctx
    frames = CheckFrames(sentence)
    return (d for d in naive_candidates(ctx)
            if check_descriptor(d, frames, *key) == [])


def candidate_count(ctx):
    s, _, _, allowed, is_root = ctx
    k = len(s.prefix_vars)
    index = {v: i for i, v in enumerate(s.prefix_vars)}
    total = 0
    for part in naive_partitions(k):
        if (part[0] == part[1]) != is_root:
            continue
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


def verify_construction(stages, glue, sentence, cert):
    """Independent check of the two gluing requirements and of the types
    the builder tracks; returns failures.

    R1: every element of every stage but b0 = 0 realizes a type the
    strategy covers.
    R2: every element of stage i has a recorded witness tuple making the
    matrix true in stage i+1: the root's witness for b0, its type's entry
    for any other element.
    R3: every glue row's type is the one its element realizes in the
    stage it served.
    """
    failures = []
    sig = sentence.signature
    good = cert.good_types
    strategy = dict(cert.strategy)
    for i, st in enumerate(stages):
        for a in range(1, st.size):
            if type_of_element(st, a) not in good:
                failures.append(
                    f"R1: stage {i} element {a} realizes "
                    f"{render_one_type(type_of_element(st, a), sig)}, "
                    "not covered by the strategy")
    by_key = {(stage, b): (pi, emap) for stage, b, pi, emap in glue}
    for i in range(len(stages) - 1):
        nxt = stages[i + 1]
        for b in range(stages[i].size):
            if (i + 1, b) not in by_key:
                failures.append(f"R2: stage {i} element {b} has no glue record")
                continue
            pi, emap = by_key[i + 1, b]
            realized = type_of_element(stages[i], b)
            if pi != realized:
                failures.append(
                    f"R3: stage {i} element {b} glue record says "
                    f"{render_one_type(pi, sig)}, the element realizes "
                    f"{render_one_type(realized, sig)}")
            d = cert.root if b == 0 else strategy.get(realized)
            if d is None:
                continue  # R1 names the uncovered type
            var_class = {v: d.partition[j]
                         for j, v in enumerate(sentence.prefix_vars)}
            assignment = {v: emap[var_class[v]] for v in sentence.prefix_vars}
            if assignment[sentence.z] != 0 or assignment[sentence.x] != b:
                failures.append(
                    f"R2: stage {i} element {b} glue record maps z/x wrongly")
                continue
            if not eval_qf(nxt, assignment, sentence.matrix):
                failures.append(
                    f"R2: stage {i} element {b}: matrix false under the "
                    "recorded witness tuple")
    return failures
