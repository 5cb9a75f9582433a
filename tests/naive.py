"""Naive references the tests check the program against.

They share nothing with the code under test but the data types and
`check_descriptor`: the witness candidates come from `itertools.product`
over every partition, state combo and key valuation, and the sentence is
evaluated over every assignment.
"""

from itertools import product

from eae_sat.structures import EmptyUniverseError, eval_qf
from eae_sat.syntax import atoms_of
from eae_sat.witness import CheckFrames, WitnessDescriptor, check_descriptor


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
    ordered = sorted(allowed, key=lambda st: st.index())
    k = len(s.prefix_vars)
    index = {v: i for i, v in enumerate(s.prefix_vars)}
    for part in naive_partitions(k):
        n = max(part) + 1
        free = [c for c in range(n) if c not in part[:2]]
        keys = sorted({(a.name, tuple(part[index[v]] for v in a.args))
                       for a in atoms_of(s.matrix)})
        for combo in product(ordered, repeat=len(free)):
            states = dict(zip(free, combo))
            states[part[0]] = root
            states[part[1]] = state
            class_states = tuple(states[c] for c in range(n))
            for v in range(1 << len(keys)):
                yield WitnessDescriptor(
                    partition=part, class_states=class_states,
                    atom_values=tuple((name, ct, bool(v >> j & 1))
                                      for j, (name, ct) in enumerate(keys)),
                    padding_count=k - n)


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
