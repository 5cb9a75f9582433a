"""Compressed witnesses: representation, checking, and the search for the
canonical-first witness.

A witness descriptor stands for a structure of size n+2 together with an
assignment of the prefix variables: a partition of the variables into
classes (one element per class, plus padding duplicates of the z-class),
a state per class, and a valuation whose bit j is the truth value of
atom key j (`syntax.atom_keys`: sorted (relation, class tuple) keys).
Equality atoms are decided by the partition itself, and congruence is
baked in by the class-tuple keying.

A state is a 1-type or a z-relative extended type; one search and one
checker serve both kinds.  The z-class holds the root the caller gives
(pi0, or the initial extended type), the x-class the state under test,
and the state's kind decides which atom keys a class state forces.

Search order is fixed so that "the" witness for a context is well
defined: partitions of (z, x, y1, ...) as restricted-growth strings in
reverse lexicographic order (all-distinct first, all-merged last), then
state choices for unconstrained classes in canonical state order (the
first free class varies slowest, as in `itertools.product`), then
valuations in increasing order.  The search is bitwise: the first
valuation of a combo is the lowest set bit of its partition's truth
table under its masks.
A partition is built when a search first reaches it.  A search reads
nothing of the state under test past its start constraint, so states
with equal start constraints share each partition's first walk.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from . import structures
from .onetypes import _forced_bit
from .syntax import atom_keys, eval_matrix


@dataclass(frozen=True)
class WitnessDescriptor:
    # class of each prefix variable, in prefix order (z, x, y1, ...)
    partition: tuple[int, ...]
    # state per class id
    class_states: tuple
    # bit j: the value of key j of syntax.atom_keys(sentence, partition)
    valuation: int

    @property
    def class_types(self):
        """The 1-type per class id."""
        return tuple(s.own_type() for s in self.class_states)

    @property
    def num_classes(self):
        return len(self.class_states)


# ---------------------------------------------------------------------------
# Core search
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _partitions(k):
    """Restricted-growth strings of length k, reverse lexicographic order."""
    out = [()]
    for _ in range(k):
        out = [p + (c,) for p in out for c in range(max(p, default=-1) + 2)]
    return tuple(reversed(out))


class _Partition:
    """One partition's atom keys, the matrix's truth table over them (a
    chunk is evaluated when a search first reaches it), the masks that
    class states put on it (one is computed when a walk first reaches
    its class and state), and the first walk from each start
    constraint and allowed set.  Nothing in it refers back to it.

    Valuation v gives key j (sorted order) the value of bit j of v: the
    low `bits` keys vary inside a chunk and the others are fixed per
    chunk, as in the brute-force oracle.  A constraint (low, high, fixed)
    allows, in the chunks c with c & high == fixed, the bits of `low`.
    """

    def __init__(self, plan, part):
        self.part = part
        self.cz, self.cx = part[0], part[1]
        self.nclasses = max(part) + 1
        self.free_classes = tuple(
            c for c in range(self.nclasses) if c not in (self.cz, self.cx))
        sentence = plan.sentence
        self._env = dict(zip(sentence.prefix_vars, part))
        self.keys = atom_keys(sentence, part)
        self.bits = min(len(self.keys), structures._CHUNK_BITS)
        self.full, self._inner = structures.slot_patterns(self.bits)
        self._matrix, self._sig = sentence.matrix, sentence.signature
        self._top = (1 << len(self.keys) - self.bits) - 1  # the last chunk
        self._table = {}  # chunk -> its satisfying valuations
        self._nonzero = None  # once every chunk is known, those with some
        self.empty = False  # whether every chunk is known and none has any
        self._rules = {}  # state kind -> per class: [(slot, state bit)]
        self._masks = {}  # (class, state) -> constraint
        self._first = {}  # (start constraint, allowed) -> first _walk item

    def _evaluate(self, chunk):
        ext = structures.chunk_extents(self.keys, self.bits, chunk)
        return eval_matrix(self._matrix, ext, self._env, self.full)

    def first_hit(self, constraint):
        """(chunk, bitset) for the first chunk in which the constraint
        allows a satisfying valuation, or None."""
        low, high, fixed = constraint
        if self._nonzero is not None:
            for c in self._nonzero:
                if c & high == fixed and self._table[c] & low:
                    return c, self._table[c] & low
            return None
        free, s = self._top & ~high, 0
        while True:  # the chunks fixed | s, s running over subsets of free
            t = self._table.get(fixed | s)
            if t is None:
                t = self._table[fixed | s] = self._evaluate(fixed | s)
                if len(self._table) > self._top:
                    self._nonzero = [c for c in sorted(self._table) if self._table[c]]
                    self.empty = not self._nonzero
            if t & low:
                return fixed | s, t & low
            if s == free:
                return None
            s = (s - free) & free

    def meet(self, p, q):
        """What both constraints allow, or None if no satisfying valuation."""
        if (p[2] ^ q[2]) & p[1] & q[1]:
            return None
        m = p[0] & q[0], p[1] | q[1], p[2] | q[2]
        return m if self.first_hit(m) else None

    def mask(self, c, state):
        """The constraint of class c holding `state`: the keys the state
        forces (`onetypes._forced_bit`) take its bits, so states that
        force the same values have equal constraints."""
        out = self._masks.get((c, state))
        if out is None:
            kind = type(state)
            if kind not in self._rules:
                self._rules[kind] = rules = [[] for _ in range(self.nclasses)]
                for slot, (name, ctuple) in enumerate(self.keys):
                    rule = _forced_bit(self._sig, name, ctuple, self.cz, kind)
                    if rule is not None:
                        rules[rule[0]].append((slot, rule[1]))
            low, high, fixed = self.full, 0, 0
            for slot, b in self._rules[kind][c]:
                v = state.bits[b]
                if slot < self.bits:
                    low &= self._inner[slot] if v else self.full ^ self._inner[slot]
                else:
                    high |= 1 << slot - self.bits
                    fixed |= v << slot - self.bits
            out = self._masks[c, state] = low, high, fixed
        return out

    def first_walk(self, start, allowed, ordered):
        """`_walk` from `start`, shared by every state under test with
        this start constraint."""
        key = start, allowed
        if key not in self._first:
            self._first[key] = _walk(self, ordered, start, 0, ())
        return self._first[key]


class SearchPlan:
    """What every witness search for one sentence shares, settled once:
    each partition with its table, masks and first walks, built when a
    search first reaches it, and the canonical order of each allowed
    set.  Searches through one plan give the descriptors fresh plans
    give.
    """

    def __init__(self, sentence):
        self.sentence = sentence
        self.parts = _partitions(len(sentence.prefix_vars))
        self._built = {}  # index into parts -> its _Partition
        self._ordered = {}  # allowed state set -> its members in canonical order

    def partition(self, i):
        """The _Partition of `parts[i]`, built when first reached."""
        out = self._built.get(i)
        if out is None:
            out = self._built[i] = _Partition(self, self.parts[i])
        return out

    def ordered(self, allowed):
        """The states of `allowed` in canonical order."""
        out = self._ordered.get(allowed)
        if out is None:
            # bits from the last: the order of index(), without the sums
            out = self._ordered[allowed] = sorted(
                allowed, key=lambda s: s.bits[::-1])
        return out


def _walk(pt, ordered, constraint, depth, combo):
    """The first (combo, valuation) completing `combo`, the states of the
    first `depth` free classes, in canonical order, or None; `constraint`
    is what `combo` allows and `ordered` the allowed states in order.

    Depth first, in `product` order: a prefix that allows no satisfying
    valuation is dropped, and so is a state whose constraint already
    failed at the same prefix, since its subtree is the same.
    """
    if depth == len(pt.free_classes):
        # every constraint walked has passed `meet`, so it has a hit
        chunk, t = pt.first_hit(constraint)
        return combo, chunk << pt.bits | (t & -t).bit_length() - 1
    c = pt.free_classes[depth]
    failed = set()
    for s in ordered:
        mask = pt.mask(c, s)
        if mask in failed:
            continue
        sub = pt.meet(constraint, mask)
        if sub is not None:
            item = _walk(pt, ordered, sub, depth + 1, combo + (s,))
            if item is not None:
                return item
        failed.add(mask)
    return None


def find_witness(plan, root, state, allowed):
    """The canonical-first witness descriptor for `state`, or None: z's
    class holds `root`, every class a state of `allowed`, and `plan` is
    the sentence's SearchPlan, shared across the searches of one solve.
    """
    if root not in allowed or state not in allowed:
        return None
    ordered = plan.ordered(allowed)

    for i, part in enumerate(plan.parts):
        cz, cx = part[0], part[1]
        if cz == cx and state != root:
            continue
        pt = plan.partition(i)
        if pt.empty:
            continue
        start = pt.meet(pt.mask(cz, root), pt.mask(cx, state))
        if start is None:
            continue
        item = pt.first_walk(start, allowed, ordered)
        if item is None:
            continue
        combo, v = item
        states = [None] * pt.nclasses
        states[cz] = root
        states[cx] = state
        for c, s in zip(pt.free_classes, combo):
            states[c] = s
        return WitnessDescriptor(
            partition=part, class_states=tuple(states), valuation=v)
    return None


# ---------------------------------------------------------------------------
# Independent descriptor checking
# ---------------------------------------------------------------------------

class CheckFrames:
    """What checking one sentence's descriptors settles once, built apart
    from the search's SearchPlan: per (partition, state kind) the
    variable-to-class map, the matrix's atom keys and the (class, bit)
    each forced key reads.
    """

    def __init__(self, sentence):
        self.sentence = sentence
        self._frames = {}  # (partition, kind) -> (env, keys, forced)

    def frame(self, partition, kind):
        """(env, keys, forced) for a well-formed partition: `keys` from
        `atom_keys`, `forced` one (name, ctuple, class, bit, diagonal)
        per key a class state of `kind` fixes, in key order."""
        out = self._frames.get((partition, kind))
        if out is None:
            sig = self.sentence.signature
            env = dict(zip(self.sentence.prefix_vars, partition))
            keys = atom_keys(self.sentence, partition)
            forced = []
            for name, ctuple in keys:
                hit = _forced_bit(sig, name, ctuple, partition[0], kind)
                if hit is not None:
                    forced.append((name, ctuple, *hit, len(set(ctuple)) == 1))
            out = self._frames[partition, kind] = (env, keys, forced)
        return out


def check_descriptor(d, frames, root, state, allowed):
    """All violations of the invariants of a witness for `state` whose
    z-class holds `root` and whose classes hold states of `allowed`;
    empty means valid.  `frames` is the sentence's CheckFrames, which the
    descriptors of one certificate share.

    Each key a class state forces is checked once: as C2 if it is
    diagonal, as C7 if only an extended type fixes it.
    """
    sentence = frames.sentence
    kind = type(state)
    violations = []
    k = len(sentence.prefix_vars)

    if len(d.partition) != k:
        violations.append(f"P0: partition covers {len(d.partition)} variables, expected {k}")
        return violations
    # restricted-growth canonical numbering
    mx = -1
    for c in d.partition:
        if not 0 <= c <= mx + 1:
            violations.append("P0: partition class ids are not first-occurrence canonical")
            return violations
        mx = max(mx, c)
    nclasses = mx + 1
    if len(d.class_states) != nclasses:
        violations.append(f"P0: {len(d.class_states)} class types for {nclasses} classes")
        return violations

    env, keys, forced = frames.frame(d.partition, kind)
    if not 0 <= d.valuation < 1 << len(keys):
        violations.append(f"P2: valuation out of range for {len(keys)} atom keys")
        return violations
    cz, cx = d.partition[0], d.partition[1]
    ext = {}  # relation -> class tuple -> value
    for j, (name, ctuple) in enumerate(keys):
        ext.setdefault(name, {})[ctuple] = bool(d.valuation >> j & 1)

    for name, ctuple, c, b, diagonal in forced:
        got, want = ext[name][ctuple], d.class_states[c].bits[b]
        if got == want:
            continue
        if diagonal:
            violations.append(
                f"C2: diagonal atom ({name}, {ctuple}) valued "
                f"{got}, class type dictates {want}")
        else:
            violations.append(
                f"C7: atom ({name}, {ctuple}) valued {got}, "
                f"extended type dictates {want}")

    if d.class_states[cz] != root:
        violations.append("C4: z-class type differs from pi0")
    if d.class_states[cx] != state:
        violations.append("C4: x-class type differs from pi")

    if not eval_matrix(sentence.matrix, ext, env):
        violations.append("C5: matrix is not satisfied by the induced valuation")

    # padding elements duplicate the z-class and realize nothing new
    extra = set(d.class_states) - allowed
    if extra:
        violations.append(
            f"closure: {len(extra)} realized type(s) outside the allowed set")
    return violations
