"""1-types over a relational signature, and their z-relative extensions.

A 1-type records, per relation symbol, the truth of the diagonal atom
R(a,...,a) for one element.  Types are bit vectors indexed in signature
order; the canonical enumeration is binary counting with the first
signature symbol as least significant bit.

An extended type additionally records, for the current element a and a
fixed reference element b0, the truth of R(w) for every argument pattern
w over {b0, a}.  Pattern indices are integers whose bit j says whether
argument j is the current element (1) or the reference element (0).

The witness search reads a state only through `bits`, a flat bit tuple;
binary counting over it, first bit least significant, is the canonical
order.  `own_type()` gives the element's 1-type.  The solver picks the
state of b0 itself, the root: pi0, or `initial_extended_type(sig, pi0)`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, product

DEFAULT_ARITY_CAP = 3


class ArityCapExceeded(Exception):
    """A relation's arity exceeds the cap for extended-type solving."""


@dataclass(frozen=True)
class OneType:
    bits: tuple[bool, ...]

    def __post_init__(self):
        # not a field, so == and repr see only `bits`; memo keys and
        # allowed sets hash 1-types often
        object.__setattr__(self, "_hash", hash((self.bits,)))

    def __hash__(self):
        return self._hash

    def bit(self, i):
        return self.bits[i]

    def index(self):
        """Position in the canonical enumeration (first bit = LSB)."""
        return sum(1 << i for i, b in enumerate(self.bits) if b)

    def own_type(self):
        return self


@dataclass(frozen=True)
class ExtendedType:
    """Per relation (signature order), one boolean per argument pattern."""

    patterns: tuple[tuple[bool, ...], ...]

    def __post_init__(self):
        # not fields, so ==, hash and repr see only `patterns`; the
        # witness search hashes states and reads their bits often
        object.__setattr__(self, "bits", tuple(chain.from_iterable(
            self.patterns)))
        object.__setattr__(self, "_hash", hash((self.patterns,)))

    def __hash__(self):
        return self._hash

    def own_type(self):
        """Projection to all-current-element patterns: the element's 1-type."""
        return OneType(tuple(p[-1] for p in self.patterns))


def _forced_bit(sig, name, ctuple, cz, kind):
    """The (class, bit) whose state bit fixes atom key (name, ctuple) in a
    witness over states of `kind`, or None if the key is free.

    A 1-type fixes its diagonal keys.  An extended type fixes every key
    whose classes lie in {cz, c} for one class c, by c's pattern bit; z's
    own keys read the z-class state, the root, whose patterns all agree.
    """
    ridx = sig.index(name)
    if kind is OneType:
        return (ctuple[0], ridx) if len(set(ctuple)) == 1 else None
    nonz = set(ctuple) - {cz}
    if len(nonz) > 1:
        return None
    c = nonz.pop() if nonz else cz
    pattern = 0 if c == cz else sum(1 << j for j, cc in enumerate(ctuple) if cc == c)
    offset = sum(1 << arity for _, arity in sig.relations[:ridx])
    return (c, offset + pattern)


def enumerate_one_types(sig):
    """All 2^{|sig|} 1-types in canonical order."""
    k = len(sig)
    return tuple(
        OneType(tuple(bool(i >> j & 1) for j in range(k)))
        for i in range(1 << k)
    )


def type_of_element(structure, a):
    """The 1-type realized by element a: diagonal membership per relation."""
    bits = []
    for name, arity in structure.signature:
        bits.append((a,) * arity in structure.extents.get(name, frozenset()))
    return OneType(tuple(bits))


def initial_extended_type(sig, pi0):
    """Extended type of b0 itself: every pattern denotes b0's diagonal."""
    pats = []
    for i, (_, arity) in enumerate(sig):
        pats.append((pi0.bit(i),) * (1 << arity))
    return ExtendedType(tuple(pats))


def check_arity_cap(sig, cap=DEFAULT_ARITY_CAP):
    for name, arity in sig:
        if arity > cap:
            raise ArityCapExceeded(
                f"relation {name} has arity {arity}, above the extended-type "
                f"arity cap {cap}")


def enumerate_extended_types(sig, pi0):
    """All extended types whose reference projection is pi0, canonical order.

    Pattern 0 of each relation is pi0's bit; the other patterns count in
    binary, the first relation's lowest, which keeps the canonical order
    since the fixed bits do not move.  The caller checks the arity cap.
    """
    per_relation = []
    for r, (_, arity) in enumerate(sig):
        w = (1 << arity) - 1
        per_relation.append([(pi0.bit(r),) + tuple(bool(i >> j & 1)
                                                    for j in range(w))
                             for i in range(1 << w)])
    # product varies its last factor fastest: the first relation
    return tuple(ExtendedType(pats[::-1])
                 for pats in product(*per_relation[::-1]))


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def type_symbols(t, sig):
    """Signed-symbol list, e.g. `["+P", "-R"]`."""
    return [("+" if t.bit(i) else "-") + name for i, (name, _) in enumerate(sig)]


def render_one_type(t, sig):
    """Signed-symbol rendering, e.g. `{+P, -R}`; `{}` for the empty signature."""
    return "{" + ", ".join(type_symbols(t, sig)) + "}"


def one_type_from_symbols(symbols, sig):
    """Inverse of type_symbols."""
    values = {}
    for s in symbols:
        if not s or s[0] not in "+-":
            raise ValueError(f"bad signed symbol {s!r}")
        if s[1:] in values:
            raise ValueError(f"relation {s[1:]} named twice in type")
        values[s[1:]] = s[0] == "+"
    bits = []
    for name, _ in sig:
        if name not in values:
            raise ValueError(f"signed symbol list misses relation {name}")
        bits.append(values.pop(name))
    if values:
        raise ValueError(f"unknown relation(s) in type: {sorted(values)}")
    return OneType(tuple(bits))


def pattern_string(p, arity):
    return "".join("x" if p >> j & 1 else "z" for j in range(arity))


def render_extended_type(t, sig):
    parts = []
    for i, (name, arity) in enumerate(sig):
        for p in range(1 << arity):
            parts.append(f"{name}[{pattern_string(p, arity)}]="
                         f"{1 if t.patterns[i][p] else 0}")
    return "{" + ", ".join(parts) + "}"
