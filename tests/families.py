"""Sentence families whose verdict is known by construction.

The first two are n-bit binary counters, the gadget behind the
fragment's ExpTime lower bound: a sentence of O(n^2) atoms forces 2^n
elements.

- `counter(n, unsat)` keeps an element's count in unary `B1..Bn`.  z
  counts 0, and each x needs a y that counts one more: bit i of y is bit
  i of x, flipped iff bits 1..i-1 of x are all set.  The all-ones count
  wraps to 0, so every model has at least 2^n elements and the 2^n
  counts, once each, are a model.  The UNSAT version forbids all ones,
  so the chain from 0 cannot close.
- `zcounter(n, unsat)` keeps the same count in `Ri(x, z)`.  Its verdicts
  are the counter's, but the plain methods never read an x-z atom, so
  they answer SAT on its UNSAT version: the class of fixture s4, at any
  n.  The extended method refutes it.

The third adds alternation, which counters never reach: a universal
position needs every successor to survive, an existential one only some.

- `safety_game(k, seed, zrel)` is a random two-player safety game on the
  k-bit positions, kept in unary `B1..Bk`, or in `Ri(x, z)` if `zrel`.
  Two successor functions give each bit of the next position as a small
  formula of the bits of this one.  At an `owner` position both
  successors follow, elsewhere the player picks one, and no position may
  be `bad`.  z sits on the initial position, and each x needs a y1 (and
  at owner positions a y2) on its successors.  The positions of a model
  are a safe set closed under the moves that contains the initial one;
  conversely, one element per position of such a set is a model.  So the
  sentence is SAT iff `game_winner(k, seed)`, the greatest fixpoint over
  all 2^k positions, holds at the initial one.  The plain methods cannot
  read the `Ri(x, z)` bits, so only extended decides the z-relative
  variant.

Print one with

    python tests/families.py counter|zcounter N sat|unsat
    python tests/families.py game|zgame K SEED
"""

import argparse
import random


def _counter(n, unsat, bit):
    """The counter sentence whose bit i of element v is `bit(i, v)`."""
    if n < 1:
        raise ValueError("a counter needs at least one bit")
    bits = range(1, n + 1)
    parts = ["(x = z -> " + " & ".join(f"~{bit(i, 'x')}" for i in bits) + ")"]
    for i in bits:
        if i == 1:
            parts.append(f"({bit(1, 'y')} <-> ~{bit(1, 'x')})")
        else:
            carry = " & ".join(bit(j, "x") for j in range(1, i))
            parts.append(f"(({bit(i, 'y')} <-> {bit(i, 'x')}) <-> ~({carry}))")
    if unsat:
        parts.append("~(" + " & ".join(bit(i, "x") for i in bits) + ")")
    return "exists z. forall x. exists y.\n  (" + "\n   & ".join(parts) + ")"


def counter(n, unsat=False):
    """The n-bit counter over unary B1..Bn, as sentence text."""
    return _counter(n, unsat, lambda i, v: f"B{i}({v})")


def zcounter(n, unsat=False):
    """The n-bit counter over binary Ri(x, z), as sentence text."""
    return _counter(n, unsat, lambda i, v: f"R{i}({v},z)")


FAMILIES = {"counter": counter, "zcounter": zcounter}


def _random_formula(rng, k):
    """A literal, or two joined by &, | or <->: (op, (bit, positive), ...)."""
    lits = [(rng.randrange(k), rng.random() < 0.5)
            for _ in range(1 if rng.random() < 0.4 else 2)]
    return (rng.choice(("&", "|", "<->")) if len(lits) == 2 else None, *lits)


def _game(k, seed):
    """The game's (f1, f2, owner, bad, init): f1 and f2 hold one formula
    per output bit, init is a position."""
    if k < 1:
        raise ValueError("a game needs at least one bit")
    rng = random.Random(f"safety_game {k} {seed}")
    moves = [[_random_formula(rng, k) for _ in range(k)] for _ in range(2)]
    owner, bad = _random_formula(rng, k), _random_formula(rng, k)
    return moves[0], moves[1], owner, bad, rng.randrange(1 << k)


def _holds(formula, p):
    """The formula's value at position p, bit i of p being bit i + 1."""
    op, *lits = formula
    vals = [bool(p >> i & 1) == positive for i, positive in lits]
    if op is None:
        return vals[0]
    a, b = vals
    return {"&": a and b, "|": a or b, "<->": a == b}[op]


def _text(formula, bit, v):
    op, *lits = formula
    parts = [("" if positive else "~") + bit(i + 1, v) for i, positive in lits]
    return parts[0] if op is None else f"({parts[0]} {op} {parts[1]})"


def game_winner(k, seed):
    """Whether the player keeps the game out of `bad` forever from its
    initial position: the greatest fixpoint over all 2^k positions."""
    f1, f2, owner, bad, init = _game(k, seed)

    def step(move, p):
        return sum(_holds(f, p) << i for i, f in enumerate(move))

    win = {p for p in range(1 << k) if not _holds(bad, p)}
    while True:
        keep = {p for p in win
                if (all if _holds(owner, p) else any)(
                    step(move, p) in win for move in (f1, f2))}
        if keep == win:
            return init in win
        win = keep


def safety_game(k, seed, zrel=False):
    """The game's sentence text; its bits are `Ri(v, z)` if `zrel`."""
    f1, f2, owner, bad, init = _game(k, seed)
    if zrel:
        def bit(i, v):
            return f"R{i}({v},z)"
    else:
        def bit(i, v):
            return f"B{i}({v})"

    def moves_to(y, move):
        return " & ".join(f"({bit(i + 1, y)} <-> {_text(f, bit, 'x')})"
                          for i, f in enumerate(move))

    start = " & ".join(("" if init >> i & 1 else "~") + bit(i + 1, "x")
                       for i in range(k))
    own = _text(owner, bit, "x")
    parts = [f"(x = z -> {start})", f"~{_text(bad, bit, 'x')}",
             f"({own} -> {moves_to('y1', f1)} & {moves_to('y2', f2)})",
             f"(~{own} -> ({moves_to('y1', f1)}) | ({moves_to('y1', f2)}))"]
    return "exists z. forall x. exists y1 y2.\n  (" + "\n   & ".join(parts) + ")"


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description="Print a family's sentence.")
    ap.add_argument("family", choices=sorted(FAMILIES) + ["game", "zgame"])
    ap.add_argument("n", type=int)
    ap.add_argument("version", help="sat or unsat for a counter, a seed for a game")
    args = ap.parse_args()
    if args.family in FAMILIES:
        if args.version not in ("sat", "unsat"):
            ap.error("a counter's version is sat or unsat")
        print(FAMILIES[args.family](args.n, args.version == "unsat"))
    else:
        print(safety_game(args.n, int(args.version), args.family == "zgame"))
