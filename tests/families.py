"""Sentence families whose verdict is known by construction.

Both are n-bit binary counters, the gadget behind the fragment's ExpTime
lower bound: a sentence of O(n^2) atoms forces 2^n elements.

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

Print one with

    python tests/families.py counter|zcounter N sat|unsat
"""

import argparse


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


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description="Print a family's sentence.")
    ap.add_argument("family", choices=sorted(FAMILIES))
    ap.add_argument("n", type=int)
    ap.add_argument("version", choices=("sat", "unsat"))
    args = ap.parse_args()
    print(FAMILIES[args.family](args.n, args.version == "unsat"))
