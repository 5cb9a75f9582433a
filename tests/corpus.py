"""Seeded random sentence generator for cross-method and oracle testing.

Desk-scale instances: at most two relation symbols (arities 1 and 2), at
most two trailing existentials, at most six atoms in the matrix.  The
`ARITY3` shapes draw atoms from a ternary T, alone or beside R/2: there
the oracle stops at size 2, so they serve checks that need no oracle.
"""

import random

from eae_sat.syntax import Bin, Eq, Not, Rel, validate_prefix

SEED = 20240824

_SIG_CHOICES = [
    [],
    [("P", 1)],
    [("R", 2)],
    [("P", 1), ("R", 2)],
]

ARITY3 = [
    [("T", 3)],
    [("R", 2), ("T", 3)],
]


def random_matrix(rng, leaves):
    nodes = [Not(leaf) if rng.random() < 0.35 else leaf for leaf in leaves]
    while len(nodes) > 1:
        a = nodes.pop(rng.randrange(len(nodes)))
        b = nodes.pop(rng.randrange(len(nodes))) if len(nodes) else None
        if b is None:
            nodes.append(a)
            break
        op = rng.choice(["&", "&", "|", "->", "<->"])
        nodes.append(Bin(op, a, b))
    root = nodes[0]
    if rng.random() < 0.2:
        root = Not(root)
    return root


def random_sentence(rng, shapes=_SIG_CHOICES):
    n = rng.randint(0, 2)
    explicit_z = rng.random() < 0.7
    ys = ["y1", "y2"][:n]
    atom_vars = (["z"] if explicit_z else []) + ["x"] + ys
    rels = rng.choice(shapes)

    natoms = rng.randint(1, 6)
    leaves = []
    for _ in range(natoms):
        if rels and rng.random() < 0.8:
            name, arity = rng.choice(rels)
            args = tuple(rng.choice(atom_vars) for _ in range(arity))
            leaves.append(Rel(name, args))
        else:
            u = rng.choice(atom_vars)
            v = rng.choice(atom_vars)
            leaves.append(Eq(u, v))

    matrix = random_matrix(rng, leaves)
    blocks = []
    if explicit_z:
        blocks.append(("exists", ["z"]))
    blocks.append(("forall", ["x"]))
    for y in ys:
        blocks.append(("exists", [y]))
    return validate_prefix(blocks, matrix)


def corpus(size=200, seed=SEED, shapes=_SIG_CHOICES):
    rng = random.Random(seed)
    return [random_sentence(rng, shapes) for _ in range(size)]
