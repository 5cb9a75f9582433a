"""Seeded sentence generator with its own AST and printer.

The benchmark owns this code so that its inputs stay fixed when the
program's own corpus helper or canonical printer changes.  A matrix is a
nested tuple:

    ("rel", name, (var, ...))   ("eq", u, v)   ("not", sub)
    ("and" | "or" | "imp" | "iff", left, right)

A sentence is a dict with keys ``z`` (the leading existential variable,
or None when the prefix omits it), ``ys`` (trailing existentials) and
``matrix``.  Variables are always named z, x, y1, y2, ...
"""

import random

_OPS = {"and": "&", "or": "|", "imp": "->", "iff": "<->"}


def random_matrix(rng, leaves):
    nodes = [("not", leaf) if rng.random() < 0.35 else leaf for leaf in leaves]
    while len(nodes) > 1:
        a = nodes.pop(rng.randrange(len(nodes)))
        b = nodes.pop(rng.randrange(len(nodes)))
        op = rng.choice(("and", "and", "or", "imp", "iff"))
        nodes.append((op, a, b))
    root = nodes[0]
    if rng.random() < 0.2:
        root = ("not", root)
    return root


def random_sentence(rng, shape):
    """One sentence drawn from a workload shape (see workloads.py)."""
    lo, hi = shape["ys"]
    ys = tuple(f"y{i + 1}" for i in range(rng.randint(lo, hi)))
    explicit_z = rng.random() < shape["explicit_z"]
    atom_vars = (("z",) if explicit_z else ()) + ("x",) + ys
    rels = rng.choice(shape["signatures"])
    leaves = []
    if shape.get("every_relation"):
        for name, arity in rels:
            leaves.append(("rel", name,
                           tuple(rng.choice(atom_vars) for _ in range(arity))))
    for _ in range(rng.randint(*shape["atoms"]) - len(leaves)):
        if rels and rng.random() < 0.8:
            name, arity = rng.choice(rels)
            leaves.append(("rel", name,
                           tuple(rng.choice(atom_vars) for _ in range(arity))))
        else:
            leaves.append(("eq", rng.choice(atom_vars), rng.choice(atom_vars)))
    return {"z": "z" if explicit_z else None, "ys": ys,
            "matrix": random_matrix(rng, leaves)}


def rng_for(stream, seed):
    """The random stream of one workload (`stream`) for one seed."""
    return random.Random(f"{stream}:{seed}")


def format_matrix(node):
    tag = node[0]
    if tag == "rel":
        return f"{node[1]}({', '.join(node[2])})"
    if tag == "eq":
        return f"{node[1]} = {node[2]}"
    if tag == "not":
        return f"~({format_matrix(node[1])})"
    return f"({format_matrix(node[1])} {_OPS[tag]} {format_matrix(node[2])})"


def format_sentence(s):
    prefix = f"exists {s['z']}. " if s["z"] else ""
    prefix += "forall x. "
    if s["ys"]:
        prefix += "exists " + " ".join(s["ys"]) + ". "
    return prefix + "(" + format_matrix(s["matrix"]) + ")\n"
