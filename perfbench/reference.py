"""Independent reference checker: exhaustive model search on the generator's AST.

It shares no code with the program.  A sentence exists z. forall x.
exists ys. M is true in a structure iff some z works; since every
structure is enumerated, z can be pinned to element 0 (any model with z
at element a is isomorphic to one with z at element 0).
"""

from itertools import product

_PY_OPS = {"and": "({} and {})", "or": "({} or {})",
           "imp": "((not {}) or {})", "iff": "({} == {})"}


def relations(matrix):
    """Relation name -> arity, for every relation atom of the matrix."""
    out = {}
    stack = [matrix]
    while stack:
        node = stack.pop()
        if node[0] == "rel":
            out[node[1]] = len(node[2])
        elif node[0] == "not":
            stack.append(node[1])
        elif node[0] != "eq":
            stack.extend(node[1:])
    return out


def _expr(node):
    tag = node[0]
    if tag == "rel":
        return f"(({', '.join(node[2])},) in r_{node[1]})"
    if tag == "eq":
        return f"({node[1]} == {node[2]})"
    if tag == "not":
        return f"(not {_expr(node[1])})"
    return _PY_OPS[tag].format(_expr(node[1]), _expr(node[2]))


def compile_sentence(s, names):
    """The matrix as a function of (relation extents in `names` order, x, ys)."""
    params = [f"r_{n}" for n in names] + ["x", *s["ys"]]
    body = _expr(s["matrix"])
    return eval(f"lambda {', '.join(params)}: {body}", {"z": 0})


def smallest_model(s, bound):
    """Size of the first model found with at most `bound` elements, or None."""
    rels = relations(s["matrix"])
    names = sorted(rels)
    fn = compile_sentence(s, names)
    for n in range(1, bound + 1):
        dom = range(n)
        y_tuples = list(product(dom, repeat=len(s["ys"])))
        # every possible extent of each relation, as a set of tuples
        choices = []
        for name in names:
            tuples = list(product(dom, repeat=rels[name]))
            choices.append([
                {t for j, t in enumerate(tuples) if bits >> j & 1}
                for bits in range(1 << len(tuples))])
        for exts in product(*choices):
            if all(any(fn(*exts, x, *ys) for ys in y_tuples) for x in dom):
                return n
    return None
