"""Front end for the one-leading-existential Ackermann fragment.

Sentences have the shape

    [exists z.] forall x. exists y1 ... . MATRIX

where MATRIX is a quantifier-free boolean combination of relation atoms
and (in)equalities over the prefix variables.  The grammar is:

    sentence := [ "exists" var "." ] "forall" var "." { "exists" var+ "." } formula
    formula  := iff
    iff      := imp { "<->" imp }
    imp      := disj { "->" disj }
    disj     := conj { "|" conj }
    conj     := lit { "&" lit }
    lit      := "~" lit | "(" formula ")" | atom
    atom     := RELNAME "(" var { "," var } ")" | var ("="|"!=") var

Relation names start with an uppercase letter, variables with a lowercase
letter.  `u != v` is sugar for `~(u = v)`.  `#` starts a line comment.
A missing leading existential is repaired by synthesizing a fresh unused
variable (satisfiability is unaffected).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property


class ParseError(Exception):
    """Lexical, grammatical or well-formedness error in an input sentence."""

    def __init__(self, message, position=None):
        self.position = position
        if position is not None:
            message = f"{message} (at offset {position})"
        super().__init__(message)


class FragmentError(Exception):
    """The quantifier prefix does not match exists^{0|1} forall exists*."""


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Rel:
    name: str
    args: tuple[str, ...]


@dataclass(frozen=True)
class Eq:
    left: str
    right: str


@dataclass(frozen=True)
class Not:
    sub: object


@dataclass(frozen=True)
class And:
    left: object
    right: object


@dataclass(frozen=True)
class Or:
    left: object
    right: object


@dataclass(frozen=True)
class Imp:
    left: object
    right: object


@dataclass(frozen=True)
class Iff:
    left: object
    right: object


# binary operators, loosest first; each level chains to the left
_LEVELS = (("<->", Iff), ("->", Imp), ("|", Or), ("&", And))
_BINOPS = {cls: op for op, cls in _LEVELS}


@dataclass(frozen=True)
class Signature:
    """Relation symbols with arities, ordered lexicographically by name."""

    relations: tuple[tuple[str, int], ...]

    def __post_init__(self):
        names = [n for n, _ in self.relations]
        if names != sorted(names):
            raise ValueError("signature relations must be sorted by name")
        if len(set(names)) != len(names):
            raise ValueError("duplicate relation name in signature")
        for n, a in self.relations:
            if a < 1:
                raise ValueError(f"relation {n} has arity {a} < 1")

    def __len__(self):
        return len(self.relations)

    def __iter__(self):
        return iter(self.relations)

    def index(self, name):
        """Position of a relation symbol; KeyError if it is not in the signature."""
        return self._positions[name]

    @cached_property
    def _positions(self):
        # not a field, so ==, hash and repr see only `relations`
        return {n: i for i, (n, _) in enumerate(self.relations)}


@dataclass(frozen=True)
class PrenexSentence:
    z: str
    x: str
    ys: tuple[str, ...]
    matrix: object
    signature: Signature
    z_synthesized: bool = field(default=False, compare=False)

    @property
    def prefix_vars(self):
        return (self.z, self.x) + self.ys


# ---------------------------------------------------------------------------
# AST utilities
# ---------------------------------------------------------------------------

def _leaves(matrix):
    """Relation and equality atoms of a matrix, left to right, with repeats."""
    out = []
    stack = [matrix]
    while stack:
        node = stack.pop()
        if isinstance(node, (Rel, Eq)):
            out.append(node)
        elif isinstance(node, Not):
            stack.append(node.sub)
        else:
            stack += (node.right, node.left)
    return out


def atoms_of(matrix):
    """All distinct relation atoms of a matrix, in first-occurrence order."""
    return tuple(dict.fromkeys(a for a in _leaves(matrix) if isinstance(a, Rel)))


def atom_keys(sentence, partition):
    """The matrix's relation atoms under a partition of the prefix
    variables, as sorted (relation, class tuple) keys; bit j of a witness
    valuation is the value of key j."""
    env = dict(zip(sentence.prefix_vars, partition))
    return sorted({(a.name, tuple(map(env.__getitem__, a.args)))
                   for a in atoms_of(sentence.matrix)})


def equalities_of(matrix):
    """All distinct equality atoms of a matrix, in first-occurrence order."""
    return tuple(dict.fromkeys(e for e in _leaves(matrix) if isinstance(e, Eq)))


def matrix_variables(matrix):
    out = set()
    for leaf in _leaves(matrix):
        out.update(leaf.args if isinstance(leaf, Rel) else (leaf.left, leaf.right))
    return out


def extract_signature(matrix):
    """The relation symbols of a matrix with their arities (equality excluded).

    Raises ParseError if a symbol is used with two different arities.
    """
    arities = {}
    for a in atoms_of(matrix):
        prev = arities.setdefault(a.name, len(a.args))
        if prev != len(a.args):
            raise ParseError(
                f"arity conflict for {a.name}: used with arities {prev} "
                f"and {len(a.args)}")
    return Signature(tuple(sorted(arities.items())))


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

# Each match skips whitespace and comments, then takes one token, the
# end of the text, or a character no token starts with.  Every position
# matches, so `finditer` leaves no gap.
_TOKEN_RE = re.compile(
    r"""
    (?:\s|\#[^\n]*)*
    (?:
        (?P<tok>[A-Za-z][A-Za-z0-9_]*|<->|->|!=|[=~&|(),.])
      | (?P<end>\Z)
      | (?P<bad>\S)
    )
    """,
    re.VERBOSE,
)


def _tokenize(text):
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "tok":
            tokens.append((m.group(kind), m.start(kind)))
        elif kind == "end":
            tokens.append((None, len(text)))  # end marker
            return tokens
        else:
            pos = m.start(kind)
            raise ParseError(f"unexpected character {text[pos]!r}", pos)


class _Parser:
    def __init__(self, text):
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i][0]

    def pos(self):
        return self.tokens[self.i][1]

    def next(self):
        tok, pos = self.tokens[self.i]
        self.i += 1
        return tok, pos

    def expect(self, literal):
        tok, pos = self.next()
        if tok != literal:
            raise ParseError(f"expected {literal!r}, found {tok!r}", pos)
        return tok

    def variable(self):
        tok, pos = self.next()
        if tok is None or not tok[0].islower():
            raise ParseError(f"expected a variable, found {tok!r}", pos)
        if tok in ("exists", "forall"):
            raise ParseError(f"keyword {tok!r} cannot be used as a variable", pos)
        return tok

    # -- prefix -----------------------------------------------------------

    def prefix(self):
        """Raw quantifier blocks as a list of ('exists'|'forall', [vars])."""
        blocks = []
        while self.peek() in ("exists", "forall"):
            kind, _ = self.next()
            vs = [self.variable()]
            while self.peek() is not None and self.peek()[0].islower() \
                    and self.peek() not in ("exists", "forall"):
                vs.append(self.variable())
            self.expect(".")
            blocks.append((kind, vs))
        if not blocks:
            raise ParseError("expected a quantifier prefix", self.pos())
        return blocks

    # -- formula ----------------------------------------------------------

    def formula(self, level=0):
        """A chain of `_LEVELS[level]` operators.  The last level calls
        `lit` itself: a parenthesis costs one frame per level, plus one."""
        op, cls = _LEVELS[level]
        last = level == len(_LEVELS) - 1
        node = self.lit() if last else self.formula(level + 1)
        while self.peek() == op:
            self.next()
            node = cls(node, self.lit() if last else self.formula(level + 1))
        return node

    def lit(self):
        tok = self.peek()
        if tok == "~":
            self.next()
            return Not(self.lit())
        if tok == "(":
            self.next()
            node = self.formula()
            self.expect(")")
            return node
        return self.atom()

    def atom(self):
        tok, pos = self.next()
        if tok is None:
            raise ParseError("unexpected end of input", pos)
        if tok[0].isupper():
            if self.peek() != "(":
                raise ParseError(
                    f"relation {tok} used without arguments "
                    "(nullary relations are not allowed)", pos)
            self.next()
            args = [self.variable()]
            while self.peek() == ",":
                self.next()
                args.append(self.variable())
            self.expect(")")
            return Rel(tok, tuple(args))
        if not tok[0].islower() or tok in ("exists", "forall"):
            raise ParseError(f"expected an atom, found {tok!r}", pos)
        op, oppos = self.next()
        if op == "=":
            return Eq(tok, self.variable())
        if op == "!=":
            return Not(Eq(tok, self.variable()))
        raise ParseError(f"expected '=' or '!=', found {op!r}", oppos)


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def _fresh_z(used):
    if "z" not in used:
        return "z"
    i = 0
    while f"z{i}" in used:
        i += 1
    return f"z{i}"


def validate_prefix(blocks, matrix):
    """Check the prefix shape exists^{0|1} forall exists* and build a sentence.

    `blocks` is the raw quantifier-block list produced by the parser.  A
    missing leading existential gets a fresh variable synthesized for it.
    """
    quants = [(kind, v) for kind, vs in blocks for v in vs]
    universals = [i for i, (kind, _) in enumerate(quants) if kind == "forall"]
    if len(universals) == 0:
        raise FragmentError("prefix contains no universal quantifier")
    if len(universals) > 1:
        raise FragmentError("prefix contains more than one universal quantifier")
    u = universals[0]
    if u > 1:
        raise FragmentError(
            "at most one existential may precede the universal quantifier "
            f"(found {u})")

    leading = [v for _, v in quants[:u]]
    x = quants[u][1]
    ys = [v for _, v in quants[u + 1:]]

    allvars = leading + [x] + ys
    if len(set(allvars)) != len(allvars):
        dup = next(v for v in allvars if allvars.count(v) > 1)
        raise ParseError(f"duplicate prefix variable {dup!r}")

    if leading:
        z = leading[0]
        synthesized = False
    else:
        z = _fresh_z(set(allvars) | matrix_variables(matrix))
        synthesized = True

    free = matrix_variables(matrix) - set(allvars) - {z}
    if free:
        raise ParseError(f"unbound variable(s) in matrix: {', '.join(sorted(free))}")

    return PrenexSentence(z=z, x=x, ys=tuple(ys), matrix=matrix,
                          signature=extract_signature(matrix),
                          z_synthesized=synthesized)


def parse(text):
    """Parse a sentence of the fragment; raises ParseError/FragmentError."""
    p = _Parser(text)
    blocks = p.prefix()
    matrix = p.formula()
    tok, pos = p.next()
    if tok is not None:
        raise ParseError(f"trailing input starting with {tok!r}", pos)
    return validate_prefix(blocks, matrix)


# ---------------------------------------------------------------------------
# Canonical printing
# ---------------------------------------------------------------------------

def format_matrix(node):
    """Fully parenthesized canonical rendering of a matrix."""
    if isinstance(node, Rel):
        return f"{node.name}({', '.join(node.args)})"
    if isinstance(node, Eq):
        return f"{node.left} = {node.right}"
    if isinstance(node, Not):
        return f"(~{format_matrix(node.sub)})"
    op = _BINOPS[type(node)]
    return f"({format_matrix(node.left)} {op} {format_matrix(node.right)})"


def format_sentence(s):
    """Canonical print; parse(format_sentence(s)) == s for every sentence."""
    body = format_matrix(s.matrix)
    if isinstance(s.matrix, (Rel, Eq)):
        body = f"({body})"
    parts = [f"exists {s.z}.", f"forall {s.x}."]
    parts += [f"exists {y}." for y in s.ys]
    return " ".join(parts) + " " + body


# ---------------------------------------------------------------------------
# Matrix semantics over a table of atom valuations
# ---------------------------------------------------------------------------

def eval_matrix(node, ext, env, full=1):
    """Bitwise evaluation of a matrix on a table of valuations at once.

    Bit i of a value says whether it holds on valuation i, and `full`
    has one bit per valuation.  `env[var]` is an element, and
    `ext[name][element tuple]` the valuations on which that tuple holds;
    u = v holds on every valuation if env[u] == env[v], else on none.
    The result is the set of valuations that satisfy the matrix.  With
    the default `full=1` a table holds one valuation, and an extent may
    map a tuple to a bool.
    """
    if isinstance(node, Rel):
        return ext[node.name][tuple(map(env.__getitem__, node.args))]
    if isinstance(node, Eq):
        return full if env[node.left] == env[node.right] else 0
    if isinstance(node, Not):
        return full ^ eval_matrix(node.sub, ext, env, full)
    a = eval_matrix(node.left, ext, env, full)
    if isinstance(node, And):
        return a and a & eval_matrix(node.right, ext, env, full)
    if isinstance(node, Or):
        if a == full:
            return a
        return a | eval_matrix(node.right, ext, env, full)
    if isinstance(node, Imp):
        if not a:
            return full
        return (full ^ a) | eval_matrix(node.right, ext, env, full)
    if isinstance(node, Iff):
        return a ^ eval_matrix(node.right, ext, env, full) ^ full
    raise TypeError(f"not a matrix node: {node!r}")


def load_sentence(path):
    """Read and parse the sentence in a UTF-8 text file, with or without
    a byte order mark."""
    with open(path, encoding="utf-8-sig") as fh:
        return parse(fh.read())
