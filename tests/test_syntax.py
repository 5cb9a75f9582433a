import re

import pytest

from eae_sat.syntax import (
    And,
    Eq,
    FragmentError,
    Iff,
    Imp,
    Not,
    Or,
    ParseError,
    Rel,
    Signature,
    atoms_of,
    eval_matrix,
    extract_signature,
    format_matrix,
    format_sentence,
    parse,
    _tokenize,
)

import corpus


def test_parse_smallest_sentence(s1):
    assert s1.z == "z"
    assert s1.x == "x"
    assert s1.ys == ("y",)
    assert s1.matrix == Eq("x", "y")
    assert len(s1.signature) == 0
    assert not s1.z_synthesized


def test_arity_conflict():
    with pytest.raises(ParseError, match="arity conflict for P"):
        parse("forall x. exists y. (P(x) & P(x,y))")


def test_missing_leading_existential_synthesized():
    s = parse("forall x. exists y. (E(x,y) & ~E(x,x))")
    assert s.z_synthesized
    assert s.z == "z"
    assert len(s.ys) == 1
    assert s.signature == Signature((("E", 2),))
    # the synthesized variable never collides with used names
    s2 = parse("forall x. exists z. (x = z)")
    assert s2.z_synthesized and s2.z not in ("x", "z")


def test_prefix_shapes():
    assert len(parse("exists z. forall x. exists y1. exists y2. (x = y1)").ys) == 2
    with pytest.raises(FragmentError):
        parse("forall x. forall w. (x = w)")
    with pytest.raises(FragmentError):
        parse("exists z. exists w. forall x. (x = z)")
    with pytest.raises(FragmentError):
        parse("exists z. forall x. exists y. forall w. (x = y)")
    with pytest.raises(FragmentError):
        parse("exists z. exists w. (z = w)")
    # n = 0 is allowed
    assert len(parse("exists z. forall x. (x = z | ~(x = z))").ys) == 0


def test_exists_block_sugar():
    a = parse("exists z. forall x. exists y1 y2. (x = y1 & x = y2)")
    b = parse("exists z. forall x. exists y1. exists y2. (x = y1 & x = y2)")
    assert a == b


def test_duplicate_and_unbound_variables():
    with pytest.raises(ParseError, match="duplicate prefix variable"):
        parse("exists z. forall x. exists x. (x = z)")
    with pytest.raises(ParseError, match="unbound variable"):
        parse("exists z. forall x. exists y. (x = w)")


def test_nullary_relation_rejected():
    with pytest.raises(ParseError, match="nullary"):
        parse("exists z. forall x. exists y. (P & x = y)")


def test_lexical_error_position():
    with pytest.raises(ParseError, match="offset"):
        parse("exists z. forall x. exists y. (x = y) $")


def _tokenize_stepwise(text):
    """Tokens by one anchored match per token or gap, or the ParseError's
    message and offset: the tokenizer's reference."""
    token_re = re.compile(r"(?P<ws>\s+|#[^\n]*)|(?P<tok>[A-Za-z][A-Za-z0-9_]*"
                          r"|<->|->|!=|=|~|&|\||\(|\)|,|\.)")
    tokens, pos = [], 0
    while pos < len(text):
        m = token_re.match(text, pos)
        if m is None:
            return f"unexpected character {text[pos]!r} (at offset {pos})", pos
        if m.lastgroup == "tok":
            tokens.append((m.group(), pos))
        pos = m.end()
    return tokens + [(None, pos)]


def _tokenize_or_error(text):
    try:
        return _tokenize(text)
    except ParseError as e:
        return str(e), e.position


def test_tokenizer_matches_stepwise_reference():
    edge = [
        "",
        "# only a comment",
        "# only a comment\n",
        "exists z. forall x. exists y. (x = y) # trailing, no newline",
        "exists z. forall x. exists y. (x = y)  \n\t ",
        "exists z. forall x. exists y. (x = y) $",
        "exists z. forall x. exists y. (x = y)\n#",
        "  \t\n",
        "$",
        "P(x) <-> ~Q(y) -> x != y | a_1 & B2(z, x). é",
        "x - > y < -> z ! = w",
        "#a\n#b\n\n  P(x)#c",
    ]
    texts = list(edge)
    for s in corpus.corpus(size=80):
        text = format_sentence(s)
        texts.append(text)
        texts.append("# head\n " + text.replace(" ", "\n  # gap\n\t") + " ")
    for text in texts:
        assert _tokenize_or_error(text) == _tokenize_stepwise(text), text
    # the cases above do reach every outcome
    assert _tokenize("# only a comment") == [(None, 16)]
    assert _tokenize("P(x)#c")[-1] == (None, 6)
    with pytest.raises(ParseError, match=r"'\$' \(at offset 38\)"):
        _tokenize("exists z. forall x. exists y. (x = y) $")


def test_inequality_sugar():
    s = parse("exists z. forall x. exists y. (x != y)")
    assert s.matrix == Not(Eq("x", "y"))


def test_comments_and_whitespace():
    s = parse("# leading comment\nexists z.  forall x.\n exists y. (x = y) # tail")
    assert s == parse("exists z. forall x. exists y. (x = y)")


def test_canonical_print(s1):
    assert format_sentence(s1) == "exists z. forall x. exists y. (x = y)"
    assert format_matrix(Not(And(Rel("P", ("x",)), Rel("Q", ("x",))))) \
        == "(~(P(x) & Q(x)))"


def test_precedence():
    s = parse("exists z. forall x. exists y. (P(x) & P(y) | P(z) -> P(x) <-> P(y))")
    # ~ > & > | > -> > <-> with left-folded repetition
    assert format_matrix(s.matrix) == \
        "((((P(x) & P(y)) | P(z)) -> P(x)) <-> P(y))"
    # each operator chains to the left, and binds inside the looser ones
    for text, want in (
            ("P(x) -> P(y) -> P(z)", "((P(x) -> P(y)) -> P(z))"),
            ("P(x) <-> P(y) <-> P(z)", "((P(x) <-> P(y)) <-> P(z))"),
            ("P(x) | P(y) | P(z)", "((P(x) | P(y)) | P(z))"),
            ("P(x) & P(y) & P(z)", "((P(x) & P(y)) & P(z))"),
            ("P(x) <-> P(y) -> P(z) | ~P(x) & P(y)",
             "(P(x) <-> (P(y) -> (P(z) | ((~P(x)) & P(y)))))")):
        s = parse(f"exists z. forall x. exists y. ({text})")
        assert format_matrix(s.matrix) == want, text


def test_roundtrip_fixtures(s1, s2, s3, s4, s5):
    for s in (s1, s2, s3, s4, s5):
        assert parse(format_sentence(s)) == s


def test_roundtrip_random_corpus():
    for s in corpus.corpus(size=80):
        assert parse(format_sentence(s)) == s


def test_roundtrip_synthesized_z():
    s = parse("forall x. exists y. (E(x,y) & ~E(x,x))")
    # the synthesized variable is printed explicitly and reparses equal
    assert format_sentence(s).startswith("exists z. ")
    assert parse(format_sentence(s)) == s


def test_extract_signature(s1, s2, s3):
    assert extract_signature(s1.matrix) == Signature(())
    assert extract_signature(s2.matrix) == Signature((("P", 1),))
    assert extract_signature(s3.matrix) == Signature((("E", 2),))
    s = parse("exists z. forall x. exists y. (B(x) & A(x,y))")
    assert tuple(n for n, _ in s.signature) == ("A", "B")  # lexicographic
    with pytest.raises(ParseError, match="arity conflict"):
        extract_signature(And(Rel("R", ("x",)), Rel("R", ("x", "y"))))


def test_synthesis_neutrality():
    # explicit-but-unused z and synthesized z give the same verdicts
    from eae_sat import solve
    explicit = parse("exists z. forall x. exists y. (E(x,y) & ~E(x,x))")
    implicit = parse("forall x. exists y. (E(x,y) & ~E(x,x))")
    for method in ("gfp", "game", "extended"):
        assert solve(explicit, method=method).verdict == \
            solve(implicit, method=method).verdict


def test_signature_validation():
    with pytest.raises(ValueError):
        Signature((("P", 0),))
    with pytest.raises(ValueError):
        Signature((("B", 1), ("A", 1)))
    with pytest.raises(ValueError):
        Signature((("A", 1), ("A", 2)))


def test_signature_index():
    sig = Signature((("E", 2), ("P", 1), ("R", 3)))
    fresh = Signature((("E", 2), ("P", 1), ("R", 3)))
    assert [sig.index(n) for n in ("E", "P", "R")] == [0, 1, 2]
    with pytest.raises(KeyError):
        sig.index("Q")
    # the lookup table is not part of the value
    assert sig == fresh and hash(sig) == hash(fresh) and repr(sig) == repr(fresh)


def holds(node, value, env):
    """Pointwise reference semantics over bools, without early exits."""
    if isinstance(node, Rel):
        return value[node.name, tuple(env[v] for v in node.args)]
    if isinstance(node, Eq):
        return env[node.left] == env[node.right]
    if isinstance(node, Not):
        return not holds(node.sub, value, env)
    a, b = holds(node.left, value, env), holds(node.right, value, env)
    return {And: a and b, Or: a or b, Imp: not a or b, Iff: a == b}[type(node)]


def test_eval_matrix_matches_pointwise_semantics():
    for s in corpus.corpus(size=300):
        variables = s.prefix_vars
        # all elements distinct, then all merged: equalities go both ways
        for env in ({v: i for i, v in enumerate(variables)},
                    dict.fromkeys(variables, 0)):
            keys = sorted({(a.name, tuple(env[v] for v in a.args))
                           for a in atoms_of(s.matrix)})
            rows = range(1 << len(keys))  # valuation i: key j is bit j of i
            full = (1 << len(rows)) - 1
            ext = {}
            for j, (name, tup) in enumerate(keys):
                ext.setdefault(name, {})[tup] = sum(
                    1 << i for i in rows if i >> j & 1)
            expected = 0
            for i in rows:
                value = {key: bool(i >> j & 1) for j, key in enumerate(keys)}
                truth = holds(s.matrix, value, env)
                expected |= truth << i
                # one valuation at a time, as the certificate checker does
                one = {}
                for key, v in value.items():
                    one.setdefault(key[0], {})[key[1]] = v
                assert bool(eval_matrix(s.matrix, one, env)) == truth
            assert eval_matrix(s.matrix, ext, env, full) == expected
