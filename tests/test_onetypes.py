import pytest

from eae_sat.onetypes import (
    ArityCapExceeded,
    OneType,
    check_arity_cap,
    enumerate_extended_types,
    enumerate_one_types,
    initial_extended_type,
    one_type_from_symbols,
    render_one_type,
    render_extended_type,
    type_of_element,
)
from eae_sat.structures import FiniteStructure
from eae_sat.syntax import Signature

SIG_EMPTY = Signature(())
SIG_P = Signature((("P", 1),))
SIG_PR = Signature((("P", 1), ("R", 2)))
SIG_R = Signature((("R", 2),))


def test_enumerate_empty_signature():
    assert enumerate_one_types(SIG_EMPTY) == (OneType(()),)


def test_enumerate_single_relation():
    assert enumerate_one_types(SIG_P) == (OneType((False,)), OneType((True,)))


def test_enumerate_order_first_symbol_lsb():
    ts = enumerate_one_types(SIG_PR)
    assert [t.bits for t in ts] == [
        (False, False), (True, False), (False, True), (True, True)]
    assert [t.index() for t in ts] == [0, 1, 2, 3]


def test_enumeration_counts():
    for sig in (SIG_EMPTY, SIG_P, SIG_R, SIG_PR):
        ts = enumerate_one_types(sig)
        assert len(ts) == 2 ** len(sig)
        assert len(set(ts)) == len(ts)


def test_type_of_element_diagonal():
    st = FiniteStructure(signature=SIG_R, size=2,
                         extents={"R": frozenset({(0, 0)})})
    assert type_of_element(st, 0) == OneType((True,))
    assert type_of_element(st, 1) == OneType((False,))


def test_type_of_element_empty_extents():
    st = FiniteStructure(signature=SIG_PR, size=1,
                         extents={"P": frozenset(), "R": frozenset()})
    assert type_of_element(st, 0) == OneType((False, False))


def test_type_of_element_unary():
    st = FiniteStructure(signature=SIG_P, size=2,
                         extents={"P": frozenset({(1,)})})
    assert type_of_element(st, 0) == OneType((False,))
    assert type_of_element(st, 1) == OneType((True,))


def test_type_isomorphism_invariance():
    # relabeling elements permutes realized types accordingly
    st = FiniteStructure(signature=SIG_R, size=2,
                         extents={"R": frozenset({(0, 0), (0, 1)})})
    relabeled = FiniteStructure(signature=SIG_R, size=2,
                                extents={"R": frozenset({(1, 1), (1, 0)})})
    assert type_of_element(st, 0) == type_of_element(relabeled, 1)
    assert type_of_element(st, 1) == type_of_element(relabeled, 0)


def test_initial_extended_type():
    lo = initial_extended_type(SIG_R, OneType((False,)))
    assert lo.patterns == ((False, False, False, False),)
    hi = initial_extended_type(SIG_R, OneType((True,)))
    assert hi.patterns == ((True, True, True, True),)
    assert initial_extended_type(SIG_EMPTY, OneType(())).patterns == ()


def test_extended_projections():
    for pi0 in enumerate_one_types(SIG_PR):
        for e in enumerate_extended_types(SIG_PR, pi0):
            assert OneType(tuple(p[0] for p in e.patterns)) == pi0
            assert e.own_type().bits == tuple(p[-1] for p in e.patterns)


def test_extended_enumeration_counts():
    # free bits: all pattern bits except the all-z ones
    pi0 = OneType((False,))
    assert len(enumerate_extended_types(SIG_P, pi0)) == 2
    assert len(enumerate_extended_types(SIG_R, pi0)) == 8


def test_arity_cap():
    sig = Signature((("T", 4),))
    with pytest.raises(ArityCapExceeded):
        check_arity_cap(sig, cap=3)
    check_arity_cap(sig, cap=4)


def test_rendering_roundtrip():
    for t in enumerate_one_types(SIG_PR):
        text = render_one_type(t, SIG_PR)
        assert text.startswith("{") and text.endswith("}")
        symbols = [s.strip() for s in text[1:-1].split(",")]
        assert one_type_from_symbols(symbols, SIG_PR) == t
    assert render_one_type(OneType(()), SIG_EMPTY) == "{}"


def test_render_extended():
    pi0 = OneType((False,))
    e = enumerate_extended_types(SIG_R, pi0)[0]
    text = render_extended_type(e, SIG_R)
    assert "R[zz]=0" in text and "R[xx]=0" in text


def test_from_symbols_errors():
    with pytest.raises(ValueError):
        one_type_from_symbols(["+Q"], SIG_P)
    with pytest.raises(ValueError):
        one_type_from_symbols([], SIG_P)
    with pytest.raises(ValueError):
        one_type_from_symbols(["P"], SIG_P)
