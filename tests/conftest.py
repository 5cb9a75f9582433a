import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))  # for the corpus helper

from eae_sat.syntax import parse
from eae_sat.witness import CheckFrames, SearchPlan, check_descriptor, find_witness

FIXTURE_DIR = os.path.join(os.path.dirname(__file__), "fixtures")

S1 = "exists z. forall x. exists y. (x = y)"
S2 = "exists z. forall x. exists y. (P(x) & ~P(z))"
S3 = "exists z. forall x. exists y. (E(x,y) & ~E(x,x))"
S4 = "exists z. forall x. exists y. (~R(z,x) & R(z,y))"
S5 = "exists z. forall x. exists y. ((P(x) -> ~P(y)) & (~P(x) -> P(y)))"


@pytest.fixture(scope="session")
def s1():
    return parse(S1)


@pytest.fixture(scope="session")
def s2():
    return parse(S2)


@pytest.fixture(scope="session")
def s3():
    return parse(S3)


@pytest.fixture(scope="session")
def s4():
    return parse(S4)


@pytest.fixture(scope="session")
def s5():
    return parse(S5)


def fixture_path(name):
    return os.path.join(FIXTURE_DIR, name)


# A witness-search context is a (sentence, root, state, allowed, is_root)
# tuple: is_root marks the root's own obligation.

def search(ctx, plan=None):
    """find_witness on a context, through `plan` or a fresh SearchPlan."""
    sentence, *key = ctx
    return find_witness(plan or SearchPlan(sentence), *key)


def check(d, ctx):
    """check_descriptor on a context, with fresh CheckFrames."""
    sentence, *key = ctx
    return check_descriptor(d, CheckFrames(sentence), *key)
