"""Deterministic satisfiability solvers for the fragment.

All three methods run one engine, `_eliminate`: starting from a finite
set of states, repeatedly discard every state that has no witness whose
realized states all survive, until nothing changes.  z is also a value
of x, so z's own state, the root, needs a witness that merges z and x;
every other element, one of the root's state among them, one that keeps
them apart.  Each round searches the root first, and a root with no
witness rejects the candidate at once.  One loop, `_decide`, tries each
starting type pi0 in canonical order and stops at the first one
accepted, whose root keeps a witness once nothing more is discarded.
The methods differ only in their states:

* ``gfp_solve`` — 1-types.
* ``bounded_game_solve`` — the counter-bounded reading of the same
  fixpoint: Acc(pi, c) with the game won outright at counter
  2^{|sigma|} + 1.  Since the lattice of type sets is shorter than that
  bound, Acc(., 0) is exactly the gfp survivor set.
* ``extended_solve`` — z-relative extended types, a strictly more
  conservative state space that also tracks the current element's
  relations to the fixed z-element.  The plain survivors for the same
  pi0 bound its states (see ``extended_solve``).

SAT results from gfp and extended carry a positional-strategy
certificate, the root's witness and one per surviving type, that an
independent checker can validate; UNSAT results carry per-candidate
elimination traces.  Each round of a trace lists states with no witness
among the states alive before it; the trace ends where the root had no
witness among the states then alive, its `surviving`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import cached_property

from .onetypes import (
    DEFAULT_ARITY_CAP,
    check_arity_cap,
    enumerate_extended_types,
    enumerate_one_types,
    initial_extended_type,
    render_one_type,
)
from .witness import CheckFrames, SearchPlan, check_descriptor, find_witness

class InternalInvariantError(Exception):
    """A solver-produced artifact failed its own self-check."""


@dataclass(frozen=True)
class Certificate:
    """Positional strategy: z's own witness descriptor (x = z), and one
    descriptor per surviving 1-type (x apart from z)."""

    pi0: object
    root: object  # WitnessDescriptor
    strategy: tuple  # ((OneType, WitnessDescriptor), ...) in canonical type order

    @property
    def good_types(self):
        return frozenset(t for t, _ in self.strategy)


@dataclass
class EliminationTrace:
    """Per starting candidate: which states died in which round."""

    pi0: object
    rounds: list  # [(round index starting at 1, [states eliminated]), ...]
    surviving: list
    root_witness: bool  # among `surviving`; the candidate's acceptance


@dataclass
class SolveStats:
    witness_searches: int = 0
    cache_hits: int = 0
    elapsed_ms: float = 0.0
    types_total: int = 0


@dataclass
class SolveOutcome:
    verdict: str  # "SAT" | "UNSAT"
    method: str  # "gfp" | "game" | "extended"
    pi0: object = None
    certificate: Certificate | None = None
    refutation: list | None = None  # one EliminationTrace per candidate
    stats: SolveStats = field(default_factory=SolveStats)


class Memo:
    """Witness searches memoized by (root, state, allowed-set, is_root).

    The root is z's own state: pi0 among 1-types, the initial extended
    type among extended types.  The search follows the state's kind.
    Every search runs through one SearchPlan, built at the first search,
    which lives as long as the memo.  Solves of one sentence may share a
    memo, and it counts each search once: a key already in its table is
    a hit, any other key a search, so a key one solve searched is a hit
    for the next.  They share its 1-types too, so a key built by one
    solve holds the very objects another solve looks it up with.
    """

    def __init__(self, sentence):
        self.sentence = sentence
        self.one_types = enumerate_one_types(sentence.signature)
        self.table = {}  # key -> descriptor or None
        self.searches = 0
        self.hits = 0

    @cached_property
    def plan(self):
        return SearchPlan(self.sentence)

    def find(self, root, state, allowed, is_root=False):
        key = (root, state, allowed, is_root)
        if key in self.table:
            self.hits += 1
            return self.table[key]
        self.searches += 1
        self.table[key] = find_witness(self.plan, root, state, allowed, is_root)
        return self.table[key]


# ---------------------------------------------------------------------------
# The elimination engine and the candidate loop
# ---------------------------------------------------------------------------

def _eliminate(pi0, states, root, memo):
    """Discard states lacking a witness among the survivors, until stable.

    Each round first asks for the root's own witness, x = z.  Survivors
    only shrink, so once the root has none it never has one again, and
    the candidate is rejected there.  Otherwise every state, one equal
    to the root among them, needs a witness with x apart from z.
    """
    good = list(states)
    rounds = []
    while True:
        allowed = frozenset(good)
        if memo.find(root, root, allowed, True) is None:
            return EliminationTrace(pi0, rounds, good, root_witness=False)
        removed = [s for s in good if memo.find(root, s, allowed) is None]
        if not removed:
            return EliminationTrace(pi0, rounds, good, root_witness=True)
        rounds.append((len(rounds) + 1, removed))
        dead = set(removed)
        good = [s for s in good if s not in dead]


def _decide(method, memo):
    """Try each starting type pi0 in canonical order; stop at the first accepted.

    A candidate runs the plain elimination, then for `extended`, if that
    accepts pi0, the extended one (see `extended_solve`).  pi0 is
    accepted iff the last elimination does, even with no survivors, and
    its certificate, except under `game`, is the root's witness and the
    positional strategy over the plain survivors.
    """
    t0 = time.perf_counter()
    searches, hits = memo.searches, memo.hits
    sig = memo.sentence.signature
    stats = SolveStats(types_total=len(memo.one_types))
    traces = []
    for pi0 in memo.one_types:
        trace = _eliminate(pi0, memo.one_types, pi0, memo)
        good = trace.surviving
        if trace.root_witness and method == "extended":
            own = set(good)
            states = [s for s in enumerate_extended_types(sig, pi0)
                      if s.own_type() in own]
            trace = _eliminate(pi0, states, initial_extended_type(sig, pi0),
                               memo)
        traces.append(trace)
        if trace.root_witness:
            cert = None
            if method != "game":
                allowed = frozenset(good)
                cert = Certificate(
                    pi0=pi0, root=memo.find(pi0, pi0, allowed, True),
                    strategy=tuple((pi, memo.find(pi0, pi, allowed))
                                   for pi in good))
            outcome = SolveOutcome(verdict="SAT", method=method, pi0=pi0,
                                   certificate=cert, stats=stats)
            break
    else:
        outcome = SolveOutcome(verdict="UNSAT", method=method,
                               refutation=traces, stats=stats)
    stats.witness_searches = memo.searches - searches
    stats.cache_hits = memo.hits - hits
    stats.elapsed_ms = (time.perf_counter() - t0) * 1000.0
    return outcome


# ---------------------------------------------------------------------------
# The three methods
# ---------------------------------------------------------------------------

def gfp_solve(sentence, memo=None):
    """Decide satisfiability by type elimination; the reference method.

    `memo`, here and in the other methods, is a `Memo` of the same
    sentence that earlier solves may have filled.
    """
    return _decide("gfp", memo or Memo(sentence))


def bounded_game_solve(sentence, memo=None):
    """Decide satisfiability by the counter-bounded game.

    Acc(pi, D) accepts outright at depth D = 2^{|sigma|}+1; below it,
    Acc(pi, c) holds iff some witness for (pi0, pi) has all its realized
    types accepted at counter c+1.  Each level applies one monotone
    operator to the level above, starting from the top element, and the
    lattice of type sets has height 2^{|sigma|} < D.  So the levels
    reach that operator's fixpoint before counter 0, and Acc(., 0) is
    exactly the set left by elimination run until nothing changes: the
    game is decided by that elimination, at any depth.
    """
    return _decide("game", memo or Memo(sentence))


def extended_solve(sentence, arity_cap=DEFAULT_ARITY_CAP, memo=None):
    """Type elimination over z-relative extended states, bounded by the
    plain elimination.

    Map each class state of an extended witness to its own type: the
    result is a plain witness of the same obligation, for the state's
    own type among the own types of the survivors (diagonal keys read
    the all-current-element pattern or the root's pi0 bits).  No
    non-root state merges z and x, so the own types of the extended
    survivors form a plain post-fixpoint, which lies inside the plain
    survivors for the same pi0, and a root witness projects onto a plain
    root witness among them.  Each candidate therefore runs the plain
    elimination first.  If it rejects pi0, so does the extended one, and the
    candidate's refutation entry is that plain trace.  Otherwise the
    extended elimination starts from the extended states whose own type
    survived, and reaches the same survivors and root verdict as it
    would from all of them.  `witness_searches` counts both kinds of
    search.

    SAT results carry the plain certificate over the plain survivors
    just computed for the same starting type.  `arity_cap` is checked
    once, before any search.
    """
    check_arity_cap(sentence.signature, arity_cap)
    return _decide("extended", memo or Memo(sentence))


# ---------------------------------------------------------------------------
# Certificate checking and dispatch
# ---------------------------------------------------------------------------

def check_certificate(sentence, cert):
    """Validate a certificate independently of how it was produced.

    Re-runs the descriptor checker on the root's witness and on each
    strategy entry, with the strategy's own key set as the allowed types
    (which includes closure: every type realized outside z's class must
    be a key).  The descriptors share one CheckFrames, so each
    partition's keys and forced bits are settled once.  Returns the full
    violation list; empty means the certificate is sound.
    """
    keys = cert.good_types
    frames = CheckFrames(sentence)
    violations = [
        f"root: {v}" for v in check_descriptor(
            cert.root, frames, cert.pi0, cert.pi0, keys, True)]
    for pi, d in cert.strategy:
        for v in check_descriptor(d, frames, cert.pi0, pi, keys):
            violations.append(
                f"entry {render_one_type(pi, sentence.signature)}: {v}")
    return violations


METHODS = ("gfp", "game", "extended")


def solve(sentence, method="gfp", arity_cap=DEFAULT_ARITY_CAP, memo=None):
    """Dispatch to a method (default gfp); only `extended` reads `arity_cap`."""
    if method == "gfp":
        return gfp_solve(sentence, memo)
    if method == "game":
        return bounded_game_solve(sentence, memo)
    if method == "extended":
        return extended_solve(sentence, arity_cap, memo)
    raise ValueError(f"unknown method {method!r}")
