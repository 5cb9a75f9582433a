"""Verdicts known by construction, on the counter and game families.

The counters force models of 2^n elements and eliminations of about 2^n
rounds, past what the oracle reaches, so their verdicts are checked
against the construction in `families.py`; at n <= 2 the oracle confirms
the construction.  The safety games are checked against their greatest
fixpoint over positions, which shares nothing with the type machinery.
"""

import io

import pytest

from eae_sat.cli import main as cli_main
from eae_sat.solver import solve
from eae_sat.structures import brute_force_search
from eae_sat.syntax import load_sentence, parse

from conftest import fixture_path
from families import counter, game_winner, safety_game, zcounter

METHODS = ("gfp", "game", "extended")


def verdicts(text):
    s = parse(text)
    return {m: solve(s, method=m).verdict for m in METHODS}


@pytest.mark.parametrize("unsat", (False, True), ids=("sat", "unsat"))
@pytest.mark.parametrize("n", range(1, 7))
def test_counter_verdicts(n, unsat):
    want = "UNSAT" if unsat else "SAT"
    assert verdicts(counter(n, unsat)) == dict.fromkeys(METHODS, want)


@pytest.mark.parametrize("n", range(1, 7))
def test_sat_counter_searches(n):
    # round 1 finds z's own witness and one for each of the 2^n counts
    assert solve(parse(counter(n))).stats.witness_searches == 2 ** n + 1


# (2^n + 1)(2^n + 2)/2 + 2^n - 3, measured: every root but the zero
# count's has no witness of its own (x = z forces count zero); from
# zero, round r searches the root and the 2^n - r + 1 counts left and
# drops one, the forbidden all-ones count first, then each count whose
# successor is gone, until the root's own successor is gone too
UNSAT_COUNTER_SEARCHES = {1: 5, 2: 16, 3: 50, 4: 166, 5: 590, 6: 2206}


@pytest.mark.parametrize("n", range(1, 7))
def test_unsat_counter_searches(n):
    out = solve(parse(counter(n, True)))
    assert out.stats.witness_searches == UNSAT_COUNTER_SEARCHES[n]
    assert [len(t.rounds) for t in out.refutation] == \
        [2 ** n - 1] + [0] * (2 ** n - 1)


@pytest.mark.parametrize("n", range(1, 4))
def test_zcounter_sat(n):
    assert verdicts(zcounter(n)) == dict.fromkeys(METHODS, "SAT")


@pytest.mark.parametrize("n", range(1, 4))
def test_zcounter_unsat_is_the_s4_class(n):
    # the plain methods never read the x-z atoms that hold the count
    assert verdicts(zcounter(n, True)) == {
        "gfp": "SAT", "game": "SAT", "extended": "UNSAT"}


@pytest.mark.parametrize("n", (1, 2))
def test_counter_models_by_oracle(n):
    # the oracle enumerates sizes upward, so its first model is a smallest
    model = brute_force_search(parse(counter(n)), 2 ** n)
    assert model is not None and model.size == 2 ** n
    assert brute_force_search(parse(counter(n, True)), 2 ** n) is None


@pytest.mark.parametrize("unsat", (False, True), ids=("sat", "unsat"))
@pytest.mark.parametrize("family, n", [(counter, 2), (counter, 3), (zcounter, 2)],
                         ids=("counter2", "counter3", "zcounter2"))
def test_fixtures_are_the_families(family, n, unsat):
    name = f"{family.__name__}{n}_{'unsat' if unsat else 'sat'}.fo"
    assert load_sentence(fixture_path(name)) == parse(family(n, unsat))


@pytest.mark.parametrize("name, seed", [("game3_sat", 2), ("game3_unsat", 0)])
def test_game_fixtures_are_the_family(name, seed):
    assert load_sentence(fixture_path(name + ".fo")) == parse(safety_game(3, seed))
    assert game_winner(3, seed) == name.endswith("_sat")


def test_model_builds_on_counter():
    # the certificate's root witness serves z, so element 0 gets one
    out, err = io.StringIO(), io.StringIO()
    code = cli_main(["model", fixture_path("counter2_sat.fo")],
                    stdout=out, stderr=err)
    assert code == 0, out.getvalue()


@pytest.mark.parametrize("k, seeds", [(2, range(10)), (3, range(10)),
                                      (4, range(8)), (5, range(12))])
def test_safety_games(k, seeds):
    wins = 0
    for seed in seeds:
        want = "SAT" if game_winner(k, seed) else "UNSAT"
        assert verdicts(safety_game(k, seed)) == dict.fromkeys(METHODS, want), seed
        wins += want == "SAT"
    assert 0 < wins < len(seeds)


@pytest.mark.parametrize("k, seeds", [(2, range(10)), (3, range(10)),
                                      (4, range(5))])
def test_z_relative_safety_games(k, seeds):
    for seed in seeds:
        s = parse(safety_game(k, seed, zrel=True))
        want = "SAT" if game_winner(k, seed) else "UNSAT"
        assert solve(s, method="extended").verdict == want, seed


def test_plain_methods_miss_z_relative_games():
    # gfp never reads the Ri(x, z) bits, so it accepts some lost games:
    # the class of fixture s4
    lost = [seed for seed in range(10) if not game_winner(3, seed)]
    accepted = [seed for seed in lost
                if solve(parse(safety_game(3, seed, zrel=True))).verdict == "SAT"]
    assert accepted
