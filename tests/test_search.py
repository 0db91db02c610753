import hashlib
import re
import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from ehrpoly import (
    DegenerateInput,
    Polygon,
    area,
    boundary_count,
    convex_hull,
    ehrhart,
    interior_count,
    is_pip,
    lattice_count,
    pip_b1,
    pip_b2,
    polygon_corpus,
    scott_inequality_holds,
    scott_pip_search,
)
from ehrpoly.ehrhart import _pip_signature
from ehrpoly.jsonio import dumps, search_report_to_json
from ehrpoly.sampling import _GOLDEN, _MASK, SplitMix64, _mix, random_polygon, trial_rng
from ehrpoly.verify import verify_mcmullen


def test_zero_trials_gives_empty_report():
    r = scott_pip_search(seed=3, trials=0, max_denominator=4, coord_bound=4)
    assert r.polygons_tested == 0 and r.pips_found == 0
    assert r.census == {} and r.counterexamples == []


def test_reports_are_deterministic():
    a = scott_pip_search(seed=99, trials=150, max_denominator=4, coord_bound=3)
    b = scott_pip_search(seed=99, trials=150, max_denominator=4, coord_bound=3)
    assert dumps(search_report_to_json(a)) == dumps(search_report_to_json(b))


def test_different_seeds_differ():
    a = scott_pip_search(seed=1, trials=100, max_denominator=4, coord_bound=3)
    b = scott_pip_search(seed=2, trials=100, max_denominator=4, coord_bound=3)
    assert (dumps(search_report_to_json(a)) != dumps(search_report_to_json(b)))


def test_trial_streams_are_position_independent():
    # trial k's stream is a function of (seed, k) alone: its start state is
    # the finalizer of mix(seed) + k, pinned here by formula and by value
    direct = trial_rng(5, 17)
    assert direct.state == _mix(_mix(5) + 17)
    assert SplitMix64(_mix(_mix(5) + 17)).next() == direct.next() == 10884063592994707696


@pytest.mark.parametrize("seed", [0, 5, _MASK, _mix(_mix(5) + 17)])
@pytest.mark.parametrize("k", [0, 1, 2, 14])
def test_draws_are_k_steps_of_the_generator(seed, k):
    batch, single = SplitMix64(seed), SplitMix64(seed)
    out = batch.draws(k)
    assert out == [single.next() for _ in range(k)]
    assert batch.state == single.state == (seed + k * _GOLDEN) & _MASK
    # the finalizer written out in `draws` is `_mix` of each stepped state
    assert out == [_mix((seed + i * _GOLDEN) & _MASK) for i in range(1, k + 1)]


def _quadrilateral_2I_plus_7(I):
    """The PIP (0, 0), (2I+4, 0), (2I+2, 1/2), (0, 3/2), with b = 2I + 7; at
    I = 1 the triangle without the third vertex."""
    top = [(2 * I + 2, F(1, 2))] if I >= 2 else []
    return Polygon([(0, 0), (2 * I + 4, 0), *top, (0, F(3, 2))])


def _assert_signature(P):
    sig = _pip_signature(P)
    assert (sig is None) == (not is_pip(P)) == (ehrhart(P).quasi_period != 1)
    if sig is not None:
        assert sig == (interior_count(P, 1), boundary_count(P, 1))
    return sig


@pytest.mark.parametrize("max_denominator, coord_bound", [(4, 4), (6, 6), (2, 10), (1, 9)])
def test_pip_signature_is_the_interior_and_boundary_count_of_a_pip(max_denominator, coord_bound):
    sigs = [_assert_signature(P) for P in polygon_corpus(11, 300, max_denominator, coord_bound)]
    pips = sum(s is not None for s in sigs)
    # every lattice polygon is a PIP
    assert pips == 300 if max_denominator == 1 else 0 < pips < 300


def test_pip_signature_of_the_constructed_families():
    for I in range(1, 8):
        assert _assert_signature(pip_b1(I).final) == (I, 1)
        assert _assert_signature(pip_b2(I)) == (I, 2)
    for I in range(1, 7):
        assert _assert_signature(_quadrilateral_2I_plus_7(I)) == (I, 2 * I + 7)


@pytest.mark.parametrize("draw", [
    lambda seed: scott_pip_search(seed, 3),
    lambda seed: scott_pip_search(seed, 0),
    lambda seed: polygon_corpus(seed, 2),
    lambda seed: polygon_corpus(seed, 0) == [],
    lambda seed: trial_rng(seed, 1),
    lambda seed: verify_mcmullen(trials=2, seed=seed),
], ids=["scott_pip_search", "scott_pip_search-no-trials", "polygon_corpus",
        "polygon_corpus-empty", "trial_rng", "verify_mcmullen"])
@pytest.mark.parametrize("seed", [1.5, "7", True, None])
def test_every_seeded_entry_point_refuses_a_seed_that_is_not_an_int(draw, seed):
    # any int, negative included, is a seed; nothing else is, not even a bool
    with pytest.raises(ValueError, match=re.escape(f"seed must be an integer, got {seed!r}")):
        draw(seed)
    assert draw(-7)


def test_adjacent_trials_share_no_shifted_run():
    # a stream that restarts one step later would repeat the previous
    # trial's outputs; 64-bit outputs make any shared value a shifted run
    for seed in (1, 5, 2024):
        for i in range(20):
            a, b = trial_rng(seed, i), trial_rng(seed, i + 1)
            assert not {a.next() for _ in range(32)} & {b.next() for _ in range(32)}


def test_constructed_families_are_never_counterexamples():
    for I in range(1, 21):
        for P in (pip_b2(I), pip_b1(I).final):
            assert scott_inequality_holds(interior_count(P, 1), boundary_count(P, 1))


@pytest.mark.parametrize("I", [1, 2, 3, 4, 5, 6])
def test_pips_with_b_equal_to_2I_plus_7_exist(I):
    # the quadrilateral (0, 0), (2I+4, 0), (2I+2, 1/2), (0, 3/2) is a PIP with
    # b = 2I + 7, so the integral bound b <= 2I + 6 has PIP violations for
    # every I >= 2; at I = 1 it is the triangle with the (1, 9) exception
    P = _quadrilateral_2I_plus_7(I)
    assert is_pip(P)
    assert (interior_count(P, 1), boundary_count(P, 1)) == (I, 2 * I + 7)
    assert scott_inequality_holds(I, 2 * I + 7) == (I == 1)


def test_seeded_run_finds_pips_but_no_counterexamples(search1000):
    r = search1000
    assert r.trials == 1000
    assert r.pips_found > 0
    assert r.counterexamples == []
    assert r.counterexamples_weak == []
    assert sum(r.census.values()) == r.pips_found
    assert all(b >= 1 for _, b in r.census)
    assert all((I, b) not in {(0, 1), (0, 2)} for I, b in r.census)


def _fraction_draws(rng, max_denominator, coord_bound):
    """The draws of `random_polygon`, in its order (q, k, then x and y of
    each point), as `Fraction` points."""
    q = rng.int_between(1, max_denominator)
    k = rng.int_between(3, 7)
    b = coord_bound * q
    return [(F(rng.int_between(-b, b), q), F(rng.int_between(-b, b), q)) for _ in range(k)]


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=2**64 - 1), st.integers(min_value=0, max_value=10**6),
       st.integers(min_value=1, max_value=8), st.integers(min_value=1, max_value=5))
def test_sampler_builds_the_fraction_hull_of_its_draws(seed, trial, max_denominator, bound):
    P = random_polygon(trial_rng(seed, trial), max_denominator, bound)
    pts = _fraction_draws(trial_rng(seed, trial), max_denominator, bound)
    try:
        hull = convex_hull(pts)
    except DegenerateInput:
        assert P is None
        return
    for oracle in (hull, Polygon(list(hull.vertices))):
        assert (P._Q, P._V, P.vertices, hash(P)) == \
            (oracle._Q, oracle._V, oracle.vertices, hash(oracle))


def test_counting_a_sampled_polygon_builds_no_fraction_vertices(monkeypatch):
    corpus = polygon_corpus(5, 40, max_denominator=6, coord_bound=5)
    # every Fraction vertex is built by `_unscale`
    monkeypatch.setattr(sys.modules["ehrpoly.geometry"], "_unscale",
                        lambda *a: pytest.fail("built a Fraction vertex"))
    for P in corpus:
        is_pip(P)
        boundary_count(P, 1)
        lattice_count(P, 3)
        area(P)
        ehrhart(P)


@pytest.mark.parametrize("seed, trials, max_denominator, digest", [
    (1, 3000, 4, "789e0006cd5a18b594aeb76b6ce77e9c07ab865c19938790959192a58a788353"),
    (7, 2000, 8, "58bc498081bcf823040acc273167bd2718229a5e6d1f20603ea37335f842f1d4"),
])
def test_search_reports_are_pinned(seed, trials, max_denominator, digest):
    # pins the sampler's draws and their order: a change to either changes
    # these digests, and has to say so by updating them
    r = scott_pip_search(seed, trials, max_denominator=max_denominator)
    assert hashlib.sha256(dumps(search_report_to_json(r)).encode()).hexdigest() == digest
