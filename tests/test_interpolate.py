import math

import pytest

from lmkit.interpolate import (DEFAULT_GRID, InterpConfig, grid_search, linear,
                               linear_logprob, loglinear_score, safe_ln, tune_linear,
                               two_stage)


def test_linear_endpoints_are_exact():
    assert linear(0.3, 0.8, 0.0) == 0.3
    assert linear(0.3, 0.8, 1.0) == 0.8


def test_linear_midpoint():
    assert abs(linear(0.2, 0.6, 0.25) - 0.3) < 1e-15


def test_linear_logprob_endpoints_return_the_log_scores():
    # exp and log do not round trip: the endpoints must not go through them
    a = -0.997
    assert math.log(math.exp(a)) != a
    b = math.log(0.8)
    assert linear_logprob(a, b, 0.0) == a
    assert linear_logprob(b, a, 1.0) == a
    assert linear_logprob(a, float("-inf"), 0.0) == a
    assert linear_logprob(a, b, 0.3) == safe_ln(linear(math.exp(a), math.exp(b), 0.3))
    assert linear_logprob(float("-inf"), float("-inf"), 0.5) == float("-inf")


def test_loglinear_endpoints_are_exact():
    a, b = -1.7, -0.4
    assert loglinear_score(a, b, 0.0) == a
    assert loglinear_score(a, b, 1.0) == b


def test_loglinear_is_weighted_sum_of_logs():
    got = loglinear_score(math.log(0.2), math.log(0.5), 0.3)
    want = 0.7 * math.log(0.2) + 0.3 * math.log(0.5)
    assert abs(got - want) < 1e-15


def test_two_stage_hand_value():
    # linear stage: .25*.2 + .75*.4 = .35; then .7*ln(.35) + .3*ln(.5)
    cfg = InterpConfig(lambda1=0.75, lambda2=0.3)
    got = two_stage(0.2, 0.4, 0.5, cfg)
    assert abs(got - (-0.9428197)) < 1e-7
    assert abs(got - (0.7 * math.log(0.35) + 0.3 * math.log(0.5))) < 1e-12


def test_two_stage_endpoints_collapse():
    cfg = InterpConfig(lambda1=0.0, lambda2=0.0)
    assert two_stage(0.2, 0.4, 0.5, cfg) == safe_ln(0.2)
    cfg = InterpConfig(lambda1=1.0, lambda2=0.0)
    assert two_stage(0.2, 0.4, 0.5, cfg) == safe_ln(0.4)
    cfg = InterpConfig(lambda1=0.5, lambda2=1.0)
    assert two_stage(0.2, 0.4, 0.5, cfg) == safe_ln(0.5)


def test_safe_ln_handles_zero():
    assert safe_ln(0.0) == float("-inf")
    assert safe_ln(-1.0) == float("-inf")
    assert safe_ln(1.0) == 0.0


def test_config_validates_range():
    with pytest.raises(ValueError):
        InterpConfig(lambda1=1.5).validate()
    with pytest.raises(ValueError):
        InterpConfig(lambda2=-0.1).validate()
    InterpConfig().validate()


def test_grid_search_finds_quadratic_minimum():
    lam, val, table = grid_search(lambda l: (l - 0.35) ** 2)
    assert lam == 0.35
    assert val == 0.0
    assert len(table) == len(DEFAULT_GRID)


def test_grid_search_ties_resolve_to_smallest_weight():
    lam, _, _ = grid_search(lambda l: 7.0)
    assert lam == 0.0


def test_tune_linear_matches_brute_force_rescan():
    # mixture of a sharp and a flat scorer; the oracle recomputes the same
    # perplexity curve with independent arithmetic
    prob_lists = [
        [(0.5, 0.1), (0.02, 0.3), (0.2, 0.2)],
        [(0.01, 0.6), (0.7, 0.05)],
    ]
    flat = [p for sent in prob_lists for p in sent]
    best_lam, best_ppl, table = tune_linear(
        [[(math.log(a), math.log(b)) for a, b in sent] for sent in prob_lists])
    want = {}
    for lam in DEFAULT_GRID:
        total = sum(math.log((1 - lam) * a + lam * b) for a, b in flat)
        want[lam] = math.exp(-total / len(flat))
    assert abs(best_ppl - min(want.values())) < 1e-12
    assert want[best_lam] == min(want.values())
    for lam, val in table:
        assert abs(val - want[lam]) < 1e-12


def test_tune_linear_rejects_empty_input():
    with pytest.raises(ValueError):
        tune_linear([[]])
