"""Combining probability streams from several language models.

Two combination rules are used.  The linear rule mixes two normalized
probabilities and stays normalized.  The log-linear rule mixes two log scores
with exponential weights; the result is unnormalized, which is acceptable for
ranking hypotheses but not for perplexity.  The two-stage rule applies them in
order: first a linear mix of two normalized streams, then a log-linear mix of
that result with a third, unnormalized stream.

Every caller that mixes two log scores linearly (ppl, tune, n-best
reranking without a succeeding-word model, linear lattice rescoring) goes
through `linear_logprob`, so weight 0 and 1 give either stream's own scores
bit for bit everywhere: exp and log do not round trip.

Each weight's default is written here alone: lambda1 and lambda2 in
`InterpConfig`, and su smoothing's alpha, which callers pass next to a
config, as `DEFAULT_ALPHA`.  The rescorers and the command line read them.
"""

import math
from dataclasses import dataclass

DEFAULT_GRID = tuple(i / 20 for i in range(21))
DEFAULT_ALPHA = 0.7


@dataclass
class InterpConfig:
    lambda1: float = 0.75   # weight of the second stream in the linear mix
    lambda2: float = 0.3    # weight of the third stream in the log-linear mix
    normalize_locally: bool = False

    def __post_init__(self):
        # refused at construction; NaN fails the range test too
        for name in ("lambda1", "lambda2"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError("%s must lie in [0, 1], got %g" % (name, v))


def safe_ln(p):
    if p <= 0.0:
        return float("-inf")
    return math.log(p)


def linear(p_a, p_b, lam):
    """(1 - lam) * p_a + lam * p_b.  The endpoints return the inputs
    unchanged so that lam = 0 and lam = 1 reproduce the component models
    exactly."""
    if lam == 0.0:
        return p_a
    if lam == 1.0:
        return p_b
    return (1.0 - lam) * p_a + lam * p_b


def linear_logprob(lp_a, lp_b, lam):
    """The linear rule on natural-log scores: ln((1 - lam) * e^lp_a +
    lam * e^lp_b).  lam = 0 returns lp_a and lam = 1 returns lp_b unchanged,
    so the endpoints reproduce the component models exactly."""
    if lam == 0.0:
        return lp_a
    if lam == 1.0:
        return lp_b
    return safe_ln(linear(math.exp(lp_a), math.exp(lp_b), lam))


def loglinear_score(lp_a, lp_b, lam):
    """(1 - lam) * lp_a + lam * lp_b on natural-log scores.  The endpoints
    are special-cased: with lam = 0 a zero-probability second stream must not
    poison the result (0 * -inf is nan), and symmetrically for lam = 1."""
    if lam == 0.0:
        return lp_a
    if lam == 1.0:
        return lp_b
    return (1.0 - lam) * lp_a + lam * lp_b


def two_stage(p_a, p_b, p_c, config):
    """Linear mix of p_a and p_b under lambda1, then log-linear mix of its
    log with ln p_c under lambda2.  Returns a natural-log score."""
    lp = safe_ln(linear(p_a, p_b, config.lambda1))
    return loglinear_score(lp, safe_ln(p_c), config.lambda2)


def grid_search(eval_fn, grid=DEFAULT_GRID):
    """Minimize eval_fn(lam) over the grid.  Strict improvement is required
    to move, so ties resolve to the smallest weight."""
    best_lam = None
    best_val = None
    table = []
    for lam in grid:
        val = eval_fn(lam)
        table.append((lam, val))
        if best_val is None or val < best_val:
            best_lam, best_val = lam, val
    return best_lam, best_val, table


def tune(pair_lists, mix, grid=DEFAULT_GRID):
    """Pick the weight that minimizes the (pseudo-)perplexity of the mixed
    scores mix(lp_a, lp_b, lam): linear_logprob for the linear weight,
    loglinear_score for the log-linear one.

    pair_lists holds, per sentence, the (lp_a, lp_b) natural-log score pairs
    for every predicted token, so each grid point is a cheap re-mix rather
    than a re-score.  Returns (best_lambda, best_ppl, table)."""
    flat = [pair for sent in pair_lists for pair in sent]
    if not flat:
        raise ValueError("no scored tokens to tune on")
    n = len(flat)

    def ppl_at(lam):
        total = 0.0
        for lp_a, lp_b in flat:
            total += mix(lp_a, lp_b, lam)
        return math.exp(-total / n)

    return grid_search(ppl_at, grid)
