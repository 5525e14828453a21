"""Perplexity, pseudo perplexity, and word error rate.

The token count N covers every predicted position: sentence-end tokens are
counted, sentence-begin tokens are not.  For models whose per-word scores are
unnormalized (bi, su) the same formula only yields a pseudo perplexity and the
report says so.
"""

import math
from dataclasses import dataclass, field


@dataclass
class EvalReport:
    n_sentences: int
    n_tokens: int
    total_logprob: float
    ppl: float
    pseudo: bool = False
    per_sentence: list = field(default_factory=list)

    @property
    def metric_name(self):
        return "pseudo_ppl" if self.pseudo else "ppl"

    def lines(self):
        return [
            "sentences: %d" % self.n_sentences,
            "tokens: %d" % self.n_tokens,
            "total_logprob: %.6f" % self.total_logprob,
            "%s: %.4f" % (self.metric_name, self.ppl),
        ]


def ordered_sum(values):
    """The float sum of `values` added strictly left to right.  From Python
    3.12 the builtin sum() compensates rounding, so its totals would differ
    in the last bits between Python versions."""
    total = 0.0
    for v in values:
        total += v
    return float(total)


def _accumulate(word_logprob_fn, corpus, pseudo):
    total = 0.0
    tokens = 0
    per_sentence = []
    for ids in corpus.sentences:
        lps = word_logprob_fn(ids)
        if len(lps) != len(ids) - 1:
            raise ValueError("scorer returned %d scores for %d predicted tokens"
                             % (len(lps), len(ids) - 1))
        s = ordered_sum(lps)
        per_sentence.append(s)
        total += s
        tokens += len(lps)
    ppl = math.exp(-total / tokens) if tokens else float("inf")
    return EvalReport(len(corpus.sentences), tokens, total, ppl, pseudo, per_sentence)


def perplexity(word_logprob_fn, corpus):
    """PPL from a normalized per-word scorer: fn(encoded ids) -> natural-log
    probabilities for every position after the begin token."""
    return _accumulate(word_logprob_fn, corpus, pseudo=False)


def pseudo_perplexity(word_logprob_fn, corpus):
    """Same arithmetic for unnormalized per-word scores; reported separately
    because the result is not a perplexity."""
    return _accumulate(word_logprob_fn, corpus, pseudo=True)


@dataclass
class WerCounts:
    sub: int
    dele: int
    ins: int
    ref_len: int

    @property
    def errors(self):
        return self.sub + self.dele + self.ins

    @property
    def rate(self):
        return self.errors / self.ref_len


def wer(ref, hyp):
    """Levenshtein alignment with unit costs.  Ties between one substitution
    and an insertion plus deletion resolve to the substitution."""
    if not ref:
        raise ValueError("empty reference")
    R, H = len(ref), len(hyp)
    # cost[i][j]: errors aligning ref[:i] with hyp[:j]
    cost = [[0] * (H + 1) for _ in range(R + 1)]
    for i in range(1, R + 1):
        cost[i][0] = i
    for j in range(1, H + 1):
        cost[0][j] = j
    for i in range(1, R + 1):
        for j in range(1, H + 1):
            diag = cost[i - 1][j - 1] + (ref[i - 1] != hyp[j - 1])
            cost[i][j] = min(diag, cost[i - 1][j] + 1, cost[i][j - 1] + 1)
    # backtrace, preferring match/substitution on ties
    i, j = R, H
    sub = dele = ins = 0
    while i > 0 or j > 0:
        if i > 0 and j > 0 and cost[i][j] == cost[i - 1][j - 1] + (ref[i - 1] != hyp[j - 1]):
            sub += ref[i - 1] != hyp[j - 1]
            i -= 1
            j -= 1
        elif i > 0 and cost[i][j] == cost[i - 1][j] + 1:
            dele += 1
            i -= 1
        else:
            ins += 1
            j -= 1
    return WerCounts(sub, dele, ins, R)


def corpus_wer(pairs):
    """Aggregate error rate over (reference, hypothesis) word-sequence pairs:
    total errors divided by total reference length."""
    sub = dele = ins = ref_len = 0
    for ref, hyp in pairs:
        c = wer(ref, hyp)
        sub += c.sub
        dele += c.dele
        ins += c.ins
        ref_len += c.ref_len
    return WerCounts(sub, dele, ins, ref_len)
