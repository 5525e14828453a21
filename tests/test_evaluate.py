import math

import pytest

from lmkit.corpus import TokenizedCorpus, build_vocabulary
from lmkit.evaluate import corpus_wer, ordered_sum, perplexity, pseudo_perplexity, wer
from lmkit.lattice import Arc, Lattice, Node, best_path, make_two_stage_scorer
from lmkit.models import UniRnnlm
from lmkit.ngram import train_kn


def test_wer_deletion_hand_case():
    c = wer(["a", "b", "c"], ["b", "c"])
    assert (c.sub, c.dele, c.ins) == (0, 1, 0)
    assert abs(c.rate - 1 / 3) < 1e-12


def test_wer_insertion_rate_can_exceed_one():
    c = wer(["a"], ["a", "b", "b"])
    assert (c.sub, c.dele, c.ins) == (0, 0, 2)
    assert c.rate == 2.0


def test_wer_identity_and_substitution():
    assert wer(["x", "y"], ["x", "y"]).errors == 0
    c = wer(["a", "b"], ["a", "c"])
    assert (c.sub, c.dele, c.ins) == (1, 0, 0)


def test_wer_substitutions_symmetric_on_equal_lengths():
    a, b = ["p", "q", "r"], ["p", "z", "r"]
    assert wer(a, b).sub == wer(b, a).sub == 1


def test_wer_prefers_substitution_over_ins_plus_del():
    c = wer(["a", "b", "c"], ["a", "x", "c"])
    assert c.errors == 1 and c.sub == 1


def test_wer_empty_reference_rejected():
    with pytest.raises(ValueError):
        wer([], ["a"])


def test_corpus_wer_aggregates_counts():
    pairs = [(["a", "b", "c"], ["b", "c"]), (["a"], ["a", "b", "b"])]
    c = corpus_wer(pairs)
    assert (c.sub, c.dele, c.ins, c.ref_len) == (0, 1, 2, 4)
    assert c.rate == 3 / 4


def _uniform_setup():
    lines = ["a b c", "d e", "f g h i"]
    vocab = build_vocabulary(lines)
    corpus = TokenizedCorpus.from_lines(vocab, lines)
    lp = math.log(1 / 10)
    return corpus, lambda ids: [lp] * (len(ids) - 1)


def test_uniform_scorer_gives_ppl_ten():
    corpus, fn = _uniform_setup()
    report = perplexity(fn, corpus)
    assert abs(report.ppl - 10.0) < 1e-9
    assert report.metric_name == "ppl"
    assert report.n_sentences == 3
    assert report.n_tokens == 12   # every word plus one end token per sentence


def test_pseudo_report_only_changes_the_label():
    corpus, fn = _uniform_setup()
    a = perplexity(fn, corpus)
    b = pseudo_perplexity(fn, corpus)
    assert a.ppl == b.ppl and a.total_logprob == b.total_logprob
    assert b.metric_name == "pseudo_ppl"
    assert any("pseudo_ppl" in line for line in b.lines())


def test_report_internal_consistency():
    corpus, fn = _uniform_setup()
    r = perplexity(fn, corpus)
    assert math.exp(-r.total_logprob / r.n_tokens) == r.ppl
    assert abs(sum(r.per_sentence) - r.total_logprob) < 1e-12
    assert len(r.per_sentence) == r.n_sentences


def test_scorer_length_mismatch_detected():
    corpus, _ = _uniform_setup()
    with pytest.raises(ValueError):
        perplexity(lambda ids: [0.0], corpus)


def test_float_totals_add_left_to_right():
    # 1e16 + 1.0 rounds back to 1e16, so a left-to-right total is 0.0; a
    # compensated sum (the builtin sum() from Python 3.12) gives 1.0
    values = [1e16, 1.0, -1e16]
    assert ordered_sum(values) == 0.0
    assert ordered_sum([]) == 0.0
    vocab = build_vocabulary(["a b"])
    corpus = TokenizedCorpus.from_lines(vocab, ["a b"])
    assert perplexity(lambda ids: values, corpus).per_sentence == [0.0]
    scorer = make_two_stage_scorer(train_kn(corpus, 2),
                                   UniRnnlm(vocab, hidden=4, embed=3, seed=1))
    scorer.word_scores = lambda seqs: [values for _ in seqs]
    assert scorer.score_many([["a", "b"]]) == [0.0]
    nodes = [Node(i, float(i)) for i in range(4)]
    arcs = [Arc(i, i, i + 1, "a", v, v) for i, v in enumerate(values)]
    hyp = best_path(Lattice(nodes, arcs).finish())
    assert (hyp.ac, hyp.lm) == (0.0, 0.0)
