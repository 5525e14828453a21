import collections
import gc
import math
import tracemalloc

import pytest

import oracles
from lmkit.corpus import TokenizedCorpus, build_vocabulary
from lmkit.ngram import ArpaModel, FormatError, load_arpa, save_arpa, train_kn
from lmkit.synth import SyntheticLanguage, build_corpus_lines

LINES = ["a b", "b a", "a b"]
HAND = ["a b c a", "c a b", "b b a c", "a c c b a"]


def bigram_setup(discount=0.75):
    vocab = build_vocabulary(LINES)
    corpus = TokenizedCorpus.from_lines(vocab, LINES)
    return vocab, corpus, train_kn(corpus, 2, discount)


def test_bigram_probabilities_hand_computed():
    # raw bigrams: (<s>,a)=2 (a,b)=2 (b,</s>)=2 (<s>,b)=1 (b,a)=1 (a,</s>)=1
    # continuation unigrams: a=2 b=2 </s>=2 types, oov floor 1, total 7
    # history (a): T=3, two continuations, discount 0.75, so
    #   p(b|a)    = (2-.75 + .75*2*(2/7)) / 3 = 47/84
    #   p(</s>|a) = (1-.75 + .75*2*(2/7)) / 3 = 19/84
    #   p(a|a)    = backoff = (.75*2/3) * (2/7) = 1/7
    #   p(oov|a)  = (.75*2/3) * (1/7) = 1/14
    vocab, _, model = bigram_setup()
    a, b = vocab.index["a"], vocab.index["b"]
    assert abs(model.logprob((a,), b) - math.log(47 / 84)) < 1e-12
    assert abs(model.logprob((a,), vocab.sent_end) - math.log(19 / 84)) < 1e-12
    assert abs(model.logprob((a,), a) - math.log(1 / 7)) < 1e-12
    assert abs(model.logprob((a,), vocab.oov) - math.log(1 / 14)) < 1e-12
    assert 47 / 84 + 19 / 84 + 1 / 7 + 1 / 14 == 1.0


def test_bigram_model_agrees_with_direct_formula_everywhere():
    """Independent reconstruction of interpolated Kneser-Ney from raw counts."""
    discount = 0.6
    vocab, corpus, model = bigram_setup(discount)
    raw1 = collections.Counter()
    raw2 = collections.Counter()
    for sent in corpus.sentences:
        for t in range(len(sent)):
            raw1[sent[t]] += 1
            if t:
                raw2[(sent[t - 1], sent[t])] += 1
    cont = collections.Counter(w for (_, w) in raw2)
    cont[vocab.oov] = max(cont[vocab.oov], 1)
    total = sum(cont.values())
    for v in set(h for (h, _) in raw2):
        T = sum(c for (h, _), c in raw2.items() if h == v)
        n1p = len([1 for (h, _) in raw2 if h == v])
        for w in cont:
            want = (max(raw2.get((v, w), 0) - discount, 0.0)
                    + discount * n1p * cont[w] / total) / T
            assert abs(math.exp(model.logprob((v,), w)) - want) < 1e-9


def test_conditionals_sum_to_one():
    vocab = build_vocabulary(HAND)
    corpus = TokenizedCorpus.from_lines(vocab, HAND)
    model = train_kn(corpus, 3)
    support = model.support()
    hists = [(), (vocab.index["a"],), (vocab.index["c"],),
             (vocab.index["a"], vocab.index["b"]),
             (vocab.index["b"], vocab.index["b"]),
             (vocab.oov, vocab.index["a"])]
    for h in hists:
        s = sum(math.exp(model.logprob(h, w)) for w in support)
        assert abs(s - 1.0) < 1e-9


def test_long_history_truncates_to_model_order():
    vocab, _, model = bigram_setup()
    a, b = vocab.index["a"], vocab.index["b"]
    assert model.logprob((b, b, a, a), b) == model.logprob((a,), b)


def test_sentence_scores_decompose():
    vocab, corpus, model = bigram_setup()
    ids = corpus.sentences[0]
    lps = model.sentence_word_logprobs(ids)
    assert len(lps) == len(ids) - 1
    assert abs(model.sentence_logprob(ids) - sum(lps)) < 1e-12


def test_begin_token_is_never_predicted():
    vocab, _, model = bigram_setup()
    assert model.logprob((), vocab.sent_begin) < math.log(1e-60)


def test_oov_floor_keeps_scores_finite():
    vocab, _, model = bigram_setup()
    assert math.isfinite(model.logprob((), vocab.oov))


def test_discount_validation():
    vocab = build_vocabulary(LINES)
    corpus = TokenizedCorpus.from_lines(vocab, LINES)
    for bad in (0.0, 1.0, -0.5, 2.0):
        with pytest.raises(ValueError):
            train_kn(corpus, 2, discount=bad)
    with pytest.raises(ValueError):
        ArpaModel(vocab, 0)


def test_arpa_round_trip_is_byte_identical(tmp_path):
    vocab, _, model = bigram_setup()
    p1 = str(tmp_path / "m1.arpa")
    p2 = str(tmp_path / "m2.arpa")
    save_arpa(model, p1)
    back = load_arpa(p1, vocab)
    save_arpa(back, p2)
    assert (tmp_path / "m1.arpa").read_bytes() == (tmp_path / "m2.arpa").read_bytes()
    for m in (1, 2):
        assert back.entries[m].keys() == model.entries[m].keys()
        assert back.bows[m].keys() == model.bows[m].keys()
        for gram, lp in model.entries[m].items():
            assert back.entries[m][gram] == pytest.approx(lp, abs=5e-8)
        for gram, bow in model.bows[m].items():
            assert back.bows[m][gram] == pytest.approx(bow, abs=5e-8)


def _load_text(tmp_path, text):
    path = str(tmp_path / "bad.arpa")
    with open(path, "w") as f:
        f.write(text)
    vocab = build_vocabulary(LINES)
    return lambda: load_arpa(path, vocab)


def test_malformed_arpa_reports_line_numbers(tmp_path):
    cases = [
        ("no header\n", "line 1"),
        ("\\data\\\nngram 1=x\n", "line 2"),
        ("\\data\\\nngram 2=1\n\n\\2-grams:\n-0.1\ta b\n\\end\\\n", "line 2"),
        ("\\data\\\nngram 1=1\n\n-0.1\ta\n", "line 4"),
        ("\\data\\\nngram 1=1\n\n\\1-grams:\n-0.1\tzzz\n\\end\\\n", "line 5"),
        ("\\data\\\nngram 1=1\n\n\\1-grams:\nbad\ta\n\\end\\\n", "line 5"),
        ("\\data\\\nngram 1=2\n\n\\1-grams:\n-0.1\ta\n\\end\\\n", "line 6"),
        ("\\data\\\nngram 1=2\n\n\\1-grams:\n-0.5\ta\n-0.3\ta\n\\end\\\n", "line 6"),
    ]
    for text, where in cases:
        with pytest.raises(FormatError) as err:
            _load_text(tmp_path, text)()
        assert where in str(err.value), text


def test_support_lists_unigram_words():
    vocab, _, model = bigram_setup()
    want = sorted({vocab.index["a"], vocab.index["b"], vocab.sent_end,
                   vocab.oov, vocab.sent_begin})
    assert model.support() == want


def _bits(table):
    return {gram: value.hex() for gram, value in table.items()}


def _assert_matches_reference(corpus, order, discount):
    """train_kn's tables against the dictionary estimator's, key for key and
    bit for bit."""
    model = train_kn(corpus, order, discount)
    want = oracles.train_kn(corpus, order, discount)
    for m in range(1, order + 1):
        assert _bits(model.entries[m]) == {g: lp.hex() for g, (lp, _) in want[m].items()}, m
        assert _bits(model.bows[m]) == {g: bow.hex() for g, (_, bow) in want[m].items()
                                        if bow is not None}, m
    return model


# one-word sentences are three tokens long, so order 4 has no 4-grams
SHORT = ["a", "b", "a", "c"]


@pytest.mark.parametrize("lines", [LINES, HAND, SHORT], ids=["bigram", "hand", "short"])
@pytest.mark.parametrize("order", [1, 2, 3, 4])
@pytest.mark.parametrize("discount", [0.3, 0.75, 0.9])
def test_tables_match_dictionary_estimator_on_hand_corpora(lines, order, discount):
    vocab = build_vocabulary(lines)
    model = _assert_matches_reference(TokenizedCorpus.from_lines(vocab, lines), order, discount)
    if lines is SHORT and order == 4:
        assert len(model.entries[3]) and not model.entries[4]


@pytest.mark.parametrize("tokens,order,seed", [(3000, 1, 21), (3000, 2, 22), (8000, 4, 23),
                                               (20000, 3, 24)])
@pytest.mark.parametrize("discount", [0.3, 0.75, 0.9])
def test_tables_match_dictionary_estimator_on_synthetic_corpora(tokens, order, seed, discount):
    lines = build_corpus_lines(SyntheticLanguage(), seed, tokens)
    vocab = build_vocabulary(lines, 15)
    _assert_matches_reference(TokenizedCorpus.from_lines(vocab, lines), order, discount)


def test_estimation_peak_stays_under_twice_the_model():
    # the dictionary estimator held several copies of the n-gram set and
    # peaked at about 2.6 times the model it returned
    lines = build_corpus_lines(SyntheticLanguage(), 31, 20000)
    corpus = TokenizedCorpus.from_lines(build_vocabulary(lines, 15), lines)
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        model = train_kn(corpus, 3)
        size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(model.entries[3]) > 10000
    assert peak - base < 2 * (size - base)
