import numpy as np
import pytest

from lmkit.corpus import (CorpusError, SPECIALS, TokenizedCorpus, Vocabulary,
                          build_vocabulary, make_null_aligned_batches,
                          make_spliced_batches)
from lmkit.models import PrefixTrie
from oracles import future_window

LINES = [
    "b a b c",
    "a b d",
    "c b a",
]
# counts: b=4, a=3, c=2, d=1


def test_vocabulary_orders_by_frequency_then_name():
    v = build_vocabulary(LINES)
    assert v.words == ["b", "a", "c", "d"] + list(SPECIALS)
    assert v.shortlist_size == len(v.words)
    assert v.n_oos == 0


def test_shortlist_splits_around_reserved_block():
    v = build_vocabulary(LINES, shortlist_size=2)
    assert v.words == ["b", "a"] + list(SPECIALS) + ["c", "d"]
    assert v.shortlist_size == 2 + len(SPECIALS)
    assert v.n_oos == 2
    assert not v.is_oos(v.index["a"])
    assert v.is_oos(v.index["c"]) and v.is_oos(v.index["d"])
    # every out-of-shortlist id maps onto the one shared output slot
    assert v.output_index(v.index["c"]) == v.output_index(v.index["d"])
    assert v.output_size == v.shortlist_size + 1


def test_frequency_tie_breaks_lexicographically():
    v = build_vocabulary(["z y", "y z"])
    assert v.words[:2] == ["y", "z"]


def test_encode_decode_round_trip():
    v = build_vocabulary(LINES)
    ids = v.encode("a b d")
    assert ids[0] == v.sent_begin and ids[-1] == v.sent_end
    assert v.decode(ids) == ["a", "b", "d"]


def test_unknown_words_collapse_to_oov():
    v = build_vocabulary(LINES)
    assert v.encode("a zzz")[2] == v.oov
    assert v.id_of("zzz") == v.oov


def test_reserved_token_in_corpus_rejected():
    with pytest.raises(CorpusError):
        build_vocabulary(["a <s> b"])


def test_empty_corpus_rejected():
    with pytest.raises(CorpusError):
        build_vocabulary([])
    v = build_vocabulary(LINES)
    with pytest.raises(CorpusError):
        TokenizedCorpus.from_lines(v, ["", "   "])


def test_vocab_save_load_round_trip(tmp_path):
    v = build_vocabulary(LINES, shortlist_size=2)
    path = str(tmp_path / "vocab.txt")
    v.save(path)
    w = Vocabulary.load(path)
    assert w.words == v.words
    assert w.shortlist_size == v.shortlist_size


def test_vocab_load_requires_reserved_block(tmp_path):
    path = str(tmp_path / "vocab.txt")
    with open(path, "w") as f:
        f.write("a\nb\n")
    with pytest.raises(CorpusError):
        Vocabulary.load(path)


def test_future_window_pads_past_sentence_end():
    # the training windows and the scorers' trie windows hold the ids after
    # a position within its sentence, PAD at and past its end
    v = build_vocabulary(LINES)
    corpus = TokenizedCorpus.from_lines(v, ["a b"])
    ids = corpus.sentences[0]      # <s> a b </s>
    windows = make_spliced_batches(corpus, 1, future_k=3).step_windows[0]
    # step t predicts position t + 1
    assert tuple(windows[0]) == (ids[2], ids[3], v.pad)
    assert tuple(windows[2]) == (v.pad, v.pad, v.pad)
    trie = PrefixTrie([ids], 2, v.pad)
    assert [tuple(pairs[0][1:]) for _, _, pairs in trie.levels] == [
        (ids[2], ids[3]), (ids[3], v.pad), (v.pad, v.pad)]


def test_spliced_batches_cover_every_bigram_once():
    v = build_vocabulary(LINES)
    corpus = TokenizedCorpus.from_lines(v, LINES)
    batch = make_spliced_batches(corpus, 2)
    want = []
    for sent in corpus.sentences:
        for t in range(len(sent) - 1):
            want.append((sent[t], sent[t + 1]))
    got = []
    for s in range(batch.num_streams):
        stream = batch.streams[s]
        starts = set(np.flatnonzero(stream == v.sent_begin))
        for t in range(len(stream) - 1):
            # a sentence start right after t means stream[t+1] opens a new
            # sentence, so no prediction crosses that seam
            if t + 1 in starts:
                continue
            got.append((int(stream[t]), int(stream[t + 1])))
    assert sorted(got) == sorted(want)


def test_spliced_windows_match_per_sentence_recomputation():
    v = build_vocabulary(LINES)
    corpus = TokenizedCorpus.from_lines(v, LINES)
    k = 2
    batch = make_spliced_batches(corpus, 2, future_k=k)
    for s in range(batch.num_streams):
        stream = batch.streams[s]
        bounds = list(np.flatnonzero(stream == v.sent_begin)) + [len(stream)]
        for lo, hi in zip(bounds, bounds[1:]):
            sent = list(stream[lo:hi])
            for t in range(lo, hi - 1):
                fw = future_window(v.pad, sent, t + 1 - lo, k)
                assert tuple(batch.step_windows[s][t]) == fw


def test_null_aligned_batches_pad_with_null():
    v = build_vocabulary(LINES)
    corpus = TokenizedCorpus.from_lines(v, LINES)
    batches = make_null_aligned_batches(corpus, 2)
    seen = []
    for b in batches:
        assert b.rows.shape[1] == max(b.lengths)
        for r in range(b.num_rows):
            row = list(b.rows[r])
            n = int(b.lengths[r])
            seen.append(row[:n])
            assert all(x == v.null for x in row[n:])
    assert seen == corpus.sentences


def test_batch_builders_reject_bad_stream_counts():
    v = build_vocabulary(LINES)
    corpus = TokenizedCorpus.from_lines(v, LINES)
    for builder in (make_spliced_batches, make_null_aligned_batches):
        with pytest.raises(CorpusError):
            builder(corpus, 0)
        with pytest.raises(CorpusError):
            builder(corpus, len(corpus.sentences) + 1)


def test_word_count_excludes_begin_token():
    v = build_vocabulary(LINES)
    corpus = TokenizedCorpus.from_lines(v, LINES)
    assert corpus.word_count == sum(len(l.split()) + 1 for l in LINES)
