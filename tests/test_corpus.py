import numpy as np
import pytest

from lmkit.corpus import (CorpusError, DataError, SPECIALS, TokenizedCorpus, Vocabulary,
                          build_vocabulary, make_null_aligned_batches,
                          make_spliced_batches, read_text, write_text)
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
    windows = make_spliced_batches(corpus, 1, future_k=3)[2][0]
    # step t predicts position t + 1
    assert tuple(windows[0]) == (ids[2], ids[3], v.pad)
    assert tuple(windows[2]) == (v.pad, v.pad, v.pad)
    trie = PrefixTrie([ids], 2, v.pad)
    assert [tuple(pairs[0][1:]) for _, _, pairs in trie.levels] == [
        (ids[2], ids[3]), (ids[3], v.pad), (v.pad, v.pad)]


def _streams(inputs, targets, pad):
    """Each row's stream of ids, checking the padding past its end: its
    inputs then its last target."""
    out = []
    for row_in, row_out in zip(inputs, targets):
        n = int((row_out >= 0).sum())
        assert (row_in[n:] == pad).all() and (row_out[n:] == -1).all()
        stream = [int(x) for x in row_in[:n]] + [int(row_out[n - 1])]
        assert [int(x) for x in row_out[:n]] == stream[1:]
        out.append(stream)
    return out


def _sentence_bounds(stream, sent_begin):
    starts = [i for i, x in enumerate(stream) if x == sent_begin]
    return list(zip(starts, starts[1:] + [len(stream)]))


def test_spliced_batches_cover_every_bigram_once():
    for streams in (1, 2, 3):
        _check_spliced_batches(streams)


def _check_spliced_batches(streams):
    v = build_vocabulary(LINES)
    corpus = TokenizedCorpus.from_lines(v, LINES)
    inputs, targets, windows = make_spliced_batches(corpus, streams)
    assert windows is None
    assert inputs.shape == targets.shape and inputs.shape[0] == streams
    assert inputs.dtype == targets.dtype == np.int64
    want = []
    for sent in corpus.sentences:
        for t in range(len(sent) - 1):
            want.append((sent[t], sent[t + 1]))
    got, sentences = [], []
    rows = _streams(inputs, targets, v.pad)
    # the longest stream fills the rectangle
    assert max(len(stream) for stream in rows) - 1 == inputs.shape[1]
    for stream in rows:
        for lo, hi in _sentence_bounds(stream, v.sent_begin):
            sentences.append(stream[lo:hi])
            # no prediction crosses the seam into the next sentence
            got += [(stream[t], stream[t + 1]) for t in range(lo, hi - 1)]
    assert sorted(got) == sorted(want)
    assert sorted(sentences) == sorted(corpus.sentences)


def test_spliced_windows_match_per_sentence_recomputation():
    for streams in (1, 2, 3):
        for k in (1, 2, 3):
            _check_spliced_windows(streams, k)


def _check_spliced_windows(streams, k):
    v = build_vocabulary(LINES)
    corpus = TokenizedCorpus.from_lines(v, LINES)
    inputs, targets, windows = make_spliced_batches(corpus, streams, future_k=k)
    assert windows.shape == inputs.shape + (k,) and windows.dtype == np.int64
    for s, stream in enumerate(_streams(inputs, targets, v.pad)):
        for lo, hi in _sentence_bounds(stream, v.sent_begin):
            sent = stream[lo:hi]
            for t in range(lo, hi - 1):
                fw = future_window(v.pad, sent, t + 1 - lo, k)
                assert tuple(windows[s, t]) == fw
            # the step from the sentence's end to the next sentence's begin
            # token reads no window: it ends with the sentence of its input
            if hi < len(stream):
                assert (windows[s, hi - 1] == v.pad).all()
        assert (windows[s, len(stream) - 1:] == v.pad).all()


def test_null_aligned_batches_pad_with_null():
    v = build_vocabulary(LINES)
    corpus = TokenizedCorpus.from_lines(v, LINES)
    batches = make_null_aligned_batches(corpus, 2)
    seen = []
    for rows, lengths in batches:
        assert rows.dtype == lengths.dtype == np.int64
        assert rows.shape == (len(lengths), max(lengths))
        for row, n in zip(rows, lengths):
            seen.append(list(row[:n]))
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


def test_text_files_are_utf8_and_written_whole(tmp_path):
    path = str(tmp_path / "v.txt")
    write_text(path, "café\r\nthé\n")
    assert (tmp_path / "v.txt").read_bytes() == "café\r\nthé\n".encode("utf-8")
    # newlines translated as in text mode
    assert read_text(path) == "café\nthé\n"
    # a failed rename leaves the target and no temporary file
    (tmp_path / "taken").mkdir()
    with pytest.raises(OSError):
        write_text(str(tmp_path / "taken"), "x\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["taken", "v.txt"]
    # a truncated two-byte sequence on line 3
    (tmp_path / "bad.txt").write_bytes(b"caf\xc3\xa9\n\nab\xc3\n")
    with pytest.raises(DataError, match="line 3: not UTF-8 text"):
        read_text(str(tmp_path / "bad.txt"))
