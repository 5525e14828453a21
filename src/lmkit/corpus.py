"""Text corpora, vocabularies, and the batch layouts the trainers consume."""

import collections
import math
import os

import numpy as np

SENT_BEGIN = "<s>"
SENT_END = "</s>"
OOV = "<oov>"
OOS = "<oos>"
NULL = "<null>"
PAD = "<pad>"
SPECIALS = (SENT_BEGIN, SENT_END, OOV, OOS, NULL, PAD)


class CorpusError(ValueError):
    pass


class DataError(ValueError):
    """Malformed input; the message names the file and the line when they
    are known."""

    def __init__(self, message, line=None, path=None):
        self.detail, self.line, self.path = message, line, path
        if line is not None:
            message = "line %d: %s" % (line, message)
        if path is not None:
            message = "%s: %s" % (path, message)
        super().__init__(message)

    def in_file(self, path):
        """The same error, naming the file it was read from."""
        return type(self)(self.detail, self.line, path)


def bad_score(value):
    """True for NaN and +inf.  -inf is a valid log score (probability
    zero), which the consumers floor or rank last."""
    return math.isnan(value) or value == math.inf


class Vocabulary:
    """Bidirectional word/id map with a frequency shortlist.

    Id layout: in-shortlist corpus words by descending frequency (ties broken
    lexicographically), then the six reserved tokens, then any remaining
    corpus words in the same frequency order.  `shortlist_size` counts the
    leading block including the reserved tokens, so every id at or above it
    shares the single out-of-shortlist slot of an output layer.
    """

    def __init__(self, words, shortlist_size):
        self.words = list(words)
        self.index = {}
        for i, w in enumerate(self.words):
            if w in self.index:
                raise CorpusError("duplicate word in vocabulary: %r" % w)
            self.index[w] = i
        for tok in SPECIALS:
            if tok not in self.index:
                raise CorpusError("missing reserved token: %r" % tok)
        self.shortlist_size = shortlist_size
        # number of words that share the out-of-shortlist output slot; the
        # word list is fixed once built, so this is counted once
        self.n_oos = len(self.words) - shortlist_size
        self.sent_begin = self.index[SENT_BEGIN]
        self.sent_end = self.index[SENT_END]
        self.oov = self.index[OOV]
        self.oos = self.index[OOS]
        self.null = self.index[NULL]
        self.pad = self.index[PAD]
        if not (0 < shortlist_size <= len(self.words)):
            raise CorpusError("shortlist size out of range")
        if self.pad >= shortlist_size:
            raise CorpusError("reserved tokens must sit inside the shortlist block")

    def __len__(self):
        return len(self.words)

    @property
    def output_size(self):
        # one slot per shortlist id plus the shared out-of-shortlist slot
        return self.shortlist_size + 1

    def output_index(self, word_id):
        return word_id if word_id < self.shortlist_size else self.shortlist_size

    def is_oos(self, word_id):
        return word_id >= self.shortlist_size

    def id_of(self, word):
        """Input-side id of a surface form, unknowns collapse to the OOV id."""
        return self.index.get(word, self.oov)

    def encode(self, sentence):
        """Encode one sentence (string or token list) with boundary tokens."""
        if isinstance(sentence, str):
            sentence = sentence.split()
        ids = [self.sent_begin]
        ids.extend(self.index.get(w, self.oov) for w in sentence)
        ids.append(self.sent_end)
        return ids

    def decode(self, ids):
        """Surface forms for ids, dropping boundary tokens."""
        out = []
        for i in ids:
            if i in (self.sent_begin, self.sent_end):
                continue
            out.append(self.words[i])
        return out

    def save(self, path):
        tmp = path + ".tmp"
        with open(tmp, "w") as fh:
            for w in self.words:
                fh.write(w + "\n")
        os.replace(tmp, path)

    @classmethod
    def load(cls, path):
        with open(path) as fh:
            words = [line.rstrip("\n") for line in fh if line.rstrip("\n")]
        try:
            first = words.index(SENT_BEGIN)
        except ValueError:
            raise CorpusError("vocabulary file lacks reserved tokens: %s" % path)
        if tuple(words[first:first + len(SPECIALS)]) != SPECIALS:
            raise CorpusError("reserved token block malformed in %s" % path)
        return cls(words, shortlist_size=first + len(SPECIALS))


def build_vocabulary(lines, shortlist_size=None):
    """Count whitespace tokens and build a Vocabulary.

    `shortlist_size` is the number of corpus words kept in the shortlist;
    None (or anything at least the number of distinct words) keeps them all.
    """
    counts = collections.Counter()
    for line in lines:
        for tok in line.split():
            if tok in SPECIALS:
                raise CorpusError("reserved token appears in corpus text: %r" % tok)
            counts[tok] += 1
    if not counts:
        raise CorpusError("empty corpus")
    ordered = sorted(counts, key=lambda w: (-counts[w], w))
    if shortlist_size is None:
        shortlist_size = len(ordered)
    if shortlist_size <= 0 or shortlist_size > len(ordered) + len(SPECIALS):
        raise CorpusError("shortlist size out of range")
    n_short = min(shortlist_size, len(ordered))
    words = ordered[:n_short] + list(SPECIALS) + ordered[n_short:]
    return Vocabulary(words, shortlist_size=n_short + len(SPECIALS))


class TokenizedCorpus:
    """Encoded sentences plus the vocabulary that produced them."""

    def __init__(self, vocab, sentences):
        self.vocab = vocab
        self.sentences = sentences
        # predicted positions per sentence: everything after the begin token
        self.word_count = sum(len(s) - 1 for s in sentences)

    @classmethod
    def from_lines(cls, vocab, lines):
        sentences = [vocab.encode(line) for line in lines if line.strip()]
        if not sentences:
            raise CorpusError("empty corpus")
        return cls(vocab, sentences)

    @classmethod
    def from_file(cls, vocab, path):
        with open(path) as fh:
            return cls.from_lines(vocab, fh)


class SplicedBatch:
    """Sentences spliced end to end into a fixed number of parallel streams.

    `streams[s]` is an int array of ids; step t of a stream predicts
    `streams[s][t+1]`, and every sentence opens with its begin token.  When
    built with `future_k > 0`, `step_windows[s]` holds the (T-1, k) window
    ids aligned with those steps; windows never cross a sentence boundary.
    """

    def __init__(self, streams, step_windows=None):
        self.streams = streams
        self.step_windows = step_windows

    @property
    def num_streams(self):
        return len(self.streams)


def make_spliced_batches(corpus, num_streams, future_k=0):
    """Greedy splicing: each sentence joins the currently shortest stream."""
    if num_streams <= 0:
        raise CorpusError("need at least one stream")
    if num_streams > len(corpus.sentences):
        raise CorpusError("more streams than sentences")
    streams = [[] for _ in range(num_streams)]
    starts = [[] for _ in range(num_streams)]
    for sent in corpus.sentences:
        s = min(range(num_streams), key=lambda i: len(streams[i]))
        starts[s].append(len(streams[s]))
        streams[s].extend(sent)
    streams = [np.asarray(s, dtype=np.int64) for s in streams]
    windows = None
    if future_k > 0:
        windows = [_stream_windows(stream, sent_starts, corpus.vocab.pad, future_k)
                   for stream, sent_starts in zip(streams, starts)]
    return SplicedBatch(streams, windows)


def _stream_windows(stream, starts, pad, k):
    """(T-1, k) windows of one stream, its sentences starting at `starts`:
    step t predicts stream position t+1, and its window holds the k ids
    after that position within its sentence, PAD at or past the sentence
    end."""
    steps = max(len(stream) - 1, 0)
    # end (exclusive) of the sentence each stream position belongs to
    bounds = list(starts) + [len(stream)]
    ends = np.repeat(bounds[1:], np.diff(bounds))[:steps]
    pos = np.arange(steps)[:, None] + 1 + np.arange(1, k + 1)[None, :]
    inside = pos < ends[:, None]
    return np.where(inside, stream[np.where(inside, pos, 0)], pad)


class AlignedNullBatch:
    """Sentences left-aligned into a rectangle, short rows padded with NULL."""

    def __init__(self, rows, lengths):
        self.rows = rows                      # (S, T) int array
        self.lengths = np.asarray(lengths)    # true encoded lengths

    @property
    def num_rows(self):
        return self.rows.shape[0]


def make_null_aligned_batches(corpus, num_streams):
    """Rectangular batches of `num_streams` consecutive sentences each."""
    if num_streams <= 0:
        raise CorpusError("need at least one stream")
    if num_streams > len(corpus.sentences):
        raise CorpusError("more streams than sentences")
    null_id = corpus.vocab.null
    batches = []
    for off in range(0, len(corpus.sentences), num_streams):
        group = corpus.sentences[off:off + num_streams]
        width = max(len(s) for s in group)
        rows = np.full((len(group), width), null_id, dtype=np.int64)
        for r, sent in enumerate(group):
            rows[r, :len(sent)] = sent
        batches.append(AlignedNullBatch(rows, [len(s) for s in group]))
    return batches
