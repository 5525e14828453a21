"""Text corpora, vocabularies, and the arrays the trainers read, each
layout built here once: uni and su take the (S, W) rectangles of spliced
sentence streams (`make_spliced_batches`), bi NULL-padded (rows, lengths)
batches of whole sentences (`make_null_aligned_batches`).  Text files are
UTF-8, and every file is written through `replacing`."""

import collections
import contextlib
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


def read_text(path):
    """The whole of a UTF-8 text file, newlines translated as in text mode.
    A byte sequence that is not UTF-8 raises DataError naming the path and
    the line."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as e:
        # read() decodes the whole file in one call, so e.start counts from
        # its first byte
        line = e.object.count(b"\n", 0, e.start) + 1
        raise DataError("not UTF-8 text", line=line, path=path) from None


@contextlib.contextmanager
def replacing(path):
    """A temporary path beside `path` for the block to write, renamed over
    `path` when the block ends, so a failure anywhere leaves neither a
    partial file nor the temporary one."""
    tmp = path + ".tmp"
    try:
        yield tmp
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def write_text(path, text):
    """Write `text` as UTF-8 in place of `path`; see `replacing`."""
    with replacing(path) as tmp, open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)


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
        write_text(path, "".join(w + "\n" for w in self.words))

    @classmethod
    def load(cls, path):
        words = [line for line in read_text(path).split("\n") if line]
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
        return cls.from_lines(vocab, read_text(path).split("\n"))


def _check_streams(corpus, num_streams):
    if num_streams <= 0:
        raise CorpusError("need at least one stream")
    if num_streams > len(corpus.sentences):
        raise CorpusError("more streams than sentences")


def make_spliced_batches(corpus, num_streams, future_k=0):
    """Sentences spliced end to end into S = `num_streams` streams, each
    joining the shortest, as (S, W) rectangles, W the longest stream's
    steps: step t of row s reads inputs[s, t] (PAD past the stream's end)
    and predicts targets[s, t] (-1 past it).  Returns (inputs, targets,
    windows), windows the (S, W, k) ids after each target inside the
    sentence of the step's input, PAD at or past its end, or None when
    `future_k` is 0."""
    _check_streams(corpus, num_streams)
    streams = [[] for _ in range(num_streams)]
    # per stream position, the end (exclusive) of the sentence holding it
    ends = [[] for _ in range(num_streams)]
    for sent in corpus.sentences:
        s = min(range(num_streams), key=lambda i: len(streams[i]))
        streams[s].extend(sent)
        ends[s].extend([len(streams[s])] * len(sent))
    width = max(map(len, streams)) - 1
    pad = corpus.vocab.pad
    ids = np.full((num_streams, width + 1 + future_k), pad, dtype=np.int64)
    end = np.zeros((num_streams, width + 1), dtype=np.int64)
    for s, stream in enumerate(streams):
        ids[s, :len(stream)] = stream
        end[s, :len(stream)] = ends[s]
    live = end[:, 1:] > 0    # the steps whose target is in the stream
    inputs = np.where(live, ids[:, :width], pad)
    targets = np.where(live, ids[:, 1:width + 1], -1)
    if not future_k:
        return inputs, targets, None
    pos = np.arange(width)[:, None] + 1 + np.arange(1, future_k + 1)
    return inputs, targets, np.where(pos < end[:, :width, None], ids[:, pos], pad)


def make_null_aligned_batches(corpus, num_streams):
    """(rows, lengths) per `num_streams` consecutive sentences: the encoded
    sentences left-aligned in a rectangle, padded with NULL, and their
    lengths."""
    _check_streams(corpus, num_streams)
    batches = []
    for off in range(0, len(corpus.sentences), num_streams):
        group = corpus.sentences[off:off + num_streams]
        lengths = np.array([len(s) for s in group])
        rows = np.full((len(group), lengths.max()), corpus.vocab.null, dtype=np.int64)
        for r, sent in enumerate(group):
            rows[r, :len(sent)] = sent
        batches.append((rows, lengths))
    return batches
