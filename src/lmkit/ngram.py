"""Back-off n-gram models: interpolated Kneser-Ney estimation and ARPA files.

Lower orders use continuation counts (how many distinct words precede an
n-gram); histories that start the sentence keep raw counts since nothing can
precede them.  A single fixed discount D per order gives

  P(w|h) = (max(c(h,w) - D, 0) + D * N1+(h) * P(w|h')) / c(h)
  bow(h) = D * N1+(h) / c(h)

which sums to one exactly over the support.  Probabilities and back-off
weights are stored in log10 to match the file format; the scoring API returns
natural logs.

A model is two flat tables per order m: `entries[m]` maps each m-gram, a
tuple of word ids, to its log10 probability, and `bows[m]` maps each m-gram
that is a history to its log10 back-off weight.  The estimator holds no
n-gram as a Python object until it builds those tables, whose tuples share
one int object per word id.  It sorts the
corpus once per order: an m-gram is the index of its (m-1)-gram prefix
times the vocabulary size plus its last word, so the sorted keys list the
distinct m-grams in tuple order with each history's words side by side,
and every position of the corpus knows the index of the m-gram ending
there (none crosses a sentence).  Continuation counts, history totals and
type counts are then bincounts and `reduceat` sums over those arrays.  The
probabilities are computed elementwise with the operand order of the
formula above; IEEE subtraction, multiplication and division round alike
in numpy and Python, so every value has the bits of the per-n-gram
computation.  log10 stays `math.log10`, one value at a time, because
`np.log10` differs from it in the last bit on some values, and the scores
and ARPA files would no longer be those of the per-n-gram estimator.
"""

import collections
import itertools
import math

import numpy as np

from .corpus import DataError, bad_score, read_text, write_text
from .evaluate import ordered_sum

LN10 = math.log(10.0)
LOG10_NEG_INF = -99.0


class FormatError(DataError):
    pass


class ArpaModel:
    """Back-off model keyed by word-id tuples, bound to a vocabulary."""

    def __init__(self, vocab, order):
        if order < 1:
            raise ValueError("order must be at least 1")
        self.vocab = vocab
        self.order = order
        # entries[m][(w1..wm)] = log10 prob; bows[m][(w1..wm)] = log10 bow
        self.entries = [None] + [dict() for _ in range(order)]
        self.bows = [None] + [dict() for _ in range(order)]

    def _lp10(self, hist, word):
        lp = self.entries[len(hist) + 1].get(hist + (word,))
        if lp is not None:
            return lp
        if not hist:
            return float("-inf")
        return self.bows[len(hist)].get(hist, 0.0) + self._lp10(hist[1:], word)

    def logprob(self, history, word):
        """Natural-log conditional probability; history longer than order-1
        is truncated on the left."""
        hist = tuple(history)
        if len(hist) > self.order - 1:
            hist = hist[len(hist) - self.order + 1:]
        lp = self._lp10(hist, word)
        return lp * LN10

    def sentence_word_logprobs(self, ids):
        out = []
        for t in range(1, len(ids)):
            out.append(self.logprob(ids[:t], ids[t]))
        return out

    def sentence_logprob(self, ids):
        return ordered_sum(self.sentence_word_logprobs(ids))

    def support(self):
        """Word ids with a unigram entry (everything the model can emit), in
        ascending order."""
        return sorted(g[0] for g in self.entries[1])


# the distinct m-grams of one order, sorted as tuples: per n-gram the index
# of its (m-1)-gram prefix (`hist`, 0 for unigrams), its last word, its
# count, the index of its (m-1)-gram suffix (None for unigrams) and whether
# it starts with the begin token
_Grams = collections.namedtuple("_Grams", "hist word count suffix pinned")


def _count_grams(corpus, order):
    """_Grams of orders 1..order, in that order, over the encoded
    sentences."""
    sents = corpus.sentences
    V = len(corpus.vocab)
    lengths = np.fromiter(map(len, sents), np.int64, len(sents))
    ids = np.fromiter(itertools.chain.from_iterable(sents), np.int64, int(lengths.sum()))
    # each token's position inside its sentence
    pos = np.arange(len(ids)) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    levels = []
    at = None    # per position, the index of the (m-1)-gram ending there
    for m in range(1, order + 1):
        ends = np.flatnonzero(pos >= m - 1)
        key = ids[ends] if m == 1 else at[ends - 1] * V + ids[ends]
        keys, inv, count = np.unique(key, return_inverse=True, return_counts=True)
        hist, word = np.divmod(keys, V)
        # one end position per n-gram: its suffix is the (m-1)-gram ending there
        one = np.empty(len(keys), np.int64)
        one[inv] = ends
        if m == 1:
            suffix, pinned = None, word == corpus.vocab.sent_begin
        else:
            suffix, pinned = at[one], levels[-1].pinned[hist]
        levels.append(_Grams(hist, word, count, suffix, pinned))
        at = np.full(len(ids), -1, np.int64)
        at[ends] = inv
    return levels


def train_kn(corpus, order, discount=0.75):
    """Interpolated Kneser-Ney over an encoded corpus.  The begin token gets
    the conventional impossible unigram, and the OOV word a floor count of 1."""
    if not 0.0 < discount < 1.0:
        raise ValueError("discount must lie in (0, 1)")
    vocab = corpus.vocab
    model = ArpaModel(vocab, order)
    levels = _count_grams(corpus, order)

    # unigram distribution over the vocabulary: raw counts for a unigram
    # model, else how many distinct words precede each word
    g1 = levels[0]
    if order == 1:
        counts = np.where(g1.pinned, 0, g1.count)
    else:
        counts = np.bincount(levels[1].suffix, minlength=len(g1.word))
    uni = np.zeros(len(vocab), np.int64)
    uni[g1.word] = counts
    if uni[vocab.oov] == 0:
        uni[vocab.oov] = 1
    p_uni = uni / int(uni.sum())
    # one tuple, and so one int object, per word id; the longer n-grams
    # extend these
    words = g1.word.tolist()
    unigram = {w: (w,) for w in words}
    unigram.setdefault(vocab.oov, (vocab.oov,))
    model.entries[1] = {unigram[w]: math.log10(p_uni[w])
                        for w in np.flatnonzero(uni).tolist()}
    if vocab.sent_begin in unigram:
        model.entries[1][unigram[vocab.sent_begin]] = LOG10_NEG_INF

    prev_keys = [unigram[w] for w in words]
    p_prev = p_uni[g1.word]
    for m in range(2, order + 1):
        g = levels[m - 1]
        # continuation counts, except for histories pinned to the sentence start
        if m == order:
            eff = g.count
        else:
            cont = np.bincount(levels[m].suffix, minlength=len(g.word))
            eff = np.where(g.pinned, g.count, cont)
        starts = np.flatnonzero(np.diff(g.hist, prepend=-1))
        n1p = np.diff(starts, append=len(g.hist))
        T = np.add.reduceat(eff, starts)
        p = ((np.maximum(eff - discount, 0.0) + discount * np.repeat(n1p, n1p) * p_prev[g.suffix])
             / np.repeat(T, n1p))
        keys = [prev_keys[h] + unigram[w]
                for h, w in zip(g.hist.tolist(), g.word.tolist())]
        model.entries[m] = dict(zip(keys, map(math.log10, p.tolist())))
        model.bows[m - 1] = dict(zip([prev_keys[h] for h in g.hist[starts].tolist()],
                                     map(math.log10, (discount * n1p / T).tolist())))
        prev_keys, p_prev = keys, p
    return model


def save_arpa(model, path):
    """Canonical ARPA text: counts header, per-order sections sorted by word
    ids, %.7f log10 fields separated by tabs."""
    lines = ["\\data\\"]
    for m in range(1, model.order + 1):
        lines.append("ngram %d=%d" % (m, len(model.entries[m])))
    for m in range(1, model.order + 1):
        lines.append("")
        lines.append("\\%d-grams:" % m)
        entries, bows = model.entries[m], model.bows[m]
        for gram in sorted(entries):
            lp, bow = entries[gram], bows.get(gram)
            text = " ".join(model.vocab.words[w] for w in gram)
            if bow is None:
                lines.append("%.7f\t%s" % (lp, text))
            else:
                lines.append("%.7f\t%s\t%.7f" % (lp, text, bow))
    lines.append("")
    lines.append("\\end\\")
    write_text(path, "\n".join(lines) + "\n")


def load_arpa(path, vocab):
    """Parse an ARPA file against a vocabulary.  Raises FormatError naming
    the file and the offending line on malformed input.  NaN and +inf log
    probabilities and back-off weights are rejected; -inf is kept (a zero
    probability).  An n-gram listed twice is an error."""
    raw_lines = read_text(path).splitlines()
    try:
        return _parse_arpa(raw_lines, vocab)
    except FormatError as e:
        raise e.in_file(path) from None


def _parse_arpa(raw_lines, vocab):
    counts = {}
    order = 0
    i = 0
    n = len(raw_lines)
    while i < n and not raw_lines[i].strip():
        i += 1
    if i >= n or raw_lines[i].strip() != "\\data\\":
        raise FormatError("expected \\data\\ header", i + 1)
    i += 1
    while i < n:
        line = raw_lines[i].strip()
        if not line:
            break
        if not line.startswith("ngram "):
            raise FormatError("expected 'ngram N=count' in header", i + 1)
        try:
            m_txt, c_txt = line[len("ngram "):].split("=")
            m, c = int(m_txt), int(c_txt)
        except ValueError:
            raise FormatError("malformed count declaration", i + 1)
        counts[m] = c
        order = max(order, m)
        i += 1
    if not counts or sorted(counts) != list(range(1, order + 1)):
        raise FormatError("incomplete n-gram count declarations", i)
    model = ArpaModel(vocab, order)
    seen = {m: 0 for m in counts}
    current = None
    while i < n:
        line = raw_lines[i].strip()
        if not line:
            i += 1
            continue
        if line == "\\end\\":
            for m in range(1, order + 1):
                if seen[m] != counts[m]:
                    raise FormatError(
                        "order %d declares %d entries but has %d" % (m, counts[m], seen[m]),
                        i + 1)
            return model
        if line.endswith("-grams:") and line.startswith("\\"):
            try:
                current = int(line[1:line.index("-")])
            except ValueError:
                raise FormatError("malformed section header", i + 1)
            if current not in counts:
                raise FormatError("section order %d not declared" % current, i + 1)
            i += 1
            continue
        if current is None:
            raise FormatError("entry outside any section", i + 1)
        fields = line.split()
        if len(fields) not in (current + 1, current + 2):
            raise FormatError("expected %d words per entry" % current, i + 1)
        try:
            lp = float(fields[0])
            bow = float(fields[current + 1]) if len(fields) == current + 2 else None
        except ValueError:
            raise FormatError("malformed numeric field", i + 1)
        if bad_score(lp) or (bow is not None and bad_score(bow)):
            raise FormatError("numeric field is not finite", i + 1)
        gram = []
        for wtxt in fields[1:current + 1]:
            if wtxt not in vocab.index:
                raise FormatError("word %r not in vocabulary" % wtxt, i + 1)
            gram.append(vocab.index[wtxt])
        gram = tuple(gram)
        if gram in model.entries[current]:
            raise FormatError("duplicate %d-gram" % current, i + 1)
        model.entries[current][gram] = lp
        if bow is not None:
            model.bows[current][gram] = bow
        seen[current] += 1
        i += 1
    raise FormatError("missing \\end\\ terminator", n)
