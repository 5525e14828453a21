"""Back-off n-gram models: interpolated Kneser-Ney estimation and ARPA files.

Lower orders use continuation counts (how many distinct words precede an
n-gram); histories that start the sentence keep raw counts since nothing can
precede them.  A single fixed discount D per order gives

  P(w|h) = (max(c(h,w) - D, 0) + D * N1+(h) * P(w|h')) / c(h)
  bow(h) = D * N1+(h) / c(h)

which sums to one exactly over the support.  Probabilities and back-off
weights are stored in log10 to match the file format; the scoring API returns
natural logs.
"""

import collections
import math

from .corpus import SENT_BEGIN, DataError, bad_score, read_text, write_text
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
        # entries[m][(w1..wm)] = [log10 prob, log10 bow or None]
        self.entries = [None] + [dict() for _ in range(order)]

    def _lp10(self, hist, word):
        ent = self.entries[len(hist) + 1].get(hist + (word,))
        if ent is not None:
            return ent[0]
        if not hist:
            return float("-inf")
        bow = 0.0
        hent = self.entries[len(hist)].get(hist)
        if hent is not None and hent[1] is not None:
            bow = hent[1]
        return bow + self._lp10(hist[1:], word)

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
        """Word ids with a unigram entry (everything the model can emit)."""
        return [g[0] for g in self.entries[1]]


def train_kn(corpus, order, discount=0.75):
    """Interpolated Kneser-Ney over an encoded corpus.  The begin token gets
    the conventional impossible unigram, and the OOV word a floor count of 1."""
    if not 0.0 < discount < 1.0:
        raise ValueError("discount must lie in (0, 1)")
    vocab = corpus.vocab
    model = ArpaModel(vocab, order)
    begin = vocab.sent_begin

    raw = [None] + [collections.Counter() for _ in range(order)]
    for sent in corpus.sentences:
        for i in range(len(sent)):
            for m in range(1, order + 1):
                if i - m + 1 < 0:
                    break
                raw[m][tuple(sent[i - m + 1:i + 1])] += 1

    # unigram distribution
    uni = collections.Counter()
    if order == 1:
        for gram, c in raw[1].items():
            if gram[0] != begin:
                uni[gram[0]] += c
    else:
        for gram in raw[2]:
            uni[gram[1]] += 1
    if uni.get(vocab.oov, 0) == 0:
        uni[vocab.oov] = 1
    total = sum(uni.values())
    pint = [None, {}]
    for w, c in uni.items():
        p = c / total
        pint[1][(w,)] = p
        model.entries[1][(w,)] = [math.log10(p), None]
    if raw[1].get((begin,)):
        model.entries[1][(begin,)] = [LOG10_NEG_INF, None]

    for m in range(2, order + 1):
        # continuation counts, except for histories pinned to the sentence start
        if m == order:
            eff = raw[m]
        else:
            mod = collections.Counter()
            for gram in raw[m + 1]:
                mod[gram[1:]] += 1
            eff = {}
            for gram, c in raw[m].items():
                eff[gram] = c if gram[0] == begin else mod[gram]
        by_hist = collections.defaultdict(list)
        for gram, c in eff.items():
            by_hist[gram[:-1]].append((gram[-1], c))
        pint.append({})
        for hist, items in sorted(by_hist.items()):
            T = sum(c for _, c in items)
            n1p = len(items)
            bow = discount * n1p / T
            for w, c in items:
                p = (max(c - discount, 0.0) + discount * n1p * pint[m - 1][hist[1:] + (w,)]) / T
                pint[m][hist + (w,)] = p
                model.entries[m][hist + (w,)] = [math.log10(p), None]
            hent = model.entries[m - 1].get(hist)
            if hent is None:
                raise AssertionError("missing back-off context %r" % (hist,))
            hent[1] = math.log10(bow)
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
        for gram in sorted(model.entries[m]):
            lp, bow = model.entries[m][gram]
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
    probability)."""
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
        model.entries[current][tuple(gram)] = [lp, bow]
        seen[current] += 1
        i += 1
    raise FormatError("missing \\end\\ terminator", n)
