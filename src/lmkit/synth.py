"""Synthetic corpus and lattice fixtures with controllable future context.

The language interleaves a sentence-initial topic token, twelve content
words, and three layers of cue words.  Every content word is followed by
[coarse cue, pair cue, fine cue]: the coarse cue names its group of four,
the pair cue its pair within the group, the fine cue the word itself.  Each
extra word of future context therefore halves or quarters the candidate set
(12 -> 4 -> 2 -> 1), while the fine cue sits outside a trigram's reach of
the content word.  Under the two real topics the next content word follows
a topic-specific successor map with probability 0.8; under the neutral
topic it is uniform.  Cue words are frequent enough to learn but rare
enough to fall outside the output shortlist, so left-to-right models score
them only through the shared out-of-shortlist mass while future windows
still see their identities.

Confusion lattices plant one two-way choice per utterance at a content-word
slot; all other slots have a single arc, and the alternatives share every
following arc.  The distractor beats the truth by a fixed margin under the
acoustic plus n-gram score.  Which rescoring stage can repair it depends on
what the distractor disagrees with: the topic's successor map (left
context, kind "topic"), the coarse cue one word ahead (kind "coarse"), or
only the fine cue three words ahead (kind "fine", the truth's pair partner,
which shares both its coarse and pair cues)."""

import random
from dataclasses import dataclass

from .lattice import Arc, Lattice, Node


class SyntheticLanguage:
    def __init__(self):
        self.topics = ["t1", "t2", "tn"]
        self.xs = ["x%02d" % (i + 1) for i in range(12)]
        self.coarse = [["ya%03d" % (g * 40 + j) for j in range(40)]
                       for g in range(3)]
        self.mid = [["yc%03d" % (p * 20 + j) for j in range(20)]
                    for p in range(6)]
        self.fine = [["yb%03d" % (i * 10 + j) for j in range(10)]
                     for i in range(12)]

    def group(self, xi):
        return xi // 4

    def pair(self, xi):
        return xi // 2

    def successor(self, topic, xi):
        if topic == "t1":
            return (xi + 1) % 12
        if topic == "t2":
            return (xi + 6) % 12
        return None

    def sample_sentence(self, rng, topic=None, blocks=None):
        """One sentence plus per-block metadata tuples
        (block, word position of the content word, content index,
        previous content index, whether the successor map was followed)."""
        if topic is None:
            topic = self.topics[rng.randrange(3)]
        if blocks is not None:
            n_blocks = blocks
        else:
            # utterance lengths have a heavy tail, like real speech
            n_blocks = 2
            while n_blocks < 16 and rng.random() < 0.75:
                n_blocks += 1
        words = [topic]
        meta = []
        x = rng.randrange(12)
        prev = None
        for b in range(n_blocks):
            followed = False
            if b > 0:
                prev = x
                succ = self.successor(topic, prev)
                if succ is not None and rng.random() < 0.8:
                    x = succ
                else:
                    x = rng.randrange(12)
                followed = succ is not None and x == succ
            meta.append((b, len(words), x, prev, followed))
            words.append(self.xs[x])
            words.append(self.coarse[self.group(x)][rng.randrange(40)])
            words.append(self.mid[self.pair(x)][rng.randrange(20)])
            words.append(self.fine[x][rng.randrange(10)])
        return words, meta


def build_corpus_lines(lang, seed, min_tokens):
    """Sentences until the predicted-token count reaches min_tokens."""
    rng = random.Random(seed)
    lines = []
    tokens = 0
    while tokens < min_tokens:
        words, _ = lang.sample_sentence(rng)
        lines.append(" ".join(words))
        tokens += len(words) + 1
    return lines


@dataclass
class ConfusionUtterance:
    name: str
    kind: str
    lattice: Lattice
    ref: list


def confusion_sausage(ngram_model, ref_words, alt_pos, alt_word, extra, rng):
    """A linear lattice over the reference with one extra arc at alt_pos.
    Acoustic scores are set so the distractor path beats the truth path by
    exactly `extra` under acoustic plus arc lm score."""
    vocab = ngram_model.vocab
    ids = vocab.encode(ref_words)
    nodes = [Node(i, 0.3 * i) for i in range(len(ref_words) + 1)]
    arcs = []
    for i, w in enumerate(ref_words):
        hist = tuple(ids[:i + 1])
        lm = ngram_model.logprob(hist, ids[i + 1])
        ac = -2.0 + rng.uniform(-0.5, 0.5)
        arcs.append(Arc(len(arcs), i, i + 1, w, ac, lm))
        if i == alt_pos:
            lm_d = ngram_model.logprob(hist, vocab.id_of(alt_word))
            arcs.append(Arc(len(arcs), i, i + 1, alt_word,
                            ac + (lm - lm_d) + extra, lm_d))
    return Lattice(nodes, arcs).finish()


def _plant(lang, rng, kind):
    """Pick a sentence, an error slot, and a distractor for one utterance."""
    while True:
        topic = ("t1", "t2")[rng.randrange(2)] if kind == "topic" else "tn"
        words, meta = lang.sample_sentence(rng, topic=topic,
                                           blocks=rng.randint(3, 5))
        cands = []
        for b, pos, xi, prev, followed in meta:
            if b == 0:
                continue
            succs = {lang.successor("t1", prev), lang.successor("t2", prev)}
            if kind == "topic":
                if followed:
                    cands.append((pos, xi, prev))
            elif xi not in succs:
                # keep the planted slot (and, for "fine", its pair partner)
                # off the successor images, so neither candidate picks up a
                # stray preference from the topic mixture the models smear
                # over neutral sentences
                if kind == "fine" and (xi ^ 1) in succs:
                    continue
                cands.append((pos, xi, prev))
        if not cands:
            continue
        pos, xi, prev = cands[rng.randrange(len(cands))]
        succs = {lang.successor("t1", prev), lang.successor("t2", prev)}
        if kind == "topic":
            other = "t2" if topic == "t1" else "t1"
            dist = lang.successor(other, prev)
        elif kind == "coarse":
            choices = [j for j in range(12)
                       if lang.group(j) != lang.group(xi) and j not in succs]
            dist = choices[rng.randrange(len(choices))]
        else:
            dist = xi ^ 1
        return words, pos, lang.xs[dist]


def build_confusion_set(lang, ngram_model, seed, per_kind=80, extra=0.8):
    rng = random.Random(seed)
    utts = []
    for i in range(per_kind):
        for kind in ("topic", "coarse", "fine"):
            words, pos, alt = _plant(lang, rng, kind)
            lat = confusion_sausage(ngram_model, words, pos, alt, extra, rng)
            utts.append(ConfusionUtterance("utt%04d" % len(utts), kind, lat, words))
    return utts

