"""Reference walks the tests compare the library against.

The library scores and trains through stacked calls; these are the plain
one-position forms those calls must reproduce, the per-gate GRU step the
training kernels must reproduce, the whole-corpus pass the
finite-difference checks differentiate, the dictionary Kneser-Ney
estimator whose tables the sort-based one must reproduce bit for bit, and
the path enumeration of small random lattices that the lattice search,
posteriors and rescoring are checked against.
"""

import collections
import math

import numpy as np

from lmkit import nn
from lmkit.lattice import Arc, Lattice, LatticeError, Node
from lmkit.ngram import LOG10_NEG_INF


def future_window(pad, ids, t, k):
    """The k ids after position t of one encoded sentence, PAD past its
    end."""
    win = tuple(ids[t + 1:t + 1 + k])
    return win + (pad,) * (k - len(win))


def gru_step(cell, x, h_prev):
    """The per-gate GRU step: x (..., D) and h_prev (..., H) give h and the
    cache `nn.GruCell.backward` takes (`nn.GruCell.step` returns h alone).
    Each gate takes its own input and state products with the per-gate
    views of `cell.p`, six products in all.  nn.gru_span run over a span
    has the bytes of this step run step by step, on 2-d stacks too, where
    the fused (2H)-wide products of `nn.GruCell.step` can round
    differently."""
    p = cell.p
    H = cell.hidden_size
    zr = nn.sigmoid(np.concatenate(
        [x @ p["Wz"].T + h_prev @ p["Uz"].T + p["bz"],
         x @ p["Wr"].T + h_prev @ p["Ur"].T + p["br"]], axis=-1))
    z = zr[..., :H]
    r = zr[..., H:]
    rh = r * h_prev
    c = np.tanh(x @ p["Wh"].T + rh @ p["Uh"].T + p["bh"])
    h = (1.0 - z) * h_prev + z * c
    return h, (x, h_prev, z, r, rh, c)


def step(model, h, prev_id, window=None, alpha=1.0):
    """One prediction step of a uni or su model: consume `prev_id`, then
    return the smoothed output distribution and the new state."""
    h = model.advance(h, prev_id)
    return model.output_dist(h, window, alpha), h


def full_pass(model, batches, grads=None):
    """(loss, tokens) summed over every update of one full-backprop pass
    (no bptt truncation) over `batches`, built once by `model._batches`,
    through one workspace.  Every update adds its gradients into `grads`
    unless that is None."""
    loss, tokens = 0.0, 0
    for update_loss, update_tokens, _ in model._updates(batches, nn.Workspace(), grads):
        loss += update_loss
        tokens += update_tokens
    return loss, tokens


def train_kn(corpus, order, discount=0.75):
    """Interpolated Kneser-Ney as `ngram.train_kn` computes it, over
    Counters keyed by n-gram tuples: tables[m][(w1..wm)] = [log10 prob,
    log10 bow or None]."""
    vocab = corpus.vocab
    tables = [None] + [dict() for _ in range(order)]
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
        tables[1][(w,)] = [math.log10(p), None]
    if raw[1].get((begin,)):
        tables[1][(begin,)] = [LOG10_NEG_INF, None]

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
                tables[m][hist + (w,)] = [math.log10(p), None]
            hent = tables[m - 1].get(hist)
            if hent is None:
                raise AssertionError("missing back-off context %r" % (hist,))
            hent[1] = math.log10(bow)
    return tables


def enumerate_paths(lat, limit=100000):
    """All complete paths as arc-id tuples, in depth-first arc-id order."""
    out = []
    stack = [(lat.initial, ())]
    while stack:
        u, arc_ids = stack.pop()
        if u == lat.final:
            out.append(arc_ids)
            continue
        for aid in reversed(lat.out_ids[lat.out_off[u]:lat.out_off[u + 1]]):
            stack.append((lat.arcs[aid].end, arc_ids + (aid,)))
        if len(out) > limit:
            raise LatticeError("more than %d paths" % limit)
    return out


def path_words(lat, arc_ids):
    return [lat.arcs[aid].word for aid in arc_ids]


def random_dag_lattice(rng, words, max_paths=64):
    """A small random DAG lattice with at most max_paths complete paths."""
    while True:
        n = rng.randint(4, 8)
        pairs = [(i, i + 1) for i in range(n - 1)]
        for _ in range(rng.randint(1, 5)):
            i = rng.randrange(n - 1)
            pairs.append((i, rng.randint(i + 1, n - 1)))
        arcs = [Arc(j, s, e, words[rng.randrange(len(words))],
                    -3.0 * rng.random(), -2.0 * rng.random())
                for j, (s, e) in enumerate(pairs)]
        lat = Lattice([Node(i, float(i)) for i in range(n)], arcs).finish()
        try:
            enumerate_paths(lat, limit=max_paths)
        except LatticeError:
            continue
        return lat
