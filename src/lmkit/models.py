"""The three recurrent LM architectures.

All of them share one word embedding table and a softmax output layer over the
shortlist plus a single out-of-shortlist slot:

  uni: P(w_t | w_1..w_{t-1}) from a left-to-right GRU.
  bi:  P(w_t | w_1..w_{t-1}, w_{t+1}..w_L) from two GRUs, contexts concatenated.
  su:  P(w_t | w_1..w_{t-1}, w_{t+1}..w_{t+k}) from the uni GRU plus a
       feedforward unit over the k succeeding word embeddings.

They differ only in the recurrent part; the base `Rnnlm` holds the rest:
construction, parameters, the container, the per-word lookup and one
sentence's word scores, the output layer with its loss and gradients,
and `_sgd_train` (plain SGD with global-norm clipping).  A subclass gives
`word_logprobs(seqs, alpha)`, `_batches` (its training arrays) and
`_updates` (the loss, tokens and rows of each update, whose gradients it
adds into a dict the caller owns).  uni is su with k=0: `UniRnnlm`
implements both, the future unit guarded by `k`, and `SuRnnlm` only sets
k.  bi and su scores are unnormalized over sentences, so only per-word
pseudo perplexity is meaningful for them.
Gradients are hand derived.  The benchmark's tracer wraps methods at their
class's own attributes, so `UniRnnlm` and `BiRnnlm` keep `train` (a call
into the base) and `word_logprob_from_dist` (the base's, bound again) as
their own.

uni and su score only through `advance` and `output_dist`, one state or a
(B, H) stack whose row i has the bytes of the call on row i alone: per
frontier in lattice rescoring; in a `PrefixTrie` of up to `TRIE_SENTENCES`
sentences the recurrence steps once per depth and the output layer runs
once per run of depths within `TRIE_DIST_ELEMENTS`.  Their calls are small
(a few rows to a few hundred), so they go straight to numpy: `advance` is
one nn.gru_step, whose cell takes both gates through one product per z/r
block, and `output_dist` runs the future unit (the `_context_rows`
training uses, on nn.FRESH arrays), the output layer and `smooth` on
(B, 1, .) row views, with no workspace.  bi scores one sentence at a
time, through one workspace, its output layer one call per sentence.  A
word's log probability is `interpolate.safe_ln` of its output slot;
`load_rnnlm` rejects non-finite weights, so no NaN reaches it.

Training works a span at a time on the arrays corpus builds (its builders
looked up as this module's attributes, where the tracer wraps them): a
bptt span of the spliced rectangles (uni, su) or a batch of sentences (bi)
is held as (time, rows, width) stacks.
Only the GRU recurrence loops over time (nn.gru_span); the future unit,
the output layer, softmax and loss, and every weight gradient are stacked
products over the span, one gemm per step inside each, summed in the
order the step loop used.  The results have the bytes of the step-by-step
pass written with the per-gate GRU step of tests/oracles.py and
GruCell.backward, which no trainer calls: it stays in nn as the tests'
one-step reference, and the tracer wraps it by name.

Every span takes its stacks from one nn.Workspace per training loop
(`_sgd_train` across its epochs), so the spans after the first write into
memory already in use, and every update adds its gradients into one dict
the loop owns: `_sgd_train` zeroes it after each update, so each update's
gradients start from zero.  The loop drops both when it returns: nothing
is held between `train()` calls, and a copy of a model carries no
buffers.  The state a span carries into the next is copied out of the
workspace, which the next span overwrites.
"""

import math
import time
from dataclasses import dataclass

import numpy as np

from . import nn
from .corpus import DataError, Vocabulary, make_null_aligned_batches, make_spliced_batches
from .interpolate import safe_ln

# sentences per prefix trie: a trie depth holds one hidden state and one
# output row per distinct prefix (or prefix and window) of its sentences;
# any split gives the same bytes, the calls being row exact
TRIE_SENTENCES = 128
# distribution elements (rows times output slots) one output_dist call of a
# PrefixTrie may hold: it takes the rows of consecutive depths up to this,
# and always one depth's, so this (or one depth) bounds a scorer's memory
TRIE_DIST_ELEMENTS = 1 << 16


def smooth(logits, alpha):
    """Softmax of alpha-scaled activations.  alpha=1 is exactly the softmax;
    smaller alpha flattens the distribution without changing the argmax."""
    logits = np.asarray(logits)
    if alpha == 1.0:
        return nn.softmax(logits)
    return nn.softmax(alpha * logits)


@dataclass
class Hyper:
    epochs: int = 8
    lr: float = 0.5
    lr_decay: float = 0.9
    num_streams: int = 8
    bptt: int = 32
    clip: float = 5.0

    def __post_init__(self):
        # refused at construction: bptt 0 would fail inside training, epochs
        # 0 train nothing and a clip below 0 train uphill
        for name in ("epochs", "num_streams", "bptt"):
            value = getattr(self, name)
            if not value >= 1:
                raise ValueError("%s must be at least 1, got %r" % (name, value))
        for name in ("lr", "lr_decay", "clip"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError("%s must be a finite positive number, got %r"
                                 % (name, value))


class PrefixTrie:
    """Encoded sentences (begin and end tokens included) merged into a prefix
    trie.  Per depth t, a model makes one `advance` over the distinct
    prefixes ids[:t], and its output layer takes one row per distinct
    prefix (k = 0) or (prefix, window) pair, the window being the k ids
    after position t, PAD past the end; see `dists`.  `visits[t - 1]`
    lists (sentence, prefix row, pair row) for every sentence that reaches
    depth t.  The stacked calls are row exact, so a sentence scores the
    same in any set."""

    def __init__(self, seqs, k, pad):
        levels = []
        self.visits = visits = []
        for i, ids in enumerate(seqs):
            row = 0
            padded = tuple(ids) + (pad,) * k
            for t in range(1, len(ids)):
                if t > len(levels):
                    levels.append(({}, {}))
                    visits.append([])
                rows, pairs = levels[t - 1]
                row = rows.setdefault((row, ids[t - 1]), len(rows))
                pair = (row,) + padded[t + 1:t + 1 + k]
                visits[t - 1].append((i, row, pairs.setdefault(pair, len(pairs))))
        # per depth, for every model: parent rows, words, (row, *window) pairs
        self.levels = [(*np.array(list(rows), dtype=np.int64).T,
                        np.array(list(pairs), dtype=np.int64))
                       for rows, pairs in levels]

    def dists(self, model, alpha=1.0):
        """Yield `model`'s output distributions depth by depth: one row per
        prefix when model.k is 0, else one per pair (the trie's k must be
        the model's).  The recurrence steps once per depth; the output layer
        runs once per run of consecutive depths whose rows times output
        slots stay within TRIE_DIST_ELEMENTS (one depth at least), and each
        depth gets a view of its rows of that call."""
        h = model.zero_state()[None]
        run, rows = [], 0
        for parents, words, pairs in self.levels:
            h = model.advance(h[parents], words)
            depth = (h[pairs[:, 0]], pairs[:, 1:]) if model.k else (h, None)
            if run and (rows + len(depth[0])) * model.vocab.output_size > TRIE_DIST_ELEMENTS:
                yield from _depth_views(model, run, alpha)
                run, rows = [], 0
            run.append(depth)
            rows += len(depth[0])
        if run:
            yield from _depth_views(model, run, alpha)


def _depth_views(model, run, alpha):
    """The output distributions of a run of trie depths' (states, windows)
    through one output_dist call, split into one view per depth."""
    states, windows = zip(*run)
    dist = model.output_dist(np.concatenate(states),
                             np.concatenate(windows) if model.k else None, alpha)
    return np.split(dist, np.cumsum([len(h) for h in states[:-1]]))


def prefix_tries(seqs, k, pad):
    """Yield (run, PrefixTrie of run) over consecutive runs of at most
    TRIE_SENTENCES of the encoded sentences `seqs`, in order."""
    for lo in range(0, len(seqs), TRIE_SENTENCES):
        run = seqs[lo:lo + TRIE_SENTENCES]
        yield run, PrefixTrie(run, k, pad)


class Rnnlm:
    """What every architecture shares; see the module docstring.  A subclass
    provides `word_logprobs(seqs, alpha)`, `_batches(corpus, num_streams)`
    and `_updates(batches, ws, grads, span)`, which adds each update's
    gradients into `grads` (None: loss only)."""

    def _build(self, vocab, hidden, embed, seed, dtype, cells, k, future_hidden):
        """Draw the weights: the embedding, one GRU per name in `cells` (kept
        as that attribute), the future unit when k > 0, the output layer.
        future_hidden None (bi: no future unit) keeps it out of the header."""
        if hidden < 1 or embed < 1:
            raise ValueError("hidden and embed sizes must be at least 1")
        if k < 0 or (k and future_hidden < 1):
            raise ValueError("need succ >= 0 and, with succ > 0, future_hidden >= 1")
        self.vocab = vocab
        self.hidden = hidden
        self.embed = embed
        self.dtype = dtype
        self.k = k
        self.future_hidden = future_hidden
        # creation order is fixed so equal seeds give equal weights; with k=0
        # the future unit draws nothing, so su k=0 weights match uni
        rng = np.random.default_rng(seed)
        self.emb = nn.uniform_init(rng, (len(vocab), embed), dtype=dtype)
        self.emb[vocab.pad] = 0.0
        self.cells = [nn.GruCell(embed, hidden, rng, dtype=dtype, prefix=name)
                      for name in cells]
        for cell in self.cells:
            setattr(self, cell.prefix, cell)
        if k:
            self.fut_w = nn.uniform_init(rng, (future_hidden, k * embed), dtype=dtype)
            self.fut_b = nn.uniform_init(rng, (future_hidden,), dtype=dtype)
        out = vocab.output_size
        width = len(cells) * hidden + (future_hidden or 0)
        self.out_w = nn.uniform_init(rng, (out, width), dtype=dtype)
        self.out_b = nn.uniform_init(rng, (out,), dtype=dtype)

    def params(self):
        p = {"emb": self.emb, "out.W": self.out_w, "out.b": self.out_b}
        for cell in self.cells:
            p.update(cell.params())
        if self.k:
            p.update({"fut.W": self.fut_w, "fut.b": self.fut_b})
        return p

    # ---- scoring ----

    def word_logprob_from_dist(self, dist, word_id):
        """Log probability of a word id, dividing the out-of-shortlist slot
        mass uniformly over the words it covers."""
        p = dist[self.vocab.output_index(word_id)]
        if self.vocab.is_oos(word_id):
            return safe_ln(p) - math.log(self.vocab.n_oos)
        return safe_ln(p)

    def sentence_word_logprobs(self, ids, alpha=1.0):
        """word_logprobs of one encoded sentence."""
        return self.word_logprobs([ids], alpha)[0]

    # ---- training ----

    def _embed(self, ids, ws, name):
        """The embedding rows of an array of word ids, gathered into
        workspace `ws` under `name`.  The ids are the vocabulary's; numpy's
        bounds-checked take would go through a fresh copy of the result."""
        return self.emb.take(ids, axis=0, mode="wrap",
                             out=ws.take(name, np.shape(ids) + (self.embed,), self.dtype))

    def _output_loss(self, ctx, slots, mask, grads, ws, reverse=True):
        """Output layer, softmax and loss over a (T, S, C) stack of contexts;
        slots and mask (T, S) give each cell's target slot and whether it
        counts.  Each step's loss is summed over its rows, then the steps in
        order, as a step loop would.  Returns (loss, tokens, dctx).  With a
        `grads` dict, the output layer's gradients are added into it, its
        steps summed last first when `reverse`, and dctx is the contexts'
        gradient, taken from workspace `ws`; without, dctx is None."""
        T, S = mask.shape
        dist = np.matmul(ctx, self.out_w.T,
                         out=ws.take("out.dist", (T, S, len(self.out_b)), self.dtype))
        dist += self.out_b
        nn.softmax(dist, out=dist)
        cells = (np.arange(T)[:, None], np.arange(S), slots)
        steps = (np.log(dist[cells], where=mask, out=np.zeros(mask.shape)) * mask).sum(axis=1)
        loss = 0.0
        for step in steps:
            loss -= float(step)
        tokens = int(mask.sum())
        if grads is None:
            return loss, tokens, None
        dist[cells] -= 1.0
        dist[~mask] = 0.0
        nn.add_span_grads(grads, "out.W", "out.b", dist, ctx, ws, reverse)
        return loss, tokens, np.matmul(dist, self.out_w,
                                       out=ws.take("out.dctx", ctx.shape, self.dtype))

    def _sgd_train(self, corpus, hyper):
        """The epoch loop every architecture trains with.  Each epoch takes
        the (loss, tokens, rows) of `_updates` with span `hyper.bptt`, the
        update's gradients summed into the loop's one dict, which is divided
        by the rows before the clipped SGD step and zeroed after it.  Every
        span of every epoch takes its stacks from one workspace; the loop
        drops it and the dict when it returns.  Returns per-epoch mean
        loss, the largest pre-clip gradient norm of each epoch and how many
        of its updates were clipped, token counts, and wall-clock words per
        second."""
        batches = self._batches(corpus, hyper.num_streams)
        ws = nn.Workspace()
        params = self.params()
        grads = nn.zeros_like_params(params)
        history, norm_max, clipped = [], [], []
        total_tokens = 0
        t_start = time.perf_counter()
        lr = hyper.lr
        for _ in range(hyper.epochs):
            ep_loss, ep_tokens, ep_norm, ep_clipped = 0.0, 0, 0.0, 0
            for loss, tokens, rows in self._updates(batches, ws, grads, hyper.bptt):
                if not np.isfinite(loss):
                    raise nn.NumericError("non-finite training loss")
                if tokens:
                    # mean over rows, sum over the steps; clipping tames the rest
                    for g in grads.values():
                        g /= rows
                    norm = float(nn.sgd_step(params, grads, lr, hyper.clip))
                    ep_norm = max(ep_norm, norm)
                    if norm > hyper.clip:
                        ep_clipped += 1
                for g in grads.values():
                    g.fill(0.0)
                ep_loss += loss
                ep_tokens += tokens
            self.emb[self.vocab.pad] = 0.0
            nn.check_finite(params)
            history.append(ep_loss / max(ep_tokens, 1))
            norm_max.append(ep_norm)
            clipped.append(ep_clipped)
            total_tokens += ep_tokens
            lr *= hyper.lr_decay
        wall = time.perf_counter() - t_start
        return {
            "epoch_loss": history,
            "grad_norm_max": norm_max,
            "clipped_updates": clipped,
            "tokens": total_tokens,
            "seconds": wall,
            "wps": total_tokens / wall if wall > 0 else float("inf"),
        }

    # ---- persistence ----

    def _header(self):
        header = {
            "arch": self.arch,
            "vocab_size": len(self.vocab),
            "shortlist_size": self.vocab.shortlist_size,
            "embed": self.embed,
            "hidden": self.hidden,
            "succ": self.k,
            "dtype": str(np.dtype(self.dtype)),
            "words": self.vocab.words,
        }
        if self.future_hidden is not None:
            header["future_hidden"] = self.future_hidden
        return header

    def save(self, path):
        nn.save_model(path, self._header(), self.params())

    def _restore(self, tensors, path):
        for name, arr in self.params().items():
            if name not in tensors or tensors[name].shape != arr.shape:
                raise DataError("model container lacks tensor %s of shape %s"
                                % (name, arr.shape), path=path)
            arr[...] = tensors[name]


class UniRnnlm(Rnnlm):
    """Left-to-right GRU language model.  With k > 0 (see SuRnnlm) a tanh
    feedforward unit over the k succeeding word embeddings joins the GRU
    state in the output layer's context."""

    arch = "uni"

    def __init__(self, vocab, hidden=32, embed=16, seed=0, dtype=np.float64):
        self._build(vocab, hidden, embed, seed, dtype, ("gru",), 0, 0)

    def zero_state(self):
        return np.zeros(self.hidden, dtype=self.dtype)

    def advance(self, h, prev_id):
        """Consume one word id, returning the next hidden state.  A stack of
        states (B, H) with B word ids gives the B next states; row i equals
        the call on row i alone."""
        # take, not fancy indexing: the same rows at a third of the call cost
        return nn.gru_step(self.gru, self.emb.take(prev_id, axis=0), h)

    def output_dist(self, h, window=None, alpha=1.0):
        """Smoothed output distribution from state h and, when k > 0, the k
        succeeding word ids in `window`.  A stack of states (B, H) takes a
        (B, k) stack of windows, and row i equals the call on row i alone."""
        rows = h.ndim > 1
        if rows:
            # (B, 1, .) row views, so every product is one per row
            h = h[:, None]
        if self.k:
            window = np.asarray(window)
            if rows and window.ndim == 2:
                # (B, 1, k); any other shape fails _context_rows' check
                window = window[:, None]
            h, _ = self._context_rows(h, window, nn.FRESH)
        logits = h @ self.out_w.T
        logits += self.out_b
        dist = smooth(logits, alpha)
        return dist[:, 0] if rows else dist

    # an own attribute for the tracer; see the module docstring
    word_logprob_from_dist = Rnnlm.word_logprob_from_dist

    def word_logprobs(self, seqs, alpha=1.0):
        """Natural-log probabilities for every predicted position (everything
        after the begin token) of each encoded sentence in `seqs`, scored
        through the prefix tries of `prefix_tries`."""
        out = []
        for run, trie in prefix_tries(seqs, self.k, self.vocab.pad):
            scores = [[] for _ in run]
            for t, (dist, visits) in enumerate(zip(trie.dists(self, alpha), trie.visits), 1):
                for i, _, col in visits:
                    scores[i].append(self.word_logprob_from_dist(dist[col], run[i][t]))
            out += scores
        return out

    # ---- training ----

    def _batches(self, corpus, num_streams):
        """corpus.make_spliced_batches' inputs and windows, with the output
        slots and valid masks of its targets (no begin token, nothing past
        a stream's end) and the reset masks of its inputs."""
        inputs, targets, windows = make_spliced_batches(corpus, num_streams, future_k=self.k)
        v = self.vocab
        valid = (targets >= 0) & (targets != v.sent_begin)
        resets = inputs == v.sent_begin
        slots = np.where(valid, np.minimum(targets, v.shortlist_size), 0)
        return inputs, slots, valid, resets, windows

    def _updates(self, rects, ws, grads=None, span=None):
        """One update per `span` steps of every stream (the whole width when
        None), the hidden state carried from span to span; the spans take
        their stacks from workspace `ws` and add their gradients into
        `grads` (None: loss only)."""
        S, width = rects[0].shape
        span = span or width
        h = np.zeros((S, self.hidden), dtype=self.dtype)
        for t0 in range(0, width, span):
            loss, tokens, h = self._forward_backward(
                *rects, t0, min(t0 + span, width), h, grads, ws)
            yield loss, tokens, S

    def _forward_backward(self, inputs, slots, valid, resets, windows, t0, t1, h,
                          grads=None, ws=nn.FRESH):
        """Loss over steps [t0, t1) of the rectangles, starting from hidden
        state rows `h`, its gradients added into `grads` unless that is
        None.  Returns (loss, tokens, h_out).

        The span runs as (T, S, .) stacks taken from Workspace `ws`
        (nn.FRESH: new arrays): the GRU recurrence is the only time loop
        (nn.gru_span); the future unit, the output layer, the softmax and
        the loss, and their gradients, are one 3-d product each after it.
        Every number has the bytes of the step-by-step pass.  h_out is a
        copy, so it outlives the next span in the same workspace."""
        ids = inputs[:, t0:t1].T
        win = None if windows is None else windows[:, t0:t1].transpose(1, 0, 2)
        states, gru_cache = nn.gru_span(self.gru, self._embed(ids, ws, "emb.X"), h,
                                        resets=resets[:, t0:t1].T, ws=ws)
        h_out = states[-1].copy()
        ctx, fcache = self._context_rows(states, win, ws)
        loss, tokens, dctx = self._output_loss(
            ctx, slots[:, t0:t1].T, valid[:, t0:t1].T, grads, ws)
        if grads is None:
            return loss, tokens, h_out
        dX = nn.gru_span_backward(self.gru, gru_cache, dctx[..., :self.hidden], grads)
        nn.add_rows_at(grads["emb"], ids, dX, ws)
        if self.k:
            flat, f = fcache
            # dctx * (1 - f*f), in place as in _context_rows; da takes the
            # pre-activation stack, dead since tanh read it, and dwin the
            # window embeddings' stack, dead once fut.W's gradient read it
            da = np.multiply(f, f, out=ws.take("fut.pre", f.shape, self.dtype))
            np.subtract(1.0, da, out=da)
            da *= dctx[..., self.hidden:]
            nn.add_span_grads(grads, "fut.W", "fut.b", da, flat, ws)
            dwin = np.matmul(da, self.fut_w, out=ws.take("fut.window", flat.shape, self.dtype))
            nn.add_rows_at(grads["emb"], win, dwin, ws)
        grads["emb"][self.vocab.pad] = 0.0
        return loss, tokens, h_out

    def _context_rows(self, h_new, win_rows, ws):
        """Context rows [h, f] with f the future vector of each row's (k,)
        window: h_new (..., H) takes windows (..., k), for one state, a
        stack of row views (B, 1, H) or a training span (T, B, H).  Also
        returns what the backward pass needs.  The rows are built in
        Workspace `ws` (nn.FRESH for the scorers: new arrays)."""
        if not self.k:
            return h_new, None
        lead = h_new.shape[:-1]
        if win_rows.shape != lead + (self.k,):
            raise ValueError("need %d succeeding word ids per row" % self.k)
        flat = self._embed(win_rows, ws, "fut.window").reshape(lead + (self.k * self.embed,))
        ctx = ws.take("fut.ctx", lead + (self.hidden + self.future_hidden,), self.dtype)
        pre = ws.take("fut.pre", lead + (self.future_hidden,), self.dtype)
        # h copied in, f written by tanh in place
        ctx[..., :self.hidden] = h_new
        pre = np.matmul(flat, self.fut_w.T, out=pre)
        pre += self.fut_b
        f = np.tanh(pre, out=ctx[..., self.hidden:])
        return ctx, (flat, f)

    def train(self, corpus, hyper):
        """SGD over spliced streams with truncated backprop, one update per
        `hyper.bptt` steps of every stream; see Rnnlm._sgd_train."""
        return self._sgd_train(corpus, hyper)


class SuRnnlm(UniRnnlm):
    """uni plus a tanh feedforward unit over the k succeeding word embeddings.
    With k=0 it is exactly the uni model."""

    arch = "su"

    def __init__(self, vocab, hidden=32, embed=16, succ=1, future_hidden=None,
                 seed=0, dtype=np.float64):
        if not succ:
            future_hidden = 0
        elif future_hidden is None:
            future_hidden = hidden
        self._build(vocab, hidden, embed, seed, dtype, ("gru",), succ, future_hidden)


class BiRnnlm(Rnnlm):
    """Two GRUs read the sentence from both ends; each position is predicted
    from the concatenated contexts.  Sentence scores are unnormalized."""

    arch = "bi"

    def __init__(self, vocab, hidden=32, embed=16, seed=0, dtype=np.float64):
        self._build(vocab, hidden, embed, seed, dtype, ("gru_f", "gru_b"), 0, None)

    def _forward_rect(self, rows, lengths, ws):
        """Forward pass over a left-aligned rectangle, its stacks taken from
        workspace `ws`.  Returns the contexts (T-1, S, 2H) of positions
        1..T-1, the (T-1, S) mask of those that hold a word, and the caches
        of both GRUs."""
        S, T = rows.shape
        H = self.hidden
        X = self._embed(rows.T, ws, "emb.X")
        live = np.arange(T)[:, None] < np.asarray(lengths)
        h0 = np.zeros((S, H), dtype=self.dtype)
        # the forward GRU reads steps 0..T-2, a row's state advancing while
        # position t+1, whose left context it becomes, holds a word
        f_states, f_cache = nn.gru_span(self.gru_f, X[:T - 1], h0, keep=live[1:, :, None],
                                        ws=ws)
        # the backward GRU reads steps T-1 down to 2; its state after step t
        # is the right context of position t-1, and position T-1 has none
        b_states, b_cache = nn.gru_span(self.gru_b, X[T - 1:1:-1], h0,
                                        keep=live[T - 1:1:-1, :, None], ws=ws)
        ctx = ws.take("bi.ctx", (T - 1, S, 2 * H), self.dtype)
        ctx[..., :H] = f_states
        ctx[:T - 2, :, H:] = b_states[::-1]
        ctx[T - 2, :, H:] = h0
        return ctx, live[1:], f_cache, b_cache

    # an own attribute for the tracer; see the module docstring
    word_logprob_from_dist = Rnnlm.word_logprob_from_dist

    def word_logprobs(self, seqs, alpha=1.0):
        """Per-word scores of each encoded sentence, one sentence at a time:
        both contexts span the sentence, so there are no prefixes to share.
        A sentence's positions take one output product, a matrix-vector
        product per position as the layer on one context would, and one
        `smooth` call."""
        out = []
        ws = nn.Workspace()
        for ids in seqs:
            ctx, _, _, _ = self._forward_rect(np.asarray([ids], dtype=np.int64), [len(ids)], ws)
            logits = np.matmul(self.out_w, ctx[:, 0, :, None])[..., 0]
            logits += self.out_b
            dists = smooth(logits, alpha)
            out.append([self.word_logprob_from_dist(d, w) for d, w in zip(dists, ids[1:])])
        return out

    # ---- training ----

    def _batches(self, corpus, num_streams):
        return make_null_aligned_batches(corpus, num_streams)

    def _updates(self, batches, ws, grads=None, span=None):
        """One update per NULL-aligned batch of sentences, its stacks taken
        from workspace `ws` and its gradients added into `grads` (None:
        loss only).  bi backpropagates over whole sentences, so `span` has
        no use here."""
        for rows, lengths in batches:
            yield (*self.loss_and_grads_batch(rows, lengths, grads, ws), len(rows))

    def loss_and_grads_batch(self, rows, lengths, grads=None, ws=nn.FRESH):
        """(loss, tokens) of one (S, T) rectangle of sentences of the given
        lengths, NULL cells excluded, its gradients added into `grads`
        unless that is None.  Both GRUs run as spans (nn.gru_span); the
        output layer and its gradients are one 3-d product each over
        positions 1..T-1, summed in ascending position order as the step
        loop did.  The stacks come from Workspace `ws` (nn.FRESH: new
        arrays)."""
        S, T = rows.shape
        ctx, mask, f_cache, b_cache = self._forward_rect(rows, lengths, ws)
        slots = np.minimum(rows, self.vocab.shortlist_size).T[1:]
        loss, tokens, dctx = self._output_loss(ctx, slots, mask, grads, ws, reverse=False)
        if grads is None:
            return loss, tokens
        H = self.hidden
        # forward chain first, then backward chain, into each cell; each
        # chain's dX is added before the next backward pass reuses its stack
        dx_cells = ws.take("bi.dx_cells", (S, T, self.embed), self.dtype)
        dx_cells.fill(0.0)
        dx_f = nn.gru_span_backward(self.gru_f, f_cache, dctx[..., :H], grads)
        dx_cells[:, :T - 1] += dx_f.transpose(1, 0, 2)
        dx_b = nn.gru_span_backward(self.gru_b, b_cache, dctx[:T - 2][::-1, :, H:], grads)
        dx_cells[:, T - 1:1:-1] += dx_b.transpose(1, 0, 2)
        nn.add_rows_at(grads["emb"], rows, dx_cells, ws)
        grads["emb"][self.vocab.pad] = 0.0
        return loss, tokens

    def train(self, corpus, hyper):
        """SGD over NULL-aligned batches of `hyper.num_streams` sentences, one
        update per batch; see Rnnlm._sgd_train."""
        return self._sgd_train(corpus, hyper)


def load_rnnlm(path):
    """Rebuild a model from the container written by `save`.  A container
    that does not hold a whole model of a known architecture raises
    DataError naming the path."""
    header, tensors = nn.load_model(path)
    arch = header.get("arch")
    if arch not in ("uni", "su", "bi"):
        raise DataError("unknown architecture %r" % (arch,), path=path)
    try:
        vocab = Vocabulary(header["words"], header["shortlist_size"])
        dtype = np.dtype(header["dtype"])
        dims = header["hidden"], header["embed"]
        if arch == "su":
            model = SuRnnlm(vocab, *dims, succ=header["succ"],
                            future_hidden=header.get("future_hidden") or None, dtype=dtype)
        else:
            model = {"uni": UniRnnlm, "bi": BiRnnlm}[arch](vocab, *dims, dtype=dtype)
    except (KeyError, TypeError, ValueError) as e:
        raise DataError("malformed model header (%s)" % e, path=path) from None
    model._restore(tensors, path)
    return model
