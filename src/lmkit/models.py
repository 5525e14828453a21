"""The three recurrent LM architectures.

All of them share one word embedding table and a softmax output layer over the
shortlist plus a single out-of-shortlist slot:

  uni: P(w_t | w_1..w_{t-1}) from a left-to-right GRU.
  bi:  P(w_t | w_1..w_{t-1}, w_{t+1}..w_L) from two GRUs, contexts concatenated.
  su:  P(w_t | w_1..w_{t-1}, w_{t+1}..w_{t+k}) from the uni GRU plus a
       feedforward unit over the k succeeding word embeddings.

uni is su with k=0: `UniRnnlm` implements both, the future unit guarded by
`k`, and `SuRnnlm` only sets k.  bi and su scores are unnormalized over
sentences, so only per-word pseudo perplexity is meaningful for them.
Gradients are hand derived; all three architectures train through one loop,
`_sgd_train`: plain SGD with global-norm clipping.
"""

import math
import time
from dataclasses import dataclass

import numpy as np

from . import nn
from .corpus import Vocabulary, future_window, make_null_aligned_batches, make_spliced_batches


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


def _safe_log(p):
    return math.log(p) if p > 0.0 else float("-inf")


def _sgd_train(model, epoch, hyper):
    """The epoch loop every architecture trains with.  `epoch()` yields
    (loss, tokens, grads, rows) per update; the summed gradients are divided
    by the update's rows before the clipped SGD step.  Returns per-epoch mean
    loss, token counts, and wall-clock words per second."""
    params = model.params()
    history = []
    total_tokens = 0
    t_start = time.perf_counter()
    lr = hyper.lr
    for _ in range(hyper.epochs):
        ep_loss, ep_tokens = 0.0, 0
        for loss, tokens, grads, rows in epoch():
            if not np.isfinite(loss):
                raise nn.NumericError("non-finite training loss")
            if tokens:
                # mean over rows, sum over the steps; clipping tames the rest
                for g in grads.values():
                    g /= rows
                nn.sgd_step(params, grads, lr, hyper.clip)
            ep_loss += loss
            ep_tokens += tokens
        model.emb[model.vocab.pad] = 0.0
        nn.check_finite(params)
        history.append(ep_loss / max(ep_tokens, 1))
        total_tokens += ep_tokens
        lr *= hyper.lr_decay
    wall = time.perf_counter() - t_start
    return {
        "epoch_loss": history,
        "tokens": total_tokens,
        "seconds": wall,
        "wps": total_tokens / wall if wall > 0 else float("inf"),
    }


class UniRnnlm:
    """Left-to-right GRU language model.  With k > 0 (see SuRnnlm) a tanh
    feedforward unit over the k succeeding word embeddings joins the GRU
    state in the output layer's context."""

    arch = "uni"

    def __init__(self, vocab, hidden=32, embed=16, seed=0, dtype=np.float64):
        self._build(vocab, hidden, embed, 0, 0, seed, dtype)

    def _build(self, vocab, hidden, embed, k, future_hidden, seed, dtype):
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
        self.gru = nn.GruCell(embed, hidden, rng, dtype=dtype)
        if k:
            self.fut_w = nn.uniform_init(rng, (future_hidden, k * embed), dtype=dtype)
            self.fut_b = nn.uniform_init(rng, (future_hidden,), dtype=dtype)
        out = vocab.output_size
        self.out_w = nn.uniform_init(rng, (out, hidden + future_hidden), dtype=dtype)
        self.out_b = nn.uniform_init(rng, (out,), dtype=dtype)

    def params(self):
        p = {"emb": self.emb, "out.W": self.out_w, "out.b": self.out_b}
        p.update(self.gru.params())
        if self.k:
            p["fut.W"] = self.fut_w
            p["fut.b"] = self.fut_b
        return p

    def zero_state(self):
        return np.zeros(self.hidden, dtype=self.dtype)

    def advance(self, h, prev_id):
        """Consume one word id, returning the next hidden state.  A stack of
        states (B, H) with B word ids gives the B next states; row i equals
        the call on row i alone."""
        return nn.gru_step(self.gru, self.emb[prev_id], h)

    def output_logits(self, h, window=None):
        """Output activations from state h and, when k > 0, the k succeeding
        word ids in `window`.  A stack of states (B, H) takes a (B, k) stack
        of windows, and row i equals the call on row i alone."""
        ctx = h if h.ndim == 1 else nn.row_views(h)
        if self.k:
            ids = None if window is None else np.asarray(window, dtype=np.int64)
            if ids is None or ids.shape != h.shape[:-1] + (self.k,):
                raise ValueError("need %d succeeding word ids" % self.k)
            flat = self.emb[ids].reshape(ctx.shape[:-1] + (-1,))
            f = np.tanh(flat @ self.fut_w.T + self.fut_b)
            ctx = np.concatenate([ctx, f], axis=-1)
        logits = ctx @ self.out_w.T + self.out_b
        return logits if h.ndim == 1 else logits[:, 0]

    def output_dist(self, h, window=None, alpha=1.0):
        """Smoothed output distribution; stacks as in output_logits."""
        return smooth(self.output_logits(h, window), alpha)

    def step(self, h, prev_id, window=None, alpha=1.0):
        """One prediction step: distribution over output slots and new state."""
        h_new = self.advance(h, prev_id)
        return self.output_dist(h_new, window, alpha), h_new

    def advance_rows(self, H, ids):
        """Row-batched advance: row i of the result is advance(H[i], ids[i])."""
        h_new, _ = self.gru.step(self.emb[np.asarray(ids, dtype=np.int64)], H)
        return h_new

    def output_dist_rows(self, H, win_rows=None, alpha=1.0):
        """Row-batched output_dist: `win_rows` is a (B, k) array of
        succeeding word ids, one window per row of H (None when k is 0)."""
        ctx, _ = self._context_rows(H, win_rows)
        return smooth(ctx @ self.out_w.T + self.out_b, alpha)

    def word_logprob_from_dist(self, dist, word_id):
        """Log probability of a word id, dividing the out-of-shortlist slot
        mass uniformly over the words it covers."""
        p = dist[self.vocab.output_index(word_id)]
        if self.vocab.is_oos(word_id):
            if self.vocab.n_oos == 0:
                return float("-inf")
            return _safe_log(p) - math.log(self.vocab.n_oos)
        return _safe_log(p)

    def _window_ids(self, ids, t):
        return future_window(self.vocab, ids, t, self.k).ids if self.k else None

    def sentence_word_logprobs(self, ids, alpha=1.0):
        """Natural-log probabilities for every predicted position of one
        encoded sentence (everything after the begin token)."""
        h = self.zero_state()
        out = []
        for t in range(1, len(ids)):
            dist, h = self.step(h, ids[t - 1], self._window_ids(ids, t), alpha)
            out.append(self.word_logprob_from_dist(dist, ids[t]))
        return out

    def sentence_logprob(self, ids, alpha=1.0):
        return float(sum(self.sentence_word_logprobs(ids, alpha)))

    # ---- training ----

    def _prepare_spliced(self, corpus, num_streams):
        """Rectangles of the spliced streams: inputs, output slots, valid
        and reset masks, and the future windows (None when k is 0).  The
        last result is kept, read-only, because the finite-difference checks
        call `loss_only` thousands of times on one corpus; a corpus is fixed
        once built, so identity and stream count are the key."""
        memo = getattr(self, "_spliced_memo", None)
        if memo is not None and memo[0] is corpus and memo[1] == num_streams:
            return memo[2]
        arrays = self._build_spliced(corpus, num_streams)
        for arr in arrays:
            if arr is not None:
                arr.flags.writeable = False
        self._spliced_memo = (corpus, num_streams, arrays)
        return arrays

    def _build_spliced(self, corpus, num_streams):
        batch = make_spliced_batches(corpus, num_streams, future_k=self.k)
        v = self.vocab
        S = batch.num_streams
        width = max(len(s) for s in batch.streams) - 1
        inputs = np.full((S, width), v.pad, dtype=np.int64)
        targets = np.full((S, width), -1, dtype=np.int64)
        windows = None
        if self.k:
            windows = np.full((S, width, self.k), v.pad, dtype=np.int64)
        for s, stream in enumerate(batch.streams):
            n = len(stream) - 1
            inputs[s, :n] = stream[:-1]
            targets[s, :n] = stream[1:]
            if self.k:
                windows[s, :n] = batch.step_windows[s]
        valid = (targets >= 0) & (targets != v.sent_begin)
        resets = inputs == v.sent_begin
        slots = np.where(valid, np.minimum(targets, v.shortlist_size), 0)
        return inputs, slots, valid, resets, windows

    def _forward_backward(self, inputs, slots, valid, resets, windows, t0, t1, h,
                          want_grads=True):
        """Loss (and gradients) over steps [t0, t1) of the rectangles, starting
        from hidden state rows `h`.  Returns (loss, tokens, grads, h_out)."""
        S = inputs.shape[0]
        rows = np.arange(S)
        caches = []
        loss = 0.0
        tokens = int(valid[:, t0:t1].sum())
        h_rows = h
        for t in range(t0, t1):
            h_rows = h_rows.copy()
            h_rows[resets[:, t]] = 0.0
            x = self.emb[inputs[:, t]]
            h_new, cache = self.gru.step(x, h_rows)
            ctx, fcache = self._context_rows(
                h_new, None if windows is None else windows[:, t])
            logits = ctx @ self.out_w.T + self.out_b
            dist = nn.softmax(logits, axis=1)
            mask = valid[:, t]
            picked = dist[rows, slots[:, t]]
            loss -= float((np.log(picked, where=mask, out=np.zeros(S)) * mask).sum())
            if want_grads:
                caches.append((cache, ctx, dist, fcache))
            h_rows = h_new
        if not want_grads:
            return loss, tokens, None, h_rows
        grads = nn.zeros_like_params(self.params())
        dh = np.zeros((S, self.hidden), dtype=self.dtype)
        dx_steps = np.empty((t1 - t0, S, self.embed), dtype=self.dtype)
        dwin_steps = None
        if self.k:
            dwin_steps = np.empty((t1 - t0, S, self.k * self.embed), dtype=self.dtype)
        for i in range(t1 - t0 - 1, -1, -1):
            t = t0 + i
            cache, ctx, dist, fcache = caches[i]
            mask = valid[:, t]
            dlogits = dist.copy()
            dlogits[rows, slots[:, t]] -= 1.0
            dlogits[~mask] = 0.0
            grads["out.W"] += dlogits.T @ ctx
            grads["out.b"] += dlogits.sum(axis=0)
            dctx = dlogits @ self.out_w
            dh_step, dwin = self._split_context_grad(dctx, fcache, grads)
            dh_total = dh + dh_step
            if dwin_steps is not None:
                dwin_steps[i] = dwin
            dx, dh_prev = self.gru.backward(cache, dh_total, grads)
            dx_steps[i] = dx
            dh_prev[resets[:, t]] = 0.0
            dh = dh_prev
        ids_flat = inputs[:, t0:t1].T.reshape(-1)
        np.add.at(grads["emb"], ids_flat, dx_steps.reshape(-1, self.embed))
        if self.k:
            win_flat = windows[:, t0:t1].transpose(1, 0, 2).reshape(-1)
            np.add.at(grads["emb"], win_flat, dwin_steps.reshape(-1, self.embed))
        grads["emb"][self.vocab.pad] = 0.0
        return loss, tokens, grads, h_rows

    def _context_rows(self, h_new, win_rows):
        """Context rows [h, f] with f the future vector of each row's (k,)
        window; also returns what the backward pass needs."""
        if not self.k:
            return h_new, None
        S = h_new.shape[0]
        if np.shape(win_rows) != (S, self.k):
            raise ValueError("need %d succeeding word ids per row" % self.k)
        flat = self.emb[win_rows].reshape(S, self.k * self.embed)
        f = np.tanh(flat @ self.fut_w.T + self.fut_b)
        return np.concatenate([h_new, f], axis=1), (flat, f)

    def _split_context_grad(self, dctx, fcache, grads):
        """Backward of _context_rows: the state's share of dctx and the
        gradient of the flattened window embeddings (None when k is 0)."""
        if not self.k:
            return dctx, None
        flat, f = fcache
        da = dctx[:, self.hidden:] * (1.0 - f * f)
        grads["fut.W"] += da.T @ flat
        grads["fut.b"] += da.sum(axis=0)
        return dctx[:, :self.hidden], da @ self.fut_w

    def loss_and_grads(self, corpus, num_streams=2):
        """Total loss and gradients over one full-backprop pass; used by the
        finite-difference checks."""
        inputs, slots, valid, resets, windows = self._prepare_spliced(corpus, num_streams)
        h = np.zeros((inputs.shape[0], self.hidden), dtype=self.dtype)
        loss, tokens, grads, _ = self._forward_backward(
            inputs, slots, valid, resets, windows, 0, inputs.shape[1], h)
        return loss, tokens, grads

    def loss_only(self, corpus, num_streams=2):
        inputs, slots, valid, resets, windows = self._prepare_spliced(corpus, num_streams)
        h = np.zeros((inputs.shape[0], self.hidden), dtype=self.dtype)
        loss, _, _, _ = self._forward_backward(
            inputs, slots, valid, resets, windows, 0, inputs.shape[1], h, want_grads=False)
        return loss

    def train(self, corpus, hyper):
        """SGD over spliced streams with truncated backprop, one update per
        `hyper.bptt` steps of every stream; see _sgd_train for the result."""
        rects = self._prepare_spliced(corpus, hyper.num_streams)
        S, width = rects[0].shape
        span = hyper.bptt or width

        def epoch():
            h = np.zeros((S, self.hidden), dtype=self.dtype)
            for t0 in range(0, width, span):
                loss, tokens, grads, h = self._forward_backward(
                    *rects, t0, min(t0 + span, width), h)
                yield loss, tokens, grads, S

        return _sgd_train(self, epoch, hyper)

    # ---- persistence ----

    def _header(self):
        return {
            "arch": self.arch,
            "vocab_size": len(self.vocab),
            "shortlist_size": self.vocab.shortlist_size,
            "embed": self.embed,
            "hidden": self.hidden,
            "succ": self.k,
            "future_hidden": self.future_hidden,
            "dtype": str(np.dtype(self.dtype)),
            "words": self.vocab.words,
        }

    def save(self, path):
        nn.save_model(path, self._header(), self.params())

    def _restore(self, tensors):
        for name, arr in self.params().items():
            if name not in tensors or tensors[name].shape != arr.shape:
                raise ValueError("model container missing tensor %s" % name)
            arr[...] = tensors[name]


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
        self._build(vocab, hidden, embed, succ, future_hidden, seed, dtype)


class BiRnnlm:
    """Two GRUs read the sentence from both ends; each position is predicted
    from the concatenated contexts.  Sentence scores are unnormalized."""

    arch = "bi"

    def __init__(self, vocab, hidden=32, embed=16, seed=0, dtype=np.float64):
        self.vocab = vocab
        self.hidden = hidden
        self.embed = embed
        self.dtype = dtype
        self.k = 0
        rng = np.random.default_rng(seed)
        self.emb = nn.uniform_init(rng, (len(vocab), embed), dtype=dtype)
        self.emb[vocab.pad] = 0.0
        self.gru_f = nn.GruCell(embed, hidden, rng, dtype=dtype, prefix="gru_f")
        self.gru_b = nn.GruCell(embed, hidden, rng, dtype=dtype, prefix="gru_b")
        out = vocab.output_size
        self.out_w = nn.uniform_init(rng, (out, 2 * hidden), dtype=dtype)
        self.out_b = nn.uniform_init(rng, (out,), dtype=dtype)

    def params(self):
        p = {"emb": self.emb, "out.W": self.out_w, "out.b": self.out_b}
        p.update(self.gru_f.params())
        p.update(self.gru_b.params())
        return p

    def _forward_rect(self, rows, lengths):
        """Forward pass over a left-aligned rectangle.  Returns the per-step
        tensors the backward pass and the scoring API need."""
        S, T = rows.shape
        lengths = np.asarray(lengths)
        emb_cells = self.emb[rows]
        f_states = np.zeros((T, S, self.hidden), dtype=self.dtype)
        f_caches = [None] * T
        h = np.zeros((S, self.hidden), dtype=self.dtype)
        for t in range(T - 1):
            mask = (t < lengths - 1)[:, None]
            h_new, cache = self.gru_f.step(emb_cells[:, t], h)
            h = np.where(mask, h_new, h)
            f_caches[t] = cache
            f_states[t + 1] = h
        b_used = np.zeros((T, S, self.hidden), dtype=self.dtype)
        b_caches = [None] * T
        b = np.zeros((S, self.hidden), dtype=self.dtype)
        for t in range(T - 1, 0, -1):
            b_used[t] = b
            if t >= 2:
                mask = (t <= lengths - 1)[:, None]
                b_new, cache = self.gru_b.step(emb_cells[:, t], b)
                b = np.where(mask, b_new, b)
                b_caches[t] = cache
        return emb_cells, f_states, f_caches, b_used, b_caches

    def _positions(self, T, lengths):
        # predicted positions are 1..len-1 per row
        steps = np.arange(T)[:, None]
        return (steps >= 1) & (steps <= np.asarray(lengths) - 1)

    def sentence_dists(self, ids, alpha=1.0):
        """Distributions for every predicted position of one encoded sentence."""
        rows = np.asarray([ids], dtype=np.int64)
        _, f_states, _, b_used, _ = self._forward_rect(rows, [len(ids)])
        out = []
        for i in range(1, len(ids)):
            ctx = np.concatenate([f_states[i][0], b_used[i][0]])
            out.append(smooth(self.out_w @ ctx + self.out_b, alpha))
        return out

    # the same word lookup and container code as uni, bound here so each
    # name stays an own attribute of this class
    word_logprob_from_dist = UniRnnlm.word_logprob_from_dist
    save = UniRnnlm.save
    _restore = UniRnnlm._restore

    def sentence_word_logprobs(self, ids, alpha=1.0):
        dists = self.sentence_dists(ids, alpha)
        return [self.word_logprob_from_dist(d, ids[i + 1]) for i, d in enumerate(dists)]

    def loss_and_grads_batch(self, batch, want_grads=True):
        """Loss and gradients for one rectangle batch, NULL cells excluded."""
        rows, lengths = batch.rows, batch.lengths
        S, T = rows.shape
        emb_cells, f_states, f_caches, b_used, b_caches = self._forward_rect(rows, lengths)
        pos_valid = self._positions(T, lengths)
        loss = 0.0
        tokens = 0
        slots = np.minimum(rows, self.vocab.shortlist_size)
        if want_grads:
            grads = nn.zeros_like_params(self.params())
            df_inject = np.zeros((T, S, self.hidden), dtype=self.dtype)
            db_inject = np.zeros((T, S, self.hidden), dtype=self.dtype)
        rng_rows = np.arange(S)
        for i in range(1, T):
            mask = pos_valid[i]
            if not mask.any():
                continue
            ctx = np.concatenate([f_states[i], b_used[i]], axis=1)
            logits = ctx @ self.out_w.T + self.out_b
            dist = nn.softmax(logits, axis=1)
            picked = dist[rng_rows, slots[:, i]]
            loss -= float((np.log(picked, where=mask, out=np.zeros(S)) * mask).sum())
            tokens += int(mask.sum())
            if not want_grads:
                continue
            dlogits = dist
            dlogits[rng_rows, slots[:, i]] -= 1.0
            dlogits[~mask] = 0.0
            grads["out.W"] += dlogits.T @ ctx
            grads["out.b"] += dlogits.sum(axis=0)
            dctx = dlogits @ self.out_w
            df_inject[i] = dctx[:, :self.hidden]
            db_inject[i] = dctx[:, self.hidden:]
        if not want_grads:
            return loss, tokens, None
        dx_cells = np.zeros((S, T, self.embed), dtype=self.dtype)
        # forward chain ran t = 0..T-2, so backprop runs in reverse
        dh = np.zeros((S, self.hidden), dtype=self.dtype)
        for t in range(T - 2, -1, -1):
            mask = (t < np.asarray(lengths) - 1)[:, None]
            dh_total = dh + df_inject[t + 1]
            dx, dh_prev = self.gru_f.backward(f_caches[t], dh_total * mask, grads)
            dx_cells[:, t] += dx
            dh = dh_prev + dh_total * ~mask
        # backward chain ran t = T-1..2, so backprop runs t = 2..T-1
        db = np.zeros((S, self.hidden), dtype=self.dtype)
        for t in range(2, T):
            db_total = db + db_inject[t - 1]
            mask = (t <= np.asarray(lengths) - 1)[:, None]
            dx, db_prev = self.gru_b.backward(b_caches[t], db_total * mask, grads)
            dx_cells[:, t] += dx
            db = db_prev + db_total * ~mask
        np.add.at(grads["emb"], rows.reshape(-1), dx_cells.reshape(-1, self.embed))
        grads["emb"][self.vocab.pad] = 0.0
        return loss, tokens, grads

    def loss_and_grads(self, corpus, num_streams=2):
        total_loss, total_tokens = 0.0, 0
        grads = nn.zeros_like_params(self.params())
        for batch in make_null_aligned_batches(corpus, num_streams):
            loss, tokens, g = self.loss_and_grads_batch(batch)
            total_loss += loss
            total_tokens += tokens
            for name in grads:
                grads[name] += g[name]
        return total_loss, total_tokens, grads

    def loss_only(self, corpus, num_streams=2):
        total = 0.0
        for batch in make_null_aligned_batches(corpus, num_streams):
            loss, _, _ = self.loss_and_grads_batch(batch, want_grads=False)
            total += loss
        return total

    def train(self, corpus, hyper):
        """SGD over NULL-aligned batches of `hyper.num_streams` sentences, one
        update per batch; see _sgd_train for the result."""
        batches = make_null_aligned_batches(corpus, hyper.num_streams)

        def epoch():
            for batch in batches:
                yield (*self.loss_and_grads_batch(batch), batch.num_rows)

        return _sgd_train(self, epoch, hyper)

    def _header(self):
        return {
            "arch": self.arch,
            "vocab_size": len(self.vocab),
            "shortlist_size": self.vocab.shortlist_size,
            "embed": self.embed,
            "hidden": self.hidden,
            "succ": 0,
            "dtype": str(np.dtype(self.dtype)),
            "words": self.vocab.words,
        }


def load_rnnlm(path):
    """Rebuild a model from the container written by `save`."""
    header, tensors = nn.load_model(path)
    vocab = Vocabulary(header["words"], header["shortlist_size"])
    dtype = np.dtype(header["dtype"])
    arch = header["arch"]
    if arch == "uni":
        model = UniRnnlm(vocab, header["hidden"], header["embed"], dtype=dtype)
    elif arch == "su":
        model = SuRnnlm(vocab, header["hidden"], header["embed"], succ=header["succ"],
                        future_hidden=header.get("future_hidden") or None, dtype=dtype)
    elif arch == "bi":
        model = BiRnnlm(vocab, header["hidden"], header["embed"], dtype=dtype)
    else:
        raise ValueError("unknown architecture %r" % arch)
    model._restore(tensors)
    return model
