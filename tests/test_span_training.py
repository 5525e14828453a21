"""Span-level training against the step-by-step reference.

The trainers run each bptt span (uni, su) or sentence batch (bi) as stacks:
only the GRU recurrence loops over time.  Every number must keep the bytes
of the step-by-step pass, written out here with the per-gate step of
tests/oracles.py and GruCell.backward.  The sizes are the benchmark's (16 rows, 24-wide
embeddings, 48-wide states), where a (T*S)-row product or a reordered sum
rounds differently from the per-step products.
"""

import hashlib
import tracemalloc

import numpy as np
import pytest

from lmkit import nn
from lmkit.corpus import TokenizedCorpus, build_vocabulary, make_null_aligned_batches
from lmkit.models import BiRnnlm, Hyper, SuRnnlm, UniRnnlm
from lmkit.synth import SyntheticLanguage, build_corpus_lines
from oracles import gru_step

S, E, H = 16, 24, 48
DTYPES = [np.float64, np.float32]


def _same(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _same_grads(got, want):
    assert sorted(got) == sorted(want)
    for name in want:
        assert _same(got[name], want[name]), name


def _stepwise(cell, X, h, dH, resets=None, keep=None):
    """gru_span and gru_span_backward one step at a time."""
    caches, states = [], []
    for t in range(len(X)):
        if resets is not None:
            h = h.copy()
            h[resets[t]] = 0.0
        h_new, cache = gru_step(cell, X[t], h)
        if keep is not None:
            h_new = np.where(keep[t], h_new, h)
        caches.append(cache)
        states.append(h_new)
        h = h_new
    grads = nn.zeros_like_params(cell.params())
    dX = np.empty_like(X)
    dh = np.zeros_like(h)
    for t in range(len(X) - 1, -1, -1):
        dh_total = dh + dH[t]
        g = dh_total if keep is None else dh_total * keep[t]
        dX[t], dh_prev = cell.backward(caches[t], g, grads)
        if keep is not None:
            dh_prev = dh_prev + dh_total * ~keep[t]
        if resets is not None:
            dh_prev[resets[t]] = 0.0
        dh = dh_prev
    return np.stack(states), grads, dX


# at 24-wide inputs a (T*S)-row input product happens to round like the
# per-step ones; at 96 it does not, so both widths run
@pytest.mark.parametrize("width", [E, 2 * H])
@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("mode", ["plain", "resets", "keep"])
def test_gru_span_matches_step_and_backward(mode, dtype, width):
    rng = np.random.default_rng(31)
    cell = nn.GruCell(width, H, rng, dtype=dtype)
    T = 20
    X = rng.normal(size=(T, S, width)).astype(dtype)
    h = rng.uniform(-1.0, 1.0, size=(S, H)).astype(dtype)
    dH = rng.normal(size=(T, S, H)).astype(dtype)
    resets = keep = None
    if mode == "resets":
        # rows start sentences at different steps, some at the first
        resets = rng.random((T, S)) < 0.15
        resets[0, :3] = True
    elif mode == "keep":
        lengths = rng.integers(1, T + 1, size=S)
        keep = (np.arange(T)[:, None] < lengths)[..., None]
    states, cache = nn.gru_span(cell, X, h, resets=resets, keep=keep)
    grads = nn.zeros_like_params(cell.params())
    dX = nn.gru_span_backward(cell, cache, dH, grads)
    want_states, want_grads, want_dX = _stepwise(cell, X, h, dH, resets, keep)
    assert _same(states, want_states)
    assert _same(dX, want_dX)
    _same_grads(grads, want_grads)


def _reference_forward_backward(model, inputs, slots, valid, resets, windows, t0, t1, h):
    """UniRnnlm._forward_backward one step at a time: the GRU through
    the per-gate step and GruCell.backward, the future unit, output layer,
    softmax and loss per step."""
    rows = np.arange(inputs.shape[0])
    hid = model.hidden
    steps, loss = [], 0.0
    for t in range(t0, t1):
        h = h.copy()
        h[resets[:, t]] = 0.0
        h, cache = gru_step(model.gru, model.emb[inputs[:, t]], h)
        ctx, flat, f = h, None, None
        if model.k:
            flat = model.emb[windows[:, t]].reshape(len(rows), -1)
            f = np.tanh(flat @ model.fut_w.T + model.fut_b)
            ctx = np.concatenate([h, f], axis=1)
        dist = nn.softmax(ctx @ model.out_w.T + model.out_b, axis=1)
        mask = valid[:, t]
        picked = dist[rows, slots[:, t]]
        loss -= float((np.log(picked, where=mask, out=np.zeros(len(rows))) * mask).sum())
        steps.append((cache, ctx, dist, flat, f))
    grads = nn.zeros_like_params(model.params())
    dx = np.empty((t1 - t0, len(rows), model.embed), dtype=model.dtype)
    dwin = np.empty((t1 - t0, len(rows), model.k * model.embed), dtype=model.dtype)
    dh = np.zeros_like(h)
    for i in range(t1 - t0 - 1, -1, -1):
        t = t0 + i
        cache, ctx, dist, flat, f = steps[i]
        dlogits = dist.copy()
        dlogits[rows, slots[:, t]] -= 1.0
        dlogits[~valid[:, t]] = 0.0
        grads["out.W"] += dlogits.T @ ctx
        grads["out.b"] += dlogits.sum(axis=0)
        dctx = dlogits @ model.out_w
        if model.k:
            da = dctx[:, hid:] * (1.0 - f * f)
            grads["fut.W"] += da.T @ flat
            grads["fut.b"] += da.sum(axis=0)
            dwin[i] = da @ model.fut_w
        dx[i], dh_prev = model.gru.backward(cache, dh + dctx[:, :hid], grads)
        dh_prev[resets[:, t]] = 0.0
        dh = dh_prev
    # embedding rows gather their gradients in time order, inputs first
    np.add.at(grads["emb"], inputs[:, t0:t1].T.reshape(-1), dx.reshape(-1, model.embed))
    if model.k:
        np.add.at(grads["emb"], windows[:, t0:t1].transpose(1, 0, 2).reshape(-1),
                  dwin.reshape(-1, model.embed))
    grads["emb"][model.vocab.pad] = 0.0
    return loss, grads, h


def _reference_bi_batch(model, rows, lengths):
    """BiRnnlm.loss_and_grads_batch one step at a time."""
    n, T = rows.shape
    emb = model.emb[rows]
    zeros = np.zeros((n, model.hidden), dtype=model.dtype)
    fwd, f_caches, h = [zeros], [], zeros
    for t in range(T - 1):
        h_new, cache = gru_step(model.gru_f, emb[:, t], h)
        h = np.where((t < lengths - 1)[:, None], h_new, h)
        fwd.append(h)
        f_caches.append(cache)
    bwd, b_caches, b = {T - 1: zeros}, {}, zeros
    for t in range(T - 1, 1, -1):
        b_new, b_caches[t] = gru_step(model.gru_b, emb[:, t], b)
        b = np.where((t <= lengths - 1)[:, None], b_new, b)
        bwd[t - 1] = b
    grads = nn.zeros_like_params(model.params())
    loss, inject = 0.0, {}
    slots = np.minimum(rows, model.vocab.shortlist_size)
    for i in range(1, T):
        mask = (i <= lengths - 1)
        ctx = np.concatenate([fwd[i], bwd[i]], axis=1)
        dist = nn.softmax(ctx @ model.out_w.T + model.out_b, axis=1)
        picked = dist[np.arange(n), slots[:, i]]
        loss -= float((np.log(picked, where=mask, out=np.zeros(n)) * mask).sum())
        dist[np.arange(n), slots[:, i]] -= 1.0
        dist[~mask] = 0.0
        grads["out.W"] += dist.T @ ctx
        grads["out.b"] += dist.sum(axis=0)
        inject[i] = dist @ model.out_w
    dx = np.zeros((n, T, model.embed), dtype=model.dtype)
    dh = zeros
    for t in range(T - 2, -1, -1):
        mask = (t < lengths - 1)[:, None]
        total = dh + inject[t + 1][:, :model.hidden]
        d, dh_prev = model.gru_f.backward(f_caches[t], total * mask, grads)
        dx[:, t] += d
        dh = dh_prev + total * ~mask
    db = zeros
    for t in range(2, T):
        mask = (t <= lengths - 1)[:, None]
        total = db + inject[t - 1][:, model.hidden:]
        d, db_prev = model.gru_b.backward(b_caches[t], total * mask, grads)
        dx[:, t] += d
        db = db_prev + total * ~mask
    np.add.at(grads["emb"], rows.reshape(-1), dx.reshape(-1, model.embed))
    grads["emb"][model.vocab.pad] = 0.0
    return loss, grads


@pytest.fixture(scope="module")
def span_corpus():
    lines = build_corpus_lines(SyntheticLanguage(), 41, 2500)
    vocab = build_vocabulary(lines, 15)
    return vocab, TokenizedCorpus.from_lines(vocab, lines)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("succ", [0, 1, 3])
def test_uni_and_su_spans_match_stepwise_reference(span_corpus, succ, dtype):
    vocab, corpus = span_corpus
    model = (SuRnnlm(vocab, H, E, succ=succ, seed=32, dtype=dtype) if succ
             else UniRnnlm(vocab, H, E, seed=32, dtype=dtype))
    rects = model._batches(corpus, S)
    resets = rects[3]
    # the spans straddle sentence starts, so rows reset mid-span
    assert resets[:, 1:32].any() and resets[:, 33:64].any()
    h = np.random.default_rng(33).uniform(-1.0, 1.0, size=(S, H)).astype(dtype)
    for t0, t1 in ((0, 32), (32, 64), (64, 75)):
        grads = nn.zeros_like_params(model.params())
        loss, tokens, h_out = model._forward_backward(*rects, t0, t1, h, grads)
        want_loss, want_grads, want_h = _reference_forward_backward(model, *rects, t0, t1, h)
        assert loss == want_loss and tokens == int(rects[2][:, t0:t1].sum())
        assert _same(h_out, want_h)
        _same_grads(grads, want_grads)
        h = h_out


@pytest.mark.parametrize("dtype", DTYPES)
def test_bi_batches_match_stepwise_reference(span_corpus, dtype):
    vocab, corpus = span_corpus
    model = BiRnnlm(vocab, H, E, seed=34, dtype=dtype)
    for rows, lengths in make_null_aligned_batches(corpus, S)[:3]:
        assert len(set(lengths)) > 1  # ragged rows carry their state
        grads = nn.zeros_like_params(model.params())
        loss, _ = model.loss_and_grads_batch(rows, lengths, grads)
        want_loss, want_grads = _reference_bi_batch(model, rows, lengths)
        assert loss == want_loss
        _same_grads(grads, want_grads)


@pytest.mark.parametrize("succ", [0, 3])
def test_uni_and_su_spans_through_one_workspace(span_corpus, succ):
    vocab, corpus = span_corpus
    model = (SuRnnlm(vocab, H, E, succ=succ, seed=38) if succ
             else UniRnnlm(vocab, H, E, seed=38))
    rects = model._batches(corpus, S)
    h = np.random.default_rng(39).uniform(-1.0, 1.0, size=(S, H))
    ws = nn.Workspace()
    carry = None
    # the last span is shorter than the others, as uni's last span is
    for t0, t1 in ((0, 32), (32, 64), (64, 75)):
        for with_grads in (True, False):
            got_grads = nn.zeros_like_params(model.params()) if with_grads else None
            want_grads = nn.zeros_like_params(model.params()) if with_grads else None
            got = model._forward_backward(*rects, t0, t1, h, got_grads, ws)
            want = model._forward_backward(*rects, t0, t1, h, want_grads)
            assert got[:2] == want[:2] and _same(got[2], want[2])
            if with_grads:
                _same_grads(got_grads, want_grads)
        if carry is not None:
            # the previous span's carry outlived this span's reuse
            assert _same(carry, saved)
        carry, saved = got[2], got[2].copy()
        h = carry


def test_bi_batches_through_one_workspace(span_corpus):
    vocab, corpus = span_corpus
    model = BiRnnlm(vocab, H, E, seed=40)
    wide = make_null_aligned_batches(corpus, S)
    narrow = make_null_aligned_batches(corpus, S // 2 + 1)
    by_length = sorted(wide, key=lambda b: b[0].shape[1])
    # longer then shorter rows, then fewer of them, then longer again
    order = [by_length[-1], by_length[0], narrow[0],
             max(narrow, key=lambda b: b[0].shape[1]), wide[-1]]
    assert len({rows.shape for rows, _ in order}) == len(order)
    ws = nn.Workspace()
    for batch in order:
        for with_grads in (True, False):
            got_grads = nn.zeros_like_params(model.params()) if with_grads else None
            want_grads = nn.zeros_like_params(model.params()) if with_grads else None
            got = model.loss_and_grads_batch(*batch, got_grads, ws)
            assert got == model.loss_and_grads_batch(*batch, want_grads)
            if with_grads:
                _same_grads(got_grads, want_grads)


# streams for the allocation guard: at 32 rows a span's stacks outweigh its
# per-step rows, so one stack is a bound with margin
GUARD_STREAMS = 32


@pytest.mark.parametrize("arch", ["uni", "su3", "bi"])
def test_later_spans_allocate_no_stack_outside_the_workspace(span_corpus, arch, monkeypatch):
    vocab, corpus = span_corpus
    model = {"uni": lambda: UniRnnlm(vocab, H, E, seed=41),
             "su3": lambda: SuRnnlm(vocab, H, E, succ=3, seed=42),
             "bi": lambda: BiRnnlm(vocab, H, E, seed=43)}[arch]()
    batches = model._batches(corpus, GUARD_STREAMS)
    if arch == "bi":
        # longest first, so the workspace needs no growth after the first
        batches = sorted(batches, key=lambda b: -b[0].shape[1])
        steps = [rows.shape[1] - 1 for rows, _ in batches]
    else:
        width = batches[0].shape[1]
        steps = [min(32, width - t0) for t0 in range(0, width, 32)]
    assert len(steps) >= 3
    # the updates add into one gradient dict made before tracing, as the
    # training loop's is made before its first update, and make none of
    # their own: a fresh dict is smaller than the stack bound below
    updates = model._updates(batches, nn.Workspace(), nn.zeros_like_params(model.params()), 32)

    def fresh_gradients(params):
        raise AssertionError("an update made a gradient dict of its own")

    monkeypatch.setattr(nn, "zeros_like_params", fresh_gradients)
    tracemalloc.start()
    try:
        next(updates)
        for T in steps[1:]:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            next(updates)
            # the most the span held at once besides the workspace and the
            # gradient dict: under one (T, S, H) stack, so no such stack was
            # allocated outside them
            held = tracemalloc.get_traced_memory()[1] - base
            assert held < T * GUARD_STREAMS * H * np.dtype(model.dtype).itemsize, T
    finally:
        tracemalloc.stop()


def _params_sha256(model):
    digest = hashlib.sha256()
    for name, arr in sorted(model.params().items()):
        digest.update(name.encode() + arr.tobytes())
    return digest.hexdigest()


# parameters after two epochs of step-by-step training at the benchmark's
# sizes, recorded before training ran span by span; bitwise on x86-64 OpenBLAS
PINNED_PARAMS_SHA256 = {
    "uni": "8c44acb1b69d4e78210738ea3bfd00d5d653a820f02fa76ad04369ff57343714",
    "su3": "ca2083509d0a841f8150bf452b16a295a7da3ca60e9631ecb0aa1220a1b7e5a2",
    "bi": "808641b10998e5c59aeb92cc3b0dd64f7eb29f812b2482c96dd86482c13c2f98",
}


@pytest.mark.parametrize("arch", sorted(PINNED_PARAMS_SHA256))
def test_trained_parameters_match_pinned_bytes(span_corpus, arch):
    vocab, corpus = span_corpus
    model = {"uni": lambda: UniRnnlm(vocab, H, E, seed=35),
             "su3": lambda: SuRnnlm(vocab, H, E, succ=3, seed=36),
             "bi": lambda: BiRnnlm(vocab, H, E, seed=37)}[arch]()
    model.train(corpus, Hyper(epochs=2, num_streams=S, bptt=32))
    assert _params_sha256(model) == PINNED_PARAMS_SHA256[arch]
