"""Reference walks the tests compare the library against.

The library scores and trains through stacked calls; these are the plain
one-position forms those calls must reproduce, the per-gate GRU step the
training kernels must reproduce, and the whole-corpus pass the
finite-difference checks differentiate.
"""

import numpy as np

from lmkit import nn


def future_window(pad, ids, t, k):
    """The k ids after position t of one encoded sentence, PAD past its
    end."""
    win = tuple(ids[t + 1:t + 1 + k])
    return win + (pad,) * (k - len(win))


def gru_step(cell, x, h_prev):
    """The per-gate GRU step: x (..., D) and h_prev (..., H) give h and the
    cache `nn.GruCell.backward` takes.  Each gate takes its own input and
    state products with the per-gate views of `cell.p`, six products in
    all.  nn.gru_span run over a span has the bytes of this step run step
    by step, on 2-d stacks too, where the fused (2H)-wide products of
    `nn.GruCell.step` can round differently."""
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
