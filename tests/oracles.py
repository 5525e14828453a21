"""Reference walks the tests compare the library against.

The library scores and trains through stacked calls; these are the plain
one-position forms those calls must reproduce, and the whole-corpus pass
the finite-difference checks differentiate.
"""

from lmkit import nn


def future_window(pad, ids, t, k):
    """The k ids after position t of one encoded sentence, PAD past its
    end."""
    win = tuple(ids[t + 1:t + 1 + k])
    return win + (pad,) * (k - len(win))


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
