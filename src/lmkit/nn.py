"""Dense kernels shared by the recurrent models: GRU cell, stable softmax,
cross entropy, clipped SGD, and the binary model container."""

import json
import os
import struct

import numpy as np

MODEL_MAGIC = b"LMKIT1\n"


class NumericError(ArithmeticError):
    """Raised when a training step produces non-finite values."""


def uniform_init(rng, shape, scale=0.1, dtype=np.float64):
    return rng.uniform(-scale, scale, size=shape).astype(dtype)


def sigmoid(x):
    # exp of -|x| never overflows; the two branches are the usual
    # 1 / (1 + exp(-x)) for x >= 0 and exp(x) / (1 + exp(x)) below zero
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def softmax(logits, axis=-1):
    logits = np.asarray(logits)
    shifted = logits - logits.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


def cross_entropy_grad(dist, targets):
    """Total NLL of `targets` under rows of `dist`, and d(loss)/d(logits).

    `dist` is (B, V) softmax output, `targets` is (B,) int.  The gradient
    follows from dL/dy = p - onehot for a softmax + NLL pair.
    """
    rows = np.arange(len(targets))
    picked = dist[rows, targets]
    loss = -np.sum(np.log(picked))
    dlogits = dist.copy()
    dlogits[rows, targets] -= 1.0
    return loss, dlogits


class GruCell:
    """Gated recurrent cell.

    z = sig(Wz x + Uz h + bz)
    r = sig(Wr x + Ur h + br)
    c = tanh(Wh x + Uh (r * h) + bh)
    h' = (1 - z) * h + z * c
    """

    def __init__(self, input_size, hidden_size, rng, dtype=np.float64, prefix="gru"):
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.prefix = prefix
        p = {}
        for gate in ("z", "r", "h"):
            p["W" + gate] = uniform_init(rng, (hidden_size, input_size), dtype=dtype)
            p["U" + gate] = uniform_init(rng, (hidden_size, hidden_size), dtype=dtype)
            p["b" + gate] = uniform_init(rng, (hidden_size,), dtype=dtype)
        self.p = p

    def params(self):
        return {"%s.%s" % (self.prefix, k): v for k, v in self.p.items()}

    def step(self, x, h_prev):
        """One step over a batch: x (B, D), h_prev (B, H).  Returns h and the
        intermediates `backward` needs.  The equations act on the last axis,
        so one row (1-d) or a stack of row_views works the same way."""
        p = self.p
        # one sigmoid call for both gates: it is elementwise, so each gate
        # gets exactly the values of its own call
        zr = sigmoid(np.concatenate(
            [x @ p["Wz"].T + h_prev @ p["Uz"].T + p["bz"],
             x @ p["Wr"].T + h_prev @ p["Ur"].T + p["br"]], axis=-1))
        z = zr[..., :self.hidden_size]
        r = zr[..., self.hidden_size:]
        rh = r * h_prev
        c = np.tanh(x @ p["Wh"].T + rh @ p["Uh"].T + p["bh"])
        h = (1.0 - z) * h_prev + z * c
        cache = (x, h_prev, z, r, rh, c)
        return h, cache

    def backward(self, cache, dh, grads):
        """Backprop one step.  `dh` is dL/dh'.  Gate gradients accumulate into
        `grads` (keyed like `params`); returns (dx, dh_prev)."""
        x, h_prev, z, r, rh, c = cache
        p = self.p
        dz = dh * (c - h_prev)
        dc = dh * z
        dh_prev = dh * (1.0 - z)
        da_c = dc * (1.0 - c * c)
        drh = da_c @ p["Uh"]
        dr = drh * h_prev
        dh_prev = dh_prev + drh * r
        da_z = dz * z * (1.0 - z)
        da_r = dr * r * (1.0 - r)
        g = grads
        pre = self.prefix
        g[pre + ".Wh"] += da_c.T @ x
        g[pre + ".Uh"] += da_c.T @ rh
        g[pre + ".bh"] += da_c.sum(axis=0)
        g[pre + ".Wz"] += da_z.T @ x
        g[pre + ".Uz"] += da_z.T @ h_prev
        g[pre + ".bz"] += da_z.sum(axis=0)
        g[pre + ".Wr"] += da_r.T @ x
        g[pre + ".Ur"] += da_r.T @ h_prev
        g[pre + ".br"] += da_r.sum(axis=0)
        dh_prev = dh_prev + da_z @ p["Uz"] + da_r @ p["Ur"]
        dx = da_c @ p["Wh"] + da_z @ p["Wz"] + da_r @ p["Wr"]
        return dx, dh_prev


def row_views(a):
    """A stack of rows (B, D) viewed as (B, 1, D).  Its product with a
    matrix is B vector-matrix products, so row i of the result has the bytes
    of the product on a[i] alone.  A 2-d product lets BLAS block rows
    together, and the rounding of each row then depends on the rows around
    it.  Index the result with [:, 0] to get the (B, ...) stack back."""
    return a[:, None, :]


def gru_step(cell, x, h_prev):
    """Unbatched step: x (D,) and h_prev (H,) give h (H,).  Stacks x (B, D)
    and h_prev (B, H) give (B, H), and row i equals the call on row i
    alone, whatever the other rows are."""
    if x.ndim == 1:
        return cell.step(x, h_prev)[0]
    return cell.step(row_views(x), row_views(h_prev))[0][:, 0]


def global_norm(grads):
    total = 0.0
    for g in grads.values():
        total += float(np.sum(g * g))
    return np.sqrt(total)


def clip_global_norm(grads, clip):
    """Scale all gradients in place so their global norm is at most `clip`."""
    norm = global_norm(grads)
    if clip is not None and norm > clip:
        scale = clip / norm
        for g in grads.values():
            g *= scale
    return norm


def sgd_step(params, grads, lr, clip=None):
    """In-place SGD update with optional global-norm clipping."""
    if clip is not None:
        clip_global_norm(grads, clip)
    for name, p in params.items():
        p -= lr * grads[name]
    return params


def zeros_like_params(params):
    return {k: np.zeros_like(v) for k, v in params.items()}


def check_finite(params):
    for name, p in params.items():
        if not np.all(np.isfinite(p)):
            raise NumericError("non-finite values in %s" % name)


def save_model(path, header, tensors):
    """Write the container: magic, length-prefixed JSON header, then the raw
    little-endian buffers in manifest order.  Round trips are bit exact."""
    header = dict(header)
    names = sorted(tensors)
    header["tensors"] = [
        {"name": n, "shape": list(tensors[n].shape), "dtype": str(tensors[n].dtype)}
        for n in names
    ]
    blob = json.dumps(header, sort_keys=True).encode()
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(MODEL_MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        for n in names:
            arr = np.ascontiguousarray(tensors[n])
            if arr.dtype.byteorder == ">":
                arr = arr.astype(arr.dtype.newbyteorder("<"))
            fh.write(arr.tobytes())
    os.replace(tmp, path)


def load_model(path):
    with open(path, "rb") as fh:
        magic = fh.read(len(MODEL_MAGIC))
        if magic != MODEL_MAGIC:
            raise ValueError("not a model container: %s" % path)
        (hlen,) = struct.unpack("<I", fh.read(4))
        header = json.loads(fh.read(hlen).decode())
        tensors = {}
        for spec in header["tensors"]:
            shape = tuple(spec["shape"])
            dtype = np.dtype(spec["dtype"])
            n = int(np.prod(shape)) if shape else 1
            buf = fh.read(n * dtype.itemsize)
            tensors[spec["name"]] = np.frombuffer(buf, dtype=dtype).reshape(shape).copy()
    return header, tensors
