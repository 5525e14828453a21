"""Dense kernels shared by the recurrent models: GRU cell, stable softmax,
clipped SGD, and the binary model container.

The GRU comes twice.  GruCell keeps its z and r gates as one block per
weight (see its docstring).  GruCell.step is the row-exact scoring step,
which the scorers take through gru_step's row views: one product per
block gives both gates, and it returns the new state only.
GruCell.backward is the backward pass of one step, on the cache of the
per-gate step in tests/oracles.py: nothing in the library calls it, but
it is the tests' reference for the span kernels and the benchmark's
tracer wraps it by name, so it stays here.  gru_span and
gru_span_backward run the training spans: the input products, the weight
gradients and dx are stacked products over the whole span (span_inputs,
span_grads), and only the U products and the gate arithmetic stay in the
time loop.  They give the bytes of the per-gate step run step by step: a
stacked product is one gemm per step and gate, and the span sums run in
step order.  On a 2-d stack the fused products of `step` can round
differently.

A training loop holds one Workspace, and every span-sized stack of its
spans (inputs, gates, states, gradients, products) is a view written into
it with `out=`; the loop drops it when it returns.  A call outside any
loop takes FRESH, new arrays through the same `take`.  The arithmetic is
that of freshly allocated arrays, so the bytes are too.  The weight
gradients are not stacks: the backward passes add them into a dict keyed
like `params` that the caller owns, one for the whole loop.

sgd_step clips the gradients to a global norm and scales them by the
learning rate in place, then subtracts them from the weights.
load_model returns a container's tensors only when they are all there
and finite; anything else is a DataError naming the file."""

import json
import math
import struct

import numpy as np

from .corpus import DataError, replacing

MODEL_MAGIC = b"LMKIT1\n"


class NumericError(ArithmeticError):
    """Raised when a training step produces non-finite values."""


def uniform_init(rng, shape, dtype=np.float64):
    return rng.uniform(-0.1, 0.1, size=shape).astype(dtype)


def sigmoid(x):
    # exp of -|x| never overflows; the two branches are the usual
    # 1 / (1 + exp(-x)) for x >= 0 and exp(x) / (1 + exp(x)) below zero
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def softmax(logits, out=None):
    """Softmax along the last axis, written into `out` when given (which may
    be `logits` itself), else into a new array."""
    logits = np.asarray(logits)
    e = np.subtract(logits, logits.max(axis=-1, keepdims=True), out=out)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


class GruCell:
    """Gated recurrent cell.

    z = sig(Wz x + Uz h + bz)
    r = sig(Wr x + Ur h + br)
    c = tanh(Wh x + Uh (r * h) + bh)
    h' = (1 - z) * h + z * c

    The z and r gates are stored as one block each: Wzr (2H, D), Uzr (2H, H)
    and bzr (2H,) hold the z rows above the r rows.  Wh, Uh and bh are
    arrays of their own.  `p` and `params()` name the nine per-gate weights
    as views of these arrays, built on every call and held nowhere, so a
    deep copy of a cell copies the blocks and its views cannot come apart
    from them.  The per-gate step the training kernels are tested against
    is in tests/oracles.py."""

    def __init__(self, input_size, hidden_size, rng, dtype=np.float64, prefix="gru"):
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.prefix = prefix
        H = hidden_size
        self.Wzr = np.empty((2 * H, input_size), dtype=dtype)
        self.Uzr = np.empty((2 * H, H), dtype=dtype)
        self.bzr = np.empty(2 * H, dtype=dtype)
        # the draws keep the per-gate order, so equal seeds give equal weights
        for rows in (slice(None, H), slice(H, None)):
            self.Wzr[rows] = uniform_init(rng, (H, input_size), dtype=dtype)
            self.Uzr[rows] = uniform_init(rng, (H, H), dtype=dtype)
            self.bzr[rows] = uniform_init(rng, (H,), dtype=dtype)
        self.Wh = uniform_init(rng, (H, input_size), dtype=dtype)
        self.Uh = uniform_init(rng, (H, H), dtype=dtype)
        self.bh = uniform_init(rng, (H,), dtype=dtype)

    @property
    def p(self):
        H = self.hidden_size
        return {"Wz": self.Wzr[:H], "Uz": self.Uzr[:H], "bz": self.bzr[:H],
                "Wr": self.Wzr[H:], "Ur": self.Uzr[H:], "br": self.bzr[H:],
                "Wh": self.Wh, "Uh": self.Uh, "bh": self.bh}

    def params(self):
        return {"%s.%s" % (self.prefix, k): v for k, v in self.p.items()}

    def step(self, x, h_prev):
        """One step: x (D,) and h_prev (H,), or stacks whose last axis holds
        them.  Returns h.  Both gates take one product with each block's
        transposed view and one sigmoid.
        On one row, or on a stack of row_views, each row's products are
        vector-matrix products of their own, so a row has the same bytes in
        any stack; gru_step takes the scorers' calls that way."""
        H = self.hidden_size
        zr = x @ self.Wzr.T
        zr += h_prev @ self.Uzr.T
        zr += self.bzr
        zr = sigmoid(zr)
        z = zr[..., :H]
        r = zr[..., H:]
        rh = r * h_prev
        c = x @ self.Wh.T
        c += rh @ self.Uh.T
        c += self.bh
        np.tanh(c, out=c)
        h = (1.0 - z) * h_prev
        h += z * c
        return h

    def backward(self, cache, dh, grads):
        """Backprop one step from the cache of the per-gate step
        (tests/oracles.py).  `dh` is dL/dh'.  Gate gradients accumulate into
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


class Workspace:
    """Scratch arrays for the spans of one training loop.  `take(name,
    shape, dtype)` hands out a C-contiguous view of the buffer kept under
    `name`, grown when a span needs more than it holds.  Once the buffers
    fit the loop's largest span, every span writes into memory the loop
    already touched: no fresh pages to fault in, nothing for the C
    allocator to hand back between spans.

    A view is valid until the next `take` of its name, in practice until
    the next span in the same workspace: a caller that keeps a result
    longer copies it.  A workspace is made for one loop and dropped when
    the loop returns, so nothing is kept between loops."""

    def __init__(self):
        self._buffers = {}

    def take(self, name, shape, dtype):
        size = math.prod(shape)
        buf = self._buffers.get(name)
        if buf is None or buf.size < size or buf.dtype != dtype:
            # drop the old buffer first, so its memory can serve the new one
            buf = self._buffers[name] = None
            buf = self._buffers[name] = np.empty(size, dtype)
        return buf[:size].reshape(shape)


class _FreshArrays:
    """What a call outside any training loop takes its stacks from: the
    `take` of a Workspace that keeps nothing, a new array every time."""

    def take(self, name, shape, dtype):
        return np.empty(shape, dtype)


FRESH = _FreshArrays()


def _zr_stack(block):
    """A (2H, K) gate block viewed as the (2, K, H) stack of Wz.T and Wr.T
    (Uz.T and Ur.T), with the strides of np.stack([Wz, Wr]).transpose(0, 2,
    1): each slice's product takes the BLAS path of `x @ Wz.T`."""
    return block.reshape(2, -1, block.shape[1]).transpose(0, 2, 1)


def span_inputs(cell, X, out_zr, out_h):
    """The input products of the per-gate step for a whole span: X (T, S, D)
    holds the inputs of T steps on S rows.  Writes the z and r products into
    out_zr (T, 2, S, H) and the candidate's into out_h (T, S, H).  A stacked
    product runs one gemm per step and gate, so each slice has the bytes of
    that step's own product; flattened to (T*S, D) rows, BLAS would block
    rows of different steps together and round them differently."""
    np.matmul(X[:, None], _zr_stack(cell.Wzr), out=out_zr)
    np.matmul(X, cell.Wh.T, out=out_h)


def gru_span(cell, X, h, resets=None, keep=None, ws=FRESH):
    """Run `cell` over one span from state rows h (S, H).  X (T, S, D) holds
    the step inputs; resets (T, S) marks rows whose state is zeroed before
    step t, keep (T, S, 1) rows whose state advances at step t while the
    others carry theirs over.  The input products run once over the span
    and only the U products and the gate arithmetic stay in the time loop.
    Returns the (T, S, H) states after each step, with the bytes of the
    per-gate step run step by step, and the cache gru_span_backward takes.
    The gate products are stacked views of the cell's z/r blocks, one
    product per gate.

    The stacks come from Workspace `ws` (FRESH: new arrays).  Those the
    backward pass reads are kept under the cell's prefix, so the states are
    valid only until the next span of the same cell in that workspace."""
    T, S = X.shape[:2]
    H, name = cell.hidden_size, cell.prefix
    ZR = ws.take(name + ".ZR", (T, 2, S, H), X.dtype)
    RH, C, Hout = (ws.take(name + part, (T, S, H), X.dtype) for part in (".RH", ".C", ".H"))
    # each step's gates and candidates overwrite its input products
    span_inputs(cell, X, ZR, C)
    U_zr = _zr_stack(cell.Uzr)
    b_zr = cell.bzr.reshape(2, 1, H)
    UhT, bh = cell.Uh.T, cell.bh
    reset_rows = [()] * T if resets is None else [np.flatnonzero(r) for r in resets]
    drop = None if keep is None else ~keep
    h0 = h
    for t in range(T):
        if len(reset_rows[t]):
            h = h.copy()
            h[reset_rows[t]] = 0.0
        # (x Wz + h Uz) + bz as in the per-gate step: a sum of two terms
        # commutes
        pre = h @ U_zr
        pre += ZR[t]
        pre += b_zr
        ZR[t] = sigmoid(pre)
        z, r = ZR[t]
        rh = np.multiply(r, h, out=RH[t])
        a = rh @ UhT
        a += C[t]
        a += bh
        c = np.tanh(a, out=C[t])
        np.add((1.0 - z) * h, z * c, out=Hout[t])
        if drop is not None:
            np.copyto(Hout[t], h, where=drop[t])
        h = Hout[t]
    return Hout, (X, h0, ZR, RH, C, Hout, resets, reset_rows, keep, ws)


def gru_span_backward(cell, cache, dH, grads):
    """Backprop through gru_span.  dH (T, S, H) is the loss gradient that
    reaches each step's state from outside the recurrence.  Adds the nine
    weight and bias gradients to `grads` and returns dX (T, S, D), both with
    the bytes of `backward` run from the last step down.  Its stacks come
    from the workspace of the forward span and serve the backward pass of
    any cell, so dX is valid until the next one."""
    X, h0, ZR, RH, C, Hout, resets, reset_rows, keep, ws = cache
    p = cell.p
    T, S, H = Hout.shape
    # the state each step read
    Hprev = ws.take("span.Hprev", Hout.shape, Hout.dtype)
    Hprev[0] = h0
    Hprev[1:] = Hout[:-1]
    if resets is not None:
        Hprev[resets] = 0.0
    if keep is not None:
        # x * True is x * 1.0 and x * False is x * 0.0, so float masks
        # give the bytes of the boolean ones
        keep = keep.astype(Hout.dtype)
        drop = 1.0 - keep
    Dz, Dr, Dc = (ws.take(name, Hout.shape, Hout.dtype)
                  for name in ("span.Dz", "span.Dr", "span.Dc"))
    # the factors of `backward` that need no other step, taken over the
    # span; each step overwrites its rows with the gate gradients
    np.subtract(1.0, ZR[:, 0], out=Dz)
    np.subtract(1.0, ZR[:, 1], out=Dr)
    np.multiply(C, C, out=Dc)
    np.subtract(1.0, Dc, out=Dc)
    Uz, Ur, Uh = p["Uz"], p["Ur"], p["Uh"]
    dh = np.zeros((S, H), dtype=Hout.dtype)
    for t in range(T - 1, -1, -1):
        z, r, c, h = ZR[t, 0], ZR[t, 1], C[t], Hprev[t]
        dh_total = dh + dH[t]
        g = dh_total if keep is None else dh_total * keep[t]
        one_z = Dz[t]
        dz = g * (c - h)
        dh_prev = g * one_z
        da_c = np.multiply(g * z, Dc[t], out=Dc[t])
        drh = da_c @ Uh
        dr = drh * h
        dh_prev += drh * r
        da_z = np.multiply(dz * z, one_z, out=Dz[t])
        da_r = np.multiply(dr * r, Dr[t], out=Dr[t])
        dh_prev += da_z @ Uz
        dh_prev += da_r @ Ur
        if keep is not None:
            dh_prev += dh_total * drop[t]
        if len(reset_rows[t]):
            dh_prev[reset_rows[t]] = 0.0
        dh = dh_prev
    return span_grads(cell, X, Hprev, RH, Dz, Dr, Dc, grads, ws)


def span_grads(cell, X, Hprev, RH, Dz, Dr, Dc, grads, ws):
    """The products of `backward` that wait for no other step, over a span:
    D{z,r,c} (T, S, H) are the gate pre-activation gradients of each step.
    Adds the weight and bias gradients to `grads` in reverse step order,
    the order of `backward` run from the last step down, and returns
    dX (T, S, D), taken from workspace `ws`."""
    p = cell.p
    pre = cell.prefix + "."
    for gate, D, Hin in (("h", Dc, RH), ("z", Dz, Hprev), ("r", Dr, Hprev)):
        add_span_grads(grads, pre + "W" + gate, pre + "b" + gate, D, X, ws)
        add_span_grads(grads, pre + "U" + gate, None, D, Hin, ws)
    # Dc Wh + Dz Wz + Dr Wr, added left to right
    dX = np.matmul(Dc, p["Wh"], out=ws.take("span.dX", X.shape, X.dtype))
    # the state stack is read only by the weight gradients above, so each
    # term of dX is written into it
    term = ws.take("span.Hprev", X.shape, X.dtype)
    dX += np.matmul(Dz, p["Wz"], out=term)
    dX += np.matmul(Dr, p["Wr"], out=term)
    return dX


def add_span_grads(grads, w_name, b_name, D, X, ws, reverse=True):
    """Add the sum over steps t of D[t].T @ X[t] to grads[w_name] and of D[t]'s
    column sums to grads[b_name] (skipped when None), for stacks D (T, S, N)
    and X (T, S, K).  Each step's product is a slice of one 3-d product,
    written into workspace `ws`, and the slices are summed over axis 0 in
    the order a step loop accumulated them: last step first when `reverse`.
    One (T*S)-row product would round differently."""
    order = slice(None, None, -1 if reverse else 1)
    T, _, N = D.shape
    products = np.matmul(D.transpose(0, 2, 1), X,
                         out=ws.take("span_grads.products", (T, N, X.shape[2]), X.dtype))
    grads[w_name] += products[order].sum(axis=0)
    if b_name is not None:
        grads[b_name] += D.sum(axis=1)[order].sum(axis=0)


def add_rows_at(table, ids, rows, ws):
    """np.add.at(table, ids, rows) for a C-contiguous 2-d table: row ids[i]
    gets rows[i] added, one row after the other.  The rows go in as single
    elements through np.add.at's fast 1-d path, so every element sums its
    values in the same order and the bytes match the 2-d call.  The element
    indices are built in workspace `ws`."""
    if not table.flags.c_contiguous:
        raise ValueError("table must be C-contiguous")
    ids = np.asarray(ids)
    width = table.shape[1]
    flat = np.multiply(ids.reshape(-1, 1), width,
                       out=ws.take("rows_at.index", (ids.size, width), np.int64))
    flat += np.arange(width)
    np.add.at(table.reshape(-1), flat.reshape(-1), rows.reshape(-1))


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
        return cell.step(x, h_prev)
    return cell.step(row_views(x), row_views(h_prev))[:, 0]


def global_norm(grads):
    total = 0.0
    for g in grads.values():
        total += float(np.sum(g * g))
    return np.sqrt(total)


def sgd_step(params, grads, lr, clip):
    """In-place SGD update with global-norm clipping: when the global norm
    exceeds `clip`, every gradient is first scaled in place so that it is
    `clip`.  Each gradient is then scaled by `lr` in place and
    subtracted, so `grads` holds the steps taken when it returns.  Returns
    the global norm before clipping."""
    norm = global_norm(grads)
    if norm > clip:
        scale = clip / norm
        for g in grads.values():
            g *= scale
    for name, p in params.items():
        g = grads[name]
        g *= lr
        p -= g
    return norm


def zeros_like_params(params):
    return {k: np.zeros_like(v) for k, v in params.items()}


def check_finite(params):
    for name, p in params.items():
        if not np.all(np.isfinite(p)):
            raise NumericError("non-finite values in %s" % name)


def save_model(path, header, tensors):
    """Write the container: magic, length-prefixed JSON header, then the raw
    little-endian buffers in manifest order, through corpus.replacing.
    Round trips are bit exact."""
    header = dict(header)
    names = sorted(tensors)
    header["tensors"] = [
        {"name": n, "shape": list(tensors[n].shape), "dtype": str(tensors[n].dtype)}
        for n in names
    ]
    blob = json.dumps(header, sort_keys=True).encode()
    with replacing(path) as tmp, open(tmp, "wb") as fh:
        fh.write(MODEL_MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        for n in names:
            arr = np.ascontiguousarray(tensors[n])
            if arr.dtype.byteorder == ">":
                arr = arr.astype(arr.dtype.newbyteorder("<"))
            fh.write(arr.tobytes())


def _read(fh, n, path):
    buf = fh.read(n)
    if len(buf) != n:
        raise DataError("model container is truncated", path=path)
    return buf


def load_model(path):
    """Read a container written by `save_model`: (header, tensors).  A file
    that is not a whole container of finite float tensors (bad magic, a
    short read, an undecodable header, non-finite values) raises DataError
    naming the path."""
    with open(path, "rb") as fh:
        if fh.read(len(MODEL_MAGIC)) != MODEL_MAGIC:
            raise DataError("not a model container", path=path)
        (hlen,) = struct.unpack("<I", _read(fh, 4, path))
        blob = _read(fh, hlen, path)
        try:
            header = json.loads(blob.decode())
            specs = [(spec["name"], tuple(int(d) for d in spec["shape"]), np.dtype(spec["dtype"]))
                     for spec in header["tensors"]]
        except (ValueError, KeyError, TypeError) as e:
            raise DataError("undecodable model header (%s)" % e, path=path) from None
        tensors = {}
        for name, shape, dtype in specs:
            if dtype.kind != "f" or min(shape, default=0) < 0:
                raise DataError("bad tensor spec for %s" % name, path=path)
            buf = _read(fh, math.prod(shape) * dtype.itemsize, path)
            arr = np.frombuffer(buf, dtype=dtype).reshape(shape).copy()
            if not np.isfinite(arr).all():
                raise DataError("non-finite values in tensor %s" % name, path=path)
            tensors[name] = arr
    return header, tensors
