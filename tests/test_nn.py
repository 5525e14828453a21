import math
import os

import numpy as np
import pytest

from lmkit import nn
from lmkit.corpus import write_text
from oracles import gru_step as per_gate_step


def test_sigmoid_matches_closed_form():
    x = np.array([-700.0, -2.0, 0.0, 3.0, 700.0])
    got = nn.sigmoid(x)
    assert got[2] == 0.5
    assert abs(got[1] - 1.0 / (1.0 + math.exp(2.0))) < 1e-15
    assert abs(got[3] - 1.0 / (1.0 + math.exp(-3.0))) < 1e-15
    # the split-by-sign form stays finite far into the tails
    assert 0.0 <= got[0] < 1e-300 and got[4] == 1.0


def test_softmax_two_logits_hand_value():
    d = nn.softmax(np.array([1.0, 0.0]))
    # 1 / (1 + e^-1) and its complement
    assert abs(d[0] - 0.7310585786300049) < 1e-15
    assert abs(d[1] - 0.2689414213699951) < 1e-15


def test_softmax_shift_invariant_and_normalized():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(4, 9))
    d = nn.softmax(x)
    assert np.allclose(d.sum(axis=-1), 1.0, atol=1e-12)
    assert np.allclose(d, nn.softmax(x + 123.0), atol=1e-12)
    assert np.all(d > 0)


def _scalar_cell():
    rng = np.random.default_rng(7)
    cell = nn.GruCell(1, 1, rng)
    # overwrite with fixed scalars so the oracle below is hand-checkable
    vals = {"Wz": 0.3, "Uz": -0.2, "bz": 0.1,
            "Wr": 0.5, "Ur": 0.4, "br": -0.3,
            "Wh": -0.6, "Uh": 0.2, "bh": 0.05}
    for k, v in vals.items():
        cell.p[k][...] = v
    return cell, vals


def test_gru_step_matches_scalar_transcription():
    cell, p = _scalar_cell()
    x, h = 0.8, -0.5

    def sig(a):
        return 1.0 / (1.0 + math.exp(-a))

    z = sig(p["Wz"] * x + p["Uz"] * h + p["bz"])
    r = sig(p["Wr"] * x + p["Ur"] * h + p["br"])
    c = math.tanh(p["Wh"] * x + p["Uh"] * (r * h) + p["bh"])
    want = (1.0 - z) * h + z * c
    got = nn.gru_step(cell, np.array([x]), np.array([h]))
    assert abs(got[0] - want) < 1e-14


def test_gru_batch_rows_are_independent():
    rng = np.random.default_rng(3)
    cell = nn.GruCell(4, 5, rng)
    x = rng.normal(size=(6, 4))
    h = rng.normal(size=(6, 5))
    full, _ = cell.step(x, h)
    for i in range(6):
        one, _ = cell.step(x[i:i + 1], h[i:i + 1])
        assert np.allclose(one[0], full[i], atol=1e-14)


def _same(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _cell_and_batches(D, H, dtype, seed):
    """A cell and one random (x, h) stack of each size from 1 to 64 rows."""
    rng = np.random.default_rng(seed)
    cell = nn.GruCell(D, H, rng, dtype=dtype)
    return cell, [(rng.normal(size=(B, D)).astype(dtype),
                   rng.uniform(-1.0, 1.0, size=(B, H)).astype(dtype)) for B in range(1, 65)]


# (input, hidden) of the pinned tests, float64: the rescoring texts (4, 6),
# the training losses (4, 8), the CLI scoring pins (8, 12), and the trained
# parameters and the benchmark (24, 48).  At these sizes the fused block
# products round like the per-gate ones in either dtype, except float32 at
# (4, 6), which is among the odd sizes below
PINNED_SIZES = [(D, H, dtype) for D, H in ((4, 6), (4, 8), (8, 12), (24, 48))
                for dtype in (np.float64, np.float32)
                if (D, H, dtype) != (4, 6, np.float32)]


@pytest.mark.parametrize("D,H,dtype", PINNED_SIZES)
def test_gru_step_has_the_bytes_of_the_per_gate_step(D, H, dtype):
    cell, batches = _cell_and_batches(D, H, dtype, 61)
    for x, h in batches:
        want = per_gate_step(cell, nn.row_views(x), nn.row_views(h))[0][:, 0]
        assert _same(nn.gru_step(cell, x, h), want)
        assert _same(nn.gru_step(cell, x[0], h[0]), per_gate_step(cell, x[0], h[0])[0])


# sizes where the fused products can differ from the per-gate ones in the
# last bit (BLAS treats the trailing columns of a (2H)-wide block apart)
ODD_SIZES = [(17, 33, np.float64), (17, 33, np.float32), (3, 4, np.float32),
             (5, 7, np.float32), (4, 6, np.float32)]


@pytest.mark.parametrize("D,H,dtype", ODD_SIZES)
def test_gru_step_rows_are_exact_at_odd_sizes(D, H, dtype):
    cell, batches = _cell_and_batches(D, H, dtype, 62)
    for x, h in batches:
        got = nn.gru_step(cell, x, h)
        for i in range(len(x)):
            assert _same(got[i], nn.gru_step(cell, x[i], h[i]))


def test_gate_blocks_hold_the_per_gate_weights():
    rng = np.random.default_rng(63)
    cell = nn.GruCell(3, 4, rng)
    params = cell.params()
    assert list(params) == ["gru.%s%s" % (kind, gate) for gate in "zrh" for kind in "WUb"]
    for gate, rows in (("z", slice(0, 4)), ("r", slice(4, 8))):
        for kind, block in (("W", cell.Wzr), ("U", cell.Uzr), ("b", cell.bzr)):
            view = params["gru.%s%s" % (kind, gate)]
            assert np.shares_memory(view, block) and np.array_equal(view, block[rows])
    # the per-gate draws are those of a cell that stored each gate apart
    rng = np.random.default_rng(63)
    for name in ("Wz", "Uz", "bz", "Wr", "Ur", "br", "Wh", "Uh", "bh"):
        shape = cell.p[name].shape
        assert np.array_equal(cell.p[name], nn.uniform_init(rng, shape))


def test_gru_backward_matches_finite_differences():
    rng = np.random.default_rng(5)
    cell = nn.GruCell(3, 4, rng)
    x = rng.normal(size=(2, 3))
    h0 = rng.normal(size=(2, 4))
    w = rng.normal(size=(2, 4))  # fixed projection makes the loss a scalar

    def loss():
        h, _ = cell.step(x, h0)
        return float(np.sum(w * h))

    base_h, cache = cell.step(x, h0)
    grads = nn.zeros_like_params(cell.params())
    dx, dh_prev = cell.backward(cache, w, grads)
    eps = 1e-6
    for name, arr in cell.params().items():
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            ix = it.multi_index
            keep = arr[ix]
            arr[ix] = keep + eps
            up = loss()
            arr[ix] = keep - eps
            dn = loss()
            arr[ix] = keep
            fd = (up - dn) / (2 * eps)
            assert abs(grads[name][ix] - fd) < 1e-7
    for i in range(x.shape[0]):
        for j in range(x.shape[1]):
            keep = x[i, j]
            x[i, j] = keep + eps
            up = loss()
            x[i, j] = keep - eps
            dn = loss()
            x[i, j] = keep
            assert abs(dx[i, j] - (up - dn) / (2 * eps)) < 1e-7


def test_global_norm_hand_value():
    grads = {"a": np.array([3.0]), "b": np.array([4.0])}
    assert nn.global_norm(grads) == 5.0


def test_clip_scales_only_above_threshold():
    params = {"a": np.array([0.0]), "b": np.array([0.0])}
    grads = {"a": np.array([3.0]), "b": np.array([4.0])}
    norm = nn.sgd_step(params, grads, 1.0, clip=2.5)
    assert norm == 5.0
    assert grads["a"][0] == 1.5 and grads["b"][0] == 2.0
    before = {k: v.copy() for k, v in grads.items()}
    nn.sgd_step(params, grads, 1.0, clip=100.0)
    for k in grads:
        assert np.array_equal(grads[k], before[k])


def test_sgd_step_updates_in_place():
    p = {"w": np.array([1.0, 2.0])}
    g = {"w": np.array([0.5, -1.0])}
    nn.sgd_step(p, g, lr=0.1)
    assert np.allclose(p["w"], [0.95, 2.1], atol=1e-15)


def test_sgd_step_returns_the_pre_clip_norm():
    p = {"a": np.array([1.0]), "b": np.array([1.0])}
    g = {"a": np.array([3.0]), "b": np.array([4.0])}
    assert nn.sgd_step(p, g, lr=1.0, clip=2.5) == 5.0
    assert p["a"][0] == -0.5 and p["b"][0] == -1.0
    g = {"a": np.array([3.0]), "b": np.array([4.0])}
    assert nn.sgd_step(p, g, lr=1.0) == 5.0
    assert p["a"][0] == -3.5 and p["b"][0] == -5.0


def test_uniform_init_is_seed_deterministic():
    a = nn.uniform_init(np.random.default_rng(9), (3, 3))
    b = nn.uniform_init(np.random.default_rng(9), (3, 3))
    assert np.array_equal(a, b)
    assert np.all(np.abs(a) <= 0.1)


def test_model_container_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    tensors = {"w": rng.normal(size=(2, 3)), "b": rng.normal(size=(3,))}
    path = str(tmp_path / "m.bin")
    nn.save_model(path, {"arch": "x", "hidden": 3}, tensors)
    header, loaded = nn.load_model(path)
    assert header["arch"] == "x" and header["hidden"] == 3
    for k in tensors:
        assert np.array_equal(loaded[k], tensors[k])
    # a second save of the loaded tensors is byte-identical
    path2 = str(tmp_path / "m2.bin")
    nn.save_model(path2, {"arch": "x", "hidden": 3}, loaded)
    assert open(path, "rb").read() == open(path2, "rb").read()


def test_failed_saves_leave_no_temporary_file(tmp_path, monkeypatch):
    # the model container and text files share one write-then-rename path
    path = tmp_path / "m.bin"
    path.write_bytes(b"old")

    def refuse(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(os, "replace", refuse)
    for save in (lambda: nn.save_model(str(path), {"arch": "x"}, {"w": np.zeros(2)}),
                 lambda: write_text(str(path), "text\n")):
        with pytest.raises(OSError, match="rename refused"):
            save()
        assert [p.name for p in tmp_path.iterdir()] == ["m.bin"]
        assert path.read_bytes() == b"old"


def test_load_model_rejects_wrong_magic(tmp_path):
    path = str(tmp_path / "bad.bin")
    with open(path, "wb") as f:
        f.write(b"not a container")
    with pytest.raises(ValueError):
        nn.load_model(path)


def test_check_finite_raises_on_nan():
    with pytest.raises(nn.NumericError):
        nn.check_finite({"w": np.array([1.0, float("nan")])})
    nn.check_finite({"w": np.array([1.0, 2.0])})
