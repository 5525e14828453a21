import copy
import math

import numpy as np
import pytest

from lmkit import models, nn
from lmkit.corpus import TokenizedCorpus, build_vocabulary
from lmkit.models import (BiRnnlm, Hyper, SuRnnlm, UniRnnlm, load_rnnlm,
                          smooth)
from oracles import full_pass, future_window, gru_step, step

TINY_LINES = ["c a b a", "a b c b a", "b c a", "a c b", "c b a b"]


def tiny_setup(shortlist=None):
    vocab = build_vocabulary(TINY_LINES, shortlist)
    corpus = TokenizedCorpus.from_lines(vocab, TINY_LINES)
    return vocab, corpus


def test_smooth_alpha_one_is_plain_softmax():
    rng = np.random.default_rng(2)
    for _ in range(50):
        x = rng.normal(scale=3.0, size=17)
        assert np.array_equal(smooth(x, 1.0), nn.softmax(x))


def test_smooth_flattens_but_keeps_argmax():
    rng = np.random.default_rng(3)
    for _ in range(50):
        x = rng.normal(scale=3.0, size=17)
        d = smooth(x, 0.7)
        assert abs(d.sum() - 1.0) < 1e-12
        assert int(np.argmax(d)) == int(np.argmax(x))
        # smaller alpha means higher entropy
        full = nn.softmax(x)
        assert -np.sum(d * np.log(d)) > -np.sum(full * np.log(full))


def test_unidirectional_model_distributions_are_normalized():
    vocab, _ = tiny_setup(shortlist=2)
    model = UniRnnlm(vocab, hidden=8, embed=4, seed=1)
    h = model.zero_state()
    dist, h = step(model, h, vocab.sent_begin)
    assert dist.shape == (vocab.output_size,)
    assert abs(dist.sum() - 1.0) < 1e-12


def test_out_of_shortlist_mass_splits_uniformly():
    vocab, _ = tiny_setup(shortlist=1)
    model = UniRnnlm(vocab, hidden=8, embed=4, seed=1)
    dist, _ = step(model, model.zero_state(), vocab.sent_begin)
    oos_words = [i for i in range(len(vocab)) if vocab.is_oos(i)]
    slot = dist[vocab.shortlist_size]
    for w in oos_words:
        want = math.log(slot) - math.log(len(oos_words))
        assert abs(model.word_logprob_from_dist(dist, w) - want) < 1e-12


def test_training_is_seed_deterministic():
    vocab, corpus = tiny_setup()
    hyper = Hyper(epochs=2, num_streams=2)
    runs = []
    for _ in range(2):
        m = UniRnnlm(vocab, hidden=8, embed=4, seed=5)
        m.train(corpus, hyper)
        runs.append({k: v.copy() for k, v in m.params().items()})
    for k in runs[0]:
        assert np.array_equal(runs[0][k], runs[1][k])


def test_training_memorizes_a_repeated_sentence():
    lines = ["a b c d e"] * 12
    vocab = build_vocabulary(lines)
    corpus = TokenizedCorpus.from_lines(vocab, lines)
    model = UniRnnlm(vocab, hidden=16, embed=8, seed=0)
    log = model.train(corpus, Hyper(epochs=40, lr=0.5, lr_decay=1.0,
                                    num_streams=2))
    assert log["epoch_loss"][-1] < 0.15
    assert log["epoch_loss"][-1] < log["epoch_loss"][0] / 4


def test_train_reports_token_count_and_speed():
    vocab, corpus = tiny_setup()
    model = UniRnnlm(vocab, hidden=8, embed=4, seed=3)
    log = model.train(corpus, Hyper(epochs=1, num_streams=2))
    assert log["tokens"] == corpus.word_count
    assert log["wps"] > 0 and log["seconds"] > 0


@pytest.mark.parametrize("arch", ["uni", "bi"])
def test_train_reports_gradient_norms_and_clipped_updates(arch, monkeypatch):
    vocab, corpus = tiny_setup()
    norms = []
    step = nn.sgd_step

    def counting_step(*args, **kwargs):
        norms.append(step(*args, **kwargs))
        return norms[-1]

    monkeypatch.setattr(nn, "sgd_step", counting_step)

    def make():
        cls = BiRnnlm if arch == "bi" else UniRnnlm
        return cls(vocab, hidden=8, embed=4, seed=3)

    # a tiny clip clips every update; norms are taken before clipping
    log = make().train(corpus, Hyper(epochs=2, num_streams=2, bptt=4, clip=1e-6))
    per_epoch = len(norms) // 2
    assert per_epoch > 1 and len(norms) == 2 * per_epoch
    assert log["clipped_updates"] == [per_epoch, per_epoch]
    assert log["grad_norm_max"] == [max(norms[:per_epoch]), max(norms[per_epoch:])]
    assert min(norms) > 1e-6
    norms.clear()
    log = make().train(corpus, Hyper(epochs=2, num_streams=2, bptt=4, clip=1e6))
    assert log["clipped_updates"] == [0, 0]
    assert log["grad_norm_max"] == [max(norms[:per_epoch]), max(norms[per_epoch:])]


def test_su_with_zero_future_words_equals_uni():
    vocab, corpus = tiny_setup()
    uni = UniRnnlm(vocab, hidden=8, embed=4, seed=9)
    su0 = SuRnnlm(vocab, hidden=8, embed=4, succ=0, seed=9)
    pu, ps = uni.params(), su0.params()
    assert sorted(pu) == sorted(ps)
    for k in pu:
        assert np.array_equal(pu[k], ps[k])
    for ids in corpus.sentences:
        a = uni.sentence_word_logprobs(ids)
        b = su0.sentence_word_logprobs(ids)
        assert a == b


def test_constructors_reject_non_positive_sizes():
    vocab, _ = tiny_setup()
    for make in (UniRnnlm, BiRnnlm, SuRnnlm):
        for hidden, embed in ((0, 4), (8, 0), (-1, 4)):
            with pytest.raises(ValueError):
                make(vocab, hidden=hidden, embed=embed)
    with pytest.raises(ValueError):
        SuRnnlm(vocab, hidden=8, embed=4, succ=-1)
    with pytest.raises(ValueError):
        SuRnnlm(vocab, hidden=8, embed=4, succ=2, future_hidden=0)


def test_hyper_rejects_values_that_cannot_train():
    for bad in ({"epochs": 0}, {"epochs": -2}, {"num_streams": 0}, {"bptt": 0},
                {"lr": 0.0}, {"lr": float("nan")}, {"lr_decay": -0.5},
                {"clip": -1.0}, {"clip": float("inf")}):
        with pytest.raises(ValueError):
            Hyper(**bad)
    Hyper(epochs=1, num_streams=1, bptt=1, lr=1e-9, lr_decay=1.0, clip=1e12)


def test_su_window_validation():
    vocab, _ = tiny_setup()
    su = SuRnnlm(vocab, hidden=8, embed=4, succ=2, seed=1)
    h = su.advance(su.zero_state(), vocab.sent_begin)
    with pytest.raises(ValueError):
        su.output_dist(h, window=(vocab.pad,))
    with pytest.raises(ValueError):
        su.output_dist(h, window=None)


def test_bi_scores_every_position_from_both_contexts():
    vocab, corpus = tiny_setup()
    model = BiRnnlm(vocab, hidden=8, embed=4, seed=4)
    ids = list(corpus.sentences[1])
    lps = model.sentence_word_logprobs(ids)
    assert len(lps) == len(ids) - 1
    assert all(math.isfinite(x) for x in lps)
    # swapping the last word changes the backward context, so the score of
    # the first word must move; a left-to-right model could never do that
    other = list(ids)
    other[-2] = vocab.index["a"] if ids[-2] != vocab.index["a"] else vocab.index["b"]
    assert model.sentence_word_logprobs(other)[0] != lps[0]


def test_bi_training_runs_and_logs():
    vocab, corpus = tiny_setup()
    model = BiRnnlm(vocab, hidden=8, embed=4, seed=4)
    # recorded before bi shared the uni epoch loop; bitwise on x86-64 OpenBLAS
    loss, _ = full_pass(model, model._batches(corpus, 2))
    assert loss == pytest.approx(55.38084216746678, rel=1e-12, abs=0)
    log = model.train(corpus, Hyper(epochs=2, num_streams=2))
    assert log["epoch_loss"] == pytest.approx([2.0800525708536033, 1.6042351617635509],
                                              rel=1e-12, abs=0)
    assert log["tokens"] == 2 * corpus.word_count


def _gru_shapes(prefix):
    shapes = {"Uh": [8, 8], "Ur": [8, 8], "Uz": [8, 8], "Wh": [8, 4], "Wr": [8, 4],
              "Wz": [8, 4], "bh": [8], "br": [8], "bz": [8]}
    return {prefix + "." + name: shape for name, shape in shapes.items()}


# the container header `save` writes for the round-trip models, less the word
# list, and the tensor shapes of its manifest; uni and su carry future_hidden,
# bi does not, so files saved by earlier versions keep loading alike
PINNED_HEADERS = {
    "uni": ({"arch": "uni", "dtype": "float64", "embed": 4, "future_hidden": 0,
             "hidden": 8, "shortlist_size": 8, "succ": 0, "vocab_size": 9},
            {"emb": [9, 4], "out.W": [9, 8], "out.b": [9], **_gru_shapes("gru")}),
    "su": ({"arch": "su", "dtype": "float64", "embed": 4, "future_hidden": 8,
            "hidden": 8, "shortlist_size": 8, "succ": 2, "vocab_size": 9},
           {"emb": [9, 4], "fut.W": [8, 8], "fut.b": [8], "out.W": [9, 16],
            "out.b": [9], **_gru_shapes("gru")}),
    "bi": ({"arch": "bi", "dtype": "float64", "embed": 4, "hidden": 8,
            "shortlist_size": 8, "succ": 0, "vocab_size": 9},
           {"emb": [9, 4], "out.W": [9, 16], "out.b": [9], **_gru_shapes("gru_f"),
            **_gru_shapes("gru_b")}),
}


def test_save_load_round_trip_preserves_scores(tmp_path):
    vocab, corpus = tiny_setup(shortlist=2)
    for model in (UniRnnlm(vocab, 8, 4, seed=6),
                  SuRnnlm(vocab, 8, 4, succ=2, seed=7),
                  BiRnnlm(vocab, 8, 4, seed=8)):
        path = str(tmp_path / ("%s.bin" % model.arch))
        model.save(path)
        header, _ = nn.load_model(path)
        assert header.pop("words") == vocab.words
        want_header, want_shapes = PINNED_HEADERS[model.arch]
        assert header.pop("tensors") == [
            {"dtype": "float64", "name": name, "shape": want_shapes[name]}
            for name in sorted(want_shapes)]
        assert header == want_header
        back = load_rnnlm(path)
        assert back.arch == model.arch
        assert back.vocab.words == vocab.words
        ids = corpus.sentences[0]
        assert model.sentence_word_logprobs(ids) == back.sentence_word_logprobs(ids)
        p, q = model.params(), back.params()
        for k in p:
            assert np.array_equal(p[k], q[k])


@pytest.mark.parametrize("arch", ["uni", "su2"])
def test_a_deep_copy_trains_on_its_own_gate_blocks(tmp_path, arch):
    # the per-gate parameters are views made on each call, so a deep copy
    # copies the blocks once and trains them through its own views
    vocab, corpus = tiny_setup(shortlist=2)
    model = (SuRnnlm(vocab, 8, 4, succ=2, seed=16) if arch == "su2"
             else UniRnnlm(vocab, 8, 4, seed=16))
    before = {k: v.copy() for k, v in model.params().items()}
    twin = copy.deepcopy(model)
    twin.train(corpus, Hyper(epochs=1, num_streams=2))
    cell = twin.gru
    for name, view in cell.params().items():
        kind, gate = name.split(".")[1]
        owner = getattr(cell, kind + "zr" if gate in "zr" else kind + "h")
        assert np.shares_memory(view, owner), name
        assert not np.shares_memory(view, model.gru.params()[name]), name
    for name, arr in model.params().items():
        assert arr.tobytes() == before[name].tobytes(), name
    assert any(arr.tobytes() != before[name].tobytes() for name, arr in twin.params().items())
    path = str(tmp_path / "twin.bin")
    twin.save(path)
    back = load_rnnlm(path)
    rng = np.random.default_rng(17)
    h = rng.uniform(-1.0, 1.0, size=(5, 8))
    ids = rng.integers(0, len(vocab), size=5)
    windows = rng.integers(0, len(vocab), size=(5, twin.k))
    for state, word, window in [(h, ids, windows)] + list(zip(h, ids, windows)):
        assert twin.advance(state, word).tobytes() == back.advance(state, word).tobytes()
        window = window if twin.k else None
        assert (twin.output_dist(state, window, 0.7).tobytes()
                == back.output_dist(state, window, 0.7).tobytes())


def test_diverged_training_raises_numeric_error():
    vocab, corpus = tiny_setup()
    model = UniRnnlm(vocab, hidden=8, embed=4, seed=1)
    with pytest.raises(nn.NumericError), np.errstate(divide="ignore"):
        model.train(corpus, Hyper(epochs=3, lr=1e6, clip=1e12, num_streams=2))


def _fd_check(model, corpus, tol_abs=1e-7, tol_rel=1e-4, streams=2):
    """Central finite differences against the analytic gradients."""
    batches = model._batches(corpus, streams)
    grads = nn.zeros_like_params(model.params())
    full_pass(model, batches, grads)
    eps = 1e-4
    pad = model.vocab.pad
    for name, arr in model.params().items():
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            ix = it.multi_index
            if name == "emb" and ix[0] == pad:
                continue  # pinned to zero by construction
            keep = arr[ix]
            arr[ix] = keep + eps
            up, _ = full_pass(model, batches)
            arr[ix] = keep - eps
            dn, _ = full_pass(model, batches)
            arr[ix] = keep
            fd = (up - dn) / (2 * eps)
            if not abs(grads[name][ix] - fd) <= tol_abs + tol_rel * abs(fd):
                return False, "%s%s analytic %.3e fd %.3e" % (
                    name, list(ix), grads[name][ix], fd)
    return True, ""


def test_su_gradients_match_finite_differences():
    lines = ["b a c", "a c b a"]
    vocab = build_vocabulary(lines, shortlist_size=2)
    corpus = TokenizedCorpus.from_lines(vocab, lines)
    model = SuRnnlm(vocab, hidden=4, embed=3, succ=1, seed=12)
    ok, msg = _fd_check(model, corpus)
    assert ok, msg


# forty words, so the output layer is wide enough for BLAS to block rows
ROW_LINES = [" ".join("w%d" % ((7 * i + 3 * j) % 40) for j in range(9))
             for i in range(40)]


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("succ", [0, 3])
def test_stacked_advance_and_output_dist_are_row_exact(succ, dtype):
    # lattice rescoring batches whatever rows a node needs and caches them,
    # so a row's bytes must not depend on the other rows of its batch
    vocab = build_vocabulary(ROW_LINES, 30)
    model = (SuRnnlm(vocab, hidden=48, embed=24, succ=succ, seed=17, dtype=dtype)
             if succ else UniRnnlm(vocab, hidden=48, embed=24, seed=17, dtype=dtype))
    rng = np.random.default_rng(18)
    n = 80
    H = rng.uniform(-1.0, 1.0, size=(n, model.hidden)).astype(dtype)
    ids = rng.integers(0, len(vocab), size=n)
    wins = rng.integers(0, len(vocab), size=(n, succ)) if succ else None
    one_h = [model.advance(H[i], ids[i]).tobytes() for i in range(n)]
    one_d = [model.output_dist(H[i], tuple(wins[i]) if succ else None, 0.7).tobytes()
             for i in range(n)]
    for B in range(1, 41):
        # row 0 sits in both batches, beside different rows
        for rows in (np.arange(B), np.r_[0, np.arange(n - B + 1, n)]):
            h_b = model.advance(H[rows], ids[rows])
            d_b = model.output_dist(H[rows], wins[rows] if succ else None, 0.7)
            assert h_b.shape == (B, model.hidden) and h_b.dtype == dtype
            assert d_b.shape == (B, vocab.output_size) and d_b.dtype == dtype
            for j, i in enumerate(rows):
                assert h_b[j].tobytes() == one_h[i]
                assert d_b[j].tobytes() == one_d[i]
    if succ:
        with pytest.raises(ValueError):
            model.output_dist(H[:2], wins[:2, :2])
        with pytest.raises(ValueError):
            model.output_dist(H[:2], wins[0])
        with pytest.raises(ValueError):
            model.output_dist(H[:2], None)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("succ", [0, 1, 3])
def test_trie_word_logprobs_match_step_walk(succ, dtype):
    # one trie over a whole sentence set scores each sentence with the bytes
    # of a one-row step walk of that sentence alone
    vocab = build_vocabulary(ROW_LINES, 30)
    model = (SuRnnlm(vocab, hidden=48, embed=24, succ=succ, seed=19, dtype=dtype)
             if succ else UniRnnlm(vocab, hidden=48, embed=24, seed=19, dtype=dtype))
    rng = np.random.default_rng(20)
    # shared stems, words past the shortlist, unknown words, a repeat
    words = ["w%d" % i for i in range(40)] + ["unk"]
    stems = [list(rng.choice(words, size=6)) for _ in range(4)]
    lines = [stems[i % 4][:rng.integers(0, 7)] + list(rng.choice(words, size=rng.integers(0, 8)))
             for i in range(150)]
    lines.append(lines[7])
    seqs = [vocab.encode(line) for line in lines]
    got = model.word_logprobs(seqs, 0.7)
    assert len(got) == len(seqs)
    for ids, lps in zip(seqs, got):
        want = []
        h = model.zero_state()
        for t in range(1, len(ids)):
            win = future_window(vocab.pad, ids, t, succ) if succ else None
            dist, h = step(model, h, ids[t - 1], win, 0.7)
            want.append(model.word_logprob_from_dist(dist, ids[t]))
        assert lps == want
        assert model.sentence_word_logprobs(ids, 0.7) == want
    assert model.word_logprobs([], 0.7) == []


def _reference_loss(model, corpus, streams=2):
    """The forward pass written out step by step, the future vector taken
    from each step's window column."""
    inputs, slots, valid, resets, windows = model._batches(corpus, streams)
    S, T = inputs.shape
    rows = np.arange(S)
    h = np.zeros((S, model.hidden), dtype=model.dtype)
    loss = 0.0
    for t in range(T):
        h = h.copy()
        h[resets[:, t]] = 0.0
        h, _ = gru_step(model.gru, model.emb[inputs[:, t]], h)
        ctx = h
        if model.k:
            flat = model.emb[windows[:, t]].reshape(S, model.k * model.embed)
            f = np.tanh(flat @ model.fut_w.T + model.fut_b)
            ctx = np.concatenate([h, f], axis=1)
        dist = nn.softmax(ctx @ model.out_w.T + model.out_b)
        mask = valid[:, t]
        picked = dist[rows, slots[:, t]]
        loss -= float(np.sum(np.log(picked, where=mask, out=np.zeros(S)) * mask))
    return loss


# the loss of one full pass and two training epochs on TINY_LINES, recorded
# before the future vector moved into _context_rows(h, window rows); bitwise
# on x86-64 OpenBLAS
PINNED_LOSSES = {
    0: (55.57591671490268, [2.3156631964542784, 1.6386474182630495]),
    3: (55.38021110418679, [2.307508796007783, 1.6180574180941971]),
}


@pytest.mark.parametrize("succ", [0, 3])
def test_training_losses_unchanged_by_row_windows(succ):
    vocab, corpus = tiny_setup()

    def make():
        if succ:
            return SuRnnlm(vocab, hidden=8, embed=4, succ=succ, seed=6)
        return UniRnnlm(vocab, hidden=8, embed=4, seed=5)

    loss, epochs = PINNED_LOSSES[succ]
    model = make()
    got, _ = full_pass(model, model._batches(corpus, 2))
    assert got == _reference_loss(model, corpus, 2)
    assert got == pytest.approx(loss, rel=1e-12, abs=0)
    log = make().train(corpus, Hyper(epochs=2, num_streams=2))
    assert log["epoch_loss"] == pytest.approx(epochs, rel=1e-12, abs=0)


@pytest.mark.parametrize("arch", ["uni", "su2", "bi"])
def test_loss_only_equals_the_loss_of_loss_and_grads(arch):
    vocab, corpus = tiny_setup()
    model = {"uni": lambda: UniRnnlm(vocab, hidden=8, embed=4, seed=13),
             "su2": lambda: SuRnnlm(vocab, hidden=8, embed=4, succ=2, seed=14),
             "bi": lambda: BiRnnlm(vocab, hidden=8, embed=4, seed=15)}[arch]()
    # three streams make two bi batches, so the totals add several updates
    for streams in (1, 2, 3):
        batches = model._batches(corpus, streams)
        # the pass without gradients gives the loss of the pass with them
        loss, tokens = full_pass(model, batches, nn.zeros_like_params(model.params()))
        assert full_pass(model, batches) == (loss, tokens)
        assert tokens == corpus.word_count


@pytest.mark.parametrize("succ, hidden, embed", [
    pytest.param(0, 48, 24, id="0"),
    pytest.param(2, 48, 24, id="2"),
    # sizes no BLAS kernel blocks evenly
    pytest.param(2, 7, 5, id="2-hidden7-embed5"),
])
def test_word_logprobs_over_several_tries_equal_each_sentence_alone(monkeypatch, succ,
                                                                     hidden, embed):
    vocab = build_vocabulary(ROW_LINES, 30)
    model = (SuRnnlm(vocab, hidden=hidden, embed=embed, succ=succ, seed=25) if succ
             else UniRnnlm(vocab, hidden=hidden, embed=embed, seed=25))
    rng = np.random.default_rng(26)
    words = ["w%d" % i for i in range(40)] + ["unk"]
    stem = list(rng.choice(words, size=5))
    seqs = [vocab.encode(stem[:rng.integers(0, 6)] + list(rng.choice(words, size=rng.integers(0, 7))))
            for _ in range(11)]
    whole = model.word_logprobs(seqs, 0.7)
    monkeypatch.setattr(models, "TRIE_SENTENCES", 4)
    runs = [run for run, _ in models.prefix_tries(seqs, succ, vocab.pad)]
    assert [len(run) for run in runs] == [4, 4, 3]
    alone = [model.word_logprobs([ids], 0.7)[0] for ids in seqs]
    assert model.word_logprobs(seqs, 0.7) == alone == whole


@pytest.mark.parametrize("succ", [0, 2])
def test_trie_steps_once_per_depth_and_runs_its_output_layer_once(monkeypatch, succ):
    # only the recurrence has to go depth by depth: the output layer takes
    # the rows of every depth in one call, or of as many consecutive depths
    # as TRIE_DIST_ELEMENTS allows, with the same bytes
    vocab = build_vocabulary(ROW_LINES, 30)
    model = (SuRnnlm(vocab, hidden=8, embed=4, succ=succ, seed=29) if succ
             else UniRnnlm(vocab, hidden=8, embed=4, seed=29))
    rng = np.random.default_rng(30)
    words = ["w%d" % i for i in range(40)] + ["unk"]
    seqs = [vocab.encode(list(rng.choice(words, size=rng.integers(0, 9)))) for _ in range(10)]
    trie = models.PrefixTrie(seqs, succ, vocab.pad)
    depths = len(trie.levels)
    rows = [len(pairs) if succ else len(parents) for parents, _, pairs in trie.levels]
    calls = {}

    def counted(name):
        method = getattr(model, name)

        def call(*args):
            calls[name] += 1
            return method(*args)
        return call

    for name in ("advance", "output_dist"):
        monkeypatch.setattr(model, name, counted(name))

    def run():
        calls.update(advance=0, output_dist=0)
        return [d.tobytes() for d in trie.dists(model, 0.7)], dict(calls)

    whole, counts = run()
    assert counts == {"advance": depths, "output_dist": 1}
    scores = model.word_logprobs(seqs, 0.7)
    # a budget one depth fills runs the output layer once per depth
    monkeypatch.setattr(models, "TRIE_DIST_ELEMENTS", 1)
    assert run() == (whole, {"advance": depths, "output_dist": depths})
    assert model.word_logprobs(seqs, 0.7) == scores
    # one the widest depth fills takes some depths together
    monkeypatch.setattr(models, "TRIE_DIST_ELEMENTS", max(rows) * vocab.output_size)
    split, counts = run()
    assert split == whole and counts["advance"] == depths
    assert 1 < counts["output_dist"] < depths
