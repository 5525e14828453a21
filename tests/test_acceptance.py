"""Acceptance suite: eleven end-to-end checks covering gradients, model
equivalences, lattice expansion, quality trends, and performance.

Each test prints one `criterion NN PASS/FAIL` line straight to the real
stdout so the verdicts stay visible under pytest's capture.  The shared
trained models come from conftest; training time is charged to fixture
setup, so the timed body of each criterion is the evaluation itself.
"""

import math
import random
import sys
import time

import numpy as np

from lmkit import evaluate
from lmkit.corpus import TokenizedCorpus, build_vocabulary
from lmkit.interpolate import linear, loglinear_score, safe_ln
from lmkit.lattice import (LatticeError, ProbCache, best_path,
                           enumerate_paths, nbest, parse_slf, path_words,
                           rescore_lattice_su, rescore_lattice_uni,
                           rescore_nbest, write_slf)
from lmkit.models import BiRnnlm, Hyper, SuRnnlm, UniRnnlm, smooth
from lmkit.ngram import FormatError, load_arpa, save_arpa
from lmkit.nn import softmax
from lmkit.synth import random_dag_lattice


class _criterion:
    """Context manager printing one verdict line per criterion.  Capture is
    lifted around the print so the verdicts stay visible in a plain pytest
    run; capsys comes in from the test."""

    def __init__(self, num, desc, cap=None):
        self.num = num
        self.desc = desc
        self.cap = cap

    def say(self, line):
        if self.cap is None:
            sys.__stdout__.write(line + "\n")
            sys.__stdout__.flush()
            return
        with self.cap.disabled():
            print(line, flush=True)

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    @property
    def elapsed(self):
        return time.perf_counter() - self.t0

    def __exit__(self, exc_type, exc, tb):
        verdict = "PASS" if exc_type is None else "FAIL"
        self.say("criterion %02d %s %s (%.1f s)"
                 % (self.num, verdict, self.desc, self.elapsed))
        return False


# ---------------------------------------------------------------------------
# small shared builders

GRAD_LINES = ["alpha bravo charlie delta", "echo golf hotel india",
              "julia kilo lima mike", "november oscar alpha bravo"]

WALK_LINES = ["u v w x u", "v x w u", "w u v x", "x w v u v"]
WALK_WORDS = ["u", "v", "w", "x"]


def _fd_ok(model, corpus, streams=2):
    """Central finite differences against the analytic gradients."""
    _, _, grads = model.loss_and_grads(corpus, streams)
    eps = 1e-4
    pad = model.vocab.pad
    for name, arr in model.params().items():
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            ix = it.multi_index
            if name == "emb" and ix[0] == pad:
                continue
            keep = arr[ix]
            arr[ix] = keep + eps
            up = model.loss_only(corpus, streams)
            arr[ix] = keep - eps
            dn = model.loss_only(corpus, streams)
            arr[ix] = keep
            fd = (up - dn) / (2 * eps)
            if not abs(grads[name][ix] - fd) <= 1e-7 + 1e-4 * abs(fd):
                return False, "%s %s%s analytic %.3e fd %.3e" % (
                    model.arch, name, list(ix), grads[name][ix], fd)
    return True, ""


def _walk_models(hidden=6, embed=4):
    vocab = build_vocabulary(WALK_LINES)
    uni = UniRnnlm(vocab, hidden, embed, seed=21)
    su1 = SuRnnlm(vocab, hidden, embed, succ=1, seed=22)
    su2 = SuRnnlm(vocab, hidden, embed, succ=2, seed=23)
    return vocab, uni, su1, su2


def _oracle_path_score(lat, model, arc_ids, lam, combine, alpha):
    """One path scored with its exact full history and future windows."""
    vocab = model.vocab
    words = [vocab.id_of(lat.arcs[a].word) for a in arc_ids]
    k = model.k
    h = model.advance(model.zero_state(), vocab.sent_begin)
    total = 0.0
    for t, aid in enumerate(arc_ids):
        win = None
        if k:
            win = tuple(words[t + 1:t + 1 + k])
            win = win + (vocab.pad,) * (k - len(win))
        lp = model.word_logprob_from_dist(model.output_dist(h, win, alpha),
                                          words[t])
        old = lat.arcs[aid].lm
        if combine == "linear":
            new_lm = safe_ln(linear(math.exp(old), math.exp(lp), lam))
        else:
            new_lm = loglinear_score(max(old, math.log(1e-12)), lp, lam)
        total += lat.arcs[aid].ac + new_lm
        h = model.advance(h, words[t])
    return total


def _surface_scores(lat):
    out = {}
    for p in enumerate_paths(lat):
        total = sum(lat.arcs[a].ac + lat.arcs[a].lm for a in p)
        out.setdefault(tuple(path_words(lat, p)), []).append(total)
    return {key: sorted(v) for key, v in out.items()}


# ---------------------------------------------------------------------------

def test_criterion_01_finite_difference_gradients(capsys):
    with _criterion(1, "analytic gradients match finite differences "
                       "for uni, bi, and su models", capsys) as c:
        vocab = build_vocabulary(GRAD_LINES)
        assert len(vocab.words) == 20
        corpus = TokenizedCorpus.from_lines(vocab, GRAD_LINES)
        makers = [
            lambda s: UniRnnlm(vocab, 8, 8, seed=s),
            lambda s: BiRnnlm(vocab, 8, 8, seed=s),
            lambda s: SuRnnlm(vocab, 8, 8, succ=1, seed=s),
            lambda s: SuRnnlm(vocab, 8, 8, succ=3, seed=s),
        ]
        for seed in range(5):
            for make in makers:
                # four streams shorten the unrolled span; the check is
                # against whatever loss the batching defines, so any
                # stream count is equally valid
                ok, msg = _fd_ok(make(seed), corpus, streams=4)
                assert ok, "seed %d: %s" % (seed, msg)
        assert c.elapsed < 30.0


def test_criterion_02_zero_window_su_equals_uni(capsys):
    with _criterion(2, "a su model with no future window reproduces the "
                       "uni model bitwise", capsys) as c:
        vocab = build_vocabulary(WALK_LINES)
        corpus = TokenizedCorpus.from_lines(vocab, WALK_LINES)
        rng = random.Random(71)
        for seed in (0, 1):
            uni = UniRnnlm(vocab, 8, 8, seed=seed)
            su0 = SuRnnlm(vocab, 8, 8, succ=0, seed=seed)
            for name, arr in uni.params().items():
                assert np.array_equal(arr, su0.params()[name])
            for _ in range(100):
                words = [WALK_WORDS[rng.randrange(4)]
                         for _ in range(rng.randint(1, 8))]
                ids = vocab.encode(words)
                assert uni.sentence_word_logprobs(ids) == \
                    su0.sentence_word_logprobs(ids)
            hyper = Hyper(epochs=2, num_streams=2, bptt=8)
            uni.train(corpus, hyper)
            su0.train(corpus, hyper)
            for name, arr in uni.params().items():
                assert np.array_equal(arr, su0.params()[name])
            for _ in range(3):
                lat = random_dag_lattice(rng, WALK_WORDS)
                a = rescore_lattice_uni(lat, uni, lam=0.75)
                b = rescore_lattice_su(lat, su0, lam=0.75, alpha=1.0,
                                       combine="linear")
                assert write_slf(a) == write_slf(b)
        assert c.elapsed < 10.0


def test_criterion_03_full_context_rescoring_matches_path_oracle(capsys):
    with _criterion(3, "unmerged rescoring equals per-path scoring and "
                       "merging never overshoots it", capsys) as c:
        vocab, uni, su1, su2 = _walk_models()
        rng = random.Random(83)
        runs = [(uni, "linear", 0.75, 1.0), (su1, "loglinear", 0.3, 0.7),
                (su2, "loglinear", 0.3, 0.7)]
        for _ in range(50):
            lat = random_dag_lattice(rng, WALK_WORDS)
            paths = enumerate_paths(lat)
            assert len(paths) <= 64
            for model, combine, lam, alpha in runs:
                if model.k:
                    full = rescore_lattice_su(lat, model, lam=lam,
                                              alpha=alpha, no_merge=True)
                    merged = rescore_lattice_su(lat, model, n_hist=2,
                                                lam=lam, alpha=alpha)
                else:
                    full = rescore_lattice_uni(lat, model, lam=lam,
                                               no_merge=True)
                    merged = rescore_lattice_uni(lat, model, n_hist=2,
                                                 lam=lam)
                want = {}
                for p in paths:
                    s = _oracle_path_score(lat, model, p, lam, combine, alpha)
                    want.setdefault(tuple(path_words(lat, p)), []).append(s)
                got = _surface_scores(full)
                assert set(got) == set(want)
                for surface in want:
                    ref = sorted(want[surface])
                    assert len(got[surface]) == len(ref)
                    for a, b in zip(got[surface], ref):
                        assert abs(a - b) <= 1e-6
                best_full = max(s for v in want.values() for s in v)
                assert best_path(merged).total <= best_full + 1e-9
        assert c.elapsed < 120.0


def _figure_lattice():
    """Six nodes, seven arcs: a fork over the first word, a shared middle,
    and a final two-way branch."""
    from lmkit.lattice import Arc, Lattice, Node
    nodes = [Node(i, float(i)) for i in range(6)]
    arcs = [Arc(0, 0, 1, "w0", -1.0, -0.4), Arc(1, 0, 2, "w1", -1.2, -0.5),
            Arc(2, 1, 3, "w2", -0.9, -0.6), Arc(3, 2, 3, "w2", -1.1, -0.7),
            Arc(4, 3, 4, "w3", -1.0, -0.3), Arc(5, 4, 5, "w4", -0.8, -0.2),
            Arc(6, 4, 5, "w5", -1.3, -0.9)]
    return Lattice(nodes, arcs).finish()


def _expected_expansion(lat, vocab, k, n_hist):
    """Brute-force state classes from complete-path enumeration: a node
    splits per distinct (truncated history, promised future window) pair,
    with a single wildcard initial state and one collapsed final state."""
    word_ids = [vocab.id_of(a.word) for a in lat.arcs]
    trunc = lambda seq: seq[-(n_hist - 1):] if n_hist > 1 else ()
    hists = {u: set() for u in range(len(lat.nodes))}
    futs = {u: set() for u in range(len(lat.nodes))}
    for p in enumerate_paths(lat):
        words = [word_ids[a] for a in p]
        nodes_seq = [lat.arcs[p[0]].start] + [lat.arcs[a].end for a in p]
        for i, u in enumerate(nodes_seq):
            prefix = (vocab.sent_begin,) + tuple(words[:i])
            hists[u].add(trunc(prefix))
            win = tuple(words[i:i + k])
            futs[u].add(win + (vocab.pad,) * (k - len(win)))

    states = {}
    hist0 = trunc((vocab.sent_begin,))
    for u in range(len(lat.nodes)):
        if u == lat.initial:
            states[u] = {(u, hist0, None)}
        elif u == lat.final:
            states[u] = {(u, None, None)}
        else:
            states[u] = {(u, h, f) for h in hists[u] for f in futs[u]}

    pad_tail = (vocab.pad,) * (k - 1) if k else ()
    arcs = set()
    for a in lat.arcs:
        w = word_ids[a.id]
        for src in states[a.start]:
            _, h, f = src
            if a.start == lat.initial:
                h = hist0
            elif k and f[0] != w:
                continue
            h2 = trunc((h or ()) + (w,))
            if a.end == lat.final:
                if a.start == lat.initial or not k or f[1:] == pad_tail:
                    arcs.add((src, a.id, (a.end, None, None)))
                continue
            for dst in states[a.end]:
                _, h3, f3 = dst
                if h3 != h2:
                    continue
                if k and a.start != lat.initial and f3[:k - 1] != f[1:]:
                    continue
                arcs.add((src, a.id, dst))
    return states, arcs


def test_criterion_04_expansion_matches_brute_force_oracle(capsys):
    with _criterion(4, "lattice expansion replicates the enumerated "
                       "history/future state classes", capsys):
        lat = _figure_lattice()
        vocab = build_vocabulary(["w0 w1 w2 w3 w4 w5"])
        uni = UniRnnlm(vocab, 5, 3, seed=2)
        cases = [(uni, 3), (uni, 2),
                 (SuRnnlm(vocab, 5, 3, succ=1, seed=3), 3),
                 (SuRnnlm(vocab, 5, 3, succ=2, seed=4), 3)]
        sizes = {}
        for model, n_hist in cases:
            out = (rescore_lattice_su if model.k else rescore_lattice_uni)(
                lat, model, n_hist=n_hist)
            want_states, want_arcs = _expected_expansion(
                lat, vocab, model.k, n_hist)
            got_states = {u: set() for u in range(len(lat.nodes))}
            for key in out.node_origin:
                got_states[key[0]].add(key)
            assert got_states == want_states
            got_arcs = {(out.node_origin[a.start], out.arc_origin[j],
                         out.node_origin[a.end])
                        for j, a in enumerate(out.arcs)}
            assert got_arcs == want_arcs
            sizes[(model.k, n_hist)] = (len(out.nodes), len(out.arcs))
        # the two-way first-word fork makes the middle node carry two
        # histories; the final fork makes its predecessor carry two futures
        assert sizes[(0, 3)] == (7, 8)
        assert sizes[(1, 3)] == (8, 10)


def test_criterion_05_future_context_lowers_heldout_score(
        uni, su1, su2, su3, heldout_corpus, capsys):
    with _criterion(5, "pseudo-perplexity improves with one succeeding "
                       "word and holds up through three", capsys) as c:
        pp0 = evaluate.perplexity(uni.sentence_word_logprobs,
                                  heldout_corpus).ppl
        pps = {}
        for k, model in ((1, su1), (2, su2), (3, su3)):
            pps[k] = evaluate.pseudo_perplexity(model.sentence_word_logprobs,
                                                heldout_corpus).ppl
        c.say("  k=0 %.2f  k=1 %.2f  k=2 %.2f  k=3 %.2f"
             % (pp0, pps[1], pps[2], pps[3]))
        assert pps[1] < pp0
        assert pps[2] <= 1.02 * pps[1]
        assert pps[3] <= 1.02 * pps[2]
        assert c.elapsed < 600.0


def test_criterion_06_rescoring_stages_cut_error_rate(
        uni, su1, su3, confusion, capsys):
    with _criterion(6, "each rescoring stage lowers lattice word error "
                       "by at least 0.2 points", capsys) as c:
        assert len(confusion) >= 200
        caches = {"uni": ProbCache(), "su1": ProbCache(), "su3": ProbCache()}
        stage_pairs = {name: [] for name in ("base", "uni", "su1", "su3")}
        for utt in confusion:
            stage_pairs["base"].append(
                (utt.ref, best_path(utt.lattice).words))
            mid = rescore_lattice_uni(utt.lattice, uni, n_hist=3, lam=0.9,
                                      cache=caches["uni"])
            stage_pairs["uni"].append((utt.ref, best_path(mid).words))
            for name, model in (("su1", su1), ("su3", su3)):
                out = rescore_lattice_su(mid, model, n_hist=3, lam=0.3,
                                         alpha=0.7, cache=caches[name])
                stage_pairs[name].append((utt.ref, best_path(out).words))
        wer = {name: 100.0 * evaluate.corpus_wer(pairs).rate
               for name, pairs in stage_pairs.items()}
        c.say("  wer base %.2f  uni %.2f  su1 %.2f  su3 %.2f"
             % (wer["base"], wer["uni"], wer["su1"], wer["su3"]))
        assert wer["base"] - wer["uni"] >= 0.2
        assert wer["uni"] - wer["su1"] >= 0.2
        assert wer["su1"] - wer["su3"] >= 0.2
        assert c.elapsed < 900.0


def test_criterion_07_smoothed_softmax_properties(capsys):
    with _criterion(7, "softmax smoothing keeps the argmax, sums to one, "
                       "and is exact at alpha one", capsys):
        rng = np.random.default_rng(5)
        for _ in range(1000):
            v = rng.normal(scale=5.0, size=37)
            exact = softmax(v)
            assert np.array_equal(smooth(v, 1.0), exact)
            for alpha in (0.3, 0.7, 1.0):
                dist = smooth(v, alpha)
                assert abs(float(dist.sum()) - 1.0) <= 1e-9
                assert np.all(dist >= 0.0)
            assert int(np.argmax(smooth(v, 0.7))) == int(np.argmax(exact))


def test_criterion_08_interpolation_endpoints_and_scale_invariance(
        su1, confusion, capsys):
    with _criterion(8, "weight endpoints reduce to the pure models and "
                       "rankings ignore global rescaling", capsys):
        rng = np.random.default_rng(6)
        for _ in range(200):
            p, q = rng.random(), rng.random()
            assert linear(p, q, 0.0) == p
            assert linear(p, q, 1.0) == q
            a, b = -10.0 * rng.random(), -10.0 * rng.random()
            assert loglinear_score(a, b, 0.0) == a
            assert loglinear_score(a, b, 1.0) == b
        # a zero-weight lattice pass leaves every arc score untouched
        lat = confusion[0].lattice
        out = rescore_lattice_uni(lat, UniRnnlm(su1.vocab, 6, 4, seed=9),
                                  lam=0.0)
        for j, arc in enumerate(out.arcs):
            assert arc.lm == lat.arcs[out.arc_origin[j]].lm
        # per-position ranking under the log-linear mix is unchanged when
        # every third-stream probability is scaled by a constant
        for lam in (0.3, 0.7):
            for _ in range(50):
                lin = -5.0 * rng.random(40)
                su = -5.0 * rng.random(40)
                base = [loglinear_score(a, b, lam)
                        for a, b in zip(lin, su)]
                shifted = [loglinear_score(a, b + math.log(3.7), lam)
                           for a, b in zip(lin, su)]
                assert list(np.argsort(base)) == list(np.argsort(shifted))
        # and so is the ranking of equal-length hypotheses
        for utt in confusion[:5]:
            hyps = nbest(utt.lattice, 2)
            assert len({len(h.words) for h in hyps}) == 1

            def su_fn(words, shift=0.0):
                ids = su1.vocab.encode(words)
                return sum(su1.sentence_word_logprobs(ids)) \
                    + shift * len(words)

            plain = rescore_nbest(hyps, su_fn)
            scaled = rescore_nbest(hyps, lambda w: su_fn(w, math.log(2.5)))
            assert [h.words for h in plain] == [h.words for h in scaled]


def test_criterion_09_model_files_round_trip(arpa, vocab, confusion,
                                             tmp_path, capsys):
    with _criterion(9, "ARPA and lattice files survive save/load/save "
                       "byte for byte and bad input names its line", capsys):
        p1, p2 = str(tmp_path / "a1.arpa"), str(tmp_path / "a2.arpa")
        save_arpa(arpa, p1)
        save_arpa(load_arpa(p1, vocab), p2)
        assert open(p1, "rb").read() == open(p2, "rb").read()
        text = write_slf(confusion[0].lattice)
        assert write_slf(parse_slf(text)) == text
        bad = str(tmp_path / "bad.arpa")
        with open(bad, "w") as f:
            f.write("\\data\\\nngram 1=1\n\n\\1-grams:\nbad\ta\n\\end\\\n")
        try:
            load_arpa(bad, vocab)
            assert False, "malformed file accepted"
        except FormatError as e:
            assert "line 5" in str(e)
        try:
            parse_slf("N=2\tL=1\nI=0\tt=0\nI=1\tt=1\nJ=0\tS=0\tE=9\tW=a\n")
            assert False, "malformed lattice accepted"
        except LatticeError as e:
            assert "line 4" in str(e)


def test_criterion_10_prob_cache_is_transparent_and_faster(uni, su1,
                                                           confusion,
                                                           capsys):
    with _criterion(10, "rescoring with the probability cache is byte "
                        "identical and faster over 200 lattices", capsys) as c:
        lats = [utt.lattice for utt in confusion[:200]]

        def run(cache):
            texts = []
            t0 = time.perf_counter()
            for lat in lats:
                texts.append(write_slf(rescore_lattice_uni(
                    lat, uni, n_hist=3, lam=0.9, cache=cache)))
            return time.perf_counter() - t0, texts

        _, plain = run(None)
        cache = ProbCache()
        _, cached = run(cache)
        assert plain == cached
        assert cache.dist_hits > 0
        # interleave three timed trials per condition and compare minima,
        # which rides out scheduler noise
        t_off, t_on = [], []
        for _ in range(3):
            t_off.append(run(None)[0])
            t_on.append(run(ProbCache())[0])
        assert min(t_on) < min(t_off)
        c.say("  uncached %.2f s  cached %.2f s" % (min(t_off), min(t_on)))
        su_cache = ProbCache()
        for lat in lats[:30]:
            a = write_slf(rescore_lattice_su(lat, su1, cache=None))
            b = write_slf(rescore_lattice_su(lat, su1, cache=su_cache))
            assert a == b
        assert su_cache.dist_hits > 0
        assert c.elapsed < 300.0


def test_criterion_11_training_throughput(vocab, train_corpus, capsys):
    with _criterion(11, "the su model trains about as fast as uni and "
                        "both run at least three times faster than bi", capsys) as c:
        hyper = Hyper(epochs=2, num_streams=16, bptt=32)
        # three interleaved trials of fresh models, each model's best rate:
        # one wall-clock run per model on a shared host can swing a ratio
        # by more than its margin
        wps = {"uni": 0.0, "su": 0.0, "bi": 0.0}
        for _ in range(3):
            for name, model in (("uni", UniRnnlm(vocab, 48, 24, seed=50)),
                                ("su", SuRnnlm(vocab, 48, 24, succ=1, seed=51)),
                                ("bi", BiRnnlm(vocab, 48, 24, seed=52))):
                wps[name] = max(wps[name], model.train(train_corpus, hyper)["wps"])
        c.say("  words/s uni %.0f  su %.0f  bi %.0f"
             % (wps["uni"], wps["su"], wps["bi"]))
        assert 0.75 <= wps["su"] / wps["uni"] <= 1.25
        assert wps["uni"] >= 3.0 * wps["bi"]
        assert wps["su"] >= 3.0 * wps["bi"]
        assert c.elapsed < 300.0
