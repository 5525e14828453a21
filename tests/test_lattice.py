import gc
import hashlib
import math
import random

import numpy as np
import pytest

from lmkit import lattice as lattice_mod
from lmkit import models as models_mod
from lmkit import synth as synth_mod
from lmkit.corpus import build_vocabulary
from lmkit.interpolate import InterpConfig, linear, loglinear_score, safe_ln, two_stage
from lmkit.lattice import (LM_FLOOR, Arc, Hypothesis, Lattice, LatticeError,
                           Node, ProbCache, arc_posteriors, best_path,
                           load_slf, make_two_stage_scorer, nbest, parse_slf,
                           prune, read_nbest, rescore_lattice_su,
                           rescore_lattice_uni, rescore_nbest, save_slf,
                           write_nbest, write_slf)
from lmkit.models import SuRnnlm, UniRnnlm
from lmkit.ngram import train_kn
from lmkit.corpus import TokenizedCorpus
from lmkit.synth import confusion_sausage
import oracles
from oracles import enumerate_paths, future_window, path_words, random_dag_lattice, step


def diamond():
    """Two paths: a c (total -1.9) and b d (total -2.6)."""
    nodes = [Node(0, 0.0), Node(1, 0.5), Node(2, 0.5), Node(3, 1.0)]
    arcs = [Arc(0, 0, 1, "a", -1.0, -0.5),
            Arc(1, 0, 2, "b", -0.2, -2.0),
            Arc(2, 1, 3, "c", -0.3, -0.1),
            Arc(3, 2, 3, "d", -0.1, -0.3)]
    return Lattice(nodes, arcs).finish()


def tiny_vocab_words():
    lines = ["u v w x u", "v x w u", "w u v x"]
    vocab = build_vocabulary(lines)
    return vocab, ["u", "v", "w", "x"]


# ---- structure and formats ----

def test_finish_validates_structure():
    with pytest.raises(LatticeError):
        Lattice([Node(0, 0.0)], []).finish()
    with pytest.raises(LatticeError):   # self loop
        Lattice([Node(0, 0.0), Node(1, 1.0)],
                [Arc(0, 0, 0, "a", 0.0, 0.0)]).finish()
    with pytest.raises(LatticeError):   # two initial nodes
        Lattice([Node(0, 0.0), Node(1, 0.0), Node(2, 1.0)],
                [Arc(0, 0, 2, "a", 0.0, 0.0), Arc(1, 1, 2, "b", 0.0, 0.0)]).finish()
    # one initial node, one final node and no cycle put every node on an
    # initial-to-final path, so these rules alone refuse a node that is
    # unreachable or cannot reach the final node
    with pytest.raises(LatticeError, match="contains a cycle"):
        Lattice([Node(0, 0.0), Node(1, 1.0), Node(2, 2.0), Node(3, 3.0)],
                [Arc(0, 0, 1, "a"), Arc(1, 1, 2, "b"), Arc(2, 2, 1, "c"),
                 Arc(3, 2, 3, "d")]).finish()
    with pytest.raises(LatticeError, match="contains a cycle"):
        # a two-node cycle apart from the path 0 -> 1
        Lattice([Node(0, 0.0), Node(1, 1.0), Node(2, 0.0), Node(3, 1.0)],
                [Arc(0, 0, 1, "a"), Arc(1, 2, 3, "b"), Arc(2, 3, 2, "c")]).finish()
    with pytest.raises(LatticeError, match="expected one initial node, found 2"):
        # node 3 is a second source, its arc joining the path 0 -> 1 -> 2
        Lattice([Node(0, 0.0), Node(1, 1.0), Node(2, 2.0), Node(3, 0.5)],
                [Arc(0, 0, 1, "a"), Arc(1, 1, 2, "b"), Arc(2, 3, 2, "c")]).finish()
    with pytest.raises(LatticeError, match="arc 1 runs backwards in time"):
        Lattice([Node(0, 0.0), Node(1, 2.0), Node(2, 1.0)],
                [Arc(0, 0, 1, "a"), Arc(1, 1, 2, "b")]).finish()
    lat = diamond()
    assert lat.initial == 0 and lat.final == 3
    assert lat.topo[0] == 0 and lat.topo[-1] == 3


def test_slf_round_trip_is_byte_identical():
    lat = diamond()
    text = write_slf(lat)
    again = write_slf(parse_slf(text))
    assert text == again


def test_parse_slf_accepts_field_reordering_and_comments():
    text = ("# comment\nVERSION=1.0\nN=2\tL=1\n"
            "t=0.00\tI=0\nI=1\tt=1.00\n"
            "W=hi\tJ=0\tE=1\tS=0\ta=-1.5\n")
    lat = parse_slf(text)
    assert lat.arcs[0].word == "hi"
    assert lat.arcs[0].ac == -1.5
    assert lat.arcs[0].lm == 0.0   # defaulted


def test_parse_slf_reports_line_numbers():
    cases = [
        ("N=2\tL=1\nI=0\tt=0\nI=1\tt=1\nJ=0\tS=0\tE=5\tW=a\n", "line 4"),
        ("N=x\tL=1\n", "line 1"),
        ("N=2\tL=1\nI=0\tt=0\nI=0\tt=1\n", "line 3"),
        ("N=2\tL=1\nI=0\tt=0\nbogus\n", "line 3"),
        ("I=0\tt=0\n", "line 1"),
        ("N=2\tL=1\nI=0\tt=0\nI=1\tt=1\nJ=0\tS=0\tE=1\n", "line 4"),
        ("N=2\tL=1\nI=0\tt=0\nI=1\tt=1\nJ=5\tS=0\tE=1\tW=a\n",
         "line 4: arc id 5 out of range"),
    ]
    for text, where in cases:
        with pytest.raises(LatticeError) as err:
            parse_slf(text)
        assert where in str(err.value), text
    with pytest.raises(LatticeError):
        parse_slf("VERSION=1.0\n")   # no counts line at all


def test_parse_slf_checks_declared_counts():
    with pytest.raises(LatticeError):
        parse_slf("N=3\tL=1\nI=0\tt=0\nI=1\tt=1\nJ=0\tS=0\tE=1\tW=a\n")
    with pytest.raises(LatticeError):
        parse_slf("N=2\tL=2\nI=0\tt=0\nI=1\tt=1\nJ=0\tS=0\tE=1\tW=a\n")


def test_save_load_slf_files(tmp_path):
    lat = diamond()
    path = str(tmp_path / "d.slf")
    save_slf(lat, path)
    back = load_slf(path)
    assert write_slf(back) == write_slf(lat)


def _index(lat):
    return (lat.out_off, lat.out_ids, lat.in_off, lat.in_ids, lat.initial, lat.final,
            lat.topo)


def test_columns_match_the_constructor_and_the_slf_round_trip(monkeypatch):
    # every lattice Lattice(nodes, arcs) builds for the oracles' random DAGs
    # and for synth's sausages: its views give back the objects' values, and
    # parsing its SLF text gives the same columns, the scores as printed
    given = []

    class Recording(Lattice):
        __slots__ = ()

        def __init__(self, nodes, arcs):
            given.append((self, nodes, arcs))
            super().__init__(nodes, arcs)

    monkeypatch.setattr(oracles, "Lattice", Recording)
    monkeypatch.setattr(synth_mod, "Lattice", Recording)
    rng = random.Random(77)
    _, ngram = _scorer_setup()[:2]
    lats = [random_dag_lattice(rng, SHORTLIST_WORDS) for _ in range(20)]
    for _ in range(10):
        ref = [rng.choice(SHORTLIST_WORDS) for _ in range(rng.randint(1, 8))]
        lats.append(confusion_sausage(ngram, ref, rng.randrange(len(ref)),
                                      rng.choice(SHORTLIST_WORDS), 0.5, rng))
    # random_dag_lattice drops a lattice with too many paths and draws again
    made = {id(lat): (nodes, arcs) for lat, nodes, arcs in given}
    for lat in lats:
        nodes, arcs = made[id(lat)]
        assert [(nd.id, nd.time) for nd in lat.nodes] == [(nd.id, nd.time) for nd in nodes]
        fields = [(a.id, a.start, a.end, a.word, a.ac, a.lm) for a in arcs]
        assert [(a.id, a.start, a.end, a.word, a.ac, a.lm) for a in lat.arcs] == fields
        assert [(a.id, a.start, a.end, a.word, a.ac, a.lm)
                for a in map(lat.arcs.__getitem__, range(-len(arcs), 0))] == fields
        assert lat.time == [nd.time for nd in nodes]
        assert [lat.start, lat.end, lat.word, lat.ac, lat.lm] == [
            [getattr(a, name) for a in arcs] for name in ("start", "end", "word", "ac", "lm")]
        assert _index(lat) == _index(Lattice(lat.nodes, lat.arcs).finish())
        text = write_slf(lat)
        back = parse_slf(text)
        assert write_slf(back) == text
        assert (back.start, back.end, back.word) == (lat.start, lat.end, lat.word)
        assert back.time == [float("%.2f" % t) for t in lat.time]
        assert back.ac == [float("%.6f" % v) for v in lat.ac]
        assert back.lm == [float("%.6f" % v) for v in lat.lm]
        assert _index(back) == _index(lat)
        # the views are built on every access and hold nothing
        assert lat.arcs[0] is not lat.arcs[0]
        with pytest.raises(IndexError):
            lat.arcs[len(arcs)]


# ---- path search ----

def test_best_path_hand_diamond():
    lat = diamond()
    hyp = best_path(lat)
    assert hyp.words == ["a", "c"]
    assert abs(hyp.total - (-1.9)) < 1e-12
    assert abs(hyp.ac - (-1.3)) < 1e-12
    assert abs(hyp.lm - (-0.6)) < 1e-12
    # downweighting the lm stream flips the decision
    assert best_path(lat, lm_scale=0.1).words == ["b", "d"]


def test_best_path_tie_takes_lower_arc_ids():
    nodes = [Node(0, 0.0), Node(1, 1.0)]
    arcs = [Arc(0, 0, 1, "p", -1.0, 0.0), Arc(1, 0, 1, "q", -1.0, 0.0)]
    lat = Lattice(nodes, arcs).finish()
    assert best_path(lat).words == ["p"]


def _score(lat, arc_ids, ac_scale=1.0, lm_scale=1.0):
    return sum(ac_scale * lat.arcs[a].ac + lm_scale * lat.arcs[a].lm
               for a in arc_ids)


def test_nbest_matches_exhaustive_enumeration():
    rng = random.Random(17)
    _, words = tiny_vocab_words()
    for _ in range(10):
        lat = random_dag_lattice(rng, words)
        paths = enumerate_paths(lat)
        ranked = sorted(((p, _score(lat, p)) for p in paths),
                        key=lambda ps: -ps[1])
        seen, want = set(), []
        for p, s in ranked:
            surface = tuple(path_words(lat, p))
            if surface not in seen:
                seen.add(surface)
                want.append((surface, s))
        got = nbest(lat, len(paths))
        assert len(got) == len(want)
        assert [h.total for h in got] == sorted((h.total for h in got),
                                                reverse=True)
        assert {tuple(h.words) for h in got} == {w for w, _ in want}
        by_surface = dict(want)
        for h in got:
            assert abs(h.total - by_surface[tuple(h.words)]) < 1e-9
        top = nbest(lat, 3)
        assert [tuple(h.words) for h in top] == [w for w, _ in want[:3]]


def test_nbest_respects_scales():
    lat = diamond()
    assert [h.words for h in nbest(lat, 2, lm_scale=0.1)] == [["b", "d"], ["a", "c"]]


def test_nbest_file_round_trip(tmp_path):
    lat = diamond()
    hyps = nbest(lat, 2)
    path = str(tmp_path / "h.nbest")
    from lmkit.lattice import write_nbest
    write_nbest(hyps, path)
    back = read_nbest(path)
    assert [(h.words, h.ac, h.lm) for h in back] == \
        [(h.words, pytest.approx(h.ac, abs=1e-6), pytest.approx(h.lm, abs=1e-6))
         for h in hyps]
    write_nbest(back, str(tmp_path / "h2.nbest"))
    with open(path, encoding="utf-8") as f1, \
            open(str(tmp_path / "h2.nbest"), encoding="utf-8") as f2:
        assert f1.read() == f2.read()


# ---- posteriors and pruning ----

def test_arc_posteriors_match_path_enumeration():
    rng = random.Random(23)
    _, words = tiny_vocab_words()
    for ac_scale, lm_scale in ((1.0, 1.0), (0.4, 1.7)):
        for _ in range(8):
            lat = random_dag_lattice(rng, words)
            paths = enumerate_paths(lat)
            weights = [math.exp(_score(lat, p, ac_scale, lm_scale))
                       for p in paths]
            z = sum(weights)
            post, log_z = arc_posteriors(lat, ac_scale, lm_scale)
            assert abs(log_z - math.log(z)) < 1e-9
            for a in lat.arcs:
                want = sum(w for p, w in zip(paths, weights) if a.id in p) / z
                assert abs(post[a.id] - want) < 1e-9


def test_posteriors_on_any_cut_sum_to_one():
    lat = diamond()
    post, _ = arc_posteriors(lat)
    assert abs(post[0] + post[1] - 1.0) < 1e-12
    assert abs(post[2] + post[3] - 1.0) < 1e-12


def test_prune_keeps_best_path_and_respects_beam():
    rng = random.Random(31)
    _, words = tiny_vocab_words()
    for _ in range(10):
        lat = random_dag_lattice(rng, words)
        before = best_path(lat)
        wide = prune(lat, 1e9)
        assert write_slf(wide) == write_slf(lat)   # nothing to drop
        tight = prune(lat, 0.0)
        after = best_path(tight)
        assert after.words == before.words
        assert abs(after.total - before.total) < 1e-9
        # renumbering changes ids, so compare (word, ac, lm) rows: prune
        # keeps input order, so the kept rows are a subsequence of the
        # input arcs that pass the cutoff or lie on the best path
        post, _ = arc_posteriors(lat)
        top = max(math.log(p) for p in post)
        for beam in (0.0, 0.5, 1.0, 2.0):
            allowed = iter([(a.word, a.ac, a.lm) for a in lat.arcs
                            if math.log(max(post[a.id], 1e-300)) >= top - beam - 1e-9
                            or a.id in before.arc_ids])
            assert all(row in allowed for row in
                       ((a.word, a.ac, a.lm) for a in prune(lat, beam).arcs))
    with pytest.raises(ValueError):
        prune(diamond(), -1.0)


def test_prune_rejects_a_nan_beam():
    # a NaN beam compares false with every posterior, so it would keep
    # only the best path where no beam can drop more than 0.0 does
    lat = random_dag_lattice(random.Random(3), list("abcde"))
    assert len(lat.arcs) == 9
    assert len(prune(lat, 1e9).arcs) == 9
    with pytest.raises(ValueError):
        prune(lat, float("nan"))


# sha256 of the write_slf texts of prune and of the write_nbest texts of
# nbest over the SEARCH_SEED lattices, joined in order, as the search wrote
# them before its loops became one forward and one backward sweep
SEARCH_SEED = 73
PINNED_PRUNE_SHA256 = "f5664a90584dd14d16b2dc650f85f07cd2740719cac23eb52b15b69bc484b1e9"
PINNED_NBEST_SHA256 = "b686739e124a17abb3e6765f9c5b745548d84feb435c188433e906110c899ec3"


def test_search_bytes_match_pinned_texts(tmp_path):
    rng = random.Random(SEARCH_SEED)
    lats = [random_dag_lattice(rng, ["u", "v", "w", "x"]) for _ in range(40)]
    slf, nb = hashlib.sha256(), hashlib.sha256()
    path = str(tmp_path / "search.nbest")
    for lat in lats:
        for ac_scale, lm_scale in ((1.0, 1.0), (0.0625, 1.0), (1.0, 12.0)):
            for beam in (0.0, 1.0, 3.0, 1e9):
                slf.update(write_slf(prune(lat, beam, ac_scale, lm_scale)).encode())
            write_nbest(nbest(lat, 10, ac_scale, lm_scale), path)
            with open(path, "rb") as fh:
                nb.update(fh.read())
    assert slf.hexdigest() == PINNED_PRUNE_SHA256
    assert nb.hexdigest() == PINNED_NBEST_SHA256


def test_prune_drops_the_weak_diamond_branch():
    lat = diamond()
    tight = prune(lat, 0.1)
    assert sorted(a.word for a in tight.arcs) == ["a", "c"]
    assert len(tight.nodes) == 3


# ---- rescoring ----

def _rnn_setup():
    lines = ["u v w x u", "v x w u", "w u v x", "x w v u v"]
    vocab = build_vocabulary(lines)
    uni = UniRnnlm(vocab, hidden=6, embed=4, seed=21)
    su1 = SuRnnlm(vocab, hidden=6, embed=4, succ=1, seed=22)
    su2 = SuRnnlm(vocab, hidden=6, embed=4, succ=2, seed=23)
    return vocab, uni, su1, su2


def _oracle_path_score(lat, model, arc_ids, lam, combine, alpha,
                       ac_scale, lm_scale):
    """Walk one path with the full history and its exact future windows."""
    vocab = model.vocab
    words = [vocab.id_of(lat.arcs[a].word) for a in arc_ids]
    k = model.k
    h = model.zero_state()
    h = model.advance(h, vocab.sent_begin)
    total = 0.0
    for t, aid in enumerate(arc_ids):
        win = None
        if k:
            win = tuple(words[t + 1:t + 1 + k])
            win = win + (vocab.pad,) * (k - len(win))
        dist = model.output_dist(h, win, alpha)
        lp = model.word_logprob_from_dist(dist, words[t])
        old = lat.arcs[aid].lm
        if combine == "linear":
            new_lm = safe_ln(linear(math.exp(old), math.exp(lp), lam))
        else:
            new_lm = loglinear_score(max(old, LM_FLOOR), lp, lam)
        total += ac_scale * lat.arcs[aid].ac + lm_scale * new_lm
        h = model.advance(h, words[t])
    return total


def _paths_by_surface(lat, ac_scale=1.0, lm_scale=1.0):
    out = {}
    for p in enumerate_paths(lat):
        out.setdefault(tuple(path_words(lat, p)), []).append(
            _score(lat, p, ac_scale, lm_scale))
    return {k: sorted(v) for k, v in out.items()}


def test_unmerged_rescoring_equals_per_path_oracle():
    rng = random.Random(41)
    vocab, uni, su1, su2 = _rnn_setup()
    words = ["u", "v", "w", "x"]
    for _ in range(5):
        lat = random_dag_lattice(rng, words)
        for model, combine, lam, alpha in ((uni, "linear", 0.75, 1.0),
                                           (su1, "loglinear", 0.3, 0.7),
                                           (su2, "loglinear", 0.3, 0.7)):
            full = merge_args("full", lat)
            if model.k:
                out = rescore_lattice_su(lat, model, lam=lam, alpha=alpha, **full)
            else:
                out = rescore_lattice_uni(lat, model, lam=lam, **full)
            want = {}
            for p in enumerate_paths(lat):
                s = _oracle_path_score(lat, model, p, lam, combine, alpha,
                                       1.0, 1.0)
                want.setdefault(tuple(path_words(lat, p)), []).append(s)
            got = _paths_by_surface(out)
            assert set(got) == set(want)
            for surface in want:
                assert len(got[surface]) == len(want[surface])
                for a, b in zip(got[surface], sorted(want[surface])):
                    assert abs(a - b) < 1e-9


def test_merged_best_never_beats_full_context_best():
    rng = random.Random(43)
    vocab, uni, su1, _ = _rnn_setup()
    words = ["u", "v", "w", "x"]
    for _ in range(5):
        lat = random_dag_lattice(rng, words)
        for model in (uni, su1):
            kw = {} if not model.k else {"alpha": 0.7}
            entry = rescore_lattice_uni if not model.k else rescore_lattice_su
            merged = entry(lat, model, n_hist=2, **kw)
            full = entry(lat, model, **merge_args("full", lat), **kw)
            assert best_path(merged).total <= best_path(full).total + 1e-9


def test_rescore_preserves_words_acoustics_and_origins():
    vocab, uni, su1, _ = _rnn_setup()
    lat = random_dag_lattice(random.Random(47), ["u", "v", "w", "x"])
    for model in (uni, su1):
        entry = rescore_lattice_su if model.k else rescore_lattice_uni
        for merge in MERGES:
            args = merge_args(merge, lat)
            out = entry(lat, model, **args)
            assert len(out.node_origin) == len(out.nodes)
            assert len(out.arc_origin) == len(out.arcs)
            for out_id, (orig, hist, fut) in enumerate(out.node_origin):
                assert out.nodes[out_id].time == lat.nodes[orig].time
            assert out.node_origin[out.initial] == (lat.initial,
                                                    (vocab.sent_begin,), None)
            assert out.node_origin[out.final] == (lat.final, None, None)
            for j, a in enumerate(out.arcs):
                src = lat.arcs[out.arc_origin[j]]
                assert a.word == src.word and a.ac == src.ac
                start, hist, fut = out.node_origin[a.start]
                end, hist_v, fut_v = out.node_origin[a.end]
                assert (start, end) == (src.start, src.end)
                w = vocab.id_of(a.word)
                # the end's history is the start's plus the arc's word, cut
                # to n_hist - 1 words, which cuts nothing when "full"
                if a.end == out.final:
                    assert (hist_v, fut_v) == (None, None)
                else:
                    want = (hist + (w,))[-(args["n_hist"] - 1):]
                    assert hist_v == want, merge
                    assert len(fut_v) == model.k
                # a promised window starts with the arc's word and moves on
                # by one word; past the final node it is padding
                if fut:
                    assert fut[0] == w
                    tail = fut_v[:-1] if fut_v is not None else \
                        (vocab.pad,) * (model.k - 1)
                    assert fut[1:] == tail
                else:
                    assert fut == (() if a.start != out.initial else None)
            # surfaces survive rescoring
            assert set(_paths_by_surface(out)) == set(_paths_by_surface(lat))


def test_history_merging_duplicates_converging_node():
    # two histories meet in front of a shared suffix; with a 3-word history
    # the meeting node must split in two
    vocab, uni, su1, _ = _rnn_setup()
    nodes = [Node(i, float(i)) for i in range(6)]
    arcs = [Arc(0, 0, 1, "u", -1.0, -1.0), Arc(1, 0, 2, "v", -1.1, -1.0),
            Arc(2, 1, 3, "w", -1.0, -1.0), Arc(3, 2, 3, "w", -1.0, -1.0),
            Arc(4, 3, 4, "x", -1.0, -1.0), Arc(5, 4, 5, "u", -1.0, -1.0)]
    lat = Lattice(nodes, arcs).finish()
    out = rescore_lattice_uni(lat, uni, n_hist=3)
    copies = {}
    for orig, hist, fut in out.node_origin:
        copies[orig] = copies.get(orig, 0) + 1
    assert copies[3] == 2          # (u w) vs (v w)
    assert copies[4] == 1          # merged again: both are (w x)
    # with one succeeding word the same lattice needs no extra splits
    # beyond the history ones, since every node has a single next word
    out_su = rescore_lattice_su(lat, su1, n_hist=3)
    copies_su = {}
    for orig, hist, fut in out_su.node_origin:
        copies_su[orig] = copies_su.get(orig, 0) + 1
    assert copies_su[3] == 2 and copies_su[4] == 1


def test_su_zero_rescore_is_byte_identical_to_uni():
    vocab, uni, _, _ = _rnn_setup()
    su0 = SuRnnlm(vocab, hidden=6, embed=4, succ=0, seed=21)
    lat = random_dag_lattice(random.Random(53), ["u", "v", "w", "x"])
    a = rescore_lattice_uni(lat, uni, lam=0.5)
    b = rescore_lattice_su(lat, su0, lam=0.5, alpha=1.0, combine="linear")
    assert write_slf(a) == write_slf(b)


def test_cache_does_not_change_output_and_gets_hits():
    vocab, uni, su1, _ = _rnn_setup()
    lat = random_dag_lattice(random.Random(59), ["u", "v", "w", "x"])
    cold = rescore_lattice_su(lat, su1)
    cache = ProbCache()
    warm1 = rescore_lattice_su(lat, su1, cache=cache)
    warm2 = rescore_lattice_su(lat, su1, cache=cache)
    assert write_slf(cold) == write_slf(warm1) == write_slf(warm2)
    assert cache.dist_hits > 0 and cache.h_hits > 0


# sha256 of the write_slf texts of the six PINNED_SEED lattices, joined in
# order, as the per-arc rescoring loop wrote them before lattices were
# rescored node by node; the texts print scores to six decimals
PINNED_SEED = 61
PINNED_SLF_SHA256 = {
    ("uni", "n2", "linear"): "990deb079fc039e261e6d7025346530fc2c71d709dd76cf6a0265e0f7ebf8917",
    ("uni", "n2", "loglinear"): "ed4ecce628f3dfe79d6c5ee7be3481a2353393e3ffd01647f95c1b007b3e9905",
    ("uni", "n3", "linear"): "cdd10f064d5b2a0562a490aa6abb60696de890328a98a3d881063891e7b01d4c",
    ("uni", "n3", "loglinear"): "254107d55df1eec71631d4e8582da8e90226642a17005f03335ab1d58e826b7b",
    ("uni", "full", "linear"): "e7d8cf2d7a72c65ca6b4dcf8558d6b0bd859932ee38069ac7500b0f9e318b25b",
    ("uni", "full", "loglinear"): "dac9918af2654f18766a9fc1344009514ebab07d22c376f3670654cd6b1ab849",
    ("su1", "n2", "linear"): "176348b0278569d20c071d1b4c7261460552712f96d43daa676970ea8c1c1e79",
    ("su1", "n2", "loglinear"): "cddc136243440d062376ed976f1339b3557a34659d1747b8f6ab65fee3312cf1",
    ("su1", "n3", "linear"): "4edbc8219fea8bcfc15a9d7ce113609592b45141c43d60a89c669b57dbab12ba",
    ("su1", "n3", "loglinear"): "3065e34e6b9123378d746cb8568ba61381e011a5397a4ec58985fb840847a310",
    ("su1", "full", "linear"): "1597d997c9337a7420dea0e486192eb439946283aa8ad9602cb6cb60c30a4b1e",
    ("su1", "full", "loglinear"): "afdce47717c0861e4e5723ad1d978ac11961237f42dd8dfa9d536884925256fb",
    ("su2", "n2", "linear"): "189a5ef3e5fc55002536411f88264eb03d6b86602cbe2801356ed4425d34264e",
    ("su2", "n2", "loglinear"): "6cc6b04b1c5a5e32dabc9534a58abafd6432038897a4602a4c9f06afb2dcb61b",
    ("su2", "n3", "linear"): "0d655f919f785da3fdc6921f146205554f881f581a78979fbc5353efcf116e3a",
    ("su2", "n3", "loglinear"): "89a071671a9945904077341c3ef26933f853d6a73d589084e0e1335a978b78da",
    ("su2", "full", "linear"): "d6098923b08540e18dd9d5addd6510f0f8615726c7c0600f4596c826ea620bf7",
    ("su2", "full", "loglinear"): "1ad248cfec75bfb0301998c46106f48c203910c7c8ebcc09cf81a91e03afced6",
}
MERGES = ("full", "n2", "n3")


def merge_args(merge, lat):
    """The history length of `merge` on `lat`; "full" is longer than any of
    its paths, so it merges nothing."""
    return {"n_hist": len(lat.nodes) + 1 if merge == "full" else int(merge[1:])}


@pytest.mark.parametrize("name,merge,combine", sorted(PINNED_SLF_SHA256))
def test_rescoring_bytes_match_pinned_texts(name, merge, combine):
    # each lattice is rescored cold, and again with a cache warmed by the
    # other lattices, so the rows batched together differ between the runs
    _, uni, su1, su2 = _rnn_setup()
    model = {"uni": uni, "su1": su1, "su2": su2}[name]
    entry = rescore_lattice_su if model.k else rescore_lattice_uni
    rng = random.Random(PINNED_SEED)
    lats = [random_dag_lattice(rng, ["u", "v", "w", "x"]) for _ in range(6)]

    def text(lat, cache):
        return write_slf(entry(lat, model, combine=combine, cache=cache,
                               **merge_args(merge, lat)))

    cold = [text(lat, None) for lat in lats]
    for i, lat in enumerate(lats):
        cache = ProbCache()
        for other in lats[:i] + lats[i + 1:]:
            text(other, cache)
        assert text(lat, cache) == cold[i]
    digest = hashlib.sha256("".join(cold).encode()).hexdigest()
    assert digest == PINNED_SLF_SHA256[(name, merge, combine)]



def _dense_network(rng, words, slots):
    """A confusion network of `slots` slots, each with 1-3 distinct words."""
    nodes = [Node(i, 0.3 * i) for i in range(slots + 1)]
    arcs = []
    for i in range(slots):
        for w in rng.sample(words, rng.randint(1, 3)):
            arcs.append(Arc(len(arcs), i, i + 1, w, -3.0 * rng.random(),
                            -2.0 * rng.random()))
    return Lattice(nodes, arcs).finish()


# the shortlisted vocabulary of _scorer_setup: "y" and "z" are out of the
# shortlist, "q" is out of the vocabulary
SHORTLIST_WORDS = ["u", "v", "w", "x", "y", "z", "q"]


def _indexing_cases(ngram):
    """Random DAGs, planted sausages and dense confusion networks."""
    rng = random.Random(67)
    lats = [random_dag_lattice(rng, SHORTLIST_WORDS) for _ in range(6)]
    for _ in range(3):
        ref = [rng.choice(SHORTLIST_WORDS) for _ in range(rng.randint(3, 6))]
        lats.append(confusion_sausage(ngram, ref, rng.randrange(len(ref)),
                                      rng.choice(SHORTLIST_WORDS), 0.5, rng))
        lats.append(_dense_network(rng, SHORTLIST_WORDS, rng.randint(3, 5)))
    return lats


@pytest.mark.parametrize("merge", MERGES)
def test_rescored_lattices_are_indexed_as_finish_would_index_them(merge):
    # rescoring sets adjacency, endpoints and order itself instead of
    # calling finish(); both passes, and su on a rescored lattice
    _, ngram, uni, su1, su3 = _scorer_setup()
    for lat in _indexing_cases(ngram):
        mid = rescore_lattice_uni(lat, uni, **merge_args(merge, lat))
        outs = [mid] + [rescore_lattice_su(src, su, **merge_args(merge, src))
                        for src in (lat, mid) for su in (su1, su3)]
        for out in outs:
            assert _index(out) == _index(Lattice(out.nodes, out.arcs).finish())
            text = write_slf(out)
            back = parse_slf(text)
            assert write_slf(back) == text
            assert _index(back) == _index(out)


def test_kept_lattices_hold_as_many_tracked_objects_whatever_their_size():
    # a lattice is a handful of lists, so what a parsed, pruned and twice
    # rescored sausage leaves for the garbage collector to track does not
    # grow with its arcs.  The second collection is for the output's
    # node_origin tuples: one collection untracks a tuple once its items
    # are untracked, and may visit a tuple before the tuples it holds
    _, ngram, uni, _, su3 = _scorer_setup()
    rng = random.Random(79)
    added = []
    for n_arcs in (20, 2000):
        ref = [rng.choice(SHORTLIST_WORDS) for _ in range(n_arcs - 1)]
        text = write_slf(confusion_sausage(ngram, ref, len(ref) // 2, "v", 0.5, rng))
        gc.collect()
        before = len(gc.get_objects())
        lat = parse_slf(text)
        pruned = prune(lat, 5.0)
        mid = rescore_lattice_uni(pruned, uni)
        out = rescore_lattice_su(mid, su3)
        gc.collect()
        gc.collect()
        added.append(len(gc.get_objects()) - before)
        assert len(lat.arcs) == n_arcs and len(out.arcs) > n_arcs
        del lat, pruned, mid, out
    # four lattices of a dozen lists each, two origin lists
    assert added[0] == added[1] <= 60, added


def test_out_of_shortlist_words_match_per_path_oracle():
    _, ngram, uni, su1, su3 = _scorer_setup()
    for lat in _indexing_cases(ngram)[:8]:
        for model in (uni, su1, su3):
            out = rescore_lattice_su(lat, model, lam=0.3, alpha=0.7,
                                     **merge_args("full", lat))
            want = {}
            for p in enumerate_paths(lat):
                s = _oracle_path_score(lat, model, p, 0.3, "loglinear", 0.7,
                                       1.0, 1.0)
                want.setdefault(tuple(path_words(lat, p)), []).append(s)
            got = _paths_by_surface(out)
            assert set(got) == set(want)
            for surface in want:
                assert len(got[surface]) == len(want[surface])
                for a, b in zip(got[surface], sorted(want[surface])):
                    assert abs(a - b) < 1e-9


def test_frontier_batching_needs_fewer_model_calls_than_nodes():
    # the su pass over a uni pass's output: history expansion leaves several
    # nodes per slot, all ready together, so one call serves many nodes
    _, _, uni, _, su3 = _scorer_setup()
    rng = random.Random(71)
    mids = [rescore_lattice_uni(_dense_network(rng, SHORTLIST_WORDS, 5), uni)
            for _ in range(3)]
    calls = {}

    def counted(name):
        inner = getattr(su3, name)

        def wrapper(*args):
            calls[name] += 1
            return inner(*args)
        return wrapper

    su3.advance = counted("advance")
    su3.output_dist = counted("output_dist")
    cold = []
    for mid in mids:
        calls.update(advance=0, output_dist=0)
        out = rescore_lattice_su(mid, su3)
        # the nodes of mid that held states, final node excluded
        busy = len({orig for orig, _, _ in out.node_origin}) - 1
        assert 0 < calls["advance"] < busy
        assert 0 < calls["output_dist"] < busy
        cold.append(write_slf(out))
    cache = ProbCache()
    fresh = [write_slf(rescore_lattice_su(mid, su3, cache=cache)) for mid in mids]
    warm = [write_slf(rescore_lattice_su(mid, su3, cache=cache)) for mid in mids]
    assert cold == fresh == warm
    assert cache.h_hits > 0 and cache.dist_hits > 0


# sizes where the fused gate products of nn.GruCell.step can round unlike
# per-gate ones: which rows a call stacks, set here by what the cache holds,
# must still not matter
@pytest.mark.parametrize("hidden,embed,dtype", [(33, 17, np.float64), (7, 5, np.float32),
                                                (4, 3, np.float32)])
def test_odd_size_models_rescore_alike_cached_and_uncached(hidden, embed, dtype):
    vocab = _scorer_setup()[0]
    rng = random.Random(74)
    lats = [_dense_network(rng, SHORTLIST_WORDS, rng.randint(3, 5)) for _ in range(4)]
    lats += [random_dag_lattice(rng, SHORTLIST_WORDS) for _ in range(4)]
    for model in (UniRnnlm(vocab, hidden, embed, seed=75, dtype=dtype),
                  SuRnnlm(vocab, hidden, embed, succ=3, seed=76, dtype=dtype)):
        entry = rescore_lattice_su if model.k else rescore_lattice_uni

        def rescored(lat, cache):
            # the text, and every arc's LM score in full: a last-bit move
            # rarely reaches the six printed decimals
            out = entry(lat, model, cache=cache)
            return write_slf(out), [a.lm for a in out.arcs]

        for i, lat in enumerate(lats):
            cache = ProbCache()
            for other in lats[:i] + lats[i + 1:]:
                rescored(other, cache)
            assert rescored(lat, cache) == rescored(lat, None)
            assert cache.h_hits > 0 and cache.dist_hits > 0


def test_bounded_cache_drops_between_lattices_and_keeps_counting(monkeypatch):
    # with a small bound the cache drops its entries many times; a drop
    # happens only at a lattice boundary, so the texts stay the uncached
    # ones, the entries never exceed the bound plus the lattice just
    # rescored, and the counters count on across drops
    _, ngram, uni, _, su3 = _scorer_setup()
    bound = 60
    monkeypatch.setattr(lattice_mod, "CACHE_ENTRIES", bound)
    rng = random.Random(73)
    lats = []
    for _ in range(14):
        ref = [rng.choice(SHORTLIST_WORDS) for _ in range(rng.randint(3, 6))]
        lats += [random_dag_lattice(rng, SHORTLIST_WORDS),
                 confusion_sausage(ngram, ref, rng.randrange(len(ref)),
                                   rng.choice(SHORTLIST_WORDS), 0.5, rng),
                 _dense_network(rng, SHORTLIST_WORDS, rng.randint(3, 5))]

    def entries(cache):
        return len(cache.h) + len(cache.dist)

    def counts(cache):
        return (cache.h_hits, cache.h_misses, cache.dist_hits, cache.dist_misses)

    for model in (uni, su3):
        entry = rescore_lattice_su if model.k else rescore_lattice_uni
        cache = ProbCache()
        alone_total = [0, 0, 0, 0]
        drops = 0
        for lat in lats:
            plain = write_slf(entry(lat, model, cache=None))
            alone = ProbCache()
            assert write_slf(entry(lat, model, cache=alone)) == plain
            alone_total = [a + b for a, b in zip(alone_total, counts(alone))]
            before = counts(cache)
            drops += entries(cache) > bound
            assert write_slf(entry(lat, model, cache=cache)) == plain
            assert entries(cache) <= bound + entries(alone)
            assert all(a >= b for a, b in zip(counts(cache), before))
        assert drops >= 5
        # a lattice looks up the same keys however full the cache is, and
        # hits at least what a fresh cache would
        h_hits, h_misses, dist_hits, dist_misses = counts(cache)
        assert h_hits + h_misses == alone_total[0] + alone_total[1]
        assert dist_hits + dist_misses == alone_total[2] + alone_total[3]
        assert h_hits >= alone_total[0] and dist_hits >= alone_total[2]
        assert dist_hits > alone_total[2]
        # the exact (h_hits, h_misses, dist_hits, dist_misses) of the shared
        # cache and of the fresh ones summed, so that a change to what counts
        # as a hit or a miss shows here and not only in the benchmark's ratios
        assert (counts(cache), tuple(alone_total)) == {
            0: ((66, 287, 286, 287), (5, 348, 225, 348)),
            3: ((50, 303, 585, 793), (5, 348, 582, 796))}[model.k]


def test_combine_rule_validation():
    vocab, uni, _, _ = _rnn_setup()
    lat = diamond()
    with pytest.raises(ValueError):
        rescore_lattice_uni(lat, uni, combine="nope")
    with pytest.raises(ValueError):
        rescore_lattice_uni(lat, uni, n_hist=0)


# ---- n-best rescoring ----

def test_rescore_nbest_replaces_lm_and_reranks():
    lat = diamond()
    hyps = nbest(lat, 2)
    flipped = rescore_nbest(hyps, lambda words: {"a": -9.0, "b": -0.5}[words[0]])
    assert flipped[0].words == ["b", "d"]
    assert flipped[0].lm == -0.5
    assert abs(flipped[0].total - (flipped[0].ac - 0.5)) < 1e-12


def test_two_stage_scorer_matches_manual_walk():
    lines = ["u v w x u", "v x w u", "w u v x", "x w v u v"]
    vocab = build_vocabulary(lines)
    corpus = TokenizedCorpus.from_lines(vocab, lines)
    ngram = train_kn(corpus, 2)
    uni = UniRnnlm(vocab, hidden=6, embed=4, seed=31)
    su = SuRnnlm(vocab, hidden=6, embed=4, succ=1, seed=32)
    cfg = InterpConfig(lambda1=0.6, lambda2=0.25)
    fn = make_two_stage_scorer(ngram, uni, su, cfg, alpha=0.7)
    words = ["u", "v", "w"]
    ids = vocab.encode(words)
    total = 0.0
    h_u, h_s = uni.zero_state(), su.zero_state()
    for t in range(1, len(ids)):
        du, h_u = step(uni, h_u, ids[t - 1])
        win = future_window(vocab.pad, ids, t, 1)
        ds, h_s = step(su, h_s, ids[t - 1], win, 0.7)
        total += two_stage(math.exp(ngram.logprob(ids[:t], ids[t])),
                           math.exp(uni.word_logprob_from_dist(du, ids[t])),
                           math.exp(su.word_logprob_from_dist(ds, ids[t])),
                           cfg)
    assert abs(fn(words) - total) < 1e-9


def _scorer_setup():
    # shortlist of 3 corpus words leaves "y" and "z" out of the shortlist
    lines = ["u v w x u", "v x w u y", "w u v x z", "x w v u v"]
    vocab = build_vocabulary(lines, shortlist_size=3)
    corpus = TokenizedCorpus.from_lines(vocab, lines)
    ngram = train_kn(corpus, 2)
    uni = UniRnnlm(vocab, hidden=6, embed=4, seed=31)
    su1 = SuRnnlm(vocab, hidden=6, embed=4, succ=1, seed=32)
    su3 = SuRnnlm(vocab, hidden=6, embed=4, succ=3, seed=33)
    return vocab, ngram, uni, su1, su3


# shared prefixes, different lengths, a repeat, an empty hypothesis, an OOV
# word ("q") and out-of-shortlist words ("y", "z")
SCORER_HYPS = [["u", "v", "w"], ["u", "v", "x"], ["u", "v", "w", "x", "u", "v"],
               ["u", "v", "w"], [], ["u", "q", "w"], ["v", "y", "u"],
               ["u"], ["u", "v", "z", "x"]]


def _manual_walk(ngram, uni, su, cfg, alpha, words):
    """Single-row walk of one hypothesis with its exact future windows; local
    normalization sums the exponentiated scores of every candidate."""
    vocab = uni.vocab
    skip = {vocab.sent_begin, vocab.null, vocab.pad}
    cands = [i for i in range(len(vocab)) if i not in skip]
    ids = vocab.encode(words)
    h_u = uni.zero_state()
    h_s = su.zero_state() if su is not None else None
    total = 0.0
    for t in range(1, len(ids)):
        du, h_u = step(uni, h_u, ids[t - 1])
        ds = None
        if su is not None:
            win = future_window(vocab.pad, ids, t, su.k)
            ds, h_s = step(su, h_s, ids[t - 1], win if su.k else None, alpha)

        def comb(w):
            p_ng = math.exp(ngram.logprob(ids[:t], w))
            p_u = math.exp(uni.word_logprob_from_dist(du, w))
            if su is None:
                return safe_ln(linear(p_ng, p_u, cfg.lambda1))
            p_s = math.exp(su.word_logprob_from_dist(ds, w))
            return two_stage(p_ng, p_u, p_s, cfg)

        score = comb(ids[t])
        if cfg.normalize_locally:
            score -= math.log(sum(math.exp(comb(w)) for w in cands))
        total += score
    return total


@pytest.mark.parametrize("normalize", [False, True])
@pytest.mark.parametrize("which", ["none", "su1", "su3"])
def test_score_many_matches_per_hypothesis_and_manual_walk(which, normalize):
    vocab, ngram, uni, su1, su3 = _scorer_setup()
    su = {"none": None, "su1": su1, "su3": su3}[which]
    cfg = InterpConfig(lambda1=0.6, lambda2=0.25, normalize_locally=normalize)
    fn = make_two_stage_scorer(ngram, uni, su, cfg, alpha=0.7)
    assert vocab.id_of("q") == vocab.oov
    assert vocab.is_oos(vocab.id_of("y")) and vocab.is_oos(vocab.id_of("z"))
    many = fn.score_many(SCORER_HYPS)
    assert len(many) == len(SCORER_HYPS)
    assert many[0] == many[3]
    for words, got in zip(SCORER_HYPS, many):
        want = _manual_walk(ngram, uni, su, cfg, 0.7, words)
        assert math.isfinite(got)
        # the trie's stacked calls are row exact, so a hypothesis scores the
        # same in any list; local normalization sums in another order than
        # the walk
        assert got == fn(words)
        if normalize:
            assert abs(got - want) <= 1e-9 * max(1.0, abs(want))
        else:
            assert got == want


def test_su_less_scorer_endpoints_give_each_model_own_scores():
    # lambda1 0 and 1 reproduce the n-gram and the uni model bit for bit, as
    # `ppl` does; a mix through exp and log would not
    vocab, ngram, uni, _, _ = _scorer_setup()
    seqs = [vocab.encode(words) for words in SCORER_HYPS]
    at = {lam: make_two_stage_scorer(ngram, uni, None, InterpConfig(lambda1=lam)).word_scores(seqs)
          for lam in (0.0, 1.0)}
    assert at[0.0] == [ngram.sentence_word_logprobs(ids) for ids in seqs]
    assert at[1.0] == uni.word_logprobs(seqs)


@pytest.mark.parametrize("which", ["none", "su1", "su3"])
def test_word_scores_of_a_set_equal_each_sentence_alone(which):
    # forty words and wide layers, so that BLAS would block the rows of a
    # product over many prefixes together
    lines = [" ".join("w%d" % ((7 * i + 3 * j) % 40) for j in range(9))
             for i in range(40)]
    vocab = build_vocabulary(lines, 30)
    ngram = train_kn(TokenizedCorpus.from_lines(vocab, lines), 3)
    uni = UniRnnlm(vocab, hidden=48, embed=24, seed=21)
    su = {"none": None,
          "su1": SuRnnlm(vocab, hidden=48, embed=24, succ=1, seed=22),
          "su3": SuRnnlm(vocab, hidden=48, embed=24, succ=3, seed=23)}[which]
    scorer = make_two_stage_scorer(ngram, uni, su, InterpConfig(0.6, 0.25), 0.7)
    rng = random.Random(24)
    pool = ["w%d" % i for i in range(40)] + ["unk"]
    stems = [[rng.choice(pool) for _ in range(5)] for _ in range(3)]
    seqs = [vocab.encode(stems[i % 3][:rng.randrange(6)]
                         + [rng.choice(pool) for _ in range(rng.randrange(7))])
            for i in range(60)]
    assert scorer.word_scores(seqs) == [scorer.word_scores([s])[0] for s in seqs]


@pytest.mark.parametrize("which", ["none", "su2"])
def test_word_scores_over_several_tries_equal_each_sentence_alone(monkeypatch, which):
    vocab, ngram, uni, _, _ = _scorer_setup()
    su = SuRnnlm(vocab, hidden=8, embed=4, succ=2, seed=27) if which == "su2" else None
    scorer = make_two_stage_scorer(ngram, uni, su, InterpConfig(0.6, 0.25), 0.7)
    rng = random.Random(28)
    pool = ["u", "v", "w", "x", "y", "z", "q"]
    seqs = [vocab.encode([rng.choice(pool) for _ in range(rng.randrange(6))])
            for _ in range(13)]
    whole = scorer.word_scores(seqs)
    monkeypatch.setattr(models_mod, "TRIE_SENTENCES", 5)
    assert len(list(models_mod.prefix_tries(seqs, 0, vocab.pad))) == 3
    assert scorer.word_scores(seqs) == [scorer.word_scores([s])[0] for s in seqs] == whole


def test_score_many_of_nothing_is_empty():
    vocab, ngram, uni, _, su3 = _scorer_setup()
    assert make_two_stage_scorer(ngram, uni, su3).score_many([]) == []
    assert rescore_nbest([], make_two_stage_scorer(ngram, uni)) == []


def test_rescore_nbest_ranks_alike_with_and_without_score_many():
    vocab, ngram, uni, _, su3 = _scorer_setup()
    fn = make_two_stage_scorer(ngram, uni, su3, InterpConfig(0.6, 0.25))
    calls = []

    def one_at_a_time(words):
        calls.append(words)
        return fn(words)

    rng = random.Random(61)
    hyps = [Hypothesis(w, (), -rng.random() * len(w), 0.0, 0.0)
            for w in SCORER_HYPS]
    batched = rescore_nbest(hyps, fn, lm_scale=0.8)
    single = rescore_nbest(hyps, one_at_a_time, lm_scale=0.8)
    assert len(calls) == len(hyps)
    assert [h.words for h in batched] == [h.words for h in single]
    for a, b in zip(batched, single):
        assert abs(a.lm - b.lm) <= 1e-9 * max(1.0, abs(b.lm))
        assert abs(a.total - b.total) <= 1e-9 * max(1.0, abs(b.total))
