import random

import pytest

from lmkit.lattice import best_path
from lmkit.synth import SyntheticLanguage, build_corpus_lines, confusion_sausage
from oracles import enumerate_paths, random_dag_lattice


def test_corpus_lines_are_seed_deterministic(lang):
    a = build_corpus_lines(lang, 5, 2000)
    b = build_corpus_lines(lang, 5, 2000)
    c = build_corpus_lines(lang, 6, 2000)
    assert a == b
    assert a != c
    assert sum(len(s.split()) + 1 for s in a) >= 2000


def test_sentence_grammar(lang):
    rng = random.Random(3)
    for _ in range(200):
        words, meta = lang.sample_sentence(rng)
        assert words[0] in lang.topics
        assert (len(words) - 1) % 4 == 0
        n_blocks = (len(words) - 1) // 4
        assert 2 <= n_blocks <= 16
        assert len(meta) == n_blocks
        for b, pos, xi, prev, followed in meta:
            assert pos == 1 + 4 * b
            assert words[pos] == lang.xs[xi]
            ya, yc, yb = words[pos + 1:pos + 4]
            assert int(ya[2:]) // 40 == lang.group(xi)
            assert int(yc[2:]) // 20 == lang.pair(xi)
            assert int(yb[2:]) // 10 == xi
            if b == 0:
                assert prev is None
            elif followed:
                assert xi == lang.successor(words[0], prev)


def test_topic_successor_bias(lang):
    rng = random.Random(4)
    hits = total = 0
    for _ in range(300):
        _, meta = lang.sample_sentence(rng, topic="t2", blocks=6)
        for b, pos, xi, prev, followed in meta[1:]:
            hits += xi == (prev + 6) % 12
            total += 1
    # followed 0.8 of the time plus 1/12 of the random remainder
    assert 0.75 < hits / total < 0.89
    _, meta = lang.sample_sentence(rng, topic="tn", blocks=8)
    assert not any(m[4] for m in meta)


def test_confusion_set_layout(confusion):
    assert len(confusion) == 240
    kinds = [u.kind for u in confusion]
    assert kinds[:3] == ["topic", "coarse", "fine"]
    for kind in ("topic", "coarse", "fine"):
        assert kinds.count(kind) == 80
    assert len({u.name for u in confusion}) == 240
    assert confusion[0].name == "utt0000"


def _planted_slot(utt):
    by_start = {}
    for a in utt.lattice.arcs:
        by_start.setdefault(a.start, []).append(a)
    slots = [i for i, arcs in by_start.items() if len(arcs) > 1]
    assert len(slots) == 1
    pos = slots[0]
    assert all(len(a) == 1 for i, a in by_start.items() if i != pos)
    truth = next(a for a in by_start[pos] if a.word == utt.ref[pos])
    dist = next(a for a in by_start[pos] if a.word != utt.ref[pos])
    return pos, truth, dist


def test_sausage_margin_is_exact(confusion):
    for utt in confusion[:30]:
        pos, truth, dist = _planted_slot(utt)
        truth_total = sum(a.ac + a.lm for a in utt.lattice.arcs) \
            - (dist.ac + dist.lm)
        hyp = best_path(utt.lattice)
        assert abs(hyp.total - (truth_total + 0.8)) < 1e-9
        # the baseline decodes the distractor, everything else the reference
        assert hyp.words[pos] == dist.word
        assert hyp.words[:pos] == utt.ref[:pos]
        assert hyp.words[pos + 1:] == utt.ref[pos + 1:]


def test_distractor_agrees_with_cues_by_kind(lang, confusion):
    for utt in confusion:
        pos, truth, dist = _planted_slot(utt)
        xi = lang.xs.index(truth.word)
        xd = lang.xs.index(dist.word)
        topic = utt.ref[0]
        if utt.kind == "topic":
            assert topic in ("t1", "t2")
            prev = lang.xs.index(utt.ref[pos - 4])
            other = "t2" if topic == "t1" else "t1"
            assert xi == lang.successor(topic, prev)
            assert xd == lang.successor(other, prev)
        else:
            assert topic == "tn"
        if utt.kind == "coarse":
            assert lang.group(xd) != lang.group(xi)
        if utt.kind == "fine":
            assert xd == xi ^ 1
            assert lang.group(xd) == lang.group(xi)
            assert lang.pair(xd) == lang.pair(xi)
            # only the third cue ahead separates the two candidates
            ya, yc, yb = utt.ref[pos + 1:pos + 4]
            assert int(ya[2:]) // 40 == lang.group(xd)
            assert int(yc[2:]) // 20 == lang.pair(xd)
            assert int(yb[2:]) // 10 == xi != xd


def test_sausage_against_hand_scores(lang, arpa):
    words, _ = lang.sample_sentence(random.Random(9), topic="tn", blocks=3)
    lat = confusion_sausage(arpa, words, 5, "x03", 0.4, random.Random(10))
    assert len(lat.nodes) == len(words) + 1
    assert len(lat.arcs) == len(words) + 1
    ids = arpa.vocab.encode(words)
    for a in lat.arcs:
        if a.word in words[a.start:a.start + 1]:
            want = arpa.logprob(tuple(ids[:a.start + 1]), ids[a.start + 1])
            assert abs(a.lm - want) < 1e-12


def test_random_dag_lattices_are_valid(tiny_words=("u", "v", "w")):
    rng = random.Random(77)
    for _ in range(20):
        lat = random_dag_lattice(rng, list(tiny_words))
        paths = enumerate_paths(lat)
        assert 1 <= len(paths) <= 64
        assert all(a.word in tiny_words for a in lat.arcs)
        assert all(a.ac <= 0.0 and a.lm <= 0.0 for a in lat.arcs)
