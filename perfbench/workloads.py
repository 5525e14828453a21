"""The benchmark's three workloads and their correctness checks.

Every workload is a closed loop with one caller: the next operation starts
only after the previous one has returned.  Inputs come from the workload
seed through lmkit's own generators; the program sees only those inputs.

  train    one operation trains one model (uni, su k=3 or bi, round robin)
           for one epoch over one of SHARDS corpus shards, so a pass over
           all operations is one epoch of each model.  Batched GRU forward
           and backward work in `nn` and `models`; nothing in `lattice` or
           `ngram` runs while it is timed.
  rescore  one operation takes one lattice file through the `lmkit rescore
           --jobs 1` sequence: load_slf, prune, rescore_lattice_uni,
           rescore_lattice_su (k=3), best_path, write_slf, with one ProbCache
           per model for the pass.  Most lattices are small planted-confusion
           sausages, a minority dense confusion networks.
  rerank   one operation extracts the 10-best list of one dense confusion
           network and reranks it with the n-gram + uni + su3 two-stage
           scorer.  No cache: prefixes shared by the hypotheses are scored
           again for each one.

A pass runs every operation of the workload once, in a fixed order.  The
timed phase runs passes until the operations have been busy for the run's
seconds, and always completes the first pass, on which the correctness
checks and the quality numbers are computed.
"""

import copy
import math
import os
import random
import time
import traceback

from lmkit import evaluate, interpolate, lattice, models, ngram, synth
from lmkit.corpus import TokenizedCorpus, Vocabulary, build_vocabulary

# the fixture sizes of the test suite's synthetic setup (tests/conftest.py)
SHORTLIST = 15
HIDDEN = 48
EMBED = 24
STREAMS = 16
BPTT = 32
TRAIN_TOKENS = 50000
SHARDS = 16
HELDOUT_TOKENS = 3000
# rescore/rerank train their models in set-up, so the corpus is smaller;
# three epochs already give the staged WER drop the checks ask for
SETUP_TOKENS = 20000
SETUP_EPOCHS = 3
# lmkit rescore / nbest defaults
N_HIST = 3
NBEST = 10
ALPHA = 0.7
INTERP = interpolate.InterpConfig()
# wide enough to keep the dense networks' alternatives
BEAM = 8.0
PLANTED_PER_KIND = 160
DENSE_RESCORE = 240
DENSE_RERANK = 200
# the lattices the train workload's models rescore for its wer, untimed
WER_SET_PER_KIND = 40
WER_SET_DENSE = 100
# a planted-confusion stage must cut WER by this many points (criterion 06)
STAGE_MARGIN = 0.2
# reranked lm totals against the per-word two_stage recomputation
RERANK_TOL = 1e-9
# failed operations whose traceback goes to stderr
TRACEBACKS = 5


def subseed(seed, k):
    """A non-negative seed for one input stream of the workload seed."""
    return (seed * 1000003 + k) % (2 ** 32)


class Failures:
    """Failed operations and checks, each counted once against `attempted`."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.checks = []

    def op(self, fn, *args):
        """Run one operation; an exception counts as a failure."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception:
            if self.failed < TRACEBACKS:
                traceback.print_exc()
            self.failed += 1
            return None

    def check(self, name, ok, detail=""):
        """A whole-run check, counted as one more operation."""
        self.attempted += 1
        if not ok:
            self.failed += 1
        self.checks.append({"name": name, "ok": bool(ok), "detail": detail})

    def op_failed(self, name, detail):
        """A check on an operation already counted fails that operation."""
        self.failed += 1
        self.checks.append({"name": name, "ok": False, "detail": detail})


# ---- inputs ----

def word_classes(lang):
    """Each word of the synthetic language mapped to the list of words it
    can be confused with: the same topic, content or cue family."""
    out = {}
    for group in [lang.topics, lang.xs] + lang.coarse + lang.mid + lang.fine:
        for w in group:
            out[w] = group
    return out


def dense_network(arpa, classes, words, rng):
    """A confusion network over `words` with 0-2 same-class alternatives per
    slot.  Arc lm scores are the n-gram's along the reference.  An
    alternative's acoustic score is the truth's plus U(-2.5, 0.5), whatever
    the n-gram says, so some alternatives beat the truth acoustically and
    the language models decide.  (Margins set against the n-gram score, as
    the planted sausages have, make every slot a near tie for the n-gram;
    where the recurrent models cannot tell words apart, such as cue words
    that share the out-of-shortlist slot, reranking then flips those ties at
    random and raised WER on 2 of 35 seeds.)"""
    vocab = arpa.vocab
    ids = vocab.encode(words)
    nodes = [lattice.Node(i, 0.3 * i) for i in range(len(words) + 1)]
    arcs = []
    for i, w in enumerate(words):
        hist = tuple(ids[:i + 1])
        lm = arpa.logprob(hist, ids[i + 1])
        ac = -2.0 + rng.uniform(-0.5, 0.5)
        arcs.append(lattice.Arc(len(arcs), i, i + 1, w, ac, lm))
        peers = [p for p in classes[w] if p != w]
        for alt in rng.sample(peers, rng.randint(0, 2)):
            lm_d = arpa.logprob(hist, vocab.id_of(alt))
            arcs.append(lattice.Arc(len(arcs), i, i + 1, alt,
                                    ac + rng.uniform(-2.5, 0.5), lm_d))
    return lattice.Lattice(nodes, arcs).finish()


def dense_set(lang, arpa, seed, count):
    """`count` (name, lattice, reference) dense networks of 2-4 blocks."""
    rng = random.Random(seed)
    classes = word_classes(lang)
    out = []
    for i in range(count):
        words, _ = lang.sample_sentence(rng, blocks=rng.randint(2, 4))
        out.append(("dense%04d" % i, dense_network(arpa, classes, words, rng), words))
    return out


def load_corpus(workdir, lines):
    """Write the corpus and vocabulary, then read both back as a user would."""
    path = os.path.join(workdir, "train.txt")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    vocab_path = os.path.join(workdir, "vocab.txt")
    build_vocabulary(lines, SHORTLIST).save(vocab_path)
    vocab = Vocabulary.load(vocab_path)
    return vocab, TokenizedCorpus.from_file(vocab, path)


def slots_histogram(lats):
    """How many slots (node pairs of a confusion network) hold 1, 2, 3 arcs."""
    hist = {}
    for lat in lats:
        per_slot = {}
        for a in lat.arcs:
            per_slot[a.start] = per_slot.get(a.start, 0) + 1
        for n in per_slot.values():
            hist[n] = hist.get(n, 0) + 1
    return {str(k): hist[k] for k in sorted(hist)}


def geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


def heldout_scores(named_models, held):
    """Held-out perplexity (uni) or pseudo perplexity (su, bi) per model."""
    out = {}
    for label, model in named_models:
        fn = evaluate.perplexity if model.arch == "uni" else evaluate.pseudo_perplexity
        out[label] = fn(model.sentence_word_logprobs, held).ppl
    return out


def rescore_sequence(path, uni, su, caches):
    """One lattice file through the `lmkit rescore --jobs 1` sequence."""
    lat = lattice.load_slf(path)
    pruned = lattice.prune(lat, BEAM)
    mid = lattice.rescore_lattice_uni(pruned, uni, n_hist=N_HIST, lam=INTERP.lambda1,
                                      cache=caches["uni"])
    out = lattice.rescore_lattice_su(mid, su, n_hist=N_HIST, lam=INTERP.lambda2,
                                     alpha=ALPHA, cache=caches["su"])
    hyp = lattice.best_path(out)
    return pruned, mid, out, hyp, lattice.write_slf(out)


def maps_back(pruned, mid, out, text):
    """The written lattice parses back to the same arcs, and every output
    arc traces through both passes' arc_origin to an input arc with the same
    word and acoustic score."""
    back = lattice.parse_slf(text)
    if len(back.arcs) != len(out.arcs) or len(out.arc_origin) != len(out.arcs):
        return False
    for arc, j in zip(back.arcs, out.arc_origin):
        src = pruned.arcs[mid.arc_origin[j]]
        if arc.word != src.word or abs(arc.ac - src.ac) > 1e-6:
            return False
    return True


def stage_wer(pairs):
    return 100.0 * evaluate.corpus_wer(pairs).rate


# ---- workloads ----

class Workload:
    """Set-up, the operations of one pass, and the checks on pass one."""

    name = None
    op_unit = None
    # the workload's own names for shared metrics and details
    aliases = {}
    # the host probe that matches the operations' code (see hostspeed.py),
    # and how many to take before each operation: enough per second of
    # operations for a steady median in the probe window
    probe_kind = "python"
    probes_per_op = 1

    def __init__(self, seed, workdir, checkpoint=None):
        self.seed = seed
        self.workdir = workdir
        # called between set-up steps, where the host probe samples
        self.checkpoint = checkpoint or (lambda: None)

    def setup(self):
        raise NotImplementedError

    def new_pass(self, index):
        """Per-pass state (caches, learning rate)."""
        return None

    def items(self):
        raise NotImplementedError

    def run_op(self, item, ctx):
        """The timed work of one operation; returns (words, result)."""
        raise NotImplementedError

    def check_op(self, item, result, fails):
        """Untimed checks on one first-pass operation; returns what
        `finish` needs of it, so the full results need not be kept."""
        return None

    def group(self, item):
        """The traffic class of an operation, reported on its own."""
        return None

    def finish(self, first_pass, fails):
        """Quality numbers and whole-pass checks over the (item, kept)
        pairs of the first pass; returns (metrics, detail)."""
        raise NotImplementedError

    def checked_finish(self, first_pass, fails):
        """`finish`, with an exception counted as a failed check; the
        quality numbers then read 0."""
        try:
            return self.finish(first_pass, fails)
        except Exception:
            traceback.print_exc()
            fails.check("finish", False, "quality computation raised")
            return {"heldout_ppl": (0.0, 0), "wer": (0.0, 0)}, {}

    def traffic(self):
        return {}

    def fresh(self):
        """Undo what earlier passes changed, before a pass that must repeat
        the first one exactly (the traced pass)."""


class TrainWorkload(Workload):
    name = "train"
    op_unit = "model-shard epoch"
    aliases = {"words_per_s.%s.median" % k: "train_wps." + k for k in ("uni", "su3", "bi")}
    probe_kind = "batched"
    probes_per_op = 4

    def setup(self):
        lang = synth.SyntheticLanguage()
        lines = synth.build_corpus_lines(lang, subseed(self.seed, 1), TRAIN_TOKENS)
        vocab, corpus = load_corpus(self.workdir, lines)
        held_lines = synth.build_corpus_lines(lang, subseed(self.seed, 2), HELDOUT_TOKENS)
        self.lang = lang
        self.corpus = corpus
        self.held = TokenizedCorpus.from_lines(vocab, held_lines)
        sents = corpus.sentences
        bounds = [len(sents) * i // SHARDS for i in range(SHARDS + 1)]
        self.shards = [TokenizedCorpus(vocab, sents[lo:hi])
                       for lo, hi in zip(bounds, bounds[1:])]
        self.initial = [
            ("uni", models.UniRnnlm(vocab, HIDDEN, EMBED, seed=subseed(self.seed, 3))),
            ("su3", models.SuRnnlm(vocab, HIDDEN, EMBED, succ=3,
                                   seed=subseed(self.seed, 4))),
            ("bi", models.BiRnnlm(vocab, HIDDEN, EMBED, seed=subseed(self.seed, 5))),
        ]
        self.fresh()
        self.snapshot = None

    def fresh(self):
        self.models = dict((label, copy.deepcopy(m)) for label, m in self.initial)

    def new_pass(self, index):
        if index == 1:
            # the fixed schedule the quality numbers are read after
            self.snapshot = copy.deepcopy(self.models)
        lr = 0.5 * 0.95 ** index
        return models.Hyper(epochs=1, lr=lr, lr_decay=1.0, num_streams=STREAMS,
                            bptt=BPTT, clip=5.0)

    def items(self):
        return [(s, label) for s in range(SHARDS) for label, _ in self.initial]

    def run_op(self, item, hyper):
        shard, label = item
        stats = self.models[label].train(self.shards[shard], hyper)
        return stats["tokens"], stats

    def group(self, item):
        return item[1]

    def check_op(self, item, stats, fails):
        loss = stats["epoch_loss"][0]
        if not math.isfinite(loss):
            fails.op_failed("finite_loss", "%s shard %d loss %r" % (item[1], item[0], loss))

    def finish(self, first_pass, fails):
        trained = self.snapshot if self.snapshot is not None else self.models
        scores = heldout_scores(list(trained.items()), self.held)
        fails.check("finite_heldout", all(math.isfinite(v) for v in scores.values()),
                    " ".join("%s %.4f" % kv for kv in sorted(scores.items())))
        # untimed: the trained uni and su3 rescore a seeded lattice set
        arpa = ngram.train_kn(self.corpus, 3)
        wer_set = [(u.lattice, u.ref) for u in synth.build_confusion_set(
            self.lang, arpa, subseed(self.seed, 6), per_kind=WER_SET_PER_KIND)]
        wer_set += [(lat, ref) for _, lat, ref in dense_set(
            self.lang, arpa, subseed(self.seed, 7), WER_SET_DENSE)]
        caches = {"uni": lattice.ProbCache(), "su": lattice.ProbCache()}
        path = os.path.join(self.workdir, "wer_set.slf")
        pairs = []
        for lat, ref in wer_set:
            lattice.save_slf(lat, path)
            hyp = rescore_sequence(path, trained["uni"], trained["su3"], caches)[3]
            pairs.append((ref, hyp.words))
        wer = stage_wer(pairs)
        detail = {("heldout_ppl." if k == "uni" else "heldout_pppl.") + k: v
                  for k, v in scores.items()}
        return {"heldout_ppl": (geomean(list(scores.values())), self.held.word_count),
                "wer": (wer, sum(len(r) for r, _ in pairs))}, detail

    def traffic(self):
        return {
            "corpus_tokens": self.corpus.word_count,
            "heldout_tokens": self.held.word_count,
            "shards": SHARDS,
            "shard_tokens_mean": self.corpus.word_count / SHARDS,
            "model_params": {label: sum(int(p.size) for p in m.params().values())
                             for label, m in self.initial},
            "vocab": len(self.corpus.vocab),
        }


class _ModelSetup(Workload):
    """Set-up shared by rescore and rerank: corpus, n-gram model, and the
    uni and su3 models, each written to disk and loaded back."""

    def setup(self):
        wd = self.workdir
        lang = synth.SyntheticLanguage()
        lines = synth.build_corpus_lines(lang, subseed(self.seed, 1), SETUP_TOKENS)
        vocab, corpus = load_corpus(wd, lines)
        held_lines = synth.build_corpus_lines(lang, subseed(self.seed, 2), HELDOUT_TOKENS)
        self.checkpoint()
        arpa_path = os.path.join(wd, "lm.arpa")
        ngram.save_arpa(ngram.train_kn(corpus, 3), arpa_path)
        arpa = ngram.load_arpa(arpa_path, vocab)
        self.checkpoint()
        hyper = models.Hyper(epochs=SETUP_EPOCHS, lr=0.5, lr_decay=0.95,
                             num_streams=STREAMS, bptt=BPTT)
        loaded = []
        for label, model in (
                ("uni", models.UniRnnlm(vocab, HIDDEN, EMBED, seed=subseed(self.seed, 3))),
                ("su3", models.SuRnnlm(vocab, HIDDEN, EMBED, succ=3,
                                       seed=subseed(self.seed, 4)))):
            model.train(corpus, hyper)
            path = os.path.join(wd, label + ".npz")
            model.save(path)
            loaded.append(models.load_rnnlm(path))
            self.checkpoint()
        self.lang = lang
        self.corpus = corpus
        self.held = TokenizedCorpus.from_lines(arpa.vocab, held_lines)
        self.arpa = arpa
        self.uni, self.su = loaded
        self.make_inputs()

    def make_inputs(self):
        raise NotImplementedError

    def finish_models(self):
        scores = heldout_scores([("uni", self.uni), ("su3", self.su)], self.held)
        ok = all(math.isfinite(v) for v in scores.values())
        return scores, ok

    def model_traffic(self):
        return {
            "corpus_tokens": self.corpus.word_count,
            "heldout_tokens": self.held.word_count,
            "setup_epochs": SETUP_EPOCHS,
            "model_params": {"uni": sum(int(p.size) for p in self.uni.params().values()),
                             "su3": sum(int(p.size) for p in self.su.params().values())},
            "vocab": len(self.arpa.vocab),
            "ngram_entries": sum(len(e) for e in self.arpa.entries[1:]),
        }


class RescoreWorkload(_ModelSetup):
    name = "rescore"
    op_unit = "lattice"
    aliases = {"op_ms.p50": "lattice_ms.p50", "op_ms.p95": "lattice_ms.p95",
               "words_per_s": "rescore_words_per_s"}

    def make_inputs(self):
        planted = [(u.name, u.lattice, u.ref, u.kind) for u in synth.build_confusion_set(
            self.lang, self.arpa, subseed(self.seed, 5), per_kind=PLANTED_PER_KIND)]
        dense = [(name, lat, ref, "dense")
                 for name, lat, ref in dense_set(self.lang, self.arpa,
                                                 subseed(self.seed, 6), DENSE_RESCORE)]
        pool = planted + dense
        random.Random(subseed(self.seed, 7)).shuffle(pool)
        lat_dir = os.path.join(self.workdir, "lattices")
        os.makedirs(lat_dir, exist_ok=True)
        self.pool = []
        for name, lat, ref, kind in pool:
            path = os.path.join(lat_dir, name + ".slf")
            lattice.save_slf(lat, path)
            self.pool.append((path, ref, kind, lat))

    def new_pass(self, index):
        self.caches = {"uni": lattice.ProbCache(), "su": lattice.ProbCache()}
        return self.caches

    def items(self):
        return self.pool

    def run_op(self, item, caches):
        result = rescore_sequence(item[0], self.uni, self.su, caches)
        return len(item[1]), result

    def group(self, item):
        return "dense" if item[2] == "dense" else "planted"

    def check_op(self, item, result, fails):
        pruned, mid, out, hyp, text = result
        if not maps_back(pruned, mid, out, text):
            fails.op_failed("maps_back", item[0])
        return (lattice.best_path(item[3]).words, lattice.best_path(mid).words, hyp.words)

    def finish(self, first_pass, fails):
        stages = {"base": [], "uni": [], "su3": []}
        final = []
        for (path, ref, kind, lat), (base, mid, out) in first_pass:
            final.append((ref, out))
            if kind != "dense":
                stages["base"].append((ref, base))
                stages["uni"].append((ref, mid))
                stages["su3"].append((ref, out))
        wer = {k: stage_wer(v) for k, v in stages.items()}
        fails.check("staged_wer",
                    wer["base"] - wer["uni"] >= STAGE_MARGIN
                    and wer["uni"] - wer["su3"] >= STAGE_MARGIN,
                    "planted share: base %.2f uni %.2f su3 %.2f"
                    % (wer["base"], wer["uni"], wer["su3"]))
        scores, ok = self.finish_models()
        fails.check("finite_heldout", ok)
        final_wer = stage_wer(final)
        detail = {"wer.planted.%s" % k: v for k, v in wer.items()}
        detail["wer"] = final_wer
        detail.update({"heldout_ppl.uni": scores["uni"], "heldout_pppl.su3": scores["su3"]})
        return {"heldout_ppl": (geomean(list(scores.values())), self.held.word_count),
                "wer": (final_wer, sum(len(r) for r, _ in final))}, detail

    def traffic(self):
        t = self.model_traffic()
        lats = [item[3] for item in self.pool]
        dense = [item[3] for item in self.pool if item[2] == "dense"]
        t.update({
            "lattices": len(lats),
            "dense_share": len(dense) / len(lats),
            "arcs_per_slot_hist": slots_histogram(lats),
            "arcs_per_slot_hist.dense": slots_histogram(dense),
            "arcs_mean": sum(len(l.arcs) for l in lats) / len(lats),
            "ref_words_mean": sum(len(item[1]) for item in self.pool) / len(lats),
            "beam": BEAM,
        })
        return t


class RerankWorkload(_ModelSetup):
    name = "rerank"
    op_unit = "utterance"
    aliases = {"op_ms.p50": "utt_ms.p50", "op_ms.p95": "utt_ms.p95",
               "words_per_s": "rerank_words_per_s"}

    def make_inputs(self):
        lat_dir = os.path.join(self.workdir, "lattices")
        os.makedirs(lat_dir, exist_ok=True)
        self.pool = []
        for name, lat, ref in dense_set(self.lang, self.arpa, subseed(self.seed, 6),
                                        DENSE_RERANK):
            path = os.path.join(lat_dir, name + ".slf")
            lattice.save_slf(lat, path)
            self.pool.append((lattice.load_slf(path), ref))
        self.lm_fn = lattice.make_two_stage_scorer(self.arpa, self.uni, self.su,
                                                   INTERP, ALPHA)

    def items(self):
        return self.pool

    def run_op(self, item, ctx):
        hyps = lattice.nbest(item[0], NBEST)
        ranked = lattice.rescore_nbest(hyps, self.lm_fn)
        return sum(len(h.words) for h in hyps), (hyps, ranked)

    def check_op(self, item, result, fails):
        hyps, ranked = result
        kept = (hyps[0].words, ranked[0].words, len(hyps))
        vocab = self.uni.vocab
        for h in ranked:
            ids = vocab.encode(h.words)
            lp_u = self.uni.sentence_word_logprobs(ids)
            lp_s = self.su.sentence_word_logprobs(ids, ALPHA)
            lm = 0.0
            for t in range(1, len(ids)):
                p_ng = math.exp(self.arpa.logprob(ids[:t], ids[t]))
                lm += interpolate.two_stage(p_ng, math.exp(lp_u[t - 1]),
                                            math.exp(lp_s[t - 1]), INTERP)
            if (abs(h.lm - lm) > RERANK_TOL * max(1.0, abs(lm))
                    or abs(h.total - (h.ac + h.lm)) > RERANK_TOL * max(1.0, abs(h.total))):
                fails.op_failed("rerank_total", "%s: %r vs %r" % (h.words, h.lm, lm))
                return kept
        if any(a.total < b.total for a, b in zip(ranked, ranked[1:])):
            fails.op_failed("rerank_order", " ".join(ranked[0].words))
        return kept

    def finish(self, first_pass, fails):
        before = [(ref, best_in) for (_, ref), (best_in, _, _) in first_pass]
        after = [(ref, best_out) for (_, ref), (_, best_out, _) in first_pass]
        wer_in, wer_out = stage_wer(before), stage_wer(after)
        fails.check("rerank_wer", wer_out <= wer_in,
                    "input 1-best %.2f reranked %.2f" % (wer_in, wer_out))
        scores, ok = self.finish_models()
        fails.check("finite_heldout", ok)
        self.hyps_per_utt = sum(n for _, (_, _, n) in first_pass) / len(first_pass)
        detail = {"wer.input": wer_in, "wer": wer_out,
                  "heldout_ppl.uni": scores["uni"], "heldout_pppl.su3": scores["su3"],
                  "hyps_per_utt": self.hyps_per_utt}
        return {"heldout_ppl": (geomean(list(scores.values())), self.held.word_count),
                "wer": (wer_out, sum(len(r) for r, _ in after))}, detail

    def traffic(self):
        t = self.model_traffic()
        lats = [lat for lat, _ in self.pool]
        t.update({
            "utterances": len(lats),
            "nbest": NBEST,
            "hyps_per_utt": getattr(self, "hyps_per_utt", None),
            "arcs_per_slot_hist": slots_histogram(lats),
            "ref_words_mean": sum(len(ref) for _, ref in self.pool) / len(lats),
        })
        return t


WORKLOADS = {w.name: w for w in (TrainWorkload, RescoreWorkload, RerankWorkload)}


def run_pass(wl, index, budget, busy, fails, first, probe=None, tracer=None):
    """One pass over the workload's operations.  Stops early once `busy`
    (operation seconds so far) reaches `budget`, except on the first pass.
    Samples the host probe before each operation when given one.  Returns
    (samples, busy): one (start, seconds, words, group) per operation."""
    ctx = wl.new_pass(index)
    samples = []
    clock = time.perf_counter
    for n, item in enumerate(wl.items()):
        if index > 0 and busy >= budget:
            break
        if probe is not None:
            probe.sample(wl.probe_kind, wl.probes_per_op)
        if tracer is not None:
            tracer.op = "op:%d" % n
            with tracer.span("op." + wl.name):
                t0 = clock()
                out = fails.op(wl.run_op, item, ctx)
                dt = clock() - t0
        else:
            t0 = clock()
            out = fails.op(wl.run_op, item, ctx)
            dt = clock() - t0
        busy += dt
        if out is None:
            # a failed operation still took its time; it did no words
            samples.append((t0, dt, 0, wl.group(item)))
            continue
        words, result = out
        samples.append((t0, dt, words, wl.group(item)))
        if first is not None:
            first.append((item, wl.check_op(item, result, fails)))
    return samples, busy
