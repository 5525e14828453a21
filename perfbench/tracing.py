"""Span tracing for the traced benchmark run.

The tracer wraps public functions of the lmkit modules from the outside, at
the name each caller looks up: a class attribute for methods (so subclasses
and `self.x(...)` calls see it), a module attribute for module functions
called as `module.f(...)`, and the importing module's own binding where a
module imported a function by name (`models` imports the batch builders
that way).  Nothing inside the package changes.

A span is (name, start, end, parent, op): `op` identifies the benchmark
operation it belongs to, `parent` the enclosing span.  Spans stay in memory
and are written out when the run ends.  A span's self time is its duration
minus the time its direct children cover; calls run on one thread and nest,
so children never overlap.
"""

import collections
import csv
import time

from lmkit import interpolate, lattice, models, ngram, nn


def model_label(model):
    """uni, su<k> or bi, as the workloads name their models."""
    if model.arch == "su":
        return "su%d" % model.k
    return model.arch


# (owner, attribute, span name); a callable name gets the call's arguments
WRAPPED = (
    (nn.GruCell, "step", "nn.GruCell.step"),
    (nn.GruCell, "backward", "nn.GruCell.backward"),
    (nn, "gru_step", "nn.gru_step"),
    (nn, "softmax", "nn.softmax"),
    (nn, "sgd_step", "nn.sgd_step"),
    (nn, "load_model", "nn.load_model"),
    (models.UniRnnlm, "train", lambda args: "models.train." + model_label(args[0])),
    (models.BiRnnlm, "train", lambda args: "models.train." + model_label(args[0])),
    (models.UniRnnlm, "advance", "models.advance"),
    (models.UniRnnlm, "output_dist", "models.output_dist"),
    (models.UniRnnlm, "word_logprob_from_dist", "models.word_logprob_from_dist"),
    (models.BiRnnlm, "word_logprob_from_dist", "models.word_logprob_from_dist"),
    (models, "make_spliced_batches", "corpus.batches"),
    (models, "make_null_aligned_batches", "corpus.batches"),
    (ngram.ArpaModel, "logprob", "ngram.logprob"),
    (ngram, "train_kn", "ngram.train_kn"),
    (ngram, "load_arpa", "ngram.load_arpa"),
    (interpolate, "two_stage", "interpolate.two_stage"),
    (lattice, "rescore_lattice_uni", "lattice.rescore_uni"),
    (lattice, "rescore_lattice_su", "lattice.rescore_su"),
    (lattice, "prune", "lattice.prune"),
    (lattice, "load_slf", "lattice.load_slf"),
    (lattice, "write_slf", "lattice.write_slf"),
    (lattice, "best_path", "lattice.best_path"),
    (lattice, "nbest", "lattice.nbest"),
)

# batched GruCell.step calls are training work; the single-row ones made
# under gru_step are charged to gru_step instead
NOT_UNDER = {"nn.GruCell.step": "nn.gru_step"}


def _count_arcs(name):
    def hook(counts, args, result):
        counts[name + ".arcs_in"] += len(args[0].arcs)
        counts[name + ".arcs_out"] += len(result.arcs)
    return hook


def _count_nbest(counts, args, result):
    counts["lattice.nbest.utts"] += 1
    counts["lattice.nbest.hyps"] += len(result)


# counters recorded at the same boundaries as the spans
COUNT_HOOKS = {
    "lattice.rescore_uni": _count_arcs("lattice.expand.uni"),
    "lattice.rescore_su": _count_arcs("lattice.expand.su"),
    "lattice.prune": _count_arcs("lattice.prune"),
    "lattice.nbest": _count_nbest,
}


class Tracer:
    """Installs span-recording wrappers and keeps the spans in memory."""

    def __init__(self):
        self.spans = []      # [name, start, end, parent index, op id]
        self.stack = []
        self.counts = collections.Counter()
        self.op = "setup"
        self._saved = []

    def install(self):
        if self._saved:
            return
        for owner, attr, name in WRAPPED:
            fn = owner.__dict__[attr]
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name))

    def uninstall(self):
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved = []

    def _wrap(self, fn, name):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        not_under = NOT_UNDER.get(name) if isinstance(name, str) else None
        hook = COUNT_HOOKS.get(name) if isinstance(name, str) else None
        counts = self.counts

        def wrapper(*args, **kwargs):
            if not_under and stack and spans[stack[-1]][0] == not_under:
                return fn(*args, **kwargs)
            rec = [name if isinstance(name, str) else name(args), clock(), None,
                   stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if hook is not None:
                hook(counts, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def span(self, name):
        """Context manager for the benchmark's own spans (operations, set-up)."""
        return _Span(self, name)

    def summary(self, phases):
        """Per span name: calls, total seconds and self seconds, over the
        spans whose op id starts with one of `phases`."""
        spans = self.spans
        child = [0.0] * len(spans)
        for rec in spans:
            if rec[3] >= 0:
                child[rec[3]] += rec[2] - rec[1]
        out = collections.defaultdict(lambda: [0, 0.0, 0.0])
        for i, rec in enumerate(spans):
            if not rec[4].startswith(phases):
                continue
            dur = rec[2] - rec[1]
            row = out[rec[0]]
            row[0] += 1
            row[1] += dur
            row[2] += dur - child[i]
        return out

    def write(self, path):
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["id", "name", "start", "end", "parent", "op"])
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                w.writerow([i, name, "%.9f" % start, "%.9f" % end, parent, op])


class _Span:
    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        t = self.tracer
        self.rec = [self.name, time.perf_counter(), None,
                    t.stack[-1] if t.stack else -1, t.op]
        t.stack.append(len(t.spans))
        t.spans.append(self.rec)
        return self

    def __exit__(self, *exc):
        self.rec[2] = time.perf_counter()
        self.tracer.stack.pop()
        return False


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, caches):
    """The per-layer metrics of one traced run.  Set-up work (model loads,
    n-gram estimation) is read from the set-up spans, everything else from
    the traced operations.  `caches` maps uni/su to the ProbCache objects of
    the traced pass, or is empty where the workload uses none."""
    ops = tracer.summary(("op",))
    setup = tracer.summary(("setup",))
    both = tracer.summary(("op", "setup"))
    c = tracer.counts
    m = {}

    def calls(name, src=ops):
        return float(src[name][0]) if name in src else 0.0

    def total(name, src=ops):
        return src[name][1] if name in src else 0.0

    def self_s(name, src=ops):
        return src[name][2] if name in src else 0.0

    for name in ("nn.GruCell.step", "nn.GruCell.backward", "nn.gru_step",
                 "nn.softmax", "models.output_dist", "ngram.logprob",
                 "interpolate.two_stage"):
        m[name + ".calls"] = calls(name)
        m[name + ".self_s"] = self_s(name)
    m["nn.sgd_step.self_s"] = self_s("nn.sgd_step")
    m["nn.load_model.s"] = total("nn.load_model", setup)
    for label in ("uni", "su3", "bi"):
        m["models.train.self_s." + label] = self_s("models.train." + label)
    m["models.advance.calls"] = calls("models.advance")
    m["models.word_logprob_from_dist.calls"] = calls("models.word_logprob_from_dist")
    m["ngram.train_kn.s"] = total("ngram.train_kn", setup)
    m["ngram.load_arpa.s"] = total("ngram.load_arpa", setup)
    for kind in ("uni", "su"):
        m["lattice.rescore_%s.self_s" % kind] = self_s("lattice.rescore_" + kind)
        base = "lattice.expand." + kind
        m[base + ".arcs_in"] = float(c[base + ".arcs_in"])
        m[base + ".arcs_out_per_in"] = _ratio(c[base + ".arcs_out"], c[base + ".arcs_in"])
        cache = caches.get(kind)
        h_look = cache.h_hits + cache.h_misses if cache else 0
        d_look = cache.dist_hits + cache.dist_misses if cache else 0
        base = "lattice.cache." + kind
        m[base + ".h_lookups"] = float(h_look)
        m[base + ".h_hit_ratio"] = _ratio(cache.h_hits, h_look) if cache else 0.0
        m[base + ".dist_lookups"] = float(d_look)
        m[base + ".dist_hit_ratio"] = _ratio(cache.dist_hits, d_look) if cache else 0.0
        m[base + ".entries"] = float(len(cache.h) + len(cache.dist)) if cache else 0.0
    m["lattice.prune.self_s"] = self_s("lattice.prune")
    m["lattice.prune.arcs_in"] = float(c["lattice.prune.arcs_in"])
    m["lattice.prune.kept_arc_ratio"] = _ratio(c["lattice.prune.arcs_out"],
                                               c["lattice.prune.arcs_in"])
    m["lattice.load_slf.s"] = total("lattice.load_slf")
    m["lattice.write_slf.s"] = total("lattice.write_slf")
    m["lattice.best_path.self_s"] = self_s("lattice.best_path")
    m["lattice.nbest.self_s"] = self_s("lattice.nbest")
    m["lattice.nbest.utts"] = float(c["lattice.nbest.utts"])
    m["lattice.nbest.hyps_per_utt"] = _ratio(c["lattice.nbest.hyps"],
                                             c["lattice.nbest.utts"])
    m["corpus.batches_s"] = total("corpus.batches", both)
    m["trace.spans"] = float(len(tracer.spans))
    return m
