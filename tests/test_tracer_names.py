"""The benchmark's tracer wraps lmkit names from outside; each must exist,
and each must be the name its callers look up."""

import importlib.util
import pathlib

from lmkit.corpus import TokenizedCorpus, build_vocabulary
from lmkit.models import BiRnnlm, Hyper, UniRnnlm

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_traced_name_is_its_owners_own_attribute():
    # Tracer.install reads owner.__dict__[attr]: a name that was deleted, or
    # that a class only inherits, fails the traced benchmark run
    tracing = _tracing()
    missing = [(owner.__name__, attr) for owner, attr, _ in tracing.WRAPPED
               if attr not in owner.__dict__]
    assert missing == []


def test_traced_training_records_its_spans():
    # a name that exists but that its caller does not look up (a builder
    # imported under another name, say) is wrapped yet records nothing
    lines = ["a b c", "b c a d", "c a", "d b a c"]
    vocab = build_vocabulary(lines)
    corpus = TokenizedCorpus.from_lines(vocab, lines)
    tracer = _tracing().Tracer()
    tracer.install()
    try:
        for model in (UniRnnlm(vocab, 4, 3), BiRnnlm(vocab, 4, 3)):
            model.train(corpus, Hyper(epochs=1, num_streams=2, bptt=4))
    finally:
        tracer.uninstall()
    names = [rec[0] for rec in tracer.spans]
    assert names.count("corpus.batches") == 2
    assert names.count("models.train.uni") == names.count("models.train.bi") == 1
