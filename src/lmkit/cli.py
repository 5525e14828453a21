"""Command line front end for the toolkit.

One executable with subcommands: train language models, report
(pseudo-)perplexity, extract and rerank n-best lists, rescore lattice
sets, tune interpolation weights, and generate the synthetic evaluation
fixtures.  A --config file holds key=value lines named after the long
flags; explicit flags override it.

Exit codes: 0 success, 1 usage error, 2 data or format error, 3 numeric
failure.  Each numeric flag's value rule is its argparse type, checked
while the command line is parsed, so a bad value fails before any input
is read or output written, always as
`usage error: argument --FLAG: <rule>, got '<value>'`.  Flag
combinations are checked by each command before its first read.
"""

import argparse
import contextlib
import math
import multiprocessing
import os
import sys

from . import corpus as corpus_mod
from . import evaluate
from . import interpolate
from . import lattice as lattice_mod
from . import models
from . import ngram as ngram_mod
from . import nn
from . import synth


class UsageError(ValueError):
    """Bad flag combination or malformed command line."""


class ConfigError(ValueError):
    """Malformed --config file."""


class _Parser(argparse.ArgumentParser):
    # argparse wants to sys.exit(2) on bad flags; route that through the
    # usage-error path instead so the exit code contract holds
    def error(self, message):
        raise UsageError(message)


def _read_config(path):
    pairs = []
    for ln, raw in enumerate(corpus_mod.read_text(path).split("\n"), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError("%s:%d: expected key=value" % (path, ln))
        key, val = line.split("=", 1)
        key = key.strip()
        if not key:
            raise ConfigError("%s:%d: empty key" % (path, ln))
        pairs.append(("--" + key.replace("_", "-"), val.strip()))
    return pairs


def _apply_config(argv):
    """Splice config key=value pairs in as flags right after the subcommand,
    so flags given on the command line itself still win."""
    path = None
    rest = list(argv)
    for i, tok in enumerate(rest):
        if tok == "--config":
            if i + 1 >= len(rest):
                raise UsageError("--config needs a file argument")
            path = rest[i + 1]
            rest = rest[:i] + rest[i + 2:]
            break
        if tok.startswith("--config="):
            path = tok.split("=", 1)[1]
            rest = rest[:i] + rest[i + 1:]
            break
    if path is None:
        return rest
    if not rest or rest[0].startswith("-"):
        raise UsageError("--config requires a subcommand")
    inject = []
    for flag, val in _read_config(path):
        inject.extend([flag, val])
    return rest[:1] + inject + rest[1:]


# ---------------------------------------------------------------------------
# shared flag groups

def _rule(test, rule, convert=float):
    """An argparse type: the flag's text through `convert`, refused unless
    test(value) holds, with `must <rule>, got '<text>'`.  The rule is
    checked while the command line is parsed, so a bad value is a usage
    error before any input is read or output written."""
    def parse(text):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not test(value):
            raise argparse.ArgumentTypeError("must %s, got %r" % (rule, text))
        return value
    return parse


def _at_least(least):
    """The type of an integer flag with a least value."""
    return _rule(lambda v: v >= least, "be an integer of at least %d" % least, int)


# _positive and _weight refuse NaN and the infinities with _finite's message
_finite = _rule(math.isfinite, "be a finite number")
_positive = _rule(lambda v: v > 0.0, "be a positive number", _finite)
_weight = _rule(lambda v: 0.0 <= v <= 1.0, "lie in [0, 1]", _finite)


def _add_interp_flags(sp, lambda1=0.75, lambda2=0.3, alpha=0.7):
    # a None default leaves the weight to the scorer's own default and
    # tells a flag that was given from one that was not
    def default(value):
        return "default %(default)s" if value is not None else "needs --su-model"
    sp.add_argument("--lambda1", type=_weight, default=lambda1,
                    help="weight of the first recurrent stream in the linear "
                         "mix (%s)" % default(lambda1))
    sp.add_argument("--lambda2", type=_weight, default=lambda2,
                    help="weight of the succeeding-word stream in the "
                         "log-linear mix (%s)" % default(lambda2))
    # smooth keeps the argmax only for alpha > 0
    sp.add_argument("--alpha", type=_positive, default=alpha,
                    help="softmax smoothing factor for succeeding-word "
                         "scores (%s)" % default(alpha))


def _add_scale_flags(sp):
    sp.add_argument("--acoustic-scale", type=_finite, default=1.0,
                    help="weight on acoustic scores (default %(default)s)")
    sp.add_argument("--lm-scale", type=_finite, default=1.0,
                    help="weight on language model scores (default %(default)s)")


def _load_rnnlm(path, want=None):
    model = models.load_rnnlm(path)
    if want is not None and model.arch not in want:
        raise UsageError("%s holds a %s model, expected %s"
                         % (path, model.arch, " or ".join(want)))
    return model


# ---------------------------------------------------------------------------
# train

_RNN_FLAGS = ("hidden", "embed", "seed", "epochs", "lr", "lr_decay",
              "streams", "bptt", "clip")
_NGRAM_FLAGS = ("order", "discount")


def _reject_flags(args, names, why):
    for name in names:
        if getattr(args, name) is not None:
            raise UsageError("--%s does not apply when %s"
                             % (name.replace("_", "-"), why))


def _given(args, *names, **renamed):
    """Keyword arguments from the flags that were given: each of `names`
    under its own name, each of `renamed` (keyword=flag) under its keyword.
    A flag left out (None) is dropped, so the callee's default holds."""
    pairs = [(name, name) for name in names] + list(renamed.items())
    return {key: getattr(args, name) for key, name in pairs
            if getattr(args, name) is not None}


def cmd_train(args):
    # flag combinations are checked before the corpus is read or a file written
    if args.vocab and args.shortlist is not None:
        raise UsageError("--shortlist conflicts with --vocab")
    if args.arch == "ngram":
        _reject_flags(args, _RNN_FLAGS + ("succ",), "--arch is ngram")
    else:
        _reject_flags(args, _NGRAM_FLAGS, "--arch is %s" % args.arch)
        if args.arch != "su":
            _reject_flags(args, ("succ",), "--arch is %s" % args.arch)
    lines = corpus_mod.read_text(args.train).split("\n")
    if args.vocab:
        vocab = corpus_mod.Vocabulary.load(args.vocab)
    else:
        vocab = corpus_mod.build_vocabulary(lines, args.shortlist, args.train)
    train = corpus_mod.TokenizedCorpus.from_lines(vocab, lines, args.train)
    if args.write_vocab:
        vocab.save(args.write_vocab)

    if args.arch == "ngram":
        order = 3 if args.order is None else args.order
        model = ngram_mod.train_kn(train, order, **_given(args, "discount"))
        ngram_mod.save_arpa(model, args.model_out)
        for m in range(1, model.order + 1):
            print("%d-grams: %d" % (m, len(model.entries[m])))
        print("wrote %s" % args.model_out)
        return

    # --succ is given only with --arch su
    make = {"uni": models.UniRnnlm, "bi": models.BiRnnlm, "su": models.SuRnnlm}[args.arch]
    model = make(vocab, **_given(args, "hidden", "embed", "seed", "succ"))
    hyper = models.Hyper(**_given(args, "epochs", "lr", "lr_decay", "bptt", "clip",
                                  num_streams="streams"))
    log = model.train(train, hyper)
    for i, loss in enumerate(log["epoch_loss"], 1):
        print("epoch %d loss %.6f" % (i, loss))
    # timing is run-dependent and the gradient figures are diagnostics:
    # keep them off stdout
    for i, (norm, clipped) in enumerate(zip(log["grad_norm_max"],
                                            log["clipped_updates"]), 1):
        print("epoch %d grad_norm_max %.6f clipped_updates %d"
              % (i, norm, clipped), file=sys.stderr)
    print("%d tokens in %.1f s (%.0f w/s)"
          % (log["tokens"], log["seconds"], log["wps"]), file=sys.stderr)
    model.save(args.model_out)
    print("wrote %s" % args.model_out)


# ---------------------------------------------------------------------------
# ppl

def cmd_ppl(args):
    if args.model is None and args.arpa is None:
        raise UsageError("need --model and/or --arpa")
    if args.model and args.vocab:
        raise UsageError("the model file carries its vocabulary, drop --vocab")
    if not args.model and not args.vocab:
        raise UsageError("--arpa needs --vocab (or a --model to borrow from)")
    su_usage = "--su-model rides on --arpa plus a uni --model"
    if args.su_model and not (args.arpa and args.model):
        raise UsageError(su_usage)
    model = _load_rnnlm(args.model) if args.model else None
    if model is not None and model.arch != "uni":
        if args.su_model:
            raise UsageError(su_usage)
        if args.arpa:
            raise UsageError("linear interpolation needs a normalized "
                             "left-to-right model, not %s" % model.arch)
    vocab = model.vocab if model is not None else corpus_mod.Vocabulary.load(args.vocab)
    arpa = ngram_mod.load_arpa(args.arpa, vocab) if args.arpa else None
    su = _load_rnnlm(args.su_model, want=("su",)) if args.su_model else None

    test = corpus_mod.TokenizedCorpus.from_file(vocab, args.test)
    sentences = test.sentences
    # uni and su score the test set through bounded prefix tries, with the
    # bytes of scoring each sentence alone; bi scores sentence by sentence.
    # The n-gram mixes go through the n-best scorer, so --lambda1 0 and 1
    # reproduce either model's own scores there too
    if arpa is not None and model is not None:
        cfg = interpolate.InterpConfig(lambda1=args.lambda1, lambda2=args.lambda2)
        scorer = lattice_mod.make_two_stage_scorer(arpa, model, su, cfg, args.alpha)
        scores = scorer.word_scores(sentences)
    elif model is not None:
        scores = model.word_logprobs(sentences, args.alpha if model.arch == "su" else 1.0)
    else:
        scores = [arpa.sentence_word_logprobs(ids) for ids in sentences]
    pseudo = su is not None or (model is not None and model.arch != "uni")
    measure = evaluate.pseudo_perplexity if pseudo else evaluate.perplexity
    # evaluate asks for the sentences' scores in corpus order
    in_order = iter(scores)
    report = measure(lambda ids: next(in_order), test)

    for line in report.lines():
        print(line)
    if args.report:
        rows = ["sent %d %.6f" % (i, s)
                for i, s in enumerate(report.per_sentence)]
        corpus_mod.write_text(args.report, "\n".join(report.lines() + rows) + "\n")


# ---------------------------------------------------------------------------
# nbest

def cmd_nbest(args):
    if args.model and not args.arpa:
        raise UsageError("n-best rescoring needs --arpa for the first-stage mix")
    if not args.model and (args.su_model or args.arpa or args.normalize_locally):
        raise UsageError("rescoring flags need --model")
    if args.lattice:
        lat = lattice_mod.load_slf(args.lattice)
        hyps = lattice_mod.nbest(lat, args.n, args.acoustic_scale,
                                 args.lm_scale)
    else:
        hyps = lattice_mod.read_nbest(args.from_list)
    if args.model:
        uni = _load_rnnlm(args.model, want=("uni",))
        arpa = ngram_mod.load_arpa(args.arpa, uni.vocab)
        su = _load_rnnlm(args.su_model, want=("su",)) if args.su_model else None
        cfg = interpolate.InterpConfig(lambda1=args.lambda1, lambda2=args.lambda2,
                                       normalize_locally=args.normalize_locally)
        lm_fn = lattice_mod.make_two_stage_scorer(arpa, uni, su, cfg,
                                                  args.alpha)
        hyps = lattice_mod.rescore_nbest(hyps, lm_fn, args.acoustic_scale,
                                         args.lm_scale)
    if not hyps:
        raise lattice_mod.LatticeError("no hypotheses to write")
    if args.out:
        lattice_mod.write_nbest(hyps, args.out)
    best = hyps[0]
    print("%.6f\t%.6f\t%.6f\t%s" % (best.total, best.ac, best.lm,
                                    " ".join(best.words)))


# ---------------------------------------------------------------------------
# rescore

_WORKERS = None


def _rescore_one(task):
    path, opts = task
    uni, su, caches = _WORKERS
    lat = lattice_mod.load_slf(path)
    if opts["beam"] is not None:
        lat = lattice_mod.prune(lat, opts["beam"], opts["ac_scale"],
                                opts["lm_scale"])
    try:
        lat = lattice_mod.rescore_lattice_uni(
            lat, uni, n_hist=opts["n_hist"], lam=opts["lambda1"],
            cache=caches[0], ac_scale=opts["ac_scale"], lm_scale=opts["lm_scale"])
        if su is not None:
            lat = lattice_mod.rescore_lattice_su(
                lat, su, n_hist=opts["n_hist"], cache=caches[1],
                ac_scale=opts["ac_scale"], lm_scale=opts["lm_scale"],
                **opts["su_weights"])
    except lattice_mod.LatticeError as e:
        # the expansion budget: name the lattice that outgrew it
        raise e.in_file(path) from None
    hyp = lattice_mod.best_path(lat, opts["ac_scale"], opts["lm_scale"])
    return hyp.words, lattice_mod.write_slf(lat)


def cmd_rescore(args):
    global _WORKERS
    if not args.su_model:
        _reject_flags(args, ("lambda2", "alpha"), "there is no --su-model")
    names = sorted(n for n in os.listdir(args.lattices) if n.endswith(".slf"))
    if not names:
        raise lattice_mod.LatticeError("no .slf files in %s" % args.lattices)
    uni = _load_rnnlm(args.model, want=("uni",))
    su = _load_rnnlm(args.su_model, want=("su",)) if args.su_model else None
    refs = None
    if args.refs:
        refs = {}
        for ln, raw in enumerate(corpus_mod.read_text(args.refs).split("\n"), 1):
            parts = raw.split()
            if len(parts) == 1:
                raise corpus_mod.DataError("empty reference", line=ln, path=args.refs)
            if parts:
                if parts[0] in refs:
                    raise corpus_mod.DataError("duplicate reference for %s" % parts[0],
                                               line=ln, path=args.refs)
                refs[parts[0]] = parts[1:]
    if args.out_dir:
        os.makedirs(args.out_dir, exist_ok=True)

    opts = {"beam": args.beam, "n_hist": args.ngram_approx,
            "lambda1": args.lambda1, "ac_scale": args.acoustic_scale,
            "lm_scale": args.lm_scale,
            # given only with --su-model; else the scorer's defaults hold
            "su_weights": _given(args, "alpha", lam="lambda2")}
    tasks = [(os.path.join(args.lattices, n), opts) for n in names]
    _WORKERS = (uni, su, (lattice_mod.ProbCache(), lattice_mod.ProbCache()))
    pairs = []
    with contextlib.ExitStack() as stack:
        if args.jobs > 1:
            # fork gives every worker its own copy of the models and of the
            # cache pair; results come back in input order
            pool = stack.enter_context(
                multiprocessing.get_context("fork").Pool(args.jobs))
            results = pool.imap(_rescore_one, tasks)
        else:
            results = map(_rescore_one, tasks)
        # each result is written and dropped as it arrives, and every cache
        # is bounded (lattice.CACHE_ENTRIES), so memory does not grow with
        # the number of lattices
        for name, (words, text) in zip(names, results):
            utt = name[:-4]
            if args.out_dir:
                corpus_mod.write_text(os.path.join(args.out_dir, name), text)
            print("%s %s" % (utt, " ".join(words)))
            if refs is not None:
                if utt not in refs:
                    raise corpus_mod.CorpusError("no reference for %s" % utt,
                                                 path=args.refs)
                pairs.append((refs[utt], words))
    if refs is not None:
        c = evaluate.corpus_wer(pairs)
        print("wer %.2f%% (sub %d del %d ins %d / %d)"
              % (100.0 * c.rate, c.sub, c.dele, c.ins, c.ref_len))


# ---------------------------------------------------------------------------
# tune

def cmd_tune(args):
    if args.lambda1 is not None and not args.su_model:
        raise UsageError("--lambda1 fixes the linear weight of the "
                         "--su-model grid; it needs --su-model")
    uni = _load_rnnlm(args.model, want=("uni",))
    arpa = ngram_mod.load_arpa(args.arpa, uni.vocab)
    test = corpus_mod.TokenizedCorpus.from_file(uni.vocab, args.test)
    pair_lists = [list(zip(arpa.sentence_word_logprobs(ids), lp_b))
                  for ids, lp_b in zip(test.sentences, uni.word_logprobs(test.sentences))]
    lam1, ppl1, table = interpolate.tune(pair_lists, interpolate.linear_logprob)
    for lam, val in table:
        print("lambda1 %.2f ppl %.4f" % (lam, val))
    print("best lambda1 %.2f ppl %.4f" % (lam1, ppl1))

    if not args.su_model:
        return
    su = _load_rnnlm(args.su_model, want=("su",))
    if args.lambda1 is not None:
        lam1 = args.lambda1
    # remix cheaply: freeze the linear stage, grid the log-linear weight
    su_pairs = [[(interpolate.linear_logprob(a, b, lam1), s) for (a, b), s in zip(sent, lp_s)]
                for sent, lp_s in zip(pair_lists, su.word_logprobs(test.sentences, args.alpha))]
    lam2, ppl2, table2 = interpolate.tune(su_pairs, interpolate.loglinear_score)
    for lam, val in table2:
        print("lambda2 %.2f pseudo_ppl %.4f" % (lam, val))
    print("best lambda2 %.2f pseudo_ppl %.4f (lambda1 %.2f)"
          % (lam2, ppl2, lam1))


# ---------------------------------------------------------------------------
# fixtures

def cmd_fixtures(args):
    os.makedirs(args.out, exist_ok=True)
    lang = synth.SyntheticLanguage()
    train_lines = synth.build_corpus_lines(lang, args.seed, args.train_tokens)
    test_lines = synth.build_corpus_lines(lang, args.seed + 1,
                                          args.test_tokens)
    corpus_mod.write_text(os.path.join(args.out, "train.txt"),
                "\n".join(train_lines) + "\n")
    corpus_mod.write_text(os.path.join(args.out, "test.txt"),
                "\n".join(test_lines) + "\n")
    vocab = corpus_mod.build_vocabulary(train_lines, args.shortlist)
    vocab.save(os.path.join(args.out, "vocab.txt"))
    train = corpus_mod.TokenizedCorpus.from_lines(vocab, train_lines)
    arpa = ngram_mod.train_kn(train, args.order)
    ngram_mod.save_arpa(arpa, os.path.join(args.out, "baseline.arpa"))
    utts = synth.build_confusion_set(lang, arpa, args.seed + 2,
                                     per_kind=args.per_kind, extra=args.extra)
    lat_dir = os.path.join(args.out, "lattices")
    os.makedirs(lat_dir, exist_ok=True)
    refs = []
    for utt in utts:
        lattice_mod.save_slf(utt.lattice, os.path.join(lat_dir,
                                                       utt.name + ".slf"))
        refs.append("%s %s" % (utt.name, " ".join(utt.ref)))
    corpus_mod.write_text(os.path.join(args.out, "refs.txt"), "\n".join(refs) + "\n")
    print("wrote %d train / %d test sentences, %d-gram model, %d lattices"
          % (len(train_lines), len(test_lines), args.order, len(utts)))


# ---------------------------------------------------------------------------

def _build_parser():
    p = _Parser(prog="lmkit",
                description="Recurrent and n-gram language modeling with "
                            "lattice rescoring.")
    p.add_argument("--config", metavar="FILE",
                   help="key=value file of flag defaults for the subcommand")
    sub = p.add_subparsers(dest="command", metavar="command")

    sp = sub.add_parser("train", help="train an n-gram or recurrent model")
    sp.add_argument("--arch", required=True,
                    choices=("ngram", "uni", "bi", "su"),
                    help="model family to train")
    sp.add_argument("--train", required=True, metavar="FILE",
                    help="training text, one sentence per line")
    sp.add_argument("--model-out", required=True, metavar="FILE",
                    help="where to write the trained model")
    sp.add_argument("--vocab", metavar="FILE",
                    help="existing vocabulary file to reuse")
    sp.add_argument("--shortlist", type=_at_least(1), metavar="N",
                    help="shortlist size when building the vocabulary "
                         "(default: all words)")
    sp.add_argument("--write-vocab", metavar="FILE",
                    help="also write the vocabulary used")
    sp.add_argument("--order", type=_at_least(1), help="n-gram order (default 3)")
    sp.add_argument("--discount", type=_rule(lambda v: 0.0 < v < 1.0, "lie in (0, 1)"),
                    help="absolute discount (default 0.75)")
    sp.add_argument("--hidden", type=_at_least(1),
                    help="recurrent layer width (default 32)")
    sp.add_argument("--embed", type=_at_least(1),
                    help="embedding width (default 16)")
    sp.add_argument("--succ", type=_at_least(0),
                    help="succeeding words read by the su model (default 1)")
    sp.add_argument("--seed", type=_at_least(0),
                    help="initialization seed (default 0)")
    sp.add_argument("--epochs", type=_at_least(1), help="training epochs (default 8)")
    sp.add_argument("--lr", type=_positive, help="learning rate (default 0.5)")
    sp.add_argument("--lr-decay", type=_positive,
                    help="per-epoch rate decay (default 0.9)")
    sp.add_argument("--streams", type=_at_least(1),
                    help="parallel text streams per batch (default 8)")
    sp.add_argument("--bptt", type=_at_least(1),
                    help="truncated backprop span (default 32)")
    sp.add_argument("--clip", type=_positive,
                    help="global gradient norm cap (default 5.0)")
    sp.set_defaults(func=cmd_train)

    sp = sub.add_parser("ppl", help="report perplexity or pseudo-perplexity")
    sp.add_argument("--test", required=True, metavar="FILE",
                    help="evaluation text")
    sp.add_argument("--model", metavar="FILE", help="recurrent model file")
    sp.add_argument("--arpa", metavar="FILE", help="back-off model file")
    sp.add_argument("--vocab", metavar="FILE",
                    help="vocabulary for --arpa when no --model is given")
    sp.add_argument("--su-model", metavar="FILE",
                    help="succeeding-word model for the two-stage mix")
    sp.add_argument("--report", metavar="FILE",
                    help="also write the report with per-sentence scores")
    _add_interp_flags(sp)
    sp.set_defaults(func=cmd_ppl)

    sp = sub.add_parser("nbest", help="extract and rerank n-best lists")
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument("--lattice", metavar="FILE",
                       help="lattice to extract hypotheses from")
    group.add_argument("--from-list", metavar="FILE",
                       help="existing n-best file to rerank")
    sp.add_argument("--n", type=_at_least(1), default=10,
                    help="hypotheses to extract (default %(default)s)")
    sp.add_argument("--model", metavar="FILE",
                    help="uni model; adds full-context rescoring")
    sp.add_argument("--arpa", metavar="FILE",
                    help="back-off model mixed in linearly")
    sp.add_argument("--su-model", metavar="FILE",
                    help="succeeding-word model mixed in log-linearly")
    sp.add_argument("--normalize-locally", action="store_true",
                    help="renormalize combined scores over the vocabulary "
                         "at each position")
    sp.add_argument("--out", metavar="FILE", help="write the ranked list here")
    _add_interp_flags(sp)
    _add_scale_flags(sp)
    sp.set_defaults(func=cmd_nbest)

    sp = sub.add_parser("rescore",
                        help="rescore a directory of lattices, print "
                             "1-best transcripts")
    sp.add_argument("--lattices", required=True, metavar="DIR",
                    help="directory of .slf files")
    sp.add_argument("--model", required=True, metavar="FILE",
                    help="uni model for the first pass")
    sp.add_argument("--su-model", metavar="FILE",
                    help="succeeding-word model for a second pass")
    sp.add_argument("--ngram-approx", type=_at_least(1), default=3, metavar="N",
                    help="merge rescoring states on the last N-1 words "
                         "(default %(default)s)")
    # NaN is refused too: it would prune all but the best path
    sp.add_argument("--beam", type=_rule(lambda v: v >= 0.0, "be a number of at least 0"),
                    help="posterior beam; prune arcs before rescoring")
    sp.add_argument("--out-dir", metavar="DIR",
                    help="write rescored lattices here")
    sp.add_argument("--refs", metavar="FILE",
                    help="references ('utt word...' lines); reports WER")
    sp.add_argument("--jobs", type=_at_least(1), default=1,
                    help="worker processes across lattices (default "
                         "%(default)s)")
    _add_interp_flags(sp, lambda2=None, alpha=None)
    _add_scale_flags(sp)
    sp.set_defaults(func=cmd_rescore)

    sp = sub.add_parser("tune", help="grid-search interpolation weights")
    sp.add_argument("--test", required=True, metavar="FILE",
                    help="held-out text")
    sp.add_argument("--arpa", required=True, metavar="FILE",
                    help="back-off model file")
    sp.add_argument("--model", required=True, metavar="FILE",
                    help="uni model file")
    sp.add_argument("--su-model", metavar="FILE",
                    help="also tune the log-linear weight of this model")
    sp.add_argument("--lambda1", type=_weight,
                    help="with --su-model, grid the log-linear weight at this "
                         "linear weight instead of the tuned one (the "
                         "lambda1 grid is still printed)")
    sp.add_argument("--alpha", type=_positive, default=0.7,
                    help="smoothing factor for succeeding-word scores "
                         "(default %(default)s)")
    sp.set_defaults(func=cmd_tune)

    sp = sub.add_parser("fixtures",
                        help="generate the synthetic evaluation set")
    sp.add_argument("--out", required=True, metavar="DIR",
                    help="output directory")
    sp.add_argument("--seed", type=int, default=11,
                    help="generator seed (default %(default)s)")
    sp.add_argument("--train-tokens", type=_at_least(1), default=50000,
                    help="training corpus size (default %(default)s)")
    sp.add_argument("--test-tokens", type=_at_least(1), default=5000,
                    help="test corpus size (default %(default)s)")
    sp.add_argument("--shortlist", type=_at_least(1), default=15,
                    help="vocabulary shortlist size (default %(default)s)")
    sp.add_argument("--order", type=_at_least(1), default=3,
                    help="baseline n-gram order (default %(default)s)")
    sp.add_argument("--per-kind", type=_at_least(1), default=80,
                    help="confusion utterances per kind (default %(default)s)")
    sp.add_argument("--extra", type=_finite, default=0.8,
                    help="score margin of the planted distractor "
                         "(default %(default)s)")
    sp.set_defaults(func=cmd_fixtures)
    return p


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    # stdout carries words, UTF-8 like every file lmkit writes, whatever
    # the locale's encoding can hold; a redirected stream (a StringIO) has
    # no encoding to set
    if hasattr(sys.stdout, "reconfigure"):
        sys.stdout.reconfigure(encoding="utf-8")
    try:
        argv = _apply_config(argv)
        args = _build_parser().parse_args(argv)
        if not hasattr(args, "func"):
            raise UsageError("a subcommand is required")
        args.func(args)
        return 0
    except UsageError as e:
        print("usage error: %s" % e, file=sys.stderr)
        return 1
    except (corpus_mod.DataError, ConfigError, OSError) as e:
        print("data error: %s" % e, file=sys.stderr)
        return 2
    except nn.NumericError as e:
        print("numeric error: %s" % e, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
