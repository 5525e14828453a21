"""End-to-end checks of the command line, run in process via cli.main."""

import argparse
import contextlib
import hashlib
import io
import math
import os
import struct
import subprocess
import sys

import numpy as np
import pytest

from lmkit import cli, lattice, models, ngram, nn
from lmkit.corpus import TokenizedCorpus, Vocabulary
from lmkit.interpolate import DEFAULT_ALPHA, InterpConfig, two_stage
from lmkit.lattice import make_two_stage_scorer
from oracles import future_window, step


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


def run_ok(argv):
    code, out, err = run(argv)
    assert code == 0, err
    return out


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """A small working directory: fixtures plus tiny trained models."""
    root = tmp_path_factory.mktemp("cli")
    fx = root / "fx"
    run_ok(["fixtures", "--out", fx, "--train-tokens", 4000,
            "--test-tokens", 800, "--per-kind", 4])
    common = ["--train", fx / "train.txt", "--vocab", fx / "vocab.txt",
              "--hidden", 12, "--embed", 8, "--seed", 7,
              "--epochs", 2, "--streams", 4, "--bptt", 16]
    run_ok(["train", "--arch", "uni", "--model-out", root / "uni.model"]
           + common)
    run_ok(["train", "--arch", "su", "--succ", 0,
            "--model-out", root / "su0.model"] + common)
    run_ok(["train", "--arch", "su", "--succ", 1,
            "--model-out", root / "su1.model"] + common)
    run_ok(["train", "--arch", "bi", "--model-out", root / "bi.model"]
           + common)
    return root


def test_fixture_layout(ws):
    fx = ws / "fx"
    for name in ("train.txt", "test.txt", "vocab.txt", "baseline.arpa",
                 "refs.txt"):
        assert (fx / name).exists()
    slfs = sorted(os.listdir(fx / "lattices"))
    assert len(slfs) == 12
    assert slfs[0] == "utt0000.slf"
    assert len((fx / "refs.txt").read_text(encoding="utf-8").splitlines()) == 12


def test_fixtures_are_deterministic(ws, tmp_path):
    run_ok(["fixtures", "--out", tmp_path / "fx2", "--train-tokens", 4000,
            "--test-tokens", 800, "--per-kind", 4])
    for name in ("train.txt", "vocab.txt", "baseline.arpa", "refs.txt"):
        assert (tmp_path / "fx2" / name).read_bytes() == \
            (ws / "fx" / name).read_bytes()
    assert (tmp_path / "fx2" / "lattices" / "utt0003.slf").read_bytes() == \
        (ws / "fx" / "lattices" / "utt0003.slf").read_bytes()


def test_train_ngram_matches_fixture_baseline(ws, tmp_path):
    fx = ws / "fx"
    out = run_ok(["train", "--arch", "ngram", "--train", fx / "train.txt",
                  "--vocab", fx / "vocab.txt",
                  "--model-out", tmp_path / "tri.arpa"])
    assert (tmp_path / "tri.arpa").read_bytes() == \
        (fx / "baseline.arpa").read_bytes()
    assert "1-grams:" in out and "3-grams:" in out


# sha256 of the baseline.arpa that `lmkit fixtures` writes with its
# defaults, recorded with the dictionary Kneser-Ney estimator
PINNED_BASELINE_ARPA_SHA256 = "a2d8a438f158ce2ec4e87747b4f66a0833ed58713b3eacf58274876c138ff196"


def test_default_fixture_arpa_matches_pinned_bytes(tmp_path):
    run_ok(["fixtures", "--out", tmp_path])
    digest = hashlib.sha256((tmp_path / "baseline.arpa").read_bytes()).hexdigest()
    assert digest == PINNED_BASELINE_ARPA_SHA256


def test_train_is_deterministic(ws, tmp_path):
    fx = ws / "fx"
    run_ok(["train", "--arch", "uni", "--train", fx / "train.txt",
            "--vocab", fx / "vocab.txt", "--model-out", tmp_path / "u.model",
            "--hidden", 12, "--embed", 8, "--seed", 7, "--epochs", 2,
            "--streams", 4, "--bptt", 16])
    assert (tmp_path / "u.model").read_bytes() == \
        (ws / "uni.model").read_bytes()


def test_train_writes_gradient_statistics_to_stderr(ws, tmp_path):
    fx = ws / "fx"
    argv = ["train", "--arch", "uni", "--train", fx / "train.txt",
            "--vocab", fx / "vocab.txt", "--model-out", tmp_path / "u.model",
            "--hidden", 12, "--embed", 8, "--seed", 7, "--epochs", 2,
            "--streams", 4, "--bptt", 16]
    vocab = Vocabulary.load(fx / "vocab.txt")
    with open(fx / "train.txt", encoding="utf-8") as f:
        corpus = TokenizedCorpus.from_lines(vocab, [line for line in f if line.strip()])
    # 0.5 is under the first epoch's largest norm, so some updates clip
    for clip in (5.0, 0.5):
        code, out, err = run(argv + ["--clip", clip])
        assert code == 0, err
        log = models.UniRnnlm(vocab, 12, 8, seed=7).train(
            corpus, models.Hyper(epochs=2, num_streams=4, bptt=16, clip=clip))
        want = ["epoch %d grad_norm_max %.6f clipped_updates %d" % (i, n, c)
                for i, (n, c) in enumerate(zip(log["grad_norm_max"],
                                               log["clipped_updates"]), 1)]
        assert err.splitlines()[:2] == want
        assert "w/s" in err.splitlines()[2]
        # stdout and the model file are what they were without the lines
        assert out == "".join("epoch %d loss %.6f\n" % (i, loss)
                              for i, loss in enumerate(log["epoch_loss"], 1)) \
            + "wrote %s\n" % (tmp_path / "u.model")
    assert log["clipped_updates"][0] > 0
    assert (tmp_path / "u.model").read_bytes() != (ws / "uni.model").read_bytes()
    run_ok(argv)
    assert (tmp_path / "u.model").read_bytes() == (ws / "uni.model").read_bytes()


def test_usage_errors_exit_1(ws):
    fx = ws / "fx"
    bad = [
        [],
        ["frobnicate"],
        ["train", "--arch", "nope", "--train", fx / "train.txt",
         "--model-out", "/tmp/x"],
        ["train", "--arch", "ngram", "--train", fx / "train.txt",
         "--model-out", "/tmp/x", "--hidden", 8],
        ["train", "--arch", "uni", "--train", fx / "train.txt",
         "--model-out", "/tmp/x", "--order", 2],
        ["train", "--arch", "uni", "--train", fx / "train.txt",
         "--model-out", "/tmp/x", "--vocab", fx / "vocab.txt",
         "--shortlist", 9],
        ["ppl", "--test", fx / "test.txt"],
        ["ppl", "--test", fx / "test.txt", "--model", ws / "uni.model",
         "--vocab", fx / "vocab.txt"],
        ["ppl", "--test", fx / "test.txt", "--arpa", fx / "baseline.arpa"],
        ["ppl", "--test", fx / "test.txt", "--model", ws / "bi.model",
         "--arpa", fx / "baseline.arpa"],
        ["ppl", "--test", fx / "test.txt", "--model", ws / "uni.model",
         "--arpa", fx / "baseline.arpa", "--lambda1", 1.5],
        ["ppl", "--test", fx / "test.txt", "--model", ws / "uni.model",
         "--su-model", ws / "su1.model"],
        ["ppl", "--test", fx / "test.txt", "--su-model", ws / "uni.model",
         "--model", ws / "uni.model", "--arpa", fx / "baseline.arpa"],
        ["nbest", "--lattice", fx / "lattices" / "utt0000.slf",
         "--arpa", fx / "baseline.arpa"],
        ["rescore", "--lattices", fx / "lattices",
         "--model", ws / "su1.model"],
        ["rescore", "--lattices", fx / "lattices",
         "--model", ws / "uni.model", "--ngram-approx", 0],
        ["tune", "--test", fx / "test.txt", "--arpa", fx / "baseline.arpa",
         "--model", ws / "uni.model", "--su-model", ws / "su1.model", "--lambda1", 1.5],
        ["tune", "--test", fx / "test.txt", "--arpa", fx / "baseline.arpa",
         "--model", ws / "uni.model", "--lambda1", 0.5],
        ["--config"],
    ]
    for argv in bad:
        code, _, err = run(argv)
        assert code == 1, (argv, err)
        assert "usage error:" in err


def refused(argv, flag, value, rule):
    """Run argv plus `--flag value`; it must fail on the value's rule with
    argparse's message and nothing on stdout."""
    code, out, err = run(argv + ["--" + flag, value])
    assert (code, out) == (1, ""), err
    assert err == "usage error: argument --%s: must %s, got '%s'\n" % (flag, rule, value)


def test_bad_numeric_flags_exit_1_before_reading_inputs(ws, tmp_path):
    # checked before any corpus, model or lattice is read: none of these exist
    missing = tmp_path / "missing"
    at_least_1 = "be an integer of at least 1"
    finite = "be a finite number"
    positive = "be a positive number"
    for beam in (-1, "nan"):
        refused(["rescore", "--lattices", missing, "--model", missing],
                "beam", beam, "be a number of at least 0")
    train = ["train", "--train", missing, "--model-out", missing]
    bad_train = [
        ("uni", "bptt", 0, at_least_1),
        ("uni", "bptt", -5, at_least_1),
        ("ngram", "order", 0, at_least_1),
        ("ngram", "discount", 1.0, "lie in (0, 1)"),
        ("ngram", "discount", 0.0, "lie in (0, 1)"),
        ("ngram", "discount", "nan", "lie in (0, 1)"),
        ("su", "succ", -1, "be an integer of at least 0"),
        ("uni", "hidden", 0, at_least_1),
        ("uni", "embed", 0, at_least_1),
        ("uni", "epochs", 0, at_least_1),
        ("bi", "streams", 0, at_least_1),
        ("uni", "lr", 0, positive),
        ("uni", "lr", -0.5, positive),
        ("uni", "lr-decay", "nan", finite),
        ("uni", "clip", -1, positive),
        ("su", "clip", "nan", finite),
        ("bi", "clip", "inf", finite),
    ]
    for arch, flag, value, rule in bad_train:
        refused(train + ["--arch", arch], flag, value, rule)
    # flags that do not go together, and values: refused before any input
    # is read and before --write-vocab writes anything, on a corpus that
    # exists too
    vocab_out = tmp_path / "v.txt"
    for train_file in (missing, ws / "fx" / "train.txt"):
        train = ["train", "--train", train_file, "--model-out", tmp_path / "m"]
        for argv, message in (
                (["--arch", "ngram", "--hidden", 8, "--write-vocab", vocab_out],
                 "--hidden does not apply when --arch is ngram"),
                (["--arch", "uni", "--order", 2, "--write-vocab", vocab_out],
                 "--order does not apply when --arch is uni"),
                (["--arch", "uni", "--succ", 2, "--write-vocab", vocab_out],
                 "--succ does not apply when --arch is uni"),
                (["--arch", "uni", "--vocab", missing, "--shortlist", 5],
                 "--shortlist conflicts with --vocab"),
                (["--arch", "ngram", "--shortlist", 0, "--write-vocab", vocab_out],
                 "argument --shortlist: must be an integer of at least 1, got '0'"),
                # np.random.default_rng refuses it, after the corpus is read
                (["--arch", "uni", "--seed", -1, "--write-vocab", vocab_out],
                 "argument --seed: must be an integer of at least 0, got '-1'")):
            code, out, err = run(train + argv)
            assert (code, out) == (1, ""), err
            assert err == "usage error: %s\n" % message
            assert not vocab_out.exists()
            assert not (tmp_path / "m").exists()
    for argv, message in (
            (["nbest", "--lattice", missing, "--arpa", missing],
             "rescoring flags need --model"),
            (["nbest", "--lattice", missing, "--su-model", missing],
             "rescoring flags need --model"),
            (["nbest", "--lattice", missing, "--normalize-locally"],
             "rescoring flags need --model"),
            (["nbest", "--lattice", missing, "--model", missing],
             "n-best rescoring needs --arpa for the first-stage mix"),
            (["ppl", "--test", missing, "--model", missing, "--vocab", missing],
             "the model file carries its vocabulary, drop --vocab"),
            (["ppl", "--test", missing, "--model", missing, "--su-model", missing],
             "--su-model rides on --arpa plus a uni --model"),
            (["ppl", "--test", missing, "--arpa", missing, "--vocab", missing,
              "--su-model", missing], "--su-model rides on --arpa plus a uni --model"),
            (["rescore", "--lattices", missing, "--model", missing, "--lambda2", 0.5],
             "--lambda2 does not apply when there is no --su-model"),
            (["rescore", "--lattices", missing, "--model", missing, "--alpha", 0.7],
             "--alpha does not apply when there is no --su-model")):
        code, out, err = run(argv)
        assert (code, out) == (1, ""), err
        assert err == "usage error: %s\n" % message
    # weights the command would not use, with the output file it would write
    out_file = tmp_path / "out.txt"
    nbest = ["nbest", "--lattice", missing, "--out", out_file]
    ppl_arpa = ["ppl", "--test", missing, "--arpa", missing, "--vocab", missing,
                "--report", out_file]
    for argv, message in (
            (nbest + ["--lambda1", 0.2, "--lambda2", 0.9, "--alpha", 0.1],
             "rescoring flags need --model"),
            (nbest + ["--model", missing, "--arpa", missing, "--lambda2", 0.9],
             "--lambda2 does not apply when there is no --su-model"),
            (nbest + ["--model", missing, "--arpa", missing, "--alpha", 0.2],
             "--alpha does not apply when there is no --su-model"),
            (ppl_arpa + ["--lambda1", 0.2],
             "--lambda1 does not apply when --arpa and --model are not both given"),
            (ppl_arpa + ["--lambda2", 0.9],
             "--lambda2 does not apply when there is no --su-model"),
            (ppl_arpa + ["--alpha", 0.2], "--alpha does not apply when no su model is scored"),
            (["ppl", "--test", missing, "--model", missing, "--lambda1", 0.2],
             "--lambda1 does not apply when --arpa and --model are not both given"),
            (["tune", "--test", missing, "--arpa", missing, "--model", missing,
              "--alpha", 0.2], "--alpha does not apply when there is no --su-model")):
        code, out, err = run(argv)
        assert (code, out) == (1, ""), err
        assert err == "usage error: %s\n" % message
        assert not out_file.exists()
    # a --config file's weights are flags too
    cfg = tmp_path / "weights.cfg"
    cfg.write_text("lambda2=0.9\n", encoding="utf-8")
    code, out, err = run(["--config", cfg] + nbest + ["--model", missing, "--arpa", missing])
    assert (code, out, err) == (1, "", "usage error: --lambda2 does not apply when "
                                       "there is no --su-model\n")
    assert not out_file.exists()
    # scoring weights: NaN would be ranked, and alpha <= 0 loses the argmax
    commands = {
        "nbest": ["nbest", "--lattice", missing, "--model", missing, "--arpa", missing],
        "rescore": ["rescore", "--lattices", missing, "--model", missing],
        "ppl": ["ppl", "--test", missing, "--model", missing],
        "tune": ["tune", "--test", missing, "--arpa", missing, "--model", missing],
    }
    bad_scoring = [
        ("nbest", "alpha", "nan", finite),
        ("nbest", "alpha", 0, positive),
        ("nbest", "acoustic-scale", "nan", finite),
        ("nbest", "lm-scale", "nan", finite),
        ("nbest", "lambda1", "nan", finite),
        ("rescore", "alpha", "nan", finite),
        ("rescore", "alpha", -1, positive),
        ("rescore", "lm-scale", "inf", finite),
        ("ppl", "alpha", "nan", finite),
        ("ppl", "lambda2", "nan", finite),
        ("tune", "alpha", "nan", finite),
        ("tune", "alpha", 0, positive),
        ("tune", "lambda1", "nan", finite),
        ("nbest", "lambda1", 2, "lie in [0, 1]"),
        ("ppl", "lambda2", -1, "lie in [0, 1]"),
        ("rescore", "lambda1", 1.5, "lie in [0, 1]"),
        ("nbest", "n", 0, at_least_1),
        ("rescore", "jobs", 0, at_least_1),
        ("rescore", "jobs", -1, at_least_1),
    ]
    for command, flag, value, rule in bad_scoring:
        refused(commands[command], flag, value, rule)
    # fixtures writes nothing, not even its --out directory
    fixtures = ["fixtures", "--out", missing]
    for flag, value, rule in (
            ("train-tokens", 0, at_least_1),
            ("test-tokens", -5, at_least_1),
            ("shortlist", 0, at_least_1),
            ("order", 0, at_least_1),
            ("per-kind", -1, at_least_1),
            ("extra", "nan", finite),
            ("extra", "inf", finite)):
        refused(fixtures, flag, value, rule)
    assert not missing.exists()


def test_alpha_without_an_su_model_to_smooth_exits_1(ws, tmp_path):
    # known only once the model's header is read, before the test text is
    report = tmp_path / "rep.txt"
    for model in ("uni.model", "bi.model"):
        code, out, err = run(["ppl", "--test", tmp_path / "missing", "--model", ws / model,
                              "--alpha", 0.5, "--report", report])
        assert (code, out) == (1, ""), err
        assert err == "usage error: --alpha does not apply when no su model is scored\n"
    assert not report.exists()


def test_every_numeric_flag_has_a_value_rule():
    # a bare int or float type would let a flag skip its rule; only the
    # fixtures seed takes any integer (random.Random)
    parser = cli._build_parser()
    subparsers = next(a for a in parser._actions
                      if isinstance(a, argparse._SubParsersAction))
    bare = [(command, action.dest)
            for command, sp in subparsers.choices.items()
            for action in sp._actions
            if action.type in (int, float) and (command, action.dest) != ("fixtures", "seed")]
    assert bare == []


def test_value_rules_keep_their_edge_values():
    # parsing opens no file: the paths need not exist
    parse = cli._build_parser().parse_args
    args = parse(["rescore", "--lattices", "d", "--model", "m", "--beam", "inf",
                  "--lambda1", "0"])
    assert (args.beam, args.lambda1, args.lambda2, args.alpha) == (math.inf, 0.0, None, None)
    args = parse(["train", "--arch", "su", "--train", "t", "--model-out", "m",
                  "--succ", "0", "--seed", "0"])
    assert (args.succ, args.seed, args.hidden) == (0, 0, None)
    args = parse(["ppl", "--test", "t", "--lambda1", "1"])
    assert (args.lambda1, args.lambda2, args.alpha) == (1.0, None, None)
    assert parse(["fixtures", "--out", "d", "--seed", "-3"]).seed == -3


def test_empty_reference_exits_2(ws, tmp_path):
    fx = ws / "fx"
    refs = tmp_path / "refs.txt"
    lines = (fx / "refs.txt").read_text(encoding="utf-8").splitlines()
    lines[3] = lines[3].split()[0] + "  "
    refs.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code, out, err = run(["rescore", "--lattices", fx / "lattices",
                          "--model", ws / "uni.model", "--refs", refs])
    assert (code, out) == (2, ""), err
    assert err == "data error: %s: line 4: empty reference\n" % refs


def test_duplicate_reference_exits_2(ws, tmp_path):
    # a repeated utterance id would score against whichever line came last
    fx = ws / "fx"
    refs = tmp_path / "refs.txt"
    lines = (fx / "refs.txt").read_text(encoding="utf-8").splitlines()
    utt = lines[1].split()[0]
    lines.insert(5, utt + " a b")
    refs.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code, out, err = run(["rescore", "--lattices", fx / "lattices",
                          "--model", ws / "uni.model", "--refs", refs])
    assert (code, out) == (2, ""), err
    assert err == "data error: %s: line 6: duplicate reference for %s\n" % (refs, utt)


def test_data_errors_exit_2(ws, tmp_path):
    fx = ws / "fx"
    garbage = tmp_path / "garbage.arpa"
    garbage.write_text("this is not an arpa file\n", encoding="utf-8")
    bad_slf_dir = tmp_path / "lat"
    bad_slf_dir.mkdir()
    (bad_slf_dir / "x.slf").write_text("N=1\tL=0\n", encoding="utf-8")
    empty_dir = tmp_path / "none"
    empty_dir.mkdir()
    bad_cfg = tmp_path / "bad.cfg"
    bad_cfg.write_text("no equals sign here\n", encoding="utf-8")
    bad = [
        ["ppl", "--test", tmp_path / "missing.txt",
         "--model", ws / "uni.model"],
        ["ppl", "--test", fx / "test.txt", "--arpa", garbage,
         "--vocab", fx / "vocab.txt"],
        ["rescore", "--lattices", bad_slf_dir, "--model", ws / "uni.model"],
        ["rescore", "--lattices", empty_dir, "--model", ws / "uni.model"],
        ["--config", bad_cfg, "ppl", "--test", fx / "test.txt",
         "--model", ws / "uni.model"],
    ]
    for argv in bad:
        code, _, err = run(argv)
        assert code == 2, (argv, err)
        assert "data error:" in err


def _bad_model(ws, path, case):
    """Write a broken copy of the uni model container to `path`."""
    raw = (ws / "uni.model").read_bytes()
    header, tensors = nn.load_model(ws / "uni.model")
    header.pop("tensors")
    if case == "bad magic":
        path.write_text("this is not a model\n", encoding="utf-8")
        return
    if case == "short read":
        path.write_bytes(raw[:-9])
        return
    if case == "undecodable header":
        hlen = struct.unpack("<I", raw[7:11])[0]
        path.write_bytes(raw[:11] + b"\xff" * hlen + raw[11 + hlen:])
        return
    if case == "missing tensor":
        del tensors["gru.Uh"]
    elif case == "mis-shaped tensor":
        tensors["out.b"] = tensors["out.b"][:-1]
    elif case == "unknown arch":
        header["arch"] = "tri"
    elif case == "malformed header":
        header["hidden"] = "twelve"
    elif case == "non-finite weight":
        tensors["gru.Wz"][1, 2] = float("nan")
    nn.save_model(str(path), header, tensors)


@pytest.mark.parametrize("case", ["bad magic", "short read", "undecodable header",
                                  "missing tensor", "mis-shaped tensor", "unknown arch",
                                  "malformed header", "non-finite weight"])
def test_malformed_model_files_exit_2(ws, tmp_path, case):
    path = tmp_path / "bad.model"
    _bad_model(ws, path, case)
    code, out, err = run(["ppl", "--test", ws / "fx" / "test.txt", "--model", path])
    assert code == 2 and out == "", err
    assert err.startswith("data error: %s: " % path), err


def _with_field(text, key, value):
    """The SLF text with the first arc's `key` field set to `value`, and that
    line's number."""
    lines = text.splitlines()
    n = next(i for i, line in enumerate(lines) if line.startswith("J="))
    lines[n] = "\t".join(key + "=" + value if f.startswith(key + "=") else f
                         for f in lines[n].split("\t"))
    return "\n".join(lines) + "\n", n + 1


def test_data_errors_name_the_file_and_line(ws, tmp_path):
    fx = ws / "fx"
    lat_dir = tmp_path / "lat"
    lat_dir.mkdir()
    for name in ("utt0000.slf", "utt0001.slf"):
        (lat_dir / name).write_text((fx / "lattices" / name).read_text(encoding="utf-8"),
                                    encoding="utf-8")
    text = (fx / "lattices" / "utt0002.slf").read_text(encoding="utf-8")
    bad = lat_dir / "utt0002.slf"
    bad.write_text(text.replace("S=0\t", "S=999\t", 1), encoding="utf-8")
    line = next(i for i, l in enumerate(text.splitlines(), 1) if "S=0\t" in l)
    for jobs in (1, 2):
        code, _, err = run(["rescore", "--lattices", lat_dir, "--model", ws / "uni.model",
                            "--jobs", jobs])
        assert code == 2, err
        assert err == "data error: %s: line %d: arc endpoint out of range\n" % (bad, line)


def test_reserved_tokens_in_text_exit_2_naming_the_line(ws, tmp_path):
    fx = ws / "fx"
    text = tmp_path / "text.txt"
    reserved = "data error: %s: line 3: reserved token appears in corpus text: %r\n"
    for tok in ("<pad>", "</s>", "<s>"):
        text.write_text("x01 ya001\n\nx02 %s x03\n" % tok, encoding="utf-8")
        for argv in (
                ["ppl", "--test", text, "--model", ws / "uni.model"],
                ["tune", "--test", text, "--arpa", fx / "baseline.arpa",
                 "--model", ws / "uni.model"],
                ["train", "--arch", "ngram", "--train", text,
                 "--model-out", tmp_path / "m.arpa", "--write-vocab", tmp_path / "v.txt"],
                ["train", "--arch", "uni", "--train", text, "--vocab", fx / "vocab.txt",
                 "--model-out", tmp_path / "m.model"]):
            code, out, err = run(argv)
            assert (code, out) == (2, ""), err
            assert err == reserved % (text, tok)
    # nothing was written
    assert sorted(p.name for p in tmp_path.iterdir()) == ["text.txt"]


def test_undecodable_text_inputs_exit_2(ws, tmp_path):
    fx = ws / "fx"

    def spoil(name, line):
        # one byte that is no UTF-8 at the end of the given line
        lines = (fx / name).read_bytes().split(b"\n")
        lines[line - 1] += b"\xff"
        path = tmp_path / name
        path.write_bytes(b"\n".join(lines))
        return path

    test, vocab, train = spoil("test.txt", 3), spoil("vocab.txt", 2), spoil("train.txt", 5)
    cases = [
        (["ppl", "--test", test, "--model", ws / "uni.model"], test, 3),
        (["ppl", "--test", fx / "test.txt", "--arpa", fx / "baseline.arpa",
          "--vocab", vocab], vocab, 2),
        (["train", "--arch", "ngram", "--train", train, "--vocab", fx / "vocab.txt",
          "--model-out", tmp_path / "tri.arpa"], train, 5),
    ]
    for argv, path, line in cases:
        code, _, err = run(argv)
        assert code == 2, err
        assert err == "data error: %s: line %d: not UTF-8 text\n" % (path, line)


def _ascii_locale_lmkit(cwd):
    """Run lmkit in a subprocess whose locale encoding is ASCII, in `cwd`;
    returns its stdout bytes and asserts exit 0."""
    env = {k: v for k, v in os.environ.items() if not k.startswith(("LC_", "PYTHONIO"))}
    env.update(LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0",
               PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))

    def lmkit(*argv):
        done = subprocess.run([sys.executable, "-m", "lmkit.cli", *map(str, argv)],
                              cwd=cwd, env=env, capture_output=True)
        assert done.returncode == 0, done.stderr.decode("utf-8", "replace")
        return done.stdout
    return lmkit


CAFE_LINES = ["le café est chaud", "un café noir", "le thé est chaud", "un thé noir"]


def test_text_files_are_utf8_under_an_ascii_locale(tmp_path, monkeypatch):
    # the locale's encoding is ASCII here, so every text file lmkit reads
    # or writes must name its encoding
    (tmp_path / "train.txt").write_bytes("\n".join(CAFE_LINES).encode("utf-8") + b"\n")
    lmkit = _ascii_locale_lmkit(tmp_path)
    lmkit("train", "--arch", "ngram", "--train", "train.txt", "--write-vocab", "v.txt",
          "--order", 2, "--model-out", "m.arpa")
    assert sorted(os.listdir(tmp_path)) == ["m.arpa", "train.txt", "v.txt"]
    assert "café".encode("utf-8") in (tmp_path / "v.txt").read_bytes()
    assert "café".encode("utf-8") in (tmp_path / "m.arpa").read_bytes()
    argv = ["ppl", "--test", "train.txt", "--arpa", "m.arpa", "--vocab", "v.txt"]
    monkeypatch.chdir(tmp_path)
    assert lmkit(*argv).decode("ascii") == run_ok(argv)


def test_stdout_is_utf8_under_an_ascii_locale(tmp_path, monkeypatch):
    # nbest and rescore print hypothesis words; under an ASCII locale the
    # print of a non-ASCII word must not fail after the files are written
    (tmp_path / "train.txt").write_bytes("\n".join(CAFE_LINES).encode("utf-8") + b"\n")
    lat = lattice.Lattice([lattice.Node(i, 0.5 * i) for i in range(3)],
                          [lattice.Arc(0, 0, 1, "un", -1.0, -0.5),
                           lattice.Arc(1, 1, 2, "café", -0.5, -0.5),
                           lattice.Arc(2, 1, 2, "thé", -2.0, -1.5)]).finish()
    (tmp_path / "lat").mkdir()
    lattice.save_slf(lat, str(tmp_path / "lat" / "x.slf"))
    monkeypatch.chdir(tmp_path)
    run_ok(["train", "--arch", "uni", "--train", "train.txt", "--write-vocab", "v.txt",
            "--hidden", 4, "--embed", 4, "--epochs", 1, "--streams", 2,
            "--model-out", "u.model"])
    lmkit = _ascii_locale_lmkit(tmp_path)
    for argv in (["nbest", "--lattice", "lat/x.slf", "--n", 1, "--out", "o.txt"],
                 ["rescore", "--lattices", "lat", "--model", "u.model", "--out-dir", "out"]):
        out = lmkit(*argv).decode("utf-8")
        assert "café" in out
        assert out == run_ok(argv)
    assert "café".encode("utf-8") in (tmp_path / "o.txt").read_bytes()


def test_rescore_expansion_budget_exits_2(ws, tmp_path, monkeypatch):
    fx = ws / "fx"
    lat_dir = tmp_path / "lat"
    lat_dir.mkdir()
    for name in ("utt0000.slf", "utt0001.slf"):
        (lat_dir / name).write_text((fx / "lattices" / name).read_text(encoding="utf-8"),
                                    encoding="utf-8")
    argv = ["rescore", "--lattices", lat_dir, "--model", ws / "uni.model",
            "--su-model", ws / "su1.model"]
    ok = run_ok(argv)
    # the most states one pass creates over both lattices is within budget
    uni = models.load_rnnlm(ws / "uni.model")
    su = models.load_rnnlm(ws / "su1.model")
    most, worst = 0, None
    for name in ("utt0000.slf", "utt0001.slf"):
        mid = lattice.rescore_lattice_uni(lattice.load_slf(lat_dir / name), uni)
        out = lattice.rescore_lattice_su(mid, su)
        for n in (len(mid.nodes), len(out.nodes)):
            if n > most:
                most, worst = n, lat_dir / name
    monkeypatch.setattr(lattice, "MAX_STATES", most)
    assert run_ok(argv) == ok
    monkeypatch.setattr(lattice, "MAX_STATES", most - 1)
    for jobs in (1, 2):
        code, out, err = run(argv + ["--jobs", jobs])
        assert code == 2, err
        assert err == "data error: %s: rescoring expanded the lattice past %d states\n" \
            % (worst, most - 1)


def test_non_finite_scores_exit_2(ws, tmp_path):
    fx = ws / "fx"
    text = (fx / "lattices" / "utt0000.slf").read_text(encoding="utf-8")
    for key, value in (("a", "nan"), ("l", "inf"), ("l", "+inf"), ("a", "NaN")):
        slf, line = _with_field(text, key, value)
        path = tmp_path / "bad.slf"
        path.write_text(slf, encoding="utf-8")
        code, out, err = run(["nbest", "--lattice", path])
        assert code == 2 and out == "", err
        assert err == "data error: %s: line %d: field %s is not finite: %r\n" % (
            path, line, key, value)
    # -inf is a zero probability: the lm floor takes it, the path still ranks
    slf, _ = _with_field(text, "l", "-inf")
    path = tmp_path / "zero.slf"
    path.write_text(slf, encoding="utf-8")
    run_ok(["nbest", "--lattice", path])
    nb = tmp_path / "list.nbest"
    nb.write_text("1.0\t2.0\t-1.0\ta b\nnan\t2.0\t-1.0\ta c\n", encoding="utf-8")
    code, _, err = run(["nbest", "--from-list", nb])
    assert code == 2
    assert err == "data error: %s: line 2: score is not finite\n" % nb
    arpa_lines = (fx / "baseline.arpa").read_text(encoding="utf-8").splitlines()
    n = next(i for i, l in enumerate(arpa_lines) if l.startswith("\\1-grams:")) + 1
    arpa_lines[n] = "\t".join(["nan"] + arpa_lines[n].split("\t")[1:])
    arpa = tmp_path / "nan.arpa"
    arpa.write_text("\n".join(arpa_lines) + "\n", encoding="utf-8")
    code, _, err = run(["ppl", "--test", fx / "test.txt", "--arpa", arpa,
                        "--vocab", fx / "vocab.txt"])
    assert code == 2
    assert err == "data error: %s: line %d: numeric field is not finite\n" % (arpa, n + 1)


def test_numeric_divergence_exits_3(ws, tmp_path):
    fx = ws / "fx"
    out_model = tmp_path / "diverged.model"
    with np.errstate(divide="ignore"):
        code, _, err = run(["train", "--arch", "uni",
                            "--train", fx / "train.txt",
                            "--model-out", out_model, "--hidden", 8,
                            "--embed", 8, "--epochs", 1,
                            "--lr", 1e9, "--clip", 1e12])
    assert code == 3, err
    assert "numeric error:" in err
    assert not out_model.exists()


def _metric_lines(out):
    return [l for l in out.splitlines() if not l.startswith("sent ")]


def test_ppl_labels_and_identities(ws, tmp_path):
    fx = ws / "fx"
    base = ["ppl", "--test", fx / "test.txt"]
    out_uni = run_ok(base + ["--model", ws / "uni.model"])
    assert "ppl:" in out_uni and "pseudo_ppl:" not in out_uni
    out_arpa = run_ok(base + ["--arpa", fx / "baseline.arpa",
                              "--vocab", fx / "vocab.txt"])
    assert "ppl:" in out_arpa
    # lambda1=0 forgets the recurrent model entirely
    out_mix0 = run_ok(base + ["--model", ws / "uni.model",
                              "--arpa", fx / "baseline.arpa", "--lambda1", 0])
    assert out_mix0 == out_arpa
    out_mix1 = run_ok(base + ["--model", ws / "uni.model",
                              "--arpa", fx / "baseline.arpa", "--lambda1", 1])
    assert out_mix1 == out_uni
    # a k=0 su model scores like the uni it shares weights with
    out_su0 = run_ok(base + ["--model", ws / "su0.model", "--alpha", 1])
    assert "pseudo_ppl:" in out_su0
    assert out_su0.replace("pseudo_ppl:", "ppl:") == out_uni
    out_bi = run_ok(base + ["--model", ws / "bi.model"])
    assert "pseudo_ppl:" in out_bi
    out_two = run_ok(base + ["--model", ws / "uni.model",
                             "--arpa", fx / "baseline.arpa",
                             "--su-model", ws / "su1.model"])
    assert "pseudo_ppl:" in out_two
    report = tmp_path / "rep.txt"
    out_rep = run_ok(base + ["--model", ws / "uni.model", "--report", report])
    text = report.read_text(encoding="utf-8").splitlines()
    assert text[:4] == out_rep.splitlines()
    n_sent = int(text[0].split()[1])
    assert len(text) == 4 + n_sent
    assert text[4].startswith("sent 0 ")


def test_ppl_two_stage_matches_step_by_step_walk(ws, tmp_path):
    """ppl --su-model scores through the n-best two-stage scorer; per word it
    equals a single-row walk of both models with each position's window."""
    fx = ws / "fx"
    uni = models.load_rnnlm(str(ws / "uni.model"))
    su = models.load_rnnlm(str(ws / "su1.model"))
    vocab = uni.vocab
    arpa = ngram.load_arpa(str(fx / "baseline.arpa"), vocab)
    cfg = InterpConfig(lambda1=0.6, lambda2=0.25)
    test = TokenizedCorpus.from_file(vocab, str(fx / "test.txt"))
    scorer = make_two_stage_scorer(arpa, uni, su, cfg, 0.7)
    out = run_ok(["ppl", "--test", fx / "test.txt", "--model", ws / "uni.model",
                  "--arpa", fx / "baseline.arpa", "--su-model", ws / "su1.model",
                  "--lambda1", 0.6, "--lambda2", 0.25, "--alpha", 0.7,
                  "--report", tmp_path / "rep.txt"])
    rows = (tmp_path / "rep.txt").read_text(encoding="utf-8").splitlines()[4:]
    assert len(rows) == len(test.sentences)
    for ids, row in zip(test.sentences, rows):
        want = []
        h_u, h_s = uni.zero_state(), su.zero_state()
        for t in range(1, len(ids)):
            dist_u, h_u = step(uni, h_u, ids[t - 1])
            win = future_window(vocab.pad, ids, t, su.k)
            dist_s, h_s = step(su, h_s, ids[t - 1], win, 0.7)
            want.append(two_stage(math.exp(arpa.logprob(ids[:t], ids[t])),
                                  math.exp(uni.word_logprob_from_dist(dist_u, ids[t])),
                                  math.exp(su.word_logprob_from_dist(dist_s, ids[t])),
                                  cfg))
        assert scorer.word_scores([ids])[0] == want
        assert abs(float(row.split()[2]) - sum(want)) <= 1e-6 + 1e-9 * abs(sum(want))
    assert "pseudo_ppl:" in out


def _scoring_cases(ws):
    fx = ws / "fx"
    ppl = ["ppl", "--test", fx / "test.txt"]
    mix = ["--model", ws / "uni.model", "--arpa", fx / "baseline.arpa"]
    tune = ["tune", "--test", fx / "test.txt"] + mix
    return {
        "ppl uni": ppl + ["--model", ws / "uni.model"],
        "ppl su1 alpha 0.7": ppl + ["--model", ws / "su1.model", "--alpha", 0.7],
        "ppl mix 0": ppl + mix + ["--lambda1", 0],
        "ppl mix 0.5": ppl + mix + ["--lambda1", 0.5],
        "ppl mix 1": ppl + mix + ["--lambda1", 1],
        "ppl su-model": ppl + mix + ["--su-model", ws / "su1.model"],
        "ppl bi": ppl + ["--model", ws / "bi.model"],
        "ppl arpa": ppl + ["--arpa", fx / "baseline.arpa", "--vocab", fx / "vocab.txt"],
        "tune uni": tune,
        "tune su-model": tune + ["--su-model", ws / "su1.model"],
    }


# sha256 of the `ppl --report` files and the `tune` stdout on the fixture
# set, as the per-sentence scorers wrote them before every sentence set
# went through one prefix trie; the texts print scores to four and six
# decimals
PINNED_SCORING_SHA256 = {
    "ppl uni": "5bd037e70ba20f98ad332d82cf093a621f13fab6f03bd728ec6b798dffaeb769",
    "ppl su1 alpha 0.7": "afaae8d1da257eadc4ff17196ad390054264d1e45fa142e545cc3bb8bcbb3e06",
    "ppl mix 0": "625e83bb1c09360cd264309bec7a0df678680d977da455db3f49834c797af6ba",
    "ppl mix 0.5": "03b1271045d2cfc40e0f73cd312969b928c3ccd6e48b7f4091d3bcff4d50b333",
    "ppl mix 1": "5bd037e70ba20f98ad332d82cf093a621f13fab6f03bd728ec6b798dffaeb769",
    "ppl su-model": "275de004787cc19ebd4c24fe154caefba520623b3a9a20851a36da4309e08724",
    "ppl bi": "460c049dbbd1ec167c68c911486c49bd42c14338374e2176e5721e03a25b6cfc",
    "ppl arpa": "625e83bb1c09360cd264309bec7a0df678680d977da455db3f49834c797af6ba",
    "tune uni": "7a5ae6a90e4924d799cbd5b9a8cb8760205ec3efc64a8109de8aba4a7047dd37",
    "tune su-model": "d2cf3330b040663c0b8875249e0e65df5577aaf359d0fb2127dec94e22706458",
}


@pytest.mark.parametrize("case", sorted(PINNED_SCORING_SHA256))
def test_ppl_report_and_tune_bytes_match_pinned_hashes(ws, tmp_path, case):
    argv = _scoring_cases(ws)[case]
    if argv[0] == "ppl":
        report = tmp_path / "rep.txt"
        run_ok(argv + ["--report", report])
        text = report.read_text(encoding="utf-8")
    else:
        text = run_ok(argv)
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_SCORING_SHA256[case]


def test_rescore_transcripts_and_wer(ws, tmp_path):
    fx = ws / "fx"
    args = ["rescore", "--lattices", fx / "lattices",
            "--model", ws / "uni.model", "--refs", fx / "refs.txt",
            "--out-dir", tmp_path / "out1"]
    out1 = run_ok(args)
    lines = out1.splitlines()
    assert len(lines) == 13
    assert all(lines[i].startswith("utt%04d " % i) for i in range(12))
    assert lines[-1].startswith("wer ") and "%" in lines[-1]
    # a second serial run and a parallel run both reproduce it exactly
    out2 = run_ok(["rescore", "--lattices", fx / "lattices",
                   "--model", ws / "uni.model", "--refs", fx / "refs.txt",
                   "--out-dir", tmp_path / "out2"])
    assert out2 == out1
    out3 = run_ok(["rescore", "--lattices", fx / "lattices",
                   "--model", ws / "uni.model", "--refs", fx / "refs.txt",
                   "--out-dir", tmp_path / "out3", "--jobs", 2])
    assert out3 == out1
    for name in os.listdir(tmp_path / "out1"):
        a = (tmp_path / "out1" / name).read_bytes()
        assert a == (tmp_path / "out2" / name).read_bytes()
        assert a == (tmp_path / "out3" / name).read_bytes()
    out_su = run_ok(["rescore", "--lattices", fx / "lattices",
                     "--model", ws / "uni.model",
                     "--su-model", ws / "su1.model",
                     "--refs", fx / "refs.txt"])
    assert out_su.splitlines()[-1].startswith("wer ")


def test_parallel_su_rescore_matches_serial_bytes(ws, tmp_path):
    # each worker fills its own copy of the caches, so the rows batched
    # together differ from the serial run's; the output must not
    fx = ws / "fx"
    args = ["rescore", "--lattices", fx / "lattices", "--model", ws / "uni.model",
            "--su-model", ws / "su1.model", "--refs", fx / "refs.txt"]
    serial = run_ok(args + ["--out-dir", tmp_path / "serial"])
    parallel = run_ok(args + ["--out-dir", tmp_path / "parallel", "--jobs", 2])
    assert parallel == serial
    assert serial.splitlines()[-1].startswith("wer ")
    names = sorted(os.listdir(tmp_path / "serial"))
    assert len(names) == 12
    assert sorted(os.listdir(tmp_path / "parallel")) == names
    for name in names:
        assert ((tmp_path / "parallel" / name).read_bytes()
                == (tmp_path / "serial" / name).read_bytes())



def test_rescore_writes_each_result_before_the_next_lattice(ws, tmp_path,
                                                             monkeypatch):
    # results are written and printed as they arrive, not held until the end
    fx = ws / "fx"
    out_dir = tmp_path / "out"
    names = sorted(os.listdir(fx / "lattices"))
    seen = []
    rescore_one = cli._rescore_one

    def spy(task):
        seen.append((sorted(os.listdir(out_dir)),
                     sys.stdout.getvalue().count("\n")))
        return rescore_one(task)

    monkeypatch.setattr(cli, "_rescore_one", spy)
    out = run_ok(["rescore", "--lattices", fx / "lattices",
                  "--model", ws / "uni.model", "--out-dir", out_dir])
    assert seen == [(names[:i], i) for i in range(len(names))]
    assert len(out.splitlines()) == len(names)


def test_nbest_extract_and_rerank(ws, tmp_path):
    fx = ws / "fx"
    nb = tmp_path / "utt.nbest"
    out = run_ok(["nbest", "--lattice", fx / "lattices" / "utt0000.slf",
                  "--n", 5, "--out", nb])
    rows = nb.read_text(encoding="utf-8").splitlines()
    assert len(rows) == 2          # a sausage with one fork has two paths
    assert out.strip() == rows[0]
    totals = [float(r.split("\t")[0]) for r in rows]
    assert totals == sorted(totals, reverse=True)
    out2 = run_ok(["nbest", "--from-list", nb, "--model", ws / "uni.model",
                   "--arpa", fx / "baseline.arpa",
                   "--su-model", ws / "su1.model", "--normalize-locally",
                   "--out", tmp_path / "rr.nbest"])
    rows2 = (tmp_path / "rr.nbest").read_text(encoding="utf-8").splitlines()
    assert len(rows2) == 2
    assert {r.split("\t")[3] for r in rows2} == {r.split("\t")[3] for r in rows}
    assert out2.strip() == rows2[0]


def test_tune_reports_grid_and_best(ws):
    fx = ws / "fx"
    out = run_ok(["tune", "--test", fx / "test.txt",
                  "--arpa", fx / "baseline.arpa", "--model", ws / "uni.model"])
    lines = out.splitlines()
    grid = [l for l in lines if l.startswith("lambda1 ")]
    assert len(grid) == 21
    assert lines[-1].startswith("best lambda1 ")
    out2 = run_ok(["tune", "--test", fx / "test.txt",
                   "--arpa", fx / "baseline.arpa", "--model", ws / "uni.model",
                   "--su-model", ws / "su1.model", "--lambda1", 0.5])
    lines2 = out2.splitlines()
    assert len([l for l in lines2 if l.startswith("lambda2 ")]) == 21
    assert lines2[-1].startswith("best lambda2 ")
    assert "(lambda1 0.50)" in lines2[-1]


def test_config_file_sets_defaults_but_flags_win(ws, tmp_path):
    fx = ws / "fx"
    cfg = tmp_path / "train.cfg"
    cfg.write_text("hidden=12\nembed=8\nseed=7\n"
                   "epochs=2\nstreams=4\nbptt=16  # span\n\n", encoding="utf-8")
    run_ok(["--config", cfg, "train", "--arch", "uni",
            "--train", fx / "train.txt", "--vocab", fx / "vocab.txt",
            "--model-out", tmp_path / "cfg.model"])
    assert (tmp_path / "cfg.model").read_bytes() == \
        (ws / "uni.model").read_bytes()
    run_ok(["--config", cfg, "train", "--arch", "uni", "--seed", 8,
            "--train", fx / "train.txt", "--vocab", fx / "vocab.txt",
            "--model-out", tmp_path / "cfg8.model"])
    assert (tmp_path / "cfg8.model").read_bytes() != \
        (ws / "uni.model").read_bytes()


def test_help_exits_zero():
    # argparse formats a help text only when --help runs
    def help_text(argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), pytest.raises(SystemExit) as e:
            cli.main(argv + ["--help"])
        assert e.value.code == 0
        return " ".join(out.getvalue().split())

    help_text([])
    subparsers = next(a for a in cli._build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    # each weight flag's help names the default the library applies
    defaults = {"lambda1": InterpConfig.lambda1, "lambda2": InterpConfig.lambda2,
                "alpha": DEFAULT_ALPHA}
    weights = {"ppl": defaults, "nbest": defaults, "rescore": defaults,
               "tune": {"alpha": DEFAULT_ALPHA}}
    for command, sp in subparsers.choices.items():
        text = help_text([command])
        for dest, value in weights.get(command, {}).items():
            action = next(a for a in sp._actions if a.dest == dest)
            assert "(default %s)" % value in action.help, (command, dest)
            assert " ".join(action.help.split()) in text, (command, dest)
