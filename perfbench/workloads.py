"""The three workloads: how each sets up, what one round runs, and how its
outputs are checked.

A round is the same list of operations every time, so a run attempts whole
rounds and every round of a run must produce identical outputs.  Set-up
writes everything a round reads into the work directory; the round itself
only calls into prosoparse.
"""

from __future__ import annotations

import contextlib
import gc
import io
import math
import os
import re
import time

import numpy as np

import brackets

PHRASE_LABELS = ("NP", "VP", "PP", "SBAR", "ADJP", "ADVP", "PRN", "UCP")
PSEUDO_WORDS = 2000
# train-prosody decodes and scores this many times per training run: those
# operations are short, and more samples steady their medians.
REPEATS = 3
TRAIN_SEED = 0


class OpFailed(Exception):
    """A prosoparse command exited non-zero."""


def cli(*argv: str) -> str:
    """Run a prosoparse command in-process and return what it printed."""
    from prosoparse import cli as prosoparse_cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = prosoparse_cli.run(list(argv))
    if code != 0:
        raise OpFailed("prosoparse %s exited with %d" % (argv[0], code))
    return out.getvalue()


def timed(fn, *args):
    # Training leaves its graphs as cyclic garbage; collected here, outside
    # the timing, they are not charged to the operation that follows.
    gc.collect()
    start = time.perf_counter()
    result = fn(*args)
    return time.perf_counter() - start, result


def repeat(fn, *args):
    """Run an operation REPEATS times; returns every wall time and the last
    result."""
    walls = []
    for _ in range(REPEATS):
        wall, result = timed(fn, *args)
        walls.append(wall)
    return walls, result


def file_bytes(path) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def sets(pairs: dict) -> list[str]:
    out = []
    for key, value in pairs.items():
        out += ["--set", "%s=%s" % (key, value)]
    return out


def count_acoustic(corpus_dir, split) -> tuple[int, int]:
    """(utterances, utterances with alignment rows) of one split, read from
    the corpus files."""
    n = len(brackets.read_trees(os.path.join(corpus_dir, "%s.trees" % split)))
    with open(os.path.join(corpus_dir, "%s.align.tsv" % split)) as fh:
        aligned = {line.split("\t", 1)[0] for line in fh if line.strip()}
    return n, len(aligned)


def parse_score(text: str) -> dict[str, float]:
    rows = {}
    for line in text.splitlines():
        section, key, value = line.split("\t")
        rows["%s.%s" % (section, key)] = float(value)
    return rows


def check_parses(gold: list, pred: list, what: str) -> list[str]:
    if len(pred) != len(gold):
        return ["%s: %d trees for %d sentences" % (what, len(pred), len(gold))]
    bad = sum(brackets.leaves(p) != brackets.leaves(g) for g, p in zip(gold, pred))
    return ["%s: %d trees whose leaves differ from the sentence" % (what, bad)] if bad else []


def check_score_counts(score: dict, gold: list, pred: list, what: str) -> list[str]:
    want = brackets.counts(gold, pred)
    got = (score["overall.matched"], score["overall.gold"], score["overall.pred"])
    if got != want:
        return ["%s: score counts matched/gold/pred %s, own count %s" % (what, got, want)]
    return []


# ---------------------------------------------------------------------------


class TrainPaper:
    """prosoparse.train at the paper's default model size, in-process, on
    random token sequences of 8, 16 and 32 tokens with random gold trees.
    After training, the same sentences are decoded and scored once."""

    name = "train-paper"
    warmup_rounds = 2    # the allocator stops page-faulting after two
    ops_per_round = 3    # train, decode, score

    def __init__(self, smoke: bool):
        self.lengths = (4, 8) if smoke else (8, 16, 32)
        self.per_length = 4 if smoke else 16
        self.epochs = 2
        self.model = ({"hidden": 16, "layers": 1, "word_embed_dim": 16,
                       "output_embed_dim": 16} if smoke else {})
        self.draws = 2000 if smoke else 100_000

    def setup(self, work, seed) -> dict:
        """Seeded token sequences, each with a random full binary tree, so
        every seed gives the same number of target symbols."""
        rng = np.random.default_rng([seed, 1])
        sentences = []
        for length in self.lengths:
            for _ in range(self.per_length):
                words = ["w%04d" % i for i in rng.integers(0, PSEUDO_WORDS, length)]
                sentences.append(brackets.to_text(_random_tree(words, rng)))
        with open(os.path.join(work, "sentences.trees"), "w") as fh:
            fh.write("\n".join(sentences) + "\n")
        with open(os.path.join(work, "sentences.flat.trees"), "w") as fh:
            fh.write("".join(brackets.to_text(brackets.flat(brackets.parse(s))) + "\n"
                             for s in sentences))
        return {}

    def load(self, work, seed) -> None:
        from prosoparse import (Example, ModelConfig, TrainConfig, Utterance,
                                load_treebank)

        self.gold = brackets.read_trees(os.path.join(work, "sentences.trees"))
        self.examples = [
            Example(utterance=Utterance(id=uid, tokens=tree.leaves()), gold=tree,
                    has_acoustics=False)
            for uid, tree in load_treebank(os.path.join(work, "sentences.trees"))]
        self.flat = [tree for _, tree in
                     load_treebank(os.path.join(work, "sentences.flat.trees"))]
        self.model_config = ModelConfig(**self.model)
        # The training seed is fixed, not N: it sets the batch order, and
        # the batch order decides which graphs are still uncollected when the
        # T=32 batch runs, which moved peak RSS between 4.4 and 5.1 GB from
        # seed to seed.
        self.train_config = TrainConfig(
            batch_size=16, max_epochs=self.epochs, seed=TRAIN_SEED,
            loss_check_interval=len(self.lengths))   # one interval per epoch
        self.seed = seed

    def round(self) -> tuple[dict, dict]:
        from prosoparse import decoding, metrics, training

        train_s, (model, log) = timed(
            training.train, self.examples, None, self.model_config,
            self.train_config)
        decode_s, (trees, _) = timed(decoding.decode_corpus, model, model,
                                     self.examples)
        gold = [e.gold for e in self.examples]

        def score():
            report = metrics.parseval(gold, trees)
            metrics.stratified_report(gold, trees, metrics.length_stratum)
            p = metrics.bootstrap_pvalue(gold, self.flat, trees,
                                         draws=self.draws, seed=self.seed)
            return report, p

        score_s, (report, p) = timed(score)
        n = len(self.examples)
        walls = {"train_sents_per_s": [n * self.epochs / train_s],
                 "decode_sents_per_s": [n / decode_s],
                 "score_s": [score_s]}
        params_finite = all(np.all(np.isfinite(t.data))
                            for t in model.params.values())
        outputs = {"losses": [loss for _, loss in log.interval_losses],
                   "params_finite": params_finite,
                   "trees": [t.to_bracketed() for t in trees],
                   "counts": (report.matched, report.gold_total, report.pred_total),
                   "p": p}
        return walls, outputs

    def check(self, out: dict) -> list[str]:
        errors = []
        losses = out["losses"]
        if len(losses) != self.epochs:
            errors.append("train-paper: %d interval losses for %d epochs"
                          % (len(losses), self.epochs))
        elif not all(math.isfinite(v) for v in losses):
            errors.append("train-paper: non-finite interval loss %s" % losses)
        elif not losses[-1] < losses[0]:
            errors.append("train-paper: loss did not fall: %s" % losses)
        if not out["params_finite"]:
            errors.append("train-paper: non-finite parameters after training")
        pred = [brackets.parse(t) for t in out["trees"]]
        errors += check_parses(self.gold, pred, "train-paper decode")
        if not errors and tuple(out["counts"]) != brackets.counts(self.gold, pred):
            errors.append("train-paper: parseval counts %s, own count %s"
                          % (out["counts"], brackets.counts(self.gold, pred)))
        if not 0 <= out["p"] <= 1:
            errors.append("train-paper: bootstrap p %r outside [0, 1]" % out["p"])
        return errors


def _random_tree(words: list[str], rng):
    """A full binary tree over the words: len(words) - 1 phrase nodes, random
    split points and labels, the root labelled S."""
    def build(lo, hi):
        if hi - lo == 1:
            return ("NN", [words[lo]])
        cut = int(rng.integers(lo + 1, hi))
        label = PHRASE_LABELS[int(rng.integers(len(PHRASE_LABELS)))]
        return (label, [build(lo, cut), build(cut, hi)])

    return ("S", build(0, len(words))[1])


# ---------------------------------------------------------------------------

PROSODY_MODEL = {"hidden": 64, "layers": 2, "word_embed_dim": 64,
                 "output_embed_dim": 64, "features": "pause,duration,cnn",
                 "attention": "location"}
TEXT_MODEL = {"hidden": 64, "layers": 2, "word_embed_dim": 64,
              "output_embed_dim": 64, "features": "", "attention": "content"}
SMOKE_MODEL = {"hidden": 8, "layers": 1, "word_embed_dim": 8,
               "output_embed_dim": 8, "pause_embed_dim": 4,
               "cnn_filters_per_width": 2, "location_width": 5}


def train_argv(data, out, model: dict, epochs: int, seed: int,
               n_train: int, smoke: bool) -> list[str]:
    model = dict(model, **SMOKE_MODEL) if smoke else model
    train = {"batch_size": 32, "lr0": 0.02, "max_epochs": epochs,
             "early_stop_patience": epochs, "seed": seed,
             "loss_check_interval": max(1, n_train // 32)}
    return (["train", "--data", data, "--out", out]
            + sets({"model." + k: v for k, v in model.items()})
            + sets({"train." + k: v for k, v in train.items()}))


class TrainProsody:
    """The ``prosoparse train`` command on a synthetic corpus with pause,
    duration and CNN features, then the user's next two commands: decode
    dev from the saved checkpoint and score it against the flat baseline."""

    name = "train-prosody"
    warmup_rounds = 2    # the second round ran up to 15% faster than later ones
    ops_per_round = 1 + 2 * REPEATS

    def __init__(self, smoke: bool):
        self.smoke = smoke
        self.n_train, self.n_dev = (32, 8) if smoke else (256, 64)
        self.epochs = 1 if smoke else 8
        self.draws = 2000 if smoke else 100_000

    def setup(self, work, seed) -> dict:
        data = os.path.join(work, "corpus")
        cli("synth", "--seed", str(seed), "--out", data,
            *sets({"n_train": self.n_train, "n_dev": self.n_dev, "n_test": 0,
                   "pause_mode": "coupled", "missing_acoustics_frac": 0.0}))
        gold = brackets.read_trees(os.path.join(data, "dev.trees"))
        with open(os.path.join(work, "dev.flat.trees"), "w") as fh:
            fh.write("".join(brackets.to_text(brackets.flat(t)) + "\n" for t in gold))
        return {}

    def load(self, work, seed) -> None:
        self.data = os.path.join(work, "corpus")
        self.out = os.path.join(work, "run")
        self.flat_path = os.path.join(work, "dev.flat.trees")
        self.pred_path = os.path.join(work, "dev.pred.trees")
        self.gold = brackets.read_trees(os.path.join(self.data, "dev.trees"))
        self.seed = seed
        self.train_argv = train_argv(self.data, self.out, PROSODY_MODEL,
                                     self.epochs, seed, self.n_train, self.smoke)

    def round(self) -> tuple[dict, dict]:
        train_s, _ = timed(cli, *self.train_argv)
        decode_s, _ = repeat(
            cli, "decode", "--model", os.path.join(self.out, "checkpoint"),
            "--data", self.data, "--split", "dev", "--out", self.pred_path)
        score_s, score = repeat(
            cli, "score", "--gold", os.path.join(self.data, "dev.trees"),
            "--pred", self.flat_path, "--compare", self.pred_path,
            "--strata", "length", "--draws", str(self.draws),
            "--seed", str(self.seed))
        walls = {"train_sents_per_s": [self.n_train * self.epochs / train_s],
                 "decode_sents_per_s": [self.n_dev / s for s in decode_s],
                 "score_s": score_s}
        outputs = {"trainlog": file_bytes(os.path.join(self.out, "trainlog.tsv")).decode(),
                   "pred": file_bytes(self.pred_path).decode(),
                   "score": score}
        return walls, outputs

    def check(self, out: dict) -> list[str]:
        errors = []
        rows = [line.split("\t") for line in out["trainlog"].splitlines()[1:]]
        dev_epochs = [int(r[1]) for r in rows if r[0] == "dev_f1"]
        if dev_epochs != list(range(1, self.epochs + 1)):
            errors.append("train-prosody: dev F1 rows for epochs %s, want 1..%d"
                          % (dev_epochs, self.epochs))
        best = [_number(r[2]) for r in rows if r[0] == "best"]
        pred = [brackets.parse(line) for line in out["pred"].splitlines() if line]
        errors += check_parses(self.gold, pred, "train-prosody decode")
        if errors:
            return errors
        own_f1 = brackets.f1(*brackets.counts(self.gold, pred))
        if best != [own_f1]:
            errors.append("train-prosody: logged best dev F1 %s, decoding the "
                          "checkpoint gives %r" % (best, own_f1))
        flat = [brackets.flat(t) for t in self.gold]
        flat_f1 = brackets.f1(*brackets.counts(self.gold, flat))
        # one epoch of a smoke-sized model need not learn anything
        if not self.smoke and not own_f1 > flat_f1:
            errors.append("train-prosody: dev F1 %.2f does not beat the flat "
                          "baseline %.2f" % (own_f1, flat_f1))
        errors += check_score_counts(parse_score(out["score"]), self.gold, flat,
                                     "train-prosody flat")
        return errors


def _number(text: str) -> float:
    """A float as the train log writes it, bare or as ``np.float64(x)``."""
    match = re.fullmatch(r"(?:np\.float64\()?([^()]+)\)?", text)
    return float(match.group(1))


# ---------------------------------------------------------------------------


class EvalProsody:
    """The evaluation loop: decode the test split with a prosody model and
    its text-only backoff, decode it with the text model alone, then score
    one against the other with the paired bootstrap.  Set-up trains both
    checkpoints, and training throughput is measured there."""

    name = "eval-prosody"
    warmup_rounds = 2    # as in train-prosody
    ops_per_round = 3    # decode with backoff, decode text-only, score
    missing_share = 0.25

    def __init__(self, smoke: bool):
        self.smoke = smoke
        self.n_train, self.n_dev, self.n_test = (32, 8, 16) if smoke else (256, 32, 384)
        self.epochs = 1 if smoke else 6
        self.draws = 2000 if smoke else 100_000

    def setup(self, work, seed) -> dict:
        data = os.path.join(work, "corpus")
        cli("synth", "--seed", str(seed), "--out", data,
            *sets({"n_train": self.n_train, "n_dev": self.n_dev,
                   "n_test": self.n_test, "pause_mode": "coupled",
                   "missing_acoustics_frac": self.missing_share}))
        n_train, n_aligned = count_acoustic(data, "train")
        sentences = 0
        wall = 0.0
        for model, tag, n in ((PROSODY_MODEL, "prosody", n_aligned),
                              (TEXT_MODEL, "text", n_train)):
            argv = train_argv(data, os.path.join(work, tag), model, self.epochs,
                              seed, n, self.smoke)
            seconds, _ = timed(cli, *argv)
            sentences += n * self.epochs
            wall += seconds
        return {"train_sents_per_s": sentences / wall}

    def load(self, work, seed) -> None:
        self.data = os.path.join(work, "corpus")
        self.prosody = os.path.join(work, "prosody", "checkpoint")
        self.text = os.path.join(work, "text", "checkpoint")
        self.pred_p = os.path.join(work, "test.prosody.trees")
        self.pred_t = os.path.join(work, "test.text.trees")
        self.gold_path = os.path.join(self.data, "test.trees")
        self.gold = brackets.read_trees(self.gold_path)
        n, aligned = count_acoustic(self.data, "test")
        self.unaligned = n - aligned
        self.seed = seed

    def round(self) -> tuple[dict, dict]:
        decode_s, printed = timed(
            cli, "decode", "--model", self.prosody, "--text-model", self.text,
            "--data", self.data, "--split", "test", "--out", self.pred_p)
        printed_t = cli("decode", "--model", self.text, "--data", self.data,
                        "--split", "test", "--out", self.pred_t)
        score_s, score = timed(
            cli, "score", "--gold", self.gold_path, "--pred", self.pred_t,
            "--compare", self.pred_p, "--strata", "length",
            "--seed", str(self.seed))
        walls = {"decode_sents_per_s": [len(self.gold) / decode_s],
                 "score_s": [score_s]}
        outputs = {"pred_p": file_bytes(self.pred_p).decode(),
                   "pred_t": file_bytes(self.pred_t).decode(),
                   "printed": printed, "printed_t": printed_t, "score": score}
        return walls, outputs

    def check(self, out: dict) -> list[str]:
        errors = []
        pred_p = [brackets.parse(x) for x in out["pred_p"].splitlines() if x]
        pred_t = [brackets.parse(x) for x in out["pred_t"].splitlines() if x]
        errors += check_parses(self.gold, pred_p, "eval-prosody prosody decode")
        errors += check_parses(self.gold, pred_t, "eval-prosody text decode")
        for printed, want in ((out["printed"], self.unaligned),
                              (out["printed_t"], 0)):
            match = re.search(r"\((\d+) via text backoff\)", printed)
            if not match or int(match.group(1)) != want:
                errors.append("eval-prosody: decode reported %r, want %d backoffs"
                              % (printed.strip(), want))
        if errors:
            return errors
        errors += check_score_counts(parse_score(out["score"]), self.gold,
                                     pred_t, "eval-prosody text")
        # bootstrap properties, on few draws and outside the timed rounds
        small = ["--gold", self.gold_path, "--draws", "500", "--seed", str(self.seed)]
        p_self = parse_score(cli("score", "--pred", self.pred_t,
                                 "--compare", self.pred_t, *small))
        p_ab = parse_score(cli("score", "--pred", self.pred_t,
                               "--compare", self.pred_p, *small))
        p_ba = parse_score(cli("score", "--pred", self.pred_p,
                               "--compare", self.pred_t, *small))
        if p_self["bootstrap.p_value"] != 1.0:
            errors.append("eval-prosody: a file against itself gave p = %r"
                          % p_self["bootstrap.p_value"])
        if p_ab["bootstrap.p_value"] + p_ba["bootstrap.p_value"] < 1.0:
            errors.append("eval-prosody: p(a, b) + p(b, a) = %r < 1"
                          % (p_ab["bootstrap.p_value"] + p_ba["bootstrap.p_value"]))
        return errors


WORKLOADS = {w.name: w for w in (TrainPaper, TrainProsody, EvalProsody)}
