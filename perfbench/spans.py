"""Spans and counts recorded around calls into prosoparse's public functions.

Tracing wraps functions from outside the program: each wrapped function is
replaced wherever a ``prosoparse`` module binds it (so ``from .x import f``
call sites are covered too), and ``uninstall`` puts every original back.
A span holds a name, its parent span, a start and an end; spans stay in
memory until the run writes them out.  Counts are taken at the same
boundaries.  A layer's time is its spans' self time: duration minus the
time covered by their direct child spans.
"""

from __future__ import annotations

import sys
import time
import tracemalloc
from collections import Counter, defaultdict

LENGTHS = (8, 16, 32)

# Per-layer time metric -> span name it sums the self time of.  A name
# ending in "." sums every span that starts with it.
TIMED_LAYERS = {
    "model.sequence_loss_s.T8": "model.sequence_loss.T8",
    "model.sequence_loss_s.T16": "model.sequence_loss.T16",
    "model.sequence_loss_s.T32": "model.sequence_loss.T32",
    "autodiff.backward_s.T8": "autodiff.backward.T8",
    "autodiff.backward_s.T16": "autodiff.backward.T16",
    "autodiff.backward_s.T32": "autodiff.backward.T32",
    "autodiff.backward_s": "autodiff.backward.",
    "autodiff.adam_s": "autodiff.adam",
    "autodiff.lstm_cell_s": "autodiff.lstm_cell",
    "autodiff.conv1d_same_s": "autodiff.conv1d_same",
    "autodiff.conv1d_maxpool_s": "autodiff.conv1d_maxpool",
    "model.encode_s": "model.encode",
    "model.decode_step_s.location": "model.decode_step.location",
    "model.decode_step_s.content": "model.decode_step.content",
    "model.load_s": "model.load",
    "training.prepare_dataset_s": "training.prepare_dataset",
    "training.dev_decode_s": "training.dev_decode",
    "prosody.build_inputs_s": "prosody.build_inputs",
    "decoding.greedy_decode_s": "decoding.greedy_decode",
    "decoding.prepare_s": "decoding.prepare",
    "trees.repair_s": "trees.repair",
    "trees.delinearize_s": "trees.delinearize",
    "corpus.load_s": "corpus.load",
    "corpus.frames_load_s": "corpus.frames_load",
    "corpus.treebank_load_s": "corpus.treebank_load",
    "metrics.parseval_s": "metrics.parseval",
    "metrics.bootstrap_s": "metrics.bootstrap",
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [name, parent index, start, end]
        self.counts: Counter = Counter()
        self.maxima: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._loss_length: dict[int, int] = {}
        self._patches: list[tuple[object, str, object]] = []

    # -- installing wrappers ------------------------------------------------

    def _wrap(self, fn, name, before=None, after=None):
        """``name`` is a string or a function of the call's arguments;
        ``before(tracer, args)`` runs outside the span, ``after(tracer,
        args, result)`` once the span has closed."""
        tracer = self

        def wrapper(*args, **kwargs):
            label = name(args) if callable(name) else name
            if before is not None:
                before(tracer, args)
            span = [label, tracer._stack[-1] if tracer._stack else -1, 0.0, 0.0]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                tracer._stack.pop()
            if after is not None:
                after(tracer, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _patch_function(self, fn, name, before=None, after=None,
                        overrides=None) -> None:
        """Replace ``fn`` in every prosoparse module that binds it; a module
        named in ``overrides`` gets its own span name."""
        for mod_name, module in list(sys.modules.items()):
            if mod_name.partition(".")[0] != "prosoparse":
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    label = (overrides or {}).get(mod_name, name)
                    self._patch(module, attr,
                                self._wrap(fn, label, before, after))

    def _patch_method(self, cls, attr, name, before=None, after=None) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            self._patch(cls, attr, classmethod(
                self._wrap(raw.__func__, name, before, after)))
        else:
            self._patch(cls, attr, self._wrap(raw, name, before, after))

    def install(self) -> None:
        from prosoparse import (autodiff, cli, corpus, decoding, metrics,
                                model, prosody, synth, training, trees)

        fn = self._patch_function
        fn(autodiff.lstm_cell, "autodiff.lstm_cell")
        fn(autodiff.conv1d_same, "autodiff.conv1d_same")
        fn(autodiff.conv1d_maxpool, "autodiff.conv1d_maxpool")
        fn(autodiff.adam_step, "autodiff.adam", after=_count_update)
        self._patch_method(autodiff.Tensor, "backward", self._backward_name,
                           before=_measure_tape)

        cls = model.ParserModel
        self._patch_method(cls, "sequence_loss", _loss_name,
                           after=_remember_loss)
        self._patch_method(cls, "encode", "model.encode")
        self._patch_method(cls, "decode_step", _decode_step_name)
        self._patch_method(cls, "load", "model.load")

        fn(training.train, "training.train")
        fn(training.prepare_dataset, "training.prepare_dataset")
        fn(decoding.decode_corpus, "decoding.decode_corpus",
           after=_count_backoff,
           overrides={"prosoparse.training": "training.dev_decode"})
        fn(decoding.greedy_decode, "decoding.greedy_decode", after=_count_steps)
        fn(decoding.prepare_for_model, "decoding.prepare")
        fn(trees.repair, "trees.repair", after=_count_repair)
        fn(trees.delinearize, "trees.delinearize")
        fn(prosody.build_prosodic_inputs, "prosody.build_inputs")
        fn(synth.load_corpus, "corpus.load")
        fn(corpus.load_frames, "corpus.frames_load", after=_count_frames)
        fn(corpus.load_treebank, "corpus.treebank_load")
        fn(metrics.parseval, "metrics.parseval")
        fn(metrics.bootstrap_pvalue, "metrics.bootstrap",
           before=_start_alloc_trace, after=_stop_alloc_trace)
        fn(cli.run, "cli.run")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)
        if tracemalloc.is_tracing():
            tracemalloc.stop()

    def _backward_name(self, args) -> str:
        length = self._loss_length.get(id(args[0]))
        return ("autodiff.backward.T%d" % length if length
                else "autodiff.backward.other")

    # -- results ------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        covered = [0.0] * len(self.spans)
        for _, parent, start, end in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for (name, _, start, end), child in zip(self.spans, covered):
            out[name] += (end - start) - child
        return out

    def layer_metrics(self, rounds: int) -> dict[str, float]:
        """Per-layer metrics, times and counts per traced round."""
        selfs = self.self_times()
        out = {}
        for metric, span in TIMED_LAYERS.items():
            if span.endswith("."):
                total = sum(v for k, v in selfs.items() if k.startswith(span))
            else:
                total = selfs.get(span, 0.0)
            out[metric] = total / rounds
        c = self.counts
        for length in LENGTHS:
            out["autodiff.tape_nodes.T%d" % length] = self.maxima["tape_nodes.T%d" % length]
            out["autodiff.tape_mb.T%d" % length] = self.maxima["tape_mb.T%d" % length]
        out["training.updates"] = c["updates"] / rounds
        out["decoding.steps"] = c["steps"] / rounds
        out["decoding.row_use"] = (c["emitted"] / c["row_steps"]
                                   if c["row_steps"] else 0.0)
        out["decoding.repair_share"] = (c["repairs"] / c["decoded_rows"]
                                        if c["decoded_rows"] else 0.0)
        out["decoding.backoff_sentences"] = c["backoff"] / rounds
        out["corpus.frame_rows"] = c["frame_rows"] / rounds
        out["metrics.bootstrap_peak_mb"] = self.maxima["bootstrap_peak_mb"]
        return out

    def span_records(self) -> list[dict]:
        return [{"name": n, "parent": p, "start": s, "end": e}
                for n, p, s, e in self.spans]


# ---------------------------------------------------------------------------
# Span names and counts taken at the wrapped boundaries


def _loss_name(args) -> str:
    return "model.sequence_loss.T%d" % args[1][0].n_tokens


def _decode_step_name(args) -> str:
    return "model.decode_step." + args[0].config.attention


def _remember_loss(tracer, args, result) -> None:
    tracer._loss_length[id(result)] = args[1][0].n_tokens


def _measure_tape(tracer, args) -> None:
    """Nodes and bytes of tensor data reachable from the loss, counted
    before backward() runs."""
    loss = args[0]
    length = tracer._loss_length.get(id(loss))
    if not length:
        return
    seen = {id(loss)}
    stack = [loss]
    n_bytes = 0
    while stack:
        node = stack.pop()
        n_bytes += node.data.nbytes
        for parent in node._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    key = "T%d" % length
    tracer.maxima["tape_nodes." + key] = max(tracer.maxima["tape_nodes." + key],
                                             len(seen))
    tracer.maxima["tape_mb." + key] = max(tracer.maxima["tape_mb." + key],
                                          n_bytes / 2**20)


def _count_update(tracer, args, result) -> None:
    tracer.counts["updates"] += 1


def _count_backoff(tracer, args, result) -> None:
    tracer.counts["backoff"] += result[1]


def _count_steps(tracer, args, result) -> None:
    from prosoparse.decoding import default_max_len

    model, batch = args[0], args[1]
    if not batch:
        return
    max_len = args[2] if len(args) > 2 else default_max_len(batch[0].n_tokens)
    # a row emits its symbols plus the end symbol, unless max_len cut it off
    emitted = [min(len(symbols) + 1, max_len) for symbols in result]
    steps = max(emitted)
    tracer.counts["steps"] += steps
    tracer.counts["emitted"] += sum(emitted)
    tracer.counts["row_steps"] += steps * len(batch)
    tracer.counts["decoded_rows"] += len(batch)


def _count_repair(tracer, args, result) -> None:
    tracer.counts["repairs"] += 1


def _count_frames(tracer, args, result) -> None:
    tracer.counts["frame_rows"] += sum(m.shape[0] for m in result.values())


def _start_alloc_trace(tracer, args) -> None:
    tracemalloc.start()


def _stop_alloc_trace(tracer, args, result) -> None:
    peak = tracemalloc.get_traced_memory()[1] / 2**20
    tracemalloc.stop()
    tracer.maxima["bootstrap_peak_mb"] = max(tracer.maxima["bootstrap_peak_mb"], peak)
