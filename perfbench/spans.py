"""Spans at the boundaries of cmlmkit's layers, recorded from outside it.

``Tracer.install`` replaces the public functions of each ``cmlmkit`` module
with wrappers that open a span on entry and close it on exit; ``uninstall``
puts the originals back. A span is (name, start, end, parent span, group):
every span of one training step, one embedding batch or one eval-kit call
shares a group id. Counts (tape entries, checkpoint bytes, memory peaks)
are recorded by the same wrappers. Spans stay in memory until the run ends,
when ``write`` saves them and ``layer_metrics`` derives the per-layer
metrics from them.

A wrapper replaces a function wherever the package bound it (``losses``
imports ``encode`` from ``model``, for example), so calls between modules
are seen as well as calls from the benchmark.
"""

from __future__ import annotations

import os
import sys
import time
import tracemalloc
from collections import defaultdict

from cmlmkit import (autodiff, evaluation, losses, masking, model, optim,
                     spectral, synth, text, training)

# Op names as the tape records them; the function behind each has the same
# name in ``autodiff`` except where ``OP_FUNCTIONS`` says otherwise.
OPS = ("matmul", "add", "sub", "mul", "div", "neg", "abs", "relu", "gelu",
       "reshape", "transpose", "concat", "sum", "gather_rows", "take_per_row",
       "softmax", "log_softmax", "layer_norm")
OP_FUNCTIONS = {"abs": "absolute", "sum": "tsum"}
STAGE_KINDS = ("cmlm", "joint", "br", "nli")

# (module, function, span name, starts a new group)
FUNCTIONS = [
    (synth, "generate", "synth.generate", False),
    (synth, "make_languages", "synth.make_languages", False),
    (synth, "translate", "synth.translate", False),
    (text, "tokenize", "text.tokenize", False),
    (text, "build_vocab", "text.build_vocab", False),
    (masking, "make_batch", "masking.make_batch", False),
    (model, "encode", "model.encode", False),
    (model, "project", "model.project", False),
    (model, "embed_texts", "model.embed_texts", True),
    (losses, "cmlm_loss", "losses.cmlm", False),
    (losses, "bitext_loss", "losses.bitext", False),
    (losses, "nli_loss", "losses.nli", False),
    (optim, "optimizer_step", "optim.step", False),
    (training, "run_plan", "training.run_plan", True),
    (evaluation, "save_embeddings", "evaluation.save", True),
    (evaluation, "load_embeddings", "evaluation.load", True),
    (evaluation, "pcr_debias", "evaluation.pcr", True),
    (spectral, "first_principal_direction", "spectral.direction", False),
] + [(autodiff, OP_FUNCTIONS.get(op, op), f"autodiff.fwd.{op}", False)
     for op in OPS]

# eval-kit calls whose allocation peak is recorded with tracemalloc
PEAK_FUNCTIONS = [
    (evaluation, "retrieval_accuracy", "evaluation.retrieval"),
    (evaluation, "language_bias_histogram", "evaluation.bias_hist"),
]

NAME, START, END, PARENT, GROUP = range(5)


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "cmlmkit" or name.startswith("cmlmkit."))]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.peaks: dict[str, float] = defaultdict(float)
        self.last: dict[str, float] = {}
        self._stack: list[int] = []
        self._group = 0
        self._kind = None
        self._saved: list[tuple[object, str, object]] = []

    # spans ----------------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self._group])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter_ns()
        self._stack.pop()

    def new_group(self) -> None:
        self._group += 1

    def _parent_name(self) -> str | None:
        return self.spans[self._stack[-1]][NAME] if self._stack else None

    # wrappers -------------------------------------------------------------

    def _wrap(self, fn, name: str, new_group: bool):
        tracer = self

        def traced(*args, **kwargs):
            if new_group:
                tracer.new_group()
            idx = tracer.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(idx)

        return traced

    def _wrap_encode_and_pool(self, fn):
        tracer = self

        def traced(*args, **kwargs):
            in_embed = tracer._parent_name() == "model.embed_texts"
            idx = tracer.open("model.encode_and_pool")
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(idx)
                if in_embed:
                    # tokenization of the next batch starts its group
                    tracer.counts["model.embed_batches"] += 1
                    tracer.new_group()

        return traced

    def _wrap_peak(self, fn, name: str):
        tracer = self

        def traced(*args, **kwargs):
            tracer.new_group()
            idx = tracer.open(name)
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                tracer.close(idx)
                tracer.peaks[name] = max(tracer.peaks[name], peak / 2 ** 20)

        return traced

    def _wrap_save_checkpoint(self, fn):
        tracer = self

        def traced(path, *args, **kwargs):
            idx = tracer.open("training.checkpoint")
            try:
                return fn(path, *args, **kwargs)
            finally:
                tracer.close(idx)
                if os.path.exists(path):
                    tracer.last["training.checkpoint_bytes"] = os.path.getsize(path)

        return traced

    def _wrap_apply_op(self, fn):
        tracer = self

        def traced(name, out_data, inputs, backward):
            span = f"autodiff.bwd.{name}"

            def timed_backward(g):
                idx = tracer.open(span)
                try:
                    return backward(g)
                finally:
                    tracer.close(idx)

            return fn(name, out_data, inputs, timed_backward)

        return traced

    def _wrap_step(self, fn):
        tracer = self

        def traced(run, kind):
            tracer.new_group()
            tracer._kind = kind
            tracer.counts[f"steps.{kind}"] += 1
            idx = tracer.open(f"training.step.{kind}")
            try:
                return fn(run, kind)
            finally:
                tracer.close(idx)

        return traced

    def _wrap_gradients(self, fn):
        tracer = self

        def traced(tape, root, params):
            tracer.counts[f"tape_entries.{tracer._kind}"] += len(tape._entries)
            idx = tracer.open("autodiff.backward")
            try:
                return fn(tape, root, params)
            finally:
                tracer.close(idx)

        return traced

    # install / uninstall ----------------------------------------------------

    def _replace(self, owner, attr: str, wrapper) -> None:
        """Swap ``owner.attr`` and every package binding of the same object."""
        original = getattr(owner, attr)
        targets = [owner] if isinstance(owner, type) else _package_modules()
        for target in targets:
            for key, value in list(vars(target).items()):
                if value is original:
                    self._saved.append((target, key, original))
                    setattr(target, key, wrapper)

    def install(self) -> None:
        if self._saved:
            return
        for module, attr, name, new_group in FUNCTIONS:
            self._replace(module, attr, self._wrap(getattr(module, attr), name,
                                                   new_group))
        for module, attr, name in PEAK_FUNCTIONS:
            self._replace(module, attr, self._wrap_peak(getattr(module, attr), name))
        self._replace(model, "encode_and_pool",
                      self._wrap_encode_and_pool(model.encode_and_pool))
        self._replace(training, "save_checkpoint",
                      self._wrap_save_checkpoint(training.save_checkpoint))
        self._replace(autodiff, "apply_op", self._wrap_apply_op(autodiff.apply_op))
        run_cls = training._Run
        self._replace(run_cls, "_step", self._wrap_step(run_cls._step))
        self._replace(run_cls, "__init__",
                      self._wrap(run_cls.__init__, "training.data_load", False))
        tape_cls = autodiff.GradientTape
        self._replace(tape_cls, "gradients", self._wrap_gradients(tape_cls.gradients))

    def uninstall(self) -> None:
        for target, key, original in reversed(self._saved):
            setattr(target, key, original)
        self._saved.clear()

    # output -----------------------------------------------------------------

    def write(self, path: str) -> None:
        """Spans as tab-separated rows: index, name, start and end in ns
        (perf_counter), parent index (-1 for none), group."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tname\tstart_ns\tend_ns\tparent\tgroup\n")
            for i, s in enumerate(self.spans):
                fh.write(f"{i}\t{s[NAME]}\t{s[START]}\t{s[END]}\t{s[PARENT]}\t{s[GROUP]}\n")

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive ns, self ns (minus every child
        span) and ns excluding child spans of the ``model`` layer."""
        n = len(self.spans)
        child = [0] * n
        model_child = [0] * n
        for s in self.spans:
            p = s[PARENT]
            if p >= 0:
                d = s[END] - s[START]
                child[p] += d
                if s[NAME].startswith("model."):
                    model_child[p] += d
        out: dict[str, dict[str, float]] = {}
        for i, s in enumerate(self.spans):
            d = s[END] - s[START]
            t = out.setdefault(s[NAME], {"calls": 0, "ns": 0, "self_ns": 0,
                                         "no_model_ns": 0})
            t["calls"] += 1
            t["ns"] += d
            t["self_ns"] += d - child[i]
            t["no_model_ns"] += d - model_child[i]
        return out

    def _synth_ns(self) -> int:
        """Time in ``synth`` calls not made from another ``synth`` call."""
        return sum(s[END] - s[START] for s in self.spans
                   if s[NAME].startswith("synth.")
                   and (s[PARENT] < 0 or
                        not self.spans[s[PARENT]][NAME].startswith("synth.")))

    def layer_metrics(self, clamps: int) -> dict[str, tuple[float, str]]:
        """Every per-layer metric, 0 where the layer did no work."""
        tot = self.totals()

        def mean(name, key="ns", scale=1e-6):
            t = tot.get(name)
            if not t or not t["calls"]:
                return 0.0
            return t[key] / t["calls"] * scale

        steps = sum(self.counts[f"steps.{k}"] for k in STAGE_KINDS)
        batches = self.counts["model.embed_batches"]
        units = steps + batches
        m: dict[str, tuple[float, str]] = {}
        for op in OPS:
            fwd = tot.get(f"autodiff.fwd.{op}", {"calls": 0})
            m[f"autodiff.fwd_ms.{op}"] = (mean(f"autodiff.fwd.{op}", "self_ns"), "ms")
            m[f"autodiff.bwd_ms.{op}"] = (mean(f"autodiff.bwd.{op}", "self_ns"), "ms")
            m[f"autodiff.calls.{op}"] = (fwd["calls"] / units if units else 0.0,
                                         "calls")
        m["autodiff.backward_ms"] = (mean("autodiff.backward"), "ms")
        for kind in STAGE_KINDS:
            n = self.counts[f"steps.{kind}"]
            m[f"autodiff.tape_entries.{kind}"] = (
                self.counts[f"tape_entries.{kind}"] / n if n else 0.0, "entries")
        m["model.encode_ms"] = (mean("model.encode"), "ms")
        m["model.project_ms"] = (mean("model.project"), "ms")
        embed = tot.get("model.embed_texts", {"ns": 0})
        m["model.embed_batch_ms"] = (embed["ns"] / batches * 1e-6 if batches else 0.0,
                                     "ms")
        for kind in ("cmlm", "bitext", "nli"):
            m[f"losses.{kind}_ms"] = (mean(f"losses.{kind}", "no_model_ns"), "ms")
        m["masking.make_batch_ms"] = (mean("masking.make_batch"), "ms")
        m["masking.clamps"] = (float(clamps), "count")
        m["optim.step_ms"] = (mean("optim.step"), "ms")
        for kind in STAGE_KINDS:
            m[f"training.step_ms.{kind}"] = (mean(f"training.step.{kind}"), "ms")
        m["training.checkpoint_ms"] = (mean("training.checkpoint"), "ms")
        m["training.checkpoint_bytes"] = (
            float(self.last.get("training.checkpoint_bytes", 0)), "bytes")
        m["training.data_load_ms"] = (mean("training.data_load"), "ms")
        m["text.tokenize_us"] = (mean("text.tokenize", scale=1e-3), "us")
        m["text.build_vocab_ms"] = (mean("text.build_vocab"), "ms")
        m["synth.generate_ms"] = (self._synth_ns() * 1e-6, "ms")
        m["evaluation.save_ms"] = (mean("evaluation.save"), "ms")
        m["evaluation.load_ms"] = (mean("evaluation.load"), "ms")
        m["evaluation.retrieval_ms"] = (mean("evaluation.retrieval"), "ms")
        m["evaluation.retrieval_peak_mb"] = (self.peaks["evaluation.retrieval"], "MB")
        m["evaluation.pcr_ms"] = (mean("evaluation.pcr"), "ms")
        m["evaluation.bias_hist_ms"] = (mean("evaluation.bias_hist"), "ms")
        m["evaluation.bias_hist_peak_mb"] = (self.peaks["evaluation.bias_hist"], "MB")
        m["spectral.direction_ms"] = (mean("spectral.direction"), "ms")
        return m

    def largest_self_times(self, top: int = 12) -> list[tuple[str, float]]:
        """Span names by share of all self time, largest first."""
        tot = self.totals()
        selfs = {k: v["self_ns"] for k, v in tot.items()}
        whole = sum(selfs.values()) or 1
        ranked = sorted(selfs.items(), key=lambda kv: -kv[1])[:top]
        return [(name, ns / whole) for name, ns in ranked]
