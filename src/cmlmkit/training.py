"""Multistage training: masked-LM warmup, retrieval co-training, NLI finetune.

Stage schedules (``strategy``):
  cmlm_only  one stage of conditional MLM
  s1         one joint stage (MLM + retrieval from the start)
  s2         MLM stage, then a retrieval-only stage
  s3         MLM stage, then a joint stage
An optional NLI finetuning stage runs after the schedule when
``nli_steps`` > 0. Joint steps draw one monolingual batch and one bitext
batch and optimize the weighted sum of both losses. Stage transitions reset
optimizer moments but keep parameters and the global step counter; the
learning-rate schedule spans the whole plan.

Checkpoints are atomic (temp file + rename) and capture parameters, optimizer
moments, RNG states, vocabulary, and configuration, so an interrupted run
resumed from disk is bit-identical to an uninterrupted one.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import dataclass, replace

import numpy as np

from .autodiff import GradientTape, Tensor
from .errors import (ConfigMismatchError, ContractError, DataError,
                     IntegrityError, NonFiniteError, TrainingDiverged,
                     read_exact)
from .losses import (BitextBatch, NLIBatch, bitext_loss, cmlm_loss,
                     combined_loss, in_batch_retrieval_accuracy, nli_loss)
from .masking import default_num_mask, make_batch, make_pairs
from .model import EncoderConfig, encode_and_pool, init_params
from .optim import OptimizerState, optimizer_step
from .synth import NLI_LABEL_NAMES
from .text import Vocab, build_vocab, pad_token_lists, tokenize

CHECKPOINT_MAGIC = b"CMLMCKPT"
CHECKPOINT_VERSION = 1

STRATEGIES = ("cmlm_only", "s1", "s2", "s3")
_RNG_STREAMS = ("sample", "mask", "dropout", "bitext", "nli")


@dataclass
class TrainPlan:
    """Stage schedule, loss weights, optimizer settings, seeds, data paths."""

    strategy: str = "cmlm_only"
    stage1_steps: int = 2000
    stage2_steps: int = 0
    nli_steps: int = 0
    alpha: float = 0.2
    margin: float = 0.3
    batch_size: int = 32
    num_mask: int = 0  # 0 derives the budget from max_len
    variant: str = "standard"
    optimizer: str = "lamb"
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-6
    weight_decay: float = 0.0
    warmup_steps: int = 100
    seed: int = 0
    log_every: int = 1
    checkpoint_every: int = 500
    corpus_path: str = ""
    bitext_path: str = ""
    nli_path: str = ""
    out_dir: str = ""

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ContractError(
                f"strategy must be one of {STRATEGIES}, got {self.strategy!r}")
        if self.alpha < 0:
            raise ContractError("alpha must be non-negative")
        if self.strategy in ("cmlm_only", "s1"):
            if self.stage2_steps:
                raise ContractError(
                    f"{self.strategy} has a single stage; stage2_steps must be 0")
            if self.stage1_steps <= 0:
                raise ContractError("stage1_steps must be positive")
        else:
            if self.stage1_steps <= 0 or self.stage2_steps < 0:
                raise ContractError("two-stage strategies need stage1_steps > 0")

    def stages(self) -> list[tuple[str, int]]:
        table = {
            "cmlm_only": [("cmlm", self.stage1_steps)],
            "s1": [("joint", self.stage1_steps)],
            "s2": [("cmlm", self.stage1_steps), ("br", self.stage2_steps)],
            "s3": [("cmlm", self.stage1_steps), ("joint", self.stage2_steps)],
        }
        out = [(kind, n) for kind, n in table[self.strategy] if n > 0]
        if self.nli_steps > 0:
            out.append(("nli", self.nli_steps))
        return out

    def total_steps(self) -> int:
        return sum(n for _, n in self.stages())

    def needs_bitext(self) -> bool:
        return any(kind in ("joint", "br") for kind, _ in self.stages())


# ---------------------------------------------------------------------------
# Data files
# ---------------------------------------------------------------------------

def load_corpus(path: str) -> list[tuple[str, list[str]]]:
    """Documents as (language, sentences); blank lines split documents.

    Lines are either "lang<TAB>sentence" or a bare sentence (language
    defaults to "base").
    """
    docs: list[tuple[str, list[str]]] = []
    tag = "base"
    sentences: list[str] = []
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.rstrip("\n")
            if not line.strip():
                if sentences:
                    docs.append((tag, sentences))
                tag, sentences = "base", []
                continue
            if "\t" in line:
                tag, sentence = line.split("\t", 1)
            else:
                sentence = line
            sentences.append(sentence)
    if sentences:
        docs.append((tag, sentences))
    if not docs:
        raise DataError(f"corpus file {path!r} contains no documents")
    return docs


def load_bitext(path: str) -> list[tuple[str, str, str, str]]:
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for i, raw in enumerate(fh):
            line = raw.rstrip("\n")
            if not line.strip():
                continue
            parts = line.split("\t")
            if len(parts) != 4:
                raise DataError(
                    f"bitext line {i + 1} must have 4 tab-separated fields")
            rows.append(tuple(parts))
    if not rows:
        raise DataError(f"bitext file {path!r} is empty")
    return rows


def load_nli(path: str) -> list[tuple[str, str, int]]:
    label_ids = {name: i for i, name in enumerate(NLI_LABEL_NAMES)}
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for i, raw in enumerate(fh):
            line = raw.rstrip("\n")
            if not line.strip():
                continue
            parts = line.split("\t")
            if len(parts) < 3:
                raise DataError(
                    f"NLI line {i + 1} needs premise, hypothesis, and label")
            label = parts[2]
            if label not in label_ids:
                raise DataError(f"NLI line {i + 1} has unknown label {label!r}")
            rows.append((parts[0], parts[1], label_ids[label]))
    if not rows:
        raise DataError(f"NLI file {path!r} is empty")
    return rows


# ---------------------------------------------------------------------------
# Checkpoint format
# ---------------------------------------------------------------------------

_DTYPE_TAGS = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}
_TAG_DTYPES = {v: k for k, v in _DTYPE_TAGS.items()}


def _write_tensor(fh, name: str, array: np.ndarray) -> None:
    encoded = name.encode("utf-8")
    fh.write(struct.pack("<I", len(encoded)))
    fh.write(encoded)
    fh.write(struct.pack("<B", _DTYPE_TAGS[array.dtype]))
    fh.write(struct.pack("<I", array.ndim))
    fh.write(struct.pack(f"<{array.ndim}I", *array.shape))
    fh.write(np.ascontiguousarray(array, dtype=array.dtype.newbyteorder("<"))
             .tobytes())


def _read_tensor(fh) -> tuple[str, np.ndarray]:
    (name_len,) = struct.unpack("<I", read_exact(fh, 4, "checkpoint"))
    name = read_exact(fh, name_len, "checkpoint").decode("utf-8")
    (tag,) = struct.unpack("<B", read_exact(fh, 1, "checkpoint"))
    if tag not in _TAG_DTYPES:
        raise IntegrityError(f"unknown dtype tag {tag}", offset=fh.tell())
    (rank,) = struct.unpack("<I", read_exact(fh, 4, "checkpoint"))
    shape = struct.unpack(f"<{rank}I", read_exact(fh, 4 * rank, "checkpoint"))
    dtype = _TAG_DTYPES[tag]
    payload = read_exact(fh, int(np.prod(shape, dtype=np.int64)) * dtype.itemsize,
                         "checkpoint")
    return name, np.frombuffer(payload, dtype=dtype).reshape(shape).copy()


@dataclass
class CheckpointBundle:
    """Everything needed to continue a run exactly where it stopped."""

    config: EncoderConfig
    strategy: str
    step: int
    vocab: Vocab
    params: dict[str, Tensor]
    opt_state: OptimizerState
    rng_states: dict[str, dict]


def save_checkpoint(path: str, config: EncoderConfig, strategy: str,
                    step: int, vocab: Vocab, params: dict[str, Tensor],
                    opt_state: OptimizerState,
                    rng_states: dict[str, dict]) -> None:
    """Atomic write; the manifest is canonical JSON so bytes are reproducible.

    The manifest deliberately excludes data paths, so checkpoints written
    from different working directories stay byte-comparable.
    """
    manifest = {
        "config": config.to_dict(),
        "step": step,
        "strategy": strategy,
        "vocab": vocab.tokens,
        "optimizer": {
            "kind": opt_state.kind,
            "learning_rate": opt_state.learning_rate,
            "beta1": opt_state.beta1,
            "beta2": opt_state.beta2,
            "eps": opt_state.eps,
            "weight_decay": opt_state.weight_decay,
            "warmup_steps": opt_state.warmup_steps,
            "total_steps": opt_state.total_steps,
            "step": opt_state.step,
        },
        "rngs": rng_states,
    }
    blob = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode("utf-8")
    tensors: list[tuple[str, np.ndarray]] = []
    for name in sorted(params):
        tensors.append((f"param.{name}", params[name].data))
    for name in sorted(opt_state.m):
        tensors.append((f"opt.m.{name}", opt_state.m[name]))
    for name in sorted(opt_state.v):
        tensors.append((f"opt.v.{name}", opt_state.v[name]))

    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", CHECKPOINT_VERSION))
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        fh.write(struct.pack("<I", len(tensors)))
        for name, array in tensors:
            _write_tensor(fh, name, array)
    os.replace(tmp, path)


def load_checkpoint(path: str,
                    expect_config: EncoderConfig | None = None) -> CheckpointBundle:
    with open(path, "rb") as fh:
        magic = fh.read(len(CHECKPOINT_MAGIC))
        if magic != CHECKPOINT_MAGIC:
            raise IntegrityError("bad checkpoint magic", offset=0)
        (version,) = struct.unpack("<I", read_exact(fh, 4, "checkpoint"))
        if version != CHECKPOINT_VERSION:
            raise IntegrityError(f"unsupported checkpoint version {version}",
                                 offset=len(CHECKPOINT_MAGIC))
        (manifest_len,) = struct.unpack("<I", read_exact(fh, 4, "checkpoint"))
        try:
            manifest = json.loads(
                read_exact(fh, manifest_len, "checkpoint").decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise IntegrityError(f"corrupt manifest: {exc}",
                                 offset=fh.tell()) from exc
        (tensor_count,) = struct.unpack("<I", read_exact(fh, 4, "checkpoint"))
        arrays: dict[str, np.ndarray] = {}
        for _ in range(tensor_count):
            name, array = _read_tensor(fh)
            arrays[name] = array

    config = EncoderConfig.from_dict(manifest["config"])
    if expect_config is not None and config != expect_config:
        raise ConfigMismatchError(
            f"checkpoint config {config} does not match expected {expect_config}")

    params = {name[len("param."):]: Tensor(array, requires_grad=True)
              for name, array in arrays.items() if name.startswith("param.")}
    opt_info = manifest["optimizer"]
    opt_state = OptimizerState(
        kind=opt_info["kind"], learning_rate=opt_info["learning_rate"],
        beta1=opt_info["beta1"], beta2=opt_info["beta2"], eps=opt_info["eps"],
        weight_decay=opt_info["weight_decay"],
        warmup_steps=opt_info["warmup_steps"],
        total_steps=opt_info["total_steps"], step=opt_info["step"],
        m={name[len("opt.m."):]: arr for name, arr in arrays.items()
           if name.startswith("opt.m.")},
        v={name[len("opt.v."):]: arr for name, arr in arrays.items()
           if name.startswith("opt.v.")},
    )
    return CheckpointBundle(
        config=config, strategy=manifest["strategy"], step=manifest["step"],
        vocab=Vocab(manifest["vocab"]), params=params, opt_state=opt_state,
        rng_states=manifest["rngs"],
    )


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------

class _Run:
    def __init__(self, config: EncoderConfig, plan: TrainPlan):
        if not plan.corpus_path or not os.path.exists(plan.corpus_path):
            raise DataError(f"corpus path {plan.corpus_path!r} does not exist")
        if plan.needs_bitext() and (not plan.bitext_path or
                                    not os.path.exists(plan.bitext_path)):
            raise DataError(f"bitext path {plan.bitext_path!r} does not exist")
        if plan.nli_steps > 0 and (not plan.nli_path or
                                   not os.path.exists(plan.nli_path)):
            raise DataError(f"NLI path {plan.nli_path!r} does not exist")
        self.plan = plan
        self.docs = load_corpus(plan.corpus_path)
        lines = [s for _, sentences in self.docs for s in sentences]
        self.vocab = build_vocab(lines, target_size=config.vocab_size)
        self.config = replace(config, vocab_size=self.vocab.size)
        self.num_mask = plan.num_mask or default_num_mask(self.config.max_len)

        seq = np.random.SeedSequence(plan.seed)
        children = seq.spawn(2 + len(_RNG_STREAMS))
        pool_rng = np.random.default_rng(children[0])
        self.init_rng = np.random.default_rng(children[1])
        self.rngs = {name: np.random.default_rng(children[2 + i])
                     for i, name in enumerate(_RNG_STREAMS)}

        add_cls = self.config.pooling == "cls"
        self.pairs = []
        for tag, sentences in self.docs:
            self.pairs.extend(make_pairs(sentences, self.vocab, pool_rng,
                                         self.config.max_len, language_tag=tag,
                                         add_cls=add_cls))
        if not self.pairs:
            raise DataError("corpus yielded no adjacent sentence pairs")

        self.bitext: list[tuple[list[int], list[int]]] = []
        if plan.needs_bitext():
            for src, tgt, _, _ in load_bitext(plan.bitext_path):
                s = tokenize(src, self.vocab)[:self.config.max_len]
                t = tokenize(tgt, self.vocab)[:self.config.max_len]
                if s and t:
                    self.bitext.append((s, t))
            if len(self.bitext) < 2:
                raise DataError("bitext file yielded fewer than 2 usable pairs")

        self.nli: list[tuple[list[int], list[int], int]] = []
        if plan.nli_steps > 0:
            for premise, hypo, label in load_nli(plan.nli_path):
                p = tokenize(premise, self.vocab)[:self.config.max_len]
                h = tokenize(hypo, self.vocab)[:self.config.max_len]
                if p and h:
                    self.nli.append((p, h, label))
            if not self.nli:
                raise DataError("NLI file yielded no usable rows")

    # batch builders -------------------------------------------------------

    def _sample(self, stream: str, pool: list) -> list:
        """``batch_size`` items of ``pool`` drawn on the named RNG stream,
        with replacement only when the pool is smaller than a batch."""
        size = self.plan.batch_size
        idx = self.rngs[stream].choice(len(pool), size=size,
                                       replace=len(pool) < size)
        return [pool[i] for i in idx]

    def _pooled(self, token_lists, dropout_rng) -> Tensor:
        ids, mask = pad_token_lists(token_lists)
        return encode_and_pool(ids, mask, self.params, self.config,
                               dropout_rng=dropout_rng)

    def _draw_cmlm_batch(self):
        return make_batch(self._sample("sample", self.pairs), self.vocab,
                          self.num_mask, self.rngs["mask"])

    def _draw_bitext_vectors(self, dropout_rng):
        rows = self._sample("bitext", self.bitext)
        src = self._pooled([s for s, _ in rows], dropout_rng)
        tgt = self._pooled([t for _, t in rows], dropout_rng)
        return src, tgt

    def _draw_nli_batch(self, dropout_rng):
        rows = self._sample("nli", self.nli)
        premise = self._pooled([p for p, _, _ in rows], dropout_rng)
        hypothesis = self._pooled([h for _, h, _ in rows], dropout_rng)
        labels = np.array([label for _, _, label in rows], dtype=np.int64)
        return NLIBatch(premise, hypothesis, labels)

    # single step ----------------------------------------------------------

    def _step(self, kind: str) -> dict:
        plan = self.plan
        dropout_rng = self.rngs["dropout"] if self.config.dropout > 0 else None
        record: dict = {"step": self.step, "stage": kind}
        with GradientTape() as tape:
            if kind == "cmlm":
                loss, acc = cmlm_loss(self._draw_cmlm_batch(), self.params,
                                      self.config, variant=plan.variant,
                                      dropout_rng=dropout_rng)
                record.update(cmlm_loss=loss.item(), masked_acc=acc)
            elif kind == "br":
                src, tgt = self._draw_bitext_vectors(dropout_rng)
                loss = bitext_loss(BitextBatch(src, tgt, plan.margin))
                record.update(br_loss=loss.item(),
                              retrieval_acc=in_batch_retrieval_accuracy(
                                  src.data, tgt.data))
            elif kind == "joint":
                l_cmlm, acc = cmlm_loss(self._draw_cmlm_batch(), self.params,
                                        self.config, variant=plan.variant,
                                        dropout_rng=dropout_rng)
                src, tgt = self._draw_bitext_vectors(dropout_rng)
                l_br = bitext_loss(BitextBatch(src, tgt, plan.margin))
                loss = combined_loss(l_cmlm, l_br, plan.alpha)
                record.update(cmlm_loss=l_cmlm.item(), masked_acc=acc,
                              br_loss=l_br.item(),
                              retrieval_acc=in_batch_retrieval_accuracy(
                                  src.data, tgt.data))
            elif kind == "nli":
                loss, acc = nli_loss(self._draw_nli_batch(dropout_rng),
                                     self.params)
                record.update(nli_loss=loss.item(), nli_acc=acc)
            else:  # pragma: no cover
                raise ContractError(f"unknown stage kind {kind!r}")
            grads = tape.gradients(loss, self.params)
        record["loss"] = loss.item()
        record["lr"] = self.opt_state.effective_lr()
        optimizer_step(self.params, grads, self.opt_state)
        return record


def run_plan(config: EncoderConfig, plan: TrainPlan,
             init: dict[str, Tensor] | None = None,
             resume: CheckpointBundle | str | None = None
             ) -> tuple[dict[str, Tensor], list[dict], "_RunHandles"]:
    """Execute the plan; returns (params, per-step history, handles).

    ``init`` warm-starts from existing parameters (fresh optimizer and step
    counter); ``resume`` continues a checkpointed run exactly, including RNG
    streams and the step counter. Deterministic given the seed in
    single-threaded mode.
    """
    run = _Run(config, plan)
    total = plan.total_steps()

    if resume is not None:
        bundle = load_checkpoint(resume, expect_config=run.config) \
            if isinstance(resume, str) else resume
        if isinstance(resume, CheckpointBundle) and bundle.config != run.config:
            raise ConfigMismatchError(
                f"checkpoint config {bundle.config} does not match {run.config}")
        run.params = bundle.params
        run.opt_state = bundle.opt_state
        run.step = bundle.step
        for name, state in bundle.rng_states.items():
            run.rngs[name].bit_generator.state = state
    else:
        if init is not None:
            reference = init_params(run.config, np.random.default_rng(0))
            missing = sorted(set(reference) - set(init))
            if missing:
                raise ConfigMismatchError(
                    f"warm-start parameters missing {missing}")
            for name in reference:
                if init[name].data.shape != reference[name].data.shape:
                    raise ConfigMismatchError(
                        f"warm-start parameter {name!r} has shape "
                        f"{init[name].data.shape}, expected "
                        f"{reference[name].data.shape}")
            run.params = {name: Tensor(init[name].data.copy(), requires_grad=True)
                          for name in reference}
        else:
            run.params = init_params(run.config, run.init_rng)
        run.opt_state = OptimizerState(
            kind=plan.optimizer, learning_rate=plan.learning_rate,
            beta1=plan.beta1, beta2=plan.beta2, eps=plan.eps,
            weight_decay=plan.weight_decay, warmup_steps=plan.warmup_steps,
            total_steps=total)
        run.step = 0

    out_dir = plan.out_dir
    ckpt_path = os.path.join(out_dir, "checkpoint.ckpt") if out_dir else None
    metrics_path = os.path.join(out_dir, "metrics.jsonl") if out_dir else None
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)

    def checkpoint():
        if ckpt_path:
            save_checkpoint(
                ckpt_path, run.config, plan.strategy, run.step, run.vocab,
                run.params, run.opt_state,
                {name: rng.bit_generator.state for name, rng in run.rngs.items()})

    metrics_fh = open(metrics_path, "w", encoding="utf-8") if metrics_path else None
    history: list[dict] = []
    checkpoint()
    try:
        boundaries = []
        start = 0
        for kind, n in plan.stages():
            boundaries.append((kind, start, start + n))
            start += n
        for kind, lo, hi in boundaries:
            if run.step >= hi:
                continue
            if run.step == lo and run.step > 0:
                run.opt_state.reset_moments()
            while run.step < hi:
                try:
                    record = run._step(kind)
                except NonFiniteError as exc:
                    if metrics_fh:
                        metrics_fh.close()
                    raise TrainingDiverged(str(exc),
                                           last_checkpoint=ckpt_path) from exc
                history.append(record)
                run.step += 1
                if metrics_fh and (run.step % plan.log_every == 0
                                   or run.step == total):
                    metrics_fh.write(json.dumps(record, sort_keys=True) + "\n")
                if ckpt_path and run.step % plan.checkpoint_every == 0:
                    checkpoint()
        checkpoint()
    finally:
        if metrics_fh:
            metrics_fh.close()
    return run.params, history, _RunHandles(run.config, run.vocab,
                                            ckpt_path, metrics_path)


@dataclass
class _RunHandles:
    """Ancillary results of a run (final config, vocab, output paths)."""

    config: EncoderConfig
    vocab: Vocab
    checkpoint_path: str | None
    metrics_path: str | None
