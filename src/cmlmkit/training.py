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

Checkpoints are ``records`` files (version 2; version 1 is refused): a
canonical-JSON ``manifest`` (config, vocabulary, optimizer, RNG states),
then one section per parameter and optimizer moment. So an interrupted run
resumed from disk is bit-identical to an uninterrupted one.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, fields, replace
from typing import get_type_hints

import numpy as np

from . import records
from .autodiff import GradientTape, Tensor
from .errors import (ConfigMismatchError, ContractError, DataError,
                     IntegrityError, NonFiniteError, TrainingDiverged)
from .evaluation import in_batch_retrieval_accuracy
from .losses import (CMLM_VARIANTS, BitextBatch, NLIBatch, bitext_loss,
                     cmlm_loss, combined_loss, nli_loss)
from .masking import default_num_mask, make_batch, make_pairs
from .model import EncoderConfig, encode_and_pool, init_params, param_specs
from .optim import OptimizerState, optimizer_step
from .synth import NLI_LABEL_NAMES
from .text import (Vocab, build_vocab, normalize, pad_token_lists, read_lines,
                   tokenize)

CHECKPOINT_MAGIC = b"CMLMCKPT"
CHECKPOINT_VERSION = 2

STRATEGIES = ("cmlm_only", "s1", "s2", "s3")
_RNG_STREAMS = ("sample", "mask", "dropout", "bitext", "nli")
# the least value a plan setting may take; the stage step counts are checked
# per strategy, the optimizer settings by ``OptimizerState``
_PLAN_FLOORS = {"alpha": 0, "margin": 0, "batch_size": 1, "log_every": 1,
                "checkpoint_every": 1, "num_mask": 0, "nli_steps": 0}


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
        if self.variant not in CMLM_VARIANTS:
            raise ContractError(
                f"variant must be one of {CMLM_VARIANTS}, got {self.variant!r}")
        for name, floor in _PLAN_FLOORS.items():
            if not floor <= getattr(self, name) < math.inf:  # NaN fails too
                raise ContractError(f"{name} must be >= {floor} and finite, "
                                    f"got {getattr(self, name)}")
        if self.strategy in ("cmlm_only", "s1"):
            if self.stage2_steps:
                raise ContractError(
                    f"{self.strategy} has a single stage; stage2_steps must be 0")
            if self.stage1_steps <= 0:
                raise ContractError("stage1_steps must be positive")
        else:
            if self.stage1_steps <= 0 or self.stage2_steps < 0:
                raise ContractError("two-stage strategies need stage1_steps > 0")
        if self.needs_bitext() and self.batch_size < 2:
            raise ContractError(f"batch_size must be >= 2 for in-batch negatives "
                                f"of the bitext loss, got {self.batch_size}")
        self.optimizer_state()

    def optimizer_state(self) -> OptimizerState:
        """A fresh optimizer state with this plan's settings; its schedule
        spans every stage."""
        return OptimizerState(
            kind=self.optimizer, learning_rate=self.learning_rate,
            beta1=self.beta1, beta2=self.beta2, eps=self.eps,
            weight_decay=self.weight_decay, warmup_steps=self.warmup_steps,
            total_steps=self.total_steps())

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
    # a blank line after the last one closes the final document
    for line in [*read_lines(path, "corpus file"), ""]:
        if not line.strip():
            if sentences:
                docs.append((tag, sentences))
            tag, sentences = "base", []
            continue
        if "\t" in line:
            tag, line = line.split("\t", 1)
        sentences.append(line)
    if not docs:
        raise DataError(f"corpus file {path!r} contains no documents")
    return docs


def _tab_rows(path: str, what: str):
    """Yield (line number, tab-separated fields) for each non-blank line of
    the ``what`` file at ``path``, which must have one."""
    lines = read_lines(path, f"{what} file")
    if not any(line.strip() for line in lines):
        raise DataError(f"{what} file {path!r} is empty")
    for i, line in enumerate(lines, start=1):
        if line.strip():
            yield i, line.split("\t")


def _require_words(path: str, what: str, i: int, left: str, right: str) -> None:
    """Refuse a pair with a side that tokenizes to nothing."""
    if not normalize(left).split() or not normalize(right).split():
        raise _bad_row(path, what, i, "has a sentence with no word")


def _bad_row(path: str, what: str, i: int, problem: str) -> DataError:
    return DataError(f"{what} file {path!r} line {i} {problem}")


def load_bitext(path: str) -> list[tuple[str, str, str, str]]:
    rows = []
    for i, parts in _tab_rows(path, "bitext"):
        if len(parts) != 4:
            raise _bad_row(path, "bitext", i, "must have 4 tab-separated fields")
        _require_words(path, "bitext", i, parts[0], parts[1])
        rows.append(tuple(parts))
    return rows


def load_nli(path: str) -> list[tuple[str, str, int]]:
    label_ids = {name: i for i, name in enumerate(NLI_LABEL_NAMES)}
    rows = []
    for i, parts in _tab_rows(path, "NLI"):
        if len(parts) not in (3, 5):
            raise _bad_row(path, "NLI", i, "must have 3 or 5 tab-separated fields")
        if parts[2] not in label_ids:
            raise _bad_row(path, "NLI", i, f"has unknown label {parts[2]!r}")
        _require_words(path, "NLI", i, parts[0], parts[1])
        rows.append((parts[0], parts[1], label_ids[parts[2]]))
    return rows


# ---------------------------------------------------------------------------
# Checkpoint format
# ---------------------------------------------------------------------------

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
        "optimizer": {key: getattr(opt_state, key) for key in _OPTIMIZER_TYPES},
        "rngs": rng_states,
    }
    blob = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode("utf-8")
    sections = [("manifest", np.frombuffer(blob, dtype=np.uint8))]
    sections += [(f"param.{name}", params[name].data) for name in sorted(params)]
    sections += [(f"opt.m.{name}", opt_state.m[name]) for name in sorted(opt_state.m)]
    sections += [(f"opt.v.{name}", opt_state.v[name]) for name in sorted(opt_state.v)]
    records.write(path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, sections)


def load_checkpoint(path: str) -> CheckpointBundle:
    sections = records.read(path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION,
                            "checkpoint")
    blob, at = sections.pop("manifest", (np.empty(0, np.uint8), None))
    try:
        manifest = json.loads(blob.tobytes().decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise IntegrityError(f"corrupt manifest: {exc}", offset=at) from exc
    arrays = {name: array for name, (array, _) in sections.items()}
    config, settings = _parse_manifest(manifest)
    _check_tensors_fit(arrays, config)

    groups = {prefix: {name[len(prefix):]: array for name, array in arrays.items()
                       if name.startswith(prefix)} for prefix in _TENSOR_PREFIXES}
    params = {name: Tensor(array, requires_grad=True)
              for name, array in groups["param."].items()}
    opt_state = replace(settings, m=groups["opt.m."], v=groups["opt.v."])
    return CheckpointBundle(
        config=config, strategy=manifest["strategy"], step=manifest["step"],
        vocab=Vocab(manifest["vocab"]), params=params, opt_state=opt_state,
        rng_states=manifest["rngs"],
    )


_MANIFEST_TYPES = {"config": dict, "step": int, "strategy": str, "vocab": list,
                   "optimizer": dict, "rngs": dict}
# the optimizer's scalar settings; its moments are tensor sections
_OPTIMIZER_HINTS = get_type_hints(OptimizerState)
_OPTIMIZER_TYPES = {f.name: _OPTIMIZER_HINTS[f.name] for f in fields(OptimizerState)
                    if _OPTIMIZER_HINTS[f.name] in (str, int, float)}


def _check_section(section: dict, types: dict[str, type], where: str) -> None:
    """``section`` has exactly the keys of ``types``, each of its type (an
    int passes for a float); ``IntegrityError`` names the first bad key."""
    for key in section:
        if key not in types:
            raise IntegrityError(f"checkpoint manifest has unknown key '{where}{key}'")
    for key, kind in types.items():
        if key not in section:
            raise IntegrityError(f"checkpoint manifest lacks '{where}{key}'")
        value = section[key]
        accepted = (int, float) if kind is float else kind
        if isinstance(value, bool) or not isinstance(value, accepted):
            raise IntegrityError(f"checkpoint manifest key '{where}{key}' must "
                                 f"be of type {kind.__name__}, got {value!r}")


def _parse_manifest(manifest) -> tuple[EncoderConfig, OptimizerState]:
    """Check every key of a checkpoint manifest; return its config and its
    optimizer settings (without moments). Anything missing, unknown,
    ill-typed or rejected by ``EncoderConfig`` or ``OptimizerState`` is an
    ``IntegrityError`` naming the key."""
    if not isinstance(manifest, dict):
        raise IntegrityError("checkpoint manifest is not a JSON object")
    _check_section(manifest, _MANIFEST_TYPES, "")
    _check_section(manifest["config"], get_type_hints(EncoderConfig), "config.")
    _check_section(manifest["optimizer"], _OPTIMIZER_TYPES, "optimizer.")
    if manifest["strategy"] not in STRATEGIES:
        raise IntegrityError(f"checkpoint manifest key 'strategy' must be one "
                             f"of {STRATEGIES}, got {manifest['strategy']!r}")
    if not all(isinstance(token, str) for token in manifest["vocab"]):
        raise IntegrityError("checkpoint manifest key 'vocab' must list strings")
    for name, state in manifest["rngs"].items():  # a stream left out keeps its seed
        if name not in _RNG_STREAMS:
            raise IntegrityError(f"checkpoint manifest has unknown key 'rngs.{name}'")
        try:
            np.random.PCG64(0).state = state
        except (TypeError, ValueError, KeyError, OverflowError) as exc:
            raise IntegrityError(
                f"checkpoint manifest key 'rngs.{name}' is not a PCG64 state: "
                f"{exc!r}") from exc
    try:
        config = EncoderConfig(**manifest["config"])
    except ContractError as exc:
        raise IntegrityError(f"checkpoint manifest 'config': {exc}") from exc
    try:
        settings = OptimizerState(**manifest["optimizer"])
    except ContractError as exc:
        raise IntegrityError(f"checkpoint manifest 'optimizer': {exc}") from exc
    if len(manifest["vocab"]) > config.vocab_size:
        raise IntegrityError(
            f"checkpoint manifest key 'vocab' has {len(manifest['vocab'])} tokens, "
            f"more than 'config.vocab_size' {config.vocab_size}")
    return config, settings


_TENSOR_PREFIXES = ("param.", "opt.m.", "opt.v.")


def _check_tensors_fit(arrays: dict[str, np.ndarray],
                       config: EncoderConfig) -> None:
    """Every parameter of ``config`` is present with its shape, and every
    other tensor is a moment of one of them with the same shape."""
    shapes = {name: shape for name, (shape, _) in param_specs(config).items()}
    for name in shapes:
        if f"param.{name}" not in arrays:
            raise IntegrityError(f"checkpoint lacks parameter {name!r}")
    for key, array in arrays.items():
        prefix = next((p for p in _TENSOR_PREFIXES if key.startswith(p)), "")
        name = key[len(prefix):] if prefix else None
        if name not in shapes:
            raise IntegrityError(
                f"checkpoint tensor {key!r} is not part of this config")
        if array.shape != shapes[name]:
            raise IntegrityError(
                f"checkpoint tensor {key!r} has shape {array.shape}, the "
                f"config needs {shapes[name]}")


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

        self.pairs = []
        for _, sentences in self.docs:
            self.pairs.extend(make_pairs(sentences, self.vocab, pool_rng,
                                         self.config.max_len))
        if not self.pairs:
            raise DataError("corpus yielded no adjacent sentence pairs")

        self.bitext: list[tuple[list[int], list[int]]] = []
        if plan.needs_bitext():
            self.bitext = self._token_pairs(
                (src, tgt) for src, tgt, _, _ in load_bitext(plan.bitext_path))
            if len(self.bitext) < 2:
                raise DataError("bitext file holds fewer than 2 pairs")

        self.nli: list[tuple[list[int], list[int], int]] = []
        if plan.nli_steps > 0:
            self.nli = self._token_pairs(load_nli(plan.nli_path))

    def _token_pairs(self, rows) -> list[tuple]:
        """Each (left, right, *rest) row with both sides tokenized and cut to
        ``max_len``; the loaders refuse a side with no word."""
        n = self.config.max_len
        return [(tokenize(left, self.vocab)[:n], tokenize(right, self.vocab)[:n],
                 *rest) for left, right, *rest in rows]

    # batch builders -------------------------------------------------------

    def _sample(self, stream: str, pool: list) -> list:
        """``batch_size`` items of ``pool`` drawn on the named RNG stream,
        with replacement only when the pool is smaller than a batch."""
        size = self.plan.batch_size
        idx = self.rngs[stream].choice(len(pool), size=size,
                                       replace=len(pool) < size)
        return [pool[i] for i in idx]

    def _draw_cmlm_batch(self):
        return make_batch(self._sample("sample", self.pairs), self.vocab,
                          self.num_mask, self.rngs["mask"])

    def _draw_pairs(self, stream: str, rows: list,
                    dropout_rng) -> tuple[list, Tensor, Tensor]:
        """(drawn rows, pooled left sides, pooled right sides) of a batch of
        ``rows`` drawn on the named stream; the left sides encode first."""
        drawn = self._sample(stream, rows)
        left, right = [
            encode_and_pool(*pad_token_lists([row[side] for row in drawn]),
                            self.params, self.config, dropout_rng=dropout_rng)
            for side in (0, 1)]
        return drawn, left, right

    # single step ----------------------------------------------------------

    def _step(self, kind: str) -> dict:
        plan = self.plan
        dropout_rng = self.rngs["dropout"] if self.config.dropout > 0 else None
        record: dict = {"step": self.step, "stage": kind}
        with GradientTape() as tape:
            # a joint step draws its cmlm batch before its bitext batch; that
            # order fixes which batches a seed gives
            if kind in ("cmlm", "joint"):
                loss, acc = cmlm_loss(self._draw_cmlm_batch(), self.params,
                                      self.config, variant=plan.variant,
                                      dropout_rng=dropout_rng)
                record.update(cmlm_loss=loss.item(), masked_acc=acc)
            if kind in ("br", "joint"):
                _, src, tgt = self._draw_pairs("bitext", self.bitext,
                                               dropout_rng)
                l_br = bitext_loss(BitextBatch(src, tgt, plan.margin))
                record.update(br_loss=l_br.item(),
                              retrieval_acc=in_batch_retrieval_accuracy(
                                  src.data, tgt.data))
                loss = (combined_loss(loss, l_br, plan.alpha)
                        if kind == "joint" else l_br)
            if kind == "nli":
                rows, premise, hypothesis = self._draw_pairs("nli", self.nli,
                                                             dropout_rng)
                labels = np.array([label for _, _, label in rows], dtype=np.int64)
                loss, acc = nli_loss(NLIBatch(premise, hypothesis, labels),
                                     self.params)
                record.update(nli_loss=loss.item(), nli_acc=acc)
            grads = tape.gradients(loss, self.params)
        record["loss"] = loss.item()
        record["lr"] = self.opt_state.effective_lr()
        optimizer_step(self.params, grads, self.opt_state)
        return record


def run_plan(config: EncoderConfig, plan: TrainPlan,
             resume: CheckpointBundle | str | None = None
             ) -> tuple[dict[str, Tensor], list[dict], "_RunHandles"]:
    """Execute the plan; returns (params, per-step history, handles).

    ``resume`` continues a checkpointed run exactly, including RNG streams,
    the step counter and the metrics log, and refuses a checkpoint whose
    strategy or optimizer schedule differs from the plan's. Deterministic
    given the seed in single-threaded mode.
    """
    run = _Run(config, plan)
    total = plan.total_steps()
    opt_state = plan.optimizer_state()

    if resume is not None:
        bundle = load_checkpoint(resume) if isinstance(resume, str) else resume
        if bundle.config != run.config:
            raise ConfigMismatchError(
                f"checkpoint config {bundle.config} does not match {run.config}")
        _check_resume_schedule(bundle, plan.strategy, opt_state)
        run.params = bundle.params
        run.opt_state = bundle.opt_state
        run.step = bundle.step
        for name, state in bundle.rng_states.items():
            run.rngs[name].bit_generator.state = state
    else:
        run.params = init_params(run.config, run.init_rng)
        run.opt_state = opt_state
        run.step = 0

    out_dir = plan.out_dir
    ckpt_path = os.path.join(out_dir, "checkpoint.ckpt") if out_dir else None
    metrics_path = os.path.join(out_dir, "metrics.jsonl") if out_dir else None
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)

    def checkpoint():
        if ckpt_path:
            # the log on disk holds every record the checkpoint has seen
            metrics_fh.flush()
            save_checkpoint(
                ckpt_path, run.config, plan.strategy, run.step, run.vocab,
                run.params, run.opt_state,
                {name: rng.bit_generator.state for name, rng in run.rngs.items()})

    metrics_fh = None
    if metrics_path:
        # a resumed run keeps the records logged before its checkpoint; they
        # replace the log whole, so a kill leaves the old log or the new one
        kept = _records_before(metrics_path, run.step) if resume is not None else ""
        with open(metrics_path + ".tmp", "w", encoding="utf-8") as fh:
            fh.write(kept)
        os.replace(metrics_path + ".tmp", metrics_path)
        metrics_fh = open(metrics_path, "a", encoding="utf-8")
    history: list[dict] = []
    checkpoint()
    try:
        hi = 0
        for kind, n in plan.stages():
            lo, hi = hi, hi + n
            if run.step >= hi:
                continue
            if run.step == lo and run.step > 0:
                run.opt_state.reset_moments()
            while run.step < hi:
                try:
                    record = run._step(kind)
                except NonFiniteError as exc:
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


def _check_resume_schedule(bundle: CheckpointBundle, strategy: str,
                           planned: OptimizerState) -> None:
    """Refuse a checkpoint written under a different schedule or optimizer;
    the error names the first differing plan key."""
    saved = bundle.opt_state
    pairs = {"strategy": (bundle.strategy, strategy),
             "optimizer": (saved.kind, planned.kind)}
    for key in _OPTIMIZER_TYPES:
        if key not in ("kind", "step"):  # kind is "optimizer"; step is progress
            pairs[key] = (getattr(saved, key), getattr(planned, key))
    for key, (found, expected) in pairs.items():
        if found != expected:
            raise ConfigMismatchError(
                f"checkpoint {key} is {found!r} but the plan's is {expected!r}")


def _records_before(path: str, step: int) -> str:
    """The complete lines of a metrics log whose records precede ``step``."""
    if not os.path.exists(path):
        return ""
    kept = []
    for line in read_lines(path, "metrics log")[:-1]:
        try:
            if json.loads(line)["step"] >= step:
                break
        except (ValueError, KeyError, TypeError) as exc:
            raise DataError(f"unreadable metrics record in {path!r}: {exc}") from exc
        kept.append(line + "\n")
    return "".join(kept)


@dataclass
class _RunHandles:
    """Ancillary results of a run (final config, vocab, output paths)."""

    config: EncoderConfig
    vocab: Vocab
    checkpoint_path: str | None
    metrics_path: str | None
