"""The three benchmark workloads: inputs, one timed round, and its checks.

Constructing a workload is its set-up: it makes the inputs from the seed
(and, for ``embed-eval``, the vocabulary and a checkpoint round trip).
``run_round`` then does one whole round of the workload's operations and
returns its timings and outputs; ``check`` checks those outputs after the
round, outside its timing. Every round of one run does the same operations
on the same inputs.

The program is reached only through module attributes (``synth.generate``,
``training.run_plan``, ...), never through names bound at import time, so
the tracer in ``spans.py`` sees every call the workloads make.
"""

from __future__ import annotations

import os
import shutil
import time
from dataclasses import dataclass, field

import numpy as np

from cmlmkit import evaluation, model, optim, synth, text, training

import checks

WORKLOADS = ("train-short", "train-long", "embed-eval")

# Training workloads ---------------------------------------------------------
#
# train-short is the README's desk data and config (3 cipher languages, 24
# words each, 4-word sentences, mask count 4, LAMB) on the s3 strategy plus
# an NLI stage, so cmlm, joint and nli steps all run. Masked sequences are
# 4 tokens plus 15 prefix views, so per-op overhead dominates.
#
# train-long uses 40-word sentences at max_len 64, a larger vocabulary and
# the default mask budget (20 of 64) on the s2 strategy (cmlm then br
# steps), so attention, matmul, gelu and the gather backward dominate.
# Every word of both vocabularies fits in the vocabulary, so sequence
# lengths do not depend on the seed.
#
# Both plans are short, so both use a larger learning rate than the
# README's 3e-3: the CMLM loss then falls over the first stage by several
# times its step-to-step noise on every seed, which the checks require. The
# learning rate does not change the work done per step.

TRAIN_SPECS = {
    "train-short": dict(
        synth=dict(n_languages=3, words_per_language=24, sentence_len=4,
                   n_docs=2000, n_bitext=2000, n_heldout=64, n_nli=900),
        encoder=dict(vocab_size=256),
        plan=dict(strategy="s3", stage1_steps=40, stage2_steps=20,
                  nli_steps=16, num_mask=4, learning_rate=1e-2,
                  warmup_steps=8),
    ),
    "train-long": dict(
        synth=dict(n_languages=3, words_per_language=80, sentence_len=40,
                   n_docs=600, n_bitext=600, n_heldout=8, n_nli=3),
        encoder=dict(vocab_size=512, max_len=64),
        plan=dict(strategy="s2", stage1_steps=16, stage2_steps=8,
                  learning_rate=3e-2, warmup_steps=4),
    ),
}

# embed-eval -------------------------------------------------------------------
#
# Forward-only encoding with a seeded, untrained encoder: encoding cost
# depends on shapes, not on weight values, and an untrained encoder needs no
# minutes of training in set-up. Every source sentence is present in all
# three languages, so retrieval has exact gold translations.

EMBED_LANGUAGES = 3
EMBED_WORDS = 48
EMBED_SENTENCE_LEN = 8
EMBED_SOURCES = 7000          # pool = 3 x 7000 = 21,000 sentences
RETRIEVAL_QUERIES = 2000      # l0 queries against all l1 candidates
BIAS_QUERIES = 2000           # drawn from the pool
BIAS_K = 10
EMBED_CHECK_SAMPLE = 16       # one-at-a-time rows compared with batched rows
HIST_CHECK_SAMPLE = 48        # queries re-counted by brute force


@dataclass
class RoundResult:
    seconds: float                      # wall time of the whole round
    main_seconds: float                 # run_plan, or embed_texts
    items: int                          # steps, or sentences embedded
    attempted: int
    parts: dict = field(default_factory=dict)    # named timings, seconds
    values: dict = field(default_factory=dict)   # named results, not times
    outputs: dict = field(default_factory=dict)  # what ``check`` examines


class TrainWorkload:
    def __init__(self, name: str, seed: int, out_dir: str):
        spec = TRAIN_SPECS[name]
        paths = synth.generate(os.path.join(out_dir, "data"), seed,
                               synth.SynthSpec(**spec["synth"]))
        self.config = model.EncoderConfig(**spec["encoder"])
        self.plan = training.TrainPlan(
            corpus_path=paths["corpus"], bitext_path=paths["bitext"],
            nli_path=paths["nli"] if spec["plan"].get("nli_steps") else "",
            out_dir=os.path.join(out_dir, "run"), seed=seed,
            checkpoint_every=10 ** 9, **spec["plan"])

    def run_round(self) -> RoundResult:
        shutil.rmtree(self.plan.out_dir, ignore_errors=True)
        t0 = time.perf_counter()
        params, history, handles = training.run_plan(self.config, self.plan)
        seconds = time.perf_counter() - t0
        return RoundResult(
            seconds=seconds, main_seconds=seconds, items=len(history),
            attempted=self.operations_per_round(),
            values={"cmlm_loss_final": checks.cmlm_loss_final(history)},
            outputs={"history": history, "params": params,
                     "checkpoint": handles.checkpoint_path})

    def operations_per_round(self) -> int:
        """One operation per training step."""
        return self.plan.total_steps()

    def check(self, result: RoundResult) -> list[str]:
        out = result.outputs
        return checks.check_training(self.plan, out["history"], out["params"],
                                     out["checkpoint"])

    def report(self, rounds: list[RoundResult]) -> list[tuple[str, float, str]]:
        med = _median
        return [
            ("train_steps_per_s",
             med([r.items / r.main_seconds for r in rounds]), "steps/s"),
            ("cmlm_loss_final", med([r.values["cmlm_loss_final"] for r in rounds]),
             "nats"),
        ]


class EmbedEvalWorkload:
    def __init__(self, seed: int, out_dir: str):
        self.out_dir = out_dir
        os.makedirs(out_dir, exist_ok=True)
        rng = np.random.default_rng(seed)
        languages = synth.make_languages(rng, EMBED_LANGUAGES, EMBED_WORDS)
        tags = sorted(languages)
        sources: list[str] = []
        seen: set[str] = set()
        base = languages[tags[0]]
        while len(sources) < EMBED_SOURCES:
            s = " ".join(base[int(i)] for i in
                         rng.integers(0, len(base), size=EMBED_SENTENCE_LEN))
            if s not in seen:
                seen.add(s)
                sources.append(s)
        # row = lang_index * EMBED_SOURCES + source index
        self.texts: list[str] = []
        self.languages: list[str] = []
        self.ids: list[str] = []
        for tag in tags:
            for i, s in enumerate(sources):
                self.texts.append(synth.translate(s, base, languages[tag]))
                self.languages.append(tag)
                self.ids.append(f"s{i}")

        self.vocab = text.build_vocab(self.texts, target_size=512)
        config = model.EncoderConfig(vocab_size=self.vocab.size, dropout=0.0)
        params = model.init_params(config, np.random.default_rng(seed))
        ckpt = os.path.join(out_dir, "encoder.ckpt")
        training.save_checkpoint(ckpt, config, "cmlm_only", 0, self.vocab,
                                 params, optim.OptimizerState(), {})
        bundle = training.load_checkpoint(ckpt)
        self.setup_failures = checks.check_params_equal(
            params, bundle.params, "encoder checkpoint round trip")
        self.config, self.params, self.vocab = \
            bundle.config, bundle.params, bundle.vocab

        n = EMBED_SOURCES
        self.retrieval_rows = np.arange(RETRIEVAL_QUERIES)          # l0
        self.candidate_rows = np.arange(n, 2 * n)                    # l1
        self.gold = self.retrieval_rows.copy()
        self.bias_rows = np.sort(rng.choice(len(self.texts), size=BIAS_QUERIES,
                                            replace=False))
        self.embed_check_rows = rng.choice(len(self.texts),
                                           size=EMBED_CHECK_SAMPLE, replace=False)
        self.hist_check_rows = np.arange(HIST_CHECK_SAMPLE)

    def _subset(self, es, rows):
        return evaluation.EmbeddingSet(
            es.vectors[rows], [es.languages[i] for i in rows],
            [es.ids[i] for i in rows])

    def run_round(self) -> RoundResult:
        parts = {}
        emb_path = os.path.join(self.out_dir, "pool.emb")
        t_round = time.perf_counter()

        t0 = time.perf_counter()
        vectors = model.embed_texts(self.texts, self.params, self.config,
                                    self.vocab)
        parts["embed"] = time.perf_counter() - t0
        pool = evaluation.EmbeddingSet(vectors, list(self.languages),
                                       list(self.ids))

        t0 = time.perf_counter()
        evaluation.save_embeddings(pool, emb_path)
        reloaded = evaluation.load_embeddings(emb_path)
        parts["emb_io"] = time.perf_counter() - t0

        queries = self._subset(pool, self.retrieval_rows)
        candidates = self._subset(pool, self.candidate_rows)
        t0 = time.perf_counter()
        accuracy = evaluation.retrieval_accuracy(queries, candidates, self.gold)
        parts["retrieval"] = time.perf_counter() - t0

        t0 = time.perf_counter()
        debiased = evaluation.pcr_debias(pool)
        parts["pcr"] = time.perf_counter() - t0

        bias_q = self._subset(pool, self.bias_rows)
        bias_q_debiased = self._subset(debiased, self.bias_rows)
        t0 = time.perf_counter()
        hist_before = evaluation.language_bias_histogram(bias_q, pool, k=BIAS_K)
        hist_after = evaluation.language_bias_histogram(
            bias_q_debiased, debiased, k=BIAS_K)
        parts["bias_hist"] = time.perf_counter() - t0
        seconds = time.perf_counter() - t_round
        return RoundResult(
            seconds=seconds, main_seconds=parts["embed"], items=len(self.texts),
            attempted=self.operations_per_round(), parts=parts,
            outputs={"pool": pool, "reloaded": reloaded, "queries": queries,
                     "candidates": candidates, "accuracy": accuracy,
                     "debiased": debiased, "hists": [
                         ("before PCR", hist_before, bias_q, pool),
                         ("after PCR", hist_after, bias_q_debiased, debiased)]})

    def operations_per_round(self) -> int:
        """embed_texts, save, load, retrieval, PCR and two histograms."""
        return 7

    def check(self, result: RoundResult) -> list[str]:
        out = result.outputs
        pool = out["pool"]
        failures = list(self.setup_failures)
        failures += self._check_embedding(pool.vectors)
        failures += checks.check_reload(pool, out["reloaded"])
        failures += checks.check_retrieval(out["accuracy"], out["queries"].vectors,
                                           out["candidates"].vectors, self.gold)
        failures += checks.check_pcr(pool.vectors, out["debiased"].vectors,
                                     pool.languages)
        for label, hist, queries, p in out["hists"]:
            sample = self._subset(queries, self.hist_check_rows)
            failures += checks.check_histogram(
                hist, evaluation.language_bias_histogram(sample, p, k=BIAS_K),
                sample, p, BIAS_K, label)
        return failures

    def _check_embedding(self, vectors: np.ndarray) -> list[str]:
        sample = [self.texts[i] for i in self.embed_check_rows]
        singles = np.stack([
            model.embed_sentence(t, self.params, self.config, self.vocab)
            for t in sample])
        failures = checks.check_batched_rows(
            vectors[self.embed_check_rows], singles, "pool batch")
        # Pool sentences all have the same length, so the pool batches hold
        # no padding: embed the sample behind a longer sentence as well,
        # which pads every sample row.
        padded = model.embed_texts([" ".join(sample[:2])] + sample,
                                   self.params, self.config, self.vocab)[1:]
        failures += checks.check_batched_rows(padded, singles, "padded batch")
        return failures

    def report(self, rounds: list[RoundResult]) -> list[tuple[str, float, str]]:
        med = _median
        return [
            ("embed_sentences_per_s",
             med([r.items / r.main_seconds for r in rounds]), "sentences/s"),
            ("emb_io_s", med([r.parts["emb_io"] for r in rounds]), "s"),
            ("retrieval_s", med([r.parts["retrieval"] for r in rounds]), "s"),
            ("pcr_s", med([r.parts["pcr"] for r in rounds]), "s"),
            ("bias_hist_s", med([r.parts["bias_hist"] for r in rounds]), "s"),
        ]


def _median(values):
    return float(np.median(np.asarray(values, dtype=np.float64)))


def make_workload(name: str, seed: int, out_dir: str):
    if name == "embed-eval":
        return EmbedEvalWorkload(seed, out_dir)
    return TrainWorkload(name, seed, out_dir)
