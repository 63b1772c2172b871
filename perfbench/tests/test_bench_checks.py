"""Each correctness check of the benchmark accepts the program's real output
and rejects a planted wrong answer, so no check passes vacuously.

    python3 -m pytest perfbench/tests
"""

import copy
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(os.path.dirname(BENCH), "src"), BENCH]

from cmlmkit import evaluation, model, synth, text, training  # noqa: E402

import checks  # noqa: E402
from spans import Tracer  # noqa: E402


# --- training ---------------------------------------------------------------

@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("train"))
    paths = synth.generate(os.path.join(out, "data"), 3, synth.SynthSpec(
        n_languages=2, words_per_language=12, sentence_len=3, n_docs=200,
        n_bitext=100, n_heldout=4, n_nli=30))
    config = model.EncoderConfig(vocab_size=96, layers=1, heads=2, hidden=16,
                                 ff=32, max_len=16, n_projections=3)
    plan = training.TrainPlan(
        strategy="s2", stage1_steps=30, stage2_steps=4, batch_size=16,
        num_mask=2, learning_rate=1e-2, warmup_steps=3, seed=5,
        checkpoint_every=10 ** 9, corpus_path=paths["corpus"],
        bitext_path=paths["bitext"], out_dir=os.path.join(out, "run"))
    params, history, handles = training.run_plan(config, plan)
    return plan, history, params, handles.checkpoint_path


def test_training_output_passes(tiny_run):
    assert checks.check_training(*tiny_run) == []


def _plant(tiny_run, edit):
    plan, history, params, path = tiny_run
    history = copy.deepcopy(history)
    params = {k: v for k, v in params.items()}
    edit(history, params)
    return checks.check_training(plan, history, params, path)


def test_shifted_learning_rate_is_rejected(tiny_run):
    def edit(history, params):
        history[7]["lr"] *= 1.001
    assert any("lr" in f for f in _plant(tiny_run, edit))


def test_missing_step_record_is_rejected(tiny_run):
    def edit(history, params):
        del history[-1]
    assert _plant(tiny_run, edit)


def test_stage_order_is_checked(tiny_run):
    def edit(history, params):
        history[-1]["stage"] = "cmlm"
    assert any("stage kinds" in f for f in _plant(tiny_run, edit))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.0, -1.0])
def test_non_finite_or_non_positive_loss_is_rejected(tiny_run, bad):
    def edit(history, params):
        history[-1]["br_loss"] = bad
    assert any("finite and positive" in f for f in _plant(tiny_run, edit))


def test_loss_that_does_not_fall_is_rejected(tiny_run):
    def edit(history, params):
        first = [r for r in history if r["stage"] == "cmlm"]
        for i, r in enumerate(first):
            r["cmlm_loss"] = 1.0 + 0.01 * i
    assert any("did not fall" in f for f in _plant(tiny_run, edit))


def test_changed_parameter_is_rejected(tiny_run):
    def edit(history, params):
        name = sorted(params)[0]
        data = params[name].data.copy()
        data.reshape(-1)[0] = np.nextafter(data.reshape(-1)[0], np.float32(1))
        params[name] = type(params[name])(data)
    assert any("bit-identical" in f for f in _plant(tiny_run, edit))


def test_cmlm_loss_final_is_mean_of_last_window():
    history = [{"stage": "cmlm", "cmlm_loss": float(i)} for i in range(10)]
    history += [{"stage": "br", "br_loss": 1.0}]
    assert checks.cmlm_loss_final(history) == np.mean([5, 6, 7, 8, 9])


# --- embed-eval -------------------------------------------------------------

@pytest.fixture(scope="module")
def encoder():
    sentences = ["kani moro tesu", "tesu kani", "moro moro kani tesu lupa",
                 "lupa", "kani tesu lupa moro kani tesu"]
    vocab = text.build_vocab(sentences, target_size=64)
    config = model.EncoderConfig(vocab_size=vocab.size, layers=1, heads=2,
                                 hidden=16, ff=32, max_len=16, n_projections=3,
                                 dropout=0.0)
    params = model.init_params(config, np.random.default_rng(0))
    return sentences, params, config, vocab


def test_batched_rows_match_single_rows(encoder):
    sentences, params, config, vocab = encoder
    batched = model.embed_texts(sentences, params, config, vocab)
    singles = np.stack([model.embed_sentence(s, params, config, vocab)
                        for s in sentences])
    assert checks.check_batched_rows(batched, singles) == []
    leaked = batched.copy()
    leaked[1, 3] += 1e-3
    assert checks.check_batched_rows(leaked, singles)


def _random_set(rng, n_per_lang=40, dim=8, tags=("l0", "l1", "l2")):
    vectors = rng.standard_normal((n_per_lang * len(tags), dim))
    languages = [t for t in tags for _ in range(n_per_lang)]
    for i, t in enumerate(tags):  # a language-specific offset to debias
        vectors[i * n_per_lang:(i + 1) * n_per_lang] += 3.0 * rng.standard_normal(dim)
    ids = [f"s{j}" for _ in tags for j in range(n_per_lang)]
    return evaluation.EmbeddingSet(vectors.astype(np.float32), languages, ids)


def test_tampered_reload_is_rejected(tmp_path):
    es = _random_set(np.random.default_rng(1))
    path = str(tmp_path / "set.emb")
    evaluation.save_embeddings(es, path)
    loaded = evaluation.load_embeddings(path)
    assert checks.check_reload(es, loaded) == []
    tampered = evaluation.EmbeddingSet(loaded.vectors.copy(), list(loaded.languages))
    tampered.vectors[5, 2] = np.nextafter(tampered.vectors[5, 2], np.float32(9))
    assert checks.check_reload(es, tampered)
    retagged = evaluation.EmbeddingSet(loaded.vectors, ["l1"] + loaded.languages[1:])
    assert checks.check_reload(es, retagged)


def test_perturbed_retrieval_count_is_rejected():
    rng = np.random.default_rng(2)
    candidates = rng.standard_normal((60, 8))
    queries = candidates[:30] + 0.8 * rng.standard_normal((30, 8))
    gold = np.arange(30)
    acc = evaluation.retrieval_accuracy(
        evaluation.EmbeddingSet(queries, ["a"] * 30),
        evaluation.EmbeddingSet(candidates, ["b"] * 60), gold)
    assert 0 < acc < 1
    assert checks.check_retrieval(acc, queries, candidates, gold) == []
    assert checks.check_retrieval(acc + 1 / 30, queries, candidates, gold)
    assert checks.check_retrieval(acc - 1 / 30, queries, candidates, gold)


def test_non_orthogonal_pcr_row_is_rejected():
    es = _random_set(np.random.default_rng(3))
    debiased = evaluation.pcr_debias(es)
    assert checks.check_pcr(es.vectors, debiased.vectors, es.languages) == []
    rows = np.where(np.asarray(es.languages) == "l1")[0]
    top = np.linalg.svd(es.vectors[rows].astype(np.float64))[2][0]
    bad = debiased.vectors.copy()
    bad[rows[4]] += (1e-3 * np.linalg.norm(bad[rows[4]]) * top).astype(bad.dtype)
    assert checks.check_pcr(es.vectors, bad, es.languages)


def test_wrong_histogram_is_rejected():
    pool = _random_set(np.random.default_rng(4))
    sample = evaluation.EmbeddingSet(pool.vectors[::7], pool.languages[::7],
                                     pool.ids[::7])
    hist = evaluation.language_bias_histogram(sample, pool, k=5)
    assert checks.check_histogram(hist, hist, sample, pool, 5, "t") == []
    # one neighbour moved from one language to another
    moved = dict(hist)
    step = 1 / (5 * len(sample))
    moved["l0"] -= step
    moved["l1"] += step
    assert checks.check_histogram(hist, moved, sample, pool, 5, "t")
    unnormalized = {t: 2 * v for t, v in hist.items()}
    assert checks.check_histogram(unnormalized, hist, sample, pool, 5, "t")



def test_histogram_that_counts_the_query_itself_is_rejected():
    pool = evaluation.EmbeddingSet(
        np.array([[1.0, 0.0], [0.9, 0.1], [0.0, 1.0], [0.1, 0.9]]),
        ["a", "b", "a", "b"], ["x", "y", "z", "w"])
    query = evaluation.EmbeddingSet(pool.vectors[:1], ["a"], ["x"])
    hist = evaluation.language_bias_histogram(query, pool, k=1)
    assert hist == {"a": 0.0, "b": 1.0}
    assert checks.check_histogram(hist, hist, query, pool, 1, "t") == []
    with_self = {"a": 1.0, "b": 0.0}
    assert checks.check_histogram(with_self, with_self, query, pool, 1, "t")


# --- tracer -------------------------------------------------------------------

def test_self_time_subtracts_child_spans():
    tracer = Tracer()
    tracer.spans = [
        ["training.step.cmlm", 0, 100, -1, 1],
        ["model.encode", 10, 50, 0, 1],
        ["autodiff.fwd.gelu", 20, 30, 1, 1],
        ["losses.cmlm", 60, 90, 0, 1],
        ["model.project", 65, 75, 3, 1],
        ["autodiff.fwd.matmul", 80, 85, 3, 1],
    ]
    tot = tracer.totals()
    assert tot["training.step.cmlm"]["self_ns"] == 100 - 40 - 30
    assert tot["model.encode"]["self_ns"] == 30
    assert tot["losses.cmlm"]["self_ns"] == 30 - 10 - 5
    assert tot["losses.cmlm"]["no_model_ns"] == 30 - 10
