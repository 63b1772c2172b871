"""Acceptance suite: one test per criterion, each printing a PASS line.

Heavy training fixtures are session-scoped and shared between criteria.
Budgeted runtimes are asserted where the criterion states one.
"""

import os
import time

import numpy as np
import pytest

from cmlmkit import autodiff as ad
from cmlmkit import training
from cmlmkit.cli import EXIT_OK, dispatch
from cmlmkit.config import RunConfig
from cmlmkit.evaluation import (EmbeddingSet, in_batch_retrieval_accuracy,
                                language_bias_histogram, pcr_debias,
                                retrieval_accuracy, spearman_correlation)
from cmlmkit.losses import (BitextBatch, NLIBatch, bitext_loss,
                            bitext_loss_from_scores, cmlm_loss, nli_loss)
from cmlmkit.masking import make_batch, make_pairs, mask_tokens
from cmlmkit.model import (EncoderConfig, embed_texts, encode_and_pool,
                           init_params, project)
from cmlmkit.spectral import first_principal_direction
from cmlmkit.synth import SynthSpec, generate
from cmlmkit.text import build_vocab
from cmlmkit.training import TrainPlan, load_bitext, load_checkpoint, run_plan

from gradsuite import run_sweep

DESK_CONFIG = dict(layers=2, heads=4, hidden=64, ff=128, max_len=64,
                   n_projections=15, dropout=0.0)

CONDITIONING_SEEDS = (0, 1, 2)
CONDITIONING_STEPS = 2000


def report(criterion: int, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion:2d} {'PASS' if passed else 'FAIL'}: {detail}")


# ---------------------------------------------------------------------------
# shared fixtures
# ---------------------------------------------------------------------------

@pytest.fixture(scope="session")
def copy_task_dir(tmp_path_factory):
    """Copy-task corpus tuned for the conditioning-efficacy oracle."""
    out = str(tmp_path_factory.mktemp("accept_copy"))
    generate(out, seed=100, spec=SynthSpec(
        n_languages=2, words_per_language=32, sentence_len=3, n_docs=3000,
        n_bitext=100, n_heldout=8, n_nli=30))
    return out


@pytest.fixture(scope="session")
def conditioning_runs(copy_task_dir):
    """2k-step runs for each seed and variant at the desk config."""
    started = time.time()
    config = EncoderConfig(vocab_size=256, **DESK_CONFIG)
    results = {}
    for variant in ("standard", "unconditioned"):
        for seed in CONDITIONING_SEEDS:
            plan = TrainPlan(
                strategy="cmlm_only", stage1_steps=CONDITIONING_STEPS,
                batch_size=32, num_mask=3, warmup_steps=100, seed=seed,
                learning_rate=3e-3, variant=variant, checkpoint_every=10 ** 6,
                corpus_path=os.path.join(copy_task_dir, "corpus.txt"))
            _, history, _ = run_plan(config, plan)
            results[(variant, seed)] = [h["masked_acc"] for h in history]
    results["elapsed"] = time.time() - started
    return results


@pytest.fixture(scope="session")
def s3_dir(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("accept_s3"))
    generate(out, seed=7, spec=SynthSpec(
        n_languages=2, words_per_language=24, sentence_len=4, n_docs=2000,
        n_bitext=2000, n_heldout=32, n_nli=60))
    return out


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

class TestCriterion1Gradients:
    def _toy_setup(self, seed):
        vocab = build_vocab(["ka mo te vi pa ze ru no"], target_size=24)
        config = EncoderConfig(vocab_size=vocab.size, layers=2, heads=2,
                               hidden=8, ff=16, max_len=8, n_projections=3,
                               dropout=0.0)
        params = init_params(config, np.random.default_rng(seed),
                             dtype=np.float64)
        # x10 keeps deep-path gradients above the finite-difference noise
        # floor; central differences on a ~3.0 loss resolve ~3e-11 per
        # component, so sigma=0.02 initializations drown real signal
        for p in params.values():
            if p.data.ndim >= 2:
                p.data = p.data * 10.0
        rng = np.random.default_rng(seed + 50)
        pairs = make_pairs(["ka mo te", "vi pa ze"], vocab, rng, max_len=8)
        batch = make_batch(pairs, vocab, num_mask=2, rng=rng)
        return vocab, config, params, batch, rng

    def _max_err_over_params(self, params, loss_fn):
        worst = 0.0
        for name, p in params.items():
            def f(t, n=name):
                trial = dict(params)
                trial[n] = t
                return loss_fn(trial)

            worst = max(worst, ad.check_gradient(f, p))
        return worst

    def test_gradient_suite(self):
        started = time.time()
        failures = run_sweep(num_seeds=100, tol=1e-4)
        assert not failures, failures[:5]

        worst = 0.0
        for seed in (0, 1):
            vocab, config, params, batch, rng = self._toy_setup(seed)

            worst = max(worst, self._max_err_over_params(
                params, lambda trial: cmlm_loss(batch, trial, config)[0]))

            src_ids = np.array([[5, 6, 7], [8, 9, 10]])
            tgt_ids = np.array([[11, 6, 12], [13, 9, 14]])
            mask = np.ones((2, 3), dtype=np.float64)

            def br(trial):
                s = encode_and_pool(src_ids, mask, trial, config)
                t = encode_and_pool(tgt_ids, mask, trial, config)
                return bitext_loss(BitextBatch(s, t, margin=0.3))

            worst = max(worst, self._max_err_over_params(params, br))

            labels = np.array([0, 2])

            def nli(trial):
                u = encode_and_pool(src_ids, mask, trial, config)
                v = encode_and_pool(tgt_ids, mask, trial, config)
                return nli_loss(NLIBatch(u, v, labels), trial)[0]

            worst = max(worst, self._max_err_over_params(params, nli))

        elapsed = time.time() - started
        ok = worst <= 1e-4 and elapsed < 120
        report(1, ok, f"op sweep (100 seeds) + end-to-end losses: "
                      f"max rel err {worst:.2e} <= 1e-4, {elapsed:.0f}s < 120s")
        assert worst <= 1e-4
        assert elapsed < 120


class TestCriterion2MaskingStatistics:
    def test_masking_statistics(self):
        started = time.time()
        words = " ".join(f"w{i:03d}" for i in range(150))
        vocab = build_vocab([words], target_size=300)
        rng = np.random.default_rng(0)

        # exact per-sequence count, including the clamped short case
        for length in (1, 3, 7, 12):
            tokens = [vocab.id_of(f"w{i:03d}") for i in range(length)]
            for budget in (1, 3, length, length + 5):
                _, positions, _ = mask_tokens(tokens, budget, vocab, rng)
                assert len(positions) == min(budget, length)

        # 80/10/10 action split over 100k positions (vocab big enough that
        # random-replacement collisions stay inside the 1% tolerance)
        tokens = [vocab.id_of(f"w{i:03d}") for i in range(20)]
        n_mask = n_rand = n_keep = total = 0
        while total < 100_000:
            corrupted, positions, labels = mask_tokens(tokens, 20, vocab, rng)
            for pos, lab in zip(positions, labels):
                total += 1
                if corrupted[pos] == 4:  # [MASK]
                    n_mask += 1
                elif corrupted[pos] == lab:
                    n_keep += 1
                else:
                    n_rand += 1
        frac = (n_mask / total, n_rand / total, n_keep / total)
        split_ok = (abs(frac[0] - 0.8) < 0.01 and abs(frac[1] - 0.1) < 0.01
                    and abs(frac[2] - 0.1) < 0.01)

        # 50% +- 2% swap rate over 10k pairs
        sentences = ["w001 w002"] * 10001
        pairs = make_pairs(sentences, vocab, rng, max_len=8)
        swap_rate = float(np.mean([p.swapped for p in pairs]))
        swap_ok = abs(swap_rate - 0.5) < 0.02

        elapsed = time.time() - started
        ok = split_ok and swap_ok and elapsed < 30
        report(2, ok, f"split {frac[0]:.3f}/{frac[1]:.3f}/{frac[2]:.3f}, "
                      f"swap {swap_rate:.3f}, {elapsed:.1f}s < 30s")
        assert split_ok and swap_ok
        assert elapsed < 30


class TestCriterion3BitextOracles:
    def test_bitext_oracles(self):
        started = time.time()
        # hand value 1: equal scores, margin 0 -> 2 ln 2
        zero = ad.constant(np.zeros((2, 4)))
        v1 = bitext_loss(BitextBatch(zero, zero, margin=0.0)).item()
        hand1_ok = abs(v1 - 2 * np.log(2)) < 1e-6

        # hand value 2: unit diagonal, margin 0.3; the loss equals
        # 2 * -ln(e^0.7 / (e^0.7 + 1)) = 0.806372 at full precision
        # (0.8062 comes from rounding the per-pair probability to 0.6682)
        s, t = bitext_loss_from_scores(ad.constant(np.eye(2)), margin=0.3)
        v2 = s.item() + t.item()
        exact2 = 2 * -np.log(np.exp(0.7) / (np.exp(0.7) + 1.0))
        hand2_ok = abs(v2 - exact2) < 1e-6 and abs(v2 - 0.8062) < 2e-4

        rng = np.random.default_rng(3)
        sym_ok = mono_ok = True
        for _ in range(1000):
            b, d = int(rng.integers(2, 9)), int(rng.integers(2, 9))
            sv = rng.standard_normal((b, d))
            tv = rng.standard_normal((b, d))
            m = float(rng.uniform(0, 0.5))
            src_st, _ = bitext_loss_from_scores(ad.constant(sv @ tv.T), m)
            _, tgt_ts = bitext_loss_from_scores(ad.constant(tv @ sv.T), m)
            if abs(src_st.item() - tgt_ts.item()) > 1e-9 * max(1, abs(src_st.item())):
                sym_ok = False
            phi = rng.standard_normal((b, b))
            s0, t0 = bitext_loss_from_scores(ad.constant(phi), m)
            s1, t1 = bitext_loss_from_scores(
                ad.constant(phi + np.eye(b) * float(rng.uniform(0.1, 1.0))), m)
            if not s1.item() + t1.item() < s0.item() + t0.item():
                mono_ok = False

        elapsed = time.time() - started
        ok = hand1_ok and hand2_ok and sym_ok and mono_ok and elapsed < 30
        report(3, ok, f"2ln2={v1:.6f}, margin case={v2:.6f} "
                      f"(exact {exact2:.6f}), symmetry+monotonicity on 1000 "
                      f"batches, {elapsed:.1f}s < 30s")
        assert hand1_ok and hand2_ok and sym_ok and mono_ok
        assert elapsed < 30


class TestCriterion4ConditioningEfficacy:
    def test_conditioning_gap(self, conditioning_runs):
        window = 200
        std = np.mean([np.mean(conditioning_runs[("standard", s)][-window:])
                       for s in CONDITIONING_SEEDS])
        unc = np.mean([np.mean(conditioning_runs[("unconditioned", s)][-window:])
                       for s in CONDITIONING_SEEDS])
        gap = std - unc
        elapsed = conditioning_runs["elapsed"]
        ok = gap >= 0.20 and elapsed < 900
        report(4, ok, f"masked accuracy standard {std:.3f} vs unconditioned "
                      f"{unc:.3f}, gap {gap * 100:.1f}pt >= 20pt over "
                      f"{len(CONDITIONING_SEEDS)} seeds, {elapsed:.0f}s < 900s")
        assert gap >= 0.20
        assert elapsed < 900

    def test_trainer_smoothed_accuracy_rises_monotonically(self, conditioning_runs):
        # 200-step smoothed windows are non-decreasing (0.01 slack covers
        # plateau noise once the task is learned)
        for seed in CONDITIONING_SEEDS:
            accs = conditioning_runs[("standard", seed)]
            windows = [np.mean(accs[i:i + 200]) for i in range(0, 2000, 200)]
            drops = [windows[i + 1] - windows[i]
                     for i in range(len(windows) - 1)]
            assert min(drops) > -0.01, f"seed {seed} windows {windows}"


class TestCriterion5MultitaskS3:
    def test_s3_retrieval_and_loss(self, s3_dir):
        started = time.time()
        config = EncoderConfig(vocab_size=256, **DESK_CONFIG)
        plan = TrainPlan(
            strategy="s3", stage1_steps=400, stage2_steps=1100, batch_size=32,
            num_mask=4, warmup_steps=100, seed=0, learning_rate=3e-3,
            checkpoint_every=10 ** 6,
            corpus_path=os.path.join(s3_dir, "corpus.txt"),
            bitext_path=os.path.join(s3_dir, "bitext.tsv"))
        params, history, handles = run_plan(config, plan)

        rows = load_bitext(os.path.join(s3_dir, "bitext_heldout.tsv"))[:32]
        src = embed_texts([r[0] for r in rows], params, handles.config,
                          handles.vocab)
        tgt = embed_texts([r[1] for r in rows], params, handles.config,
                          handles.vocab)
        heldout = in_batch_retrieval_accuracy(src.astype(np.float64),
                                              tgt.astype(np.float64))

        joint = [h for h in history if h["stage"] == "joint"]
        first_combined = joint[0]["loss"]
        final_combined = joint[-1]["loss"]
        finite = np.isfinite(final_combined)
        elapsed = time.time() - started
        ok = (heldout >= 0.95 and finite and final_combined < first_combined
              and elapsed < 1200)
        report(5, ok, f"held-out retrieval {heldout:.3f} >= 0.95 at B=32, "
                      f"combined loss {first_combined:.3f} -> "
                      f"{final_combined:.3f}, {elapsed:.0f}s < 1200s")
        assert heldout >= 0.95
        assert finite and final_combined < first_combined
        assert elapsed < 1200


class TestCriterion6IdentityProjection:
    def test_identity_view_bitwise(self):
        rng = np.random.default_rng(8)
        checked = []
        for n in (1, 5, 10, 15, 20):
            config = EncoderConfig(vocab_size=64, layers=1, heads=2, hidden=16,
                                   ff=32, max_len=8, n_projections=n,
                                   dropout=0.0)
            params = init_params(config, np.random.default_rng(n))
            v = ad.constant(rng.standard_normal((4, 16)).astype(np.float32))
            views = project(v, params, config)
            checked.append(np.array_equal(views.data[:, 0], v.data))
        ok = all(checked)
        report(6, ok, f"projection view 0 bitwise-equal to pooled vector for "
                      f"N in (1, 5, 10, 15, 20)")
        assert ok


def _offset_construction(seed=0, n=100, d=16):
    rng = np.random.default_rng(seed)
    base = rng.standard_normal((n, d)) * rng.uniform(0.5, 2.0, size=(n, 1))
    offset = np.zeros(d)
    offset[0] = 25.0
    vectors = np.concatenate([base + offset, base - offset]).astype(np.float32)
    return EmbeddingSet(vectors, ["la"] * n + ["lb"] * n,
                        [f"t{i}" for i in range(n)] * 2), n


class TestCriterion7PcrEfficacy:
    def test_offset_construction_flattens(self):
        started = time.time()
        es, n = _offset_construction()
        queries = EmbeddingSet(es.vectors[:n], ["la"] * n, ids=es.ids[:n])
        before_acc = retrieval_accuracy(
            queries, EmbeddingSet(es.vectors[n:], ["lb"] * n), np.arange(n))
        before_mass = language_bias_histogram(queries, es, k=10)["la"]

        debiased = pcr_debias(es)
        d_queries = EmbeddingSet(debiased.vectors[:n], ["la"] * n,
                                 ids=debiased.ids[:n])
        after_acc = retrieval_accuracy(
            d_queries, EmbeddingSet(debiased.vectors[n:], ["lb"] * n),
            np.arange(n))
        after_mass = language_bias_histogram(d_queries, debiased, k=10)["la"]

        elapsed = time.time() - started
        ok = (before_acc < 0.5 and after_acc >= 0.95 and before_mass > 0.9
              and after_mass < 0.6 and elapsed < 60)
        report(7, ok, f"cross-language retrieval {before_acc:.2f} -> "
                      f"{after_acc:.2f}, same-language mass {before_mass:.2f} "
                      f"-> {after_mass:.2f}, {elapsed:.1f}s < 60s")
        assert before_acc < 0.5 and after_acc >= 0.95
        assert before_mass > 0.9 and after_mass < 0.6
        assert elapsed < 60


class TestCriterion8DebiasedOrthogonality:
    def test_rows_orthogonal_to_language_direction(self):
        worst = 0.0
        for seed in (0, 1, 2):
            es, _ = _offset_construction(seed=seed)
            debiased = pcr_debias(es)
            tags = np.asarray(es.languages)
            for tag in ("la", "lb"):
                rows = np.where(tags == tag)[0]
                direction = first_principal_direction(es.vectors[rows])
                residual = np.abs(
                    debiased.vectors[rows].astype(np.float64) @ direction)
                norms = np.maximum(
                    np.linalg.norm(debiased.vectors[rows], axis=1), 1e-12)
                worst = max(worst, float(np.max(residual / norms)))
        ok = worst <= 1e-6
        report(8, ok, f"max |row . direction| / ||row|| = {worst:.2e} <= 1e-6")
        assert worst <= 1e-6


class TestCriterion9CheckpointAndResume:
    def test_round_trip_and_resume_equivalence(self, tmp_path, monkeypatch):
        out = str(tmp_path / "synth")
        generate(out, seed=21, spec=SynthSpec(
            n_languages=2, words_per_language=12, sentence_len=3, n_docs=100,
            n_bitext=50, n_heldout=8, n_nli=30))
        config = EncoderConfig(vocab_size=96, layers=1, heads=2, hidden=16,
                               ff=32, max_len=16, n_projections=3, dropout=0.1)

        def plan_for(directory):
            return TrainPlan(strategy="cmlm_only", stage1_steps=20,
                             batch_size=4, num_mask=2, warmup_steps=5, seed=9,
                             checkpoint_every=10,
                             corpus_path=os.path.join(out, "corpus.txt"),
                             out_dir=directory)

        run_plan(config, plan_for(str(tmp_path / "full")))
        full_path = str(tmp_path / "full" / "checkpoint.ckpt")
        full_bytes = open(full_path, "rb").read()

        # round trip: load then re-save is byte-identical
        bundle = load_checkpoint(full_path)
        resaved = str(tmp_path / "resaved.ckpt")
        training.save_checkpoint(resaved, bundle.config, bundle.strategy,
                                 bundle.step, bundle.vocab, bundle.params,
                                 bundle.opt_state, bundle.rng_states)
        round_trip_ok = open(resaved, "rb").read() == full_bytes

        # interruption after 10 steps, then resume to completion
        calls = {"n": 0}
        real_step = training.optimizer_step

        def dying(params, grads, state):
            if calls["n"] == 10:
                raise KeyboardInterrupt
            calls["n"] += 1
            return real_step(params, grads, state)

        monkeypatch.setattr(training, "optimizer_step", dying)
        with pytest.raises(KeyboardInterrupt):
            run_plan(config, plan_for(str(tmp_path / "crash")))
        monkeypatch.setattr(training, "optimizer_step", real_step)
        crash_path = str(tmp_path / "crash" / "checkpoint.ckpt")
        assert load_checkpoint(crash_path).step == 10
        run_plan(config, plan_for(str(tmp_path / "crash")), resume=crash_path)
        resume_ok = open(crash_path, "rb").read() == full_bytes

        ok = round_trip_ok and resume_ok
        report(9, ok, f"checkpoint round-trip bitwise={round_trip_ok}, "
                      f"resume(10 interrupted + 10) == 20 uninterrupted "
                      f"bitwise={resume_ok}")
        assert round_trip_ok and resume_ok


class TestCriterion10SpearmanOracle:
    @staticmethod
    def _oracle(a, b):
        def ranks(v):
            v = np.asarray(v, dtype=float)
            out = np.empty(len(v))
            for i in range(len(v)):
                out[i] = 1 + np.sum(v < v[i]) + (np.sum(v == v[i]) - 1) / 2.0
            return out

        ra, rb = ranks(a), ranks(b)
        ra -= ra.mean()
        rb -= rb.mean()
        return float(ra @ rb / np.sqrt((ra @ ra) * (rb @ rb)))

    def test_matches_brute_force(self):
        rng = np.random.default_rng(10)
        worst = 0.0
        count = 0
        while count < 1000:
            n = int(rng.integers(2, 40))
            a = rng.choice([0.5, 1.0, 2.0, 3.5, 7.0], size=n)  # heavy ties
            b = rng.standard_normal(n)
            if np.all(a == a[0]):
                continue
            count += 1
            worst = max(worst, abs(spearman_correlation(a, b) - self._oracle(a, b)))
        ok = worst <= 1e-12
        report(10, ok, f"max |impl - brute force| = {worst:.2e} <= 1e-12 "
                       f"over 1000 random inputs")
        assert worst <= 1e-12


class TestCriterion11AblationHarness:
    def test_sweep_completes_with_wellformed_table(self, copy_task_dir,
                                                   tmp_path, capsys):
        cfg_path = str(tmp_path / "ablate.cfg")
        RunConfig(layers=1, heads=2, hidden=16, ff=32, max_len=16,
                  batch_size=8, num_mask=3, warmup_steps=10,
                  vocab_size=128).to_file(cfg_path)
        table_path = str(tmp_path / "ablation.tsv")
        code = dispatch(["ablate-n",
                         "--corpus", os.path.join(copy_task_dir, "corpus.txt"),
                         "--config", cfg_path, "--values", "1,5,10,15,20",
                         "--variants", "standard,skip,proj", "--steps", "60",
                         "--eval-pairs", "32", "--out", table_path])
        capsys.readouterr()
        lines = open(table_path).read().strip().splitlines()
        header_ok = lines[0].split("\t") == [
            "n", "variant", "masked_acc", "pair_retrieval", "final_loss"]
        body = [line.split("\t") for line in lines[1:]]
        combos = {(row[0], row[1]) for row in body}
        expected = {(str(n), v) for n in (1, 5, 10, 15, 20)
                    for v in ("standard", "skip", "proj")}
        values_ok = all(np.isfinite(float(cell)) for row in body
                        for cell in row[2:])
        ok = code == EXIT_OK and header_ok and combos == expected and values_ok
        report(11, ok, f"ablation table: {len(body)} rows covering N x "
                       f"(standard, skip, proj), all runs finished")
        assert ok


class TestCriterion12Determinism:
    def test_train_cli_twice_is_bit_identical(self, tmp_path, capsys):
        out = str(tmp_path / "synth")
        generate(out, seed=33, spec=SynthSpec(
            n_languages=2, words_per_language=12, sentence_len=3, n_docs=80,
            n_bitext=50, n_heldout=8, n_nli=30))
        cfg_path = str(tmp_path / "det.cfg")
        RunConfig(layers=1, heads=2, hidden=16, ff=32, max_len=16,
                  batch_size=4, num_mask=2, warmup_steps=5, vocab_size=96,
                  stage1_steps=15,
                  corpus_path=os.path.join(out, "corpus.txt")).to_file(cfg_path)
        for run in ("r1", "r2"):
            code = dispatch(["train", "--config", cfg_path, "--seed", "7",
                             "--out", str(tmp_path / run)])
            assert code == EXIT_OK
        capsys.readouterr()
        ckpt_same = open(tmp_path / "r1" / "checkpoint.ckpt", "rb").read() == \
            open(tmp_path / "r2" / "checkpoint.ckpt", "rb").read()
        metrics_same = open(tmp_path / "r1" / "metrics.jsonl", "rb").read() == \
            open(tmp_path / "r2" / "metrics.jsonl", "rb").read()
        ok = ckpt_same and metrics_same
        report(12, ok, f"repeat seeded train: checkpoint bytes equal="
                       f"{ckpt_same}, metric log bytes equal={metrics_same}")
        assert ok
