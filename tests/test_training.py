import json
import os
import subprocess
import sys
from dataclasses import asdict, replace

import numpy as np
import pytest

from cmlmkit import records, training
from cmlmkit.errors import (ConfigMismatchError, ContractError, DataError,
                            IntegrityError, NonFiniteError, TrainingDiverged)
from cmlmkit.model import EncoderConfig, init_params
from cmlmkit.optim import OptimizerState, optimizer_step
from cmlmkit.synth import SynthSpec, generate
from cmlmkit.text import build_vocab
from cmlmkit.training import (TrainPlan, load_bitext, load_checkpoint,
                              load_corpus, load_nli, run_plan, save_checkpoint)


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    generate(str(out), seed=11,
             spec=SynthSpec(n_languages=2, words_per_language=12,
                            sentence_len=4, n_docs=120, n_bitext=150,
                            n_heldout=16, n_nli=90))
    return str(out)


def tiny_config(vocab_size=128):
    return EncoderConfig(vocab_size=vocab_size, layers=1, heads=2, hidden=16,
                         ff=32, max_len=16, n_projections=3, dropout=0.1)


def tiny_plan(data_dir, out_dir, **overrides):
    defaults = dict(strategy="cmlm_only", stage1_steps=12, batch_size=4,
                    num_mask=2, warmup_steps=4, seed=5, checkpoint_every=6,
                    corpus_path=os.path.join(data_dir, "corpus.txt"),
                    bitext_path=os.path.join(data_dir, "bitext.tsv"),
                    nli_path=os.path.join(data_dir, "nli.tsv"),
                    out_dir=out_dir)
    defaults.update(overrides)
    return TrainPlan(**defaults)


def rewrite_manifest(path, out, edit):
    """Copy the checkpoint at ``path`` to ``out`` with ``edit`` applied to its
    parsed JSON manifest; ``edit`` returns the manifest to write."""
    sections = records.read(path, training.CHECKPOINT_MAGIC,
                            training.CHECKPOINT_VERSION, "checkpoint")
    manifest = edit(json.loads(sections["manifest"][0].tobytes()))
    text = json.dumps(manifest).encode("utf-8")
    arrays = {name: array for name, (array, _) in sections.items()}
    arrays["manifest"] = np.frombuffer(text, dtype=np.uint8)
    records.write(str(out), training.CHECKPOINT_MAGIC,
                  training.CHECKPOINT_VERSION, list(arrays.items()))
    return str(out)


def manifest_without(section, key):
    def edit(manifest):
        del (manifest[section] if section else manifest)[key]
        return manifest
    return edit


def manifest_setting(section, key, value):
    def edit(manifest):
        (manifest[section] if section else manifest)[key] = value
        return manifest
    return edit


class TestPlanValidation:
    def test_single_stage_strategies_reject_stage2(self):
        with pytest.raises(ContractError):
            TrainPlan(strategy="cmlm_only", stage2_steps=10)
        with pytest.raises(ContractError):
            TrainPlan(strategy="s1", stage2_steps=10)

    def test_stage_tables(self):
        assert TrainPlan(strategy="s2", stage1_steps=5, stage2_steps=3).stages() \
            == [("cmlm", 5), ("br", 3)]
        assert TrainPlan(strategy="s3", stage1_steps=5, stage2_steps=3).stages() \
            == [("cmlm", 5), ("joint", 3)]
        assert TrainPlan(strategy="s1", stage1_steps=5).stages() == [("joint", 5)]

    def test_nli_stage_appended(self):
        plan = TrainPlan(strategy="s3", stage1_steps=5, stage2_steps=3,
                         nli_steps=2)
        assert plan.stages()[-1] == ("nli", 2)
        assert plan.total_steps() == 10

    @pytest.mark.parametrize("setting,named", [
        (dict(log_every=0), "log_every"),
        (dict(checkpoint_every=0), "checkpoint_every"),
        (dict(batch_size=0), "batch_size"),
        (dict(margin=-1.0), "margin"),
        (dict(strategy="s1", batch_size=1), "batch_size"),
        (dict(strategy="s2", stage1_steps=5, stage2_steps=3, batch_size=1),
         "batch_size"),
        (dict(num_mask=-1), "num_mask"),
        (dict(nli_steps=-5), "nli_steps"),
        (dict(learning_rate=-1.0), "learning_rate"),
        (dict(warmup_steps=-4), "warmup_steps"),
        (dict(weight_decay=-0.1), "weight_decay"),
        (dict(alpha=-0.1), "alpha"),
        (dict(alpha=float("nan")), "alpha"),
        (dict(alpha=float("inf")), "alpha"),
        (dict(learning_rate=float("inf")), "learning_rate"),
        (dict(strategy="s2", stage1_steps=5, stage2_steps=3,
              margin=float("nan")), "margin"),
    ])
    def test_value_below_its_floor_is_refused(self, setting, named):
        with pytest.raises(ContractError, match=f"^{named} must be >= "):
            TrainPlan(**setting)

    @pytest.mark.parametrize("setting,message", [
        (dict(variant="bogus"), "variant must be one of"),
        (dict(optimizer="sgd"), "optimizer kind must be adam or lamb"),
        (dict(beta1=1.0), "beta1 must lie in [0, 1)"),
        (dict(eps=0.0), "eps must be > 0"),
    ])
    def test_bad_variant_or_optimizer_setting_is_refused(self, tmp_path,
                                                         setting, message):
        # refused when the plan is built, before any path is looked at
        with pytest.raises(ContractError) as info:
            TrainPlan(corpus_path=str(tmp_path / "absent.txt"), **setting)
        assert str(info.value).startswith(message)

    def test_plan_builds_the_optimizer_state_it_trains_with(self):
        plan = TrainPlan(strategy="s3", stage1_steps=5, stage2_steps=3,
                         nli_steps=2, optimizer="adam", beta1=0.8,
                         weight_decay=0.01)
        state = plan.optimizer_state()
        assert (state.kind, state.beta1, state.weight_decay, state.total_steps,
                state.step) == ("adam", 0.8, 0.01, 10, 0)

    def test_batch_of_one_is_allowed_without_bitext(self):
        assert TrainPlan(batch_size=1, nli_steps=2).batch_size == 1
        assert TrainPlan(strategy="s2", stage1_steps=5, batch_size=1).stages() \
            == [("cmlm", 5)]

    def test_missing_corpus_rejected(self, tmp_path):
        plan = TrainPlan(corpus_path=str(tmp_path / "nope.txt"))
        with pytest.raises(DataError, match="does not exist"):
            run_plan(tiny_config(), plan)

    def test_directory_as_corpus_is_a_data_error(self, tmp_path):
        plan = TrainPlan(corpus_path=str(tmp_path))
        with pytest.raises(DataError) as info:
            run_plan(tiny_config(), plan)
        assert str(info.value).startswith(f"corpus file {str(tmp_path)!r} ")


class TestCorpusLoading:
    def test_documents_and_tags(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("l0\taa bb\nl0\tbb cc\n\ncc dd\n", encoding="utf-8")
        docs = load_corpus(str(path))
        assert docs == [("l0", ["aa bb", "bb cc"]), ("base", ["cc dd"])]

    @pytest.mark.parametrize("loader, lines, parsed", [
        (load_corpus, ["l0\taa bb", "l0\tbb cc", "", "", "cc dd", "l1\tdd ee"],
         [("l0", ["aa bb", "bb cc"]), ("l1", ["cc dd", "dd ee"])]),
        (load_bitext, ["a b\tc d\tl0\tl1", " ", "e f\tg h\tl0\tl1"],
         [("a b", "c d", "l0", "l1"), ("e f", "g h", "l0", "l1")]),
        (load_nli, ["a b\tc d\tentailment", "", "e f\tg h\tneutral\tl0\tl1"],
         [("a b", "c d", 0), ("e f", "g h", 2)]),
    ], ids=["corpus", "bitext", "nli"])
    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    @pytest.mark.parametrize("final", [True, False], ids=["final", "no-final"])
    def test_line_ends_parse_alike(self, tmp_path, loader, lines, parsed, end,
                                   final):
        path = tmp_path / "f.txt"
        path.write_bytes((end.join(lines) + (end if final else "")).encode())
        assert loader(str(path)) == parsed

    @pytest.mark.parametrize("loader, lines", [
        (load_bitext, ["a b\tc d\tl0\tl1", " \tc d\tl0\tl1",
                       "e f\t\tl0\tl1", "g h\ti j\tl0\tl1"]),
        (load_nli, ["a b\tc d\tentailment", "a b\t \tneutral",
                    "\tc d\tcontradiction"]),
    ], ids=["bitext", "nli"])
    def test_pair_side_with_no_word_is_refused(self, tmp_path, loader, lines):
        path = tmp_path / "f.tsv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(DataError) as info:
            loader(str(path))
        assert f"{path}' line 2 " in str(info.value)

    @pytest.mark.parametrize("loader, line, problem", [
        (load_bitext, "a b\tc d\tl0", "must have 4 tab-separated fields"),
        (load_nli, "a b\tc d", "must have 3 or 5 tab-separated fields"),
        (load_nli, "a b\tc d\tentailment\tl0",
         "must have 3 or 5 tab-separated fields"),
        (load_nli, "a b\tc d\tentailment\tl0\tl1\tx\ty",
         "must have 3 or 5 tab-separated fields"),
        (load_nli, "a b\tc d\tmaybe", "has unknown label 'maybe'"),
    ], ids=["bitext-fields", "nli-fields", "nli-4-fields", "nli-7-fields",
            "nli-label"])
    def test_bad_row_names_the_file(self, tmp_path, loader, line, problem):
        good = ("a b\tc d\tl0\tl1" if loader is load_bitext
                else "a b\tc d\tentailment")
        path = tmp_path / "f.tsv"
        path.write_text(f"{good}\n{line}\n", encoding="utf-8")
        with pytest.raises(DataError) as info:
            loader(str(path))
        assert str(info.value).endswith(f" file {str(path)!r} line 2 {problem}")


class TestCheckpointIO:
    def _roundtrip_setup(self, tmp_path):
        vocab = build_vocab(["aa bb cc dd"], target_size=24)
        config = tiny_config(vocab.size)
        params = init_params(config, np.random.default_rng(0))
        state = OptimizerState(kind="lamb", total_steps=10)
        state.m = {"tok_emb": np.ones_like(params["tok_emb"].data)}
        state.v = {"tok_emb": np.full_like(params["tok_emb"].data, 0.5)}
        rngs = {"mask": np.random.default_rng(3).bit_generator.state}
        path = str(tmp_path / "test.ckpt")
        save_checkpoint(path, config, "cmlm_only", 7, vocab, params, state, rngs)
        return path, config, params, state

    def test_bitwise_round_trip(self, tmp_path):
        path, config, params, state = self._roundtrip_setup(tmp_path)
        bundle = load_checkpoint(path)
        assert bundle.step == 7
        for name, p in params.items():
            np.testing.assert_array_equal(bundle.params[name].data, p.data)
        np.testing.assert_array_equal(bundle.opt_state.m["tok_emb"],
                                      state.m["tok_emb"])

        second = str(tmp_path / "second.ckpt")
        save_checkpoint(second, bundle.config, bundle.strategy, bundle.step,
                        bundle.vocab, bundle.params, bundle.opt_state,
                        bundle.rng_states)
        assert open(path, "rb").read() == open(second, "rb").read()

    def test_config_mismatch_rejected(self, data_dir, tmp_path):
        out = str(tmp_path / "run")
        _, _, handles = run_plan(tiny_config(), tiny_plan(data_dir, out))
        other = replace(tiny_config(), hidden=32)
        for resume in (handles.checkpoint_path,
                       load_checkpoint(handles.checkpoint_path)):
            with pytest.raises(ConfigMismatchError, match="hidden=32"):
                run_plan(other, tiny_plan(data_dir, str(tmp_path / "again")),
                         resume=resume)

    def test_corrupt_magic(self, tmp_path):
        path, *_ = self._roundtrip_setup(tmp_path)
        blob = bytearray(open(path, "rb").read())
        blob[0] ^= 0xFF
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(bytes(blob))
        with pytest.raises(IntegrityError):
            load_checkpoint(str(bad))

    def test_truncated_blob_reports_offset(self, tmp_path):
        path, *_ = self._roundtrip_setup(tmp_path)
        blob = open(path, "rb").read()
        bad = tmp_path / "trunc.ckpt"
        bad.write_bytes(blob[:len(blob) // 2])
        with pytest.raises(IntegrityError, match="offset"):
            load_checkpoint(str(bad))


    @pytest.mark.parametrize("damage,named", [
        ("missing", "'layer0.ffn.w2'"),
        ("extra", "'param.stray'"),
        ("misshaped", "'param.layer0.ffn.w2'"),
        ("misshaped_moment", "'opt.m.tok_emb'"),
        ("orphan_moment", "'opt.v.stray'"),
    ])
    def test_tensor_that_does_not_fit_the_config_rejected(self, tmp_path,
                                                          damage, named):
        vocab = build_vocab(["aa bb cc dd"], target_size=24)
        config = tiny_config(vocab.size)
        params = init_params(config, np.random.default_rng(0))
        state = OptimizerState(kind="lamb", total_steps=10)
        if damage == "missing":
            del params["layer0.ffn.w2"]
        elif damage == "extra":
            params["stray"] = params["tok_emb"]
        elif damage == "misshaped":
            params["layer0.ffn.w2"] = params["layer0.ffn.w1"]
        elif damage == "misshaped_moment":
            state.m = {"tok_emb": np.ones(3, dtype=np.float32)}
        else:
            state.v = {"stray": np.ones(3, dtype=np.float32)}
        path = str(tmp_path / "bad.ckpt")
        save_checkpoint(path, config, "cmlm_only", 0, vocab, params, state, {})
        with pytest.raises(IntegrityError, match=named):
            load_checkpoint(path)

    @pytest.mark.parametrize("edit,named", [
        (manifest_without("", "optimizer"), "lacks 'optimizer'"),
        (manifest_without("", "config"), "lacks 'config'"),
        (manifest_without("optimizer", "kind"), "lacks 'optimizer.kind'"),
        (manifest_without("config", "hidden"), "lacks 'config.hidden'"),
        (manifest_setting("", "extra", 1), "unknown key 'extra'"),
        (manifest_setting("config", "bogus", 1), "unknown key 'config.bogus'"),
        (manifest_setting("", "step", "7"), "'step' must be of type int"),
        (manifest_setting("", "vocab", "aa bb"), "'vocab' must be of type list"),
        (manifest_setting("", "vocab", [0, 1]), "'vocab' must list strings"),
        (manifest_setting("", "strategy", "s9"), "'strategy' must be one of"),
        (manifest_setting("optimizer", "step", None), "'optimizer.step' must be of type int"),
        (manifest_setting("optimizer", "kind", "sgd"), "'optimizer'.*sgd"),
        (manifest_setting("optimizer", "beta1", 1), r"'optimizer'.*beta1 must lie"),
        (manifest_setting("optimizer", "eps", 0), "'optimizer'.*eps must be > 0"),
        (manifest_setting("optimizer", "weight_decay", -1),
         "'optimizer'.*weight_decay must be >= 0"),
        (manifest_setting("optimizer", "learning_rate", -0.5),
         "'optimizer'.*learning_rate must be >= 0"),
        (manifest_setting("config", "hidden", 16.0), "'config.hidden' must be of type int"),
        (manifest_setting("config", "dropout", True), "'config.dropout' must be of type float"),
        (manifest_setting("config", "pooling", "bogus"), "'config'.*pooling.*bogus"),
        (manifest_setting("config", "layers", 0), "'config'.*layers must be >= 1"),
        (manifest_setting("rngs", "mask", 5), "'rngs.mask' is not a PCG64 state"),
        (manifest_setting("rngs", "shuffle", {}), "unknown key 'rngs.shuffle'"),
        (lambda manifest: [manifest], "not a JSON object"),
        (lambda manifest: dict(manifest, vocab=manifest["vocab"] + ["zz"]),
         "'vocab' has 15 tokens, more than 'config.vocab_size' 14"),
    ])
    def test_bad_manifest_key_is_an_integrity_error(self, tmp_path, edit, named):
        path, *_ = self._roundtrip_setup(tmp_path)
        bad = rewrite_manifest(path, tmp_path / "bad.ckpt", edit)
        with pytest.raises(IntegrityError, match=named):
            load_checkpoint(bad)

    def test_rewritten_intact_manifest_still_loads(self, tmp_path):
        path, config, params, _ = self._roundtrip_setup(tmp_path)
        same = rewrite_manifest(path, tmp_path / "same.ckpt", lambda m: m)
        bundle = load_checkpoint(same)
        assert bundle.config == config and bundle.step == 7
        np.testing.assert_array_equal(bundle.params["tok_emb"].data,
                                      params["tok_emb"].data)

    def test_trailing_bytes_rejected(self, tmp_path):
        path, *_ = self._roundtrip_setup(tmp_path)
        size = os.path.getsize(path)
        with open(path, "ab") as fh:
            fh.write(b"\0")
        with pytest.raises(IntegrityError, match="after its last tensor") as info:
            load_checkpoint(path)
        assert info.value.offset == size

    def test_moments_saved_after_a_step_reload_per_name(self, tmp_path):
        vocab = build_vocab(["aa bb cc dd"], target_size=24)
        config = tiny_config(vocab.size)
        params = init_params(config, np.random.default_rng(0))
        state = OptimizerState(kind="lamb", total_steps=10)
        optimizer_step(params, {n: np.ones_like(p.data) for n, p in params.items()},
                       state)
        path = str(tmp_path / "step.ckpt")
        save_checkpoint(path, config, "cmlm_only", 1, vocab, params, state, {})
        bundle = load_checkpoint(path)
        assert set(bundle.opt_state.m) == set(bundle.opt_state.v) == set(params)
        for name in params:
            np.testing.assert_array_equal(bundle.opt_state.m[name], state.m[name])
            np.testing.assert_array_equal(bundle.opt_state.v[name], state.v[name])
            np.testing.assert_array_equal(bundle.params[name].data,
                                          params[name].data)


class TestRunPlan:
    def test_deterministic_histories(self, data_dir, tmp_path):
        out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
        _, hist_a, _ = run_plan(tiny_config(), tiny_plan(data_dir, out_a))
        _, hist_b, _ = run_plan(tiny_config(), tiny_plan(data_dir, out_b))
        assert hist_a == hist_b
        assert open(os.path.join(out_a, "metrics.jsonl"), "rb").read() == \
            open(os.path.join(out_b, "metrics.jsonl"), "rb").read()
        assert open(os.path.join(out_a, "checkpoint.ckpt"), "rb").read() == \
            open(os.path.join(out_b, "checkpoint.ckpt"), "rb").read()

    def test_s3_with_empty_stage2_matches_cmlm_only(self, data_dir, tmp_path):
        plan_a = tiny_plan(data_dir, str(tmp_path / "a"), strategy="s3",
                           stage1_steps=10, stage2_steps=0)
        plan_b = tiny_plan(data_dir, str(tmp_path / "b"), strategy="cmlm_only",
                           stage1_steps=10)
        _, hist_a, _ = run_plan(tiny_config(), plan_a)
        _, hist_b, _ = run_plan(tiny_config(), plan_b)
        assert [h["loss"] for h in hist_a] == [h["loss"] for h in hist_b]

    def test_joint_stage_records_both_losses(self, data_dir, tmp_path):
        plan = tiny_plan(data_dir, str(tmp_path / "j"), strategy="s1",
                         stage1_steps=4)
        _, hist, _ = run_plan(tiny_config(), plan)
        for rec in hist:
            assert rec["stage"] == "joint"
            np.testing.assert_allclose(
                rec["loss"], rec["cmlm_loss"] + plan.alpha * rec["br_loss"],
                rtol=1e-6)

    def test_lr_schedule_is_piecewise_linear(self, data_dir, tmp_path):
        plan = tiny_plan(data_dir, str(tmp_path / "lr"), stage1_steps=12,
                         warmup_steps=4)
        _, hist, _ = run_plan(tiny_config(), plan)
        lrs = [rec["lr"] for rec in hist]
        assert lrs[0] == 0.0
        assert np.argmax(lrs) == 4
        assert lrs[4] == plan.learning_rate
        np.testing.assert_allclose(np.diff(lrs[:5]), plan.learning_rate / 4)
        np.testing.assert_allclose(np.diff(lrs[4:]), -plan.learning_rate / 8,
                                   rtol=1e-9)

    def test_masked_accuracy_improves(self, data_dir, tmp_path):
        plan = tiny_plan(data_dir, str(tmp_path / "m"), stage1_steps=300,
                         batch_size=8, num_mask=4, checkpoint_every=400,
                         warmup_steps=20, learning_rate=1e-2)
        _, hist, _ = run_plan(tiny_config(), plan)
        early = np.mean([h["masked_acc"] for h in hist[:20]])
        late = np.mean([h["masked_acc"] for h in hist[-20:]])
        assert late > early + 0.08

    def test_cls_pooling_trains(self, data_dir, tmp_path):
        config = EncoderConfig(vocab_size=128, layers=1, heads=2, hidden=16,
                               ff=32, max_len=16, n_projections=2,
                               pooling="cls", dropout=0.0)
        plan = tiny_plan(data_dir, str(tmp_path / "cls"), stage1_steps=3)
        _, hist, handles = run_plan(config, plan)
        assert len(hist) == 3
        from cmlmkit.model import embed_sentence
        params, _, _ = run_plan(config, plan)
        vec = embed_sentence("dupo", params, handles.config, handles.vocab)
        assert vec.shape == (16,)

    def test_nli_finetune_stage_runs(self, data_dir, tmp_path):
        plan = tiny_plan(data_dir, str(tmp_path / "n"), strategy="s3",
                         stage1_steps=4, stage2_steps=4, nli_steps=4)
        _, hist, _ = run_plan(tiny_config(), plan)
        stages = [h["stage"] for h in hist]
        assert stages == ["cmlm"] * 4 + ["joint"] * 4 + ["nli"] * 4
        assert all("nli_acc" in h for h in hist[-4:])


def crash_after(steps, plan, monkeypatch):
    """Run ``plan`` and interrupt it inside optimizer step ``steps``."""
    calls = {"n": 0}
    real_step = training.optimizer_step

    def dying_step(params, grads, state):
        if calls["n"] == steps:
            raise KeyboardInterrupt
        calls["n"] += 1
        return real_step(params, grads, state)

    monkeypatch.setattr(training, "optimizer_step", dying_step)
    with pytest.raises(KeyboardInterrupt):
        run_plan(tiny_config(), plan)
    monkeypatch.setattr(training, "optimizer_step", real_step)


# Runs the plan given as JSON (config, plan) in a process of its own, which
# ends with os._exit(9) right after writing the checkpoint of step argv[3].
_KILL_AFTER_CHECKPOINT = """
import json, os, sys
from cmlmkit import training
from cmlmkit.model import EncoderConfig
config, plan = json.loads(sys.argv[1]), json.loads(sys.argv[2])
real_save = training.save_checkpoint

def save_then_die(path, config, strategy, step, *rest):
    real_save(path, config, strategy, step, *rest)
    if step == int(sys.argv[3]):
        os._exit(9)

training.save_checkpoint = save_then_die
training.run_plan(EncoderConfig(**config), training.TrainPlan(**plan))
"""


def kill_after_checkpoint(step, config, plan):
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(training.__file__)))
    done = subprocess.run(
        [sys.executable, "-c", _KILL_AFTER_CHECKPOINT,
         json.dumps(config.to_dict()), json.dumps(asdict(plan)), str(step)],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 9, done.stderr


class TestResumeAndDivergence:
    @pytest.mark.parametrize("kill_at", [3, 6, 12],
                             ids=["mid-stage", "stage-boundary", "last-step"])
    def test_hard_kill_after_a_checkpoint_resumes_to_the_same_run(
            self, data_dir, tmp_path, kill_at):
        schedule = dict(strategy="s3", stage1_steps=6, stage2_steps=6,
                        checkpoint_every=3)
        full = str(tmp_path / "full")
        run_plan(tiny_config(), tiny_plan(data_dir, full, **schedule))

        killed = str(tmp_path / "killed")
        kill_after_checkpoint(kill_at, tiny_config(),
                              tiny_plan(data_dir, killed, **schedule))
        ckpt = os.path.join(killed, "checkpoint.ckpt")
        assert load_checkpoint(ckpt).step == kill_at
        run_plan(tiny_config(), tiny_plan(data_dir, killed, **schedule),
                 resume=ckpt)
        for name in ("metrics.jsonl", "checkpoint.ckpt"):
            assert open(os.path.join(killed, name), "rb").read() == \
                open(os.path.join(full, name), "rb").read(), name
        assert not os.path.exists(os.path.join(killed, "metrics.jsonl.tmp"))

    def test_resume_equivalence_bitwise(self, data_dir, tmp_path, monkeypatch):
        # uninterrupted run
        plan_full = tiny_plan(data_dir, str(tmp_path / "full"), stage1_steps=12,
                              checkpoint_every=4)
        run_plan(tiny_config(), plan_full)
        full_bytes = open(os.path.join(str(tmp_path / "full"),
                                       "checkpoint.ckpt"), "rb").read()

        # crash after 8 steps, leaving the step-8 rolling checkpoint behind
        plan_crash = tiny_plan(data_dir, str(tmp_path / "crash"), stage1_steps=12,
                               checkpoint_every=4)
        crash_after(8, plan_crash, monkeypatch)

        crash_ckpt = os.path.join(str(tmp_path / "crash"), "checkpoint.ckpt")
        assert load_checkpoint(crash_ckpt).step == 8

        # resume and compare the final artifacts byte for byte
        plan_resume = tiny_plan(data_dir, str(tmp_path / "crash"), stage1_steps=12,
                                checkpoint_every=4)
        run_plan(tiny_config(), plan_resume, resume=crash_ckpt)
        resumed_bytes = open(crash_ckpt, "rb").read()
        assert resumed_bytes == full_bytes
        assert open(os.path.join(str(tmp_path / "crash"), "metrics.jsonl"),
                    "rb").read() == \
            open(os.path.join(str(tmp_path / "full"), "metrics.jsonl"),
                 "rb").read()

    def test_resume_drops_records_logged_after_the_checkpoint(
            self, data_dir, tmp_path, monkeypatch):
        full = str(tmp_path / "full")
        run_plan(tiny_config(), tiny_plan(data_dir, full, checkpoint_every=4))

        # crash during step 10: steps 0-9 are logged, the checkpoint is at 8
        crash = str(tmp_path / "crash")
        crash_after(10, tiny_plan(data_dir, crash, checkpoint_every=4), monkeypatch)
        log = os.path.join(crash, "metrics.jsonl")
        assert len(open(log).readlines()) == 10

        ckpt = os.path.join(crash, "checkpoint.ckpt")
        assert load_checkpoint(ckpt).step == 8
        run_plan(tiny_config(), tiny_plan(data_dir, crash, checkpoint_every=4),
                 resume=ckpt)
        assert open(log, "rb").read() == \
            open(os.path.join(full, "metrics.jsonl"), "rb").read()

    @pytest.mark.parametrize("key, overrides", [
        ("total_steps", dict(stage1_steps=20)),
        ("learning_rate", dict(learning_rate=2e-3)),
        ("warmup_steps", dict(warmup_steps=2)),
        ("optimizer", dict(optimizer="adam")),
        ("strategy", dict(strategy="s3", stage1_steps=6, stage2_steps=4)),
    ])
    def test_resume_under_a_different_schedule_is_rejected(
            self, data_dir, tmp_path, key, overrides):
        out = str(tmp_path / "run")
        run_plan(tiny_config(), tiny_plan(data_dir, out, stage1_steps=10))
        ckpt = os.path.join(out, "checkpoint.ckpt")
        with pytest.raises(ConfigMismatchError, match=key):
            run_plan(tiny_config(), tiny_plan(data_dir, out, **overrides),
                     resume=ckpt)
        # the refused resume leaves the run's log and checkpoint untouched
        assert load_checkpoint(ckpt).step == 10
        assert len(open(os.path.join(out, "metrics.jsonl")).readlines()) == 10

    def test_divergence_keeps_last_checkpoint(self, data_dir, tmp_path, monkeypatch):
        calls = {"n": 0}
        real_loss = training.cmlm_loss

        def poisoned(*args, **kwargs):
            if calls["n"] == 7:
                raise NonFiniteError("synthetic NaN")
            calls["n"] += 1
            return real_loss(*args, **kwargs)

        monkeypatch.setattr(training, "cmlm_loss", poisoned)
        out = str(tmp_path / "div")
        plan = tiny_plan(data_dir, out, stage1_steps=12, checkpoint_every=5)
        with pytest.raises(TrainingDiverged) as err:
            run_plan(tiny_config(), plan)
        ckpt = os.path.join(out, "checkpoint.ckpt")
        assert err.value.last_checkpoint == ckpt
        assert load_checkpoint(ckpt).step == 5

    @pytest.mark.parametrize("stream", ["bitext", "nli"])
    def test_cls_pair_vectors_equal_embed_texts(self, data_dir, stream):
        # both sides of a drawn pair pool [CLS], as embed_texts does
        from cmlmkit.model import embed_texts

        config = replace(tiny_config(), pooling="cls", dropout=0.0)
        plan = tiny_plan(data_dir, "", strategy="s2", stage1_steps=1,
                         stage2_steps=1, nli_steps=1)
        run = training._Run(config, plan)
        run.params = init_params(run.config, np.random.default_rng(2))
        texts = ([(s, t) for s, t, _, _ in load_bitext(plan.bitext_path)]
                 if stream == "bitext" else
                 [(p, h) for p, h, _ in load_nli(plan.nli_path)])
        # each row carries its two texts after its two token lists
        rows = run._token_pairs((a, b, a, b) for a, b in texts)
        drawn, left, right = run._draw_pairs(stream, rows, None)
        for side, vectors in ((2, left), (3, right)):
            want = embed_texts([row[side] for row in drawn], run.params,
                               run.config, run.vocab)
            np.testing.assert_allclose(vectors.data, want, rtol=1e-5)

    def test_joint_gradient_is_weighted_sum_of_task_gradients(self, data_dir):
        # one manual joint step decomposed with frozen RNG streams
        from cmlmkit.autodiff import GradientTape
        from cmlmkit.losses import BitextBatch, bitext_loss, cmlm_loss, combined_loss

        plan = tiny_plan(data_dir, "", strategy="s1", stage1_steps=1)
        run = training._Run(tiny_config(), plan)
        run.params = init_params(run.config, np.random.default_rng(1))
        snapshot = {name: rng.bit_generator.state
                    for name, rng in run.rngs.items()}

        def restore():
            for name, state in snapshot.items():
                run.rngs[name].bit_generator.state = state

        alpha = 0.3
        restore()
        batch = run._draw_cmlm_batch()
        with GradientTape() as tape:
            l_cmlm, _ = cmlm_loss(batch, run.params, run.config)
            _, src, tgt = run._draw_pairs("bitext", run.bitext, None)
            l_br = bitext_loss(BitextBatch(src, tgt, plan.margin))
            combo = combined_loss(l_cmlm, l_br, alpha)
        g_combo = tape.gradients(combo, run.params)

        restore()
        batch = run._draw_cmlm_batch()
        with GradientTape() as tape1:
            l1, _ = cmlm_loss(batch, run.params, run.config)
        g1 = tape1.gradients(l1, run.params)
        with GradientTape() as tape2:
            _, src, tgt = run._draw_pairs("bitext", run.bitext, None)
            l2 = bitext_loss(BitextBatch(src, tgt, plan.margin))
        g2 = tape2.gradients(l2, run.params)

        for name in run.params:
            np.testing.assert_allclose(g_combo[name], g1[name] + alpha * g2[name],
                                       atol=1e-5)
