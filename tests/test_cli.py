import json
import os
import subprocess
import sys

import numpy as np
import pytest

import cmlmkit
from cmlmkit import records
from cmlmkit.cli import (EXIT_DATA, EXIT_OK, EXIT_USAGE, build_parser,
                         dispatch)
from cmlmkit.config import RunConfig
from cmlmkit.errors import ContractError, IntegrityError
from cmlmkit.evaluation import (EMBEDDING_MAGIC, EMBEDDING_VERSION, EmbeddingSet,
                                load_embeddings, save_embeddings)
from cmlmkit.synth import SynthSpec, generate
from cmlmkit.training import load_checkpoint, save_checkpoint
from test_training import manifest_setting, manifest_without, rewrite_manifest


def run_cli(argv, capsys):
    code = dispatch(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("cli_synth"))
    code = dispatch(["gen-synth", "--out", out, "--seed", "3",
                     "--words", "12", "--sentence-len", "3", "--docs", "80",
                     "--bitext-pairs", "60", "--heldout", "8",
                     "--nli-pairs", "30"])
    assert code == EXIT_OK
    return out


@pytest.fixture(scope="module")
def trained(tmp_path_factory, synth_dir):
    out = str(tmp_path_factory.mktemp("cli_train"))
    code = dispatch([
        "train", "--corpus", os.path.join(synth_dir, "corpus.txt"),
        "--out", out, "--seed", "4", "--stage1-steps", "12",
        "--batch-size", "4", "--mask-count", "2", "--warmup-steps", "4",
        "--n-proj", "3", "--vocab-size", "96",
        "--config", _tiny_config_file(tmp_path_factory)])
    assert code == EXIT_OK
    return out


def _tiny_config_file(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("cfg") / "tiny.cfg")
    RunConfig(layers=1, heads=2, hidden=16, ff=32, max_len=16,
              checkpoint_every=50).to_file(path)
    return path


class TestConfigFile:
    def test_round_trip(self, tmp_path):
        cfg = RunConfig(hidden=48, strategy="s3", stage1_steps=7, stage2_steps=3,
                        corpus_path="/data/c.txt")
        path = str(tmp_path / "run.cfg")
        cfg.to_file(path)
        assert RunConfig.from_file(path) == cfg

    @pytest.mark.parametrize("value", [
        "data/run#1/corpus.txt", " out ", "out ", "\tout", "a\nb", "a\rb"])
    def test_value_that_would_not_read_back_is_refused(self, tmp_path, value):
        path = tmp_path / "run.cfg"
        with pytest.raises(ContractError, match="corpus_path"):
            RunConfig(corpus_path=value).to_file(str(path))
        assert not path.exists()
        # what does round-trip: an '=' in a value, an inner space, empty
        for fine in ("data/a=b c.txt", ""):
            RunConfig(corpus_path=fine).to_file(str(path))
            assert RunConfig.from_file(str(path)).corpus_path == fine

    def test_comments_and_blanks(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("# a comment\n\nhidden = 32  # trailing\nseed = 9\n")
        cfg = RunConfig.from_file(str(path))
        assert cfg.hidden == 32
        assert cfg.seed == 9

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("hiden = 32\n")
        with pytest.raises(ContractError, match="hiden"):
            RunConfig.from_file(str(path))

    def test_bad_value_type_rejected(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("hidden = not_a_number\n")
        with pytest.raises(ContractError):
            RunConfig.from_file(str(path))

    def test_duplicate_key_rejected(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("hidden = 32\nhidden = 64\n")
        with pytest.raises(ContractError):
            RunConfig.from_file(str(path))


class TestExitCodes:
    def test_unknown_subcommand_is_usage_error(self, capsys):
        code, _, err = run_cli(["frobnicate"], capsys)
        assert code == EXIT_USAGE
        assert "usage" in err.lower()

    def test_unknown_flag_is_usage_error(self, capsys):
        code, _, _ = run_cli(["gen-synth", "--out", "x", "--bogus"], capsys)
        assert code == EXIT_USAGE

    def test_missing_file_is_data_error(self, capsys):
        code, _, _ = run_cli(["pcr", "--in", "/nonexistent.emb",
                              "--out", "/tmp/x.emb"], capsys)
        assert code == EXIT_DATA

    def test_help_exits_zero_everywhere(self, capsys):
        parser = build_parser()
        subcommands = ["gen-synth", "train", "embed", "eval-retrieval",
                       "probe", "sts", "pcr", "bias-hist", "plot2d",
                       "ablate-n"]
        for name in subcommands:
            with pytest.raises(SystemExit) as exc:
                parser.parse_args([name, "--help"])
            assert exc.value.code == 0
            help_text = capsys.readouterr().out
            assert name in help_text or "usage" in help_text.lower()

    @pytest.mark.parametrize("line,named", [
        ("layers = 0", "layers"), ("heads = 0", "heads"), ("hidden = 0", "hidden"),
        ("ff = 0", "ff"), ("max_len = 0", "max_len"), ("dropout = 1.0", "dropout"),
    ])
    def test_out_of_range_config_is_usage_error(self, tmp_path, capsys,
                                                line, named):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        code, _, err = run_cli(["train", "--config", str(cfg), "--corpus",
                                str(tmp_path / "c.txt"), "--out",
                                str(tmp_path / "run")], capsys)
        assert code == EXIT_USAGE
        assert f"{named} must be" in err and "Traceback" not in err

    def test_out_of_range_flag_is_usage_error(self, tmp_path, capsys):
        code, _, err = run_cli(["train", "--n-proj", "0", "--corpus",
                                str(tmp_path / "c.txt"), "--out",
                                str(tmp_path / "run")], capsys)
        assert code == EXIT_USAGE and "n_projections must be" in err

    @pytest.mark.parametrize("line,flags,named", [
        ("log_every = 0", [], "log_every"),
        ("checkpoint_every = 0", [], "checkpoint_every"),
        ("", ["--batch-size", "0"], "batch_size"),
        ("", ["--strategy", "s2", "--stage2-steps", "3", "--margin", "-1"],
         "margin"),
        ("", ["--strategy", "s2", "--stage2-steps", "3", "--batch-size", "1"],
         "batch_size"),
        ("", ["--mask-count", "-1"], "num_mask"),
        ("", ["--nli-steps", "-5"], "nli_steps"),
        ("", ["--learning-rate", "-1"], "learning_rate"),
        ("", ["--warmup-steps", "-4"], "warmup_steps"),
        ("weight_decay = -0.1", [], "weight_decay"),
    ])
    def test_plan_value_below_its_floor_is_refused_before_training(
            self, synth_dir, tmp_path, capsys, line, flags, named):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        out = tmp_path / "run"
        code, _, err = run_cli([
            "train", "--config", str(cfg),
            "--corpus", os.path.join(synth_dir, "corpus.txt"),
            "--bitext", os.path.join(synth_dir, "bitext.tsv"),
            "--stage1-steps", "3", "--out", str(out), *flags], capsys)
        assert code == EXIT_USAGE
        assert f"{named} must be >= " in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("line,message", [
        ("variant = bogus", "variant must be one of"),
        ("optimizer = sgd", "optimizer kind must be adam or lamb"),
        ("beta1 = 1", "beta1 must lie in [0, 1)"),
        ("beta2 = 1", "beta2 must lie in [0, 1)"),
        ("eps = 0", "eps must be > 0"),
    ])
    def test_bad_variant_or_optimizer_setting_writes_nothing(
            self, synth_dir, tmp_path, capsys, line, message):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        out = tmp_path / "run"
        out.mkdir()
        code, _, err = run_cli([
            "train", "--config", str(cfg),
            "--corpus", os.path.join(synth_dir, "corpus.txt"),
            "--stage1-steps", "3", "--out", str(out)], capsys)
        assert code == EXIT_USAGE
        assert message in err and "Traceback" not in err
        assert os.listdir(out) == []

    def test_no_subcommand_prints_usage(self, capsys):
        code, _, err = run_cli([], capsys)
        assert code == EXIT_USAGE
        assert "usage" in err.lower()

    def test_cmlm_log_env_sets_verbosity(self, monkeypatch, tmp_path, capsys):
        import logging
        monkeypatch.setenv("CMLM_LOG", "debug")
        run_cli(["gen-synth", "--out", str(tmp_path / "v"), "--docs", "4",
                 "--words", "6", "--bitext-pairs", "4", "--heldout", "2",
                 "--nli-pairs", "3"], capsys)
        assert logging.getLogger("cmlm").getEffectiveLevel() <= logging.DEBUG


class TestGenSynth:
    def test_outputs_exist_and_parse(self, synth_dir):
        for name in ("corpus.txt", "bitext.tsv", "bitext_heldout.tsv",
                     "nli.tsv"):
            assert os.path.exists(os.path.join(synth_dir, name))
        bitext = open(os.path.join(synth_dir, "bitext.tsv")).read().splitlines()
        assert all(len(line.split("\t")) == 4 for line in bitext)

    def test_deterministic_bytes(self, tmp_path, capsys):
        args = ["gen-synth", "--seed", "9", "--words", "8",
                "--docs", "10", "--bitext-pairs", "8", "--heldout", "4",
                "--nli-pairs", "6"]
        run_cli(args + ["--out", str(tmp_path / "a")], capsys)
        run_cli(args + ["--out", str(tmp_path / "b")], capsys)
        for name in ("corpus.txt", "bitext.tsv", "nli.tsv"):
            assert open(tmp_path / "a" / name, "rb").read() == \
                open(tmp_path / "b" / name, "rb").read()

    @pytest.mark.parametrize("flags", [
        ["--sentence-len", "1"],
        ["--sentence-len", "0"],
        ["--words", "6", "--sentence-len", "4"],
        ["--words", "1"],
        ["--words", "1", "--bitext-pairs", "0", "--heldout", "0"],
        ["--words", "3", "--sentence-len", "3", "--bitext-pairs", "10",
         "--heldout", "2"],
        ["--docs", "-1"],
        ["--languages", "1"],
        ["--languages", "2", "--words", "174000"],
    ], ids=" ".join)
    def test_unsatisfiable_spec_exits_1_before_drawing(self, flags, tmp_path):
        # a process of its own, so a generator that never ends fails the
        # test at the timeout instead of stalling the suite
        out = str(tmp_path / "data")
        env = dict(os.environ,
                   PYTHONPATH=os.path.dirname(os.path.dirname(cmlmkit.__file__)))
        done = subprocess.run(
            [sys.executable, "-c", "import sys\n"
             "from cmlmkit.cli import dispatch\n"
             "sys.exit(dispatch(sys.argv[1:]))\n",
             "gen-synth", "--out", out, *flags],
            env=env, capture_output=True, text=True, timeout=10)
        assert done.returncode == EXIT_USAGE, done.stderr
        assert done.stderr.startswith("error: ")
        assert "Traceback" not in done.stderr
        assert not os.path.exists(out)

    @pytest.mark.parametrize("spec", [
        # as many bitext and held-out pairs as distinct sentences
        dict(words_per_language=3, sentence_len=2, n_bitext=8, n_heldout=1,
             n_nli=0),
        # one word more than a premise can use
        dict(words_per_language=4, sentence_len=3, n_bitext=5, n_heldout=1,
             n_nli=9),
    ])
    def test_spec_at_its_limits_is_generated(self, spec, tmp_path):
        paths = generate(str(tmp_path), seed=0, spec=SynthSpec(
            n_languages=2, n_docs=4, **spec))
        sources = [line.split("\t")[0] for name in ("bitext", "bitext_heldout")
                   for line in open(paths[name]).read().splitlines()]
        assert len(sources) == len(set(sources)) == \
            spec["n_bitext"] + spec["n_heldout"]
        assert len(open(paths["nli"]).read().splitlines()) == spec["n_nli"]


class TestTrainEmbedEval:
    def test_train_emits_checkpoint_and_metrics(self, trained, capsys):
        assert os.path.exists(os.path.join(trained, "checkpoint.ckpt"))
        assert os.path.exists(os.path.join(trained, "metrics.jsonl"))
        with open(os.path.join(trained, "metrics.jsonl")) as fh:
            records = [json.loads(line) for line in fh]
        assert len(records) == 12
        assert all("loss" in r for r in records)

    def test_embed_and_eval_retrieval(self, trained, synth_dir, tmp_path,
                                      capsys):
        heldout = os.path.join(synth_dir, "bitext_heldout.tsv")
        src_corpus = tmp_path / "src.txt"
        tgt_corpus = tmp_path / "tgt.txt"
        rows = [line.split("\t") for line in open(heldout).read().splitlines()]
        src_corpus.write_text("".join(f"{r[2]}\t{r[0]}\n" for r in rows))
        tgt_corpus.write_text("".join(f"{r[3]}\t{r[1]}\n" for r in rows))
        ckpt = os.path.join(trained, "checkpoint.ckpt")

        code, out, _ = run_cli(["embed", "--ckpt", ckpt, "--in",
                                str(src_corpus), "--out",
                                str(tmp_path / "src.emb")], capsys)
        assert code == EXIT_OK
        assert json.loads(out)["count"] == len(rows)
        code, _, _ = run_cli(["embed", "--ckpt", ckpt, "--in",
                              str(tgt_corpus), "--out",
                              str(tmp_path / "tgt.emb")], capsys)
        assert code == EXIT_OK

        code, out, _ = run_cli(["eval-retrieval", "--queries",
                                str(tmp_path / "src.emb"), "--candidates",
                                str(tmp_path / "tgt.emb")], capsys)
        assert code == EXIT_OK
        payload = json.loads(out)
        assert 0.0 <= payload["retrieval_accuracy"] <= 1.0

    def test_checkpoint_missing_a_tensor_is_integrity_error(self, trained,
                                                            tmp_path, capsys):
        bundle = load_checkpoint(os.path.join(trained, "checkpoint.ckpt"))
        del bundle.params["layer0.ffn.w2"]
        ckpt = str(tmp_path / "lacking.ckpt")
        save_checkpoint(ckpt, bundle.config, bundle.strategy, bundle.step,
                        bundle.vocab, bundle.params, bundle.opt_state,
                        bundle.rng_states)
        corpus = tmp_path / "in.txt"
        corpus.write_text("la\thello there\n")
        code, _, err = run_cli(["embed", "--ckpt", ckpt, "--in", str(corpus),
                                "--out", str(tmp_path / "x.emb")], capsys)
        assert code == EXIT_DATA
        assert "'layer0.ffn.w2'" in err and "Traceback" not in err
        assert not os.path.exists(tmp_path / "x.emb")

    @pytest.mark.parametrize("edit,named", [
        (manifest_without("", "optimizer"), "lacks 'optimizer'"),
        (manifest_setting("config", "pooling", "bogus"), "pooling"),
    ])
    def test_bad_manifest_is_integrity_error(self, trained, tmp_path, capsys,
                                             edit, named):
        ckpt = rewrite_manifest(os.path.join(trained, "checkpoint.ckpt"),
                                tmp_path / "bad.ckpt", edit)
        corpus = tmp_path / "in.txt"
        corpus.write_text("la\thello there\n")
        code, _, err = run_cli(["embed", "--ckpt", ckpt, "--in", str(corpus),
                                "--out", str(tmp_path / "x.emb")], capsys)
        assert code == EXIT_DATA
        assert named in err and "Traceback" not in err
        assert not os.path.exists(tmp_path / "x.emb")

    def test_train_determinism_bytes(self, synth_dir, tmp_path, capsys):
        args = ["train", "--corpus", os.path.join(synth_dir, "corpus.txt"),
                "--seed", "7", "--stage1-steps", "8", "--batch-size", "4",
                "--mask-count", "2", "--warmup-steps", "2", "--n-proj", "2",
                "--vocab-size", "96"]
        cfgfile = str(tmp_path / "d.cfg")
        RunConfig(layers=1, heads=2, hidden=16, ff=32, max_len=16).to_file(cfgfile)
        run_cli(args + ["--config", cfgfile, "--out", str(tmp_path / "r1")],
                capsys)
        run_cli(args + ["--config", cfgfile, "--out", str(tmp_path / "r2")],
                capsys)
        assert open(tmp_path / "r1" / "checkpoint.ckpt", "rb").read() == \
            open(tmp_path / "r2" / "checkpoint.ckpt", "rb").read()
        assert open(tmp_path / "r1" / "metrics.jsonl", "rb").read() == \
            open(tmp_path / "r2" / "metrics.jsonl", "rb").read()


class TestAnalysisCommands:
    def _offset_file(self, tmp_path, name="o.emb", n=40):
        rng = np.random.default_rng(12)
        base = rng.standard_normal((n, 8)) * rng.uniform(0.5, 2.0, size=(n, 1))
        off = np.zeros(8)
        off[0] = 25.0
        es = EmbeddingSet(
            np.concatenate([base + off, base - off]).astype(np.float32),
            ["la"] * n + ["lb"] * n)
        path = str(tmp_path / name)
        save_embeddings(es, path)
        return path, n

    def test_pcr_then_bias_hist_mass_shift(self, tmp_path, capsys):
        # queries are one language's rows; they sit first in the pool file,
        # so the default row-index ids line up for self-exclusion
        path, n = self._offset_file(tmp_path)
        debiased = str(tmp_path / "d.emb")
        code, _, _ = run_cli(["pcr", "--in", path, "--out", debiased], capsys)
        assert code == EXIT_OK

        for emb, bucket in ((path, "before"), (debiased, "after")):
            es = load_embeddings(emb)
            queries = EmbeddingSet(es.vectors[:n], ["la"] * n)
            save_embeddings(queries, str(tmp_path / f"q_{bucket}.emb"))

        code, out, _ = run_cli(["bias-hist", "--queries",
                                str(tmp_path / "q_before.emb"), "--pool",
                                path, "--k", "5"], capsys)
        assert code == EXIT_OK
        before = json.loads(out.strip().splitlines()[-1])

        code, out, _ = run_cli(["bias-hist", "--queries",
                                str(tmp_path / "q_after.emb"), "--pool",
                                debiased, "--k", "5"], capsys)
        assert code == EXIT_OK
        after = json.loads(out.strip().splitlines()[-1])
        assert before["la"] > 0.9
        assert after["la"] < 0.6

    def test_bias_hist_refuses_too_few_rows_after_exclusion(self, tmp_path,
                                                             capsys):
        pool = str(tmp_path / "pool.emb")
        queries = str(tmp_path / "q.emb")
        save_embeddings(EmbeddingSet(np.eye(3, dtype=np.float32),
                                     ["a", "a", "b"], ["s0", "s0", "s1"]), pool)
        save_embeddings(EmbeddingSet(np.eye(3, dtype=np.float32)[:1], ["a"],
                                     ["s0"]), queries)
        code, out, err = run_cli(["bias-hist", "--queries", queries, "--pool",
                                  pool, "--k", "2"], capsys)
        assert code == EXIT_USAGE
        assert out == ""
        assert "query 0 (id 's0', language 'a') keeps 1 pool rows" in err

    def test_plot2d_outputs(self, tmp_path, capsys):
        path, _ = self._offset_file(tmp_path, "p.emb", n=20)
        code, _, _ = run_cli(["plot2d", "--in", path, "--out-csv",
                              str(tmp_path / "p.csv"), "--out-svg",
                              str(tmp_path / "p.svg")], capsys)
        assert code == EXIT_OK
        csv = (tmp_path / "p.csv").read_text().splitlines()
        assert csv[0] == "id,lang,x,y"
        assert len(csv) == 41

    def test_probe_and_sts(self, tmp_path, capsys):
        rng = np.random.default_rng(13)
        x = np.concatenate([rng.standard_normal((40, 6)) + 3,
                            rng.standard_normal((40, 6)) - 3])
        order = rng.permutation(80)
        x = x[order].astype(np.float32)
        labels = np.array(["p"] * 40 + ["n"] * 40)[order]
        train = str(tmp_path / "train.emb")
        test = str(tmp_path / "test.emb")
        save_embeddings(EmbeddingSet(x[:60], ["x"] * 60), train)
        save_embeddings(EmbeddingSet(x[60:], ["x"] * 20), test)
        (tmp_path / "train.lab").write_text("\n".join(labels[:60]) + "\n")
        (tmp_path / "test.lab").write_text("\n".join(labels[60:]) + "\n")
        code, out, _ = run_cli(["probe", "--train-emb", train,
                                "--train-labels", str(tmp_path / "train.lab"),
                                "--test-emb", test, "--test-labels",
                                str(tmp_path / "test.lab")], capsys)
        assert code == EXIT_OK
        assert json.loads(out)["probe_accuracy"] >= 0.95

        a = str(tmp_path / "a.emb")
        b = str(tmp_path / "b.emb")
        va = rng.standard_normal((12, 4)).astype(np.float32)
        vb = rng.standard_normal((12, 4)).astype(np.float32)
        save_embeddings(EmbeddingSet(va, ["x"] * 12), a)
        save_embeddings(EmbeddingSet(vb, ["x"] * 12), b)
        cos = np.sum(va * vb, axis=1) / (np.linalg.norm(va, axis=1) *
                                         np.linalg.norm(vb, axis=1))
        (tmp_path / "gold.txt").write_text(
            "\n".join(str(v) for v in cos) + "\n")
        code, out, _ = run_cli(["sts", "--emb-a", a, "--emb-b", b, "--gold",
                                str(tmp_path / "gold.txt")], capsys)
        assert code == EXIT_OK
        np.testing.assert_allclose(json.loads(out)["spearman"], 1.0, atol=1e-9)


class TestAblateN:
    def test_small_sweep_table(self, synth_dir, tmp_path, capsys):
        cfgfile = str(tmp_path / "a.cfg")
        RunConfig(layers=1, heads=2, hidden=16, ff=32, max_len=16,
                  batch_size=4, num_mask=2, warmup_steps=2,
                  vocab_size=96).to_file(cfgfile)
        out_table = str(tmp_path / "table.tsv")
        code, out, _ = run_cli(
            ["ablate-n", "--corpus", os.path.join(synth_dir, "corpus.txt"),
             "--config", cfgfile, "--values", "1,3", "--steps", "6",
             "--eval-pairs", "8", "--out", out_table], capsys)
        assert code == EXIT_OK
        lines = open(out_table).read().strip().splitlines()
        assert lines[0].split("\t") == ["n", "variant", "masked_acc",
                                        "pair_retrieval", "final_loss"]
        body = [line.split("\t") for line in lines[1:]]
        assert len(body) == 2 * 3  # two N values, three variants
        assert {row[0] for row in body} == {"1", "3"}
        assert {row[1] for row in body} == {"standard", "skip", "proj"}

    @pytest.mark.parametrize("flag, sweep", [("--n-proj", "--values"),
                                             ("--variant", "--variants"),
                                             ("--stage1-steps", "--steps")])
    def test_swept_setting_is_rejected(self, synth_dir, flag, sweep, capsys):
        value = "skip" if flag == "--variant" else "3"
        code, _, err = run_cli(
            ["ablate-n", "--corpus", os.path.join(synth_dir, "corpus.txt"),
             flag, value], capsys)
        assert code == EXIT_USAGE
        assert sweep in err and flag in err

    def test_swept_key_in_config_is_rejected(self, synth_dir, tmp_path, capsys):
        cfgfile = str(tmp_path / "n.cfg")
        RunConfig(n_projections=3).to_file(cfgfile)
        code, _, err = run_cli(
            ["ablate-n", "--corpus", os.path.join(synth_dir, "corpus.txt"),
             "--config", cfgfile], capsys)
        assert code == EXIT_USAGE
        assert "n_projections" in err and "--values" in err


class TestCorruptEmbeddingText:
    @pytest.mark.parametrize("field", ["tag", "id"])
    def test_bad_utf8_byte_is_integrity_error(self, field, tmp_path, capsys):
        path = str(tmp_path / "e.emb")
        save_embeddings(EmbeddingSet(np.eye(3, dtype=np.float32),
                                     ["la", "lb", "la"],
                                     ["r0", "r1", "r2"]), path)
        # rewrite the tag or id blob with a 0xFF byte, framed and CRC'd anew
        blob = b"lalb" if field == "tag" else b"r0r1r2"
        offset = open(path, "rb").read().index(blob)
        sections = records.read(path, EMBEDDING_MAGIC, EMBEDDING_VERSION,
                                "embedding file")
        arrays = {name: array for name, (array, _) in sections.items()}
        name = "tags.utf8" if field == "tag" else "ids.utf8"
        arrays[name] = np.frombuffer(b"\xff" + blob[1:], dtype=np.uint8)
        records.write(path, EMBEDDING_MAGIC, EMBEDDING_VERSION,
                      list(arrays.items()))
        assert open(path, "rb").read()[offset] == 0xFF

        with pytest.raises(IntegrityError) as info:
            load_embeddings(path)
        assert info.value.offset == offset
        code, _, err = run_cli(["pcr", "--in", path, "--out",
                                str(tmp_path / "d.emb")], capsys)
        assert code == EXIT_DATA
        assert "UTF-8" in err and f"offset {offset}" in err


BAD = "<bad>"


class TestTextInputs:
    """Every text input goes through one line reader, so a byte that is not
    UTF-8 exits 2 naming the file and its line, whichever input holds it."""

    @pytest.fixture
    def inputs(self, tmp_path, synth_dir, trained, tmp_path_factory):
        """Per input: (a valid file of it, argv reading the bad copy at BAD)."""
        def write(name, text):
            path = str(tmp_path / name)
            open(path, "w", encoding="utf-8").write(text)
            return path
        emb = str(tmp_path / "e.emb")
        other = str(tmp_path / "f.emb")
        save_embeddings(EmbeddingSet(np.eye(3, dtype=np.float32), ["la"] * 3),
                        emb)
        save_embeddings(EmbeddingSet(np.float32([[1, 0, 0], [1, 1, 0], [1, 1, 1]]),
                                     ["la"] * 3), other)
        labels = write("labels.txt", "a\nb\na\n")
        corpus = os.path.join(synth_dir, "corpus.txt")
        train = ["train", "--corpus", corpus, "--out", str(tmp_path / "run"),
                 "--stage1-steps", "2", "--batch-size", "4"]
        return {
            "corpus": (corpus, [*train, "--corpus", BAD]),
            "bitext": (os.path.join(synth_dir, "bitext.tsv"),
                       [*train, "--strategy", "s3", "--stage2-steps", "1",
                        "--bitext", BAD]),
            "nli": (os.path.join(synth_dir, "nli.tsv"),
                    [*train, "--nli-steps", "1", "--nli", BAD]),
            "config": (_tiny_config_file(tmp_path_factory), [*train, "--config", BAD]),
            "embed": (write("in.txt", "la\taa bb\nlb\tcc dd\nee\n"),
                      ["embed", "--ckpt", os.path.join(trained, "checkpoint.ckpt"),
                       "--in", BAD, "--out", str(tmp_path / "o.emb")]),
            "labels": (labels, ["probe", "--train-emb", emb, "--train-labels", BAD,
                                "--test-emb", emb, "--test-labels", labels]),
            "gold": (write("gold.txt", "1\n2\n3\n"),
                     ["sts", "--emb-a", emb, "--emb-b", other, "--gold", BAD]),
        }

    @pytest.mark.parametrize("kind", ["corpus", "bitext", "nli", "config",
                                      "embed", "labels", "gold"])
    def test_bad_byte_on_line_2_exits_2(self, kind, inputs, tmp_path, capsys):
        source, argv = inputs[kind]
        lines = open(source, "rb").read().split(b"\n")
        lines[1] = b"\xff" + lines[1]
        bad = str(tmp_path / f"bad-{kind}")
        open(bad, "wb").write(b"\n".join(lines))
        code, _, err = run_cli([bad if arg == BAD else arg for arg in argv],
                               capsys)
        assert code == EXIT_DATA and "Traceback" not in err
        assert repr(bad) in err and "line 2" in err

    def test_non_numeric_gold_score_exits_2(self, inputs, tmp_path, capsys):
        _, argv = inputs["gold"]
        gold = tmp_path / "words.txt"
        gold.write_text("1\nhigh\n3\n")
        code, _, err = run_cli([str(gold) if arg == BAD else arg for arg in argv],
                               capsys)
        assert code == EXIT_DATA and "Traceback" not in err
        assert repr(str(gold)) in err and "'high'" in err

    @pytest.mark.parametrize("score", ["nan", "inf", "-inf"])
    def test_non_finite_gold_score_exits_2(self, score, inputs, tmp_path,
                                           capsys):
        _, argv = inputs["gold"]
        gold = tmp_path / "gold.txt"
        gold.write_text(f"1\n{score}\n3\n")
        code, out, err = run_cli(
            [str(gold) if arg == BAD else arg for arg in argv], capsys)
        assert code == EXIT_DATA and "Traceback" not in err
        assert "finite" in err and not out

    @pytest.mark.parametrize("kind", ["bitext", "nli"])
    def test_pair_side_with_no_word_exits_2(self, kind, inputs, tmp_path,
                                            capsys):
        source, argv = inputs[kind]
        lines = open(source, encoding="utf-8").read().split("\n")
        lines[1] = "\t".join([" "] + lines[1].split("\t")[1:])
        bad = tmp_path / f"blank-{kind}"
        bad.write_text("\n".join(lines), encoding="utf-8")
        code, _, err = run_cli([str(bad) if arg == BAD else arg
                                for arg in argv], capsys)
        assert code == EXIT_DATA and "Traceback" not in err
        assert repr(str(bad)) in err and "line 2" in err

    @pytest.mark.parametrize("kind, edit", [
        ("bitext", lambda parts: parts[:3]),
        ("nli", lambda parts: parts[:2]),
        ("nli", lambda parts: parts[:2] + ["maybe"] + parts[3:]),
    ], ids=["bitext-fields", "nli-fields", "nli-label"])
    def test_bad_row_exits_2_naming_the_file(self, kind, edit, inputs, tmp_path,
                                             capsys):
        source, argv = inputs[kind]
        lines = open(source, encoding="utf-8").read().split("\n")
        lines[1] = "\t".join(edit(lines[1].split("\t")))
        bad = tmp_path / f"bad-row-{kind}"
        bad.write_text("\n".join(lines), encoding="utf-8")
        code, _, err = run_cli([str(bad) if arg == BAD else arg
                                for arg in argv], capsys)
        assert code == EXIT_DATA and "Traceback" not in err
        assert repr(str(bad)) in err and "line 2" in err

    @pytest.mark.parametrize("kind", ["gold", "embed"])
    def test_directory_as_text_input_exits_2(self, kind, inputs, tmp_path,
                                             capsys):
        _, argv = inputs[kind]
        code, _, err = run_cli([str(tmp_path) if arg == BAD else arg
                                for arg in argv], capsys)
        assert code == EXIT_DATA and str(tmp_path) in err


def test_directory_as_embedding_file_exits_2(tmp_path, capsys):
    code, _, err = run_cli(["pcr", "--in", str(tmp_path),
                            "--out", str(tmp_path / "o.emb")], capsys)
    assert code == EXIT_DATA
    assert "Traceback" not in err and str(tmp_path) in err
