"""Command-line surface for the whole pipeline.

Subcommands: gen-synth, train, embed, eval-retrieval, probe, sts, pcr,
bias-hist, plot2d, ablate-n. Text inputs are UTF-8 with LF, CRLF or CR line
ends. Exit codes: 0 success, 1 usage error, 2 data/integrity error, an input
that cannot be read included. ``CMLM_LOG`` (debug/info/warn) controls verbosity.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import fields

import numpy as np

from .config import RunConfig
from .errors import CmlmError, ContractError, DataError
from .evaluation import (EmbeddingSet, in_batch_retrieval_accuracy,
                         language_bias_histogram, linear_probe,
                         load_embeddings, export_2d, pcr_debias,
                         retrieval_accuracy, save_embeddings,
                         spearman_correlation, _pair_scores, _row_norms)
from .losses import CMLM_VARIANTS
from .model import POOLING_KINDS, REPRESENTATIONS, embed_texts
from .synth import SynthSpec, generate
from .text import read_lines
from .training import STRATEGIES, load_checkpoint, load_corpus, run_plan

log = logging.getLogger("cmlm")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2

STRATEGY_ALIASES = {"cmlm": "cmlm_only"}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        raise UsageError(message)


def _setup_logging() -> None:
    level = {"debug": logging.DEBUG, "info": logging.INFO,
             "warn": logging.WARNING}.get(
        os.environ.get("CMLM_LOG", "warn").lower(), logging.WARNING)
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
    log.setLevel(level)


def _load_config(args) -> RunConfig:
    """The config file (or the defaults) with every config flag given applied;
    a config flag's dest is the key it sets."""
    config = RunConfig.from_file(args.config) if args.config else RunConfig()
    overrides = {f.name: getattr(args, f.name) for f in fields(RunConfig)
                 if getattr(args, f.name, None) is not None}
    if "strategy" in overrides:
        overrides["strategy"] = STRATEGY_ALIASES.get(overrides["strategy"],
                                                     overrides["strategy"])
    return config.with_overrides(overrides)


# ---------------------------------------------------------------------------
# subcommand implementations
# ---------------------------------------------------------------------------

def cmd_gen_synth(args) -> int:
    spec = SynthSpec(n_languages=args.languages, words_per_language=args.words,
                     sentence_len=args.sentence_len, n_docs=args.docs,
                     n_bitext=args.bitext_pairs, n_heldout=args.heldout,
                     n_nli=args.nli_pairs)
    paths = generate(args.out, seed=args.seed, spec=spec)
    print(json.dumps(paths, sort_keys=True))
    return EXIT_OK


def cmd_train(args) -> int:
    config = _load_config(args)
    if not config.out_dir:
        raise UsageError("train requires --out (or out_dir in the config file)")
    plan = config.train_plan()
    log.info("training strategy=%s stages=%s total_steps=%d seed=%d",
             plan.strategy, plan.stages(), plan.total_steps(), plan.seed)
    params, history, handles = run_plan(config.encoder_config(), plan,
                                        resume=args.resume)
    log.info("finished at step %d; checkpoint %s", len(history),
             handles.checkpoint_path)
    final = history[-1] if history else {}
    print(json.dumps({"checkpoint": handles.checkpoint_path,
                      "metrics": handles.metrics_path,
                      "steps": len(history),
                      "final_loss": final.get("loss")}, sort_keys=True))
    return EXIT_OK


def _embed_corpus_lines(path: str, ckpt, representation: str):
    texts, tags = [], []
    for line in read_lines(path, "embed input"):
        if line.strip():
            tag, text = line.split("\t", 1) if "\t" in line else ("base", line)
            tags.append(tag)
            texts.append(text)
    if not texts:
        raise DataError(f"no sentences found in {path!r}")
    vectors = embed_texts(texts, ckpt.params, ckpt.config, ckpt.vocab,
                          representation=representation)
    return EmbeddingSet(vectors, tags)


def cmd_embed(args) -> int:
    ckpt = load_checkpoint(args.ckpt)
    es = _embed_corpus_lines(args.infile, ckpt,
                             args.representation.replace("-", "_"))
    save_embeddings(es, args.out)
    print(json.dumps({"out": args.out, "count": len(es),
                      "dim": int(es.vectors.shape[1])}, sort_keys=True))
    return EXIT_OK


def cmd_eval_retrieval(args) -> int:
    queries = load_embeddings(args.queries)
    candidates = load_embeddings(args.candidates)
    if len(queries) != len(candidates):
        raise DataError(
            "row-aligned embedding files required (gold is the row index)")
    accuracy = retrieval_accuracy(queries, candidates, np.arange(len(queries)))
    both = in_batch_retrieval_accuracy(queries.vectors, candidates.vectors)
    print(json.dumps({"retrieval_accuracy": accuracy,
                      "inner_product_accuracy": both}, sort_keys=True))
    return EXIT_OK


def _read_labels(path: str) -> np.ndarray:
    return np.asarray([line.strip() for line in read_lines(path, "label file")
                       if line.strip()])


def cmd_probe(args) -> int:
    train = load_embeddings(args.train_emb)
    test = load_embeddings(args.test_emb)
    train.labels = _read_labels(args.train_labels)
    test.labels = _read_labels(args.test_labels)
    if len(train.labels) != len(train) or len(test.labels) != len(test):
        raise DataError("label files must have one label per embedding row")
    accuracy = linear_probe(train, test)
    print(json.dumps({"probe_accuracy": accuracy}, sort_keys=True))
    return EXIT_OK


def cmd_sts(args) -> int:
    a = load_embeddings(args.emb_a)
    b = load_embeddings(args.emb_b)
    if len(a) != len(b):
        raise DataError("embedding files must be row-aligned")
    lines = read_lines(args.gold, "gold file")
    try:
        gold = np.array([float(line) for line in lines if line.strip()])
    except ValueError as exc:
        raise DataError(f"gold file {args.gold!r}: {exc}") from None
    if len(gold) != len(a):
        raise DataError("gold score count must match embedding rows")
    rows = np.arange(len(a))
    norms = (_row_norms(a.vectors, "emb-a"), _row_norms(b.vectors, "emb-b"))
    scores = _pair_scores(a.vectors, b.vectors, rows, rows, norms)
    rho = spearman_correlation(scores, gold)
    print(json.dumps({"spearman": rho}, sort_keys=True))
    return EXIT_OK


def cmd_pcr(args) -> int:
    es = load_embeddings(args.infile)
    save_embeddings(pcr_debias(es), args.out)
    print(json.dumps({"out": args.out, "languages": es.tag_set}, sort_keys=True))
    return EXIT_OK


def cmd_bias_hist(args) -> int:
    queries = load_embeddings(args.queries)
    pool = load_embeddings(args.pool)
    hist = language_bias_histogram(queries, pool, k=args.k)
    payload = json.dumps(hist, sort_keys=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload + "\n")
    print(payload)
    return EXIT_OK


def cmd_plot2d(args) -> int:
    es = load_embeddings(args.infile)
    export_2d(es, args.out_csv, args.out_svg)
    print(json.dumps({"csv": args.out_csv, "svg": args.out_svg},
                     sort_keys=True))
    return EXIT_OK


# the keys ablate-n sets for each run: (their config flag, the flag sweeping
# them); setting one any other way would be silently ignored
ABLATE_SWEPT = {"n_projections": ("--n-proj", "--values"),
                "variant": ("--variant", "--variants"),
                "stage1_steps": ("--stage1-steps", "--steps")}


def cmd_ablate_n(args) -> int:
    values = [int(v) for v in args.values.split(",") if v.strip()]
    variants = [v.strip() for v in args.variants.split(",") if v.strip()]
    for v in variants:
        if v not in ("standard", "skip", "proj"):
            raise UsageError(f"unknown ablation variant {v!r}")
    config = _load_config(args)
    for key, (flag, sweep) in ABLATE_SWEPT.items():
        # a config file written by RunConfig.to_file holds every key, so
        # only a value other than the default counts as setting it there
        if getattr(args, key) is not None or \
                getattr(config, key) != getattr(RunConfig(), key):
            raise UsageError(f"ablate-n sets {key} for each run: sweep it "
                             f"with {sweep}, not {flag} or the config file")
    lines = ["n\tvariant\tmasked_acc\tpair_retrieval\tfinal_loss"]
    for n in values:
        per_n = {}
        train_variants = [v for v in ("standard", "skip") if v in variants
                          or (v == "standard" and "proj" in variants)]
        for train_variant in train_variants:
            cfg = config.with_overrides({
                "n_projections": n, "variant": train_variant,
                "stage1_steps": args.steps,
                "out_dir": "",
            })
            params, history, handles = run_plan(cfg.encoder_config(),
                                                cfg.train_plan())
            window = history[-min(50, len(history)):]
            acc = float(np.mean([h["masked_acc"] for h in window]))
            loss = float(np.mean([h["loss"] for h in window]))
            per_n[train_variant] = (params, handles, acc, loss)
        for variant in variants:
            source = "skip" if variant == "skip" else "standard"
            params, handles, acc, loss = per_n[source]
            representation = "proj_mean" if variant == "proj" else "pooled"
            retrieval = _pair_retrieval(args.corpus_path, args.eval_pairs, params,
                                        handles, representation)
            lines.append(f"{n}\t{variant}\t{acc:.4f}\t{retrieval:.4f}\t{loss:.4f}")
    table = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(table)
    print(table, end="")
    return EXIT_OK


def _pair_retrieval(corpus_path: str, eval_pairs: int, params, handles,
                    representation) -> float:
    """Match the last documents' first sentences to their adjacent twins."""
    docs = load_corpus(corpus_path)
    docs = [d for d in docs if len(d[1]) >= 2][-eval_pairs:]
    left = [sentences[0] for _, sentences in docs]
    right = [sentences[1] for _, sentences in docs]
    lv = embed_texts(left, params, handles.config, handles.vocab,
                     representation=representation)
    rv = embed_texts(right, params, handles.config, handles.vocab,
                     representation=representation)
    queries = EmbeddingSet(lv, ["q"] * len(lv))
    candidates = EmbeddingSet(rv, ["c"] * len(rv))
    return retrieval_accuracy(queries, candidates, np.arange(len(lv)))


# ---------------------------------------------------------------------------
# parser assembly
# ---------------------------------------------------------------------------

def _add_config_flags(p: _Parser) -> None:
    p.add_argument("--config", help="key = value configuration file")
    p.add_argument("--seed", dest="seed", type=int)
    p.add_argument("--strategy", dest="strategy",
                   choices=(*STRATEGY_ALIASES, *STRATEGIES))
    p.add_argument("--alpha", dest="alpha", type=float)
    p.add_argument("--margin", dest="margin", type=float)
    p.add_argument("--n-proj", dest="n_projections", type=int)
    p.add_argument("--pooling", dest="pooling", choices=POOLING_KINDS)
    p.add_argument("--mask-count", dest="num_mask", type=int)
    p.add_argument("--variant", dest="variant", choices=CMLM_VARIANTS)
    p.add_argument("--learning-rate", dest="learning_rate", type=float)
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.add_argument("--warmup-steps", dest="warmup_steps", type=int)
    p.add_argument("--vocab-size", dest="vocab_size", type=int)
    p.add_argument("--stage1-steps", dest="stage1_steps", type=int)
    p.add_argument("--stage2-steps", dest="stage2_steps", type=int)
    p.add_argument("--nli-steps", dest="nli_steps", type=int)


def build_parser() -> _Parser:
    parser = _Parser(prog="cmlm", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", metavar="SUBCOMMAND")

    p = sub.add_parser("gen-synth", help="emit synthetic multilingual data")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--languages", type=int, default=2)
    p.add_argument("--words", type=int, default=24)
    p.add_argument("--sentence-len", dest="sentence_len", type=int, default=4)
    p.add_argument("--docs", type=int, default=2000)
    p.add_argument("--bitext-pairs", dest="bitext_pairs", type=int, default=2000)
    p.add_argument("--heldout", type=int, default=64)
    p.add_argument("--nli-pairs", dest="nli_pairs", type=int, default=900)
    p.set_defaults(func=cmd_gen_synth)

    p = sub.add_parser("train", help="run the configured training plan")
    _add_config_flags(p)
    p.add_argument("--corpus", dest="corpus_path")
    p.add_argument("--bitext", dest="bitext_path")
    p.add_argument("--nli", dest="nli_path")
    p.add_argument("--out", dest="out_dir", help="output directory")
    p.add_argument("--resume", default=None, help="checkpoint to continue from")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("embed", help="embed a corpus into an embedding file")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--representation", default="pooled",
                   choices=[r.replace("_", "-") for r in REPRESENTATIONS])
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("eval-retrieval",
                       help="row-aligned nearest-neighbor accuracy")
    p.add_argument("--queries", required=True)
    p.add_argument("--candidates", required=True)
    p.set_defaults(func=cmd_eval_retrieval)

    p = sub.add_parser("probe", help="linear probe on frozen embeddings")
    p.add_argument("--train-emb", dest="train_emb", required=True)
    p.add_argument("--train-labels", dest="train_labels", required=True)
    p.add_argument("--test-emb", dest="test_emb", required=True)
    p.add_argument("--test-labels", dest="test_labels", required=True)
    p.set_defaults(func=cmd_probe)

    p = sub.add_parser("sts", help="rank correlation of cosine scores")
    p.add_argument("--emb-a", dest="emb_a", required=True)
    p.add_argument("--emb-b", dest="emb_b", required=True)
    p.add_argument("--gold", required=True)
    p.set_defaults(func=cmd_sts)

    p = sub.add_parser("pcr", help="remove per-language principal components")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_pcr)

    p = sub.add_parser("bias-hist",
                       help="language distribution of retrieved neighbors")
    p.add_argument("--queries", required=True)
    p.add_argument("--pool", required=True)
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_bias_hist)

    p = sub.add_parser("plot2d", help="2-d projection as CSV and SVG")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out-csv", dest="out_csv", required=True)
    p.add_argument("--out-svg", dest="out_svg", required=True)
    p.set_defaults(func=cmd_plot2d)

    p = sub.add_parser("ablate-n",
                       help="sweep projection counts and variants")
    _add_config_flags(p)
    p.add_argument("--corpus", dest="corpus_path", required=True)
    p.add_argument("--values", default="1,5,10,15,20")
    p.add_argument("--variants", default="standard,skip,proj")
    p.add_argument("--steps", type=int, default=300)
    p.add_argument("--eval-pairs", dest="eval_pairs", type=int, default=64)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_ablate_n)

    return parser


def dispatch(argv: list[str]) -> int:
    _setup_logging()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "command", None):
            parser.print_usage(sys.stderr)
            return EXIT_USAGE
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    except ContractError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (CmlmError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
