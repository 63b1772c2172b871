"""perfbench's tracer (perfbench/spans.py) wraps the package's functions by
name, so a function it names that the package drops would break only traced
benchmark runs. Installing and uninstalling it here catches that."""

import importlib.util
import os

import numpy as np

from cmlmkit import autodiff, model, training
from cmlmkit.text import build_vocab

SPANS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "perfbench", "spans.py")


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bindings(spans):
    """Every name bound in a package module or in a class the tracer wraps,
    keyed by (owner, name)."""
    owners = spans._package_modules() + [training._Run, autodiff.GradientTape]
    return {(owner.__name__, key): value
            for owner in owners for key, value in vars(owner).items()}


def test_tracer_wraps_every_named_function_and_restores_the_originals():
    spans = load_spans()
    named = [(module, attr) for module, attr, *_ in spans.FUNCTIONS
             + spans.PEAK_FUNCTIONS]
    missing = [f"{module.__name__}.{attr}" for module, attr in named
               if not callable(getattr(module, attr, None))]
    assert not missing
    before = bindings(spans)
    tracer = spans.Tracer()
    tracer.install()
    try:
        replaced = [f"{module.__name__}.{attr}" for module, attr in named
                    if getattr(module, attr) is before[(module.__name__, attr)]]
        assert not replaced, f"not wrapped: {replaced}"
        assert training._Run._step is not before[("_Run", "_step")]
    finally:
        tracer.uninstall()
    after = bindings(spans)
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []


def test_tracer_counts_each_embedding_batch():
    # model.embed_batch_ms divides by this count, so it reads 0 unless
    # embed_texts calls encode_and_pool itself, once per batch
    spans = load_spans()
    vocab = build_vocab(["alpha beta gamma"], target_size=16)
    config = model.EncoderConfig(vocab_size=vocab.size, layers=1, heads=2,
                                 hidden=8, ff=16, max_len=8, n_projections=1,
                                 dropout=0.0)
    params = model.init_params(config, np.random.default_rng(0))
    tracer = spans.Tracer()
    tracer.install()
    try:
        texts = ["alpha beta", "gamma", "beta"] * model.EMBED_BATCH_SIZE
        model.embed_texts(texts[:2 * model.EMBED_BATCH_SIZE + 1], params, config,
                          vocab)
    finally:
        tracer.uninstall()
    assert tracer.counts["model.embed_batches"] == 3
