"""perfbench's tracer (perfbench/spans.py) wraps the package's functions by
name, so a function it names that the package drops would break only traced
benchmark runs. Installing and uninstalling it here catches that."""

import importlib.util
import os

from cmlmkit import autodiff, training

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
