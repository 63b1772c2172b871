"""Estimator-style facade so the pipeline composes with sklearn-ish tooling.

Every estimator stores its constructor arguments verbatim and exposes
``get_params`` / ``set_params`` following the scikit-learn convention, without
depending on scikit-learn itself. ``fit`` returns ``self``.
"""

from __future__ import annotations

import inspect
import os
import tempfile
from dataclasses import fields

import numpy as np

from .autodiff import all_finite
from .config import RunConfig
from .errors import ContractError, DataError, DimensionError
from .evaluation import (PROBE_LEARNING_RATE, PROBE_STEPS, _directions_per_tag,
                         _planar_basis, _remove_directions, _softmax_regression)
from .model import embed_texts
from .synth import write_corpus
from .training import load_checkpoint, run_plan

# SentenceEncoder parameters: every RunConfig key but corpus_path, which
# fit supplies
_CONFIG_KEYS = tuple(f.name for f in fields(RunConfig) if f.name != "corpus_path")


def check_matrix(x, name: str = "X", min_rows: int = 1,
                 width: int | None = None) -> np.ndarray:
    """Validate a dense 2-d float matrix with finite entries; a fitted
    estimator passes the ``width`` it was fitted on, and other widths are a
    ``DimensionError``."""
    arr = np.asarray(x)
    if arr.ndim != 2:
        raise ContractError(f"{name} must be 2-d, got shape {arr.shape}")
    if width is not None and arr.shape[1] != width:
        raise DimensionError(f"{name} has {arr.shape[1]} columns, but the "
                             f"estimator was fitted on {width}")
    if arr.shape[0] < min_rows:
        raise ContractError(f"{name} needs at least {min_rows} rows")
    if arr.dtype.kind not in "fiu":
        raise ContractError(f"{name} must be numeric, got dtype {arr.dtype}")
    arr = arr.astype(np.float64, copy=False)
    if not all_finite(arr):
        raise ContractError(f"{name} contains non-finite values")
    return arr


def check_tags(tags, n_rows: int) -> list[str]:
    """One string tag per row; every row is tagged "all" when none are given."""
    if tags is None:
        return ["all"] * n_rows
    tags = [str(t) for t in tags]
    if len(tags) != n_rows:
        raise ContractError(
            f"expected {n_rows} tags, got {len(tags)}")
    return tags


def check_labels(y, n_rows: int) -> np.ndarray:
    """One label per row, as a 1-d array."""
    labels = np.asarray(y)
    if labels.shape != (n_rows,):
        raise ContractError(f"y must be 1-d with one label for each of the "
                            f"{n_rows} rows, got shape {labels.shape}")
    return labels


def _tagged(documents):
    """(language, sentences) per document; an untagged document is "base"."""
    return [doc if isinstance(doc, tuple) else ("base", doc) for doc in documents]


class BaseEstimator:
    """Minimal parameter-introspection base (get_params/set_params)."""

    @classmethod
    def _param_names(cls) -> list[str]:
        sig = inspect.signature(cls.__init__)
        return [p.name for p in sig.parameters.values()
                if p.name != "self" and p.kind
                in (p.POSITIONAL_OR_KEYWORD, p.KEYWORD_ONLY)]

    def get_params(self, deep: bool = True) -> dict:
        return {name: getattr(self, name) for name in self._param_names()}

    def set_params(self, **params) -> "BaseEstimator":
        valid = set(self._param_names())
        for name, value in params.items():
            if name not in valid:
                raise ContractError(
                    f"invalid parameter {name!r} for {type(self).__name__}")
            setattr(self, name, value)
        return self

    def __repr__(self) -> str:
        args = ", ".join(f"{k}={v!r}" for k, v in sorted(self.get_params().items()))
        return f"{type(self).__name__}({args})"


class SentenceEncoder(BaseEstimator):
    """Trainable sentence embedder: fit on documents, transform sentences.

    The parameters are the ``RunConfig`` keys, with the same defaults,
    except ``corpus_path``, which ``fit`` supplies; plus ``representation``,
    the ``embed_texts`` output that ``transform`` returns.

    ``fit`` accepts either a corpus file path or an in-memory list of
    documents (each a list of sentences, or a ``(language, sentences)``
    tuple). Training follows the configured multistage plan; ``transform``
    embeds sentences with the frozen encoder.
    """

    def __init__(self, representation: str = "pooled", **config):
        self.representation = representation
        defaults = RunConfig()
        for name in _CONFIG_KEYS:
            setattr(self, name, getattr(defaults, name))
        self.set_params(**config)

    @classmethod
    def _param_names(cls) -> list[str]:
        return [*_CONFIG_KEYS, "representation"]

    def fit(self, documents, y=None) -> "SentenceEncoder":
        if not isinstance(documents, str):
            fd, path = tempfile.mkstemp(suffix=".txt")
            os.close(fd)
            try:
                write_corpus(_tagged(documents), path)
                return self.fit(path)
            finally:
                os.unlink(path)
        config = RunConfig(corpus_path=documents, **{
            name: getattr(self, name) for name in _CONFIG_KEYS})
        params, history, handles = run_plan(config.encoder_config(),
                                            config.train_plan())
        self.params_ = params
        self.config_ = handles.config
        self.vocab_ = handles.vocab
        self.history_ = history
        return self

    def load(self, checkpoint_path: str) -> "SentenceEncoder":
        """Adopt a previously trained checkpoint instead of fitting."""
        bundle = load_checkpoint(checkpoint_path)
        self.params_ = bundle.params
        self.config_ = bundle.config
        self.vocab_ = bundle.vocab
        self.history_ = []
        return self

    def transform(self, sentences) -> np.ndarray:
        if not hasattr(self, "params_"):
            raise ContractError("SentenceEncoder is not fitted")
        return embed_texts(list(sentences), self.params_, self.config_,
                           self.vocab_, representation=self.representation)

    def fit_transform(self, documents, y=None) -> np.ndarray:
        self.fit(documents)
        sentences = [] if isinstance(documents, str) else [
            s for _, doc_sentences in _tagged(documents) for s in doc_sentences]
        if not sentences:
            raise DataError("fit_transform needs in-memory documents")
        return self.transform(sentences)


class PrincipalComponentRemover(BaseEstimator):
    """Removes each row's projection onto its group's top singular direction.

    Directions are learned per language tag on ``fit`` and reapplied by
    ``transform``; ``fit_transform`` fits on the given rows and transforms
    them, matching the evaluation-time protocol of ``pcr_debias``.
    """

    def fit(self, X, tags=None) -> "PrincipalComponentRemover":
        x = check_matrix(X)
        self.directions_ = _directions_per_tag(x, check_tags(tags, len(x)))
        self.n_features_in_ = x.shape[1]
        return self

    def transform(self, X, tags=None) -> np.ndarray:
        if not hasattr(self, "directions_"):
            raise ContractError("PrincipalComponentRemover is not fitted")
        x = check_matrix(X, width=self.n_features_in_)
        return _remove_directions(x, check_tags(tags, len(x)),
                                  self.directions_)

    def fit_transform(self, X, tags=None) -> np.ndarray:
        return self.fit(X, tags).transform(X, tags)


class LogisticProbe(BaseEstimator):
    """Frozen-feature multinomial logistic regression (full-batch GD)."""

    def __init__(self, learning_rate: float = PROBE_LEARNING_RATE,
                 steps: int = PROBE_STEPS):
        self.learning_rate = learning_rate
        self.steps = steps

    def fit(self, X, y) -> "LogisticProbe":
        x = check_matrix(X)
        y = check_labels(y, len(x))
        self.classes_ = np.unique(y)
        if self.classes_.size < 2:
            raise ContractError("probe needs at least two classes")
        self._mu, self._sigma, self.coef_, self.intercept_ = _softmax_regression(
            x, y, self.classes_, self.learning_rate, self.steps)
        self.n_features_in_ = x.shape[1]
        return self

    def predict(self, X) -> np.ndarray:
        if not hasattr(self, "coef_"):
            raise ContractError("LogisticProbe is not fitted")
        xs = (check_matrix(X, width=self.n_features_in_) - self._mu) / self._sigma
        return self.classes_[np.argmax(xs @ self.coef_ + self.intercept_, axis=1)]

    def score(self, X, y) -> float:
        predicted = self.predict(X)
        return float(np.mean(predicted == check_labels(y, len(predicted))))


class PlanarProjector(BaseEstimator):
    """Projects rows onto the top-2 principal directions of the fitted data."""

    def fit(self, X, y=None) -> "PlanarProjector":
        x = check_matrix(X, min_rows=3)
        self._mean, self.directions_ = _planar_basis(x)
        self.n_features_in_ = x.shape[1]
        return self

    def transform(self, X) -> np.ndarray:
        if not hasattr(self, "directions_"):
            raise ContractError("PlanarProjector is not fitted")
        x = check_matrix(X, width=self.n_features_in_)
        return (x - self._mean) @ self.directions_.T

    def fit_transform(self, X, y=None) -> np.ndarray:
        return self.fit(X).transform(X)
