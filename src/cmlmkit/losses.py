"""Training objectives: conditional MLM, margin bitext retrieval, and NLI.

The bitext loss is the additive-margin softmax over in-batch negatives,
applied in both directions (rows normalize over candidate targets, columns
over candidate sources) and stabilized with log-sum-exp. The margin is
subtracted from the positive pair's logit only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ContractError, DimensionError
from .masking import MaskedPairBatch
from .model import EncoderConfig, encode, encode_and_pool, project

CMLM_VARIANTS = ("standard", "skip", "unconditioned")


@dataclass
class BitextBatch:
    """Aligned translation pairs; row i of source and target are positives."""

    source: Tensor  # [B, d]
    target: Tensor  # [B, d]
    margin: float = 0.3

    def __post_init__(self):
        if self.source.data.shape != self.target.data.shape:
            raise DimensionError(
                f"source and target shapes differ: "
                f"{self.source.data.shape} vs {self.target.data.shape}")
        if self.source.data.shape[0] < 2:
            raise ContractError("bitext batches need B >= 2 for in-batch negatives")
        if self.margin < 0:
            raise ContractError(f"margin must be non-negative, got {self.margin}")


@dataclass
class NLIBatch:
    """Premise/hypothesis embeddings with 3-way labels (0/1/2)."""

    premise: Tensor  # [B, d]
    hypothesis: Tensor  # [B, d]
    labels: np.ndarray

    def __post_init__(self):
        if self.premise.data.shape != self.hypothesis.data.shape:
            raise DimensionError("premise and hypothesis shapes differ")
        labels = np.asarray(self.labels)
        if labels.min(initial=0) < 0 or labels.max(initial=0) > 2:
            raise ContractError("NLI labels must lie in {0, 1, 2}")
        self.labels = labels


def _mlm_logits(hidden: Tensor, params: dict[str, Tensor]) -> Tensor:
    # tied output head: transpose of the token embedding matrix plus a bias
    return ad.add(ad.matmul(hidden, ad.transpose(params["tok_emb"], (1, 0))),
                  params["mlm_bias"])


def cmlm_loss(batch: MaskedPairBatch, params: dict[str, Tensor],
              config: EncoderConfig, variant: str = "standard",
              dropout_rng: np.random.Generator | None = None,
              prefix_override: Tensor | None = None) -> tuple[Tensor, float]:
    """Mean cross-entropy over all masked positions, plus masked accuracy.

    ``standard`` conditions the denoiser on the projected views of the
    neighboring sentence; ``skip`` additionally concatenates each masked
    position's output with the mean projected view before a widened output
    head; ``unconditioned`` replaces the prefix with zeros and never touches
    the conditioning sentence. ``prefix_override`` substitutes an explicit
    prefix tensor (ablation hook).
    """
    if variant not in CMLM_VARIANTS:
        raise ContractError(
            f"variant must be one of {CMLM_VARIANTS}, got {variant!r}")
    if batch.total_masked == 0:
        raise ContractError("CMLM loss is undefined without masked positions")

    b = batch.batch_size
    n, d = config.n_projections, config.hidden

    views = None
    if prefix_override is not None:
        prefix = prefix_override
        if variant == "skip":
            views = prefix_override
    elif variant == "unconditioned":
        dtype = params["tok_emb"].dtype
        prefix = ad.constant(np.zeros((b, n, d), dtype=dtype))
    else:
        v = encode_and_pool(batch.s1_ids, batch.s1_mask, params, config,
                            dropout_rng=dropout_rng)
        views = project(v, params, config)
        prefix = views

    seq = encode(batch.s2_ids, batch.s2_mask, params, config, prefix=prefix,
                 dropout_rng=dropout_rng)
    t_total = seq.data.shape[1]

    flat_rows = []
    flat_labels = []
    row_examples = []
    for i, (positions, labels) in enumerate(zip(batch.mask_positions,
                                                batch.mask_labels)):
        flat_rows.extend(i * t_total + n + positions)
        flat_labels.extend(labels)
        row_examples.extend([i] * len(positions))
    flat_rows = np.asarray(flat_rows, dtype=np.int64)
    flat_labels = np.asarray(flat_labels, dtype=np.int64)

    hidden = ad.gather_rows(ad.reshape(seq, (-1, d)), flat_rows)  # [M, d]
    if variant == "skip":
        if views is None:
            raise ContractError("skip variant requires projected views")
        mean_view = ad.tmean(views, axis=1)  # [B, d]
        per_position = ad.gather_rows(mean_view, np.asarray(row_examples))
        widened = ad.concat([hidden, per_position], axis=1)  # [M, 2d]
        hidden = ad.add(ad.matmul(widened, params["skip.w"]), params["skip.b"])

    logits = _mlm_logits(hidden, params)  # [M, V]
    log_probs = ad.log_softmax(logits)
    picked = ad.take_per_row(log_probs, flat_labels)
    loss = ad.neg(ad.tmean(picked))
    accuracy = float(np.mean(np.argmax(logits.data, axis=-1) == flat_labels))
    return loss, accuracy


def _margin_diagonal_scores(phi: Tensor, margin: float) -> Tensor:
    b = phi.data.shape[0]
    eye = np.eye(b, dtype=phi.data.dtype)
    return ad.sub(phi, ad.constant(eye * margin))


def bitext_loss_from_scores(phi: Tensor, margin: float) -> tuple[Tensor, Tensor]:
    """Per-direction losses from a similarity matrix phi[i, j] = <s_i, t_j>.

    Source direction normalizes each row over targets; target direction
    normalizes each column over sources (equivalently, rows of phi^T).
    """
    if phi.data.ndim != 2 or phi.data.shape[0] != phi.data.shape[1]:
        raise DimensionError(f"score matrix must be square, got {phi.data.shape}")
    if phi.data.shape[0] < 2:
        raise ContractError("bitext loss needs B >= 2")
    b = phi.data.shape[0]
    diag = np.arange(b)

    adjusted = _margin_diagonal_scores(phi, margin)
    source = ad.neg(ad.tmean(ad.take_per_row(ad.log_softmax(adjusted), diag)))
    adjusted_t = _margin_diagonal_scores(ad.transpose(phi, (1, 0)), margin)
    target = ad.neg(ad.tmean(ad.take_per_row(ad.log_softmax(adjusted_t), diag)))
    return source, target


def bitext_loss(batch: BitextBatch) -> Tensor:
    """Bidirectional additive-margin softmax over in-batch negatives."""
    phi = ad.matmul(batch.source, ad.transpose(batch.target, (1, 0)))
    source, target = bitext_loss_from_scores(phi, batch.margin)
    return ad.add(source, target)


def in_batch_retrieval_accuracy(source: np.ndarray, target: np.ndarray) -> float:
    """Fraction of rows whose highest inner product is their own pair."""
    phi = source @ target.T
    return float(np.mean(np.argmax(phi, axis=1) == np.arange(phi.shape[0])))


def nli_features(u: Tensor, v: Tensor) -> Tensor:
    """Concatenation [u; v; |u - v|; u * v] of width 4d."""
    return ad.concat([u, v, ad.absolute(ad.sub(u, v)), ad.mul(u, v)], axis=1)


def nli_loss(batch: NLIBatch,
             params: dict[str, Tensor]) -> tuple[Tensor, float]:
    """Softmax cross-entropy of a single affine 3-way classifier.

    Gradients flow through the features into the encoder when the premise
    and hypothesis tensors come from it.
    """
    feats = nli_features(batch.premise, batch.hypothesis)
    logits = ad.add(ad.matmul(feats, params["nli.w"]), params["nli.b"])
    log_probs = ad.log_softmax(logits)
    picked = ad.take_per_row(log_probs, batch.labels)
    loss = ad.neg(ad.tmean(picked))
    accuracy = float(np.mean(np.argmax(logits.data, axis=-1) == batch.labels))
    return loss, accuracy


def combined_loss(l_cmlm: Tensor, l_br: Tensor, alpha: float = 0.2) -> Tensor:
    """Weighted sum of the language-modeling and retrieval losses."""
    if alpha < 0:
        raise ContractError(f"alpha must be non-negative, got {alpha}")
    return ad.add(l_cmlm, ad.mul(l_br, alpha))
