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
    return ad.linear(hidden, ad.transpose(params["tok_emb"], (1, 0)),
                     params["mlm_bias"])


def cmlm_loss(batch: MaskedPairBatch, params: dict[str, Tensor],
              config: EncoderConfig, variant: str = "standard",
              dropout_rng: np.random.Generator | None = None
              ) -> tuple[Tensor, float]:
    """Mean cross-entropy over all masked positions, plus masked accuracy.

    The denoising pass runs its last encoder layer only at the masked
    positions (``encode``'s ``last_rows``); the loss is the one the full
    sequence output gives at those rows.

    ``standard`` conditions the denoiser on a prefix of the projected views
    ([B, n_projections, hidden]) of the neighboring sentence; ``skip``
    additionally concatenates each masked position's output with the mean
    projected view before a widened output head; ``unconditioned``, the
    zero-prefix ablation, replaces the prefix with zeros and never touches
    the conditioning sentence.
    """
    if variant not in CMLM_VARIANTS:
        raise ContractError(
            f"variant must be one of {CMLM_VARIANTS}, got {variant!r}")
    live = batch.mask_live
    if not live.any():
        raise ContractError("CMLM loss is undefined without masked positions")

    b = batch.batch_size
    n, d = config.n_projections, config.hidden

    if variant == "unconditioned":
        dtype = params["tok_emb"].dtype
        prefix = ad.constant(np.zeros((b, n, d), dtype=dtype))
    else:
        v = encode_and_pool(batch.s1_ids, batch.s1_mask, params, config,
                            dropout_rng=dropout_rng)
        prefix = project(v, params, config)

    seq = encode(batch.s2_ids, batch.s2_mask, params, config, prefix=prefix,
                 dropout_rng=dropout_rng, last_rows=n + batch.mask_cols)  # [B, m, d]
    hidden = ad.gather_rows(ad.reshape(seq, (-1, d)), np.flatnonzero(live))  # [M, d]
    if variant == "skip":
        mean_view = ad.tmean(prefix, axis=1)  # [B, d]
        per_position = ad.gather_rows(mean_view, np.nonzero(live)[0])
        widened = ad.concat([hidden, per_position], axis=1)  # [M, 2d]
        hidden = ad.linear(widened, params["skip.w"], params["skip.b"])

    return _cross_entropy(_mlm_logits(hidden, params), batch.mask_labels)


def _cross_entropy(logits: Tensor, labels: np.ndarray) -> tuple[Tensor, float]:
    """Mean negative log-softmax of each row's label, and the fraction of
    rows whose first maximum is their label."""
    loss = ad.neg(ad.tmean(ad.take_per_row(ad.log_softmax(logits), labels)))
    accuracy = float(np.mean(np.argmax(logits.data, axis=-1) == labels))
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
    diag = np.arange(phi.data.shape[0])

    source, _ = _cross_entropy(_margin_diagonal_scores(phi, margin), diag)
    target, _ = _cross_entropy(
        _margin_diagonal_scores(ad.transpose(phi, (1, 0)), margin), diag)
    return source, target


def bitext_loss(batch: BitextBatch) -> Tensor:
    """Bidirectional additive-margin softmax over in-batch negatives."""
    phi = ad.matmul(batch.source, ad.transpose(batch.target, (1, 0)))
    source, target = bitext_loss_from_scores(phi, batch.margin)
    return ad.add(source, target)


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
    return _cross_entropy(ad.linear(feats, params["nli.w"], params["nli.b"]),
                          batch.labels)


def combined_loss(l_cmlm: Tensor, l_br: Tensor, alpha: float = 0.2) -> Tensor:
    """Weighted sum of the language-modeling and retrieval losses."""
    if alpha < 0:
        raise ContractError(f"alpha must be non-negative, got {alpha}")
    return ad.add(l_cmlm, ad.mul(l_br, alpha))
