"""Shared transformer encoder, sentence pooling, and the projection set.

One parameter set serves both roles: encoding the conditioning sentence and
denoising the masked one (a siamese encoder). The pooled sentence vector is
projected into N views, the first being an identity copy; during conditional
MLM these views are prepended to the masked sentence's token embeddings as
pseudo-tokens with their own learned slot embeddings, and attention runs over
the full prefix+token sequence.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ContractError, DataError, DimensionError
from .text import CLS, Vocab, pad_token_lists, tokenize

ATTENTION_MASK_BIAS = -1e9
INIT_STDDEV = 0.02

POOLING_KINDS = ("mean", "max", "cls")
REPRESENTATIONS = ("pooled", "proj_mean")


@dataclass
class EncoderConfig:
    """Architecture hyperparameters with desk-scale defaults."""

    vocab_size: int
    layers: int = 2
    heads: int = 4
    hidden: int = 64
    ff: int = 128
    max_len: int = 64
    n_projections: int = 15
    pooling: str = "mean"
    dropout: float = 0.1

    def __post_init__(self):
        if self.hidden % self.heads != 0:
            raise ContractError(
                f"hidden size {self.hidden} must be divisible by heads {self.heads}")
        if self.n_projections < 1:
            raise ContractError("n_projections must be >= 1")
        if self.pooling not in POOLING_KINDS:
            raise ContractError(
                f"pooling must be one of {POOLING_KINDS}, got {self.pooling!r}")
        if self.vocab_size < 6:
            raise ContractError("vocab_size must cover the reserved tokens")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "EncoderConfig":
        return cls(**d)


def _truncated_normal(rng: np.random.Generator, shape, stddev: float,
                      dtype) -> np.ndarray:
    out = rng.standard_normal(shape) * stddev
    # redraw anything beyond two standard deviations
    bad = np.abs(out) > 2 * stddev
    while np.any(bad):
        out[bad] = rng.standard_normal(int(bad.sum())) * stddev
        bad = np.abs(out) > 2 * stddev
    return out.astype(dtype)


def init_params(config: EncoderConfig, rng: np.random.Generator,
                dtype=np.float32) -> dict[str, Tensor]:
    """All learnable weights; the MLM output projection is the transposed
    token embedding (no separate output matrix exists)."""
    d, ff, n = config.hidden, config.ff, config.n_projections

    def weight(shape):
        return Tensor(_truncated_normal(rng, shape, INIT_STDDEV, dtype),
                      requires_grad=True)

    def zeros(shape):
        return Tensor(np.zeros(shape, dtype=dtype), requires_grad=True)

    def ones(shape):
        return Tensor(np.ones(shape, dtype=dtype), requires_grad=True)

    params: dict[str, Tensor] = {
        "tok_emb": weight((config.vocab_size, d)),
        "pos_emb": weight((config.max_len, d)),
        "slot_emb": weight((n, d)),
        "mlm_bias": zeros((config.vocab_size,)),
        "nli.w": weight((4 * d, 3)),
        "nli.b": zeros((3,)),
        "skip.w": weight((2 * d, d)),
        "skip.b": zeros((d,)),
    }
    for l in range(config.layers):
        p = f"layer{l}"
        params[f"{p}.attn.wq"] = weight((d, d))
        params[f"{p}.attn.bq"] = zeros((d,))
        # no key bias: softmax is invariant to a per-query uniform score
        # shift, so a key bias is an exactly-zero-gradient parameter
        params[f"{p}.attn.wk"] = weight((d, d))
        params[f"{p}.attn.wv"] = weight((d, d))
        params[f"{p}.attn.bv"] = zeros((d,))
        params[f"{p}.attn.wo"] = weight((d, d))
        params[f"{p}.attn.bo"] = zeros((d,))
        params[f"{p}.ln1.scale"] = ones((d,))
        params[f"{p}.ln1.bias"] = zeros((d,))
        params[f"{p}.ffn.w1"] = weight((d, ff))
        params[f"{p}.ffn.b1"] = zeros((ff,))
        params[f"{p}.ffn.w2"] = weight((ff, d))
        params[f"{p}.ffn.b2"] = zeros((d,))
        params[f"{p}.ln2.scale"] = ones((d,))
        params[f"{p}.ln2.bias"] = zeros((d,))
    if n > 1:
        params["proj.w1"] = weight((d, 2 * d))
        params["proj.b1"] = zeros((2 * d,))
        params["proj.w2"] = weight((2 * d, 2 * d))
        params["proj.b2"] = zeros((2 * d,))
        params["proj.w3"] = weight((2 * d, (n - 1) * d))
        params["proj.b3"] = zeros(((n - 1) * d,))
    return params


def _dropout(x: Tensor, rate: float, rng: np.random.Generator | None) -> Tensor:
    if rng is None or rate <= 0.0:
        return x
    keep = (rng.random(x.data.shape) >= rate).astype(x.data.dtype)
    return ad.mul(x, ad.constant(keep / (1.0 - rate)))


def _attention(x: Tensor, mask_bias: Tensor, params: dict[str, Tensor],
               prefix_name: str, config: EncoderConfig) -> Tensor:
    b, t, d = x.data.shape
    heads = config.heads
    dh = d // heads
    scale = 1.0 / np.sqrt(dh)

    def split_heads(m):
        return ad.transpose(ad.reshape(m, (b, t, heads, dh)), (0, 2, 1, 3))

    q = split_heads(ad.add(ad.matmul(x, params[f"{prefix_name}.attn.wq"]),
                           params[f"{prefix_name}.attn.bq"]))
    k = split_heads(ad.matmul(x, params[f"{prefix_name}.attn.wk"]))
    v = split_heads(ad.add(ad.matmul(x, params[f"{prefix_name}.attn.wv"]),
                           params[f"{prefix_name}.attn.bv"]))

    scores = ad.add(ad.mul(ad.matmul(q, ad.transpose(k, (0, 1, 3, 2))), scale),
                    mask_bias)
    probs = ad.softmax(scores)
    ctx = ad.matmul(probs, v)  # [B, h, T, dh]
    merged = ad.reshape(ad.transpose(ctx, (0, 2, 1, 3)), (b, t, d))
    return ad.add(ad.matmul(merged, params[f"{prefix_name}.attn.wo"]),
                  params[f"{prefix_name}.attn.bo"])


def encode(ids: np.ndarray, mask: np.ndarray, params: dict[str, Tensor],
           config: EncoderConfig, prefix: Tensor | None = None,
           dropout_rng: np.random.Generator | None = None) -> Tensor:
    """Sequence outputs [B, len(+N), d]; prefix views occupy positions 0..N-1.

    Prefix slots are always attention-visible and carry learned slot
    embeddings; attention is fully bidirectional over prefix+tokens.
    """
    ids = np.asarray(ids)
    mask = np.asarray(mask, dtype=np.float64 if params["tok_emb"].dtype == np.float64
                      else np.float32)
    if ids.ndim != 2 or mask.shape != ids.shape:
        raise DimensionError(
            f"ids and mask must be aligned 2-d arrays, got {ids.shape} and {mask.shape}")
    b, t = ids.shape
    if t > config.max_len:
        raise DimensionError(
            f"sequence length {t} exceeds max_len {config.max_len}")
    if ids.max(initial=0) >= config.vocab_size or ids.min(initial=0) < 0:
        raise ContractError("token id out of vocabulary range")

    x = ad.add(ad.gather_rows(params["tok_emb"], ids),
               ad.gather_rows(params["pos_emb"], np.arange(t)))
    if prefix is not None:
        n = prefix.data.shape[1]
        if prefix.data.shape != (b, n, config.hidden):
            raise DimensionError(
                f"prefix shape {prefix.data.shape} does not match batch {b} "
                f"and hidden {config.hidden}")
        slots = ad.add(prefix, params["slot_emb"])
        x = ad.concat([slots, x], axis=1)
        mask = np.concatenate(
            [np.ones((b, n), dtype=mask.dtype), mask], axis=1)

    x = _dropout(x, config.dropout, dropout_rng)
    bias = ad.constant((1.0 - mask)[:, None, None, :] * ATTENTION_MASK_BIAS)
    for l in range(config.layers):
        attn = _attention(x, bias, params, f"layer{l}", config)
        x = ad.layer_norm(ad.add(x, _dropout(attn, config.dropout, dropout_rng)),
                          params[f"layer{l}.ln1.scale"],
                          params[f"layer{l}.ln1.bias"])
        h = ad.gelu(ad.add(ad.matmul(x, params[f"layer{l}.ffn.w1"]),
                           params[f"layer{l}.ffn.b1"]))
        ffn = ad.add(ad.matmul(h, params[f"layer{l}.ffn.w2"]),
                     params[f"layer{l}.ffn.b2"])
        x = ad.layer_norm(ad.add(x, _dropout(ffn, config.dropout, dropout_rng)),
                          params[f"layer{l}.ln2.scale"],
                          params[f"layer{l}.ln2.bias"])
    return x


def pool(seq: Tensor, mask: np.ndarray, kind: str) -> Tensor:
    """Collapse sequence outputs to one vector per example."""
    if kind not in POOLING_KINDS:
        raise ContractError(f"pooling must be one of {POOLING_KINDS}, got {kind!r}")
    mask = np.asarray(mask)
    counts = mask.sum(axis=-1)
    if np.any(counts == 0):
        raise ContractError("cannot pool a fully masked sequence")
    if kind == "cls":
        return ad.reshape(
            ad.gather_rows(ad.reshape(seq, (-1, seq.data.shape[-1])),
                           np.arange(seq.data.shape[0]) * seq.data.shape[1]),
            (seq.data.shape[0], seq.data.shape[-1]))
    m = mask.astype(seq.data.dtype)[:, :, None]
    if kind == "mean":
        summed = ad.tsum(ad.mul(seq, ad.constant(m)), axis=1)
        return ad.div(summed, ad.constant(counts.astype(seq.data.dtype)[:, None]))
    # masked max: push padding far below any real activation
    shifted = ad.add(seq, ad.constant((m - 1.0) * -ATTENTION_MASK_BIAS * 1e-3))
    return ad.tmax(shifted, axis=1)


def project(v: Tensor, params: dict[str, Tensor],
            config: EncoderConfig) -> Tensor:
    """Projection set [B, N, d]; index 0 is the identity copy of ``v``.

    The two trunk layers are shared; the widened final layer emits the
    remaining N-1 views in one shot.
    """
    b, d = v.data.shape
    n = config.n_projections
    identity = ad.reshape(v, (b, 1, d))
    if n == 1:
        return identity
    h = ad.relu(ad.add(ad.matmul(v, params["proj.w1"]), params["proj.b1"]))
    h = ad.relu(ad.add(ad.matmul(h, params["proj.w2"]), params["proj.b2"]))
    tail = ad.add(ad.matmul(h, params["proj.w3"]), params["proj.b3"])
    views = ad.reshape(tail, (b, n - 1, d))
    return ad.concat([identity, views], axis=1)


def encode_and_pool(ids: np.ndarray, mask: np.ndarray,
                    params: dict[str, Tensor], config: EncoderConfig,
                    dropout_rng: np.random.Generator | None = None) -> Tensor:
    seq = encode(ids, mask, params, config, dropout_rng=dropout_rng)
    return pool(seq, mask, config.pooling)


def embed_texts(texts: list[str], params: dict[str, Tensor],
                config: EncoderConfig, vocab: Vocab,
                representation: str = "pooled",
                batch_size: int = 64) -> np.ndarray:
    """Embed sentences without dropout; rows align with the input order."""
    if representation not in REPRESENTATIONS:
        raise ContractError(
            f"representation must be one of {REPRESENTATIONS}, got {representation!r}")
    if not texts:
        raise DataError("no texts to embed")
    rows = []
    for start in range(0, len(texts), batch_size):
        chunk = texts[start:start + batch_size]
        token_lists = []
        for text in chunk:
            ids = tokenize(text, vocab)[:config.max_len]
            if config.pooling == "cls":
                ids = ([CLS] + ids)[:config.max_len]
            if not ids:
                raise DataError(f"text tokenizes to nothing: {text!r}")
            token_lists.append(ids)
        ids, mask = pad_token_lists(token_lists)
        v = encode_and_pool(ids, mask, params, config)
        if representation == "proj_mean":
            v = ad.tmean(project(v, params, config), axis=1)
        rows.append(v.data)
    return np.concatenate(rows, axis=0)


def embed_sentence(text: str, params: dict[str, Tensor], config: EncoderConfig,
                   vocab: Vocab, representation: str = "pooled") -> np.ndarray:
    """Single-sentence convenience wrapper around ``embed_texts``."""
    if not text.strip():
        raise DataError("cannot embed empty text")
    return embed_texts([text], params, config, vocab, representation)[0]
