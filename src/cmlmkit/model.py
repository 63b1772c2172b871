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
EMBED_BATCH_SIZE = 128  # sentences ``embed_texts`` encodes at once


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
        for name in ("layers", "heads", "hidden", "ff", "max_len", "n_projections"):
            if getattr(self, name) < 1:
                raise ContractError(f"{name} must be >= 1, got {getattr(self, name)}")
        ad.dropout_threshold(self.dropout, "dropout")
        if self.hidden % self.heads != 0:
            raise ContractError(
                f"hidden size {self.hidden} must be divisible by heads {self.heads}")
        if self.pooling not in POOLING_KINDS:
            raise ContractError(
                f"pooling must be one of {POOLING_KINDS}, got {self.pooling!r}")
        if self.vocab_size < 6:
            raise ContractError("vocab_size must cover the reserved tokens")

    def to_dict(self) -> dict:
        return asdict(self)


def _truncated_normal(rng: np.random.Generator, shape, stddev: float,
                      dtype) -> np.ndarray:
    out = rng.standard_normal(shape) * stddev
    # redraw anything beyond two standard deviations
    bad = np.abs(out) > 2 * stddev
    while np.any(bad):
        out[bad] = rng.standard_normal(int(bad.sum())) * stddev
        bad = np.abs(out) > 2 * stddev
    return out.astype(dtype)


def param_specs(config: EncoderConfig) -> dict[str, tuple[tuple[int, ...], str]]:
    """Name -> (shape, initializer) of every learnable weight, in creation
    order; the initializer is "normal", "zeros" or "ones"."""
    d, ff, n = config.hidden, config.ff, config.n_projections
    specs: dict[str, tuple[tuple[int, ...], str]] = {
        "tok_emb": ((config.vocab_size, d), "normal"),
        "pos_emb": ((config.max_len, d), "normal"),
        "slot_emb": ((n, d), "normal"),
        "mlm_bias": ((config.vocab_size,), "zeros"),
        "nli.w": ((4 * d, 3), "normal"),
        "nli.b": ((3,), "zeros"),
        "skip.w": ((2 * d, d), "normal"),
        "skip.b": ((d,), "zeros"),
    }
    for l in range(config.layers):
        p = f"layer{l}"
        specs[f"{p}.attn.wq"] = ((d, d), "normal")
        specs[f"{p}.attn.bq"] = ((d,), "zeros")
        # no key bias: softmax is invariant to a per-query uniform score
        # shift, so a key bias is an exactly-zero-gradient parameter
        specs[f"{p}.attn.wk"] = ((d, d), "normal")
        specs[f"{p}.attn.wv"] = ((d, d), "normal")
        specs[f"{p}.attn.bv"] = ((d,), "zeros")
        specs[f"{p}.attn.wo"] = ((d, d), "normal")
        specs[f"{p}.attn.bo"] = ((d,), "zeros")
        specs[f"{p}.ln1.scale"] = ((d,), "ones")
        specs[f"{p}.ln1.bias"] = ((d,), "zeros")
        specs[f"{p}.ffn.w1"] = ((d, ff), "normal")
        specs[f"{p}.ffn.b1"] = ((ff,), "zeros")
        specs[f"{p}.ffn.w2"] = ((ff, d), "normal")
        specs[f"{p}.ffn.b2"] = ((d,), "zeros")
        specs[f"{p}.ln2.scale"] = ((d,), "ones")
        specs[f"{p}.ln2.bias"] = ((d,), "zeros")
    if n > 1:
        specs["proj.w1"] = ((d, 2 * d), "normal")
        specs["proj.b1"] = ((2 * d,), "zeros")
        specs["proj.w2"] = ((2 * d, 2 * d), "normal")
        specs["proj.b2"] = ((2 * d,), "zeros")
        specs["proj.w3"] = ((2 * d, (n - 1) * d), "normal")
        specs["proj.b3"] = (((n - 1) * d,), "zeros")
    return specs


def init_params(config: EncoderConfig, rng: np.random.Generator,
                dtype=np.float32) -> dict[str, Tensor]:
    """All learnable weights; the MLM output projection is the transposed
    token embedding (no separate output matrix exists)."""
    fill = {
        "normal": lambda shape: _truncated_normal(rng, shape, INIT_STDDEV, dtype),
        "zeros": lambda shape: np.zeros(shape, dtype=dtype),
        "ones": lambda shape: np.ones(shape, dtype=dtype),
    }
    return {name: Tensor(fill[init](shape), requires_grad=True)
            for name, (shape, init) in param_specs(config).items()}


def _dropout(x: Tensor, rate: float, rng: np.random.Generator | None) -> Tensor:
    if rng is None or rate <= 0.0:
        return x
    return ad.dropout(x, rate, rng)


def _attention(x: Tensor, kv: Tensor, mask_bias: np.ndarray,
               params: dict[str, Tensor], prefix_name: str,
               config: EncoderConfig) -> Tensor:
    """Attention of the query rows ``x`` over the key/value rows ``kv``."""
    p = f"{prefix_name}.attn"
    q = ad.linear(x, params[f"{p}.wq"], params[f"{p}.bq"])
    k = ad.linear(kv, params[f"{p}.wk"])
    v = ad.linear(kv, params[f"{p}.wv"], params[f"{p}.bv"])
    ctx = ad.attention_core(q, k, v, mask_bias, config.heads)
    return ad.linear(ctx, params[f"{p}.wo"], params[f"{p}.bo"])


def encode(ids: np.ndarray, mask: np.ndarray, params: dict[str, Tensor],
           config: EncoderConfig, prefix: Tensor | None = None,
           dropout_rng: np.random.Generator | None = None,
           last_rows: np.ndarray | None = None) -> Tensor:
    """Sequence outputs [B, len(+N), d]; prefix views occupy positions 0..N-1.

    Prefix slots are always attention-visible and carry learned slot
    embeddings; attention is fully bidirectional over prefix+tokens.

    With ``last_rows`` ([B, m] row indices into the prefixed sequence), the
    last layer computes only those rows, which still attend over every row:
    the output is [B, m, d], row j of example i equal (up to rounding) to
    row ``last_rows[i, j]`` of the full output. Its two dropouts draw masks
    of that pruned shape.
    """
    ids = np.asarray(ids)
    mask = np.asarray(mask, dtype=params["tok_emb"].dtype)
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
    total = mask.shape[1]
    if last_rows is not None:
        last_rows = np.asarray(last_rows)
        if last_rows.ndim != 2 or last_rows.shape[0] != b:
            raise DimensionError(
                f"last_rows must be [{b}, m], got {last_rows.shape}")
        if last_rows.min(initial=0) < 0 or last_rows.max(initial=0) >= total:
            raise ContractError(f"last_rows must lie in [0, {total})")

    x = _dropout(x, config.dropout, dropout_rng)
    bias = (1.0 - mask)[:, None, None, :] * ATTENTION_MASK_BIAS
    for l in range(config.layers):
        rows = x
        if last_rows is not None and l == config.layers - 1:
            rows = ad.gather_rows(ad.reshape(x, (-1, config.hidden)),
                                  last_rows + total * np.arange(b)[:, None])
        attn = _attention(rows, x, bias, params, f"layer{l}", config)
        x = ad.layer_norm(ad.add(rows, _dropout(attn, config.dropout, dropout_rng)),
                          params[f"layer{l}.ln1.scale"],
                          params[f"layer{l}.ln1.bias"])
        # release the layer input before the FFN: holding it one block
        # longer made embed_texts 20-35% slower, its 64-sentence batches
        # taking ~440 minor page faults instead of ~10 (numpy 2.4, glibc)
        del rows
        ffn = ad.ffn(x, params[f"layer{l}.ffn.w1"], params[f"layer{l}.ffn.b1"],
                     params[f"layer{l}.ffn.w2"], params[f"layer{l}.ffn.b2"])
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
    h = ad.relu(ad.linear(v, params["proj.w1"], params["proj.b1"]))
    h = ad.relu(ad.linear(h, params["proj.w2"], params["proj.b2"]))
    tail = ad.linear(h, params["proj.w3"], params["proj.b3"])
    views = ad.reshape(tail, (b, n - 1, d))
    return ad.concat([identity, views], axis=1)


def encode_and_pool(ids: np.ndarray, mask: np.ndarray,
                    params: dict[str, Tensor], config: EncoderConfig,
                    dropout_rng: np.random.Generator | None = None) -> Tensor:
    """Pooled vectors [B, d] of a padded batch. Every pooled sentence (CMLM
    conditioning side, bitext and NLI pairs, ``embed_texts``) passes here,
    the one place that puts [CLS] first under ``cls`` pooling."""
    if config.pooling == "cls":
        column = np.full((len(ids), 1), CLS)
        ids = np.concatenate([column, ids], axis=1)[:, :config.max_len]
        mask = np.concatenate([np.ones_like(column, mask.dtype), mask],
                              axis=1)[:, :config.max_len]
    seq = encode(ids, mask, params, config, dropout_rng=dropout_rng)
    return pool(seq, mask, config.pooling)


def embed_texts(texts: list[str], params: dict[str, Tensor],
                config: EncoderConfig, vocab: Vocab,
                representation: str = "pooled") -> np.ndarray:
    """Embed sentences without dropout; rows align with the input order.

    Every text is tokenized up front, and the batches are taken in order of
    token count (a stable sort), so each is padded only to lengths close to
    its own; the rows are scattered back into input order.
    """
    if representation not in REPRESENTATIONS:
        raise ContractError(
            f"representation must be one of {REPRESENTATIONS}, got {representation!r}")
    if not texts:
        raise DataError("no texts to embed")
    token_lists = []
    for text in texts:
        ids = tokenize(text, vocab)[:config.max_len]
        if not ids:
            raise DataError(f"text tokenizes to nothing: {text!r}")
        token_lists.append(ids)
    order = np.argsort(np.fromiter(map(len, token_lists), np.int64, len(texts)),
                       kind="stable")
    out = np.empty((len(texts), config.hidden), params["tok_emb"].dtype)
    for start in range(0, len(texts), EMBED_BATCH_SIZE):
        rows = order[start:start + EMBED_BATCH_SIZE]
        ids, mask = pad_token_lists([token_lists[i] for i in rows])
        v = encode_and_pool(ids, mask, params, config)
        if representation == "proj_mean":
            v = ad.tmean(project(v, params, config), axis=1)
        out[rows] = v.data
    return out


def embed_sentence(text: str, params: dict[str, Tensor], config: EncoderConfig,
                   vocab: Vocab, representation: str = "pooled") -> np.ndarray:
    """Single-sentence convenience wrapper around ``embed_texts``."""
    return embed_texts([text], params, config, vocab, representation)[0]
