"""Consecutive-sentence pairs, order swapping, and BERT-style masking.

``make_batch`` masks a whole batch in arrays, into the [B, m] slot layout
that ``encode(last_rows=)`` reads. All functions are pure over their inputs
plus an explicit numpy RNG; a seeded single-threaded run is the
reproducibility reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DataError
from .text import MASK, NUM_RESERVED, Vocab, pad_token_lists, tokenize

MASK_FRACTION_OF_MAX_LEN = 0.3125  # 80 masked out of a 256-token window
MASK_ACTION_PROBS = (0.8, 0.1, 0.1)  # [MASK] token / random id / unchanged

# Counts clamps of the requested mask budget on short sequences. Short final
# sentences are legal inputs, so this is a warning counter, not an error.
_CLAMP_COUNT = 0


def mask_clamp_count() -> int:
    return _CLAMP_COUNT


def reset_mask_clamp_count() -> None:
    global _CLAMP_COUNT
    _CLAMP_COUNT = 0


def default_num_mask(max_len: int) -> int:
    return max(1, int(round(MASK_FRACTION_OF_MAX_LEN * max_len)))


@dataclass
class SentencePair:
    """Adjacent sentence pair: s1 conditions, s2 is the masking target."""

    s1_tokens: list[int]
    s2_tokens: list[int]
    swapped: bool

    def __post_init__(self):
        if not self.s1_tokens or not self.s2_tokens:
            raise DataError("sentence pairs require non-empty token lists")


@dataclass
class MaskedPairBatch:
    """Padded, masked batch ready for the conditional MLM objective. Row i
    masks its first min(num_mask, length) slots, at sorted positions of s2;
    a clamped row's other slots hold padded positions nothing reads."""

    s1_ids: np.ndarray          # [B, L1] int, no [CLS] (encode_and_pool adds it)
    s1_mask: np.ndarray         # [B, L1] float, 1 = real token
    s2_ids: np.ndarray          # [B, L2] int, corrupted
    s2_mask: np.ndarray         # [B, L2] float
    mask_cols: np.ndarray       # [B, m] int64, position in s2
    mask_live: np.ndarray       # [B, m] bool, slot is masked
    mask_labels: np.ndarray     # [M] int64, live slots' original ids

    @property
    def batch_size(self) -> int:
        return self.s1_ids.shape[0]


def make_pairs(sentences: list[str], vocab: Vocab, rng: np.random.Generator,
               max_len: int) -> list[SentencePair]:
    """One pair per adjacent sentence couple, each swapped with probability 0.5.

    Token lists are truncated to ``max_len`` per side. A single-sentence
    document yields an empty list. No side gets a [CLS]: ``encode_and_pool``
    adds it to whatever it pools.
    """
    if len(sentences) < 2:
        return []
    token_lists = [tokenize(s, vocab)[:max_len] for s in sentences]
    pairs: list[SentencePair] = []
    for left, right in zip(token_lists, token_lists[1:]):
        if not left or not right:
            raise DataError("document contains a sentence that tokenizes to nothing")
        swapped = bool(rng.random() < 0.5)
        s1, s2 = (right, left) if swapped else (left, right)
        pairs.append(SentencePair(list(s1), list(s2), swapped))
    return pairs


def make_batch(pairs: list[SentencePair], vocab: Vocab, num_mask: int,
               rng: np.random.Generator) -> MaskedPairBatch:
    """Pad the given pairs to the longest sequence per side and corrupt
    ``num_mask`` distinct positions of each s2; labels keep the original ids.

    Per masked position: 80% become [MASK], 10% a uniform random
    non-reserved id, 10% stay unchanged. A budget larger than a sequence
    clamps to its length and bumps the clamp counter once per such example.
    """
    global _CLAMP_COUNT
    if not pairs:
        raise DataError("cannot build a batch from an empty pair list")
    if num_mask < 1:
        raise ContractError(f"num_mask must be >= 1, got {num_mask}")
    s1_ids, s1_mask = pad_token_lists([p.s1_tokens for p in pairs])
    s2_ids, s2_mask = pad_token_lists([p.s2_tokens for p in pairs])
    lengths = s2_mask.sum(axis=1, dtype=np.int64)
    _CLAMP_COUNT += int(np.count_nonzero(lengths < num_mask))

    # uniform keys in [0, 1) at real positions and 2 at padding: the first
    # m of a row's ascending keys are a uniform draw of its real positions,
    # followed by padding once the row runs out
    keys = rng.random(s2_ids.shape)
    keys[s2_mask == 0] = 2.0
    m = min(num_mask, s2_ids.shape[1])
    cols = np.sort(np.argsort(keys, axis=1)[:, :m], axis=1)
    live = np.arange(m) < np.minimum(lengths, num_mask)[:, None]

    rows, live_cols = np.nonzero(live)[0], cols[live]
    labels = s2_ids[rows, live_cols]
    actions = rng.random(labels.size)
    random_ids = rng.integers(NUM_RESERVED, vocab.size, size=labels.size)
    p_mask, p_random, _ = MASK_ACTION_PROBS
    s2_ids[rows, live_cols] = np.where(actions < p_mask, MASK, np.where(
        actions < p_mask + p_random, random_ids, labels))
    return MaskedPairBatch(s1_ids, s1_mask, s2_ids, s2_mask, cols, live, labels)
