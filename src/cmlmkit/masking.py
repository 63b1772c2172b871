"""Consecutive-sentence pairs, order swapping, and BERT-style masking.

All functions are pure over their inputs plus an explicit numpy RNG; a seeded
single-threaded run is the reproducibility reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, DataError
from .text import CLS, MASK, NUM_RESERVED, Vocab, pad_token_lists, tokenize

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
    return int(round(MASK_FRACTION_OF_MAX_LEN * max_len))


@dataclass
class SentencePair:
    """Adjacent sentence pair: s1 conditions, s2 is the masking target."""

    s1_tokens: list[int]
    s2_tokens: list[int]
    swapped: bool
    language_tag: str = "base"

    def __post_init__(self):
        if not self.s1_tokens or not self.s2_tokens:
            raise DataError("sentence pairs require non-empty token lists")


@dataclass
class MaskedPairBatch:
    """Padded, masked batch ready for the conditional MLM objective."""

    s1_ids: np.ndarray          # [B, L1] int
    s1_mask: np.ndarray         # [B, L1] float, 1 = real token
    s2_ids: np.ndarray          # [B, L2] int, corrupted
    s2_mask: np.ndarray         # [B, L2] float
    mask_positions: list[np.ndarray] = field(default_factory=list)
    mask_labels: list[np.ndarray] = field(default_factory=list)

    @property
    def batch_size(self) -> int:
        return self.s1_ids.shape[0]

    @property
    def total_masked(self) -> int:
        return int(sum(len(p) for p in self.mask_positions))


def make_pairs(sentences: list[str], vocab: Vocab, rng: np.random.Generator,
               max_len: int, language_tag: str = "base",
               add_cls: bool = False) -> list[SentencePair]:
    """One pair per adjacent sentence couple, each swapped with probability 0.5.

    Token lists are truncated to ``max_len`` per side. A single-sentence
    document yields an empty list. ``add_cls`` prepends [CLS] to the
    conditioning side (used when pooling reads position 0).
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
        if add_cls:
            s1 = ([CLS] + s1)[:max_len]
        pairs.append(SentencePair(list(s1), list(s2), swapped, language_tag))
    return pairs


def mask_tokens(s2_tokens: list[int], num_mask: int, vocab: Vocab,
                rng: np.random.Generator) -> tuple[list[int], np.ndarray, np.ndarray]:
    """Corrupt ``num_mask`` distinct positions; labels keep the original ids.

    Per masked position: 80% become [MASK], 10% a uniform random
    non-reserved id, 10% stay unchanged. A budget larger than the sequence
    clamps to the length and bumps the clamp counter.
    """
    global _CLAMP_COUNT
    length = len(s2_tokens)
    if length == 0:
        raise ContractError("cannot mask an empty sequence")
    if num_mask < 1:
        raise ContractError(f"num_mask must be >= 1, got {num_mask}")
    if num_mask > length:
        _CLAMP_COUNT += 1
        num_mask = length

    positions = np.sort(rng.choice(length, size=num_mask, replace=False))
    labels = np.array([s2_tokens[p] for p in positions], dtype=np.int64)
    corrupted = list(s2_tokens)
    actions = rng.random(num_mask)
    for pos, action in zip(positions, actions):
        if action < MASK_ACTION_PROBS[0]:
            corrupted[pos] = MASK
        elif action < MASK_ACTION_PROBS[0] + MASK_ACTION_PROBS[1]:
            corrupted[pos] = int(rng.integers(NUM_RESERVED, vocab.size))
        # else: leave the original token in place
    return corrupted, positions, labels


def make_batch(pairs: list[SentencePair], vocab: Vocab, num_mask: int,
               rng: np.random.Generator) -> MaskedPairBatch:
    """Mask and pad the given pairs; pads to the longest sequence per side."""
    if not pairs:
        raise DataError("cannot build a batch from an empty pair list")

    corrupted_rows: list[list[int]] = []
    positions: list[np.ndarray] = []
    labels: list[np.ndarray] = []
    for pair in pairs:
        corrupted, pos, lab = mask_tokens(pair.s2_tokens, num_mask, vocab, rng)
        corrupted_rows.append(corrupted)
        positions.append(pos)
        labels.append(lab)

    s1_ids, s1_mask = pad_token_lists([p.s1_tokens for p in pairs])
    s2_ids, s2_mask = pad_token_lists(corrupted_rows)
    return MaskedPairBatch(s1_ids, s1_mask, s2_ids, s2_mask, positions, labels)
