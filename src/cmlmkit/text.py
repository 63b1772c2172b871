"""Text files and tokens: the line reader behind every text input, vocabulary
construction, and whitespace tokenization with character fallback.

The vocabulary holds five reserved tokens, every single character seen in the
corpus (so tokenization is total), and then whole words by descending
frequency. Unknown words decompose by greedy longest-prefix matching; unknown
characters map to [UNK].
"""

from __future__ import annotations

from collections import Counter
from itertools import chain

import numpy as np

from .errors import ContractError, DataError

PAD, UNK, CLS, SEP, MASK = 0, 1, 2, 3, 4
RESERVED_TOKENS = ("[PAD]", "[UNK]", "[CLS]", "[SEP]", "[MASK]")
NUM_RESERVED = len(RESERVED_TOKENS)


class Vocab:
    """Ordered token list with dense ids; ids 0..4 are reserved."""

    def __init__(self, tokens: list[str]):
        if tuple(tokens[:NUM_RESERVED]) != RESERVED_TOKENS:
            raise DataError("vocabulary must start with the reserved tokens")
        self._tokens = list(tokens)
        self._ids = {tok: i for i, tok in enumerate(self._tokens)}
        if len(self._ids) != len(self._tokens):
            raise DataError("vocabulary contains duplicate tokens")
        # longest-first candidate lengths for greedy prefix matching
        self._max_token_len = max(len(t) for t in self._tokens[NUM_RESERVED:]) \
            if len(self._tokens) > NUM_RESERVED else 1

    @property
    def size(self) -> int:
        return len(self._tokens)

    @property
    def tokens(self) -> list[str]:
        return list(self._tokens)

    def id_of(self, token: str) -> int | None:
        return self._ids.get(token)

    def encode_word(self, word: str) -> list[int]:
        """Greedy longest-prefix split; a vocabulary word matches whole."""
        ids: list[int] = []
        pos = 0
        while pos < len(word):
            end = min(len(word), pos + self._max_token_len)
            match_id = None
            while end > pos:
                candidate = self._ids.get(word[pos:end])
                if candidate is not None and candidate >= NUM_RESERVED:
                    match_id = candidate
                    break
                end -= 1
            if match_id is None:
                ids.append(UNK)
                pos += 1
            else:
                ids.append(match_id)
                pos = end
        return ids


def read_lines(path: str, what: str) -> list[str]:
    """Lines of the UTF-8 file at ``path`` split at ``\\n``, ``\\r\\n`` and ``\\r``;
    the last is the unterminated tail, "" after a final line end. A byte that
    is not UTF-8 is a ``DataError`` naming ``what``, the path and the line; so
    is a path that cannot be read (missing, a directory, no permission)."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise DataError(f"{what} {path!r} cannot be read: "
                        f"{exc.strerror or exc}") from exc
    try:
        return _split_lines(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        line = len(_split_lines(data[:exc.start].decode("utf-8")))
        raise DataError(f"{what} {path!r} line {line} is not UTF-8 "
                        f"(at byte offset {exc.start})") from None


def _split_lines(text: str) -> list[str]:
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")


def normalize(text: str) -> str:
    return text.lower()


def build_vocab(lines, target_size: int) -> Vocab:
    """Reserved tokens, all single characters, then words by frequency.

    Word ties break lexicographically. ``target_size`` must leave room for
    the reserved tokens plus every distinct character.
    """
    lines = list(lines)
    if not lines or all(not line.strip() for line in lines):
        raise DataError("cannot build a vocabulary from an empty corpus")

    chars: set[str] = set()
    word_counts: Counter[str] = Counter()
    for line in lines:
        norm = normalize(line)
        chars.update(norm)
        word_counts.update(norm.split())
    chars.discard("\n")
    chars.discard("\r")

    minimum = NUM_RESERVED + len(chars)
    if target_size < minimum:
        raise ContractError(
            f"target_size {target_size} is below the required minimum {minimum} "
            f"(5 reserved + {len(chars)} distinct characters)")

    tokens = list(RESERVED_TOKENS)
    tokens.extend(sorted(chars))
    seen = set(tokens)
    by_frequency = sorted(word_counts.items(), key=lambda kv: (-kv[1], kv[0]))
    for word, _ in by_frequency:
        if len(tokens) >= target_size:
            break
        if word not in seen:
            tokens.append(word)
            seen.add(word)
    return Vocab(tokens)


def tokenize(text: str, vocab: Vocab) -> list[int]:
    """Lowercase, split on whitespace, encode each word. Total function.

    A whole-word hit is looked up inline; only a miss goes through
    ``encode_word``, which gives the same ids either way."""
    ids: list[int] = []
    lookup = vocab._ids.get
    for word in normalize(text).split():
        whole = lookup(word)
        if whole is not None and whole >= NUM_RESERVED:
            ids.append(whole)
        else:
            ids.extend(vocab.encode_word(word))
    return ids


def pad_token_lists(token_lists: list[list[int]]) -> tuple[np.ndarray, np.ndarray]:
    """Right-pad id lists with [PAD] to the longest one; returns (ids [B, L]
    int64, mask [B, L] float32 with 1 at real tokens)."""
    lengths = np.fromiter(map(len, token_lists), np.int64, len(token_lists))
    real = np.arange(lengths.max()) < lengths[:, None]
    ids = np.full(real.shape, PAD, dtype=np.int64)
    # a boolean mask assigns in row-major order, the order of the chained ids
    ids[real] = np.fromiter(chain.from_iterable(token_lists), np.int64,
                            int(lengths.sum()))
    return ids, real.astype(np.float32)
