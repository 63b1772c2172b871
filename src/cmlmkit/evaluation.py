"""Post-training analysis: retrieval, debiasing, probes, and visualization.

All operations are pure over immutable embedding sets and deterministic, so
pipeline outputs can be compared byte for byte.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .errors import (ContractError, DataError, DegenerateInputError,
                     DimensionError, IntegrityError, read_exact)
from .spectral import first_principal_direction, top_two_directions

EMBEDDING_MAGIC = b"CMLMEMB1"
EMBEDDING_VERSION = 2

ORTHOGONALITY_TOL = 1e-6


@dataclass
class EmbeddingSet:
    """Sentence vectors with per-row language tags and text ids."""

    vectors: np.ndarray
    languages: list[str]
    ids: list[str] = field(default_factory=list)
    labels: np.ndarray | None = None

    def __post_init__(self):
        self.vectors = np.asarray(self.vectors)
        if self.vectors.ndim != 2 or self.vectors.shape[0] < 1:
            raise DimensionError(
                f"embedding matrix must be [n, d] with n >= 1, "
                f"got {self.vectors.shape}")
        if not np.all(np.isfinite(self.vectors)):
            raise DataError("embedding matrix contains non-finite values")
        if len(self.languages) != self.vectors.shape[0]:
            raise DataError("one language tag per row is required")
        if not self.ids:
            self.ids = [str(i) for i in range(self.vectors.shape[0])]
        if len(self.ids) != self.vectors.shape[0]:
            raise DataError("one text id per row is required")
        if self.labels is not None:
            self.labels = np.asarray(self.labels)
            if len(self.labels) != self.vectors.shape[0]:
                raise DataError("one label per row is required")

    def __len__(self) -> int:
        return self.vectors.shape[0]

    @property
    def tag_set(self) -> list[str]:
        return sorted(set(self.languages))


def cosine_similarity(a, b) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        raise DegenerateInputError("cosine similarity of a zero vector is undefined")
    return float(a @ b / (na * nb))


def normalized_rows(matrix: np.ndarray, what: str) -> np.ndarray:
    m = np.asarray(matrix, dtype=np.float64)
    norms = np.linalg.norm(m, axis=1, keepdims=True)
    if np.any(norms == 0.0):
        row = int(np.argmin(norms))
        raise DegenerateInputError(f"{what} row {row} is a zero vector")
    return m / norms


def retrieval_accuracy(queries: EmbeddingSet, candidates: EmbeddingSet,
                       gold) -> float:
    """Fraction of queries whose nearest candidate by cosine is the gold one.

    Ties break toward the lowest candidate index.
    """
    if len(candidates) == 0:
        raise DataError("candidate set is empty")
    gold = np.asarray(gold, dtype=np.int64)
    if gold.shape != (len(queries),):
        raise ContractError(
            f"gold map must assign one candidate per query, got shape {gold.shape}")
    if gold.min() < 0 or gold.max() >= len(candidates):
        raise ContractError("gold map points outside the candidate set")
    sims = normalized_rows(queries.vectors, "query") @ \
        normalized_rows(candidates.vectors, "candidate").T
    best = np.argmax(sims, axis=1)  # first maximum wins
    return float(np.mean(best == gold))


def _directions_per_tag(vectors: np.ndarray, tags) -> dict[str, np.ndarray]:
    """Top singular direction of each tag's rows, keyed by tag."""
    tags = np.asarray(tags)
    directions = {}
    for tag in sorted(set(tags.tolist())):
        try:
            directions[tag] = first_principal_direction(vectors[tags == tag])
        except DegenerateInputError as exc:
            raise DegenerateInputError(
                f"language {tag!r} has an all-zero embedding group") from exc
    return directions


def _remove_directions(vectors: np.ndarray, tags,
                       directions: dict[str, np.ndarray]) -> np.ndarray:
    """Each row minus its projection onto its tag's direction (float64)."""
    tags = np.asarray(tags)
    out = vectors.astype(np.float64)
    for tag in sorted(set(tags.tolist())):
        if tag not in directions:
            raise DataError(f"no direction learned for tag {tag!r}")
        rows = tags == tag
        group = out[rows]
        out[rows] = group - np.outer(group @ directions[tag], directions[tag])
    return out


def pcr_debias(es: EmbeddingSet) -> EmbeddingSet:
    """Remove each row's projection onto its language's top singular direction.

    Directions are computed per language from the set itself; output rows are
    orthogonal to their language's direction within 1e-6.
    """
    out = _remove_directions(es.vectors, es.languages,
                             _directions_per_tag(es.vectors, es.languages))
    return EmbeddingSet(out.astype(es.vectors.dtype), list(es.languages),
                        list(es.ids),
                        None if es.labels is None else es.labels.copy())


def language_bias_histogram(queries: EmbeddingSet, pool: EmbeddingSet,
                            k: int = 10) -> dict[str, float]:
    """Language distribution of the top-k cosine neighbors over all queries.

    A pool row identical in (id, language) to the query is excluded, so a
    set queried against itself never retrieves the query row. Fractions are
    normalized to sum to one.
    """
    if len(set(pool.languages)) < 2:
        raise ContractError("pool must span at least two languages")
    if k < 1:
        raise ContractError("k must be >= 1")
    if k > len(pool) - 1:
        raise ContractError(
            f"k={k} exceeds pool size minus the excluded self row ({len(pool) - 1})")
    sims = normalized_rows(queries.vectors, "query") @ \
        normalized_rows(pool.vectors, "pool").T
    pool_keys = list(zip(pool.ids, pool.languages))
    key_to_rows: dict[tuple[str, str], list[int]] = {}
    for i, key in enumerate(pool_keys):
        key_to_rows.setdefault(key, []).append(i)

    counts: dict[str, int] = {}
    for qi in range(len(queries)):
        row = sims[qi].copy()
        for pi in key_to_rows.get((queries.ids[qi], queries.languages[qi]), []):
            row[pi] = -np.inf
        top = np.argsort(-row, kind="stable")[:k]
        for pi in top:
            tag = pool.languages[pi]
            counts[tag] = counts.get(tag, 0) + 1
    total = sum(counts.values())
    return {tag: counts.get(tag, 0) / total for tag in pool.tag_set}


def linear_probe(train: EmbeddingSet, test: EmbeddingSet,
                 learning_rate: float = 0.5, steps: int = 500) -> float:
    """Multinomial logistic regression on frozen embeddings; test accuracy.

    Full-batch gradient descent from a zero initialization, so the result is
    deterministic. Classes present in the test set must appear in training.
    """
    if train.labels is None or test.labels is None:
        raise ContractError("probe requires labeled embedding sets")
    train_classes = np.unique(train.labels)
    if train_classes.size < 2:
        raise ContractError("probe training set must contain >= 2 classes")
    missing = np.setdiff1d(np.unique(test.labels), train_classes)
    if missing.size:
        raise DataError(
            f"test classes {missing.tolist()} absent from the training set")

    mu, sigma, w, b = _softmax_regression(
        train.vectors.astype(np.float64), train.labels, train_classes,
        learning_rate, steps)
    xt = (test.vectors.astype(np.float64) - mu) / sigma
    pred = train_classes[np.argmax(xt @ w + b, axis=1)]
    return float(np.mean(pred == test.labels))


def _softmax_regression(x: np.ndarray, labels, classes: np.ndarray,
                        learning_rate: float, steps: int):
    """Standardize ``x``, then fit multinomial logistic regression by
    full-batch gradient descent from zero; returns (mu, sigma, w, b)."""
    class_index = {c: i for i, c in enumerate(classes.tolist())}
    y = np.array([class_index[c] for c in np.asarray(labels).tolist()])
    mu = x.mean(axis=0)
    sigma = np.maximum(x.std(axis=0), 1e-8)
    x = (x - mu) / sigma
    n, d = x.shape
    k = classes.size
    w = np.zeros((d, k))
    b = np.zeros(k)
    onehot = np.eye(k)[y]
    for _ in range(steps):
        logits = x @ w + b
        logits -= logits.max(axis=1, keepdims=True)
        probs = np.exp(logits)
        probs /= probs.sum(axis=1, keepdims=True)
        grad_logits = (probs - onehot) / n
        w -= learning_rate * (x.T @ grad_logits)
        b -= learning_rate * grad_logits.sum(axis=0)
    return mu, sigma, w, b


def _fractional_ranks(values: np.ndarray) -> np.ndarray:
    """Average-rank transform (ties share the mean of their rank range)."""
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values), dtype=np.float64)
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and values[order[j + 1]] == values[order[i]]:
            j += 1
        ranks[order[i:j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def spearman_correlation(pred, gold) -> float:
    """Pearson correlation of fractional ranks; ties get average ranks."""
    pred = np.asarray(pred, dtype=np.float64)
    gold = np.asarray(gold, dtype=np.float64)
    if pred.shape != gold.shape or pred.ndim != 1 or pred.size < 2:
        raise ContractError("inputs must be equal-length 1-d sequences of size >= 2")
    if np.all(pred == pred[0]) or np.all(gold == gold[0]):
        raise DegenerateInputError(
            "rank correlation is undefined for constant input")
    rp = _fractional_ranks(pred)
    rg = _fractional_ranks(gold)
    rp -= rp.mean()
    rg -= rg.mean()
    return float((rp @ rg) / np.sqrt((rp @ rp) * (rg @ rg)))


# ---------------------------------------------------------------------------
# 2-d export
# ---------------------------------------------------------------------------

_SVG_PALETTE = ("#4477aa", "#ee6677", "#228833", "#ccbb44", "#66ccee",
                "#aa3377", "#bbbbbb", "#000000")


def _planar_basis(vectors) -> tuple[np.ndarray, np.ndarray]:
    """Mean and the top-2 principal directions (as rows) of a set of rows."""
    x = np.asarray(vectors, dtype=np.float64)
    if x.shape[0] < 3 or x.shape[1] < 2:
        raise DimensionError("2-d projection needs n >= 3 rows and d >= 2")
    mean = x.mean(axis=0)
    return mean, np.stack(top_two_directions(x - mean))


def project_2d(es: EmbeddingSet) -> np.ndarray:
    """Coordinates on the top-2 principal directions of the centered set."""
    mean, (c1, c2) = _planar_basis(es.vectors)
    centered = es.vectors.astype(np.float64) - mean
    return np.stack([centered @ c1, centered @ c2], axis=1)


def export_2d(es: EmbeddingSet, csv_path: str, svg_path: str) -> np.ndarray:
    """Write "id,lang,x,y" CSV and a self-contained SVG scatter; return coords."""
    coords = project_2d(es)
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write("id,lang,x,y\n")
        for i in range(len(es)):
            fh.write(f"{es.ids[i]},{es.languages[i]},"
                     f"{coords[i, 0]:.8g},{coords[i, 1]:.8g}\n")
    _write_svg(es, coords, svg_path)
    return coords


def _write_svg(es: EmbeddingSet, coords: np.ndarray, path: str,
               size: int = 480, pad: int = 30) -> None:
    tags = es.tag_set
    color = {tag: _SVG_PALETTE[i % len(_SVG_PALETTE)]
             for i, tag in enumerate(tags)}
    lo = coords.min(axis=0)
    hi = coords.max(axis=0)
    span = np.maximum(hi - lo, 1e-12)

    def to_px(p):
        x = pad + (p[0] - lo[0]) / span[0] * (size - 2 * pad)
        y = size - pad - (p[1] - lo[1]) / span[1] * (size - 2 * pad)
        return x, y

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
    ]
    for i in range(len(es)):
        x, y = to_px(coords[i])
        lines.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="3" '
                     f'fill="{color[es.languages[i]]}" fill-opacity="0.75"/>')
    for j, tag in enumerate(tags):
        y = pad + 14 * j
        lines.append(f'<circle cx="{pad}" cy="{y}" r="4" fill="{color[tag]}"/>')
        lines.append(f'<text x="{pad + 8}" y="{y + 4}" font-size="11" '
                     f'font-family="sans-serif">{tag}</text>')
    lines.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Embedding file format
# ---------------------------------------------------------------------------

def save_embeddings(es: EmbeddingSet, path: str) -> None:
    """Binary layout (version 2): magic, version, count, dim, tag table, then
    rows of (tag index, id length, UTF-8 id, little-endian float32 vector).
    Version 1 rows hold no id."""
    tags = es.tag_set
    tag_index = {tag: i for i, tag in enumerate(tags)}
    vectors = es.vectors.astype(np.float32)
    with open(path, "wb") as fh:
        fh.write(EMBEDDING_MAGIC)
        fh.write(struct.pack("<III", EMBEDDING_VERSION, vectors.shape[0],
                             vectors.shape[1]))
        fh.write(struct.pack("<I", len(tags)))
        for tag in tags:
            encoded = tag.encode("utf-8")
            fh.write(struct.pack("<I", len(encoded)))
            fh.write(encoded)
        for i in range(vectors.shape[0]):
            row_id = str(es.ids[i]).encode("utf-8")
            fh.write(struct.pack("<II", tag_index[es.languages[i]], len(row_id)))
            fh.write(row_id)
            fh.write(np.ascontiguousarray(
                vectors[i], dtype=np.dtype(np.float32).newbyteorder("<")).tobytes())


def load_embeddings(path: str) -> EmbeddingSet:
    """Read a version 1 or 2 file; version 1 rows get their row numbers as ids."""
    with open(path, "rb") as fh:
        read = partial(read_exact, fh, what="embedding file")
        magic = fh.read(len(EMBEDDING_MAGIC))
        if magic != EMBEDDING_MAGIC:
            raise IntegrityError("bad embedding file magic", offset=0)
        version, count, dim = struct.unpack("<III", read(12))
        if version not in (1, EMBEDDING_VERSION):
            raise IntegrityError(f"unsupported embedding version {version}",
                                 offset=8)
        (n_tags,) = struct.unpack("<I", read(4))
        tags = []
        for _ in range(n_tags):
            (length,) = struct.unpack("<I", read(4))
            tags.append(read(length).decode("utf-8"))
        vectors = np.empty((count, dim), dtype=np.float32)
        languages = []
        ids = []
        for i in range(count):
            (tag_idx,) = struct.unpack("<I", read(4))
            if tag_idx >= len(tags):
                raise IntegrityError(f"tag index {tag_idx} out of range",
                                     offset=fh.tell())
            languages.append(tags[tag_idx])
            if version >= 2:
                (length,) = struct.unpack("<I", read(4))
                ids.append(read(length).decode("utf-8"))
            vectors[i] = np.frombuffer(read(4 * dim), dtype="<f4")
    return EmbeddingSet(vectors, languages, ids)
