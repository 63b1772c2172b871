"""Post-training analysis: retrieval, debiasing, probes, and visualization.

All operations are pure over immutable embedding sets and deterministic, so
pipeline outputs can be compared byte for byte.
"""

from __future__ import annotations

import csv
import html
import math
from dataclasses import dataclass, field

import numpy as np

from . import records
from .autodiff import all_finite
from .errors import (ContractError, DataError, DegenerateInputError,
                     DimensionError, IntegrityError, NonFiniteError)
from .spectral import first_principal_direction, top_two_directions

EMBEDDING_MAGIC = b"CMLMEMB3"
EMBEDDING_VERSION = 3
_ROW_MAGIC = b"CMLMEMB1"  # versions 1 and 2, no longer read
_SECTIONS = {"tags.lengths": ("<u4", 1), "tags.utf8": ("|u1", 1),
             "tag_index": ("<u4", 1), "ids.lengths": ("<u4", 1),
             "ids.utf8": ("|u1", 1), "vectors": ("<f4", 2)}


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
        if not all_finite(self.vectors):
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


# Bytes held for one block of query rows: its float32 screen scores take at
# most half, its survivors' float64 re-ranking arrays the other half, so the
# similarity kernel never holds more of the query x pool matrix than this.
SCORE_BLOCK_BYTES = 32 * 2 ** 20

# The screen splits the pool's columns into G = min(max(SCREEN_GROUPS, k),
# pool size) interleaved groups (column j is in group j mod G), padding it
# to a multiple of G columns, so a row has at least k group maxima.
SCREEN_GROUPS = 256

# Bytes per survivor of the re-ranking arrays besides its two gathered rows
# (indices, screen values, score, sort keys and order).
_SURVIVOR_BYTES = 80
_UNIT_ROUNDOFF32 = float(np.finfo(np.float32).eps) / 2
_TINY32 = float(np.finfo(np.float32).tiny)


def _slice_rows(dim: int) -> int:
    """Rows per slice of float64 work on [rows, dim] arrays: a slice's
    three float64 arrays take at most SCORE_BLOCK_BYTES / 64 (512 KB by
    default). Slices four times as large ran as fast but raised the
    embed-eval benchmark's peak RSS by ~1.4 MB."""
    return max(1, SCORE_BLOCK_BYTES // (64 * 24 * max(dim, 1)))


def _float64_rows(matrix: np.ndarray, norms: np.ndarray | None):
    """(start, rows) for each slice of ``matrix``'s rows, cast to float64
    and divided by their ``norms`` unless those are None."""
    step = _slice_rows(matrix.shape[1])
    for a in range(0, matrix.shape[0], step):
        m = np.asarray(matrix[a:a + step], dtype=np.float64)
        yield a, m if norms is None else m / norms[a:a + step, None]


def _row_norms(matrix: np.ndarray, what: str) -> np.ndarray:
    """Float64 norms of ``matrix``'s rows, cast one slice at a time; a zero
    row is a ``DegenerateInputError``."""
    norms = np.empty(matrix.shape[0])
    for a, m in _float64_rows(matrix, None):
        norms[a:a + m.shape[0]] = np.linalg.norm(m, axis=1)
    if np.any(norms == 0.0):
        row = int(np.argmin(norms))
        raise DegenerateInputError(f"{what} row {row} is a zero vector")
    return norms


def _pair_scores(queries: np.ndarray, pool: np.ndarray, rows: np.ndarray,
                 cols: np.ndarray, norms=None) -> np.ndarray:
    """Float64 inner product of each (query row, pool row) pair, summed in
    one fixed order, so a pair's score is a function of the pair alone.
    With ``norms``, the float64 row norms of the queries and of the pool,
    each row is first divided by its norm: the score is the cosine."""
    a = queries[rows].astype(np.float64, copy=False)
    b = pool[cols].astype(np.float64, copy=False)
    if norms is not None:
        a /= norms[0][rows, None]
        b /= norms[1][cols, None]
    return np.einsum("ij,ij->i", a, b)


def _top_k(queries: np.ndarray, pool: np.ndarray, k: int,
           exclude: tuple[np.ndarray, np.ndarray] | None = None,
           norms: tuple[np.ndarray, np.ndarray] | None = None) -> np.ndarray:
    """Indices [n_queries, k] of each query's k highest-scoring pool rows,
    best first, with scores the float64 inner products of the rows, or
    their cosines when ``norms`` holds the rows' float64 norms
    (``_row_norms`` of the queries and of the pool). Inputs of any dtype
    are read in place and cast to float64 one slice of rows at a time.

    ``exclude`` holds (query row, pool row) index arrays, sorted by query
    row; those pairs are never retrieved, and every query must keep at least
    k pool rows. Ties go to the lowest pool index, also at the k-th place,
    so k=1 is the first maximum.

    Two passes per block of query rows. The screen scores the block in
    float32, from queries scaled to unit norm and the pool divided by its
    largest row norm, so no score can overflow. With d the width, u the
    float32 unit roundoff and tiny the smallest normal float32, each screen
    score is within E = (d + 3) u + 4 d tiny of its exact scaled value,
    whatever order the matmul sums in: input rounding, summation and
    underflow. The k-th largest of a row's G = min(max(SCREEN_GROUPS, k),
    pool size) group maxima is at most its k-th score, so a pool row whose
    screen score is more than 2E below that bound cannot be in the top k;
    the float32 threshold is rounded down. The survivors are re-ranked by
    ``_pair_scores`` and sorted by score descending, then pool index
    ascending, so a score and the order depend on the pair alone, not on
    the block, the chunk or the other queries. SCORE_BLOCK_BYTES bounds the
    float32 block (half) and the survivors' arrays (the other half, in
    chunks), with at least one query row per block and per chunk. Besides
    the inputs, the kernel holds the float32 screen copies of both.
    """
    n_pool, dim = pool.shape
    if not 1 <= k <= n_pool:
        raise ContractError(f"k={k} must be in [1, {n_pool}]")
    groups = min(max(SCREEN_GROUPS, k), n_pool)
    levels = -(-n_pool // groups)
    width = levels * groups
    step = max(1, SCORE_BLOCK_BYTES // (8 * width))
    # survivors per chunk, and per scoring slice of a chunk
    chunk = max(1, SCORE_BLOCK_BYTES // (4 * _SURVIVOR_BYTES))
    slice_len = _slice_rows(dim)
    # 2E, plus 2u for rounding the threshold (|threshold| <= 2) to float32,
    # so the float32 threshold stays at or below bound - 2E
    slack = np.float64(2 * ((dim + 4) * _UNIT_ROUNDOFF32 + 4 * dim * _TINY32))

    n_queries = queries.shape[0]
    q_norms, p_norms = (None, None) if norms is None else norms
    q32 = np.empty(queries.shape, dtype=np.float32)
    for a, m in _float64_rows(queries, q_norms):
        scale = np.sqrt(np.einsum("ij,ij->i", m, m))
        scale[scale == 0] = 1.0
        np.divide(m, scale[:, None], out=q32[a:a + m.shape[0]],
                  casting="same_kind")
    largest = max(np.einsum("ij,ij->i", m, m).max()
                  for _, m in _float64_rows(pool, p_norms))
    p32 = np.zeros((width, dim), dtype=np.float32)
    for a, m in _float64_rows(pool, p_norms):
        np.divide(m, math.sqrt(largest) or 1.0, out=p32[a:a + m.shape[0]],
                  casting="same_kind")

    top = np.empty((n_queries, k), dtype=np.int64)
    block = np.empty((min(step, n_queries), width), dtype=np.float32)
    for start in range(0, n_queries, step):
        stop = min(start + step, n_queries)
        screen = np.matmul(q32[start:stop], p32.T, out=block[:stop - start])
        screen[:, n_pool:] = -np.inf
        if exclude is not None:
            lo, hi = np.searchsorted(exclude[0], [start, stop])
            screen[exclude[0][lo:hi] - start, exclude[1][lo:hi]] = -np.inf
        by_group = screen.reshape(stop - start, levels, groups)
        group_max = by_group.max(axis=1)
        bound = np.sort(group_max, axis=1)[:, groups - k]
        # real scaled scores lie in [-1 - E, 1 + E], so -2 keeps them all
        # and drops padding and excluded pairs
        floor = np.maximum((bound - slack).astype(np.float32), -2)
        live = group_max >= floor[:, None]
        # a row keeps at most `levels` columns per live group
        edges = []
        if np.count_nonzero(live) * levels > chunk:
            reach = np.cumsum(live.sum(axis=1)) * levels
            edges = np.flatnonzero(np.diff((reach - 1) // chunk)) + 1
        for lo, hi in zip([0, *edges], [*edges, stop - start]):
            r, g = np.divmod(np.flatnonzero(live[lo:hi]), groups)
            r += lo
            pair, level = np.nonzero(by_group[r, :, g] >= floor[r, None])
            rows, cols = r[pair], level * groups + g[pair]
            scores = np.concatenate([
                _pair_scores(queries, pool, start + rows[a:a + slice_len],
                             cols[a:a + slice_len], norms)
                for a in range(0, rows.shape[0], slice_len)])
            order = np.lexsort((cols, -scores, rows))
            # rows is sorted, and every row has at least k survivors
            first = np.searchsorted(rows, np.arange(lo, hi))
            top[start + lo:start + hi] = cols[order[first[:, None]
                                                    + np.arange(k)]]
    return top


def in_batch_retrieval_accuracy(source: np.ndarray, target: np.ndarray) -> float:
    """Fraction of rows whose highest float64 inner product is their own
    pair; the first maximum wins."""
    best = _top_k(np.asarray(source), np.asarray(target), 1)[:, 0]
    return float(np.mean(best == np.arange(best.shape[0])))


def retrieval_accuracy(queries: EmbeddingSet, candidates: EmbeddingSet,
                       gold) -> float:
    """Fraction of queries whose nearest candidate by cosine is the gold one.

    Ties break toward the lowest candidate index.
    """
    gold = np.asarray(gold, dtype=np.int64)
    if gold.shape != (len(queries),):
        raise ContractError(
            f"gold map must assign one candidate per query, got shape {gold.shape}")
    if gold.min() < 0 or gold.max() >= len(candidates):
        raise ContractError("gold map points outside the candidate set")
    norms = (_row_norms(queries.vectors, "query"),
             _row_norms(candidates.vectors, "candidate"))
    best = _top_k(queries.vectors, candidates.vectors, 1, norms=norms)[:, 0]
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
    """Each row minus its projection onto its tag's direction, stored in
    ``vectors``' dtype. One tag's rows at a time are cast to float64, a
    slice at a time; their projections take one product over the group."""
    tags = np.asarray(tags)
    out = np.empty_like(vectors)
    step = _slice_rows(vectors.shape[1])
    for tag in sorted(set(tags.tolist())):
        if tag not in directions:
            raise DataError(f"no direction learned for tag {tag!r}")
        direction = directions[tag]
        rows = np.flatnonzero(tags == tag)
        group = np.empty((rows.size, vectors.shape[1]))
        for a in range(0, rows.size, step):
            group[a:a + step] = vectors[rows[a:a + step]]
        weights = group @ direction
        for a in range(0, rows.size, step):
            out[rows[a:a + step]] = (group[a:a + step]
                                     - np.outer(weights[a:a + step], direction))
        del group  # before the next tag's rows are cast
    return out


def pcr_debias(es: EmbeddingSet) -> EmbeddingSet:
    """Remove each row's projection onto its language's top singular direction.

    Directions are computed per language from the set itself; output rows are
    orthogonal to their language's direction within 1e-6.
    """
    out = _remove_directions(es.vectors, es.languages,
                             _directions_per_tag(es.vectors, es.languages))
    return EmbeddingSet(out, list(es.languages), list(es.ids),
                        None if es.labels is None else es.labels.copy())


def language_bias_histogram(queries: EmbeddingSet, pool: EmbeddingSet,
                            k: int = 10) -> dict[str, float]:
    """Language distribution of the top-k cosine neighbors over all queries.

    A pool row identical in (id, language) to the query is excluded, so a
    set queried against itself never retrieves the query row. Fractions are
    normalized to sum to one. A query that keeps fewer than k pool rows
    after that exclusion raises ``ContractError``.
    """
    if len(set(pool.languages)) < 2:
        raise ContractError("pool must span at least two languages")
    if k < 1:
        raise ContractError("k must be >= 1")
    if k > len(pool) - 1:
        raise ContractError(
            f"k={k} exceeds pool size minus the excluded self row ({len(pool) - 1})")
    query_keys = list(zip(queries.ids, queries.languages))
    rows_of: dict[tuple[str, str], list[int]] = {key: [] for key in query_keys}
    for j, key in enumerate(zip(pool.ids, pool.languages)):
        if key in rows_of:
            rows_of[key].append(j)
    excluded = [rows_of[key] for key in query_keys]
    n_excluded = np.array([len(r) for r in excluded], dtype=np.int64)
    short = np.flatnonzero(len(pool) - n_excluded < k)
    if short.size:
        i = int(short[0])
        raise ContractError(
            f"query {i} (id {queries.ids[i]!r}, language "
            f"{queries.languages[i]!r}) keeps {len(pool) - n_excluded[i]} pool "
            f"rows after its (id, language) exclusion, fewer than k={k}")
    exclude = (np.repeat(np.arange(len(queries)), n_excluded),
               np.fromiter((j for r in excluded for j in r), dtype=np.int64))
    norms = (_row_norms(queries.vectors, "query"),
             _row_norms(pool.vectors, "pool"))
    top = _top_k(queries.vectors, pool.vectors, k, exclude, norms)
    tags = pool.tag_set
    tag_of_row = np.searchsorted(tags, pool.languages)
    counts = np.bincount(tag_of_row[top.ravel()], minlength=len(tags))
    return {tag: int(n) / top.size for tag, n in zip(tags, counts)}


# gradient-descent settings of ``linear_probe`` and ``LogisticProbe``'s defaults
PROBE_LEARNING_RATE = 0.5
PROBE_STEPS = 500


def linear_probe(train: EmbeddingSet, test: EmbeddingSet) -> float:
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
        PROBE_LEARNING_RATE, PROBE_STEPS)
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
    if not (all_finite(pred) and all_finite(gold)):
        raise NonFiniteError("rank correlation needs finite input")
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

SVG_SIZE = 480  # pixels a side
SVG_PAD = 30
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
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("id", "lang", "x", "y"))
        writer.writerows((es.ids[i], es.languages[i], f"{coords[i, 0]:.8g}",
                          f"{coords[i, 1]:.8g}") for i in range(len(es)))
    _write_svg(es, coords, svg_path)
    return coords


def _write_svg(es: EmbeddingSet, coords: np.ndarray, path: str) -> None:
    size, pad = SVG_SIZE, SVG_PAD
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
                     f'font-family="sans-serif">{html.escape(tag, quote=False)}</text>')
    lines.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Embedding file format
# ---------------------------------------------------------------------------

def save_embeddings(es: EmbeddingSet, path: str) -> None:
    """Write ``es`` atomically as an embedding file (version 3): the sorted
    tag table, each row's tag index, the row ids (byte lengths plus one
    UTF-8 blob) and the float32 vectors, one ``records`` section each."""
    index = {tag: i for i, tag in enumerate(es.tag_set)}
    records.write(path, EMBEDDING_MAGIC, EMBEDDING_VERSION, [
        *_string_sections("tags", list(index)),
        ("tag_index", np.array([index[tag] for tag in es.languages], np.uint32)),
        *_string_sections("ids", [str(row_id) for row_id in es.ids]),
        ("vectors", np.asarray(es.vectors, dtype=np.float32))])


def _string_sections(name: str, strings: list[str]) -> list:
    encoded = [s.encode("utf-8") for s in strings]
    return [(f"{name}.lengths", np.array([len(b) for b in encoded], np.uint32)),
            (f"{name}.utf8", np.frombuffer(b"".join(encoded), np.uint8))]


def load_embeddings(path: str) -> EmbeddingSet:
    """Read an embedding file (version 3). A file of the older row format
    (versions 1 and 2) is an ``IntegrityError`` naming its version."""
    with open(path, "rb") as fh:
        head = fh.read(len(_ROW_MAGIC) + 4)
    if head[:-4] == _ROW_MAGIC:
        raise IntegrityError("unsupported embedding file version "
                             f"{int.from_bytes(head[-4:], 'little')}", offset=8)
    sections = records.read(path, EMBEDDING_MAGIC, EMBEDDING_VERSION,
                            "embedding file")
    found = {name: (a.dtype.str, a.ndim) for name, (a, _) in sections.items()}
    if found != _SECTIONS:
        raise IntegrityError(f"embedding file has sections {found}, not {_SECTIONS}")
    vectors, (index, at) = sections["vectors"][0], sections["tag_index"]
    tags = _strings(sections, "tags", len(sections["tags.lengths"][0]))
    if len(index) != len(vectors) or np.any(index >= len(tags)):
        raise IntegrityError("tag index out of range or miscounted", offset=at)
    return EmbeddingSet(vectors, np.array(tags, dtype=object)[index].tolist(),
                        _strings(sections, "ids", len(vectors)))


def _strings(sections, name: str, count: int) -> list[str]:
    """The ``count`` strings of sections ``name.lengths`` and ``name.utf8``."""
    lengths, (blob, at) = sections[f"{name}.lengths"][0], sections[f"{name}.utf8"]
    if len(lengths) != count or lengths.sum(dtype=np.int64) != len(blob):
        raise IntegrityError(f"{name}.lengths do not fit {name}.utf8", offset=at)
    raw, ends = blob.tobytes(), np.cumsum(lengths, dtype=np.int64).tolist()
    return [_decode(raw[a:b], at + a, f"{name} entry")
            for a, b in zip([0] + ends, ends)]


def _decode(raw: bytes, offset: int, what: str) -> str:
    """``raw``, read from file offset ``offset``, as UTF-8."""
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise IntegrityError(f"{what} is not valid UTF-8",
                             offset=offset + exc.start) from None
