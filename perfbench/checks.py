"""Correctness checks on the program's outputs.

Each check recomputes what it needs apart from the program (a schedule from
the plan, a brute-force float64 neighbour count, a singular vector from
``np.linalg.svd``) or tests a property the method must have. No check
compares against a stored copy of earlier output. Every check returns a
list of failure messages; an empty list means the output passed.
"""

from __future__ import annotations

import math

import numpy as np

from cmlmkit import training

LOSS_WINDOW = 5
EMBED_RTOL = 1e-4       # float32 rows, batched against one-at-a-time
EMBED_ATOL = 1e-5
ORTHOGONALITY_TOL = 1e-6


def expected_lr(plan, step: int) -> float:
    """Linear warmup from 0, then linear decay to 0 at the plan's last step."""
    total = plan.total_steps()
    warmup = plan.warmup_steps
    if warmup > 0 and step < warmup:
        return plan.learning_rate * step / warmup
    if total > warmup:
        return plan.learning_rate * (total - step) / (total - warmup)
    return plan.learning_rate


def _cmlm_losses(history: list[dict]) -> list[float]:
    """CMLM losses of the first stage, which is a cmlm stage in every plan here."""
    first = history[0]["stage"] if history else None
    out = []
    for record in history:
        if record["stage"] != first:
            break
        out.append(record["cmlm_loss"])
    return out


def cmlm_loss_final(history: list[dict]) -> float:
    """Mean CMLM loss over the last window of the first (CMLM) stage."""
    losses = _cmlm_losses(history)
    return float(np.mean(losses[-LOSS_WINDOW:]))


def check_training(plan, history: list[dict], params, checkpoint_path) -> list[str]:
    failures = []
    total = plan.total_steps()
    if len(history) != total:
        failures.append(f"{len(history)} step records for a {total}-step plan")
    kinds = [kind for kind, n in plan.stages() for _ in range(n)]
    got = [r.get("stage") for r in history]
    if got != kinds:
        failures.append("stage kinds are not in the plan's order and counts")
    for i, record in enumerate(history):
        if record.get("step") != i:
            failures.append(f"record {i} has step {record.get('step')}")
            break
    for record in history:
        want = expected_lr(plan, record["step"])
        if not math.isclose(record["lr"], want, rel_tol=1e-9, abs_tol=1e-15):
            failures.append(f"step {record['step']}: lr {record['lr']!r} "
                            f"!= schedule {want!r}")
            break
    for record in history:
        bad = [k for k, v in record.items()
               if k == "loss" or k.endswith("_loss")
               if not (math.isfinite(v) and v > 0.0)]
        if bad:
            failures.append(f"step {record['step']}: {bad} not finite and positive")
            break
    losses = _cmlm_losses(history)
    if plan.stages()[0][0] != "cmlm" or len(losses) < 2 * LOSS_WINDOW:
        failures.append("first stage is not a CMLM stage of at least "
                        f"{2 * LOSS_WINDOW} steps")
    else:
        start = float(np.mean(losses[:LOSS_WINDOW]))
        end = float(np.mean(losses[-LOSS_WINDOW:]))
        if not end < start:
            failures.append(f"CMLM loss did not fall over the first stage: "
                            f"{start:.4f} -> {end:.4f}")
    if not checkpoint_path:
        failures.append("run wrote no checkpoint")
        return failures
    bundle = training.load_checkpoint(checkpoint_path)
    if bundle.step != total:
        failures.append(f"checkpoint step {bundle.step} != {total}")
    failures += check_params_equal(params, bundle.params, "final checkpoint")
    return failures


def check_params_equal(expected, got, what: str) -> list[str]:
    if sorted(expected) != sorted(got):
        return [f"{what}: parameter names differ"]
    for name in sorted(expected):
        a, b = expected[name].data, got[name].data
        if a.dtype != b.dtype or a.shape != b.shape or a.tobytes() != b.tobytes():
            return [f"{what}: parameter {name!r} is not bit-identical"]
    return []


def check_batched_rows(batched: np.ndarray, singles: np.ndarray,
                       what: str = "pool") -> list[str]:
    """Batched rows equal one-at-a-time rows within float32 tolerance."""
    if batched.shape != singles.shape:
        return [f"{what}: batched rows {batched.shape} vs single rows {singles.shape}"]
    if not np.allclose(batched, singles, rtol=EMBED_RTOL, atol=EMBED_ATOL):
        worst = float(np.max(np.abs(batched.astype(np.float64) - singles)))
        return [f"{what}: batched rows differ from single rows by up to {worst:.3g}"]
    return []


def check_reload(saved, loaded) -> list[str]:
    """Vectors and language tags survive a save/load bit for bit."""
    failures = []
    want = np.asarray(saved.vectors, dtype=np.float32)
    if loaded.vectors.dtype != np.float32 or loaded.vectors.shape != want.shape \
            or loaded.vectors.tobytes() != want.tobytes():
        failures.append("reloaded vectors are not bit-identical to the saved ones")
    if list(loaded.languages) != list(saved.languages):
        failures.append("reloaded language tags differ from the saved ones")
    return failures


def _unit_rows(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m, dtype=np.float64)
    return m / np.linalg.norm(m, axis=1, keepdims=True)


def brute_force_retrieval_hits(queries: np.ndarray, candidates: np.ndarray,
                               gold) -> int:
    """Queries whose first cosine maximum is the gold candidate, one by one."""
    q, c = _unit_rows(queries), _unit_rows(candidates)
    hits = 0
    for i in range(q.shape[0]):
        hits += int(np.argmax(c @ q[i]) == gold[i])
    return hits


def check_retrieval(accuracy: float, queries: np.ndarray,
                    candidates: np.ndarray, gold) -> list[str]:
    hits = brute_force_retrieval_hits(queries, candidates, gold)
    n = len(gold)
    if accuracy != hits / n:
        return [f"retrieval accuracy {accuracy!r} != brute force {hits}/{n}"]
    return []


def check_pcr(original: np.ndarray, debiased: np.ndarray,
              languages: list[str]) -> list[str]:
    """Each debiased row is orthogonal to its language's top right-singular
    vector of the original rows, relative to the row's norm."""
    tags = np.asarray(languages)
    failures = []
    for tag in sorted(set(languages)):
        rows = np.where(tags == tag)[0]
        top = np.linalg.svd(np.asarray(original[rows], dtype=np.float64),
                            full_matrices=False)[2][0]
        out = np.asarray(debiased[rows], dtype=np.float64)
        norms = np.maximum(np.linalg.norm(out, axis=1), 1e-12)
        worst = float(np.max(np.abs(out @ top) / norms))
        if worst > ORTHOGONALITY_TOL:
            failures.append(f"PCR rows of {tag!r} are not orthogonal to its top "
                            f"singular vector: {worst:.2e} > {ORTHOGONALITY_TOL}")
    return failures


def brute_force_histogram(queries, pool, k: int) -> dict[str, float]:
    """Top-k cosine neighbours per query, skipping pool rows with the query's
    (id, language); ties go to the lowest pool index."""
    p = _unit_rows(pool.vectors)
    q = _unit_rows(queries.vectors)
    order_ids = np.arange(len(pool))
    rows_of: dict[tuple[str, str], list[int]] = {}
    for j, key in enumerate(zip(pool.ids, pool.languages)):
        rows_of.setdefault(key, []).append(j)
    counts = {tag: 0 for tag in sorted(set(pool.languages))}
    for i in range(len(queries)):
        sims = p @ q[i]
        sims[rows_of.get((queries.ids[i], queries.languages[i]), [])] = -np.inf
        top = np.lexsort((order_ids, -sims))[:k]
        for j in top:
            counts[pool.languages[j]] += 1
    total = k * len(queries)
    return {tag: n / total for tag, n in counts.items()}


def check_histogram(hist: dict, sample_hist: dict, sample, pool, k: int,
                    label: str) -> list[str]:
    """Fractions sum to one, and a sample of queries matches brute force."""
    failures = []
    if sorted(hist) != sorted(set(pool.languages)):
        failures.append(f"histogram {label}: tags {sorted(hist)} are not the pool's")
    values = np.array(list(hist.values()), dtype=np.float64)
    if np.any(values < 0) or not math.isclose(values.sum(), 1.0, abs_tol=1e-9):
        failures.append(f"histogram {label}: fractions sum to {values.sum()!r}")
    want = brute_force_histogram(sample, pool, k)
    if sorted(sample_hist) != sorted(want) or any(
            not math.isclose(sample_hist[t], want[t], abs_tol=1e-12) for t in want):
        failures.append(f"histogram {label}: sample {sample_hist} != "
                        f"brute force {want}")
    return failures
