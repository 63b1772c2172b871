"""Top singular directions from an exact eigendecomposition of the Gram matrix."""

from __future__ import annotations

import numpy as np

from .errors import DegenerateInputError, DimensionError


def _fix_sign(v: np.ndarray) -> np.ndarray:
    """Sign convention: the component of largest magnitude is non-negative."""
    lead = v[int(np.argmax(np.abs(v)))]
    return -v if lead < 0 else v


def _top_eigenvectors(m, count: int) -> np.ndarray:
    """Unit eigenvectors, as columns, of the ``count`` largest eigenvalues
    of ``m^T m`` (largest first), from ``np.linalg.eigh`` of the d×d Gram
    matrix; the Gram matrix is invariant under row permutation."""
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise DimensionError(f"expected a non-empty 2-d matrix, got shape {m.shape}")
    if not np.any(m):
        raise DegenerateInputError("cannot extract a principal direction from an all-zero matrix")
    _, vectors = np.linalg.eigh(m.T @ m)  # eigenvalues ascending
    return vectors[:, ::-1][:, :count]


def first_principal_direction(m) -> np.ndarray:
    """Unit top right-singular vector of a matrix of row vectors."""
    return _fix_sign(_top_eigenvectors(m, 1)[:, 0])


def top_two_directions(m) -> tuple[np.ndarray, np.ndarray]:
    """First two right-singular directions.

    Raises ``DegenerateInputError`` when the matrix has rank < 2 (its second
    singular value is numerically zero next to its norm).
    """
    m = np.asarray(m, dtype=np.float64)
    vectors = _top_eigenvectors(m, 2)
    # ||m v2|| is the second singular value to within rounding of ||m||;
    # sqrt of the second eigenvalue would only be good to sqrt(eps) ||m||
    scale = max(1.0, float(np.linalg.norm(m)))
    if vectors.shape[1] < 2 or np.linalg.norm(m @ vectors[:, 1]) <= 1e-9 * scale:
        raise DegenerateInputError("matrix has rank < 2; no second direction exists")
    return _fix_sign(vectors[:, 0]), _fix_sign(vectors[:, 1])
