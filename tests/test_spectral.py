import numpy as np
import pytest

from cmlmkit.errors import DegenerateInputError, DimensionError
from cmlmkit.spectral import first_principal_direction, top_two_directions


def jacobi_top_eigenvector(gram, sweeps=100, tol=1e-14):
    """Brute-force oracle: cyclic Jacobi rotations on a symmetric matrix."""
    a = np.array(gram, dtype=np.float64)
    n = a.shape[0]
    v = np.eye(n)
    for _ in range(sweeps):
        off = 0.0
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(a[p, q]) < tol:
                    continue
                off += a[p, q] ** 2
                theta = 0.5 * np.arctan2(2 * a[p, q], a[q, q] - a[p, p])
                c, s = np.cos(theta), np.sin(theta)
                rot = np.eye(n)
                rot[p, p] = c
                rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                a = rot.T @ a @ rot
                v = v @ rot
        if off < tol:
            break
    top = int(np.argmax(np.diag(a)))
    return v[:, top]


class TestFirstPrincipalDirection:
    def test_diagonal_gram(self):
        direction = first_principal_direction(np.array([[2.0, 0.0], [0.0, 1.0]]))
        np.testing.assert_allclose(direction, [1.0, 0.0], atol=1e-9)

    def test_rank_one_rows(self):
        rows = np.tile([3.0, 4.0], (5, 1))
        np.testing.assert_allclose(first_principal_direction(rows), [0.6, 0.8],
                                   atol=1e-12)

    def test_matches_jacobi_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            m = rng.standard_normal((50, 8))
            got = first_principal_direction(m)
            want = jacobi_top_eigenvector(m.T @ m)
            if np.dot(got, want) < 0:
                want = -want
            np.testing.assert_allclose(got, want, atol=1e-6)

    def test_row_permutation_invariance(self):
        rng = np.random.default_rng(5)
        m = rng.standard_normal((20, 6))
        base = first_principal_direction(m)
        for seed in range(3):
            perm = np.random.default_rng(seed).permutation(20)
            other = first_principal_direction(m[perm])
            np.testing.assert_allclose(base, other, atol=1e-9)

    def test_unit_norm_and_sign_convention(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            v = first_principal_direction(rng.standard_normal((12, 5)))
            np.testing.assert_allclose(np.linalg.norm(v), 1.0, rtol=1e-10)
            assert v[np.argmax(np.abs(v))] >= 0

    def test_all_zero_matrix_rejected(self):
        with pytest.raises(DegenerateInputError):
            first_principal_direction(np.zeros((4, 3)))

    def test_bad_rank_rejected(self):
        with pytest.raises(DimensionError):
            first_principal_direction(np.zeros(3))


class TestTopTwoDirections:
    def test_orthogonal_pair(self):
        rng = np.random.default_rng(9)
        m = rng.standard_normal((30, 4)) @ np.diag([5.0, 2.0, 0.5, 0.1])
        c1, c2 = top_two_directions(m)
        assert abs(np.dot(c1, c2)) < 1e-6

    def test_rank_one_input_rejected(self):
        rows = np.outer(np.arange(1, 7, dtype=float), [1.0, 2.0, 2.0])
        with pytest.raises(DegenerateInputError):
            top_two_directions(rows)


class TestCloseSingularValues:
    """Top two singular values 1 and 0.999: the direction must still be the
    true top eigenvector, which power iteration missed (|cos| 0.88)."""

    def _matrix(self):
        rng = np.random.default_rng(21)
        u, _ = np.linalg.qr(rng.standard_normal((500, 64)))
        v, _ = np.linalg.qr(rng.standard_normal((64, 64)))
        s = np.concatenate(([1.0, 0.999], np.linspace(0.5, 0.01, 62)))
        return (u * s) @ v.T, v

    def test_first_direction_is_the_true_top_eigenvector(self):
        m, v = self._matrix()
        got = first_principal_direction(m)
        assert abs(np.dot(got, v[:, 0])) >= 1 - 1e-9

    def test_top_two_are_the_true_top_eigenvectors(self):
        m, v = self._matrix()
        c1, c2 = top_two_directions(m)
        assert abs(np.dot(c1, v[:, 0])) >= 1 - 1e-9
        assert abs(np.dot(c2, v[:, 1])) >= 1 - 1e-9
