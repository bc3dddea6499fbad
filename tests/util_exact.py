"""Exact helpers shared by tests: integer determinants, the exhaustive
ML oracle and the per-pair Gram-Schmidt oracle."""

import numpy as np


def int_det(matrix) -> int:
    """Exact determinant of an integer matrix via fraction-free elimination."""
    a = [[int(v) for v in row] for row in matrix]
    n = len(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            pivot = next((r for r in range(k + 1, n) if a[r][k] != 0), None)
            if pivot is None:
                return 0
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def ml_grid(h, y, alphabet):
    """Exhaustive ML decisions for every row of the block y: the symbol
    vector of least ||y - H x||^2 over the full sqrt(M)**K grid, the
    lexicographically smallest of exactly tied ones (the grid runs in
    ascending order and the first minimum wins)."""
    k = h.shape[1]
    pts = alphabet.points.astype(float)
    grid = pts[np.indices((alphabet.sqrt_m,) * k).reshape(k, -1).T]
    images = grid @ h.T
    out = np.empty((len(y), k))
    for i, row in enumerate(y):
        resid = images - row
        out[i] = grid[np.argmin(np.einsum("ij,ij->i", resid, resid))]
    return out


def gram_schmidt_pairwise(basis):
    """Gram-Schmidt of the columns as (squared norms, mu), taking the squared
    norm of orthogonal column j anew for every pair (i, j); the reference
    whose bytes intsearch._gram_schmidt must return."""
    n = basis.shape[1]
    ortho = np.zeros_like(basis)
    mu = np.eye(n)
    for i in range(n):
        v = basis[:, i].copy()
        for j in range(i):
            mu[i, j] = (basis[:, i] @ ortho[:, j]) / (ortho[:, j] @ ortho[:, j])
            v -= mu[i, j] * ortho[:, j]
        ortho[:, i] = v
    return np.sum(ortho**2, axis=0), mu
