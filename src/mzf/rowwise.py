"""Row-by-row products over a stack of vectors: one BLAS call per row (GEMV
or DOT), the call a single vector makes, so a stack gives the bytes of its
rows one by one.  A plain matrix product over the stack would run GEMM,
whose summation order moves results by an ulp."""

import numpy as np


def apply(a, y):
    """a @ row for every row of y."""
    return np.matmul(a, y[..., None])[..., 0]


def times(y, a):
    """row @ a for every row of y."""
    return np.matmul(y[..., None, :], a)[..., 0, :]


def dots(x, y):
    """x[i] @ y[i] for every row i."""
    return np.matmul(x[..., None, :], y[..., :, None])[..., 0, 0]
