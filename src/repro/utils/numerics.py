"""Small numeric helpers used across the library."""

from __future__ import annotations

import numpy as np


def clamp(x, low, high):
    """Element-wise clamp of ``x`` into ``[low, high]``."""
    return np.minimum(np.maximum(x, low), high)


def safe_divide(num, den, fallback=0.0, eps: float = 0.0):
    """Element-wise ``num / den`` that returns ``fallback`` where ``|den| <= eps``.

    The division is never evaluated on the masked entries, so no warnings are
    emitted for zero denominators.
    """
    num = np.asarray(num, dtype=float)
    den = np.asarray(den, dtype=float)
    num, den = np.broadcast_arrays(num, den)
    mask = np.abs(den) > eps
    out = np.full(num.shape, float(fallback))
    np.divide(num, den, out=out, where=mask)
    return out


#: Per shape-class verdicts of :func:`_probe_blas_row_invariance`:
#: ``(K, N, a_dtype, b_dtype) -> bool``. Probes are deterministic, so
#: concurrent (or cross-process) probing of one class always reaches the
#: same verdict and the chosen kernel is consistent process-wide.
_blas_invariant: dict = {}

#: Row-window checks of the invariance probe: every ``[lo, hi)`` slice of
#: the probe operand must reproduce the full-problem rows bitwise, and
#: single-row windows additionally validate the two-row padding used for
#: ``B = 1`` calls. Windows straddle the small-``B`` kernel-dispatch
#: region and a blocking boundary of the full problem.
_PROBE_ROWS = 4131
_PROBE_WINDOWS = ((0, 1), (0, 2), (1, 2), (3, 10), (500, 501),
                  (11, 1031), (1031, _PROBE_ROWS), (2048, 2049))


def _einsum_matmul(a: np.ndarray, b: np.ndarray, out=None) -> np.ndarray:
    """Reference batch-invariant product: fixed-order ``K`` accumulation."""
    if a.ndim == b.ndim == 2:
        return np.einsum("ik,kj->ij", a, b, out=out)
    return np.einsum("...ik,...kj->...ij", a, b, out=out)


def _probe_blas_row_invariance(k: int, n: int, a_dtype, b_dtype) -> bool:
    """One-time check: is BLAS row-invariant for this operand class?

    Generates a deterministic ``(_PROBE_ROWS, k) @ (k, n)`` problem and
    verifies that every probed row window — including single rows routed
    through the two-row pad of :func:`batch_invariant_matmul` — matches
    the full-problem result bitwise. Reduction order inside gemm kernels
    is value-independent, so a passing probe transfers to real operands
    of the same shape class.
    """
    rng = np.random.default_rng([17, k, n, ord(a_dtype.char),
                                 ord(b_dtype.char)])
    a = rng.normal(size=(_PROBE_ROWS, k)).astype(a_dtype)
    b = rng.normal(size=(k, n)).astype(b_dtype)
    full = a @ b
    for lo, hi in _PROBE_WINDOWS:
        sub = a[lo:hi]
        if hi - lo == 1:
            got = (np.concatenate([sub, sub]) @ b)[:1]
        else:
            got = sub @ b
        if not np.array_equal(got, full[lo:hi]):
            return False
    return True


def batch_invariant_matmul(a: np.ndarray, b: np.ndarray,
                           out=None) -> np.ndarray:
    """``a @ b`` whose per-row results do not depend on the batch size.

    BLAS gemm/gemv pick blocking (and kernel dispatch) as a function of
    the *whole* problem shape, so row ``i`` of ``(B, K) @ (K, N)`` can
    differ in the low-order bits between ``B = 1`` and ``B = 64`` even for
    identical inputs. The serving layer coalesces many requests into one
    batch and must return byte-identical results to a direct per-request
    call, so this product must accumulate each output element over ``K``
    in an order independent of ``B``.

    The reference implementation is :func:`np.einsum` (``optimize=False``)
    — batch-invariant by construction, but scalar. On most hosts BLAS
    *gemm* is also row-invariant for all but degenerate shapes (its
    per-element ``K`` loop is fixed; only the gemv/small-kernel dispatch
    varies), so the first call of each ``(K, N, dtypes)`` class runs a
    deterministic bitwise probe (:func:`_probe_blas_row_invariance`) and,
    when it passes, every call of that class uses BLAS — with single-row
    batches computed via a validated two-row pad so they cannot fall into
    the gemv path. A failing probe pins the class to einsum. Either way
    the kernel choice is a pure function of the shape class, so results
    stay byte-identical across batch sizes.

    Stacked operands ``(M, B, K) @ (M, K, N)`` are ``M`` independent
    products of one ``(K, N)`` class: ``np.matmul`` runs one gemm per
    stack element, so they share that class's probe verdict, and a
    ``B = 1`` stack is padded to two rows along the row axis.

    ``out`` (optional, shape/dtype-matching) receives the product —
    same values, no result allocation.
    """
    a = np.atleast_2d(a)
    if a.ndim != b.ndim or a.ndim > 3 or \
            a.dtype.kind != "f" or b.dtype.kind != "f":
        return _einsum_matmul(a, b, out)
    key = (b.shape[-2], b.shape[-1], a.dtype.char, b.dtype.char)
    fast = _blas_invariant.get(key)
    if fast is None:
        fast = _blas_invariant[key] = _probe_blas_row_invariance(
            key[0], key[1], a.dtype, b.dtype)
    if not fast:
        return _einsum_matmul(a, b, out)
    if a.shape[-2] == 1:
        padded = np.matmul(np.concatenate([a, a], axis=-2), b)[..., :1, :]
        if out is None:
            return padded
        out[...] = padded
        return out
    return np.matmul(a, b, out=out)


def blas_probe_verdicts() -> dict:
    """The probe verdicts so far, as a copy: ``(K, N, a_dtype char,
    b_dtype char) -> bool``, ``True`` where the class runs BLAS and
    ``False`` where a failed probe pinned it to einsum."""
    return dict(_blas_invariant)


def relative_error(reference, value, eps: float = 1e-30):
    """Element-wise ``|value - reference| / max(|reference|, eps)``."""
    reference = np.asarray(reference, dtype=float)
    value = np.asarray(value, dtype=float)
    denom = np.maximum(np.abs(reference), eps)
    return np.abs(value - reference) / denom
