"""Numpy backend: the fused kernel's op set, specified bitwise.

Each op is specified down to the floating-point operation *order*, because
the compiled kernel's acceptance bar is bit-identity with the interpreted
reference kernel — not approximate agreement.
"""

from __future__ import annotations

import numpy as np

from repro.utils.numerics import batch_invariant_matmul


class NumpyBackend:
    """Implementation of the fused-kernel ops."""

    name = "numpy"

    @staticmethod
    def matmul(a: np.ndarray, b: np.ndarray, out=None) -> np.ndarray:
        """BLAS 2-D product (exactly ``a @ b``).

        The compiler concatenates a tile-row's model operands along
        columns, so one call covers every model; BLAS computes each
        output column from a single operand column, which keeps the
        concatenated product bitwise equal to the per-model products.
        ``out`` (optional) receives the product — same values, no
        result allocation.
        """
        return np.matmul(a, b, out=out)

    @staticmethod
    def invariant_matmul(a: np.ndarray, b: np.ndarray,
                         out=None) -> np.ndarray:
        """Batch-invariant 2-D product (einsum; row/column independent)."""
        return batch_invariant_matmul(a, b, out)

    @staticmethod
    def decode_accumulate(terms: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Ordered decode collapse: ``out[b,t,c] += sum_j terms[j,t,b,c]``.

        ``j`` enumerates the (stream, weight-sign, slice) combinations in
        exactly the interpreted kernel's nested loop order. The sum stays
        an explicit ascending-``j`` loop of vectorized adds: ``np.sum``
        reduces pairwise, which regroups the additions and drifts in the
        last ulp, breaking bit-identity with the reference kernel. ``j``
        is small (streams x signs x slices), so the loop costs nothing
        next to the element-wise adds it issues.
        """
        for j in range(terms.shape[0]):
            out += terms[j].transpose(1, 0, 2)
        return out

    @staticmethod
    def decode_contract(counts: np.ndarray,
                        prefac: np.ndarray) -> np.ndarray:
        """Fused decode collapse over the natural measurement layout.

        ``counts`` is the bias-corrected count tensor in the stacked
        read-out's native ``(stream, batch, sign, slice, t_c, cols)``
        memory order; ``prefac`` the ``(stream, sign, slice)`` signed
        power-of-two shift-and-add factors. Returns ``(batch, t_c,
        cols)``. ``np.einsum`` (``optimize=False``) accumulates the
        contracted ``(s, w, k)`` axes in ascending index order for every
        output element — the interpreted kernel's exact addition order —
        and each ``counts * prefac`` product is an exact power-of-two
        scaling, so the single fused contraction is bitwise equal to the
        reference chain of per-term multiply-accumulate passes.
        """
        return np.einsum("sbwktc,swk->btc", counts, prefac)
