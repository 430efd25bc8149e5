import numpy as np
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.utils.numerics import clamp, relative_error, safe_divide


class TestSafeDivide:
    def test_plain_division(self):
        np.testing.assert_allclose(safe_divide([4.0, 9.0], [2.0, 3.0]),
                                   [2.0, 3.0])

    def test_zero_denominator_gives_fallback(self):
        out = safe_divide([1.0, 2.0], [0.0, 2.0], fallback=-7.0)
        np.testing.assert_allclose(out, [-7.0, 1.0])

    def test_eps_threshold(self):
        out = safe_divide([1.0], [1e-12], fallback=0.0, eps=1e-9)
        assert out[0] == 0.0

    def test_broadcasting(self):
        out = safe_divide(np.ones((2, 3)), 2.0)
        assert out.shape == (2, 3)

    @given(hnp.arrays(np.float64, 5,
                      elements=st.floats(-1e6, 1e6)),
           hnp.arrays(np.float64, 5,
                      elements=st.floats(-1e6, 1e6)))
    def test_never_produces_nonfinite(self, num, den):
        # With a threshold, near-zero denominators fall back instead of
        # overflowing to inf.
        assert np.all(np.isfinite(safe_divide(num, den, eps=1e-6)))


class TestClamp:
    @given(st.floats(-100, 100))
    def test_output_in_bounds(self, x):
        assert -1.0 <= clamp(x, -1.0, 1.0) <= 1.0

    def test_arrays(self):
        np.testing.assert_array_equal(clamp(np.array([-5.0, 0.5, 5.0]),
                                            0.0, 1.0), [0.0, 0.5, 1.0])


class TestRelativeError:
    def test_zero_for_equal(self):
        assert relative_error(3.0, 3.0) == 0.0

    def test_scale_invariance(self):
        assert np.isclose(relative_error(100.0, 110.0), 0.1)

    def test_zero_reference_uses_eps(self):
        assert np.isfinite(relative_error(0.0, 1.0))


class TestBatchInvariantMatmul:
    def test_einsum_fallback_rows_independent_of_batch(self, monkeypatch):
        """A shape class whose BLAS probe fails runs the einsum kernel:
        every row is byte-equal to its single-row product."""
        from repro.utils import numerics

        monkeypatch.setattr(numerics, "_blas_invariant", {})
        monkeypatch.setattr(numerics, "_probe_blas_row_invariance",
                            lambda *args: False)
        calls = []
        einsum = numerics._einsum_matmul

        def counted(a, b, out=None):
            calls.append(a.shape[0])
            return einsum(a, b, out)

        monkeypatch.setattr(numerics, "_einsum_matmul", counted)
        rng = np.random.default_rng(5)
        b = rng.normal(size=(13, 9))
        for n in (1, 2, 7, 40):
            a = rng.normal(size=(n, 13))
            full = numerics.batch_invariant_matmul(a, b)
            np.testing.assert_allclose(full, a @ b, rtol=1e-12)
            for i in range(n):
                assert full[i].tobytes() == numerics.batch_invariant_matmul(
                    a[i:i + 1], b)[0].tobytes()
        assert sorted(set(calls)) == [1, 2, 7, 40]

    @staticmethod
    def _stack(rng, n, m=5, k=24, width=16):
        a = rng.normal(size=(m, n, k)).astype(np.float32)
        b = rng.normal(size=(m, k, width)).astype(np.float32)
        return a, b

    def test_stacked_rows_independent_of_batch(self):
        """``(M, B, K) @ (M, K, N)``: every row of every stack element is
        byte-equal to its single-row product and to the 2-D product of
        its own element, also when the left operand is a strided view."""
        from repro.utils.numerics import batch_invariant_matmul
        rng = np.random.default_rng(11)
        for n in (1, 2, 7, 40):
            a, b = self._stack(rng, n)
            full = batch_invariant_matmul(a, b)
            assert full.shape == (5, n, 16)
            wide = np.ascontiguousarray(a.transpose(1, 0, 2))
            strided = wide.transpose(1, 0, 2)
            assert batch_invariant_matmul(strided, b).tobytes() == \
                full.tobytes()
            for m in range(5):
                assert full[m].tobytes() == \
                    batch_invariant_matmul(a[m], b[m]).tobytes()
            for i in range(n):
                assert full[:, i].tobytes() == batch_invariant_matmul(
                    a[:, i:i + 1], b)[:, 0].tobytes()

    def test_stacked_einsum_fallback(self, monkeypatch):
        """A failing probe routes stacked operands through einsum: rows
        stay byte-equal across batch sizes and agree with ``np.matmul``."""
        from repro.utils import numerics

        monkeypatch.setattr(numerics, "_blas_invariant", {})
        monkeypatch.setattr(numerics, "_probe_blas_row_invariance",
                            lambda *args: False)
        rng = np.random.default_rng(12)
        for n in (1, 2, 7, 40):
            a, b = self._stack(rng, n)
            out = np.empty((5, n, 16), np.float32)
            full = numerics.batch_invariant_matmul(a, b, out=out)
            assert full is out
            np.testing.assert_allclose(full, np.matmul(a, b), rtol=1e-6,
                                       atol=1e-6)
            for i in range(n):
                assert full[:, i].tobytes() == \
                    numerics.batch_invariant_matmul(
                        a[:, i:i + 1], b)[:, 0].tobytes()

    def test_two_dimensional_calls_unchanged(self, monkeypatch):
        """2-D calls compute what they did before stacked operands were
        supported: padded BLAS for one row, BLAS for more, or einsum
        ``ik,kj->ij`` when the probe fails."""
        from repro.utils import numerics
        rng = np.random.default_rng(13)
        b = rng.normal(size=(17, 48)).astype(np.float32)
        for n in (1, 2, 7, 40):
            a = rng.normal(size=(n, 17)).astype(np.float32)
            got = numerics.batch_invariant_matmul(a, b)
            if not numerics._blas_invariant[(17, 48, "f", "f")]:
                expected = np.einsum("ik,kj->ij", a, b)
            elif n == 1:
                expected = (np.concatenate([a, a]) @ b)[:1]
            else:
                expected = a @ b
            assert got.tobytes() == expected.tobytes()
        monkeypatch.setattr(numerics, "_blas_invariant", {})
        monkeypatch.setattr(numerics, "_probe_blas_row_invariance",
                            lambda *args: False)
        for n in (1, 2, 7, 40):
            a = rng.normal(size=(n, 17)).astype(np.float32)
            assert numerics.batch_invariant_matmul(a, b).tobytes() == \
                np.einsum("ik,kj->ij", a, b).tobytes()

    def test_probe_verdicts_are_exported(self, monkeypatch):
        """The verdicts accessor reports each probed class, a failed
        probe as ``False``, and hands out a copy."""
        from repro.utils import numerics

        monkeypatch.setattr(numerics, "_blas_invariant", {})
        monkeypatch.setattr(numerics, "_probe_blas_row_invariance",
                            lambda k, n, a_dtype, b_dtype: n != 9)
        rng = np.random.default_rng(3)
        a = rng.normal(size=(4, 13))
        numerics.batch_invariant_matmul(a, rng.normal(size=(13, 9)))
        numerics.batch_invariant_matmul(a, rng.normal(size=(13, 5)))
        verdicts = numerics.blas_probe_verdicts()
        assert verdicts == {(13, 9, "d", "d"): False,
                            (13, 5, "d", "d"): True}
        verdicts.clear()
        assert len(numerics.blas_probe_verdicts()) == 2
