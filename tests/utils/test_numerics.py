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
