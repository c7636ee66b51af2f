
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ridgesnr import DimensionError, nnls_2var, sym_eig
from test_estimator import nnls_grid_oracle, objective


class TestSymEig:
    def test_identity(self):
        w, v = sym_eig(np.eye(3))
        assert np.allclose(w, 1.0)
        # eigenvectors form a signed permutation of the identity
        assert np.allclose(np.abs(v) @ np.abs(v.T), np.eye(3), atol=1e-12)

    def test_two_by_two_analytic(self):
        w, _ = sym_eig([[2.0, 1.0], [1.0, 2.0]])
        assert w == pytest.approx([3.0, 1.0], abs=1e-12)

    def test_reconstruction_random(self):
        rng = np.random.default_rng(42)
        a = rng.standard_normal((8, 8))
        a = a + a.T
        w, v = sym_eig(a)
        rebuilt = v @ np.diag(w) @ v.T
        assert np.max(np.abs(a - rebuilt)) <= 1e-8 * np.max(np.abs(a))

    def test_descending_order(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((12, 12))
        a = a + a.T
        w, _ = sym_eig(a)
        assert np.all(np.diff(w) <= 0)

    def test_rejects_non_square(self):
        with pytest.raises(DimensionError):
            sym_eig(np.ones((2, 3)))

    def test_rejects_asymmetric(self):
        with pytest.raises(DimensionError):
            sym_eig([[1.0, 2.0], [0.5, 1.0]])

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=1, max_value=32), st.integers(min_value=0, max_value=10_000))
    def test_orthonormality_and_trace_property(self, n, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((n, n))
        a = a + a.T
        w, v = sym_eig(a)
        assert np.max(np.abs(v.T @ v - np.eye(n))) <= 1e-10
        rebuilt = v @ np.diag(w) @ v.T
        scale = max(np.max(np.abs(a)), 1e-30)
        assert np.max(np.abs(a - rebuilt)) <= 1e-8 * scale
        assert abs(w.sum() - np.trace(a)) <= 1e-9 * scale * n


class TestNnls2Var:
    def test_interior_optimum(self):
        sigma, resid = nnls_2var(np.eye(2), [1.0, 2.0])
        assert sigma == pytest.approx([1.0, 2.0], abs=1e-12)
        assert resid == pytest.approx(0.0, abs=1e-12)

    def test_clamps_negative_component(self):
        sigma, resid = nnls_2var(np.eye(2), [1.0, -1.0])
        assert sigma == pytest.approx([1.0, 0.0], abs=1e-12)
        assert resid == pytest.approx(1.0, abs=1e-12)

    def test_matches_grid_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            xi = rng.standard_normal((6, 2))
            phi = rng.standard_normal(6)
            sigma, _ = nnls_2var(xi, phi)
            assert objective(xi, phi, sigma) <= nnls_grid_oracle(xi, phi) + 1e-3

    def test_rank_deficient_falls_back(self):
        xi = np.array([[1.0, 1.0], [1.0, 1.0], [1.0, 1.0]])
        sigma, _ = nnls_2var(xi, [3.0, 3.0, 3.0])
        assert np.all(sigma >= 0)
        assert objective(xi, np.array([3.0, 3.0, 3.0]), sigma) <= 1e-18

    def test_rejects_bad_shapes(self):
        with pytest.raises(DimensionError):
            nnls_2var(np.ones((3, 3)), np.ones(3))
        with pytest.raises(DimensionError):
            nnls_2var(np.ones((1, 2)), np.ones(1))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=0, max_value=100_000))
    def test_objective_dominates_simple_candidates(self, seed):
        rng = np.random.default_rng(seed)
        xi = rng.standard_normal((5, 2))
        phi = rng.standard_normal(5)
        sigma, _ = nnls_2var(xi, phi)
        assert np.all(sigma >= 0)
        best = objective(xi, phi, sigma)
        assert best <= objective(xi, phi, np.zeros(2)) + 1e-12
        unconstrained, *_ = np.linalg.lstsq(xi, phi, rcond=None)
        clamped = np.maximum(unconstrained, 0.0)
        assert best <= objective(xi, phi, clamped) + 1e-12


@pytest.mark.parametrize("call, message", [
    (lambda: sym_eig(np.ones(3)), "A must be two-dimensional"),
    (lambda: sym_eig([[1.0, np.nan], [np.nan, 1.0]]), "A contains non-finite entries"),
    (lambda: nnls_2var(np.ones((3, 2)), np.ones(4)), "phi length (4,) does not match Xi rows 3"),
    (lambda: nnls_2var(np.ones((3, 2)), [1.0, np.inf, 1.0]), "phi contains non-finite entries"),
], ids=["ndim", "non-finite matrix", "phi length", "non-finite phi"])
def test_input_checks(call, message):
    with pytest.raises(DimensionError, match=re.escape(message)):
        call()
