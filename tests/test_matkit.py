"""Linear-algebra kernel tests.

Derived expectations are computed by independent oracles inside each test
(dense expansion, hand-solved characteristic polynomials, SVD ranks)
rather than by the functions under test.
"""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from jumpstab.matkit import (
    NumericalError,
    as_matrix,
    as_square,
    psd_project,
    spectral_norm,
    spectral_radius,
    sqrtm_psd,
    symmetrize,
    vec,
)


class TestValidation:
    def test_as_matrix_accepts_lists(self):
        m = as_matrix([[1, 2], [3, 4]])
        assert m.dtype == np.float64
        assert m.shape == (2, 2)

    def test_rejects_1d(self):
        with pytest.raises(ValueError, match="2-D"):
            as_matrix([1.0, 2.0])

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="nonempty"):
            as_matrix(np.zeros((0, 0)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_nonfinite(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            as_matrix([[1.0, bad], [0.0, 1.0]])

    def test_as_square_rejects_rectangular(self):
        with pytest.raises(ValueError, match="square"):
            as_square(np.ones((2, 3)))


class TestVec:
    def test_column_stacking_order(self):
        assert_allclose(vec([[1.0, 2.0], [3.0, 4.0]]), [1.0, 3.0, 2.0, 4.0])

    def test_vec_identity_dots_to_trace(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            phi = rng.standard_normal((2, 2))
            phi = phi + phi.T
            assert_allclose(vec(np.eye(2)) @ vec(phi), np.trace(phi), atol=1e-12)

    def test_vec_of_triple_product(self):
        # vec(A Φ Bᵀ) = (B ⊗ A) vec(Φ), oracle by dense expansion
        rng = np.random.default_rng(5)
        for _ in range(5):
            a = rng.standard_normal((2, 2))
            b = rng.standard_normal((2, 2))
            phi = rng.standard_normal((2, 2))
            assert_allclose(
                vec(a @ phi @ b.T), np.kron(b, a) @ vec(phi), atol=1e-10
            )


class TestSpectralRadius:
    def test_diagonal(self):
        assert spectral_radius(np.diag([0.5, -0.9])) == pytest.approx(0.9)

    def test_rotation_complex_pair(self):
        assert spectral_radius([[0.0, 1.0], [-1.0, 0.0]]) == pytest.approx(1.0)

    def test_lifted_markov_example(self):
        # Characteristic polynomial of [[0.432,1.008],[0.175,0.075]] is
        # λ² − 0.507 λ − 0.144 (trace 0.507, det 0.432·0.075 − 1.008·0.175
        # = −0.144); the hand-solved positive root is the oracle.
        root = (0.507 + np.sqrt(0.507**2 + 4 * 0.144)) / 2
        got = spectral_radius([[0.432, 1.008], [0.175, 0.075]])
        assert got == pytest.approx(root, rel=1e-12)
        assert got == pytest.approx(0.70986, abs=5e-6)

    def test_kron_squares_the_radius(self):
        rng = np.random.default_rng(13)
        for _ in range(5):
            a = rng.standard_normal((3, 3))
            assert spectral_radius(np.kron(a, a)) == pytest.approx(
                spectral_radius(a) ** 2, rel=1e-9
            )

    def test_rejects_rectangular(self):
        with pytest.raises(ValueError, match="square"):
            spectral_radius(np.ones((2, 3)))


class TestSpectralNorm:
    def test_matches_largest_singular_value(self):
        rng = np.random.default_rng(17)
        m = rng.standard_normal((3, 4))
        assert spectral_norm(m) == pytest.approx(np.linalg.svd(m)[1][0])

    def test_orthogonal_has_unit_norm(self):
        q = np.array([[0.0, 1.0], [-1.0, 0.0]])
        assert spectral_norm(q) == pytest.approx(1.0)


class TestSymmetrize:
    def test_symmetric_part(self):
        m = np.array([[1.0, 2.0], [0.0, 1.0]])
        assert_allclose(symmetrize(m), [[1.0, 1.0], [1.0, 1.0]])


class TestPsdProject:
    def test_identity_unchanged(self):
        assert_allclose(psd_project(np.eye(2)), np.eye(2))

    def test_asymmetry_repair(self):
        m = np.array([[1.0, 1e-12], [0.0, 1.0]])
        out = psd_project(m)
        assert_allclose(out, out.T)
        assert np.min(np.linalg.eigvalsh(out)) >= 0.0

    def test_indefinite_rejected(self):
        with pytest.raises(ValueError, match="not PSD"):
            psd_project(np.diag([1.0, -1.0]))

    def test_tiny_negative_eigenvalue_clamped(self):
        m = np.diag([1.0, -1e-12])
        out = psd_project(m)
        w = np.linalg.eigvalsh(out)
        assert np.min(w) >= 0.0
        assert_allclose(np.max(w), 1.0)


    def test_slack_relative_to_scale(self):
        v = np.array([0.1, 0.7])
        out = psd_project(1e9 * np.outer(v, v))
        assert np.min(np.linalg.eigvalsh(out)) >= 0.0
        with pytest.raises(ValueError, match="not PSD"):
            psd_project(np.diag([1.0, -2e-10]))


class TestSqrtmPsd:
    def test_diagonal(self):
        assert_allclose(sqrtm_psd(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))

    def test_identity(self):
        assert_allclose(sqrtm_psd(np.eye(3)), np.eye(3))

    def test_squaring_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(5):
            g = rng.standard_normal((3, 3))
            r = g @ g.T
            s = sqrtm_psd(r)
            assert_allclose(s @ s, r, atol=1e-10)
            assert_allclose(s, s.T, atol=1e-12)

    def test_rank_deficient(self):
        r = np.outer([1.0, 2.0], [1.0, 2.0])
        s = sqrtm_psd(r)
        assert_allclose(s @ s, r, atol=1e-10)

    def test_indefinite_rejected(self):
        with pytest.raises(ValueError, match="not PSD"):
            sqrtm_psd(np.diag([1.0, -1.0]))
