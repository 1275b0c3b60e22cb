"""Linear-algebra kernel tests.

Derived expectations are computed by independent oracles inside each test
(dense expansion, hand-solved characteristic polynomials, SVD ranks)
rather than by the functions under test.
"""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from jumpstab.matkit import (
    _sym_part,
    as_matrix,
    as_square,
    spectral_norm,
    spectral_radius,
)
from jumpstab.mcsim import _psd_factor
from jumpstab.sysmodel import GaussianMixture, check_mixture


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
        assert_allclose(_sym_part(m), [[1.0, 1.0], [1.0, 1.0]])


def _one_component(cov):
    n = len(cov)
    return GaussianMixture(np.ones(1), np.zeros((1, n)), np.asarray(cov)[None])


class TestPsdProject:
    """The PSD rule, now check_mixture's alone: a PSD covariance passes
    as given, an indefinite one is rejected."""

    def test_identity_unchanged(self):
        eye = np.eye(2)
        assert check_mixture(_one_component(eye)) == []
        f = _psd_factor(eye)
        assert_array_equal(f @ f.T, eye)

    def test_indefinite_rejected(self):
        (msg,) = check_mixture(_one_component(np.diag([1.0, -1.0])))
        assert "not PSD" in msg
        with pytest.raises(ValueError, match="not PSD"):
            _psd_factor(np.diag([1.0, -1.0]))


class TestSqrtmPsd:
    """The sampler's factor F, F F^T = S, which replaces the symmetric
    PSD square root; on a diagonal S both are diag(sqrt(S_ii))."""

    def test_diagonal(self):
        assert_allclose(_psd_factor(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))

    def test_identity(self):
        assert_array_equal(_psd_factor(np.eye(3)), np.eye(3))

    def test_indefinite_rejected(self):
        with pytest.raises(ValueError, match="not PSD"):
            _psd_factor(np.diag([1.0, -1.0]))
