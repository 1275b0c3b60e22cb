"""The second-moment lift restricted to symmetric and skew matrices.

X -> sum_j pi_j A_j X A_j^T maps symmetric matrices to symmetric ones and
skew to skew, so in an orthonormal basis of the two subspaces the n^2
lift splits into two diagonal blocks, of which the library builds the
symmetric one. These tests hold that block, the spectral radii read from
it and the product Gamma(k) to the full n^2 computation, built inline
with np.kron.
"""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from jumpstab import stability
from jumpstab.matkit import spectral_radius
from jumpstab.moments import _basis_pairs, _chain_lift, _moment_map, _sym_lifts
from jumpstab.propagate import gamma_product
from jumpstab.stability import analyze, markov_test
from jumpstab.sysmodel import (
    IIDSwitching,
    JumpLinearSystem,
    ScheduleSwitching,
    marginal_schedule,
)
from reference import bases

#: (seed, n, m): every n in 1..6 and every m in 1..4 appears
CASES = [(s, n, m) for s, (n, m) in enumerate(
    [(1, 1), (1, 3), (2, 1), (2, 2), (2, 4), (3, 2), (3, 3), (4, 1),
     (4, 4), (5, 2), (5, 3), (6, 2), (6, 4)]
)]


def rotating_system(rng, n, m):
    """Random modes, each with a complex eigenpair when n >= 2."""
    mats = []
    for _ in range(m):
        a = 0.3 * rng.standard_normal((n, n))
        if n >= 2:
            t = rng.uniform(0.3, 2.8)
            a[:2, :2] += [[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]]
        mats.append(a * rng.uniform(0.5, 1.1))
    return JumpLinearSystem(modes=mats)


def random_chain(rng, m):
    """A row-stochastic P with P != P^T (for m >= 2)."""
    return rng.dirichlet(np.ones(m) * 0.7, size=m)


def full_fold(sys, schedule):
    """Gamma(1), Gamma(2), ... by n^2 x n^2 products of np.kron lifts."""
    gamma = np.eye(sys.n**2)
    for pi in schedule:
        step = sum(p * np.kron(a, a) for p, a in zip(pi, sys.modes))
        gamma = step @ gamma
        yield gamma


@pytest.mark.parametrize("seed, n, m", CASES)
class TestBlocks:
    def test_blocks_are_the_lift_in_the_bases(self, seed, n, m):
        sys = rotating_system(np.random.default_rng(seed), n, m)
        assert any(np.iscomplexobj(np.linalg.eigvals(a)) for a in sys.modes) \
            or n == 1
        sym = _sym_lifts(sys.modes)
        u, v = bases(n)
        s = n * (n + 1) // 2
        assert sym.shape == (m, s, s)
        q = np.hstack([u, v])
        assert_allclose(q.T @ q, np.eye(n * n), atol=1e-15)
        for a, sb in zip(sys.modes, sym):
            k = np.kron(a, a)
            assert_allclose(sb, u.T @ k @ u, rtol=0, atol=1e-14 * np.abs(k).max())

    def test_off_diagonal_blocks_exactly_zero(self, seed, n, m):
        sys = rotating_system(np.random.default_rng(seed), n, m)
        lifts = np.array([np.kron(a, a) for a in sys.modes])
        p, q = _basis_pairs(n)
        rows, swapped = p * n + q, q * n + p
        r, r2 = rows[:, None], swapped[:, None]
        c, c2 = rows[n:], swapped[n:]
        # <u_r, K v_c> up to the factor 2 c_r c_c, and <v_c, K u_r>
        cross = (lifts[:, r, c] - lifts[:, r2, c2]) + (
            lifts[:, r2, c] - lifts[:, r, c2])
        cross_t = (lifts[:, c[:, None], rows] - lifts[:, c2[:, None], swapped]
                   ) + (lifts[:, c[:, None], swapped]
                        - lifts[:, c2[:, None], rows])
        assert_array_equal(cross, 0.0)
        assert_array_equal(cross_t, 0.0)

    def test_symmetric_radius_is_full_radius(self, seed, n, m):
        rng = np.random.default_rng(100 + seed)
        sys = rotating_system(rng, n, m)
        pi = rng.dirichlet(np.ones(m))
        full_iid = sum(p * np.kron(a, a) for p, a in zip(pi, sys.modes))
        assert analyze(sys, IIDSwitching(pi)).evidence == pytest.approx(
            spectral_radius(full_iid), rel=1e-12
        )
        p = random_chain(rng, m)
        if m >= 2:
            assert np.max(np.abs(p - p.T)) > 0.05
        blocks = np.zeros((m * n * n, m * n * n))
        for i, a in enumerate(sys.modes):
            blocks[i * n * n:(i + 1) * n * n, i * n * n:(i + 1) * n * n] = \
                np.kron(a, a)
        full_markov = blocks @ np.kron(p.T, np.eye(n * n))
        assert markov_test(sys, p).evidence == pytest.approx(
            spectral_radius(full_markov), rel=1e-12
        )

    def test_fold_matches_full_fold(self, seed, n, m):
        rng = np.random.default_rng(200 + seed)
        sys = rotating_system(rng, n, m)
        schedule = rng.dirichlet(np.ones(m), size=25)
        diagonal = np.arange(n) * (n + 1)  # the (p, p) positions of vec
        for step, full in enumerate(full_fold(sys, schedule), 1):
            state = gamma_product(sys, ScheduleSwitching(schedule), step)
            assert (state.k, state.diverged) == (step, False)
            assert_allclose(state.gamma, full, rtol=0,
                            atol=1e-12 * np.abs(full).max())
            # Gamma's largest entry sits at a (p,p),(r,r) position
            assert np.abs(full[np.ix_(diagonal, diagonal)]).max() == \
                pytest.approx(np.abs(full).max(), rel=1e-12)
        assert step == 25


@pytest.mark.parametrize("chain", ["one-state", "markov"])
@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_map_and_its_matrix_are_one_operator(n, m, chain):
    """The matrix-free map applied to each orthonormal symmetric basis
    stack gives the builder's matrix, column by column: the certified
    verdicts and their dense fallback read the same operator."""
    rng = np.random.default_rng([n, m, int(chain == "markov")])
    sys = rotating_system(rng, n, m)
    if chain == "one-state":
        mix, weights = np.ones((1, m)), rng.dirichlet(np.ones(m))[None]
    else:
        mix, weights = random_chain(rng, m), np.eye(m)
    states, u = mix.shape[0], bases(n)[0]
    size = u.shape[1]
    matrix = _chain_lift(_sym_lifts(sys.modes), mix, weights)
    assert matrix.shape == (states * size, states * size)
    apply = _moment_map(sys.modes, mix, weights)
    columns = np.zeros_like(matrix)
    for j in range(states):
        for c in range(size):
            q = np.zeros((states, n, n))
            q[j] = u[:, c].reshape(n, n)
            columns[:, j * size + c] = (
                apply(q).reshape(states, n * n) @ u).reshape(-1)
    assert_allclose(columns, matrix, rtol=0,
                    atol=1e-12 * np.abs(matrix).max())


class TestFastSkewDecay:
    """The skew block shrinks like (5e-4)^k, the symmetric one like 0.3^k:
    the skew block passes through the subnormal range within 100 steps."""

    SYS = JumpLinearSystem(modes=[np.diag([0.5, 1e-3]),
                                  np.diag([0.6, 2e-3])])
    LAW = ScheduleSwitching([[0.3, 0.7], [0.6, 0.4]])

    def test_product_matches_the_full_fold(self):
        """At k=100 and 104 the fold holds subnormal entries, fed by the
        skew block; by k=500 every such entry is exactly 0."""
        schedule = marginal_schedule(self.LAW, 500)
        tiny = np.finfo(float).tiny
        for k, full in enumerate(full_fold(self.SYS, schedule), 1):
            if k in (100, 104):
                subnormal = (full != 0.0) & (np.abs(full) < tiny)
                assert np.any(subnormal)  # not vacuous
            if k not in (100, 104, 500):
                continue
            state = gamma_product(self.SYS, self.LAW, k)
            assert (state.k, state.diverged) == (k, False)
            assert np.abs(full).max() > tiny  # not vacuous
            assert_allclose(state.gamma, full, rtol=1e-12, atol=0)


def test_spectral_tests_diagonalise_the_symmetric_lift(monkeypatch):
    """Certified verdicts hand nothing to the eigensolver, and a dense
    fallback never hands it more than m n(n+1)/2 rows: a return to the
    n^2 lift fails here."""
    sizes = []

    def recording(mat):
        sizes.append(np.shape(mat)[0])
        return spectral_radius(mat)

    monkeypatch.setattr(stability, "spectral_radius", recording)
    certified = 0
    for seed, n, m in CASES:
        rng = np.random.default_rng(300 + seed)
        sys = rotating_system(rng, n, m)
        pi, p = rng.dirichlet(np.ones(m)), random_chain(rng, m)
        rows = [n * (n + 1) // 2, m * n * (n + 1) // 2]
        sizes.clear()
        reports = [analyze(sys, IIDSwitching(pi)), markov_test(sys, p)]
        fallbacks = [r.certificate.startswith("dense fallback: ")
                     for r in reports]
        assert sizes == [k for k, fell in zip(rows, fallbacks) if fell]
        certified += fallbacks.count(False)
        # no Arnoldi cycle at all: both tests fall back
        with monkeypatch.context() as patch:
            patch.setattr(stability, "_RESTARTS", 0)
            sizes.clear()
            analyze(sys, IIDSwitching(pi))
            markov_test(sys, p)
        assert sizes == rows
    assert certified >= 2 * len(CASES) - 4
