"""Propagation-route tests.

The central check is three independent computations of W^2(k) agreeing:
exact mixture pushing, the n x n moment recursion, and the lifted n^2
product. Derived expectations use explicit enumeration, Kronecker
oracles computed inline and the n^2 lift of ``reference``.
"""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from jumpstab.matkit import NumericalError
from jumpstab.moments import (_basis_pairs, _basis_units, _live, _moment_map,
                              _sym_coords, _sym_lifts)
from jumpstab.propagate import (
    _mog_push,
    _scaled_lifts,
    gamma_product,
    w2_trajectory,
)
from jumpstab.sysmodel import (
    GaussianMixture,
    IIDSwitching,
    JumpLinearSystem,
    MarkovSwitching,
    ScheduleSwitching,
    SequenceSwitching,
)
from jumpstab import propagate, sysmodel, wasserstein
from jumpstab.stability import markov_test
from jumpstab.wasserstein import mixture_to_dirac_sq, synthetic_gaussian
from reference import (lifted_step_matrix, markov_w2,
                       needs_refused_allocation, traced_peak)


def random_system(rng, m, n, scale=0.9):
    mats = []
    for _ in range(m):
        a = rng.standard_normal((n, n))
        a *= scale / max(np.max(np.abs(np.linalg.eigvals(a))), 1e-6)
        mats.append(a)
    return JumpLinearSystem(modes=mats)


def random_mixture(rng, n, q):
    w = rng.random(q) + 0.1
    w /= w.sum()
    means = rng.standard_normal((q, n))
    covs = np.empty((q, n, n))
    for i in range(q):
        g = rng.standard_normal((n, n)) * 0.5
        covs[i] = g @ g.T
    return GaussianMixture(weights=w, means=means, covs=covs)


def point_mass(x):
    x = np.atleast_1d(np.asarray(x, dtype=float))
    n = x.size
    return GaussianMixture.from_components([(1.0, x, np.zeros((n, n)))])


def pushed_mixture(sys, law, mix, k):
    """(weights, means, covariances) after ``k`` steps of _mog_push, the
    exact route's kernel, on the whole mixture of a valid ``law``; the
    covariances are unpacked from their symmetric coordinates."""
    lifts, exps = _scaled_lifts(sys)
    pair = law._chain(sys.m)
    state = (mix.weights, mix.means, _sym_coords(mix.covs),
             np.zeros(mix.q, np.intp))
    for step in range(1, k + 1):
        state = _mog_push(sys.modes, lifts, exps, _live(*pair(step)),
                          *state, 1.0)
    weights, means, coords, _ = state
    p, q = _basis_pairs(sys.n)
    covs = np.empty((len(weights), sys.n, sys.n))
    covs[:, p, q] = covs[:, q, p] = coords * _basis_units(sys.n)
    return weights, means, covs


class TestLiftedStepMatrix:
    def test_single_mode_is_self_kron(self):
        a = np.array([[0.5, 0.1], [0.0, 0.3]])
        sys = JumpLinearSystem(modes=[a])
        assert_allclose(lifted_step_matrix(sys, [1.0]), np.kron(a, a))

    def test_acts_as_moment_update(self):
        rng = np.random.default_rng(79)
        sys = random_system(rng, m=3, n=3)
        pi = np.array([0.2, 0.5, 0.3])
        phi = rng.standard_normal((3, 3))
        phi = phi @ phi.T
        lifted = lifted_step_matrix(sys, pi) @ phi.ravel(order="F")
        direct = sum(
            pi[j] * sys.modes[j] @ phi @ sys.modes[j].T for j in range(3)
        )
        assert_allclose(lifted.reshape(3, 3, order="F"), direct, atol=1e-12)


class TestKronSquares:
    def test_stack_matches_kron(self):
        rng = np.random.default_rng(81)
        sys = random_system(rng, m=3, n=3)
        for j, a in enumerate(sys.modes):
            lift = lifted_step_matrix(sys, np.eye(3)[j])
            assert lift.shape == (9, 9)
            assert_array_equal(lift, np.kron(a, a))

    def test_overflow_raises(self):
        sys = JumpLinearSystem(modes=[[[0.0, 1e160], [0.0, 0.0]], np.eye(2)])
        with pytest.raises(NumericalError, match="overflows"):
            lifted_step_matrix(sys, [0.0, 1.0])


class TestScaledLifts:
    """Modes are scaled into their lifts only where the lifts could
    overflow, and never at the cost of digits."""

    def test_modes_below_the_limit_keep_their_lifts(self):
        rng = np.random.default_rng(191)
        sys = random_system(rng, m=3, n=3, scale=1e150)  # entries < 2^510
        lifts, exps = _scaled_lifts(sys)
        assert not np.any(exps)
        assert_array_equal(lifts, np.swapaxes(_sym_lifts(sys.modes), 1, 2))

    def test_only_the_huge_mode_is_scaled_per_mode(self):
        huge = [[0.0, 1e160], [0.0, 0.0]]  # largest entry in [2^531, 2^532)
        sys = JumpLinearSystem(modes=[huge, 0.3 * np.eye(2)])
        lifts, exps = _scaled_lifts(sys)
        assert_array_equal(exps, [44, 0])
        small = JumpLinearSystem(modes=[0.3 * np.eye(2)])
        assert_array_equal(lifts[1], _sym_lifts(small.modes)[0].T)
        assert np.abs(lifts[0]).max() == np.ldexp(1e160, -22) ** 2
        assert_array_equal(_scaled_lifts(sys)[1], [44, 0])

    def test_scaling_that_loses_digits_raises(self):
        """1e-150 * 1e-150 = 1e-300 is normal; scaled by 2^-44 it is not."""
        sys = JumpLinearSystem(modes=[[[0.0, 1e160], [1e-150, 0.0]]])
        with pytest.raises(NumericalError, match="underflows"):
            _scaled_lifts(sys)
        mix = point_mass([1.0, 1.0])
        for method in ("gamma", "exact_mog"):
            with pytest.raises(NumericalError, match="underflows"):
                w2_trajectory(sys, IIDSwitching([1.0]), mix, 1, method=method)


class TestMogStep:
    """One exact-mixture step under an IID law: the mixture that
    _mog_push forms, and the exact route's record of it."""

    def test_component_count_and_weights(self):
        rng = np.random.default_rng(83)
        sys = random_system(rng, m=2, n=2)
        mix = random_mixture(rng, n=2, q=2)
        pi = np.array([0.3, 0.7])
        law = IIDSwitching(pi)
        out = w2_trajectory(sys, law, mix, 1, method="exact_mog")
        assert out[1].component_count == 4
        expected = np.outer(pi, mix.weights).reshape(-1)
        assert_allclose(pushed_mixture(sys, law, mix, 1)[0], expected,
                        atol=1e-15)

    def test_scalar_pushforward(self):
        sys = JumpLinearSystem(modes=[[[2.0]]])
        mix = GaussianMixture.from_components([(1.0, [1.0], [[1.0]])])
        out = w2_trajectory(sys, IIDSwitching([1.0]), mix, 1, "exact_mog")
        assert out[1] == (1, 8.0, 1)  # 2^2 + 4
        _, means, covs = pushed_mixture(sys, IIDSwitching([1.0]), mix, 1)
        assert_allclose(means, [[2.0]])
        assert_allclose(covs, [[[4.0]]])

    def test_second_moment_recursion_oracle(self):
        rng = np.random.default_rng(89)
        sys = random_system(rng, m=2, n=2)
        mix = random_mixture(rng, n=2, q=3)
        pi = np.array([0.4, 0.6])
        out = GaussianMixture(*pushed_mixture(sys, IIDSwitching(pi), mix, 1))
        mean_in, cov_in = synthetic_gaussian(mix)
        phi_in = np.outer(mean_in, mean_in) + cov_in
        mean_out, cov_out = synthetic_gaussian(out)
        phi_out = np.outer(mean_out, mean_out) + cov_out
        oracle = sum(
            pi[j] * sys.modes[j] @ phi_in @ sys.modes[j].T for j in range(2)
        )
        assert_allclose(phi_out, oracle, atol=1e-12)

    def test_zero_probability_modes_dropped(self):
        sys = JumpLinearSystem(modes=[[[2.0]], [[3.0]]])
        mix = point_mass([1.0])
        out = w2_trajectory(sys, IIDSwitching([1.0, 0.0]), mix, 1,
                            "exact_mog")
        assert out[1] == (1, 4.0, 1)  # mode 1 alone: mean 2

    def test_all_zero_weights_rejected(self):
        sys = JumpLinearSystem(modes=[[[1.0]], [[2.0]]])
        mix = GaussianMixture(weights=[0.0], means=[[1.0]], covs=[[[0.0]]])
        with pytest.raises(ValueError, match="weights must be positive"):
            w2_trajectory(sys, IIDSwitching([0.5, 0.5]), mix, 1, "exact_mog")

    def test_dimension_mismatch(self):
        sys = JumpLinearSystem(modes=[np.eye(2)])
        with pytest.raises(ValueError, match="dimension"):
            w2_trajectory(sys, IIDSwitching([1.0]),
                          point_mass([1.0, 2.0, 3.0]), 1, "exact_mog")


class TestMogPropagate:
    """The exact route over several steps: its start, its counts and its
    cap, and the invariants of the mixtures its kernel forms."""

    def test_zero_steps_returns_init(self):
        # no step, so the cap, below the start's two components, counts not
        rng = np.random.default_rng(97)
        sys = random_system(rng, m=2, n=2)
        mix = random_mixture(rng, n=2, q=2)
        out = w2_trajectory(sys, IIDSwitching([0.5, 0.5]), mix, 0,
                            "exact_mog", cap=1)
        assert out == [(0, mixture_to_dirac_sq(mix), 2)]

    def test_geometric_component_count(self):
        rng = np.random.default_rng(101)
        sys = random_system(rng, m=2, n=2)
        mix = random_mixture(rng, n=2, q=1)
        out = w2_trajectory(sys, IIDSwitching([0.5, 0.5]), mix, 3,
                            "exact_mog")
        assert [r.component_count for r in out] == [1, 2, 4, 8]

    def test_two_step_means_enumerate_mode_pairs(self):
        rng = np.random.default_rng(103)
        sys = random_system(rng, m=2, n=2)
        mu0 = rng.standard_normal(2)
        mix = point_mass(mu0)
        pi = np.array([0.3, 0.7])
        weights, means, _ = pushed_mixture(sys, IIDSwitching(pi), mix, 2)
        # mode-major: output index i = 2*j2 + j1 carries A_{j2} A_{j1} mu0
        a = sys.modes
        for j2 in range(2):
            for j1 in range(2):
                i = 2 * j2 + j1
                assert_allclose(
                    means[i], a[j2] @ a[j1] @ mu0, atol=1e-13
                )
                assert weights[i] == pytest.approx(
                    pi[j2] * pi[j1], rel=1e-12
                )

    def test_cap_error_names_count(self):
        rng = np.random.default_rng(107)
        sys = random_system(rng, m=3, n=2)
        mix = random_mixture(rng, n=2, q=2)
        with pytest.raises(ValueError, match=r"3\^11\*2 = 354294"):
            w2_trajectory(sys, IIDSwitching([1 / 3] * 3), mix, 11,
                          "exact_mog", cap=1000)

    def test_invalid_inputs_rejected(self):
        sys = JumpLinearSystem(modes=[np.eye(2), np.eye(2)])
        mix = point_mass([1.0, 0.0])
        with pytest.raises(ValueError, match="probability sum"):
            w2_trajectory(sys, IIDSwitching([0.6, 0.6]), mix, 2, "exact_mog")

    def test_cap_counts_only_modes_of_nonzero_probability(self):
        # a sequence keeps one component forever: 2^17 would pass the cap
        sys = JumpLinearSystem(modes=[[[2.0]], [[0.1]]])
        law = SequenceSwitching((1, 2))
        recs = w2_trajectory(sys, law, point_mass([1.0]), 17,
                             method="exact_mog")
        assert [r.component_count for r in recs] == [1] * 18
        assert_allclose(
            [r.w2 for r in recs],
            [r.w2 for r in w2_trajectory(sys, law, point_mass([1.0]), 17)],
            rtol=1e-12,
        )

    def test_cap_error_names_support_count(self):
        # one one-mode step, then eleven two-mode steps: 1 * 2^11 components
        sys = JumpLinearSystem(modes=[[[0.9]], [[0.5]]])
        law = ScheduleSwitching([[1.0, 0.0], [0.5, 0.5]])
        with pytest.raises(
            ValueError, match=r"q0\*paths\(k\) = 1\*2048 = 2048"
        ):
            w2_trajectory(sys, law, point_mass([1.0]), 12, "exact_mog",
                          cap=1000)
        recs = w2_trajectory(sys, law, point_mass([1.0]), 12, "exact_mog",
                             cap=2048)
        assert recs[-1].component_count == 2048

    @pytest.mark.parametrize("rank", ["full", "deficient"])
    @pytest.mark.parametrize("scale", [0.9, 2.5], ids=["stable", "unstable"])
    @pytest.mark.parametrize("seed", range(3))
    def test_propagated_mixtures_keep_invariants(self, seed, scale, rank):
        # what the exact route relies on instead of re-checking each step
        rng = np.random.default_rng([167, seed])
        n, m = (int(x) for x in rng.integers(2, 4, size=2))
        sys = random_system(rng, m=m, n=n, scale=scale)
        mix = random_mixture(rng, n=n, q=2)
        if rank == "deficient":
            g = rng.standard_normal((2, n, 1))
            mix = GaussianMixture(
                weights=mix.weights, means=mix.means,
                covs=g @ np.swapaxes(g, 1, 2),
            )
        pi = rng.dirichlet(np.ones(m))
        law = [
            IIDSwitching(pi),
            MarkovSwitching(P=rng.dirichlet(np.ones(m), size=m), pi0=pi),
            ScheduleSwitching(rng.dirichlet(np.ones(m), size=3)),
        ][seed]
        for k in range(7):
            weights, _, covs = pushed_mixture(sys, law, mix, k)
            assert np.all(weights > 0.0)
            assert abs(np.sum(weights) - 1.0) <= 1e-12
            smallest = np.linalg.eigvalsh(covs)[:, 0]
            largest_entry = np.max(np.abs(covs), axis=(1, 2))
            assert np.all(smallest >= -1e-9 * largest_entry)

    @pytest.mark.parametrize(
        "law, counted",
        [
            (IIDSwitching([0.5, 0.5]), "m^k*q0 = 2^20000*1 = ~10^6020"),
            (ScheduleSwitching([[1.0, 0.0], [0.5, 0.5]]),
             "q0*paths(k) = 1*~10^6020 = ~10^6020"),
        ],
        ids=["full-support", "support-count"],
    )
    def test_cap_error_bounded_at_long_horizon(self, law, counted):
        # the counts pass Python's int-to-str digit limit
        sys = JumpLinearSystem(modes=[[[0.9]], [[0.5]]])
        with pytest.raises(ValueError, match=r"cap=100000") as info:
            w2_trajectory(sys, law, point_mass([1.0]), 20_000, "exact_mog")
        assert counted in str(info.value)

    @needs_refused_allocation
    def test_impossible_horizon_fails_at_once(self):
        # one component forever passes the cap, but the k_max + 1 values
        # are allocated before the first step
        sys = JumpLinearSystem(modes=[[[0.5]]])
        with pytest.raises(MemoryError):
            w2_trajectory(sys, SequenceSwitching((1,)), point_mass([1.0]),
                          10**11, "exact_mog")


def reference_components(sys, schedule, mix):
    """The exact mixture by a plain loop over (mode, component) pairs:
    weight pi_j alpha_i, mean A_j mu_i, covariance A_j Sigma_i A_j^T,
    mode-major, pairs of weight 0 dropped, weights renormalized."""
    comps = list(zip(mix.weights, mix.means, mix.covs))
    for pi in schedule:
        comps = [
            (p * w, a @ mu, a @ cov @ a.T)
            for p, a in zip(pi, sys.modes) if p > 0
            for w, mu, cov in comps
        ]
        total = sum(w for w, _, _ in comps)
        comps = [(w / total, mu, cov) for w, mu, cov in comps]
    return comps


def loop_case(n, zero_row):
    """(system, schedule, start) of m=3 modes and two components, one
    covariance of rank n - 1 (0 when n = 1); with ``zero_row`` the second
    step gives mode 1 probability 0."""
    rng = np.random.default_rng([173, n, int(zero_row)])
    sys = random_system(rng, m=3, n=n, scale=1.2)
    mix = random_mixture(rng, n=n, q=2)
    g = rng.standard_normal((n, n - 1))
    mix = GaussianMixture(
        weights=mix.weights, means=mix.means,
        covs=np.stack([mix.covs[0], g @ g.T]),
    )
    schedule = rng.dirichlet(np.ones(3), size=3)
    if zero_row:
        schedule[1] = [0.0, 0.4, 0.6]
    return sys, schedule, mix


def underflow_case(last_row):
    """(system, law, start) of three steps from a start whose first
    component has weight 1e-200; the third step's row is ``last_row``."""
    rng = np.random.default_rng(191)
    sys = random_system(rng, m=3, n=3, scale=1.1)
    mix = random_mixture(rng, n=3, q=2)
    mix = GaussianMixture(weights=[1e-200, 1.0], means=mix.means,
                          covs=mix.covs)
    law = ScheduleSwitching([[0.2, 0.3, 0.5], [0.6, 0.1, 0.3], last_row])
    return sys, law, mix


def overflow_case(top, mean, cov):
    """(system, law, start) of one mode diag(top, 0.5) from a mean and a
    variance ``mean`` and ``cov`` along its first axis."""
    sys = JumpLinearSystem(modes=[np.diag([top, 0.5])])
    mix = GaussianMixture(weights=[1.0], means=[[mean, 1.0]],
                          covs=[np.diag([cov, 1.0])])
    return sys, IIDSwitching([1.0]), mix


LAST_ROWS = {"full-support": ([0.2, 0.3, 0.5], 54),
             "zero-probability-mode": ([0.0, 0.4, 0.6], 36),
             "weights-underflow": ([1e-200, 0.5, 0.5 - 1e-200], 45)}
OVERFLOWS = {"mean": (1e160, 1e150, 0.0, 1),
             "diagonal": (1e40, 0.0, 1e150, 2)}


class TestExactRouteReference:
    """The exact route and its kernel against reference_components."""

    @pytest.mark.parametrize("zero_row", [False, True],
                             ids=["full-support", "zero-probability-row"])
    @pytest.mark.parametrize("n", [1, 3])
    def test_matches_per_component_loop(self, n, zero_row):
        sys, schedule, mix = loop_case(n, zero_row)
        law = ScheduleSwitching(schedule)
        records = w2_trajectory(sys, law, mix, 3, method="exact_mog")
        for k, record in enumerate(records):
            ref = reference_components(sys, schedule[:k], mix)
            weights, means, covs = (np.array(x) for x in zip(*ref))
            out = pushed_mixture(sys, law, mix, k)
            assert len(out[0]) == record.component_count == len(ref)
            assert_allclose(out[0], weights, rtol=1e-13)
            for got, want in zip(out[1:], (means, covs)):
                assert_allclose(got, want, rtol=1e-13,
                                atol=1e-13 * np.abs(want).max())
            w2 = weights @ (np.sum(means**2, axis=1)
                            + np.trace(covs, axis1=1, axis2=2))
            assert record.w2 == pytest.approx(w2, rel=1e-13)
        assert records[-1].component_count == (36 if zero_row else 54)

    def test_exact_route_memory_stays_near_the_covariances(self):
        """The route carries n(n+1)/2 coordinates per covariance and
        never forms the n x n stacks: its peak stays below 1.5 times the
        bytes of the final n x n covariances."""
        rng = np.random.default_rng(179)
        n, m, q0, steps = 8, 2, 2, 12
        sys = random_system(rng, m=m, n=n)
        mix = random_mixture(rng, n=n, q=q0)
        law = IIDSwitching([0.5, 0.5])
        final_cov_bytes = q0 * m**steps * n * n * 8
        records, peak = traced_peak(w2_trajectory, sys, law, mix, steps,
                                    method="exact_mog")
        assert records[-1].component_count == 8192
        assert peak < 1.5 * final_cov_bytes

    def test_last_mixture_is_never_formed(self):
        """The last step pushes only the n diagonal coordinates that W^2
        reads: the route's peak stays below the bytes of the last level's
        n(n+1)/2 symmetric coordinates, which it never forms."""
        rng = np.random.default_rng(181)
        n, m, q0, steps = 12, 4, 2, 6
        sys = random_system(rng, m=m, n=n)
        mix = random_mixture(rng, n=n, q=q0)
        law = IIDSwitching(np.full(m, 1 / m))
        last_sym_bytes = q0 * m**steps * n * (n + 1) // 2 * 8
        records, peak = traced_peak(w2_trajectory, sys, law, mix, steps,
                                    method="exact_mog")
        assert records[-1].component_count == q0 * m**steps
        assert peak < last_sym_bytes

    @pytest.mark.parametrize("last_row, count", LAST_ROWS.values(),
                             ids=LAST_ROWS.keys())
    def test_last_step_matches_the_full_mixture(self, last_row, count):
        """W^2(K) and the count at K, from the narrowed last step, equal
        those of the per-component loop's full mixture at K. In the last
        case the weights of the start's 1e-200 component times 1e-200
        underflow to 0, so the route drops those 9 pairs."""
        sys, law, mix = underflow_case(last_row)
        for k in (1, 3):
            records = w2_trajectory(sys, law, mix, k, method="exact_mog")
            ref = reference_components(sys, law.vectors[:k], mix)
            weights, means, covs = (np.array(x) for x in zip(*ref))
            assert records[-1].component_count == np.count_nonzero(weights)
            w2 = weights @ (np.sum(means**2, axis=1)
                            + np.trace(covs, axis1=1, axis2=2))
            assert records[-1].w2 == pytest.approx(w2, rel=1e-14, abs=0)
        assert records[-1].component_count == count

    @pytest.mark.parametrize("top, mean, cov, steps", OVERFLOWS.values(),
                             ids=OVERFLOWS.keys())
    def test_last_step_overflow_names_its_step(self, monkeypatch, top,
                                               mean, cov, steps):
        """A mean or a diagonal coordinate past float64 at the last step
        raises NumericalError naming that step, in chunks of any size;
        every earlier W^2 is finite."""
        sys, law, mix = overflow_case(top, mean, cov)
        message = rf"^W\^2 diverged at k={steps} \(not finite\)$"
        for budget in (propagate._MOG_BUDGET, 1):
            monkeypatch.setattr(propagate, "_MOG_BUDGET", budget)
            assert np.isfinite(w2_trajectory(sys, law, mix, steps - 1,
                                             method="exact_mog")[-1].w2)
            with pytest.raises(NumericalError, match=message):
                w2_trajectory(sys, law, mix, steps, method="exact_mog")

    def test_cap_below_one_rejected(self):
        sys = JumpLinearSystem(modes=[[[0.5]]])
        law, mix = IIDSwitching([1.0]), point_mass([1.0])
        message = "cap must be >= 1, got -5"
        for k in (0, 2):
            with pytest.raises(ValueError, match=message):
                w2_trajectory(sys, law, mix, k, method="exact_mog", cap=-5)


def exact_route_cases():
    """(id, system, law, start, steps) of TestExactRouteReference's cases."""
    cases = []
    for n in (1, 3):
        for zero_row in (False, True):
            sys, schedule, mix = loop_case(n, zero_row)
            cases.append((f"loop-n{n}-zero{int(zero_row)}", sys,
                          ScheduleSwitching(schedule), mix, 3))
    for name, (last_row, _) in LAST_ROWS.items():
        cases.append((name, *underflow_case(last_row), 3))
    for name, (top, mean, cov, steps) in OVERFLOWS.items():
        cases.append((f"overflow-{name}", *overflow_case(top, mean, cov),
                      steps))
    return cases


def exact_route(sys, law, mix, steps):
    """The exact route's (W^2, counts), or its NumericalError's text."""
    try:
        records = w2_trajectory(sys, law, mix, steps, method="exact_mog")
    except NumericalError as exc:
        return str(exc)
    return [r.w2 for r in records], [r.component_count for r in records]


class TestMogWalk:
    """The exact route walks the mixture tree in chunks of bounded size."""

    @pytest.mark.parametrize("steps", [10, 14])
    def test_peak_bounded_by_the_budget(self, steps):
        """16 times the components at K=14 as at K=10, under one bound:
        a few split levels of about one budget each. A route that holds a
        whole level of the tree needs 10 MiB at K=14."""
        rng = np.random.default_rng(179)
        sys = random_system(rng, m=2, n=8)
        mix = random_mixture(rng, n=8, q=2)
        records, peak = traced_peak(w2_trajectory, sys,
                                    IIDSwitching([0.5, 0.5]), mix, steps,
                                    method="exact_mog")
        assert records[-1].component_count == 2 * 2**steps
        assert peak < 6 * propagate._MOG_BUDGET

    @pytest.mark.parametrize("case", exact_route_cases(),
                             ids=lambda case: case[0])
    def test_one_row_chunks_change_no_result(self, monkeypatch, case):
        """With a budget of one byte every chunk is one parent: the counts
        and the errors are the default's, and W^2 differs only by the
        grouping of its sums."""
        _, sys, law, mix, steps = case
        default = exact_route(sys, law, mix, steps)
        monkeypatch.setattr(propagate, "_MOG_BUDGET", 1)
        chunked = exact_route(sys, law, mix, steps)
        if isinstance(default, str):
            assert chunked == default
        else:
            assert chunked[1] == default[1]
            assert chunked[0] == pytest.approx(default[0], rel=1e-14, abs=0)

    @pytest.mark.parametrize("modes, means, message", [
        # the first component diverges at k=2, the second at k=1
        ([np.diag([1e160, 1.0]), np.diag([1.0, 1e160])],
         [[0.0, 1e150], [1e150, 0.0]],
         r"^W\^2 diverged at k=1 \(not finite\)$"),
        # the first component diverges at k=2, the second's W^2 at k=1
        ([np.diag([1.0, 10.0]), np.diag([1e160, 0.5])],
         [[1e150, 0.0], [0.0, 1e154]],
         r"^W\^2 diverged at k=1 \(not finite\)$"),
    ], ids=["later-chunk-fails-first", "w2-overflow-first"])
    def test_earliest_failure_wins(self, monkeypatch, modes, means, message):
        sys = JumpLinearSystem(modes=modes)
        law = ScheduleSwitching([[1.0, 0.0], [0.0, 1.0]])
        mix = GaussianMixture(weights=[0.5, 0.5], means=means,
                              covs=np.zeros((2, 2, 2)))
        for budget in (propagate._MOG_BUDGET, 1):
            monkeypatch.setattr(propagate, "_MOG_BUDGET", budget)
            with pytest.raises(NumericalError, match=message):
                w2_trajectory(sys, law, mix, 2, method="exact_mog")


def one_state_map(sys, pi):
    """The second-moment map of the one-state chain with mode weights pi."""
    return _moment_map(sys.modes, np.ones((1, sys.m)), np.asarray(pi)[None])


class TestMomentStep:
    """One application of the second-moment map of a one-state chain."""

    def test_scalar_modes(self):
        sys = JumpLinearSystem(modes=[[[2.0]], [[0.1]]])
        out = one_state_map(sys, [0.5, 0.5])(np.ones((1, 1, 1)))[0]
        assert out[0, 0] == pytest.approx(2.005, rel=1e-14)

    def test_identity_mode_fixes_phi(self):
        sys = JumpLinearSystem(modes=[np.eye(3)])
        phi = np.diag([1.0, 2.0, 3.0])
        assert_allclose(one_state_map(sys, [1.0])(phi[None])[0], phi)

    def test_kronecker_lift_oracle(self):
        rng = np.random.default_rng(109)
        sys = random_system(rng, m=2, n=3)
        pi = np.array([0.25, 0.75])
        phi = rng.standard_normal((3, 3))
        phi = phi @ phi.T
        out = one_state_map(sys, pi)(phi[None])[0]
        lifted = lifted_step_matrix(sys, pi) @ phi.ravel(order="F")
        oracle = lifted.reshape(3, 3, order="F")
        assert_allclose(out, oracle, atol=1e-12)


class TestGammaProduct:
    def test_zero_steps_identity(self):
        sys = JumpLinearSystem(modes=[np.eye(2), np.eye(2)])
        state = gamma_product(sys, IIDSwitching([0.5, 0.5]), 0)
        assert_allclose(state.gamma, np.eye(4))
        assert state.k == 0
        assert not state.diverged

    @pytest.mark.parametrize("k", [0, 2])
    @pytest.mark.parametrize("law, message", [
        ([0.5, 0.5], "unknown switching law list"),
        (IIDSwitching([0.2, 0.3, 0.5]),
         "switching pi has length 3 for 2 modes"),
        (MarkovSwitching(np.eye(3), [1.0, 0.0, 0.0]),
         "switching P is 3x3 for 2 modes"),
        (IIDSwitching([0.6, 0.6]), "switching pi: probability sum 1.2 != 1"),
        (SequenceSwitching((1, 3)), "sequence indices [3] outside [1..2]"),
    ], ids=["unknown", "iid-length", "markov-size", "iid-sum",
            "sequence-index"])
    def test_law_checked_against_the_system(self, law, message, k):
        """The law is checked as every route checks it, before Gamma(0)."""
        sys = JumpLinearSystem(modes=[np.eye(2), np.eye(2)])
        with pytest.raises(ValueError) as info:
            gamma_product(sys, law, k)
        assert str(info.value) == message

    @pytest.mark.parametrize("k, message", [
        (-1, "k must be nonnegative, got -1"),
        (1.5, "k must be an integer, got 1.5"),
    ])
    def test_bad_k_rejected(self, k, message):
        sys = JumpLinearSystem(modes=[np.eye(2), np.eye(2)])
        with pytest.raises(ValueError) as info:
            gamma_product(sys, IIDSwitching([0.5, 0.5]), k)
        assert str(info.value) == message

    def test_single_factor_iid(self):
        rng = np.random.default_rng(113)
        sys = random_system(rng, m=2, n=2)
        pi = np.array([0.3, 0.7])
        state = gamma_product(sys, IIDSwitching(pi), 1)
        assert_allclose(state.gamma, lifted_step_matrix(sys, pi))

    def test_dual_path_against_moment_recursion(self):
        rng = np.random.default_rng(127)
        for _ in range(5):
            sys = random_system(rng, m=2, n=2)
            law = IIDSwitching([0.4, 0.6])
            phi0 = rng.standard_normal((2, 2))
            phi0 = phi0 @ phi0.T
            phi = phi0
            for k in range(1, 11):
                phi = sum(p * a @ phi @ a.T for p, a in zip(law.pi, sys.modes))
                gs = gamma_product(sys, law, k)
                lhs = (np.eye(2).ravel(order="F") @ gs.gamma
                       @ phi0.ravel(order="F"))
                assert lhs == pytest.approx(np.trace(phi), rel=1e-10)

    def test_sequence_product_is_kron_square(self):
        rng = np.random.default_rng(131)
        for _ in range(3):
            sys = random_system(rng, m=2, n=2)
            seq = tuple(int(i) for i in rng.integers(1, 3, size=6))
            state = gamma_product(sys, SequenceSwitching(seq), 6)
            prod = np.eye(2)
            for i in seq:
                prod = sys.modes[i - 1] @ prod
            assert_allclose(state.gamma, np.kron(prod, prod), atol=1e-10)

    def test_divergence_flag(self):
        sys = JumpLinearSystem(modes=[[[2.0]]])
        state = gamma_product(sys, IIDSwitching([1.0]), 300)
        assert state.diverged
        assert state.k < 300
        assert np.all(np.isfinite(state.gamma))
        # the returned product is the last one under the guard
        assert abs(state.gamma[0, 0]) <= 1e150

    def test_divergence_caught_off_the_first_entry(self):
        """Gamma(k) = kron(A^k, A^k) grows like 4^k only at ((2,2),(2,2)):
        the guard reads every (p,p),(r,r) entry, not the first alone."""
        sys = JumpLinearSystem(modes=[np.diag([0.5, 2.0])])
        state = gamma_product(sys, IIDSwitching([1.0]), 300)
        assert (state.k, state.diverged) == (249, True)  # 4^250 > 1e150
        assert np.abs(state.gamma).max() == pytest.approx(4.0**249,
                                                           rel=1e-12)

    @pytest.mark.parametrize(
        "entry, past", [(1e300, False), (np.inf, True), (np.nan, True)],
    )
    def test_guard_counts_nan_and_inf_as_past(self, entry, past):
        """The second-moment map judges nothing: a non-finite entry comes
        back as inf or nan, with no raise and no warning, for the W^2
        check or the spectral test to stop on; a finite one of any size
        comes back as it went in."""
        step = _moment_map(np.eye(2)[None], np.ones((1, 1)), np.ones((1, 1)))
        q = np.array([[[0.0, entry], [entry, 0.0]]])
        out = step(q)
        assert np.all(np.isfinite(out)) != past
        if not past:
            assert_array_equal(out, q)


class TestW2Trajectory:
    def test_scalar_geometric_decay(self):
        sys = JumpLinearSystem(modes=[[[0.5]]])
        recs = w2_trajectory(sys, IIDSwitching([1.0]), point_mass([1.0]), 6)
        assert [r.k for r in recs] == list(range(7))
        for r in recs:
            assert r.w2 == pytest.approx(0.25**r.k, rel=1e-12)

    def test_scalar_iid_growth(self):
        sys = JumpLinearSystem(modes=[[[2.0]], [[0.1]]])
        recs = w2_trajectory(
            sys, IIDSwitching([0.5, 0.5]), point_mass([1.0]), 10
        )
        for r in recs:
            assert r.w2 == pytest.approx(2.005**r.k, rel=1e-12)

    def test_routes_read_the_schedule_rows_as_given(self):
        # the normalized row sums to 1 + 2^-52, so normalizing it again
        # changes every entry's last bit; with modes 1, 0, 0 from x0 = 1,
        # W^2(1) is the row's first entry itself
        law = ScheduleSwitching([[0.82, 0.06, 0.12]])
        row = sysmodel.marginal_schedule(law, 1, m=3)[0]
        again = row / row.sum()
        assert not np.array_equal(again, row)
        assert not np.array_equal(again / again.sum(), again)
        sys = JumpLinearSystem(modes=[[[1.0]], [[0.0]], [[0.0]]])
        for method in ("moment", "gamma"):
            recs = w2_trajectory(sys, law, point_mass([1.0]), 1,
                                 method=method)
            assert recs[1].w2 == row[0]
        # the exact route weights its components by the row and
        # renormalizes them once, as after every mixture step
        weights = pushed_mixture(sys, law, point_mass([1.0]), 1)[0]
        assert_array_equal(weights, again)

    @pytest.mark.parametrize("law_kind", ["iid", "markov", "schedule"])
    def test_three_methods_agree(self, law_kind):
        rng = np.random.default_rng(137)
        for trial in range(3):
            sys = random_system(rng, m=2, n=2, scale=1.05)
            mix = random_mixture(rng, n=2, q=2)
            if law_kind == "iid":
                law = IIDSwitching([0.35, 0.65])
            elif law_kind == "markov":
                law = MarkovSwitching(
                    P=[[0.2, 0.8], [0.6, 0.4]], pi0=[0.5, 0.5]
                )
            else:
                law = ScheduleSwitching(
                    [[0.9, 0.1], [0.1, 0.9], [0.5, 0.5]]
                )
            results = {
                method: w2_trajectory(sys, law, mix, 8, method=method)
                for method in ("moment", "gamma", "exact_mog")
            }
            base = results["moment"]
            for method in ("gamma", "exact_mog"):
                for r_base, r_other in zip(base, results[method]):
                    assert r_other.w2 == pytest.approx(
                        r_base.w2, rel=1e-9
                    ), f"{law_kind} trial {trial} k={r_base.k} {method}"

    def test_exact_mog_internal_consistency(self):
        rng = np.random.default_rng(139)
        sys = random_system(rng, m=2, n=2)
        mix = random_mixture(rng, n=2, q=2)
        law = IIDSwitching([0.5, 0.5])
        recs = w2_trajectory(sys, law, mix, 5, method="exact_mog")
        for r in recs:
            assert r.component_count == 2 * 2**r.k
            # the component distances and the matched-moment trace agree
            ref = reference_components(sys, [law.pi] * r.k, mix)
            mean, cov = synthetic_gaussian(
                GaussianMixture(*(np.array(x) for x in zip(*ref))))
            assert float(mean @ mean + np.trace(cov)) == pytest.approx(
                r.w2, rel=1e-12
            )

    def test_exact_mog_from_rank_deficient_start(self):
        # unstable modes blow the start's zero eigenvalue up to -4.7e-10
        # by roundoff, which an absolute PSD slack of 1e-10 rejected
        sys = JumpLinearSystem(
            modes=[[[3.0, 1.0], [0.5, 2.0]], [[2.0, -1.0], [1.0, 3.0]]]
        )
        mix = GaussianMixture.from_components(
            [(1.0, [1.0, 0.0], np.ones((2, 2)))]
        )
        law = IIDSwitching([0.5, 0.5])
        exact = w2_trajectory(sys, law, mix, 8, method="exact_mog")
        moment = w2_trajectory(sys, law, mix, 8)
        assert len(exact) == 9
        for r_exact, r_moment in zip(exact, moment):
            assert r_exact.w2 == pytest.approx(r_moment.w2, rel=1e-9)

    @pytest.mark.parametrize("method", ["moment", "gamma", "exact_mog"])
    def test_mixture_checked_once_per_call(self, monkeypatch, method):
        calls = []
        original = sysmodel.check_mixture

        def counting(mix):
            calls.append(mix.q)
            return original(mix)

        monkeypatch.setattr(sysmodel, "check_mixture", counting)
        monkeypatch.setattr(wasserstein, "check_mixture", counting)
        rng = np.random.default_rng(163)
        sys = random_system(rng, m=2, n=2)
        mix = random_mixture(rng, n=2, q=2)
        counts = []
        for k_max in (1, 6):
            calls.clear()
            w2_trajectory(sys, IIDSwitching([0.5, 0.5]), mix, k_max, method)
            counts.append(len(calls))
        assert counts[0] == counts[1] > 0
        assert all(q == mix.q for q in calls)  # only the input is checked

    @pytest.mark.parametrize("method", ["moment", "gamma", "exact_mog"])
    def test_law_checked_once_per_call(self, monkeypatch, method):
        calls = []
        original = sysmodel.check_law

        def counting(law, m):
            calls.append(m)
            return original(law, m)

        monkeypatch.setattr(sysmodel, "check_law", counting)
        rng = np.random.default_rng(167)
        sys = random_system(rng, m=2, n=2)
        law = ScheduleSwitching(rng.dirichlet([1.0, 1.0], size=40))
        w2_trajectory(sys, law, random_mixture(rng, n=2, q=1), 5, method)
        assert calls == [2]

    @pytest.mark.parametrize("method", ["moment", "gamma", "gamma_product"])
    def test_rows_read_one_step_at_a_time(self, method):
        # each step reads its own row of the law and no (K, m) table is
        # built, so the peak does not grow with the mode count; at 256
        # modes such a table would hold 2 MB over 1,000 steps
        peaks = []
        for m in (2, 256):
            sys = JumpLinearSystem(modes=np.full((m, 1, 1), 0.5))
            law = IIDSwitching(np.full(m, 1 / m))
            if method == "gamma_product":
                call = (gamma_product, sys, law, 1000)
            else:
                call = (w2_trajectory, sys, law, point_mass([1.0]), 1000,
                        method)
            peaks.append(traced_peak(*call)[1])
        assert peaks[1] - peaks[0] < 256 * 1024

    def test_moment_methods_have_no_component_count(self):
        sys = JumpLinearSystem(modes=[[[0.5]]])
        recs = w2_trajectory(sys, IIDSwitching([1.0]), point_mass([1.0]), 3)
        assert all(r.component_count is None for r in recs)

    def test_sequence_law_trajectory(self):
        sys = JumpLinearSystem(modes=[[[2.0]], [[0.1]]])
        law = SequenceSwitching((1, 2))
        recs = w2_trajectory(sys, law, point_mass([1.0]), 4)
        # x alternates: 2, 0.2, 0.4, 0.04; squared: 4, 0.04, 0.16, 0.0016
        expected = [1.0, 4.0, 0.04, 0.16, 0.0016]
        for r, e in zip(recs, expected):
            assert r.w2 == pytest.approx(e, rel=1e-12)

    def test_phi_stays_psd_along_trajectory(self):
        rng = np.random.default_rng(149)
        sys = random_system(rng, m=3, n=3, scale=1.1)
        mix = random_mixture(rng, n=3, q=2)
        law = IIDSwitching([0.2, 0.3, 0.5])
        mean, cov = synthetic_gaussian(mix)
        phi = np.outer(mean, mean) + cov
        records = w2_trajectory(sys, law, mix, 20)
        for k in range(1, 21):
            phi = sum(p * a @ phi @ a.T for p, a in zip(law.pi, sys.modes))
            scale = max(np.max(np.abs(phi)), 1e-30)
            assert np.min(np.linalg.eigvalsh(phi)) >= -1e-9 * scale
            assert records[k].w2 == pytest.approx(np.trace(phi), rel=1e-10)

    def test_zero_initial_mass_stays_zero(self):
        rng = np.random.default_rng(151)
        sys = random_system(rng, m=2, n=2, scale=1.3)
        mix = point_mass([0.0, 0.0])
        for method in ("moment", "gamma", "exact_mog"):
            recs = w2_trajectory(
                sys, IIDSwitching([0.5, 0.5]), mix, 10, method=method
            )
            assert all(r.w2 == pytest.approx(0.0, abs=1e-300) for r in recs)

    def test_k_zero_single_record(self):
        sys = JumpLinearSystem(modes=[[[0.5]]])
        recs = w2_trajectory(sys, IIDSwitching([1.0]), point_mass([3.0]), 0)
        assert len(recs) == 1
        assert recs[0].w2 == pytest.approx(9.0)

    def test_unknown_method(self):
        sys = JumpLinearSystem(modes=[[[0.5]]])
        with pytest.raises(ValueError, match="unknown method"):
            w2_trajectory(
                sys, IIDSwitching([1.0]), point_mass([1.0]), 3, method="mc"
            )

    def test_divergence_raises_numerical_error(self):
        sys = JumpLinearSystem(modes=[[[2.0]]])
        with pytest.raises(NumericalError, match="diverged at k="):
            w2_trajectory(sys, IIDSwitching([1.0]), point_mass([1.0]), 600)

    def test_gamma_divergence_raises_too(self):
        sys = JumpLinearSystem(modes=[[[2.0]]])
        with pytest.raises(NumericalError, match="diverged"):
            w2_trajectory(
                sys, IIDSwitching([1.0]), point_mass([1.0]), 600,
                method="gamma",
            )

    def test_validation_failures_surface(self):
        sys = JumpLinearSystem(modes=[np.eye(2), np.eye(2)])
        with pytest.raises(ValueError, match="probability sum"):
            w2_trajectory(
                sys, IIDSwitching([0.6, 0.6]), point_mass([1.0, 0.0]), 3
            )


ROUTES = ("moment", "gamma", "exact_mog")

#: criterion 5's chain: scalar modes 1.2 and 0.5 that prefer to alternate
ALTERNATING = ([[[1.2]], [[0.5]]], [[0.3, 0.7], [0.7, 0.3]])


def markov_reference(sys, law, mix, k_max):
    """markov_w2 of a Markov law from the mixture's second moment."""
    mean, cov = synthetic_gaussian(mix)
    return markov_w2(sys.modes, law.P, law.pi0, np.outer(mean, mean) + cov,
                     k_max)


class TestMarkovChain:
    """Every route steps the coupled chain that markov_test judges, with
    pi0 the law of the mode before step 1, against the plain-loop
    recursion of ``reference``."""

    @pytest.mark.parametrize("method", ROUTES)
    @pytest.mark.parametrize("pi0, pinned", [
        ([0.5, 0.5], [1.0, 0.845, 0.572415]),
        # the marginal route gives 0.5707014 at k=2, and a chain started
        # with Q_r(1) = pi0_r A_r Phi(0) A_r^T gives 0.87408
        ([1.0, 0.0], [1.0, 0.607, 0.451749]),
    ], ids=["stationary", "first-mode"])
    def test_pinned_values(self, method, pi0, pinned):
        modes, p = ALTERNATING
        sys, law = JumpLinearSystem(modes=modes), MarkovSwitching(p, pi0)
        ref = markov_reference(sys, law, point_mass([1.0]), 2)
        assert_allclose(ref, pinned, rtol=1e-12, atol=0)
        recs = w2_trajectory(sys, law, point_mass([1.0]), 2, method=method)
        assert_allclose([r.w2 for r in recs], ref, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("method", ["moment", "gamma"])
    def test_unstable_chain_grows(self, method):
        # the marginal route printed W^2(60) = 4.17e-9 for this chain,
        # which markov_test calls unstable with rho = 1.29611
        sys = JumpLinearSystem(modes=[[[1.2]], [[0.1]]])
        law = MarkovSwitching([[0.9, 0.1], [0.1, 0.9]], [0.5, 0.5])
        assert markov_test(sys, law.P).evidence == pytest.approx(1.29611,
                                                                 abs=1e-5)
        ref = markov_reference(sys, law, point_mass([1.0]), 60)
        assert ref[60] == pytest.approx(3_190_628.78, rel=1e-9)
        recs = w2_trajectory(sys, law, point_mass([1.0]), 60, method=method)
        assert_allclose([r.w2 for r in recs], ref, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("seed", range(8))
    def test_random_chains_match_the_reference(self, seed):
        rng = np.random.default_rng([223, seed])
        n, m = int(rng.integers(1, 4)), int(rng.integers(2, 4))
        sys = random_system(rng, m=m, n=n, scale=1.1)
        p = rng.dirichlet(np.ones(m), size=m)
        if seed % 2:  # zero links: each state skips one mode
            p[np.arange(m), (np.arange(m) + 1) % m] = 0.0
            p /= p.sum(axis=1, keepdims=True)
        law = MarkovSwitching(p, rng.dirichlet(np.ones(m)))
        mix = random_mixture(rng, n=n, q=int(rng.integers(1, 3)))
        ref = markov_reference(sys, law, mix, 6)
        for method in ROUTES:
            recs = w2_trajectory(sys, law, mix, 6, method=method)
            assert_allclose([r.w2 for r in recs], ref, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("seed", range(10))
    def test_growth_rate_is_the_verdicts_radius(self, seed):
        rng = np.random.default_rng([227, seed])
        n, m = int(rng.integers(1, 4)), int(rng.integers(2, 4))
        modes = rng.standard_normal((m, n, n))
        p = rng.dirichlet(np.ones(m), size=m)
        rho = markov_test(JumpLinearSystem(modes=modes), p).evidence
        scale = np.sqrt(rng.uniform(0.5, 1.5) / rho)
        sys = JumpLinearSystem(modes=scale * modes)
        law = MarkovSwitching(p, rng.dirichlet(np.ones(m)))
        mix = random_mixture(rng, n=n, q=2)
        w2 = [r.w2 for r in w2_trajectory(sys, law, mix, 151)]
        assert w2[151] / w2[150] == pytest.approx(
            markov_test(sys, p).evidence, rel=1e-4)
        assert_allclose(w2, markov_reference(sys, law, mix, 151),
                        rtol=1e-12, atol=0)

    def test_counts_follow_the_chain(self):
        # from mode 2 the chain returns to mode 1, so the mode paths of
        # nonzero probability number 2, 3, 5, 8, ...
        sys = JumpLinearSystem(modes=[[[0.9]], [[0.5]]])
        law = MarkovSwitching([[0.5, 0.5], [1.0, 0.0]], [1.0, 0.0])
        recs = w2_trajectory(sys, law, point_mass([1.0]), 10,
                             method="exact_mog")
        assert [r.component_count for r in recs] == [
            1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144]
        assert_allclose([r.w2 for r in recs],
                        markov_reference(sys, law, point_mass([1.0]), 10),
                        rtol=1e-12, atol=0)
        with pytest.raises(ValueError,
                           match=r"q0\*paths\(k\) = 1\*144 = 144 "):
            w2_trajectory(sys, law, point_mass([1.0]), 10, "exact_mog",
                          cap=143)
        assert w2_trajectory(sys, law, point_mass([1.0]), 10, "exact_mog",
                             cap=144) == recs

    def test_full_chain_counts_m_to_the_k(self):
        rng = np.random.default_rng(229)
        sys = random_system(rng, m=3, n=2)
        law = MarkovSwitching(rng.dirichlet(np.ones(3), size=3),
                              [0.2, 0.3, 0.5])
        recs = w2_trajectory(sys, law, random_mixture(rng, n=2, q=2), 5,
                             method="exact_mog")
        assert [r.component_count for r in recs] == [2 * 3**k
                                                    for k in range(6)]
        with pytest.raises(ValueError, match=r"m\^k\*q0 = 3\^5\*2 = 486 "):
            w2_trajectory(sys, law, random_mixture(rng, n=2, q=2), 5,
                          "exact_mog", cap=485)
