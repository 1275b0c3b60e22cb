"""Stability verdict tests.

Spectral evidence values are checked against hand-solved characteristic
polynomials and brute-force eigen oracles; verdicts are cross-checked
against the W^2 trajectories they are supposed to predict.
"""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from jumpstab.matkit import spectral_radius
from jumpstab.propagate import w2_trajectory
from jumpstab.stability import (
    StabilityReport,
    analyze,
    contraction_test,
    general_test,
    iid_test,
    markov_test,
)
from jumpstab.sysmodel import (
    GaussianMixture,
    IIDSwitching,
    JumpLinearSystem,
    MarkovSwitching,
    ScheduleSwitching,
    SequenceSwitching,
    marginal_schedule,
)
from reference import lifted_step_matrix


def scalar_system(*values):
    return JumpLinearSystem(modes=[[[float(v)]] for v in values])


def point_mass(x):
    x = np.atleast_1d(np.asarray(x, dtype=float))
    n = x.size
    return GaussianMixture.from_components([(1.0, x, np.zeros((n, n)))])


def random_system_with_radius(rng, m, n, pi, target):
    """Random system rescaled so the iid lift has spectral radius target."""
    mats = [rng.standard_normal((n, n)) for _ in range(m)]
    sys = JumpLinearSystem(modes=mats)
    rho = spectral_radius(lifted_step_matrix(sys, pi))
    # evidence scales as c^2 when every mode is scaled by c
    c = np.sqrt(target / rho)
    return JumpLinearSystem(modes=[c * a for a in mats])


class TestIidTest:
    def test_scalar_unstable_pair(self):
        report = iid_test(scalar_system(2.0, 0.1), [0.5, 0.5])
        assert report.evidence == pytest.approx(2.005, abs=1e-12)
        assert report.verdict == "unstable"
        assert report.test_name == "iid"

    def test_single_contracting_mode(self):
        report = iid_test(
            JumpLinearSystem(modes=[0.5 * np.eye(2)]), [1.0]
        )
        assert report.evidence == pytest.approx(0.25, abs=1e-12)
        assert report.verdict == "stable"

    def test_against_dense_eigen_oracle(self):
        rng = np.random.default_rng(157)
        for _ in range(5):
            mats = [rng.standard_normal((2, 2)) for _ in range(2)]
            sys = JumpLinearSystem(modes=mats)
            pi = np.array([0.3, 0.7])
            report = iid_test(sys, pi)
            # oracle: explicit 4x4 lift, raw numpy eigenvalues
            lift = pi[0] * np.kron(mats[0], mats[0]) + pi[1] * np.kron(
                mats[1], mats[1]
            )
            oracle = np.max(np.abs(np.linalg.eigvals(lift)))
            assert report.evidence == pytest.approx(oracle, rel=1e-9)

    def test_marginal_band(self):
        report = iid_test(scalar_system(1.0), [1.0])
        assert report.evidence == pytest.approx(1.0, abs=1e-15)
        assert report.verdict == "marginal"

    def test_scale_equivariance(self):
        rng = np.random.default_rng(163)
        mats = [rng.standard_normal((2, 2)) for _ in range(2)]
        pi = [0.4, 0.6]
        base = iid_test(JumpLinearSystem(modes=mats), pi).evidence
        for c in (0.5, 2.0, 3.0):
            scaled = iid_test(
                JumpLinearSystem(modes=[c * a for a in mats]), pi
            ).evidence
            assert scaled == pytest.approx(c * c * base, rel=1e-9)

    def test_invalid_pi(self):
        with pytest.raises(ValueError, match="probability sum"):
            iid_test(scalar_system(1.0, 2.0), [0.6, 0.6])


class TestMarkovTest:
    def test_hand_solved_quadratic(self):
        sys = scalar_system(1.2, 0.5)
        p = [[0.3, 0.7], [0.7, 0.3]]
        report = markov_test(sys, p)
        # oracle: lifted matrix [[0.432, 1.008], [0.175, 0.075]] has
        # characteristic polynomial x^2 - 0.507 x - 0.144
        root = (0.507 + np.sqrt(0.507**2 + 4 * 0.144)) / 2
        assert report.evidence == pytest.approx(root, rel=1e-12)
        assert report.evidence == pytest.approx(0.70986, abs=5e-6)
        assert report.verdict == "stable"
        assert any("unique" in note for note in report.notes)

    def test_identity_chain_blocks(self):
        rng = np.random.default_rng(167)
        mats = [rng.standard_normal((2, 2)) for _ in range(3)]
        sys = JumpLinearSystem(modes=mats)
        report = markov_test(sys, np.eye(3))
        oracle = max(spectral_radius(a) ** 2 for a in mats)
        assert report.evidence == pytest.approx(oracle, rel=1e-9)
        # frozen chain has no unique stationary distribution
        assert any("non-unique" in note for note in report.notes)

    def test_identical_rows_reduce_to_iid(self):
        rng = np.random.default_rng(173)
        for _ in range(5):
            mats = [rng.standard_normal((2, 2)) for _ in range(2)]
            sys = JumpLinearSystem(modes=mats)
            pi = np.array([0.35, 0.65])
            p = np.tile(pi, (2, 1))
            n2 = 4
            lift_markov = np.vstack(
                [
                    np.hstack(
                        [
                            pi[i] * np.kron(mats[i], mats[i])
                            for _ in range(2)
                        ]
                    )
                    for i in range(2)
                ]
            )
            # sanity: the banded construction above is the markov lift
            import scipy.linalg

            direct = scipy.linalg.block_diag(
                *(np.kron(a, a) for a in mats)
            ) @ np.kron(p.T, np.eye(n2))
            assert_allclose(lift_markov, direct, atol=1e-12)

            eig_markov = np.linalg.eigvals(direct)
            eig_iid = np.linalg.eigvals(lifted_step_matrix(sys, pi))
            scale = max(1.0, np.max(np.abs(eig_markov)))
            top = sorted(eig_markov, key=abs, reverse=True)[:n2]
            assert_allclose(
                np.sort_complex(np.array(top)),
                np.sort_complex(eig_iid),
                atol=1e-8 * scale,
            )
            rest = sorted(np.abs(eig_markov))[: n2 * (2 - 1)]
            assert np.max(rest) < 1e-8 * scale
            # and the radii agree, which is what the verdict reads
            assert markov_test(sys, p).evidence == pytest.approx(
                iid_test(sys, pi).evidence, rel=1e-9
            )

    def test_non_symmetric_chain_block_placement(self):
        scipy_linalg = pytest.importorskip("scipy.linalg")
        rng = np.random.default_rng(179)
        mats = [rng.standard_normal((2, 2)) for _ in range(3)]
        sys = JumpLinearSystem(modes=mats)
        p = np.array([[0.1, 0.6, 0.3], [0.7, 0.2, 0.1], [0.05, 0.15, 0.8]])
        blocks = scipy_linalg.block_diag(*(np.kron(a, a) for a in mats))
        oracle = spectral_radius(blocks @ np.kron(p.T, np.eye(4)))
        transposed = spectral_radius(blocks @ np.kron(p, np.eye(4)))
        # the case must tell the two placements apart
        assert abs(oracle - transposed) > 1e-3 * oracle
        assert markov_test(sys, p).evidence == pytest.approx(oracle, rel=1e-12)

    def test_rejects_bad_transition_matrix(self):
        with pytest.raises(ValueError, match="row 1"):
            markov_test(scalar_system(1.0, 1.0), [[0.5, 0.6], [0.5, 0.5]])

    def test_rejects_wrong_size(self):
        with pytest.raises(ValueError, match="expected"):
            markov_test(scalar_system(1.0, 1.0), np.eye(3))


class TestGeneralTest:
    def test_constant_schedule_matches_iid_decay(self):
        sys = JumpLinearSystem(modes=[0.5 * np.eye(2)])
        law = ScheduleSwitching([[1.0]])
        report = general_test(sys, law)
        assert report.verdict == "stable"
        assert report.horizon_used == 1
        assert report.evidence == pytest.approx(0.25, rel=1e-12)
        # Gamma(k) = 0.25^k I_4, Frobenius ratio 0.25^k
        from jumpstab.propagate import gamma_product

        for k in (1, 3, 7, 10):
            gs = gamma_product(sys, law, k)
            ratio = np.linalg.norm(gs.gamma, "fro") / 2.0
            assert ratio == pytest.approx(0.25**k, rel=1e-12)

    def test_alternating_sequence_stable(self):
        # sequences are served by the Corollary-1 contraction test
        sys = scalar_system(2.0, 0.1)
        law = SequenceSwitching((1, 2))
        with pytest.raises(ValueError, match="contraction_test serves it"):
            general_test(sys, law)
        report = contraction_test(sys, law)
        assert report.verdict == "stable-per-corollary"
        assert report.evidence == pytest.approx(0.2, rel=1e-12)

    def test_constant_unstable_sequence(self):
        # the constant sequence is the one-row schedule: radius 4, exactly
        sys = scalar_system(2.0)
        with pytest.raises(ValueError, match="contraction_test serves it"):
            general_test(sys, SequenceSwitching((1,)))
        report = general_test(sys, ScheduleSwitching([[1.0]]))
        assert report.verdict == "unstable"
        assert report.evidence == pytest.approx(4.0, rel=1e-12)
        assert report.certificate == "unstable"

    def test_growth_without_overflow_is_unstable(self):
        # 100 rows of mode 2: Gamma(100) = 4^100 stays finite, and the
        # verdict is read from the tail row, not from the growth
        from jumpstab.propagate import gamma_product

        sys = scalar_system(2.0)
        law = ScheduleSwitching([[1.0]] * 100)
        report = general_test(sys, law)
        assert report.verdict == "unstable"
        assert report.evidence == pytest.approx(4.0, rel=1e-12)
        assert report.horizon_used == 100
        gs = gamma_product(sys, law, 100)
        assert not gs.diverged
        assert gs.gamma[0, 0] == pytest.approx(4.0**100, rel=1e-9)

    def test_markov_law_through_marginals(self):
        sys = scalar_system(1.2, 0.5)
        law = MarkovSwitching(P=[[0.3, 0.7], [0.7, 0.3]], pi0=[0.5, 0.5])
        with pytest.raises(ValueError, match="markov_test serves it"):
            general_test(sys, law)
        assert markov_test(sys, law.P).verdict == "stable"
        # marginals converge to (1/2, 1/2); the marginal lift has
        # radius 0.845 < 1, so the schedule of marginals decays
        report = general_test(
            sys, ScheduleSwitching(marginal_schedule(law, 50))
        )
        assert report.verdict == "stable"
        assert report.evidence == pytest.approx(0.845, rel=1e-9)

    def test_transient_dip_not_declared_stable(self):
        # long contraction followed by sustained regrowth: the tail row
        # repeats mode 100 forever, so the verdict is exactly unstable
        sys = scalar_system(0.1, 100.0)
        vectors = [[1.0, 0.0]] * 95 + [[0.0, 1.0]] * 5
        report = general_test(sys, ScheduleSwitching(vectors))
        assert report.verdict == "unstable"
        assert report.evidence == pytest.approx(1e4, rel=1e-12)
        assert report.horizon_used == 100

    def test_schedule_outlasting_500_steps(self):
        # 550 growing rows, then a contracting tail: W^2 falls to 1.7e-45
        # by k = 700, though Gamma(500) is 1.1^1000 = 2.5e41
        sys = scalar_system(1.1, 0.5)
        law = ScheduleSwitching([[1.0, 0.0]] * 550 + [[0.0, 1.0]])
        report = general_test(sys, law)
        assert report.verdict == "stable"
        assert report.evidence == pytest.approx(0.25, rel=1e-12)
        assert report.horizon_used == 551
        w2 = w2_trajectory(sys, law, point_mass(1.0), 700)[-1].w2
        assert w2 == pytest.approx(1.21**550 * 0.25**150, rel=1e-9)

    def test_slow_decay_is_stable(self):
        report = general_test(scalar_system(0.999), ScheduleSwitching([[1.0]]))
        assert report.verdict == "stable"
        assert report.evidence == pytest.approx(0.998001, rel=1e-12)
        assert report.certificate == "stable"

    def test_zero_transient_is_stable(self):
        # a zero mode taken surely at step 2 maps every moment to 0
        sys = scalar_system(3.0, 0.0)
        law = ScheduleSwitching([[0.5, 0.5], [0.0, 1.0], [1.0, 0.0]])
        report = general_test(sys, law)
        assert report.verdict == "stable"
        assert report.evidence == pytest.approx(9.0, rel=1e-12)
        assert any("to 0" in note for note in report.notes)

    def test_rank_one_transient_is_inconclusive(self):
        # the transient keeps only the first coordinate: the certified
        # growth of the tail (a rotation scaled by 2) says nothing about
        # a singular second moment
        t = 0.7
        spin = 2.0 * np.array([[np.cos(t), -np.sin(t)],
                               [np.sin(t), np.cos(t)]])
        sys = JumpLinearSystem(modes=[np.diag([1.0, 0.0]), spin])
        law = ScheduleSwitching([[1.0, 0.0], [0.0, 1.0]])
        report = general_test(sys, law)
        assert report.verdict == "inconclusive"
        assert report.certificate == "unstable"
        assert report.evidence == pytest.approx(4.0, rel=1e-12)
        assert any("not positive definite" in note for note in report.notes)

    def test_margin_applies(self):
        sys = scalar_system(0.999)
        report = general_test(sys, ScheduleSwitching([[1.0]]), margin=0.01)
        assert report.verdict == "marginal"

    def test_other_laws_rejected(self):
        sys = scalar_system(2.0, 0.1)
        for law, serving in [
            (IIDSwitching([0.5, 0.5]), "iid_test"),
            (MarkovSwitching([[0.3, 0.7], [0.7, 0.3]], [0.5, 0.5]),
             "markov_test"),
            (SequenceSwitching((1, 2)), "contraction_test"),
        ]:
            with pytest.raises(ValueError, match=f"{serving} serves it"):
                general_test(sys, law)


class TestContractionTest:
    def test_alternating_pair(self):
        sys = scalar_system(2.0, 0.1)
        report = contraction_test(sys, SequenceSwitching((1, 2)))
        assert report.verdict == "stable-per-corollary"
        assert report.horizon_used == 2
        assert report.evidence == pytest.approx(0.2, rel=1e-12)
        assert any("one-period" in note for note in report.notes)

    def test_single_contracting_mode(self):
        sys = scalar_system(0.5)
        report = contraction_test(sys, SequenceSwitching((1,)))
        assert report.verdict == "stable-per-corollary"
        assert report.horizon_used == 1
        assert report.evidence == pytest.approx(0.5)

    def test_constant_expanding_mode(self):
        sys = scalar_system(2.0)
        for k_max in (10, 500, 2000):
            report = contraction_test(
                sys, SequenceSwitching((1,)), k_max=k_max
            )
            assert report.verdict == "inconclusive"
            assert report.evidence >= 1.0

    def test_sequence_index_validation(self):
        with pytest.raises(ValueError, match="outside"):
            contraction_test(scalar_system(0.5), SequenceSwitching((2,)))


class TestVerdictTrajectoryConsistency:
    @pytest.mark.parametrize("rho", [0.3, 0.9])
    def test_stable_verdicts_match_decay(self, rho):
        rng = np.random.default_rng(int(rho * 1000))
        pi = np.array([0.4, 0.6])
        sys = random_system_with_radius(rng, 2, 2, pi, rho)
        report = iid_test(sys, pi)
        assert report.verdict == "stable"
        horizon = 2 * int(np.ceil(np.log(1e-9) / np.log(rho))) + 20
        recs = w2_trajectory(
            sys, IIDSwitching(pi), point_mass([1.0, 1.0]), horizon
        )
        assert recs[-1].w2 < 1e-9 * recs[0].w2

    @pytest.mark.parametrize("rho", [1.1, 2.0])
    def test_unstable_verdicts_match_growth(self, rho):
        rng = np.random.default_rng(int(rho * 1000) + 7)
        pi = np.array([0.4, 0.6])
        sys = random_system_with_radius(rng, 2, 2, pi, rho)
        report = iid_test(sys, pi)
        assert report.verdict == "unstable"
        horizon = 2 * int(np.ceil(np.log(1e6) / np.log(rho))) + 20
        recs = w2_trajectory(
            sys, IIDSwitching(pi), point_mass([1.0, 1.0]), horizon
        )
        assert max(r.w2 for r in recs) > 1e6 * recs[0].w2

    def test_scalar_consistency_both_ways(self):
        stable = iid_test(scalar_system(0.5, 0.6), [0.5, 0.5])
        assert stable.verdict == "stable"
        unstable = iid_test(scalar_system(2.0, 0.1), [0.5, 0.5])
        assert unstable.verdict == "unstable"


class TestSingleModeSanity:
    def test_all_tests_reduce_to_schur_radius(self):
        rng = np.random.default_rng(179)
        a = rng.standard_normal((2, 2))
        a *= 0.8 / spectral_radius(a)
        sys = JumpLinearSystem(modes=[a])
        rho_sq = spectral_radius(a) ** 2
        assert iid_test(sys, [1.0]).evidence == pytest.approx(
            rho_sq, rel=1e-9
        )
        assert markov_test(sys, [[1.0]]).evidence == pytest.approx(
            rho_sq, rel=1e-9
        )
        general = general_test(sys, ScheduleSwitching([[1.0]]))
        assert general.verdict == "stable"
        assert general.evidence == pytest.approx(rho_sq, rel=1e-9)


class TestAnalyzeDispatch:
    def test_iid_law(self):
        report = analyze(scalar_system(2.0, 0.1), IIDSwitching([0.5, 0.5]))
        assert report.test_name == "iid"
        assert report.verdict == "unstable"

    def test_markov_law(self):
        report = analyze(
            scalar_system(1.2, 0.5),
            MarkovSwitching(P=[[0.3, 0.7], [0.7, 0.3]], pi0=[1.0, 0.0]),
        )
        assert report.test_name == "markov"
        assert report.verdict == "stable"

    def test_schedule_law(self):
        report = analyze(
            JumpLinearSystem(modes=[0.5 * np.eye(2)]),
            ScheduleSwitching([[1.0]]),
        )
        assert report.test_name == "general"
        assert report.verdict == "stable"

    def test_sequence_law(self):
        report = analyze(scalar_system(2.0, 0.1), SequenceSwitching((1, 2)))
        assert report.test_name == "contraction"
        assert report.verdict == "stable-per-corollary"

    @pytest.mark.parametrize("horizon", [0, -5])
    def test_horizon_checked_for_every_law(self, horizon):
        sys = scalar_system(2.0, 0.1)
        for law in (IIDSwitching([0.5, 0.5]),
                    MarkovSwitching([[0.3, 0.7], [0.7, 0.3]], [0.5, 0.5]),
                    ScheduleSwitching([[0.5, 0.5]]),
                    SequenceSwitching((1, 2))):
            with pytest.raises(ValueError, match=f"horizon must be >= 1, "
                                                 f"got {horizon}"):
                analyze(sys, law, horizon=horizon)
