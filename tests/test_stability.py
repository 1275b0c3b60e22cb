"""Stability verdict tests.

Spectral evidence values are checked against hand-solved characteristic
polynomials and brute-force eigen oracles; verdicts are cross-checked
against the W^2 trajectories they are supposed to predict.
"""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from jumpstab.defaults import DEFAULT_MARGIN
from jumpstab.matkit import spectral_radius
from jumpstab.mcsim import SimConfig, simulate_ensemble
from jumpstab.moments import _chain_lift, _moment_map, _sym_coords, _sym_lifts
from jumpstab.propagate import w2_trajectory
from jumpstab.stability import (
    _certified_radius,
    analyze,
    contraction_test,
    markov_test,
)
from jumpstab.sysmodel import (
    GaussianMixture,
    IIDSwitching,
    JumpLinearSystem,
    MarkovSwitching,
    ScheduleSwitching,
    SequenceSwitching,
    _normalized,
    marginal_schedule,
)
from reference import lifted_step_matrix, structured_family


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
        report = analyze(scalar_system(2.0, 0.1), IIDSwitching([0.5, 0.5]))
        assert report.evidence == pytest.approx(2.005, abs=1e-12)
        assert report.verdict == "unstable"
        assert report.test_name == "iid"

    def test_single_contracting_mode(self):
        report = analyze(JumpLinearSystem(modes=[0.5 * np.eye(2)]),
                         IIDSwitching([1.0]))
        assert report.evidence == pytest.approx(0.25, abs=1e-12)
        assert report.verdict == "stable"

    def test_against_dense_eigen_oracle(self):
        rng = np.random.default_rng(157)
        for _ in range(5):
            mats = [rng.standard_normal((2, 2)) for _ in range(2)]
            sys = JumpLinearSystem(modes=mats)
            pi = np.array([0.3, 0.7])
            report = analyze(sys, IIDSwitching(pi))
            # oracle: explicit 4x4 lift, raw numpy eigenvalues
            lift = pi[0] * np.kron(mats[0], mats[0]) + pi[1] * np.kron(
                mats[1], mats[1]
            )
            oracle = np.max(np.abs(np.linalg.eigvals(lift)))
            assert report.evidence == pytest.approx(oracle, rel=1e-9)

    def test_marginal_band(self):
        report = analyze(scalar_system(1.0), IIDSwitching([1.0]))
        assert report.evidence == pytest.approx(1.0, abs=1e-15)
        assert report.verdict == "marginal"

    def test_scale_equivariance(self):
        rng = np.random.default_rng(163)
        mats = [rng.standard_normal((2, 2)) for _ in range(2)]
        pi = [0.4, 0.6]
        base = analyze(JumpLinearSystem(modes=mats), IIDSwitching(pi)).evidence
        for c in (0.5, 2.0, 3.0):
            scaled = analyze(JumpLinearSystem(modes=[c * a for a in mats]),
                             IIDSwitching(pi)).evidence
            assert scaled == pytest.approx(c * c * base, rel=1e-9)

    def test_invalid_pi(self):
        with pytest.raises(ValueError, match="probability sum"):
            analyze(scalar_system(1.0, 2.0), IIDSwitching([0.6, 0.6]))

    @pytest.mark.parametrize("pi, message", [
        ([1.0], "switching pi has length 1 for 2 modes"),
        ([0.7, 0.7], "switching pi: probability sum 1.4 != 1"),
    ], ids=["length", "sum"])
    def test_errors_name_the_argument(self, pi, message):
        with pytest.raises(ValueError) as caught:
            analyze(scalar_system(1.0, 2.0), IIDSwitching(pi))
        assert str(caught.value) == message


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
        assert report.notes == ()

    def test_identity_chain_blocks(self):
        rng = np.random.default_rng(167)
        mats = [rng.standard_normal((2, 2)) for _ in range(3)]
        sys = JumpLinearSystem(modes=mats)
        report = markov_test(sys, np.eye(3))
        oracle = max(spectral_radius(a) ** 2 for a in mats)
        assert report.evidence == pytest.approx(oracle, rel=1e-9)
        assert report.notes == ()

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
                analyze(sys, IIDSwitching(pi)).evidence, rel=1e-9
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

    def test_reads_the_normalized_chain(self):
        # an entry and a row sum within the validation slack of a chain:
        # read as given, the map has a negative weight
        sys = scalar_system(1.2, 0.5)
        p = np.array([[-1e-13, 1.0], [0.3 + 9e-10, 0.7]])
        assert markov_test(sys, p).evidence == pytest.approx(
            markov_test(sys, _normalized(p)).evidence, rel=1e-12, abs=0)

    def test_rejects_bad_transition_matrix(self):
        with pytest.raises(ValueError) as caught:
            markov_test(scalar_system(1.0, 1.0), [[0.5, 0.6], [0.5, 0.5]])
        assert str(caught.value) == (
            "switching P row 1: probability sum 1.1 != 1")

    def test_rejects_wrong_size(self):
        with pytest.raises(ValueError) as caught:
            markov_test(scalar_system(1.0, 1.0), np.eye(3))
        assert str(caught.value) == "switching P is 3x3 for 2 modes"


class TestGeneralTest:
    def test_constant_schedule_matches_iid_decay(self):
        sys = JumpLinearSystem(modes=[0.5 * np.eye(2)])
        law = ScheduleSwitching([[1.0]])
        report = analyze(sys, law)
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
        report = contraction_test(sys, law)
        assert analyze(sys, law) == report
        assert report.verdict == "stable-per-corollary"
        assert report.evidence == pytest.approx(0.2, rel=1e-12)

    def test_constant_unstable_sequence(self):
        # the constant sequence is the one-row schedule: radius 4, exactly
        sys = scalar_system(2.0)
        report = analyze(sys, ScheduleSwitching([[1.0]]))
        assert report.verdict == "unstable"
        assert report.evidence == pytest.approx(4.0, rel=1e-12)
        assert report.certificate == "unstable"

    def test_growth_without_overflow_is_unstable(self):
        # 100 rows of mode 2: Gamma(100) = 4^100 stays finite, and the
        # verdict is read from the tail row, not from the growth
        from jumpstab.propagate import gamma_product

        sys = scalar_system(2.0)
        law = ScheduleSwitching([[1.0]] * 100)
        report = analyze(sys, law)
        assert report.verdict == "unstable"
        assert report.evidence == pytest.approx(4.0, rel=1e-12)
        assert report.horizon_used == 100
        gs = gamma_product(sys, law, 100)
        assert not gs.diverged
        assert gs.gamma[0, 0] == pytest.approx(4.0**100, rel=1e-9)

    def test_markov_law_through_marginals(self):
        sys = scalar_system(1.2, 0.5)
        law = MarkovSwitching(P=[[0.3, 0.7], [0.7, 0.3]], pi0=[0.5, 0.5])
        assert markov_test(sys, law.P).verdict == "stable"
        # marginals converge to (1/2, 1/2); the marginal lift has
        # radius 0.845 < 1, so the schedule of marginals decays
        report = analyze(sys, ScheduleSwitching(marginal_schedule(law, 50)))
        assert report.verdict == "stable"
        assert report.evidence == pytest.approx(0.845, rel=1e-9)

    def test_transient_dip_not_declared_stable(self):
        # long contraction followed by sustained regrowth: the tail row
        # repeats mode 100 forever, so the verdict is exactly unstable
        sys = scalar_system(0.1, 100.0)
        vectors = [[1.0, 0.0]] * 95 + [[0.0, 1.0]] * 5
        report = analyze(sys, ScheduleSwitching(vectors))
        assert report.verdict == "unstable"
        assert report.evidence == pytest.approx(1e4, rel=1e-12)
        assert report.horizon_used == 100

    def test_schedule_outlasting_500_steps(self):
        # 550 growing rows, then a contracting tail: W^2 falls to 1.7e-45
        # by k = 700, though Gamma(500) is 1.1^1000 = 2.5e41
        sys = scalar_system(1.1, 0.5)
        law = ScheduleSwitching([[1.0, 0.0]] * 550 + [[0.0, 1.0]])
        report = analyze(sys, law)
        assert report.verdict == "stable"
        assert report.evidence == pytest.approx(0.25, rel=1e-12)
        assert report.horizon_used == 551
        w2 = w2_trajectory(sys, law, point_mass(1.0), 700)[-1].w2
        assert w2 == pytest.approx(1.21**550 * 0.25**150, rel=1e-9)

    def test_slow_decay_is_stable(self):
        report = analyze(scalar_system(0.999), ScheduleSwitching([[1.0]]))
        assert report.verdict == "stable"
        assert report.evidence == pytest.approx(0.998001, rel=1e-12)
        assert report.certificate == "stable"

    def test_zero_transient_is_stable(self):
        # a zero mode taken surely at step 2 maps every moment to 0
        sys = scalar_system(3.0, 0.0)
        law = ScheduleSwitching([[0.5, 0.5], [0.0, 1.0], [1.0, 0.0]])
        report = analyze(sys, law)
        assert report.verdict == "stable"
        assert report.evidence == pytest.approx(9.0, rel=1e-12)
        assert any("to 0" in note for note in report.notes)

    def test_rank_one_transient_closed_by_the_tail_is_unstable(self):
        # the transient keeps only the first coordinate, but the tail (a
        # rotation scaled by 2) turns it through the whole plane: the face
        # the process reaches is every PSD matrix, and it grows at rho = 4
        t = 0.7
        spin = 2.0 * np.array([[np.cos(t), -np.sin(t)],
                               [np.sin(t), np.cos(t)]])
        sys = JumpLinearSystem(modes=[np.diag([1.0, 0.0]), spin])
        law = ScheduleSwitching([[1.0, 0.0], [0.0, 1.0]])
        report = analyze(sys, law)
        assert report.verdict == "unstable"
        assert report.certificate == "unstable"
        assert report.evidence == pytest.approx(4.0, rel=1e-12)
        assert report.notes == ()
        w2 = [r.w2 for r in w2_trajectory(sys, law, point_mass([1.0, 0.0]),
                                          30)]
        assert w2[30] == pytest.approx(4.0**29, rel=1e-9)

    def test_margin_applies(self):
        sys = scalar_system(0.999)
        report = analyze(sys, ScheduleSwitching([[1.0]]), margin=0.01)
        assert report.verdict == "marginal"


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
            # 2**499 is the first power of 2 past DIVERGENCE_GUARD
            assert report.horizon_used == min(k_max, 498)

    def test_guard_stops_the_scan(self):
        # 10**150 passes the guard: the scan checked 149 prefixes
        report = contraction_test(scalar_system(10.0), SequenceSwitching((1,)))
        assert report.verdict == "inconclusive"
        assert report.horizon_used == 149
        assert report.notes[-2:] == (
            "prefix products exceeded the overflow guard at k=150",
            "no contractive prefix within 149 steps",
        )

    def test_overflowing_product_is_caught_without_warning(self):
        # step 2's product passes float64; pytest turns a RuntimeWarning
        # into an error, so the fold must keep it quiet for the guard
        sys = JumpLinearSystem(modes=[[[1e300, -1e300], [0.0, 0.0]],
                                      [[1e140, 0.0], [1e140, 0.0]]])
        report = contraction_test(sys, SequenceSwitching((2, 1)))
        assert report.verdict == "inconclusive"
        assert report.horizon_used == 1
        assert report.evidence == pytest.approx(np.sqrt(2) * 1e140)
        assert report.notes == (
            "prefix products exceeded the overflow guard at k=2",
            "no contractive prefix within 1 steps",
        )

    def test_sequence_index_validation(self):
        with pytest.raises(ValueError, match="outside"):
            contraction_test(scalar_system(0.5), SequenceSwitching((2,)))

    def test_rejects_a_law_that_is_not_a_sequence(self):
        with pytest.raises(ValueError) as caught:
            contraction_test(scalar_system(0.5), IIDSwitching([1.0]))
        assert str(caught.value) == (
            "contraction test needs a deterministic sequence, got "
            "IIDSwitching")


class TestVerdictTrajectoryConsistency:
    @pytest.mark.parametrize("rho", [0.3, 0.9])
    def test_stable_verdicts_match_decay(self, rho):
        rng = np.random.default_rng(int(rho * 1000))
        pi = np.array([0.4, 0.6])
        sys = random_system_with_radius(rng, 2, 2, pi, rho)
        report = analyze(sys, IIDSwitching(pi))
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
        report = analyze(sys, IIDSwitching(pi))
        assert report.verdict == "unstable"
        horizon = 2 * int(np.ceil(np.log(1e6) / np.log(rho))) + 20
        recs = w2_trajectory(
            sys, IIDSwitching(pi), point_mass([1.0, 1.0]), horizon
        )
        assert max(r.w2 for r in recs) > 1e6 * recs[0].w2

    def test_scalar_consistency_both_ways(self):
        stable = analyze(scalar_system(0.5, 0.6), IIDSwitching([0.5, 0.5]))
        assert stable.verdict == "stable"
        unstable = analyze(scalar_system(2.0, 0.1), IIDSwitching([0.5, 0.5]))
        assert unstable.verdict == "unstable"


class TestSingleModeSanity:
    def test_all_tests_reduce_to_schur_radius(self):
        rng = np.random.default_rng(179)
        a = rng.standard_normal((2, 2))
        a *= 0.8 / spectral_radius(a)
        sys = JumpLinearSystem(modes=[a])
        rho_sq = spectral_radius(a) ** 2
        assert analyze(sys, IIDSwitching([1.0])).evidence == pytest.approx(
            rho_sq, rel=1e-9
        )
        assert markov_test(sys, [[1.0]]).evidence == pytest.approx(
            rho_sq, rel=1e-9
        )
        general = analyze(sys, ScheduleSwitching([[1.0]]))
        assert general.verdict == "stable"
        assert general.evidence == pytest.approx(rho_sq, rel=1e-9)


class TestReachableStates:
    """``analyze`` judges a Markov law on the chain states its pi0 reaches;
    ``markov_test`` keeps the verdict from every initial law."""

    def test_start_that_never_leaves_the_contracting_mode(self):
        sys, law = scalar_system(0.5, 2.0), MarkovSwitching(np.eye(2), [1, 0])
        report = analyze(sys, law)
        assert report.verdict == "stable"
        assert report.evidence == pytest.approx(0.25, rel=1e-12)
        assert report.notes == ("pi0 reaches 1 of 2 chain states; from every "
                                "initial law the spectral radius is 4",)
        whole = markov_test(sys, np.eye(2))
        assert whole.verdict == "unstable"
        assert whole.evidence == pytest.approx(4.0, rel=1e-12)
        w2 = [r.w2 for r in w2_trajectory(sys, law, point_mass(1.0), 30)]
        assert_allclose(w2, 0.25 ** np.arange(31), rtol=1e-14)

    def test_reach_starts_at_step_one(self):
        # pi0 names mode 1, the mode before step 1; every step is mode 2
        sys = scalar_system(2.0, 0.5)
        law = MarkovSwitching([[0.0, 1.0], [0.0, 1.0]], [1.0, 0.0])
        report = analyze(sys, law)
        assert report.verdict == "stable"
        assert report.evidence == pytest.approx(0.25, rel=1e-12)
        assert len(report.notes) == 1

    def test_reach_closes_under_the_chain(self):
        # step 1 is in state 2, which leads back to 1; 3 stays unreached
        sys = scalar_system(0.5, 0.6, 3.0)
        p = [[0.0, 1.0, 0.0], [0.5, 0.5, 0.0], [0.0, 0.0, 1.0]]
        report = analyze(sys, MarkovSwitching(p, [1.0, 0.0, 0.0]))
        oracle = markov_test(scalar_system(0.5, 0.6), [[0, 1], [0.5, 0.5]])
        assert report.verdict == oracle.verdict == "stable"
        assert report.evidence == oracle.evidence
        assert "pi0 reaches 2 of 3 chain states" in report.notes[0]

    def test_left_out_state_changes_no_bit(self):
        # criterion 7's first chain of default_rng(1007), rows all pi, with
        # a third state behind it that pi0 never reaches: the kept states'
        # map reads a column slice of the pair, which numpy returns in
        # Fortran order, and its evidence must not depend on that order
        rng = np.random.default_rng(1007)
        m, n = int(rng.integers(2, 4)), int(rng.integers(1, 4))
        modes = [rng.standard_normal((n, n)) for _ in range(m)]
        pi = rng.random(m) + 0.1
        pi /= pi.sum()
        p = np.tile(np.append(pi, 0.0), (m + 1, 1))
        sys = JumpLinearSystem(modes + [np.eye(n)])
        report = analyze(sys, MarkovSwitching(p, p[0]))
        oracle = markov_test(JumpLinearSystem(modes), np.tile(pi, (m, 1)))
        assert "pi0 reaches 2 of 3 chain states" in report.notes[0]
        assert report.evidence == oracle.evidence
        kept = _moment_map(sys.modes, p[:m], np.eye(m + 1)[:m])
        assert _certified_radius(kept, m, n, DEFAULT_MARGIN)[1] == (
            oracle.evidence)

    def test_every_state_reached_adds_no_note(self):
        sys = scalar_system(1.2, 0.5)
        law = MarkovSwitching([[0.3, 0.7], [0.7, 0.3]], [1.0, 0.0])
        assert analyze(sys, law) == markov_test(sys, law.P)

    def test_invalid_pi0_rejected(self):
        law = MarkovSwitching(np.eye(2), [0.6, 0.6])
        with pytest.raises(ValueError, match="pi0: probability sum"):
            analyze(scalar_system(0.5, 2.0), law)

    @pytest.mark.parametrize("seed", range(6))
    def test_unreachable_states_change_nothing(self, seed):
        # states appended behind the chain, with arbitrary modes and rows,
        # that pi0 never reaches: the verdict, evidence and W^2 stay
        rng = np.random.default_rng(seed)
        m, extra, n = 2 + seed % 2, 1 + seed % 3, 2
        p = rng.dirichlet(np.ones(m), m)
        pi0 = rng.dirichlet(np.ones(m))
        modes = 0.7 * rng.standard_normal((m, n, n))
        big = np.zeros((m + extra, m + extra))
        big[:m, :m] = p
        big[m:] = rng.dirichlet(np.ones(m + extra), extra)
        sys = JumpLinearSystem(modes)
        aug = JumpLinearSystem(np.concatenate(
            [modes, 3.0 * rng.standard_normal((extra, n, n))]))
        law = MarkovSwitching(p, pi0)
        big_law = MarkovSwitching(big, np.concatenate([pi0, np.zeros(extra)]))
        base, report = analyze(sys, law), analyze(aug, big_law)
        assert report.verdict == base.verdict
        assert report.evidence == pytest.approx(base.evidence, rel=1e-12)
        assert report.notes == (
            f"pi0 reaches {m} of {m + extra} chain states; from every initial "
            f"law the spectral radius is "
            f"{markov_test(aug, big).evidence:.12g}",)
        init = GaussianMixture.from_components([
            (0.4, [1.0, -0.5], np.eye(n)), (0.6, [0.0, 2.0], 0.5 * np.eye(n))])
        for method in ("moment", "gamma", "exact_mog"):
            expected = [r.w2 for r in w2_trajectory(sys, law, init, 6, method)]
            got = [r.w2 for r in w2_trajectory(aug, big_law, init, 6, method)]
            assert_allclose(got, expected, rtol=1e-14, atol=0)


def growth(sys, law, steps=400):
    """The log growth of T^k(I) over the second half of ``steps``, the
    chain's second moment from covariance I at the start: positive where
    W^2(k) grows, -inf where it reaches 0. Past the transient, the steps
    repeat one map, applied eight at a time as the eighth power of its
    matrix on symmetric coordinates."""
    pair = law._chain(sys.m)
    y = np.eye(sys.n)[None]
    for k in range(1, law._settle):
        y = _moment_map(sys.modes, *pair(k))(y)
    power = np.linalg.matrix_power(
        _chain_lift(_sym_lifts(sys.modes), *pair(law._settle)), 8)
    v, logs = _sym_coords(y).ravel(), []
    for _ in range(steps // 8):
        v = power @ v
        top = np.abs(v).max()
        if top == 0.0:
            return -np.inf
        v = v / top
        logs.append(np.log(top))
    return sum(logs[len(logs) // 2:])


class TestOneVerdictRule:
    """``analyze`` judges the map that repeats on the face the steps before
    it reach from I, for IID, Markov and schedule laws alike."""

    def test_transient_onto_the_contracting_axis_is_stable(self):
        # after step 1 every state lies on e1, where the tail contracts
        sys = JumpLinearSystem([np.diag([1.0, 0.0]), np.diag([0.5, 2.0])])
        law = ScheduleSwitching([[1.0, 0.0], [0.0, 1.0]])
        report = analyze(sys, law)
        assert report.verdict == "stable"
        assert report.evidence == pytest.approx(0.25, rel=1e-12)
        assert report.horizon_used == 2
        assert report.notes == (
            "the steps before step 2 keep the second moment in a "
            "1-dimensional subspace; on the whole space the spectral radius "
            "is 4",)
        init = GaussianMixture.from_components([(1.0, [1.0, 1.0], np.eye(2))])
        w2 = [r.w2 for r in w2_trajectory(sys, law, init, 30)]
        assert_allclose(w2[1:], 2.0 * 0.25 ** np.arange(30), rtol=1e-14)

    def test_tiny_transient_mode_keeps_the_growth(self):
        # ranges are scale-free: 1e-170 spans the line as 1 does
        sys = scalar_system(1e-170, 2.0)
        report = analyze(sys, ScheduleSwitching([[1.0, 0.0], [0.0, 1.0]]))
        assert report.verdict == "unstable"
        assert report.evidence == pytest.approx(4.0, rel=1e-12)
        assert report.notes == ()

    def test_start_into_a_zero_mode_is_stable(self):
        # pi0 leads to the zero mode, whose state then feeds mode 2.0
        sys = scalar_system(0.0, 2.0, 0.5)
        p = [[0.0, 1.0, 0.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0]]
        law = MarkovSwitching(p, [0.0, 0.0, 1.0])
        report = analyze(sys, law)
        assert report.verdict == "stable"
        assert report.evidence == pytest.approx(4.0, rel=1e-12)
        assert report.notes == (
            "the steps before step 2 map every second moment to 0; the "
            "evidence and certificate are those of the map that repeats",)
        assert markov_test(sys, p).verdict == "unstable"
        w2 = [r.w2 for r in w2_trajectory(sys, law, point_mass(1.0), 3)]
        assert w2 == [1.0, 0.0, 0.0, 0.0]

    def test_small_kept_direction_is_judged(self):
        # 1e-11 is above the cut: the face is (e1, e2), and the growth
        # along e2 from 1e-22 decides; only e3 is left out
        sys = JumpLinearSystem([np.diag([1.0, 1e-11, 0.0]),
                                np.diag([0.5, 2.0, 3.0])])
        law = ScheduleSwitching([[1.0, 0.0], [0.0, 1.0]])
        report = analyze(sys, law)
        assert report.verdict == "unstable"
        assert report.evidence == pytest.approx(4.0, rel=1e-12)
        assert report.notes == (
            "the steps before step 2 keep the second moment in a "
            "2-dimensional subspace; on the whole space the spectral radius "
            "is 9",)
        init = GaussianMixture.from_components([(1.0, np.ones(3), np.eye(3))])
        w2 = w2_trajectory(sys, law, init, 40)[-1].w2
        assert w2 == pytest.approx(2e-22 * 4.0**39 + 2 * 0.25**39, rel=1e-9)

    def test_ranges_are_summed_scale_free(self):
        # step 1 leaves e2; step 2 turns it into e1 by one mode and into
        # 1e-20 e2 by another: both lines are reached, and the tail grows
        # on e2, so the small block must not be cut against the large one
        sys = JumpLinearSystem([np.diag([0.0, 1.0]), [[0.0, 1.0], [0.0, 0.0]],
                                np.diag([1.0, 1e-20]), np.diag([0.5, 2.0])])
        law = ScheduleSwitching([[1, 0, 0, 0], [0, 0.5, 0.5, 0], [0, 0, 0, 1]])
        report = analyze(sys, law)
        assert (report.verdict, report.notes) == ("unstable", ())
        assert report.evidence == pytest.approx(4.0, rel=1e-12)

    @pytest.mark.parametrize("tail, verdict", [(0.5, "stable"),
                                               (2.0, "inconclusive")])
    def test_no_clear_gap_keeps_the_whole_answer(self, tail, verdict):
        # singular values 1, 1e-11, 1e-13 trail off across the cut, so the
        # rank of the transient's range is unclear: the whole tail decides,
        # and an unstable one is not taken as the process's verdict
        sys = JumpLinearSystem([np.diag([1.0, 1e-11, 1e-13]),
                                tail * np.eye(3)])
        law = ScheduleSwitching([[1.0, 0.0], [0.0, 1.0]])
        report = analyze(sys, law)
        whole = analyze(sys, ScheduleSwitching([[0.0, 1.0]]))
        assert report.verdict == verdict
        assert report.evidence == whole.evidence
        assert report.certificate == whole.certificate
        assert report.evidence == pytest.approx(tail**2, rel=1e-12)
        assert report.notes == (() if verdict == "stable" else (
            "the steps before step 2 leave second moments of unclear rank; "
            "the map that repeats is unstable, perhaps only off their "
            "ranges",))

    #: Two processes whose exact trajectories contradict the verdict of
    #: the SVD rank cut: (system, law, steps, W^2 at that step from
    #: covariance I, the verdict the trajectory shows)
    CUT_MISSES = {
        # the cut drops step 1's e2 part, 1e-40, which grows by 4 per step
        "tiny-growing-direction": (
            JumpLinearSystem([np.diag([1.0, 1e-20]), np.diag([0.5, 2.0])]),
            ScheduleSwitching([[1.0, 0.0], [0.0, 1.0]]), 80,
            1e-40 * 4.0**79 + 0.25**79, "unstable"),
        # states 1 and 2 are charged, but only along e1, where mode 2
        # contracts; the rule judges charged chain states whole
        "charged-states-on-a-line": (
            JumpLinearSystem([np.diag([1.0, 0.0]), np.diag([0.5, 2.0]),
                              np.eye(2)]),
            MarkovSwitching([[0, 1, 0], [0, 1, 0], [1, 0, 0]], [0, 0, 1]), 30,
            0.25**29, "stable"),
    }

    @pytest.mark.parametrize("case", CUT_MISSES)
    def test_cut_misses_follow_their_trajectories(self, case):
        sys, law, steps, w2, _ = self.CUT_MISSES[case]
        init = GaussianMixture.from_components([(1.0, np.zeros(2), np.eye(2))])
        for method in ("moment", "gamma", "exact_mog"):
            got = w2_trajectory(sys, law, init, steps, method)[-1].w2
            assert got == pytest.approx(w2, rel=1e-12), method

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="the face comes from an SVD rank cut and "
                              "whole charged chain states, not exact ranges")
    @pytest.mark.parametrize("case", CUT_MISSES)
    def test_cut_misses_read_their_trajectories_verdict(self, case):
        sys, law, _, _, verdict = self.CUT_MISSES[case]
        assert analyze(sys, law).verdict == verdict

    def test_mode_of_weight_zero_takes_no_part(self):
        # 1e170 kron 1e170 overflows, but pi gives it no weight
        sys = scalar_system(1e170, 0.5)
        law = IIDSwitching([0.0, 1.0])
        report = analyze(sys, law)
        assert (report.verdict, report.evidence) == ("stable", 0.25)
        expected = [1.0, 0.25, 0.0625]
        for method in ("moment", "gamma", "exact_mog"):
            got = [r.w2 for r in w2_trajectory(sys, law, point_mass(1.0), 2,
                                               method)]
            assert got == expected, method
        stats = simulate_ensemble(sys, law, point_mass(1.0),
                                  SimConfig(trajectories=16, k_max=2))
        assert stats.mean_sq.tolist() == expected
        report = analyze(sys, ScheduleSwitching([[1.0, 0.0], [0.0, 1.0]]))
        assert (report.verdict, report.evidence) == ("stable", 0.25)

    def test_structured_family_matches_the_growth(self):
        seen = set()
        for sys, law in structured_family(300):
            report, rate = analyze(sys, law), growth(sys, law)
            seen.add(report.notes[0][:24] if report.notes else "")
            if isinstance(law, ScheduleSwitching):
                assert report.verdict != "inconclusive"
            if report.verdict == "stable":
                assert rate < 0
            elif report.verdict == "unstable":
                assert rate > 0
        # the family reaches the whole chain, left-out states and subspaces
        assert seen == {"", "pi0 reaches 1 of 2 chain", "pi0 reaches 1 of 3 "
                        "chain", "pi0 reaches 2 of 3 chain",
                        "the steps before step 2 ", "the steps before step 3 "}

    def test_markov_test_reads_the_whole_chain(self):
        # markov_test's radius is the one analyze's note gives where pi0
        # leaves states out; elsewhere analyze reports the same map
        noted = 0
        for sys, law in structured_family(300):
            if not isinstance(law, MarkovSwitching):
                continue
            report, whole = analyze(sys, law), markov_test(sys, law.P)
            note = report.notes[0] if report.notes else ""
            if note.startswith("pi0 reaches"):
                noted += 1
                assert note.endswith(f" is {format(whole.evidence, '.12g')}")
            else:
                assert report._replace(verdict=whole.verdict,
                                       notes=()) == whole
        assert noted > 0


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
