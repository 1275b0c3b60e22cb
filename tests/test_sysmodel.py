"""Domain-type and validation tests.

Markov marginals are cross-checked against repeated explicit
multiplication.
"""

import inspect
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from jumpstab.matkit import as_matrix
from jumpstab.mcsim import SimConfig, simulate_ensemble
from jumpstab.propagate import gamma_product, w2_trajectory
from jumpstab.stability import analyze, contraction_test, markov_test
from jumpstab.sysmodel import (
    GaussianMixture,
    IIDSwitching,
    JumpLinearSystem,
    MarkovSwitching,
    ScheduleSwitching,
    SequenceSwitching,
    _normalized,
    check_law,
    marginal_schedule,
    validate_system,
)
from jumpstab.wasserstein import gaussian_to_dirac


def two_mode_system():
    return JumpLinearSystem(
        modes=[np.diag([0.5, 0.5]), np.diag([0.1, 0.1])]
    )


def unit_mixture(n=2):
    return GaussianMixture.from_components(
        [(1.0, np.zeros(n), np.eye(n))]
    )


class TestJumpLinearSystem:
    def test_shape_properties(self):
        sys = two_mode_system()
        assert sys.m == 2
        assert sys.n == 2
        assert sys.modes.shape == (2, 2, 2)

    def test_rejects_mismatched_modes(self):
        with pytest.raises(ValueError, match="mode 2"):
            JumpLinearSystem(modes=[np.eye(2), np.eye(3)])

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one"):
            JumpLinearSystem(modes=[])

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="non-finite"):
            JumpLinearSystem(modes=[np.array([[np.nan]])])

    def test_takes_modes_only(self):
        """The modes are the whole system: it holds no mode names."""
        params = inspect.signature(JumpLinearSystem).parameters
        assert list(params) == ["modes"]
        assert not hasattr(JumpLinearSystem([np.eye(2)]), "names")

    def test_modes_read_only(self):
        sys = two_mode_system()
        with pytest.raises(ValueError):
            sys.modes[0, 0, 0] = 9.0


@pytest.mark.parametrize(
    "build, fields",
    [
        (lambda a: IIDSwitching(pi=a["pi"]), {"pi": "pi"}),
        (lambda a: MarkovSwitching(P=a["P"], pi0=a["pi"]),
         {"P": "P", "pi0": "pi"}),
        (lambda a: ScheduleSwitching(vectors=a["P"]), {"vectors": "P"}),
        (lambda a: GaussianMixture(weights=a["w"], means=a["means"],
                                   covs=a["covs"]),
         {"weights": "w", "means": "means", "covs": "covs"}),
    ],
    ids=["iid", "markov", "schedule", "mixture"],
)
def test_constructors_copy_the_callers_arrays(build, fields):
    arrays = {
        "pi": np.array([0.5, 0.5]),
        "P": np.array([[0.9, 0.1], [0.2, 0.8]]),
        "w": np.array([1.0]),
        "means": np.zeros((1, 2)),
        "covs": np.eye(2)[None].copy(),
    }
    kept = {name: arr.copy() for name, arr in arrays.items()}
    obj = build(arrays)
    for name in fields.values():
        arrays[name][...] = 0.25  # the caller may still write its own
    for attr, name in fields.items():
        assert not getattr(obj, attr).flags.writeable
        assert_array_equal(getattr(obj, attr), kept[name])


class TestGaussianMixture:
    def test_from_components_round_trip(self):
        mix = GaussianMixture.from_components(
            [
                (0.25, [1.0, 0.0], np.eye(2)),
                (0.75, [0.0, 1.0], 2 * np.eye(2)),
            ]
        )
        assert mix.q == 2
        assert mix.n == 2
        assert_array_equal(mix.weights, [0.25, 0.75])
        assert_array_equal(mix.means, [[1.0, 0.0], [0.0, 1.0]])
        assert_array_equal(mix.covs, [np.eye(2), 2 * np.eye(2)])

    def test_stacked_constructor(self):
        mix = GaussianMixture(
            weights=[0.5, 0.5],
            means=np.zeros((2, 3)),
            covs=np.stack([np.eye(3), np.eye(3)]),
        )
        assert mix.n == 3

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="inconsistent"):
            GaussianMixture(
                weights=[1.0],
                means=np.zeros((2, 2)),
                covs=np.zeros((2, 2, 2)),
            )

    def test_component_dimension_mismatch(self):
        with pytest.raises(ValueError, match="inconsistent"):
            GaussianMixture.from_components([(1.0, np.zeros(3), np.eye(2))])
        ragged = [(0.5, [0.0, 0.0], np.eye(2)), (0.5, [0.0], np.eye(1))]
        with pytest.raises(ValueError, match="malformed"):
            GaussianMixture.from_components(ragged)
        with pytest.raises(ValueError, match="malformed"):
            GaussianMixture.from_components([(1.0, [0.0])])

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one"):
            GaussianMixture.from_components([])


class TestProbabilityVectors:
    """A law's probability vectors are checked by ``check_law`` and
    normalized by its chain form."""

    def test_valid_passes(self):
        assert check_law(IIDSwitching([0.3, 0.7]), 2) == []

    def test_bad_sum_message(self):
        assert check_law(IIDSwitching([0.6, 0.6]), 2) == [
            "switching pi: probability sum 1.2 != 1"]

    def test_negative_entry(self):
        msgs = check_law(IIDSwitching([-0.2, 1.2]), 2)
        assert any("[0, 1]" in m for m in msgs)

    def test_renormalization_within_tolerance(self):
        v = np.array([0.5, 0.5 + 5e-10])
        assert check_law(IIDSwitching(v), 2) == []
        out = marginal_schedule(IIDSwitching(v), 1)[0]
        assert np.sum(out) == pytest.approx(1.0, abs=1e-15)

    def test_hard_error_beyond_tolerance(self):
        with pytest.raises(ValueError, match="probability sum"):
            analyze(two_mode_system(), IIDSwitching([0.6, 0.6]))


class TestValidateSystem:
    def test_consistent_system_is_clean(self):
        report = validate_system(
            two_mode_system(), IIDSwitching([0.5, 0.5]), unit_mixture()
        )
        assert report.ok
        assert str(report) == "OK"

    def test_bad_probability_sum_reported(self):
        report = validate_system(
            two_mode_system(), IIDSwitching([0.6, 0.6]), unit_mixture()
        )
        assert not report.ok
        assert any("probability sum 1.2 != 1" in v for v in report.violations)

    def test_dimension_mismatch_reported(self):
        report = validate_system(
            two_mode_system(), IIDSwitching([0.5, 0.5]), unit_mixture(n=3)
        )
        assert any("dimension 3" in v for v in report.violations)

    def test_law_length_mismatch(self):
        report = validate_system(
            two_mode_system(), IIDSwitching([1.0]), unit_mixture()
        )
        assert any("length 1" in v for v in report.violations)

    def test_markov_row_violation(self):
        law = MarkovSwitching(
            P=[[0.5, 0.6], [0.5, 0.5]], pi0=[1.0, 0.0]
        )
        report = validate_system(two_mode_system(), law, unit_mixture())
        assert any("row 1" in v for v in report.violations)

    def test_sequence_out_of_range(self):
        report = validate_system(
            two_mode_system(), SequenceSwitching((1, 2, 3)), unit_mixture()
        )
        assert any("outside [1..2]" in v for v in report.violations)

    def test_indefinite_covariance_reported(self):
        mix = GaussianMixture.from_components(
            [(1.0, [0.0, 0.0], np.diag([1.0, -1.0]))]
        )
        report = validate_system(
            two_mode_system(), IIDSwitching([0.5, 0.5]), mix
        )
        assert any("not PSD" in v for v in report.violations)

    def test_large_rank_one_covariance_accepted(self):
        # eigvalsh returns -1.863e-9 for the zero eigenvalue: roundoff at
        # the matrix scale, rejected by an absolute 1e-10 slack
        v = np.array([0.1, 0.7])
        cov = 1e9 * np.outer(v, v)
        assert np.linalg.eigvalsh(cov)[0] < -1e-9
        mix = GaussianMixture.from_components([(1.0, [0.0, 0.0], cov)])
        report = validate_system(
            two_mode_system(), IIDSwitching([0.5, 0.5]), mix
        )
        assert report.ok, report.violations

    @pytest.mark.parametrize(
        "cov, ok",
        [(np.diag([1.0, -2e-10]), False), (np.diag([0.5, -2e-10]), False),
         (np.diag([1e-3, -5e-11]), True), (1e9 * np.diag([1.0, -1e-3]), False)],
        ids=["unit", "below-unit", "small-within-1e-10", "large"],
    )
    def test_slack_scales_only_above_unit(self, cov, ok):
        mix = GaussianMixture.from_components([(1.0, [0.0, 0.0], cov)])
        report = validate_system(
            two_mode_system(), IIDSwitching([0.5, 0.5]), mix
        )
        assert report.ok is ok

    def test_asymmetric_covariance_rejected_by_every_route(self):
        # the analytic routes read the symmetric part, the sampler's
        # Cholesky the lower triangle: neither may run on such a start
        mix = GaussianMixture.from_components(
            [(1.0, [0.0, 0.0], [[1.0, 0.9], [-0.9, 1.0]])]
        )
        law = IIDSwitching([1.0])
        sys = JumpLinearSystem(modes=[[[0.5, 0.5], [0.0, 0.5]]])
        for method in ("moment", "gamma", "exact_mog"):
            with pytest.raises(ValueError, match="not symmetric"):
                w2_trajectory(sys, law, mix, 1, method=method)
        with pytest.raises(ValueError, match="not symmetric"):
            simulate_ensemble(
                sys, law, mix, SimConfig(trajectories=8, k_max=1)
            )

    def test_rounded_product_covariance_accepted(self):
        # F F^T with F = A G, formed as (A (G G^T)) A^T the way a pushed
        # covariance is: its two triangles round differently
        rng = np.random.default_rng(3)
        a, g = rng.standard_normal((2, 5, 5))
        cov = (1e3 * a @ (g @ g.T)) @ (1e3 * a.T)
        assert not np.array_equal(cov, cov.T)
        mix = GaussianMixture.from_components([(1.0, np.zeros(5), cov)])
        sys = JumpLinearSystem(modes=[0.5 * np.eye(5)])
        report = validate_system(sys, IIDSwitching([1.0]), mix)
        assert report.ok, report.violations

    def test_mixture_weight_sum_reported(self):
        mix = GaussianMixture(
            weights=[0.7, 0.7],
            means=np.zeros((2, 2)),
            covs=np.stack([np.eye(2)] * 2),
        )
        report = validate_system(
            two_mode_system(), IIDSwitching([0.5, 0.5]), mix
        )
        assert any("probability sum 1.4" in v for v in report.violations)


class TestMarginalSchedule:
    def test_markov_one_step(self):
        law = MarkovSwitching(
            P=[[0.3, 0.7], [0.7, 0.3]], pi0=[1.0, 0.0]
        )
        out = marginal_schedule(law, 1)
        assert_allclose(out, [[0.3, 0.7]])

    def test_iid_repeats(self):
        out = marginal_schedule(IIDSwitching([0.25, 0.75]), 5)
        assert out.shape == (5, 2)
        assert_allclose(out, np.tile([0.25, 0.75], (5, 1)))

    def test_markov_mixes_to_uniform(self):
        # oracle: repeated explicit multiplication
        p = np.array([[0.3, 0.7], [0.7, 0.3]])
        law = MarkovSwitching(P=p, pi0=[1.0, 0.0])
        out = marginal_schedule(law, 50)
        pi = np.array([1.0, 0.0])
        for k in range(50):
            pi = pi @ p
            assert_allclose(out[k], pi, atol=1e-12)
        assert_allclose(out[-1], [0.5, 0.5], atol=1e-7)

    def test_markov_reads_the_normalized_chain(self):
        # an entry and a row sum within the validation slack of a chain
        p = np.array([[-1e-13, 1.0], [0.3 + 9e-10, 0.7]])
        out = marginal_schedule(MarkovSwitching(P=p, pi0=[0.5, 0.5]), 20)
        oracle = marginal_schedule(
            MarkovSwitching(P=_normalized(p), pi0=[0.5, 0.5]), 20)
        assert_allclose(out, oracle, rtol=1e-15, atol=0)

    def test_schedule_repeats_last(self):
        law = ScheduleSwitching([[1.0, 0.0], [0.0, 1.0]])
        out = marginal_schedule(law, 4)
        assert_allclose(
            out, [[1, 0], [0, 1], [0, 1], [0, 1]], atol=1e-15
        )

    def test_sequence_indicators_cycle(self):
        law = SequenceSwitching((2, 1))
        out = marginal_schedule(law, 5, m=3)
        assert_allclose(
            out,
            [
                [0, 1, 0],
                [1, 0, 0],
                [0, 1, 0],
                [1, 0, 0],
                [0, 1, 0],
            ],
        )

    def test_sequence_requires_m(self):
        with pytest.raises(ValueError, match="m is required"):
            marginal_schedule(SequenceSwitching((1,)), 3)

    def test_rejects_a_non_law_and_a_contradicting_m(self):
        with pytest.raises(TypeError, match="unknown switching law list"):
            marginal_schedule([0.5, 0.5], 3)
        with pytest.raises(ValueError) as caught:
            marginal_schedule(IIDSwitching([0.5, 0.5]), 3, m=3)
        assert str(caught.value) == "m=3 inconsistent with law mode count 2"

    def test_rows_are_probability_vectors(self):
        rng = np.random.default_rng(41)
        p = rng.random((3, 3))
        p /= p.sum(axis=1, keepdims=True)
        law = MarkovSwitching(P=p, pi0=[1.0, 0.0, 0.0])
        out = marginal_schedule(law, 30)
        assert np.all(out >= 0.0)
        assert_allclose(out.sum(axis=1), np.ones(30), atol=1e-9)

    def test_schedule_rows_normalized_once(self):
        # the stored rows are checked once and normalized in one step;
        # each row must equal the vector normalized on its own, bit for bit
        rng = np.random.default_rng(43)
        for m in range(1, 40):
            rows = rng.dirichlet(np.ones(m), size=3)
            rows *= 1.0 - 1e-10 * rng.random((3, 1))  # sums just below 1
            if m > 1:  # a roundoff negative to clamp
                rows[0, 0] += rows[0, -1] + 4e-13
                rows[0, -1] = -4e-13
            out = marginal_schedule(ScheduleSwitching(rows), 5)
            expected = [r / r.sum() for r in np.clip(rows, 0.0, None)]
            assert_array_equal(out, expected + expected[-1:] * 2)
            assert np.all(out >= 0.0)
            assert_allclose(out.sum(axis=1), 1.0, rtol=0, atol=1e-15)

    def test_zero_steps(self):
        out = marginal_schedule(IIDSwitching([1.0]), 0)
        assert out.shape == (0, 1)

    def test_invalid_law_raises(self):
        with pytest.raises(ValueError, match="probability sum"):
            marginal_schedule(IIDSwitching([0.6, 0.6]), 3)

    def test_negative_k_max(self):
        with pytest.raises(ValueError, match="nonnegative"):
            marginal_schedule(IIDSwitching([1.0]), -1)


class TestChainForm:
    LAWS = (
        IIDSwitching([0.25, 0.75]),
        MarkovSwitching(P=[[0.3, 0.7], [0.6, 0.4]], pi0=[0.25, 0.75]),
        ScheduleSwitching([[1.0, 0.0], [0.5, 0.5]]),
        SequenceSwitching((2, 1)),
    )

    @pytest.mark.parametrize("law", LAWS, ids=lambda law: type(law).__name__)
    def test_one_callable_whose_first_step_has_one_row(self, law):
        # every run starts in one state, whatever the law
        pair = law._chain(2)
        assert callable(pair)
        for k in (1, 2, 3, 7):
            mix, weights = pair(k)
            states = 2 if isinstance(law, MarkovSwitching) else 1
            assert mix.shape == (1 if k == 1 else states, 2)
            assert weights.shape == (states, 2)
            # from each state, the law of the step's mode
            assert_allclose((mix * weights.sum(axis=0)).sum(axis=1), 1.0,
                            rtol=0, atol=1e-15)

    def test_markov_pairs(self):
        law = MarkovSwitching(P=[[0.5, 0.5], [0.25, 0.75]], pi0=[0.5, 0.5])
        pair = law._chain(2)
        # pi0 P, the law of step 1's mode, is the one start state's row
        assert_array_equal(pair(1)[0], [[0.375, 0.625]])
        assert_array_equal(pair(1)[1], np.eye(2))
        assert_array_equal(pair(2)[0], [[0.5, 0.5], [0.25, 0.75]])
        assert_array_equal(pair(2)[1], np.eye(2))
        # from step 2 on one pair, whose links the exact route reads once
        assert pair(3) is pair(2) and pair(50) is pair(2)

    def test_markov_start_row_is_not_normalized_again(self):
        # the row is pi0 P of the normalized pair, left for the marginals
        # to normalize once
        rng = np.random.default_rng(5)
        moved = 0
        for _ in range(20):
            p, pi0 = rng.dirichlet(np.ones(3), 3), rng.dirichlet(np.ones(3))
            mix = MarkovSwitching(P=p, pi0=pi0)._chain(3)(1)[0]
            row = _normalized(pi0) @ _normalized(p)
            assert_array_equal(mix, row[None])
            moved += not np.array_equal(row, _normalized(row))
        assert moved  # normalizing the row again would change its bits

    def test_iid_steps_are_one_pair(self):
        pair = IIDSwitching([0.25, 0.75])._chain(2)
        assert pair(1) is pair(2) is pair(9)
        assert_array_equal(pair(1)[0], np.ones((1, 2)))
        assert_array_equal(pair(1)[1], [[0.25, 0.75]])


class TestLawModeCount:
    def test_counts(self):
        assert IIDSwitching([0.5, 0.5]).m == 2
        assert MarkovSwitching(P=np.eye(3), pi0=[1, 0, 0]).m == 3
        assert ScheduleSwitching([[1.0, 0.0]]).m == 2
        assert SequenceSwitching((1, 2)).m is None

    def test_markov_start_must_match_P(self):
        with pytest.raises(ValueError) as caught:
            MarkovSwitching(np.eye(2), [1.0])
        assert str(caught.value) == "pi0 has length 1, P is 2x2"


class TestSequenceSwitching:
    def test_rejects_non_integer(self):
        with pytest.raises(ValueError, match="integers"):
            SequenceSwitching((1.5, 2))

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="nonempty"):
            SequenceSwitching(())

    def test_accepts_integral_floats(self):
        law = SequenceSwitching((1.0, 2.0))
        assert law.indices == (1, 2)


SCALAR = JumpLinearSystem(modes=[[[2.0]], [[0.25]]])
HALVES = IIDSwitching([0.5, 0.5])
GROW_DROP = SequenceSwitching((1, 2))

#: every integer argument, as a call of its value alone that returns
#: plain values
INTEGER_ARGUMENTS = {
    "marginal_schedule.k_max":
        lambda v: marginal_schedule(HALVES, v).tolist(),
    "marginal_schedule.m":
        lambda v: marginal_schedule(GROW_DROP, 3, m=v).tolist(),
    "w2_trajectory.k_max":
        lambda v: [(rec.k, rec.w2) for rec in
                   w2_trajectory(SCALAR, HALVES, unit_mixture(1), v)],
    "w2_trajectory.cap":
        lambda v: [rec.component_count for rec in w2_trajectory(
            SCALAR, HALVES, unit_mixture(1), 1, "exact_mog", cap=v)],
    "gamma_product.k":
        lambda v: gamma_product(SCALAR, HALVES, v).gamma.tolist(),
    "contraction_test.k_max":
        lambda v: contraction_test(SCALAR, GROW_DROP, v).horizon_used,
    "analyze.horizon":
        lambda v: analyze(SCALAR, GROW_DROP, horizon=v).horizon_used,
    "SimConfig.trajectories": lambda v: SimConfig(v, 1).trajectories,
    "SimConfig.k_max": lambda v: SimConfig(1, v).k_max,
    "SimConfig.seed": lambda v: SimConfig(1, 1, seed=v).seed,
    "SequenceSwitching.indices": lambda v: SequenceSwitching((1, v)).indices,
}


@pytest.mark.parametrize("call", INTEGER_ARGUMENTS.values(),
                         ids=INTEGER_ARGUMENTS)
@pytest.mark.parametrize("value", [2.5, "2", True],
                         ids=["fraction", "string", "bool"])
def test_integer_arguments_reject_other_values(call, value):
    """No integer argument is truncated or parsed from a string."""
    with pytest.raises(ValueError, match="integer"):
        call(value)


@pytest.mark.parametrize("call", INTEGER_ARGUMENTS.values(),
                         ids=INTEGER_ARGUMENTS)
def test_integer_arguments_accept_integral_values(call):
    assert call(2.0) == call(np.int64(2)) == call(2)


#: the lower bound of each bounded integer argument above
INTEGER_BOUNDS = {
    "marginal_schedule.k_max": 0, "w2_trajectory.k_max": 0,
    "w2_trajectory.cap": 1, "gamma_product.k": 0,
    "contraction_test.k_max": 1, "analyze.horizon": 1,
    "SimConfig.trajectories": 1, "SimConfig.k_max": 0,
}


@pytest.mark.parametrize("name, low", INTEGER_BOUNDS.items(),
                         ids=INTEGER_BOUNDS)
def test_integer_arguments_below_their_bound_rejected(name, low):
    """Every bound is worded one way: "nonnegative" for 0, else ">= low"."""
    rule = "nonnegative" if low == 0 else f">= {low}"
    for value in (low - 1, float(low - 1), np.int64(low - 5)):
        with pytest.raises(ValueError) as info:
            INTEGER_ARGUMENTS[name](value)
        assert str(info.value) == (
            f"{name.split('.')[1]} must be {rule}, got {int(value)}")


def nested(value, depth):
    """``value`` inside ``depth`` one-entry lists."""
    for _ in range(depth):
        value = [value]
    return value


#: every array argument of a public entry: a call of the argument alone,
#: the argument's number of dimensions and its name in messages
ARRAY_ARGUMENTS = {
    "as_matrix": (as_matrix, 2, "matrix"),
    "JumpLinearSystem.modes": (lambda a: JumpLinearSystem([a]), 2, "mode 1"),
    "IIDSwitching.pi": (IIDSwitching, 1, "pi"),
    "MarkovSwitching.P": (lambda a: MarkovSwitching(a, [1.0]), 2, "P"),
    "MarkovSwitching.pi0": (lambda a: MarkovSwitching([[1.0]], a), 1, "pi0"),
    "ScheduleSwitching.vectors": (ScheduleSwitching, 2, "schedule"),
    "GaussianMixture.weights": (
        lambda a: GaussianMixture(a, [[0.0]], [[[1.0]]]), 1,
        "mixture weights"),
    "GaussianMixture.means":
        (lambda a: GaussianMixture([1.0], a, [[[1.0]]]), 2, "means"),
    "GaussianMixture.covs":
        (lambda a: GaussianMixture([1.0], [[0.0]], a), 3, "covs"),
    "GaussianMixture.from_components": (
        lambda a: GaussianMixture.from_components([(1.0, a, [[1.0]])]), 1,
        "means"),
    "markov_test.P":
        (lambda a: markov_test(JumpLinearSystem([[[0.5]]]), a), 2, "P"),
    "gaussian_to_dirac.mean":
        (lambda a: gaussian_to_dirac(a, [[1.0]]), 1, "mean"),
}


def with_entry(argument, value):
    """Call an ``ARRAY_ARGUMENTS`` entry on its argument of one entry."""
    call, ndim, _ = argument
    return call(nested(value, ndim))


@pytest.mark.parametrize("argument", ARRAY_ARGUMENTS.values(),
                         ids=ARRAY_ARGUMENTS)
@pytest.mark.parametrize("value", ["1", True], ids=["string", "bool"])
def test_array_arguments_reject_strings_and_bools(argument, value):
    """No array argument reads a string or a bool as a number."""
    with pytest.raises(ValueError, match="must hold ints or floats"):
        with_entry(argument, value)


@pytest.mark.parametrize("argument", ARRAY_ARGUMENTS.values(),
                         ids=ARRAY_ARGUMENTS)
@pytest.mark.parametrize("value", [1, 1.0, np.float32(1), Fraction(1),
                                   Decimal(1)],
                         ids=["int", "float", "float32", "fraction",
                              "decimal"])
def test_array_arguments_accept_numbers(argument, value):
    with_entry(argument, value)


#: each other violation of the array rule, as (argument of ndim
#: dimensions, the rule's wording after the argument's name)
ARRAY_VIOLATIONS = {
    "empty": (lambda ndim: nested([], ndim - 1),
              r"must be nonempty, got shape \("),
    "ndim": (lambda ndim: nested(1.0, ndim + 1),
             r"must be \d-D, got ndim=\d$"),
    "nan": (lambda ndim: nested(np.nan, ndim), "contains non-finite entries$"),
    "inf": (lambda ndim: nested(np.inf, ndim), "contains non-finite entries$"),
}


@pytest.mark.parametrize("key", ARRAY_ARGUMENTS)
@pytest.mark.parametrize("violation", ARRAY_VIOLATIONS)
def test_array_arguments_reject_by_one_rule(key, violation):
    """Every array argument words each violation one way, naming itself;
    ``gaussian_to_dirac`` flattens a mean of any number of dimensions."""
    call, ndim, name = ARRAY_ARGUMENTS[key]
    bad, rule = ARRAY_VIOLATIONS[violation]
    if key == "gaussian_to_dirac.mean" and violation == "ndim":
        assert call(bad(ndim)) == call([1.0])
        return
    with pytest.raises(ValueError, match=rf"^{name} {rule}"):
        call(bad(ndim))


#: the array arguments above that can hold two entries, as a call that
#: puts the value beside the float 0.5 and is valid for 0.5 itself
PAIRED_ARGUMENTS = {
    "as_matrix": lambda v: as_matrix([[v, 0.5]]),
    "JumpLinearSystem.modes":
        lambda v: JumpLinearSystem([[[v, 0.5], [0.0, 1.0]]]),
    "IIDSwitching.pi": lambda v: IIDSwitching([v, 0.5]),
    "MarkovSwitching.P":
        lambda v: MarkovSwitching([[v, 0.5], [0.5, 0.5]], [0.5, 0.5]),
    "MarkovSwitching.pi0": lambda v: MarkovSwitching(np.eye(2), [v, 0.5]),
    "ScheduleSwitching.vectors": lambda v: ScheduleSwitching([[v, 0.5]]),
    "GaussianMixture.weights":
        lambda v: GaussianMixture([v, 0.5], [[0.0], [0.0]],
                                  [[[1.0]], [[1.0]]]),
    "GaussianMixture.means":
        lambda v: GaussianMixture([1.0], [[v, 0.5]], [np.eye(2)]),
    "GaussianMixture.covs":
        lambda v: GaussianMixture([1.0], [[0.0, 0.0]],
                                  [[[v, 0.5], [0.5, 1.0]]]),
    "GaussianMixture.from_components":
        lambda v: GaussianMixture.from_components(
            [(1.0, [v, 0.5], np.eye(2))]),
    "markov_test.P":
        lambda v: markov_test(JumpLinearSystem([[[0.5]], [[0.5]]]),
                              [[v, 0.5], [0.5, 0.5]]),
    "gaussian_to_dirac.mean": lambda v: gaussian_to_dirac([v, 0.5], np.eye(2)),
}


@pytest.mark.parametrize("call", PAIRED_ARGUMENTS.values(),
                         ids=PAIRED_ARGUMENTS)
@pytest.mark.parametrize("value", [True, np.True_],
                         ids=["bool", "numpy-bool"])
def test_array_arguments_reject_a_bool_among_numbers(call, value):
    """numpy reads [True, 0.5] as the floats [1.0, 0.5]: the entries of a
    list are checked one by one."""
    call(0.5)
    with pytest.raises(ValueError, match="must hold ints or floats"):
        call(value)


def test_array_entries_numpy_keeps_as_objects():
    """Ints beyond int64 are read as floats; a bool or a string among
    them is still refused."""
    assert_array_equal(IIDSwitching([1, 2**70]).pi, [1.0, 2.0**70])
    for entries in ([True, 2**70], [Fraction(1, 2), "0.5"], [None]):
        with pytest.raises(ValueError, match="got dtype object"):
            IIDSwitching(entries)
