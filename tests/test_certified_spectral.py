"""The certified route of the spectral tests.

iid_test and markov_test run restarted Arnoldi on the second-moment map
T(Q)_i = A_i (sum_j P_ji Q_j) A_i^T and read the verdict from a positive
definite X with T(X) < (1 - margin) X (stable) or T(X) > (1 + margin) X
(unstable). These tests hold the evidence and verdict to the dense
eigensolve of the lift's symmetric block, re-check every certificate
with a Cholesky of their own against a lift built inline with np.kron,
and pin the cases that must fall back to the dense block.
"""

import numpy as np
import pytest

from jumpstab import stability
from jumpstab.matkit import spectral_radius
from jumpstab.propagate import _moment_map, _sym_lifts
from jumpstab.stability import (
    DEFAULT_MARGIN,
    analyze,
    general_test,
    iid_test,
    markov_test,
)
from jumpstab.sysmodel import (
    IIDSwitching,
    JumpLinearSystem,
    MarkovSwitching,
    ScheduleSwitching,
    marginal_schedule,
)
from reference import lifted_step_matrix

CERTIFIED = ("stable", "unstable")


def rotating_modes(rng, n, m):
    """Random modes, each with a complex eigenpair."""
    mats = []
    for _ in range(m):
        a = rng.standard_normal((n, n)) / np.sqrt(n)
        t = rng.uniform(0.3, 2.8)
        a[:2, :2] += [[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]]
        mats.append(a)
    return mats


def dense_radius(sys, kind, w):
    """rho of the symmetric block of the lift, by the dense eigensolver."""
    sym = _sym_lifts(sys)
    if kind == "iid":
        return spectral_radius(np.tensordot(np.asarray(w, float), sym, 1))
    size = sys.m * sym.shape[1]
    lift = np.einsum("ji,iab->iajb", np.asarray(w, float), sym)
    return spectral_radius(lift.reshape(size, size))


def run(sys, kind, w, margin=DEFAULT_MARGIN):
    if kind == "iid":
        return iid_test(sys, w, margin)
    return markov_test(sys, w, margin)


def scaled(mats, kind, w, target):
    """The modes scaled so that the spectral radius is target (rho scales
    as c^2 when every mode is scaled by c)."""
    rho = dense_radius(JumpLinearSystem(modes=mats), kind, w)
    c = np.sqrt(target / rho)
    return JumpLinearSystem(modes=[c * a for a in mats])


def kron_map(sys, kind, w, x):
    """T(X) on an (s, n, n) stack through the n^2 x n^2 lifts A kron A."""
    n, w = sys.n, np.asarray(w, float)
    pushed = [
        (np.kron(a, a) @ xi.reshape(-1)).reshape(n, n)
        for a, xi in zip(sys.modes, _mixed(kind, w, x))
    ]
    if kind == "iid":
        return sum(p * t for p, t in zip(w, pushed))[None]
    return np.array(pushed)


def _mixed(kind, w, x):
    if kind == "iid":
        return [x[0]] * len(w)
    return np.einsum("ji,jab->iab", w, x)


def check_certificate(sys, kind, w, margin, report):
    """Re-derive X and verify the returned certificate by Cholesky."""
    mix, weights = (
        (np.ones((1, sys.m)), np.asarray(w, float)[None]) if kind == "iid"
        else (np.asarray(w, float), np.eye(sys.m))
    )
    certificate, evidence, x, used = stability._certified_radius(
        _moment_map(sys.modes, mix, weights), mix.shape[0], sys.n, margin
    )
    assert (certificate, used) == (report.certificate, report.applications)
    # iid_test renormalizes pi, which may move the last bits
    assert evidence == pytest.approx(report.evidence, rel=1e-13)
    tx = kron_map(sys, kind, w, x)
    gap = (1 - margin) * x - tx if certificate == "stable" \
        else tx - (1 + margin) * x
    for mat in (*x, *gap):
        np.linalg.cholesky((mat + mat.T) / 2)


#: (n, m, kind): every n in {2, 4, 8, 16} with every m in 1..4, both laws
PROPERTY = [(n, m, kind) for n in (2, 4, 8, 16) for m in (1, 2, 3, 4)
            for kind in ("iid", "markov")]


@pytest.mark.parametrize("n, m, kind", PROPERTY)
def test_matches_dense_and_every_certificate_verifies(n, m, kind):
    rng = np.random.default_rng(1000 * n + 10 * m + (kind == "markov"))
    certified = 0
    for target in (0.37, 0.93, 1.08, 2.6):
        mats = rotating_modes(rng, n, m)
        if kind == "iid":
            w = rng.dirichlet(np.ones(m))
        else:
            w = rng.dirichlet(np.ones(m) * 0.7, size=m)
            assert m == 1 or not np.allclose(w, w.T)
        sys = scaled(mats, kind, w, target)
        report = run(sys, kind, w)
        dense = dense_radius(sys, kind, w)
        assert report.evidence == pytest.approx(dense, rel=1e-10)
        assert report.verdict == ("stable" if target < 1 else "unstable")
        assert report.verdict == stability._spectral_verdict(
            dense, DEFAULT_MARGIN)
        if report.certificate in CERTIFIED:
            certified += 1
            check_certificate(sys, kind, w, DEFAULT_MARGIN, report)
        else:
            assert report.certificate.startswith("dense fallback: ")
    # one mode has a singular Perron vector beyond n = 2 (v v^T, or
    # Re v v^* for a complex pair v), so only the dense block can answer
    if m > 1:
        assert certified == 4
    elif n > 2:
        assert certified == 0


def rotation(t, r):
    return r * np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])


SHIFT = np.eye(4)[[1, 2, 3, 0]]
RNG = np.random.default_rng(2024)


@pytest.mark.parametrize(
    "modes, kind, w",
    [
        ([rotation(0.7, 0.9), rotation(2.0, 1.05)], "iid", [0.5, 0.5]),
        ([0.9 * SHIFT, 0.95 * SHIFT.T], "iid", [0.3, 0.7]),
        ([0.9 * SHIFT, 1.1 * np.eye(4), 0.8 * SHIFT.T], "markov",
         np.eye(3)[[1, 2, 0]]),
        ([rotation(0.3, 0.9), rotation(1.0, 1.2), rotation(2.0, 1.3)],
         "markov", np.eye(3)[[1, 2, 0]]),
    ],
    ids=["iid-rotations", "iid-permutations", "markov-cyclic-permutations",
         "markov-cyclic-rotations"],
)
def test_peripheral_spectra(modes, kind, w):
    """Rotations and permutations put eigenvalues of T other than rho on
    the circle of radius rho. Arnoldi needs no gap there, and the Perron
    vector is definite, so the dense verdict is certified."""
    sys = JumpLinearSystem(modes=modes)
    report = run(sys, kind, w)
    dense = dense_radius(sys, kind, w)
    assert report.evidence == pytest.approx(dense, rel=1e-10)
    assert report.verdict == stability._spectral_verdict(dense, DEFAULT_MARGIN)
    assert report.certificate in CERTIFIED
    check_certificate(sys, kind, w, DEFAULT_MARGIN, report)


@pytest.mark.parametrize(
    "modes, kind, w",
    [
        ([RNG.standard_normal((3, 3)) for _ in range(3)], "markov", np.eye(3)),
        ([np.zeros((3, 3)), RNG.standard_normal((3, 3))], "markov",
         [[0.5, 0.5], [0.3, 0.7]]),
        ([np.outer(RNG.standard_normal(4), RNG.standard_normal(4))
          for _ in range(2)], "iid", [0.5, 0.5]),
        ([np.outer(RNG.standard_normal(4), RNG.standard_normal(4))
          for _ in range(2)], "markov", [[0.2, 0.8], [0.6, 0.4]]),
    ],
    ids=["reducible-chain", "zero-mode", "rank-one-iid", "rank-one-markov"],
)
def test_singular_perron_vector_falls_back(modes, kind, w):
    """A reducible chain, a zero mode's state and rank-one modes leave the
    Perron vector singular: no X > 0 certifies, the dense block answers."""
    sys = JumpLinearSystem(modes=modes)
    report = run(sys, kind, w)
    assert report.certificate == \
        "dense fallback: certificate not positive definite"
    assert report.applications > 0
    dense = dense_radius(sys, kind, w)
    assert report.evidence == pytest.approx(dense, rel=1e-14)
    assert report.verdict == stability._spectral_verdict(dense, DEFAULT_MARGIN)


def test_zero_modes_certify_zero_radius():
    report = iid_test(JumpLinearSystem(modes=[np.zeros((3, 3))] * 2),
                      [0.4, 0.6])
    assert (report.verdict, report.evidence, report.certificate) == (
        "stable", 0.0, "stable")


@pytest.mark.parametrize("kind", ["iid", "markov"])
@pytest.mark.parametrize(
    "offset, verdict",
    [(-5e-10, "marginal"), (0.0, "marginal"), (5e-10, "marginal"),
     (-3e-9, "stable"), (3e-9, "unstable")],
)
def test_near_one_is_marginal_never_the_wrong_side(kind, offset, verdict):
    rng = np.random.default_rng(77)
    w = [0.3, 0.2, 0.5] if kind == "iid" else rng.dirichlet(np.ones(3), 3)
    sys = scaled(rotating_modes(rng, 4, 3), kind, w, 1.0 + offset)
    report = run(sys, kind, w)
    assert report.verdict == verdict
    if verdict == "marginal":
        assert report.certificate == "dense fallback: marginal band"
    elif report.certificate in CERTIFIED:
        check_certificate(sys, kind, w, DEFAULT_MARGIN, report)


def test_no_convergence_falls_back(monkeypatch):
    monkeypatch.setattr(stability, "_RESTARTS", 0)
    sys = JumpLinearSystem(modes=[np.diag([0.5, 0.2]), np.eye(2)])
    report = iid_test(sys, [0.5, 0.5])
    assert report.certificate == "dense fallback: no convergence in 0 " \
        "Arnoldi cycles"
    assert report.applications == 0
    assert report.evidence == pytest.approx(0.625, rel=1e-14)


class TestMargin:
    SYS = JumpLinearSystem(modes=[[[1.2]], [[0.1]]])
    P = [[0.9, 0.1], [0.1, 0.9]]

    @pytest.mark.parametrize("margin", [-1.0, -1e-12, 1.0, 2.0, np.nan,
                                        np.inf, -np.inf])
    @pytest.mark.parametrize("law", [
        IIDSwitching([0.5, 0.5]),
        MarkovSwitching(P, [0.5, 0.5]),
        ScheduleSwitching([[0.5, 0.5]]),
    ], ids=["iid", "markov", "schedule"])
    def test_out_of_range_rejected(self, law, margin):
        with pytest.raises(ValueError, match=r"margin must be finite and "
                                             r"in \[0, 1\)"):
            analyze(self.SYS, law, margin=margin)

    @pytest.mark.parametrize("margin", ["0.1", False, True, np.bool_(False),
                                        None, [0.1], 0.1j],
                             ids=["str", "False", "True", "np-bool", "None",
                                  "list", "complex"])
    def test_non_numbers_rejected(self, margin):
        with pytest.raises(ValueError) as exc:
            analyze(self.SYS, IIDSwitching([0.5, 0.5]), margin=margin)
        assert str(exc.value) == f"margin must be a real number, got {margin!r}"

    @pytest.mark.parametrize("margin", [0, 0.25, np.float32(0.25), np.int64(0)])
    def test_real_numbers_accepted(self, margin):
        report = analyze(self.SYS, IIDSwitching([0.5, 0.5]), margin=margin)
        assert report.verdict == "stable"

    @pytest.mark.parametrize("margin", [-1.0, np.nan, 1.0])
    def test_spectral_tests_reject_too(self, margin):
        with pytest.raises(ValueError, match="margin"):
            iid_test(self.SYS, [0.5, 0.5], margin)
        with pytest.raises(ValueError, match="margin"):
            markov_test(self.SYS, self.P, margin)

    @pytest.mark.parametrize("margin, verdict", [
        (0.0, "unstable"), (0.25, "unstable"), (0.4, "marginal"),
    ])
    def test_in_range_accepted(self, margin, verdict):
        report = analyze(self.SYS, MarkovSwitching(self.P, [0.5, 0.5]),
                         margin=margin)
        assert report.evidence == pytest.approx(1.29611187839, rel=1e-10)
        assert report.verdict == verdict


def test_schedule_report_carries_a_certificate():
    sys = JumpLinearSystem(modes=[[[0.5]]])
    report = analyze(sys, ScheduleSwitching([[1.0]]))
    assert report.certificate == "stable"
    assert report.applications > 0


#: (n, m): every n in 1..4 with every m in 1..3
SCHEDULES = [(n, m) for n in (1, 2, 3, 4) for m in (1, 2, 3)]


@pytest.mark.parametrize("n, m", SCHEDULES)
def test_schedule_verdict_is_the_last_row_radius(n, m):
    """Random schedules of 1 to 6 rows: verdict and evidence are those of
    the n^2 lift of the last row, and every certificate verifies."""
    rng = np.random.default_rng([n, m])
    for _ in range(25):
        rows = rng.dirichlet(np.ones(m), size=int(rng.integers(1, 7)))
        mats = rotating_modes(rng, n, m) if n > 1 else \
            list(rng.standard_normal((m, 1, 1)))
        sys = scaled(mats, "iid", rows[-1], rng.uniform(0.2, 3.0))
        law = ScheduleSwitching(rows)
        report = general_test(sys, law)
        last = marginal_schedule(law, len(rows))[-1]
        rho = max(abs(np.linalg.eigvals(lifted_step_matrix(sys, last))))
        assert report.evidence == pytest.approx(rho, rel=1e-9)
        assert report.verdict == stability._spectral_verdict(
            rho, DEFAULT_MARGIN)
        assert report.horizon_used == len(rows)
        if report.certificate in CERTIFIED:
            check_certificate(sys, "iid", last, DEFAULT_MARGIN, report)
        else:
            assert report.certificate.startswith("dense fallback: ")
