"""The certified route of the spectral tests.

analyze and markov_test run restarted Arnoldi on the second-moment map
T(Q)_i = A_i (sum_j P_ji Q_j) A_i^T and read the verdict from a positive
definite X with T(X) < (1 - margin) X (stable) or T(X) > (1 + margin) X
(unstable). These tests hold the evidence and verdict to the dense
eigensolve of the lift's symmetric block, re-check the X that each
verdict's proof hands back by Cholesky, against the map rebuilt from the
proof alone and against a lift built inline with np.kron, and pin the
cases that must fall back to the dense block.
"""

import collections

import numpy as np
import pytest

from jumpstab import stability
from jumpstab.matkit import NumericalError, spectral_radius
from jumpstab.moments import _moment_map
from jumpstab.stability import (
    DEFAULT_HORIZON,
    DEFAULT_MARGIN,
    analyze,
    markov_test,
)
from jumpstab.sysmodel import (
    IIDSwitching,
    JumpLinearSystem,
    MarkovSwitching,
    ScheduleSwitching,
    SequenceSwitching,
    marginal_schedule,
)
from reference import lifted_step_matrix, structured_family, sym_lifts

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
    sym = sym_lifts(sys.modes)
    if kind == "iid":
        return spectral_radius(np.tensordot(np.asarray(w, float), sym, 1))
    size = sys.m * sym.shape[1]
    lift = np.einsum("ji,iab->iajb", np.asarray(w, float), sym)
    return spectral_radius(lift.reshape(size, size))


def run(sys, kind, w, margin=DEFAULT_MARGIN):
    """The report of ``analyze`` on the IID law w, or of ``markov_test``
    on the chain w, and the proof that the verdict's own path returned."""
    if kind == "iid":
        report, proof = stability._judge(sys, IIDSwitching(w), margin,
                                         DEFAULT_HORIZON)
        assert report == analyze(sys, IIDSwitching(w), margin)
        return report, proof
    law = MarkovSwitching(w, np.eye(len(w))[0])
    _, report, proof = stability._whole(sys, law, margin)
    assert report == markov_test(sys, w, margin)
    return report, proof


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


def check_proof(report, proof, margin=DEFAULT_MARGIN):
    """Re-check a verdict's proof by Cholesky, from the proof alone: X and
    the gap on the map ``_moment_map`` rebuilds from the proof's modes,
    mix and weights, each definite by the slack of the certified route.
    A verdict that no certificate of its own kind backs has no proof; so
    has the stable zero face, whose certificate is the whole map's."""
    if proof is None:
        assert report.certificate != report.verdict or \
            "map every second moment to 0" in report.notes[0]
        return
    assert proof.kind == report.verdict == report.certificate
    x, n = proof.x, proof.x.shape[-1]
    tx = _moment_map(proof.modes, proof.mix, proof.weights)(x)
    gap = (1 - margin) * x - tx if proof.kind == "stable" \
        else tx - (1 + margin) * x
    slack = stability._CERT_SLACK * n * max(np.abs(x).max(),
                                            np.abs(tx).max())
    for mat in (*x, *gap):
        np.linalg.cholesky(mat - slack * np.eye(n))


def check_certificate(sys, kind, w, margin, report, proof):
    """Check the proof, then its X against the map built with np.kron
    from the system and w alone."""
    check_proof(report, proof, margin)
    x = proof.x
    tx = kron_map(sys, kind, w, x)
    gap = (1 - margin) * x - tx if proof.kind == "stable" \
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
        report, proof = run(sys, kind, w)
        dense = dense_radius(sys, kind, w)
        assert report.evidence == pytest.approx(dense, rel=1e-10)
        assert report.verdict == ("stable" if target < 1 else "unstable")
        assert report.verdict == stability._spectral_verdict(
            dense, DEFAULT_MARGIN)
        if report.certificate in CERTIFIED:
            certified += 1
            check_certificate(sys, kind, w, DEFAULT_MARGIN, report, proof)
        else:
            assert report.certificate.startswith("dense fallback: ")
            check_proof(report, proof)
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
    report, proof = run(sys, kind, w)
    dense = dense_radius(sys, kind, w)
    assert report.evidence == pytest.approx(dense, rel=1e-10)
    assert report.verdict == stability._spectral_verdict(dense, DEFAULT_MARGIN)
    assert report.certificate in CERTIFIED
    check_certificate(sys, kind, w, DEFAULT_MARGIN, report, proof)


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
    report, proof = run(sys, kind, w)
    assert report.certificate == \
        "dense fallback: certificate not positive definite"
    assert proof is None
    assert report.applications > 0
    dense = dense_radius(sys, kind, w)
    assert report.evidence == pytest.approx(dense, rel=1e-14)
    assert report.verdict == stability._spectral_verdict(dense, DEFAULT_MARGIN)


def test_zero_modes_certify_zero_radius():
    report = analyze(JumpLinearSystem(modes=[np.zeros((3, 3))] * 2),
                     IIDSwitching([0.4, 0.6]))
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
    report, proof = run(sys, kind, w)
    assert report.verdict == verdict
    if verdict == "marginal":
        assert report.certificate == "dense fallback: marginal band"
        assert proof is None
    elif report.certificate in CERTIFIED:
        check_certificate(sys, kind, w, DEFAULT_MARGIN, report, proof)


def test_no_convergence_falls_back(monkeypatch):
    monkeypatch.setattr(stability, "_RESTARTS", 0)
    sys = JumpLinearSystem(modes=[np.diag([0.5, 0.2]), np.eye(2)])
    report = analyze(sys, IIDSwitching([0.5, 0.5]))
    assert report.certificate == "dense fallback: no convergence in 0 " \
        "Arnoldi cycles"
    assert report.applications == 0
    assert report.evidence == pytest.approx(0.625, rel=1e-14)


def test_no_real_ritz_value_falls_back(monkeypatch):
    """A Hessenberg matrix whose Ritz values are one complex pair leaves
    no Perron candidate: the dense fallback answers."""
    pair = np.array([0.5 + 0.1j, 0.5 - 0.1j]), np.eye(2, dtype=complex)
    monkeypatch.setattr(np.linalg, "eig", lambda hess: pair)
    modes, one = np.diag([0.5, 0.2])[None], np.ones((1, 1))
    certificate, evidence, x, _ = stability._certified_radius(
        _moment_map(modes, one, one), 1, 2, DEFAULT_MARGIN)
    assert (certificate, evidence, x) == (
        "dense fallback: no real Ritz value", None, None)
    report = analyze(JumpLinearSystem(modes=modes), IIDSwitching([1.0]))
    assert report.certificate == "dense fallback: no real Ritz value"
    assert report.evidence == pytest.approx(0.25, rel=1e-14)


def test_dense_fallback_stops_where_the_map_is_not_finite(monkeypatch):
    """Without an Arnoldi cycle the fallback reads the map's matrix, whose
    entries of 1e400 stop it with the spectral test's one error."""
    monkeypatch.setattr(stability, "_RESTARTS", 0)
    sys = JumpLinearSystem(modes=[[[1e200, 1e200], [0.0, 1e200]]])
    with pytest.raises(NumericalError) as exc:
        analyze(sys, IIDSwitching([1.0]))
    assert str(exc.value) == "second moment diverged (an entry is not finite)"


#: A nilpotent mode whose largest entry squares to 1.15e308, just under
#: float64's top: its map stays finite, products of its images do not
NEAR_THE_TOP = [[0.0, 1.6 * 2.0**511], [0.0, 0.0]]


@pytest.mark.parametrize("modes, pi, evidence", [
    ([NEAR_THE_TOP], [1.0], 0.0),
    ([NEAR_THE_TOP, 0.5 * np.eye(2)], [0.5, 0.5], 0.125),
], ids=["alone", "beside-half-I"])
def test_map_near_the_float64_top_is_judged(modes, pi, evidence):
    """Arnoldi's inner products may pass float64 where the map does not;
    the Cholesky check still decides, and the fallback reads the map's
    finite matrix: no warning, and the verdict rho(T) gives."""
    report = analyze(JumpLinearSystem(modes=modes), IIDSwitching(pi))
    assert report.verdict == "stable"
    assert report.evidence == pytest.approx(evidence, rel=1e-12)


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
        report, proof = stability._judge(sys, law, DEFAULT_MARGIN,
                                         DEFAULT_HORIZON)
        assert report == analyze(sys, law)
        last = marginal_schedule(law, len(rows))[-1]
        rho = max(abs(np.linalg.eigvals(lifted_step_matrix(sys, last))))
        assert report.evidence == pytest.approx(rho, rel=1e-9)
        assert report.verdict == stability._spectral_verdict(
            rho, DEFAULT_MARGIN)
        assert report.horizon_used == len(rows)
        if report.certificate in CERTIFIED:
            check_certificate(sys, "iid", last, DEFAULT_MARGIN, report,
                              proof)
        else:
            assert report.certificate.startswith("dense fallback: ")
            check_proof(report, proof)


def test_every_structured_family_proof_rechecks():
    """Every verdict of the structured family, from ``analyze`` and from
    ``markov_test``, against its proof: whole maps, one-state faces and
    the charged chain states each hand back an X that the rebuilt map
    certifies, and no other verdict hands back one."""
    seen = collections.Counter()
    for sys, law in structured_family(300):
        report, proof = stability._judge(sys, law, DEFAULT_MARGIN,
                                         DEFAULT_HORIZON)
        assert report == analyze(sys, law)
        check_proof(report, proof)
        states = len(law._chain(sys.m)(law._settle)[1])
        seen["none" if proof is None else "face" if proof.bases else
             "whole" if len(proof.mix) == states else "kept states"] += 1
        if isinstance(law, MarkovSwitching):
            _, whole, proof = stability._whole(sys, law, DEFAULT_MARGIN)
            assert whole == markov_test(sys, law.P)
            check_proof(whole, proof)
            seen["chain" if proof else "none"] += 1
    assert set(seen) == {"none", "face", "whole", "kept states", "chain"}


@pytest.mark.parametrize("modes, law, verdict, certificate", [
    ([[[3.0]], [[0.0]]],
     ScheduleSwitching([[0.5, 0.5], [0.0, 1.0], [1.0, 0.0]]),
     "stable", "unstable"),
    ([np.diag([1.0, 1e-11, 1e-13]), 2.0 * np.eye(3)],
     ScheduleSwitching([[1.0, 0.0], [0.0, 1.0]]), "inconclusive", "unstable"),
    ([[[1.0]]], IIDSwitching([1.0]), "marginal",
     "dense fallback: marginal band"),
    ([[[0.5]]], SequenceSwitching((1,)), "stable-per-corollary", None),
], ids=["zero-face", "unclear-rank", "marginal", "sequence"])
def test_no_proof_without_a_certificate_of_the_verdict(modes, law, verdict,
                                                      certificate):
    """The zero face keeps the whole map's certificate, here "unstable",
    which proves nothing about its "stable"; nor does an inconclusive
    answer, a dense fallback or a sequence hand back a proof."""
    report, proof = stability._judge(JumpLinearSystem(modes), law,
                                     DEFAULT_MARGIN, DEFAULT_HORIZON)
    assert (report.verdict, report.certificate, proof) == (
        verdict, certificate, None)
    check_proof(report, proof)
