"""The system-file reader's value checks, against the numpy checks.

The reader checks a file in plain Python.  Its sums must be correctly
rounded, past the float range too; its Cholesky test, and
``check_mixture``'s, must never clear a covariance that eigvalsh
rejects, and ``check_mixture`` must word eigvalsh's violations; and on
every file the reader must report the violations ``validate_system``
reports on the built objects, in the same order.
"""

import ast
import copy
import itertools
import json
import math
import pathlib
import sys
from fractions import Fraction

import numpy as np
import pytest

from jumpstab.defaults import PSD_TOL
from jumpstab.matkit import _psd_slack, _sym_part
from jumpstab.systemfile import (
    SystemFileError,
    _build,
    _cleared,
    _decode,
    _report,
    _sum_violations,
)
from jumpstab.sysmodel import (
    _PROOF_MAX_N,
    GaussianMixture,
    _proved_psd,
    check_mixture,
    validate_system,
)
from reference import eigvalsh_violations

import test_cli
import test_systemfile

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_sum_is_correctly_rounded():
    """The sum a violation prints is the exact sum rounded once, also
    where a partial sum passes the float range."""
    rng = np.random.default_rng(31)
    cases = [rng.standard_normal(length) * 10.0 ** rng.integers(-8, 8, length)
             for length in range(1, 301, 7)]
    cases += [[1e308, 1e308, -1e308], [1e308, 1e308, -1e308, -1e308, 1.0],
              [1e308, 1e308], [-1.7e308] * 300, [0.1] * 10]
    for x in map(list, cases):
        exact = sum(map(Fraction, x))
        try:
            want = float(exact)
        except OverflowError:
            want = math.inf if exact > 0 else -math.inf
        assert _sum_violations(x, "w") == (
            [] if want == 1.0 else [f"w: probability sum {want:.12g} != 1"])


def cov_document(covs, weights=None):
    """A one-mode IID document whose start has the covariances ``covs``."""
    n = len(covs[0])
    weights = weights or [1.0 / len(covs)] * len(covs)
    return {"n": n, "modes": {"a": np.eye(n).tolist()},
            "switching": {"type": "iid", "pi": [1.0]},
            "initial": [{"weight": w, "mean": [0.0] * n,
                         "cov": np.asarray(c).tolist()}
                        for w, c in zip(weights, covs)]}


def edge_cov(rng, n, scale, f):
    """C = Q diag(lam) Q^T, symmetric, with lambda_min = -f slack."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    lam = scale * rng.uniform(0.1, 1.0, n)
    lam[0] = 0.0
    slack = PSD_TOL * max(1.0, np.max(np.abs((q * lam) @ q.T)))
    lam[0] = -f * slack
    cov = (q * lam) @ q.T
    return (cov + cov.T) / 2


def assert_rule(covs, weights=None):
    """check_mixture and the reader's report word the violations that
    eigvalsh alone words, in its order; the reader's and check_mixture's
    Cholesky proofs clear only covariances it passes. Returns them."""
    mix = GaussianMixture(weights or [1.0 / len(covs)] * len(covs),
                          np.zeros((len(covs), len(covs[0]))), covs)
    expected = eigvalsh_violations(mix)
    assert check_mixture(mix) == expected
    assert _report(*_decode(cov_document(covs, weights))).violations == (
        tuple(expected))
    sym = _sym_part(mix.covs)
    for i, cov in enumerate(covs):
        named = f"component {i + 1} covariance is not "
        bad = [v for v in expected if v.startswith(named)]
        assert not (_cleared(np.asarray(cov).tolist()) and bad), i
        # check_mixture's proof reads the symmetric part only
        assert not (_proved_psd(sym[i:i + 1], _psd_slack(sym[i:i + 1]))
                    and named + "PSD" in " ".join(bad)), i
    return expected


@pytest.mark.parametrize("n", range(1, 33))
def test_cholesky_clears_only_what_check_mixture_passes(n):
    """C = Q diag(lam) Q^T with its smallest eigenvalue just inside and
    just outside -slack and -slack/2: check_mixture and the reader give
    eigvalsh's verdict and message, both proofs clear every covariance
    inside -slack/2, and eigvalsh rejects every one outside -slack."""
    rng = np.random.default_rng([17, n])
    for scale in (0.5, 1e3):
        for f in (1 - 1e-3, 1 + 1e-3, 0.5 - 1e-3, 0.5 + 1e-3):
            cov = edge_cov(rng, n, scale, f)
            rejected = assert_rule([cov])
            cleared = _cleared(cov.tolist())
            assert cleared or f != 0.5 - 1e-3, (scale, f)
            sym = _sym_part(cov[None])
            assert _proved_psd(sym, _psd_slack(sym)) or f != 0.5 - 1e-3
            assert rejected or f != 1 + 1e-3, (scale, f)


@pytest.mark.parametrize("n", (1, 2, 5))
def test_some_components_fail(n):
    """Mixtures of 2-3 components, each cleared, past the proof but
    PSD, indefinite or asymmetric: every failing component is named by
    its number, the asymmetries first, then the eigenvalues."""
    rng = np.random.default_rng([23, n])
    asym = np.eye(n)  # at n = 1 it stays symmetric, one more cleared kind
    asym[0, -1] += 1e-3 if n > 1 else 0.0
    kinds = {"clear": edge_cov(rng, n, 2.0, 0.5 - 1e-3),
             "edge": edge_cov(rng, n, 2.0, 0.75),
             "indefinite": edge_cov(rng, n, 2.0, 1e6),
             "asymmetric": asym}
    for q in (2, 3):
        for names in itertools.product(kinds, repeat=q):
            assert_rule([kinds[k] for k in names])
    got = assert_rule([kinds["clear"], kinds["indefinite"],
                       kinds["indefinite"]])
    assert [v.split(" covariance")[0] for v in got] == [
        "component 2", "component 3"]
    if n > 1:
        got = assert_rule([kinds["asymmetric"], kinds["indefinite"],
                           kinds["asymmetric"] - 2.0 * np.eye(n)])
        assert [v.split(":")[0] for v in got] == [
            "component 1 covariance is not symmetric",
            "component 3 covariance is not symmetric",
            "component 2 covariance is not PSD",
            "component 3 covariance is not PSD"]


def test_past_the_proof_size_eigvalsh_decides(monkeypatch):
    """check_mixture trusts its Cholesky proof up to _PROOF_MAX_N rows,
    where the factor's rounding stays far inside slack/2; past that,
    eigvalsh decides even a covariance the factor would clear."""
    shapes, eigvalsh = [], np.linalg.eigvalsh

    def counted(a):
        shapes.append(a.shape)
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    for n in (_PROOF_MAX_N, _PROOF_MAX_N + 1):
        mix = GaussianMixture([1.0], np.zeros((1, n)), np.eye(n)[None])
        assert check_mixture(mix) == []
    assert shapes == [(1, _PROOF_MAX_N + 1, _PROOF_MAX_N + 1)]


def test_overflowing_pivot_proves_nothing():
    """A pivot of S + slack/2 I that rounds to inf factors the rest as if
    decoupled: neither proof may clear [[M, M], [M, 0]], whose smallest
    eigenvalue is about -0.62 M at M the largest float."""
    top = np.finfo(float).max
    coupled = np.array([[top, top], [top, 0.0]])
    assert not _cleared(coupled.tolist())
    assert not _proved_psd(coupled[None], _psd_slack(coupled[None]))
    assert assert_rule([coupled])[0].startswith(
        "component 1 covariance is not PSD: smallest eigenvalue -1.1")
    # a definite one of that size passes, by eigvalsh
    assert assert_rule([np.diag([top, 1.0]), np.eye(2)]) == []


def demo_document():
    """The system document that demo 05 writes."""
    tree = ast.parse((ROOT / "demos" / "05_system_files.py").read_text())
    return next(ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign)
                and [t.id for t in node.targets] == ["doc"])


def perfbench_documents(tmp_path):
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        from inputs import WORKLOADS, build_workload
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    for seed in (1, 2, 3):
        for workload in WORKLOADS:
            files, _ = build_workload(workload, seed, 30,
                                      tmp_path / f"{workload}-{seed}")
            for spec in files:
                yield json.loads(pathlib.Path(spec.path).read_text())


def with_law(doc, **law):
    return dict(copy.deepcopy(doc), switching=law)


def with_start(doc, **fields):
    out = copy.deepcopy(doc)
    out["initial"][0].update(fields)
    return out


#: Malformed variants of two-mode documents, each a structural or a value
#: error
TWO = test_cli.IID
TWO_D = test_systemfile.BASE
VARIANTS = [
    with_law(TWO, type="markov", P=[[0.5, 0.5], [0.5, 0.5]], pi0=[1.0]),
    with_law(TWO, type="markov", P=[[0.5, 0.5, 0.0]] * 3,
             pi0=[1.0, 0.0, 0.0]),
    with_law(TWO, type="schedule", vectors=[[0.5, 0.5], [1.0]]),
    with_law(TWO, type="sequence", indices=[10**400]),
    with_law(TWO, type="sequence", indices=[]),
    with_law(TWO, type="sequence", indices=[-1]),
    with_start(TWO, weight=0),
    with_start(TWO, weight=10**400),
    dict(TWO, n=10**400),
    with_law(TWO, type="iid", pi=[0.2, 0.3, 0.5]),
    with_law(TWO, type="iid", pi=[0.6, 0.6]),
    with_law(TWO, type="iid", pi=[-0.2, 1.2]),
    with_law(TWO, type="markov", P=[[0.9, 0.2], [-0.1, 1.1]],
             pi0=[0.5, 0.6]),
    with_law(TWO, type="schedule", vectors=[[0.5, 0.6], [0.0, 1.0, 0.0]]),
    with_law(TWO, type="schedule", vectors=[[0.5, 0.6, 0.0]] * 2),
    with_start(TWO_D, cov=[[1.0, 0.9], [-0.9, 1.0]]),
    with_start(TWO_D, cov=[[1.0, 2.0], [2.0, 1.0]]),
    with_start(TWO_D, cov=[[1e308, 1e308], [-1e308, 1e308]]),
    with_start(TWO_D, cov=[[1e308, 0.0], [0.0, 1e308]]),
    with_start(TWO_D, weight=-0.5, cov=[[1.0, 2.0], [2.0, 1.0]]),
    dict(copy.deepcopy(TWO_D), initial=[
        {"weight": 0.7, "mean": [0.0, 0.0], "cov": [[1.0, 0.0], [0.0, 1.0]]},
        {"weight": 0.7, "mean": [1.0, 0.0], "cov": [[1.0, 2.0], [2.0, 1.0]]},
    ]),
    with_law(TWO, type="iid", pi=[1e308, 1e308]),
]

#: The documents the command-line and reader tests write
WRITTEN = [
    test_cli.IID, test_cli.MARKOV, test_cli.SEQ, test_cli.SCHEDULE,
    test_cli.SPREAD, test_cli.RANK_ONE, test_cli.HUGE_COV,
    test_cli.SINGLE_HALF, test_cli.STABLE_IID, test_cli.lift_sized_iid(),
    *(dict(test_cli.OVERFLOW, switching=law)
      for law in test_cli.OVERFLOW_LAWS.values()),
    *test_systemfile.TestOnlySystemFileErrors.DOCS,
]


def outcome(build):
    """The violations, or the structural error's message."""
    try:
        return build()
    except SystemFileError as exc:
        return f"SystemFileError: {exc}"


def assert_same_report(data):
    def by_validate_system():
        sf = _build(*_decode(data))
        assert check_mixture(sf.initial) == eigvalsh_violations(sf.initial)
        return validate_system(sf.system, sf.switching, sf.initial).violations

    assert (outcome(lambda: _report(*_decode(data)).violations)
            == outcome(by_validate_system))


@pytest.mark.parametrize("data", WRITTEN + VARIANTS + [demo_document()])
def test_reader_reports_as_validate_system(data):
    assert_same_report(data)


def test_reader_reports_as_validate_system_on_substitutions():
    for data in test_systemfile.TestOnlySystemFileErrors.DOCS:
        for path, value in test_systemfile.substitutions(data):
            assert_same_report(test_systemfile.replaced(data, path, value))


def test_reader_reports_as_validate_system_on_perfbench_inputs(tmp_path):
    docs = list(perfbench_documents(tmp_path))
    assert len(docs) == 72
    for data in docs:
        assert _report(*_decode(data)).ok
        assert_same_report(data)
