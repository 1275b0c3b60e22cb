"""The system-file reader's value checks, against the numpy checks.

The reader checks a file in plain Python.  Its sums must be numpy's,
bit for bit; its Cholesky test must never clear a covariance that
``check_mixture`` rejects; and on every file it must report the
violations ``validate_system`` reports on the built objects, in the
same order.
"""

import ast
import copy
import json
import pathlib
import sys

import numpy as np
import pytest

from jumpstab.defaults import PSD_TOL
from jumpstab.systemfile import (
    SystemFile,
    SystemFileError,
    _cleared,
    _decode,
    _report,
    _sum,
)
from jumpstab.sysmodel import GaussianMixture, check_mixture, validate_system

import test_cli
import test_systemfile

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_sum_is_numpys_bit_for_bit():
    rng = np.random.default_rng(31)
    for length in range(1, 301):
        for x in (rng.random(length),
                  rng.dirichlet(np.ones(length)),
                  rng.standard_normal(length)
                  * 10.0 ** rng.integers(-8, 8, length),
                  np.where(rng.random(length) < 0.5, -0.0, 0.0)):
            assert _sum(x.tolist()).hex() == float(np.sum(x)).hex(), length


@pytest.mark.parametrize("n", range(1, 33))
def test_cholesky_clears_only_what_check_mixture_passes(n):
    """C = Q diag(lam) Q^T with its smallest eigenvalue just inside and
    just outside -slack and -slack/2: the reader's verdict is always
    check_mixture's, and it clears every covariance inside -slack/2."""
    rng = np.random.default_rng([17, n])
    for scale in (0.5, 1e3):
        for f in (1 - 1e-3, 1 + 1e-3, 0.5 - 1e-3, 0.5 + 1e-3):
            q, _ = np.linalg.qr(rng.standard_normal((n, n)))
            lam = scale * rng.uniform(0.1, 1.0, n)
            lam[0] = 0.0
            slack = PSD_TOL * max(1.0, np.max(np.abs((q * lam) @ q.T)))
            lam[0] = -f * slack
            cov = (q * lam) @ q.T
            cov = (cov + cov.T) / 2
            mix = GaussianMixture([1.0], np.zeros((1, n)), cov[None])
            rejected = check_mixture(mix)
            data = {"n": n, "modes": {"a": np.eye(n).tolist()},
                    "switching": {"type": "iid", "pi": [1.0]},
                    "initial": [{"weight": 1.0, "mean": [0.0] * n,
                                 "cov": cov.tolist()}]}
            assert _report(*_decode(data)).violations == tuple(rejected)
            cleared = _cleared(cov.tolist())
            assert not (cleared and rejected), (scale, f)
            assert cleared or f != 0.5 - 1e-3, (scale, f)


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
        sf = SystemFile.from_dict(data)
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
