"""Command-line interface: exit codes, report text, CSV contracts.

Most cases drive ``main()`` in process for speed; a few go through
``python -m jumpstab`` subprocesses to pin the installed entry point and
cross-process byte determinism.
"""

import gc
import json
import math
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

from jumpstab.cli import main
from reference import needs_refused_allocation

IID = {
    "n": 1,
    "modes": {"grow": [[2.0]], "shrink": [[0.1]]},
    "switching": {"type": "iid", "pi": [0.5, 0.5]},
    "initial": [{"weight": 1.0, "mean": [1.0], "cov": [[0.0]]}],
}
MARKOV = {
    "n": 1,
    "modes": {"a": [[1.2]], "b": [[0.5]]},
    "switching": {
        "type": "markov",
        "P": [[0.3, 0.7], [0.7, 0.3]],
        "pi0": [0.5, 0.5],
    },
    "initial": [{"weight": 1.0, "mean": [1.0], "cov": [[0.0]]}],
}
SEQ = {
    "n": 1,
    "modes": {"grow": [[2.0]], "shrink": [[0.1]]},
    "switching": {"type": "sequence", "indices": [1, 2]},
    "initial": [{"weight": 1.0, "mean": [1.0], "cov": [[0.0]]}],
}
#: 550 growing rows, then a contracting row that repeats forever
SCHEDULE = {
    "n": 1,
    "modes": {"grow": [[1.1]], "shrink": [[0.5]]},
    "switching": {
        "type": "schedule",
        "vectors": [[1.0, 0.0]] * 550 + [[0.0, 1.0]],
    },
    "initial": [{"weight": 1.0, "mean": [1.0], "cov": [[0.0]]}],
}
#: A nilpotent mode whose square overflows: A kron A and A A^T hold 1e320
OVERFLOW = {
    "n": 2,
    "modes": {
        "huge": [[0.0, 1e160], [0.0, 0.0]],
        "half": [[0.5, 0.0], [0.0, 0.5]],
    },
    "initial": [
        {"weight": 1.0, "mean": [1.0, 1.0], "cov": [[1.0, 0.0], [0.0, 1.0]]}
    ],
}
OVERFLOW_LAWS = {
    "iid": {"type": "iid", "pi": [0.5, 0.5]},
    "markov": {
        "type": "markov",
        "P": [[0.5, 0.5], [0.5, 0.5]],
        "pi0": [0.5, 0.5],
    },
    "schedule": {"type": "schedule", "vectors": [[0.5, 0.5]]},
}
#: A nilpotent mode whose largest entry squares to 1.15e308, just under
#: float64's top: its map stays finite, products of its images do not
NEAR_THE_TOP = [[0.0, 1.6 * 2.0**511], [0.0, 0.0]]
#: Components so far apart that the matched second moment overflows
SPREAD = {
    "n": 1,
    "modes": {"half": [[0.5]]},
    "switching": {"type": "iid", "pi": [1.0]},
    "initial": [
        {"weight": 0.5, "mean": [1e200], "cov": [[0.0]]},
        {"weight": 0.5, "mean": [-1e200], "cov": [[0.0]]},
    ],
}
#: A rank-1 start under unstable modes: roundoff gives the pushed
#: covariances eigenvalues near -5e-10, below an absolute 1e-10 slack
RANK_ONE = {
    "n": 2,
    "modes": {
        "a": [[3.0, 1.0], [0.5, 2.0]],
        "b": [[2.0, -1.0], [1.0, 3.0]],
    },
    "switching": {"type": "iid", "pi": [0.5, 0.5]},
    "initial": [
        {"weight": 1.0, "mean": [1.0, 0.0], "cov": [[1.0, 1.0], [1.0, 1.0]]}
    ],
}
#: A start whose covariance entry 1e308 overflows (S + S^T) / 2
HUGE_COV = {
    "n": 2,
    "modes": {"half": [[0.5, 0.0], [0.0, 0.5]]},
    "switching": {"type": "iid", "pi": [1.0]},
    "initial": [{"weight": 1.0, "mean": [0.0, 0.0],
                 "cov": [[1e308, 0.0], [0.0, 1.0]]}],
}
SINGLE_HALF = {
    "n": 1,
    "modes": {"half": [[0.5]]},
    "switching": {"type": "iid", "pi": [1.0]},
    "initial": [{"weight": 1.0, "mean": [1.0], "cov": [[0.0]]}],
}


#: The document of ``TestCompare.test_stable_iid_passes``
STABLE_IID = {
    "n": 1,
    "modes": {"a": [[0.5]], "b": [[0.3]]},
    "switching": {"type": "iid", "pi": [0.5, 0.5]},
    "initial": [{"weight": 1.0, "mean": [1.0], "cov": [[0.1]]}],
}


def rotated_jordan():
    """One IID mode R [[lam, b], [0, lam]] R^T, lam^2 = 0.9, b = 1e5, R a
    rotation by 0.7, from a point mass at (1, 1): W^2(k) is positive, but
    the moment and gamma routes lose it to rounding within 60 steps."""
    c, s = np.cos(0.7), np.sin(0.7)
    rot = np.array([[c, -s], [s, c]])
    mode = rot @ np.array([[np.sqrt(0.9), 1e5], [0.0, np.sqrt(0.9)]]) @ rot.T
    return {
        "n": 2,
        "modes": {"a": mode.tolist()},
        "switching": {"type": "iid", "pi": [1.0]},
        "initial": [{"weight": 1.0, "mean": [1.0, 1.0],
                     "cov": [[0.0, 0.0], [0.0, 0.0]]}],
    }


def lift_sized_iid():
    """Two IID modes whose 210-row symmetric lift (n = 20) is large enough
    for a threaded OpenBLAS to split its products between CPUs."""
    n, rng = 20, np.random.default_rng(1)
    modes = {}
    for j in range(2):
        a = rng.standard_normal((n, n))
        modes[f"a{j}"] = (0.9 * a / np.linalg.norm(a, 2)).tolist()
    return {
        "n": n,
        "modes": modes,
        "switching": {"type": "iid", "pi": [0.5, 0.5]},
        "initial": [
            {"weight": 1.0, "mean": [1.0] * n, "cov": np.eye(n).tolist()}
        ],
    }


@pytest.fixture
def write(tmp_path):
    def _write(doc, name="sys.json"):
        path = tmp_path / name
        path.write_text(json.dumps(doc), encoding="utf-8")
        return str(path)

    return _write


def read_csv(text):
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestValidate:
    def test_ok(self, write, capsys):
        assert main(["validate", write(IID)]) == 0
        assert capsys.readouterr().out.strip() == "OK"

    def test_bad_probability_sum(self, write, capsys):
        doc = dict(IID, switching={"type": "iid", "pi": [0.6, 0.6]})
        assert main(["validate", write(doc)]) == 1
        assert "probability sum 1.2 != 1" in capsys.readouterr().out

    def test_parse_error_names_mode(self, write, capsys):
        doc = dict(IID, modes={"grow": [[2.0, 0.0]], "shrink": [[0.1]]})
        assert main(["validate", write(doc)]) == 1
        assert "mode 'grow'" in capsys.readouterr().err

    def test_large_rank_one_covariance_ok(self, write, capsys):
        v = np.array([0.1, 0.7])
        doc = {
            "n": 2,
            "modes": {"a": [[0.5, 0.0], [0.0, 0.5]]},
            "switching": {"type": "iid", "pi": [1.0]},
            "initial": [{"weight": 1.0, "mean": [0.0, 0.0],
                         "cov": (1e9 * np.outer(v, v)).tolist()}],
        }
        assert main(["validate", write(doc)]) == 0
        assert capsys.readouterr().out.strip() == "OK"

    def test_covariance_near_the_float64_limit_ok(self, write, capsys):
        start = dict(HUGE_COV["initial"][0], cov=[[1e308, 0.0], [0.0, 1e308]])
        assert main(["validate", write(dict(HUGE_COV, initial=[start]))]) == 0
        assert capsys.readouterr() == ("OK\n", "")

    def test_json_report(self, write, capsys):
        doc = dict(IID, switching={"type": "iid", "pi": [0.6, 0.6]})
        assert main(["validate", "--json", write(doc)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        assert any("probability sum" in v for v in payload["violations"])

    @pytest.mark.parametrize("digits", [400, 5000])
    @pytest.mark.parametrize("as_json", [False, True])
    def test_huge_integer_is_parse_error(self, tmp_path, capsys, digits,
                                         as_json):
        # 400 digits overflow float(); 5000 pass int()'s digit limit
        path = tmp_path / "sys.json"
        path.write_text(
            json.dumps(IID).replace("[[2.0]]", f"[[{'9' * digits}]]")
        )
        argv = ["validate", str(path)] + (["--json"] if as_json else [])
        assert main(argv) == 1
        out, err = capsys.readouterr()
        if as_json:
            assert json.loads(out)["ok"] is False
            assert "parse_error" in json.loads(out)
        else:
            assert err.startswith("parse error: ")

    def test_huge_sequence_index_is_reported(self, tmp_path, capsys):
        path = tmp_path / "sys.json"
        path.write_text(json.dumps(SEQ).replace("[1, 2]", f"[1, {'9' * 400}]"))
        assert main(["validate", str(path)]) == 1
        assert "outside [1..2]" in capsys.readouterr().out

    @pytest.mark.parametrize("as_json", [False, True])
    def test_deep_nesting_is_parse_error(self, tmp_path, capsys, as_json):
        path = tmp_path / "sys.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        argv = ["validate", str(path)] + (["--json"] if as_json else [])
        assert main(argv) == 1
        out, err = capsys.readouterr()
        if as_json:
            payload = json.loads(out)
            assert payload["ok"] is False
            assert "recursion depth" in payload["parse_error"]
        else:
            assert err.startswith("parse error: invalid JSON: ")
            assert "recursion depth" in err

    @pytest.mark.parametrize("as_json", [False, True])
    @pytest.mark.parametrize("before, after, key", [
        ('"grow": [[2.0]]', '"grow": [[2.0]], "grow": [[0.3]]', "grow"),
        ('"pi": [0.5, 0.5]', '"pi": [0.5, 0.5], "pi": [1.0, 0.0]', "pi"),
    ], ids=["mode", "pi"])
    def test_duplicate_key_is_parse_error(self, tmp_path, capsys, before,
                                          after, key, as_json):
        # json.loads would keep the last value; RFC 8259 section 4 says
        # names SHOULD be unique, and a silent overwrite changes the law
        path = tmp_path / "sys.json"
        text = json.dumps(IID)
        assert before in text
        path.write_text(text.replace(before, after))
        argv = ["validate", str(path)] + (["--json"] if as_json else [])
        assert main(argv) == 1
        out, err = capsys.readouterr()
        if as_json:
            assert json.loads(out) == {
                "ok": False, "parse_error": f"duplicate key '{key}'"
            }
        else:
            assert (out, err) == ("", f"parse error: duplicate key '{key}'\n")

    @pytest.mark.parametrize("as_json", [False, True])
    @pytest.mark.parametrize("law, field", [
        ({"type": "schedule", "vectors": [[]]}, "switching.vectors"),
        ({"type": "markov", "P": [[]], "pi0": [1.0]}, "switching.P"),
    ], ids=["vectors", "P"])
    def test_empty_row_is_parse_error(self, write, capsys, law, field,
                                      as_json):
        path = write(dict(IID, switching=law))
        argv = ["validate", path] + (["--json"] if as_json else [])
        assert main(argv) == 1
        out, err = capsys.readouterr()
        if as_json:
            message = json.loads(out)["parse_error"]
        else:
            assert err.startswith("parse error: ")
            message = err
        assert f"{field} row 1 must be a nonempty array" in message

    def test_asymmetric_covariance_reported(self, write, capsys):
        doc = {
            "n": 2,
            "modes": {"a": [[0.5, 0.5], [0.0, 0.5]]},
            "switching": {"type": "iid", "pi": [1.0]},
            "initial": [{"weight": 1.0, "mean": [0.0, 0.0],
                         "cov": [[1.0, 0.9], [-0.9, 1.0]]}],
        }
        assert main(["validate", write(doc)]) == 1
        assert capsys.readouterr().out == (
            "violation: component 1 covariance is not symmetric: largest "
            "asymmetry 1.800e+00\n"
        )

    @pytest.mark.filterwarnings("error")
    def test_asymmetry_past_float_range_reported_finite(self, write, capsys):
        # the unhalved difference 2e308 overflowed and printed inf
        doc = {
            "n": 2,
            "modes": {"a": [[0.5, 0.5], [0.0, 0.5]]},
            "switching": {"type": "iid", "pi": [1.0]},
            "initial": [{"weight": 1.0, "mean": [0.0, 0.0],
                         "cov": [[1e308, 1e308], [-1e308, 1e308]]}],
        }
        assert main(["validate", write(doc)]) == 1
        assert capsys.readouterr().out == (
            "violation: component 1 covariance is not symmetric: largest "
            "asymmetry above 1.798e+308\n"
        )

    def test_readme_system_file_is_ok(self, tmp_path, capsys):
        readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
        blocks = re.findall(r"```json\n(.*?)```", readme.read_text(), re.S)
        assert len(blocks) == 1
        path = tmp_path / "sys.json"
        path.write_text(blocks[0], encoding="utf-8")
        assert main(["validate", str(path)]) == 0
        assert capsys.readouterr().out == "OK\n"

    def test_missing_file(self, capsys):
        assert main(["validate", "/nonexistent/sys.json"]) == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["missing", "directory", "not_utf8"])
    @pytest.mark.parametrize("as_json", [False, True])
    def test_unreadable_file_is_parse_error(self, tmp_path, capsys, kind,
                                            as_json):
        path = tmp_path / "sys.json"
        if kind == "directory":
            path.mkdir()
        elif kind == "not_utf8":
            path.write_bytes(b'{"n": "\xff"}')
        argv = ["validate", str(path)] + (["--json"] if as_json else [])
        assert main(argv) == 1
        out, err = capsys.readouterr()
        if as_json:
            payload = json.loads(out)
            assert payload["ok"] is False
            message = payload["parse_error"]
        else:
            assert out == ""
            assert err.startswith("parse error: ")
            message = err
        if kind == "not_utf8":
            assert "invalid UTF-8" in message


class TestAnalyze:
    def test_iid_unstable(self, write, capsys):
        assert main(["analyze", write(IID)]) == 0
        out = capsys.readouterr().out
        assert "verdict: unstable" in out
        assert "2.005" in out

    def test_markov_stable(self, write, capsys):
        assert main(["analyze", write(MARKOV)]) == 0
        out = capsys.readouterr().out
        assert "verdict: stable" in out
        assert "0.70985" in out

    def test_sequence_certificate(self, write, capsys):
        assert main(["analyze", write(SEQ)]) == 0
        out = capsys.readouterr().out
        assert "stable-per-corollary" in out
        assert "k=2" in out
        assert "0.2" in out

    def test_assert_stable_exit_codes(self, write, capsys):
        assert main(["analyze", write(IID), "--assert-stable"]) == 2
        assert main(["analyze", write(MARKOV), "--assert-stable"]) == 0
        # a certified contractive prefix counts as stable
        assert main(["analyze", write(SEQ), "--assert-stable"]) == 0

    def test_markov_judged_on_the_states_pi0_reaches(self, write, capsys):
        # pi0 never leaves the contracting mode: W^2(k) = 0.25^k
        doc = dict(MARKOV, modes={"a": [[0.5]], "b": [[2.0]]}, switching={
            "type": "markov", "P": [[1.0, 0.0], [0.0, 1.0]], "pi0": [1, 0]})
        path = write(doc)
        assert main(["analyze", path, "--assert-stable"]) == 0
        assert capsys.readouterr().out == (
            f"file: {path}\n"
            "test: markov\n"
            "verdict: stable\n"
            "evidence: spectral radius = 0.25\n"
            "note: pi0 reaches 1 of 2 chain states; from every initial law "
            "the spectral radius is 4\n"
        )
        assert main(["analyze", path, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == "stable"
        assert payload["evidence"] == pytest.approx(0.25, rel=1e-12)
        assert payload["notes"] == [
            "pi0 reaches 1 of 2 chain states; from every initial law the "
            "spectral radius is 4"]
        assert main(["trajectory", path, "--steps", "3"]) == 0
        _, rows = read_csv(capsys.readouterr().out)
        assert [float(row[1]) for row in rows] == [1, 0.25, 0.0625, 0.015625]

    @pytest.mark.parametrize("modes, switching, lines", [
        # the transient leaves e1, where the tail contracts
        ({"a": [[1.0, 0.0], [0.0, 0.0]], "b": [[0.5, 0.0], [0.0, 2.0]]},
         {"type": "schedule", "vectors": [[1, 0], [0, 1]]},
         ["verdict: stable", "evidence: spectral radius = 0.25",
          "horizon used: k=2",
          "note: the steps before step 2 keep the second moment in a "
          "1-dimensional subspace; on the whole space the spectral radius "
          "is 4"]),
        # a tiny transient mode still spans the line the tail grows on
        ({"a": [[1e-170]], "b": [[2.0]]},
         {"type": "schedule", "vectors": [[1, 0], [0, 1]]},
         ["verdict: unstable", "evidence: spectral radius = 4",
          "horizon used: k=2"]),
        # pi0 leads to the zero mode only
        ({"a": [[0.0]], "b": [[2.0]], "c": [[0.5]]},
         {"type": "markov", "P": [[0, 1, 0], [0, 1, 0], [1, 0, 0]],
          "pi0": [0, 0, 1]},
         ["verdict: stable", "evidence: spectral radius = 4",
          "note: the steps before step 2 map every second moment to 0; the "
          "evidence and certificate are those of the map that repeats"]),
        # the tail turns the transient's line through the whole plane
        ({"a": [[1.0, 0.0], [0.0, 0.0]], "b": [[1.2, -1.6], [1.6, 1.2]]},
         {"type": "schedule", "vectors": [[1, 0], [0, 1]]},
         ["verdict: unstable", "evidence: spectral radius = 4",
          "horizon used: k=2"]),
        # a mode of weight 0 takes no part, however large
        ({"a": [[1e170]], "b": [[0.5]]}, {"type": "iid", "pi": [0, 1]},
         ["verdict: stable", "evidence: spectral radius = 0.25"]),
        ({"a": [[1e170]], "b": [[0.5]]},
         {"type": "schedule", "vectors": [[1, 0], [0, 1]]},
         ["verdict: stable", "evidence: spectral radius = 0.25",
          "horizon used: k=2"]),
        # nor is it projected onto the face, where 1e308 would overflow
        ({"a": [[0.5, 0.5], [0.5, 0.5]],
          "huge": [[1e308, 1e308], [1e308, 1e308]],
          "c": [[0.3, 0.3], [0.3, 0.3]]},
         {"type": "schedule", "vectors": [[1, 0, 0], [0, 0, 1]]},
         ["verdict: stable", "evidence: spectral radius = 0.36",
          "horizon used: k=2",
          "note: the steps before step 2 keep the second moment in a "
          "1-dimensional subspace; on the whole space the spectral radius "
          "is 0.36"]),
    ], ids=["onto-e1", "tiny-mode", "zero-mode", "spin", "dead-iid",
            "dead-schedule", "dead-off-the-face"])
    def test_one_verdict_rule(self, write, capsys, modes, switching, lines):
        n = len(next(iter(modes.values())))
        doc = {"n": n, "modes": modes, "switching": switching, "initial": [
            {"weight": 1.0, "mean": [1.0] * n, "cov": np.eye(n).tolist()}]}
        assert main(["analyze", write(doc)]) == 0
        out = capsys.readouterr()
        assert (out.out.splitlines()[2:], out.err) == (lines, "")

    def test_mode_of_weight_zero_on_every_route(self, write, capsys):
        doc = dict(SINGLE_HALF, modes={"a": [[1e170]], "b": [[0.5]]},
                   switching={"type": "iid", "pi": [0, 1]})
        path = write(doc)
        for method in ("moment", "gamma", "exact_mog"):
            argv = ["trajectory", path, "--steps", "2", "--method", method]
            assert main(argv) == 0, method
            _, rows = read_csv(capsys.readouterr().out)
            assert [float(r[1]) for r in rows] == [1, 0.25, 0.0625], method
        assert main(["simulate", path, "--steps", "2"]) == 0
        _, rows = read_csv(capsys.readouterr().out)
        assert [float(r[1]) for r in rows] == [1, 0.25, 0.0625]

    def test_inconclusive_asserts_nonzero(self, write, capsys):
        doc = dict(SEQ, switching={"type": "sequence", "indices": [1]})
        assert main(["analyze", write(doc), "--assert-stable"]) == 2
        assert "inconclusive" in capsys.readouterr().out

    def test_json_fields(self, write, capsys):
        assert main(["analyze", write(MARKOV), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["test"] == "markov"
        assert payload["verdict"] == "stable"
        assert payload["evidence"] == pytest.approx(0.70986, abs=5e-6)
        assert payload["evidence_label"] == "spectral radius"

    def test_invalid_file_rejected_before_analysis(self, write, capsys):
        doc = dict(IID, switching={"type": "iid", "pi": [0.6, 0.6]})
        assert main(["analyze", write(doc)]) == 1

    @pytest.mark.parametrize("margin", ["-1", "nan", "1", "inf", "-1e-12"])
    def test_margin_out_of_range_exits_1(self, write, capsys, margin):
        argv = ["analyze", write(IID), f"--margin={margin}", "--assert-stable"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "error: margin must be finite and in [0, 1), got "
        )

    def test_json_certificate_fields(self, write, capsys):
        assert main(["analyze", write(MARKOV), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["certificate"] == "stable"
        assert isinstance(payload["applications"], int)
        assert payload["applications"] > 0
        assert main(["analyze", write(SEQ), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["certificate"] is None
        assert payload["applications"] is None

    def test_schedule_past_500_rows(self, write, capsys):
        path = write(SCHEDULE)
        assert main(["analyze", path]) == 0
        assert capsys.readouterr().out == (
            f"file: {path}\n"
            "test: general\n"
            "verdict: stable\n"
            "evidence: spectral radius = 0.25\n"
            "horizon used: k=551\n"
        )
        assert main(["analyze", path, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["certificate"] == "stable"
        assert isinstance(payload["applications"], int)
        assert payload["applications"] > 0

    @pytest.mark.parametrize("doc", [IID, MARKOV, SCHEDULE, SEQ],
                             ids=["iid", "markov", "schedule", "sequence"])
    def test_bad_horizon_exits_1(self, write, capsys, doc):
        assert main(["analyze", write(doc), "--horizon", "-5"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: horizon must be >= 1, got -5\n"

    def test_plain_report_has_no_certificate_lines(self, write, capsys):
        path = write(MARKOV)
        assert main(["analyze", path]) == 0
        assert capsys.readouterr().out == (
            f"file: {path}\n"
            "test: markov\n"
            "verdict: stable\n"
            "evidence: spectral radius = 0.709857590054\n"
        )


class TestOverflow:
    """Overflowing second moments end in exit 3, never NaN rows or exit 1."""

    @pytest.mark.parametrize("law", sorted(OVERFLOW_LAWS))
    def test_analyze_exits_3(self, write, capsys, law):
        doc = dict(OVERFLOW, switching=OVERFLOW_LAWS[law])
        assert main(["analyze", write(doc)]) == 3
        captured = capsys.readouterr()
        assert captured.err == ("numerical failure: second moment diverged "
                                "(an entry is not finite)\n")
        assert "nan" not in captured.out

    @pytest.mark.parametrize("method", ["moment", "gamma", "exact_mog"])
    def test_trajectory_exits_3(self, write, capsys, method):
        doc = dict(OVERFLOW, switching=OVERFLOW_LAWS["iid"])
        argv = ["trajectory", write(doc), "--steps", "3", "--method", method]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert "numerical failure" in captured.err
        assert "nan" not in captured.out

    @pytest.mark.parametrize(
        "argv",
        [
            ["trajectory", "--method", "moment"],
            ["trajectory", "--method", "gamma"],
            ["trajectory", "--method", "exact_mog"],
            ["compare", "--trajectories", "50"],
        ],
        ids=["moment", "gamma", "exact_mog", "compare"],
    )
    def test_spread_initial_mixture_exits_3(self, write, capsys, argv):
        sub, *flags = argv
        assert main([sub, write(SPREAD), "--steps", "3", *flags]) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith("numerical failure: ")
        assert "overflows" in captured.err
        assert captured.out == ""

    def test_covariance_near_the_float64_limit_is_finite(self, write,
                                                          capsys):
        rows = []
        for method in ("moment", "gamma", "exact_mog"):
            argv = ["trajectory", write(HUGE_COV), "--steps", "2",
                    "--method", method]
            assert main(argv) == 0
            out, err = capsys.readouterr()
            assert err == ""
            rows.append([row[:3] for row in read_csv(out)[1]])
        assert rows[0] == rows[1] == rows[2]
        assert [float(row[1]) for row in rows[0]] == pytest.approx(
            [1e308, 2.5e307, 6.25e306], rel=1e-15)

    @pytest.mark.parametrize(
        "doc, steps, k",
        [
            (SPREAD, 3, 0),
            # the first step whose squares overflow under the reference
            # draws (tests/reference.py)
            (dict(IID, modes={"huge": [[1e3]], "half": [[0.5]]}), 120, 88),
        ],
        ids=["spread-start", "diverging-modes"],
    )
    def test_simulate_overflow_exits_3(self, write, capsys, doc, steps, k):
        argv = ["simulate", write(doc), "--steps", str(steps),
                "--trajectories", "50"]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.err == (
            f"numerical failure: squared state norms overflow float64 "
            f"at k={k}\n"
        )
        assert captured.out == ""

    @staticmethod
    def scalar(modes, pi, mean):
        """A 1-D IID file from a point mass at ``mean``."""
        return {
            "n": 1,
            "modes": {f"a{j}": [[a]] for j, a in enumerate(modes)},
            "switching": {"type": "iid", "pi": pi},
            "initial": [{"weight": 1.0, "mean": [mean], "cov": [[0.0]]}],
        }

    def routes(self, write, capsys, doc, steps):
        """W^2 column of each trajectory method, all of which exit 0."""
        path, w2 = write(doc), {}
        for method in ("moment", "gamma", "exact_mog"):
            argv = ["trajectory", path, "--steps", str(steps),
                    "--method", method]
            assert main(argv) == 0
            w2[method] = [float(r[1]) for r in read_csv(
                capsys.readouterr().out)[1]]
        return w2

    def test_finite_moments_past_1e150_are_not_divergence(self, write,
                                                          capsys):
        """W^2 starts at 1e160 and decays: every route runs, and agrees."""
        doc = self.scalar([0.5, 0.9], [0.5, 0.5], 1e80)
        w2 = self.routes(write, capsys, doc, 3)
        assert w2["moment"][0] == 1e160
        for method in ("gamma", "exact_mog"):
            assert w2[method] == pytest.approx(w2["moment"], rel=1e-9)
        argv = ["compare", write(doc), "--steps", "3", "--trajectories", "50"]
        assert main(argv) == 0

    def test_lifted_product_past_1e150_is_not_divergence(self, write,
                                                          capsys):
        """Gamma(300) = 4^300 while W^2(300) = 1e-200 4^300 is small."""
        w2 = self.routes(write, capsys, self.scalar([2.0], [1.0], 1e-100),
                         300)
        assert w2["moment"][300] == pytest.approx(4.0**300 * 1e-200,
                                                  rel=1e-12)
        for method in ("gamma", "exact_mog"):
            assert w2[method][300] == pytest.approx(w2["moment"][300],
                                                    rel=1e-9)

    def test_mode_whose_lift_overflows(self, write, capsys):
        """A = 1e160: A kron A = 1e320 leaves float64, W^2(1) = 1e120 does
        not, and W^2(2) = 1e440 does, on every route."""
        doc = self.scalar([1e160], [1.0], 1e-100)
        w2 = self.routes(write, capsys, doc, 1)
        for method in ("moment", "gamma", "exact_mog"):
            assert w2[method][1] == pytest.approx(1e120, rel=1e-12)
            argv = ["trajectory", write(doc), "--steps", "2",
                    "--method", method]
            assert main(argv) == 3
            captured = capsys.readouterr()
            assert captured.err.startswith("numerical failure: ")
            assert "diverged at k=2 " in captured.err
            assert captured.out == ""

    def test_huge_mode_beside_a_small_one(self, write, capsys):
        """OVERFLOW's huge mode beside 0.3 I from a start it maps to 0:
        W^2(k) = 2 (0.09 / 2)^k. The exact and gamma routes scale only the
        huge mode's lift and agree with the moment route."""
        doc = {
            "n": 2,
            "modes": {"huge": OVERFLOW["modes"]["huge"],
                      "small": [[0.3, 0.0], [0.0, 0.3]]},
            "switching": OVERFLOW_LAWS["iid"],
            "initial": [{"weight": 1.0, "mean": [1.0, 0.0],
                         "cov": [[1.0, 0.0], [0.0, 0.0]]}],
        }
        w2 = self.routes(write, capsys, doc, 3)
        assert w2["moment"] == pytest.approx(
            [2 * 0.045**k for k in range(4)], rel=1e-14)
        for method in ("gamma", "exact_mog"):
            assert w2[method] == pytest.approx(w2["moment"], rel=1e-14)

    @pytest.mark.parametrize("modes, mean, cov, steps, last", [
        ({"a": [[1.0, 0.0], [0.0, 1e-3]]}, [0.0, 0.0],
         [[0.0, 0.0], [0.0, 1e200]], 52, 1e-112),
        ({"huge": [[0.0, 1e150], [0.0, 0.0]],
          "tiny": [[3e-12, 0.0], [0.0, 3e-12]]}, [1.0, 0.0],
         [[1.0, 0.0], [0.0, 0.0]], 3, 2 * 4.5e-24**3),
    ], ids=["decaying-direction", "huge-beside-tiny"])
    def test_gamma_reads_entries_far_below_the_largest(self, write, capsys,
                                                       modes, mean, cov,
                                                       steps, last):
        """W^2 needs entries of Gamma(k) more than 2^1022 below its
        largest; the gamma route reads them as the moment route does."""
        doc = {
            "n": 2,
            "modes": modes,
            "switching": {"type": "iid", "pi": [1 / len(modes)] * len(modes)},
            "initial": [{"weight": 1.0, "mean": mean, "cov": cov}],
        }
        w2 = self.routes(write, capsys, doc, steps)
        assert w2["moment"][-1] == pytest.approx(last, rel=1e-12)
        assert all(w > 0.0 for w in w2["gamma"])
        assert w2["gamma"] == pytest.approx(w2["moment"], rel=1e-12)

    @pytest.mark.parametrize("method", ["moment", "gamma", "exact_mog"])
    def test_w2_past_float_range_exits_3(self, write, capsys, method):
        """W^2(k) = 1e300 2.25^k leaves float64 at k = 24: every route
        stops by the one check of W^2, in the same words."""
        doc = self.scalar([1.5], [1.0], 1e150)
        argv = ["trajectory", write(doc), "--steps", "30", "--method", method]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.err == ("numerical failure: W^2 diverged at k=24 "
                                "(not finite)\n")
        assert captured.out == ""


class TestTrajectory:
    @pytest.mark.parametrize("method", ["moment", "gamma"])
    def test_negative_w2_exits_3(self, write, capsys, method):
        """A negative W^2 is rounding, never a value: the route stops at
        the first such step (which one depends on the BLAS path)."""
        argv = ["trajectory", write(rotated_jordan()), "--steps", "60",
                "--method", method]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("numerical failure: ")
        assert "negative" in captured.err

    def test_exact_route_keeps_the_rotated_jordan_positive(self, write,
                                                          capsys):
        argv = ["trajectory", write(rotated_jordan()), "--steps", "60",
                "--method", "exact_mog"]
        assert main(argv) == 0
        _, rows = read_csv(capsys.readouterr().out)
        assert len(rows) == 61
        assert all(float(row[1]) > 0.0 for row in rows)

    def test_single_mode_powers(self, write, capsys):
        assert main(
            ["trajectory", write(SINGLE_HALF), "--steps", "4"]
        ) == 0
        header, rows = read_csv(capsys.readouterr().out)
        assert header == ["k", "w2", "w"]
        w2 = [float(r[1]) for r in rows]
        assert w2 == [1.0, 0.25, 0.0625, 0.015625, 0.00390625]

    def test_zero_steps_single_row(self, write, capsys):
        assert main(
            ["trajectory", write(SINGLE_HALF), "--steps", "0"]
        ) == 0
        _, rows = read_csv(capsys.readouterr().out)
        assert len(rows) == 1
        assert float(rows[0][1]) == 1.0

    def test_moment_and_gamma_agree(self, write, capsys):
        path = write(MARKOV)
        assert main(
            ["trajectory", path, "--steps", "10", "--method", "moment"]
        ) == 0
        _, rows_m = read_csv(capsys.readouterr().out)
        assert main(
            ["trajectory", path, "--steps", "10", "--method", "gamma"]
        ) == 0
        _, rows_g = read_csv(capsys.readouterr().out)
        for rm, rg in zip(rows_m, rows_g):
            assert float(rm[1]) == pytest.approx(float(rg[1]), rel=1e-9)

    def test_exact_mog_cap_below_one_exits_1(self, write, capsys):
        argv = ["trajectory", write(IID), "--steps", "3",
                "--method", "exact_mog", "--cap", "-5"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: cap must be >= 1, got -5\n"
        assert captured.out == ""

    def test_exact_mog_adds_component_count(self, write, capsys):
        assert main(
            [
                "trajectory", write(IID),
                "--steps", "3", "--method", "exact_mog",
            ]
        ) == 0
        header, rows = read_csv(capsys.readouterr().out)
        assert header == ["k", "w2", "w", "component_count"]
        assert [r[3] for r in rows] == ["1", "2", "4", "8"]

    def test_exact_mog_sequence_stays_one_component(self, write, capsys):
        assert main(
            [
                "trajectory", write(SEQ),
                "--steps", "40", "--method", "exact_mog",
            ]
        ) == 0
        _, rows = read_csv(capsys.readouterr().out)
        assert len(rows) == 41
        assert {r[3] for r in rows} == {"1"}

    def test_exact_mog_from_rank_deficient_start(self, write, capsys):
        path = write(RANK_ONE)
        rows = {}
        for method in ("moment", "exact_mog"):
            argv = ["trajectory", path, "--steps", "8", "--method", method]
            assert main(argv) == 0
            rows[method] = read_csv(capsys.readouterr().out)[1]
        assert len(rows["exact_mog"]) == 9
        for exact, moment in zip(rows["exact_mog"], rows["moment"]):
            assert float(exact[1]) == pytest.approx(float(moment[1]),
                                                    rel=1e-9)

    def test_out_file_unix_newlines(self, write, tmp_path):
        out = tmp_path / "traj.csv"
        assert main(
            [
                "trajectory", write(SINGLE_HALF),
                "--steps", "2", "--out", str(out),
            ]
        ) == 0
        raw = out.read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")

    def test_divergence_exits_3(self, write, capsys):
        doc = dict(
            SINGLE_HALF,
            modes={"grow": [[2.0]]},
        )
        assert main(["trajectory", write(doc), "--steps", "600"]) == 3
        assert "diverged" in capsys.readouterr().err

    def test_cap_exceeded_exits_1(self, write, capsys):
        assert main(
            [
                "trajectory", write(IID),
                "--steps", "19", "--method", "exact_mog",
                "--cap", "1000",
            ]
        ) == 1
        assert "cap" in capsys.readouterr().err

    def test_cap_message_at_long_horizon(self, write, capsys):
        # 2^20000 has 6021 digits, past Python's int-to-str limit
        assert main(
            [
                "trajectory", write(IID),
                "--steps", "20000", "--method", "exact_mog",
            ]
        ) == 1
        err = capsys.readouterr().err
        assert "2^20000*1 = ~10^6020 components" in err
        assert "cap=100000" in err

    def test_negative_steps_rejected(self, write, capsys):
        assert main(
            ["trajectory", write(SINGLE_HALF), "--steps", "-1"]
        ) == 1

    @needs_refused_allocation
    def test_impossible_size_exits_1(self, write, capsys):
        # 745 GiB of W^2 values, allocated before the first step: numpy
        # refuses at once
        argv = ["trajectory", write(IID), "--steps", "100000000000"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: Unable to allocate 745. GiB")
        assert captured.out == ""


class TestSimulate:
    def test_zero_modes(self, write, capsys):
        doc = {
            "n": 1,
            "modes": {"dead": [[0.0]]},
            "switching": {"type": "iid", "pi": [1.0]},
            "initial": [
                {"weight": 1.0, "mean": [1.0], "cov": [[1.0]]}
            ],
        }
        assert main(
            [
                "simulate", write(doc),
                "--steps", "4", "--trajectories", "64",
            ]
        ) == 0
        header, rows = read_csv(capsys.readouterr().out)
        assert header == ["k", "mean_sq", "stderr", "n_samples"]
        assert all(float(r[1]) == 0.0 for r in rows[1:])
        assert all(r[3] == "64" for r in rows)

    def test_same_seed_byte_identical(self, write, tmp_path):
        path = write(MARKOV)
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        args = [
            "simulate", path, "--steps", "8",
            "--trajectories", "2000", "--seed", "11",
            "--sampling", "path",
        ]
        assert main(args + ["--out", str(out_a)]) == 0
        assert main(args + ["--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_thread_count_does_not_change_bytes(self, write, tmp_path):
        path = write(IID)
        out_a = tmp_path / "t1.csv"
        out_b = tmp_path / "t4.csv"
        args = [
            "simulate", path, "--steps", "6",
            "--trajectories", "9000", "--seed", "5",
        ]
        assert main(args + ["--threads", "1", "--out", str(out_a)]) == 0
        assert main(args + ["--threads", "4", "--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_huge_finite_norms_print_finite_stderr(self, write, capsys):
        # under the reference draws (tests/reference.py) squared norms
        # reach 1e154 from k=40, where their plain squares overflowed and
        # stderr printed inf
        doc = dict(IID, modes={"huge": [[1e3]], "half": [[0.5]]})
        argv = ["simulate", write(doc), "--steps", "60",
                "--trajectories", "50"]
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        _, rows = read_csv(captured.out)
        assert len(rows) == 61
        assert all(math.isfinite(float(r[2])) for r in rows)
        assert float(rows[40][2]) > 1e150

    def test_one_trajectory_accepted(self, write, capsys):
        # unlike compare, simulate reports no verdict from the spread
        argv = ["simulate", write(IID), "--steps", "3", "--trajectories", "1"]
        assert main(argv) == 0
        _, rows = read_csv(capsys.readouterr().out)
        assert [row[2:] for row in rows] == [["0", "1"]] * 4

    def test_impossible_trajectories_exit_1(self, write, capsys):
        # 72.8 TiB of (T, n) states: numpy refuses before any draw
        argv = ["simulate", write(IID), "--steps", "1",
                "--trajectories", "10000000000000"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: Unable to allocate 72.8 TiB")
        assert captured.out == ""

    def test_impossible_steps_exit_1(self, write, capsys):
        # 218 TiB of per-step outputs: numpy refuses before any draw
        argv = ["simulate", write(IID), "--steps", "10000000000000",
                "--trajectories", "10"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: Unable to allocate 218. TiB")
        assert captured.out == ""

    def test_path_on_iid_rejected(self, write, capsys):
        assert main(
            [
                "simulate", write(IID),
                "--steps", "2", "--sampling", "path",
            ]
        ) == 1
        assert "path sampling requires" in capsys.readouterr().err

    def test_markov_default_samples_the_chain(self, write, capsys):
        # the chain that trajectory steps, W^2(2) = 0.572415; independent
        # draws from the marginals read 0.710513 +- 0.0025 here, 55 SE off
        argv = ["simulate", write(MARKOV), "--steps", "2",
                "--trajectories", "100000"]
        assert main(argv) == 0
        _, rows = read_csv(capsys.readouterr().out)
        assert abs(float(rows[2][1]) - 0.572415) <= 4 * float(rows[2][2])

    def test_marginal_on_markov_rejected(self, write, capsys):
        argv = ["simulate", write(MARKOV), "--steps", "3",
                "--sampling", "marginal"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: marginal sampling drops")
        assert "ScheduleSwitching(marginal_schedule(law, 3))" in captured.err


class TestCompare:
    @pytest.mark.parametrize("trajectories", ["1", "0"])
    def test_fewer_than_two_trajectories_rejected(self, write, capsys,
                                                  trajectories):
        # with one sample every standard error is 0, which made a random
        # step read as a deterministic one: "inf SE at k=0", FAIL
        argv = ["compare", write(IID), "--steps", "3",
                "--trajectories", trajectories]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: compare needs --trajectories >= 2 for a standard "
            f"error, got {trajectories}\n"
        )
        assert captured.out == ""

    def test_stable_iid_passes(self, write, capsys):
        doc = {
            "n": 1,
            "modes": {"a": [[0.5]], "b": [[0.3]]},
            "switching": {"type": "iid", "pi": [0.5, 0.5]},
            "initial": [
                {"weight": 1.0, "mean": [1.0], "cov": [[0.1]]}
            ],
        }
        assert main(
            [
                "compare", write(doc),
                "--steps", "8", "--trajectories", "4000",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "result: PASS" in out
        assert "max deviation" in out

    def test_markov_law_samples_paths(self, write, capsys):
        # the analytic trajectory steps the chain, W^2(2) = 0.572415; an
        # ensemble of marginal draws estimates 0.714025, tens of SE away
        argv = ["compare", write(MARKOV), "--steps", "2",
                "--trajectories", "20000"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "sampling: path, trajectories: 20000" in out
        assert "result: PASS" in out
        assert main(argv + ["--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["sampling"] == "path"
        assert payload["rows"][2]["w2"] == pytest.approx(0.572415,
                                                         rel=1e-12)

    def test_heavy_tail_steps_reported(self, write, capsys):
        args = [
            "compare", write(IID),
            "--steps", "10", "--trajectories", "50000", "--seed", "53",
        ]
        assert main(args) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[-1].startswith("result: ")
        assert lines[-2].startswith("heavy-tailed steps (SE unreliable): k=")
        flagged = lines[-2].split("k=", 1)[1].split(", ")
        assert main(args + ["--json"]) == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert [str(r["k"]) for r in rows if r["heavy_tail"]] == flagged

    def test_deviations_do_not_depend_on_the_scale_of_the_start(
        self, write, capsys
    ):
        # x0 scaled by 2^-30 scales every sample, mean and standard error
        # by exactly 2^-60, so each deviation is the same number
        tiny = json.loads(json.dumps(STABLE_IID))
        tiny["initial"][0].update(mean=[2.0**-30], cov=[[0.1 * 2.0**-60]])
        se_devs = []
        for doc in (STABLE_IID, tiny):
            assert main(
                [
                    "compare", write(doc), "--steps", "8",
                    "--trajectories", "4000", "--json",
                ]
            ) == 0
            rows = json.loads(capsys.readouterr().out)["rows"]
            se_devs.append([row["se_dev"] for row in rows])
        assert se_devs[0] == se_devs[1]
        assert max(se_devs[1]) > 0.0

    def test_deterministic_sequence_exact(self, write, capsys):
        assert main(
            [
                "compare", write(SEQ),
                "--steps", "6", "--trajectories", "50",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "max deviation: 0.00 SE" in out
        assert "result: PASS" in out

    def test_deterministic_disagreement_is_inf(self, write, capsys):
        """Every sample of a point mass under one mode is the same, so the
        standard error is 0; the moment route misses the sampled W^2 by
        far more than 1e-9 from k = 2 on, and such a step reads inf SE."""
        argv = ["compare", write(rotated_jordan()), "--steps", "4",
                "--trajectories", "2"]
        assert main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-2].startswith("max deviation: inf SE at k=")
        assert lines[-1] == "result: FAIL (threshold 4 SE)"
        assert main(argv + ["--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["pass"] is False
        assert payload["max_se_dev"] == "inf"
        assert all(row["stderr"] == 0.0 for row in payload["rows"])
        assert [row["se_dev"] for row in payload["rows"][2:]] == ["inf"] * 3

    def test_json_payload(self, write, capsys):
        assert main(
            [
                "compare", write(SEQ),
                "--steps", "4", "--trajectories", "20", "--json",
            ]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["pass"] is True
        assert payload["max_se_dev"] == 0.0
        assert len(payload["rows"]) == 5


class TestNoEigensolver:
    """Only ``analyze`` runs an eigensolver: a start's covariances are
    proved PSD by a Cholesky factor, a point mass factors to zeros and a
    singular covariance to a pivoted Cholesky factor."""

    STARTS = {
        "definite": [{"weight": 1.0, "mean": [1.0, -0.5],
                      "cov": [[0.4, 0.1], [0.1, 0.3]]}],
        "point-mass": [{"weight": 1.0, "mean": [1.0, -0.5],
                        "cov": [[0.0, 0.0], [0.0, 0.0]]}],
        "both": [{"weight": 0.3, "mean": [1.0, -0.5],
                  "cov": [[0.0, 0.0], [0.0, 0.0]]},
                 {"weight": 0.7, "mean": [0.0, 2.0],
                  "cov": [[0.4, 0.1], [0.1, 0.3]]}],
        "rank-one": [{"weight": 1.0, "mean": [1.0, -0.5],
                      "cov": [[1.0, 1.0], [1.0, 1.0]]}],
    }

    @pytest.mark.parametrize("start", STARTS)
    def test_outputs_without_eigh_or_eigvalsh(self, write, capsys,
                                              monkeypatch, start):
        path = write({
            "n": 2,
            "modes": {"a": [[0.6, 0.3], [-0.2, 0.5]],
                      "b": [[0.9, 0.0], [0.4, -0.7]]},
            "switching": {"type": "iid", "pi": [0.5, 0.5]},
            "initial": self.STARTS[start],
        })
        # two blocks of trajectories, the second ragged
        ensemble = ["--steps", "6", "--trajectories", "4100", "--seed", "3"]
        calls = [["trajectory", path, "--steps", "6", "--method", method]
                 for method in ("moment", "gamma", "exact_mog")]
        calls += [["simulate", path, *ensemble], ["compare", path, *ensemble]]
        outputs = []
        for argv in calls:
            assert main(argv) == 0
            outputs.append(capsys.readouterr().out)

        def refuse(*args, **kwargs):
            raise AssertionError("an eigensolver ran")

        for name in ("eig", "eigh", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, refuse)
        for argv, out in zip(calls, outputs):
            assert main(argv) == 0, argv
            assert capsys.readouterr().out == out, argv
        assert "result: PASS" in outputs[-1]


#: ``--help`` of ``jumpstab`` (key "") and of each subcommand, at 80 columns
HELP = {
    "": """\
usage: jumpstab [-h] {validate,analyze,trajectory,simulate,compare} ...

Mean-square stability analysis and distance-to-origin trajectories for
stochastic jump linear systems.

positional arguments:
  {validate,analyze,trajectory,simulate,compare}
    validate            check a system file and print a report
    analyze             run the stability test for the switching law
    trajectory          write the analytic W^2 trajectory as CSV
    simulate            write a Monte Carlo ensemble estimate as CSV
    compare             cross-check analytic trajectory against Monte Carlo

options:
  -h, --help            show this help message and exit
""",
    "validate": """\
usage: jumpstab validate [-h] [--json] file

positional arguments:
  file        JSON system description

options:
  -h, --help  show this help message and exit
  --json      emit the report as JSON
""",
    "analyze": """\
usage: jumpstab analyze [-h] [--margin MARGIN] [--horizon HORIZON]
                        [--assert-stable] [--json]
                        file

positional arguments:
  file               JSON system description

options:
  -h, --help         show this help message and exit
  --margin MARGIN    half-width of the marginal band around 1, in [0, 1)
                     (default 1e-09)
  --horizon HORIZON  steps the sequence contraction scan covers (default 500)
  --assert-stable    exit 2 unless the verdict certifies stability
  --json             emit the report as JSON
""",
    "trajectory": """\
usage: jumpstab trajectory [-h] --steps STEPS
                           [--method {moment,gamma,exact_mog}] [--cap CAP]
                           [--out OUT]
                           file

positional arguments:
  file                  JSON system description

options:
  -h, --help            show this help message and exit
  --steps STEPS         number of steps K
  --method {moment,gamma,exact_mog}
                        propagation route (default moment)
  --cap CAP             component cap for exact_mog (default 100000)
  --out OUT             CSV output path (default: stdout)
""",
    "simulate": """\
usage: jumpstab simulate [-h] --steps STEPS [--trajectories TRAJECTORIES]
                         [--seed SEED] [--sampling {marginal,path}]
                         [--threads THREADS] [--out OUT]
                         file

positional arguments:
  file                  JSON system description

options:
  -h, --help            show this help message and exit
  --steps STEPS         number of steps K
  --trajectories TRAJECTORIES
                        ensemble size (default 10000)
  --seed SEED           stream seed (default 0)
  --sampling {marginal,path}
                        mode draws, only the law's own: path for a Markov law,
                        marginal otherwise (default: the law's own)
  --threads THREADS     has no effect: the ensemble runs on the calling thread
                        (default 1)
  --out OUT             CSV output path (default: stdout)
""",
    "compare": """\
usage: jumpstab compare [-h] --steps STEPS [--trajectories TRAJECTORIES]
                        [--seed SEED] [--json]
                        file

positional arguments:
  file                  JSON system description

options:
  -h, --help            show this help message and exit
  --steps STEPS         number of steps K
  --trajectories TRAJECTORIES
                        ensemble size (default 10000)
  --seed SEED           stream seed (default 0)
  --json                emit the report as JSON
""",
}


class TestUsage:
    def test_unknown_subcommand_exits_1(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["frobnicate", "x.json"])
        assert info.value.code == 1

    def test_missing_steps_exits_1(self, write, capsys):
        with pytest.raises(SystemExit) as info:
            main(["trajectory", write(SINGLE_HALF)])
        assert info.value.code == 1

    def test_bad_method_choice_exits_1(self, write, capsys):
        with pytest.raises(SystemExit) as info:
            main(
                [
                    "trajectory", write(SINGLE_HALF),
                    "--steps", "2", "--method", "magic",
                ]
            )
        assert info.value.code == 1

    @pytest.mark.parametrize("command", list(HELP))
    def test_help_text(self, monkeypatch, capsys, command):
        monkeypatch.setenv("COLUMNS", "80")
        monkeypatch.setenv("NO_COLOR", "1")
        with pytest.raises(SystemExit) as info:
            main([command, "--help"] if command else ["--help"])
        assert info.value.code == 0
        assert capsys.readouterr().out == HELP[command]

    def test_compare_has_no_sampling(self, write, capsys):
        with pytest.raises(SystemExit) as info:
            main(
                [
                    "compare", write(SINGLE_HALF),
                    "--steps", "2", "--sampling", "path",
                ]
            )
        assert info.value.code == 1
        assert "unrecognized arguments: --sampling path" in (
            capsys.readouterr().err
        )

    def test_parser_defaults_are_the_library_constants(self):
        from jumpstab.cli import _build_parser
        from jumpstab.propagate import DEFAULT_COMPONENT_CAP
        from jumpstab.stability import DEFAULT_HORIZON, DEFAULT_MARGIN

        parser = _build_parser()
        ana = parser.parse_args(["analyze", "sys.json"])
        tra = parser.parse_args(["trajectory", "sys.json", "--steps", "1"])
        assert (ana.margin, ana.horizon, tra.cap) == (
            DEFAULT_MARGIN, DEFAULT_HORIZON, DEFAULT_COMPONENT_CAP
        )


#: ``python -m jumpstab`` run in process, then its exit code, the modules
#: it loaded, its OPENBLAS_NUM_THREADS and the count of objects frozen out
#: of collection as one JSON line
PROBE = (
    "import gc, json, os, runpy, sys\n"
    "code = None\n"
    "try:\n"
    "    runpy.run_module('jumpstab', run_name='__main__')\n"
    "except SystemExit as exc:\n"
    "    code = exc.code\n"
    "print(json.dumps([code, sorted(sys.modules), "
    "os.environ.get('OPENBLAS_NUM_THREADS'), gc.get_freeze_count()]))\n"
)


def without_blas_threads():
    return {
        k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"
    }


class TestSubprocess:
    """End-to-end runs through the installed module entry point."""

    def run(self, *argv):
        return subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "jumpstab",
             *argv],
            capture_output=True, text=True,
        )

    def test_analyze_end_to_end(self, write):
        proc = self.run("analyze", write(IID))
        assert proc.returncode == 0
        assert "unstable" in proc.stdout

    def test_overflowing_prefix_leaves_stderr_empty(self, write):
        # the second prefix product passes float64: the guard reports it
        doc = {
            "n": 2,
            "modes": {"wide": [[1e300, -1e300], [0.0, 0.0]],
                      "tall": [[1e140, 0.0], [1e140, 0.0]]},
            "switching": {"type": "sequence", "indices": [2, 1]},
            "initial": [{"weight": 1.0, "mean": [1.0, 0.0],
                         "cov": [[0.0, 0.0], [0.0, 0.0]]}],
        }
        proc = self.run("analyze", write(doc))
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout.splitlines()[2:] == [
            "verdict: inconclusive",
            "evidence: prefix product norm = 1.41421356237e+140",
            "horizon used: k=1",
            "note: prefix products exceeded the overflow guard at k=2",
            "note: no contractive prefix within 1 steps",
        ]

    @pytest.mark.parametrize("modes, pi, evidence", [
        ({"a": NEAR_THE_TOP}, [1.0], "0"),
        ({"a": NEAR_THE_TOP, "half": [[0.5, 0.0], [0.0, 0.5]]}, [0.5, 0.5],
         "0.125"),
    ], ids=["alone", "beside-half-I"])
    def test_map_near_the_float64_top_leaves_stderr_empty(self, write, modes,
                                                          pi, evidence):
        doc = dict(OVERFLOW, modes=modes,
                   switching={"type": "iid", "pi": pi})
        proc = subprocess.run(
            [sys.executable, "-m", "jumpstab", "analyze", write(doc)],
            capture_output=True, text=True)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout.splitlines()[2:] == [
            "verdict: stable", f"evidence: spectral radius = {evidence}"]

    def test_import_loads_no_scipy(self):
        proc = subprocess.run(
            [
                sys.executable, "-c",
                "import sys; from jumpstab import *; "
                "print(sorted(m for m in sys.modules "
                "if m.split('.')[0] == 'scipy'))",
            ],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_import_loads_no_thread_pool(self):
        # concurrent.futures pulls in logging; nothing in jumpstab uses it
        proc = subprocess.run(
            [
                sys.executable, "-c",
                "import sys; from jumpstab import *; "
                "print(sorted(m for m in sys.modules "
                "if m.split('.')[0] in ('concurrent', 'logging')))",
            ],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def probe(self, *argv, env=None):
        proc = subprocess.run(
            [sys.executable, "-c", PROBE, *argv],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout.splitlines()[-1])

    def test_import_loads_no_numpy(self):
        # submodules still resolve as attributes of the package
        proc = subprocess.run(
            [
                sys.executable, "-c",
                "import sys, jumpstab; "
                "print('numpy' in sys.modules, jumpstab.stability.__name__)",
            ],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False", "jumpstab.stability"]

    @pytest.mark.parametrize(
        "argv, code", [(["nope"], 1), (["--help"], 0)], ids=["usage", "help"]
    )
    def test_usage_and_help_load_no_numpy(self, argv, code):
        got, modules, *_ = self.probe(*argv)
        assert got == code
        assert "numpy" not in modules

    @pytest.mark.parametrize("flags, report", [
        ([], "OK"), (["--json"], '{\n  "ok": true,\n  "violations": []\n}'),
    ], ids=["text", "json"])
    def test_validate_loads_no_numpy(self, write, flags, report):
        proc = subprocess.run(
            [sys.executable, "-c", PROBE, "validate", *flags, write(IID)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        *lines, last = proc.stdout.splitlines()
        code, modules, *_ = json.loads(last)
        assert ("\n".join(lines), code) == (report, 0)
        assert "numpy" not in modules

    def test_validate_non_psd_covariance(self, write):
        # the reader cannot clear it, so numpy's eigvalsh words the message
        doc = dict(SPREAD, n=2, modes={"half": [[0.5, 0.0], [0.0, 0.5]]},
                   initial=[{"weight": 1.0, "mean": [0.0, 0.0],
                             "cov": [[1, 2], [2, 1]]}])
        proc = self.run("validate", write(doc))
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            1, "violation: component 1 covariance is not PSD: smallest "
               "eigenvalue -1.000e+00\n", "")

    @pytest.mark.parametrize("argv, unused", [
        (["validate"], ("stability", "propagate", "mcsim")),
        (["analyze"], ("mcsim", "propagate", "wasserstein")),
        (["trajectory", "--steps", "2"], ("stability", "mcsim")),
        (["simulate", "--steps", "2", "--trajectories", "4"],
         ("stability", "propagate", "wasserstein", "moments")),
    ], ids=["validate", "analyze", "trajectory", "simulate"])
    def test_subcommand_loads_only_its_modules(self, write, argv, unused):
        code, modules, *_ = self.probe(argv[0], write(IID), *argv[1:])
        assert code == 0
        assert [m for m in unused if f"jumpstab.{m}" in modules] == []

    @pytest.mark.parametrize("preset, seen", [(None, "1"), ("2", "2")])
    def test_blas_threads_default_to_one_unless_set(self, write, preset,
                                                    seen):
        env = without_blas_threads()
        if preset is not None:
            env["OPENBLAS_NUM_THREADS"] = preset
        code, _, blas, _ = self.probe("validate", write(IID), env=env)
        assert (code, blas) == (0, seen)

    @pytest.mark.skipif(
        not hasattr(os, "sched_getaffinity")
        or len(os.sched_getaffinity(0)) < 2,
        reason="needs two CPUs",
    )
    def test_cpu_count_does_not_change_bytes(self, write):
        # a threaded gemm sums in an order set by the CPUs it may use
        path = write(lift_sized_iid())
        cpus = os.sched_getaffinity(0)
        outputs = []
        for allowed in ({min(cpus)}, cpus):
            proc = subprocess.run(
                [
                    sys.executable, "-m", "jumpstab", "trajectory", path,
                    "--steps", "80", "--method", "gamma",
                ],
                capture_output=True, env=without_blas_threads(),
                preexec_fn=lambda: os.sched_setaffinity(0, allowed),
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]

    def test_exact_route_bytes_do_not_depend_on_blas_threads(self, write):
        # W^2 of 59,049 components: a BLAS dot summed them in an order set
        # by the thread count, W^2(10) = ...3845 at one thread, ...3834 at
        # two
        doc = {
            "n": 1,
            "modes": {"A1": [[1.0417177347505064]],
                      "A2": [[-0.5730628174162766]],
                      "A3": [[1.0713367796174833]]},
            "switching": {"type": "iid",
                          "pi": [0.3285122287790536, 0.33831466630373036,
                                 0.3331731049172162]},
            "initial": [{"weight": 0.9999999999999999,
                         "mean": [-2.7111624789659685],
                         "cov": [[0.35683710434413235]]}],
        }
        path, outputs = write(doc), []
        for threads in ("1", "2"):
            env = dict(without_blas_threads(), OPENBLAS_NUM_THREADS=threads)
            proc = subprocess.run(
                [sys.executable, "-m", "jumpstab", "trajectory", path,
                 "--steps", "10", "--method", "exact_mog"],
                capture_output=True, env=env,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("doc, code", [(IID, 0), (None, 1)],
                             ids=["analyze", "usage-error"])
    def test_process_entry_freezes_the_heap(self, write, doc, code):
        """The interpreter's final collections skip what ``run`` froze;
        argparse's SystemExit leaves through the same ``finally``."""
        got, _, _, frozen = self.probe("analyze",
                                       *([write(doc)] if doc else []))
        assert got == code
        assert frozen > 0

    @pytest.mark.parametrize("argv", [
        ["validate"], ["analyze"], ["trajectory", "--steps", "2"],
        ["simulate", "--steps", "2", "--trajectories", "4"],
        ["compare", "--steps", "2", "--trajectories", "64"],
    ], ids=lambda argv: argv[0])
    def test_main_in_process_freezes_nothing(self, write, capsys, argv):
        before = gc.get_freeze_count()
        assert main([argv[0], write(IID), *argv[1:]]) == 0
        capsys.readouterr()
        assert gc.get_freeze_count() == before

    @pytest.mark.parametrize("argv, doc, code", [
        (["analyze"], IID, 0),
        (["nope"], None, 1),
        (["analyze", "missing.json"], None, 1),
        (["analyze", "--assert-stable"], IID, 2),
        (["trajectory", "--steps", "30"],
         TestOverflow.scalar([1.5], [1.0], 1e150), 3),
    ], ids=["analyze", "usage-error", "unreadable", "assert-stable",
            "w2-diverges"])
    def test_process_keeps_every_exit_and_byte(self, write, capsys, argv,
                                               doc, code):
        """Each way out of ``python -m jumpstab`` prints and returns what
        ``main`` does in process."""
        argv = [argv[0], *([write(doc)] if doc else []), *argv[1:]]
        try:
            inproc = main(argv)
        except SystemExit as exc:
            inproc = exc.code
        captured = capsys.readouterr()
        proc = self.run(*argv)
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            inproc, captured.out, captured.err)
        assert inproc == code

    @pytest.mark.parametrize("argv", [
        ["trajectory", "--steps", "4", "--method", "exact_mog"],
        ["simulate", "--steps", "4", "--trajectories", "300"],
    ], ids=lambda argv: argv[0])
    def test_out_file_is_closed_and_complete(self, write, tmp_path, argv):
        """No final collection reaches an open file: each ``--out`` file
        holds the bytes the same call prints to stdout."""
        argv = [argv[0], write(MARKOV), *argv[1:]]
        out = tmp_path / "out.csv"
        printed = subprocess.run([sys.executable, "-m", "jumpstab", *argv],
                                 capture_output=True)
        written = subprocess.run(
            [sys.executable, "-m", "jumpstab", *argv, "--out", str(out)],
            capture_output=True)
        assert (printed.returncode, printed.stderr) == (0, b"")
        assert (written.returncode, written.stdout, written.stderr) == (
            0, b"", b"")
        assert out.read_bytes() == printed.stdout

    def test_cross_process_csv_determinism(self, write, tmp_path):
        path = write(MARKOV)
        out_a = tmp_path / "p1.csv"
        out_b = tmp_path / "p2.csv"
        base = [
            "simulate", path, "--steps", "6",
            "--trajectories", "1500", "--seed", "3",
        ]
        proc_a = self.run(*base, "--threads", "1", "--out", str(out_a))
        proc_b = self.run(*base, "--threads", "3", "--out", str(out_b))
        assert proc_a.returncode == 0 and proc_b.returncode == 0
        assert out_a.read_bytes() == out_b.read_bytes()
