"""Command-line interface: exit codes, report text, CSV contracts.

Most cases drive ``main()`` in process for speed; a few go through
``python -m jumpstab`` subprocesses to pin the installed entry point and
cross-process byte determinism.
"""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

from jumpstab.cli import main

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
SINGLE_HALF = {
    "n": 1,
    "modes": {"half": [[0.5]]},
    "switching": {"type": "iid", "pi": [1.0]},
    "initial": [{"weight": 1.0, "mean": [1.0], "cov": [[0.0]]}],
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

    def test_missing_file(self, capsys):
        assert main(["validate", "/nonexistent/sys.json"]) == 1
        assert "error" in capsys.readouterr().err


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
            "note: stationary distribution: unique\n"
        )


class TestOverflow:
    """Overflowing second moments end in exit 3, never NaN rows or exit 1."""

    @pytest.mark.parametrize("law", sorted(OVERFLOW_LAWS))
    def test_analyze_exits_3(self, write, capsys, law):
        doc = dict(OVERFLOW, switching=OVERFLOW_LAWS[law])
        assert main(["analyze", write(doc)]) == 3
        captured = capsys.readouterr()
        assert "numerical failure" in captured.err
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

    @pytest.mark.parametrize(
        "doc, steps, k",
        [
            (SPREAD, 3, 0),
            (dict(IID, modes={"huge": [[1e3]], "half": [[0.5]]}), 120, 87),
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

    @pytest.mark.parametrize("method", ["moment", "gamma", "exact_mog"])
    def test_w2_past_float_range_exits_3(self, write, capsys, method):
        """W^2(k) = 1e300 2.25^k leaves float64 at k = 24 on every route."""
        doc = self.scalar([1.5], [1.0], 1e150)
        argv = ["trajectory", write(doc), "--steps", "30", "--method", method]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith("numerical failure: ")
        assert "diverged at k=24 " in captured.err
        assert captured.out == ""


class TestTrajectory:
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

    def test_impossible_size_exits_1(self, write, capsys):
        # 1.46 TiB of schedule rows: numpy refuses at once
        argv = ["trajectory", write(IID), "--steps", "100000000000"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: Unable to allocate 1.46 TiB")
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
        # squared norms reach 1e154 from k=37, where their plain squares
        # overflowed and stderr printed inf
        doc = dict(IID, modes={"huge": [[1e3]], "half": [[0.5]]})
        argv = ["simulate", write(doc), "--steps", "60",
                "--trajectories", "50"]
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        _, rows = read_csv(captured.out)
        assert len(rows) == 61
        assert all(math.isfinite(float(r[2])) for r in rows)
        assert float(rows[37][2]) > 1e150

    def test_impossible_size_exits_1(self, write, capsys):
        # 72.8 TiB of samples: numpy refuses at once, nothing is allocated
        argv = ["simulate", write(IID), "--steps", "100000000",
                "--trajectories", "100000"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: Unable to allocate 72.8 TiB")
        assert captured.out == ""

    def test_path_on_iid_rejected(self, write, capsys):
        assert main(
            [
                "simulate", write(IID),
                "--steps", "2", "--sampling", "path",
            ]
        ) == 1
        assert "path sampling requires" in capsys.readouterr().err


class TestCompare:
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

    def test_path_mode_prints_both_numbers(self, write, capsys):
        assert main(
            [
                "compare", write(MARKOV),
                "--steps", "6", "--trajectories", "2000",
                "--sampling", "path",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "marginal-sampling max deviation" in out
        assert "note:" in out

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


class TestSubprocess:
    """End-to-end runs through the installed module entry point."""

    def run(self, *argv):
        return subprocess.run(
            [sys.executable, "-m", "jumpstab", *argv],
            capture_output=True, text=True,
        )

    def test_analyze_end_to_end(self, write):
        proc = self.run("analyze", write(IID))
        assert proc.returncode == 0
        assert "unstable" in proc.stdout

    def test_import_loads_no_scipy(self):
        proc = subprocess.run(
            [
                sys.executable, "-c",
                "import sys, jumpstab; "
                "print(sorted(m for m in sys.modules "
                "if m.split('.')[0] == 'scipy'))",
            ],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_import_loads_no_thread_pool(self):
        # concurrent.futures pulls in logging; only --threads > 1 needs it
        proc = subprocess.run(
            [
                sys.executable, "-c",
                "import sys, jumpstab; "
                "print(sorted(m for m in sys.modules "
                "if m.split('.')[0] in ('concurrent', 'logging')))",
            ],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_usage_error_returncode(self):
        proc = self.run("nope")
        assert proc.returncode == 1

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
