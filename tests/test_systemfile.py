"""System description file parsing and error context."""

import copy
import json

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from jumpstab.systemfile import (
    SystemFileError,
    _build,
    _decode,
    load_system_file,
)
from jumpstab.sysmodel import (
    IIDSwitching,
    MarkovSwitching,
    ScheduleSwitching,
    SequenceSwitching,
    validate_system,
)

BASE = {
    "n": 2,
    "modes": {
        "slow": [[0.5, 0.0], [0.0, 0.5]],
        "fast": [[2.0, 0.0], [0.0, 2.0]],
    },
    "switching": {"type": "iid", "pi": [0.5, 0.5]},
    "initial": [
        {
            "weight": 1.0,
            "mean": [1.0, 0.0],
            "cov": [[0.1, 0.0], [0.0, 0.1]],
        }
    ],
}


LAWS = {
    "iid": IIDSwitching,
    "markov": MarkovSwitching,
    "schedule": ScheduleSwitching,
    "sequence": SequenceSwitching,
}


def doc(**overrides):
    out = copy.deepcopy(BASE)
    out.update(overrides)
    return out


def assert_parsed(sf, data):
    """The parsed arrays, modes in key order, and law type equal the
    document."""
    assert_array_equal(sf.system.modes, list(data["modes"].values()))
    law = data["switching"]
    assert type(sf.switching) is LAWS[law["type"]]
    for field, value in law.items():
        if field != "type":
            assert_array_equal(getattr(sf.switching, field), value)
    initial = data["initial"]
    assert_array_equal(sf.initial.weights, [c["weight"] for c in initial])
    assert_array_equal(sf.initial.means, [c["mean"] for c in initial])
    assert_array_equal(sf.initial.covs, [c["cov"] for c in initial])


class TestRoundTrip:
    """Each parsed document holds exactly its arrays and law."""

    def test_iid_dict_round_trip(self):
        data = doc()
        assert_parsed(_build(*_decode(data)), data)

    def test_markov_dict_round_trip(self):
        data = doc(
            switching={
                "type": "markov",
                "P": [[0.3, 0.7], [0.7, 0.3]],
                "pi0": [0.5, 0.5],
            }
        )
        assert_parsed(_build(*_decode(data)), data)

    def test_schedule_dict_round_trip(self):
        data = doc(
            switching={
                "type": "schedule",
                "vectors": [[1.0, 0.0], [0.0, 1.0]],
            }
        )
        assert_parsed(_build(*_decode(data)), data)

    def test_sequence_dict_round_trip(self):
        data = doc(switching={"type": "sequence", "indices": [1, 2, 2]})
        sf = _build(*_decode(data))
        assert sf.switching.indices == (1, 2, 2)
        assert_parsed(sf, data)

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "sys.json"
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc(), handle, indent=2)
        assert_parsed(load_system_file(path), doc())

    def test_mode_order_follows_keys(self):
        data = doc(
            modes={
                "z_last": [[1.0, 0.0], [0.0, 1.0]],
                "a_first": [[0.0, 0.0], [0.0, 0.0]],
            }
        )
        sf = _build(*_decode(data))
        assert_array_equal(sf.system.modes, [np.eye(2), np.zeros((2, 2))])

    def test_parsed_file_passes_validation(self):
        sf = _build(*_decode(doc()))
        report = validate_system(sf.system, sf.switching, sf.initial)
        assert report.ok

    def test_value_errors_are_left_to_validation(self):
        # a pi summing to 1.2 is schema-valid; the validation report,
        # not the parser, must name it
        sf = _build(*_decode(
            doc(switching={"type": "iid", "pi": [0.6, 0.6]})
        ))
        report = validate_system(sf.system, sf.switching, sf.initial)
        assert not report.ok
        assert "probability sum" in str(report)


class TestParseErrors:
    def test_missing_field(self):
        data = doc()
        del data["initial"]
        with pytest.raises(SystemFileError, match="missing field 'initial'"):
            _build(*_decode(data))

    def test_unknown_field(self):
        with pytest.raises(SystemFileError, match="unknown field 'extra'"):
            _build(*_decode(doc(extra=1)))

    def test_bad_n(self):
        with pytest.raises(SystemFileError, match="positive integer"):
            _build(*_decode(doc(n=0)))
        with pytest.raises(SystemFileError, match="positive integer"):
            _build(*_decode(doc(n=True)))

    def test_row_length_names_the_mode(self):
        data = doc(
            modes={
                "slow": [[0.5, 0.0], [0.0]],
                "fast": [[2.0, 0.0], [0.0, 2.0]],
            }
        )
        with pytest.raises(SystemFileError, match="mode 'slow' row 2"):
            _build(*_decode(data))

    def test_mode_size_mismatch(self):
        data = doc(modes={"slow": [[0.5]]})
        with pytest.raises(SystemFileError, match="mode 'slow'"):
            _build(*_decode(data))

    def test_non_numeric_entry(self):
        data = doc(
            modes={
                "slow": [[0.5, "x"], [0.0, 0.5]],
                "fast": [[2.0, 0.0], [0.0, 2.0]],
            }
        )
        with pytest.raises(SystemFileError, match="must be a number"):
            _build(*_decode(data))

    def test_non_finite_entry(self):
        # Python's json module accepts the Infinity literal; the schema
        # must not
        text = json.dumps(doc()).replace("0.5, 0.0", "Infinity, 0.0", 1)
        with pytest.raises(SystemFileError, match="finite"):
            _build(*_decode(json.loads(text)))

    def test_unknown_switching_type(self):
        with pytest.raises(SystemFileError, match="switching.type"):
            _build(*_decode(doc(switching={"type": "levy"})))

    def test_missing_switching_tag(self):
        with pytest.raises(SystemFileError, match="'type'"):
            _build(*_decode(doc(switching={"pi": [1.0]})))

    def test_markov_requires_square_p(self):
        data = doc(
            switching={
                "type": "markov",
                "P": [[0.3, 0.7]],
                "pi0": [0.5, 0.5],
            }
        )
        with pytest.raises(SystemFileError, match="square"):
            _build(*_decode(data))

    def test_markov_pi0_length(self):
        data = doc(
            switching={
                "type": "markov",
                "P": [[0.3, 0.7], [0.7, 0.3]],
                "pi0": [1.0],
            }
        )
        with pytest.raises(SystemFileError, match="switching.pi0"):
            _build(*_decode(data))

    def test_sequence_rejects_non_integers(self):
        with pytest.raises(SystemFileError, match="indices\\[1\\]"):
            _build(*_decode(
                doc(switching={"type": "sequence", "indices": [1, 1.5]})
            ))
        with pytest.raises(SystemFileError, match="indices\\[0\\]"):
            _build(*_decode(
                doc(switching={"type": "sequence", "indices": [True]})
            ))

    def test_schedule_ragged_vectors(self):
        data = doc(
            switching={
                "type": "schedule",
                "vectors": [[1.0, 0.0], [1.0]],
            }
        )
        with pytest.raises(SystemFileError, match="switching.vectors"):
            _build(*_decode(data))

    def test_initial_component_errors(self):
        data = doc(initial=[{"weight": 1.0, "mean": [1.0, 0.0]}])
        with pytest.raises(SystemFileError, match="missing field 'cov'"):
            _build(*_decode(data))
        data = doc(
            initial=[
                {
                    "weight": 1.0,
                    "mean": [1.0],
                    "cov": [[0.1, 0.0], [0.0, 0.1]],
                }
            ]
        )
        with pytest.raises(
            SystemFileError, match="initial\\[0\\].mean has length 1"
        ):
            _build(*_decode(data))

    def test_initial_must_be_nonempty(self):
        with pytest.raises(SystemFileError, match="initial"):
            _build(*_decode(doc(initial=[])))

    def test_invalid_json_reports_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"n": 2,\n  "modes": }', encoding="utf-8")
        with pytest.raises(SystemFileError, match="line 2 column"):
            load_system_file(path)

    def test_top_level_must_be_object(self):
        with pytest.raises(SystemFileError, match="must be an object"):
            _build(*_decode([1, 2, 3]))


def substitutions(node, path=()):
    """Yield (path, value) for every leaf and row of a document, each
    value replaced by one ill-typed or edge-case stand-in in turn."""
    for stand_in in ([], [[]], "x", True, None, json.loads("1e400")):
        yield path, stand_in
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield from substitutions(child, path + (key,))


def replaced(data, path, value):
    if not path:
        return value
    out = copy.deepcopy(data)
    node = out
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return out


class TestOnlySystemFileErrors:
    """The reader either builds the objects or raises SystemFileError;
    no constructor's plain ValueError escapes it."""

    DOCS = [
        doc(),
        doc(switching={"type": "markov", "P": [[0.3, 0.7], [0.7, 0.3]],
                       "pi0": [0.5, 0.5]}),
        doc(switching={"type": "schedule", "vectors": [[1.0, 0.0]]}),
        doc(switching={"type": "sequence", "indices": [1, 2]}),
    ]

    @pytest.mark.parametrize("data", DOCS, ids=list(LAWS))
    def test_every_substitution(self, data):
        for path, value in substitutions(data):
            try:
                _build(*_decode(replaced(data, path, value)))
            except SystemFileError:
                pass
            except Exception as exc:
                pytest.fail(f"{path} = {value!r}: {exc!r}")
