import dataclasses
import math
import typing

import numpy as np
import pytest

from tmagest.cnn import CnnArchitecture, TrainingMetadata
from tmagest.config import SessionConfig
from tmagest.errors import ConfigError
from tmagest.onset import ThresholdCalibration
from tmagest.tma import NormalizationBounds

REFERENCE_DEFAULTS = {
    "sample_rate": 200.0,
    "channels": 8,
    "envelope_cutoff_hz": 2.0,
    "map_width": 80,
    "map_stride": 20,
    "refractory": 400,
    "extraction_width": 60,
    "threshold_multiplier": 4.0,
    "learning_rate": 0.001,
    "epochs": 15,
}


class TestDefaults:
    @pytest.mark.parametrize("field,expected",
                             sorted(REFERENCE_DEFAULTS.items()))
    def test_reference_constants(self, field, expected):
        assert getattr(SessionConfig(), field) == expected

    def test_five_gesture_classes(self):
        config = SessionConfig()
        assert len(config.gestures) == 5

    def test_architecture_defaults(self):
        arch = CnnArchitecture(44, 80, 8, 16, 5)
        assert arch.kernel == 3
        assert arch.fc1_units == 100
        assert arch.fc2_units == 20

    def test_derived_quantities(self):
        config = SessionConfig()
        assert config.feature_rows == 44
        assert config.warmup_samples == 200
        assert config.refractory / config.sample_rate == 2.0
        assert config.map_width / config.sample_rate == 0.4
        assert config.map_stride / config.sample_rate == 0.1
        assert config.extraction_width / config.sample_rate == 0.3


class TestValidation:
    @pytest.mark.parametrize("kwargs", [
        dict(map_width=0),
        dict(map_stride=0),
        dict(map_stride=81),
        dict(refractory=10),
        dict(extraction_width=1),
        dict(envelope_cutoff_hz=100.0),
        dict(envelope_cutoff_hz=0.0),
        dict(sample_rate=0.0),
        dict(channels=0),
        dict(threshold_multiplier=0.0),
        dict(gestures=("only",)),
        dict(gestures=("dup", "dup")),
        dict(learning_rate=0.0),
        dict(epochs=-1),
        dict(batch_size=0),
        dict(map_width=80.0),
        dict(batch_size=32.5),
        dict(epochs=True),
        dict(seed=None),
        dict(channels="8"),
        dict(gestures="abcde"),
        dict(gestures=("a", "")),
        dict(gestures=("a", 3)),
        dict(sample_rate="200"),
        dict(learning_rate=float("nan")),
        dict(threshold_multiplier=True),
        dict(suppress_alternate_onsets="no"),
        dict(sample_rate=10 ** 400),            # beyond the float range
        dict(seed=-1),                          # numpy seeds are >= 0
    ])
    def test_rejects(self, kwargs):
        with pytest.raises(ConfigError):
            SessionConfig(**kwargs)

    def test_json_types_checked(self):
        with pytest.raises(ConfigError, match="channels"):
            SessionConfig.from_dict({"channels": "8"})

    def test_accepts_numpy_integers_and_integral_reals(self):
        config = SessionConfig(channels=np.int64(4), sample_rate=250,
                               gestures=["a", "b"])
        assert type(config.channels) is int and config.channels == 4
        assert config.gestures == ("a", "b")


VALID_INSTANCES = (
    SessionConfig(),
    CnnArchitecture(44, 80, 8, 16, 5),
    NormalizationBounds(0.0, 1.0, 0.0, 1.0),
    TrainingMetadata(seed=3, epochs=15, learning_rate=0.001, batch_size=32,
                     final_loss=0.5),
    ThresholdCalibration(per_gesture_sigma={"a": 1.0}, threshold=4.0,
                         multiplier=4.0),
)
# annotation: (what the error says is expected, values it refuses)
WRONG_VALUES = {
    int: ("an integer", (True, 1.5)),
    float: ("a finite number", ("1", math.nan, math.inf, -math.inf)),
    bool: ("true or false", (1,)),
}


def wrong_field_values():
    """(instance, field, value, expected): each int, float or bool field of
    each checked dataclass, taken from dataclasses.fields, with each value
    its annotation refuses."""
    for instance in VALID_INSTANCES:
        hints = typing.get_type_hints(type(instance))
        for f in dataclasses.fields(instance):
            expected, values = WRONG_VALUES.get(hints[f.name], ("", ()))
            for value in values:
                yield pytest.param(
                    instance, f.name, value, expected,
                    id=f"{type(instance).__name__}-{f.name}-{value!r}")


class TestFieldTypes:
    @pytest.mark.parametrize("instance,field,value,expected",
                             wrong_field_values())
    def test_wrong_type_names_the_field(self, instance, field, value,
                                        expected):
        with pytest.raises(ConfigError,
                           match=f"field '{field}' is .*, expected {expected}"):
            dataclasses.replace(instance, **{field: value})

    def test_integral_values_are_stored_as_int(self):
        arch = CnnArchitecture(np.int64(44), 80, 8, 16, 5)
        assert type(arch.input_rows) is int and arch.input_rows == 44


class TestSerialization:
    def test_round_trip(self, tmp_path):
        config = SessionConfig(seed=99, gestures=("x", "y"),
                               envelope_cutoff_hz=3.0)
        path = tmp_path / "config.json"
        config.save(path)
        assert SessionConfig.load(path) == config

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            SessionConfig.from_dict({"volume": 11})

    def test_malformed_json_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        with pytest.raises(ConfigError):
            SessionConfig.load(path)

    def test_non_utf8_file_names_file(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_bytes(b'{"gestures": ["\xff", "b"]}')
        with pytest.raises(ConfigError, match="can't decode byte 0xff") as err:
            SessionConfig.load(path)
        assert str(path) in str(err.value)
