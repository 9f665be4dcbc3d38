"""Session configuration: every tunable of the recognition pipeline in one place.

The defaults describe the reference setup this engine was built around: an
8-channel armband sampled at 200 Hz, 2 Hz envelope smoothing, 0.4 s activation
maps advanced every 0.1 s, a 2 s detection refractory, and 0.3 s training
windows from each onset.
"""

from __future__ import annotations

import json
import math
import numbers
import sys
from dataclasses import asdict, dataclass, fields
from functools import cache
from pathlib import Path
from typing import get_type_hints

from .errors import ConfigError

DEFAULT_GESTURES: tuple[str, ...] = (
    "middle-flexion",
    "ring-flexion",
    "v-flexion",
    "hand-closure",
    "pointer",
)


def is_finite_real(value) -> bool:
    """A real number, not a bool, inside the finite range of a float."""
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


# What a field of each annotated type accepts: bool is an int subclass.
_FIELD_KINDS = {
    int: ("an integer",
          lambda v: isinstance(v, numbers.Integral) and not isinstance(v, bool)),
    float: ("a finite number", is_finite_real),
    bool: ("true or false", lambda v: isinstance(v, bool)),
}
_annotations = cache(get_type_hints)


def check_field_types(obj, skip: tuple[str, ...] = ()) -> None:
    """Raise a ConfigError naming the first int, float or bool field of the
    dataclass ``obj``, outside ``skip``, that its annotation refuses; store
    each int field as a plain ``int``, on frozen dataclasses too."""
    for name, kind in _annotations(type(obj)).items():
        if kind in _FIELD_KINDS and name not in skip:
            expected, accepts = _FIELD_KINDS[kind]
            value = getattr(obj, name)
            if not accepts(value):
                raise ConfigError(f"field '{name}' is {value!r}, expected {expected}")
            if kind is int:
                object.__setattr__(obj, name, int(value))


@dataclass
class SessionConfig:
    """All pipeline hyperparameters for one recognition session.

    Attributes:
        sample_rate: Sampling frequency in Hz.
        channels: Number of electrode channels.
        envelope_cutoff_hz: Low-pass cutoff of the envelope filter (Hz).
        map_width: Activation-map window length in samples.
        map_stride: Samples between consecutive map evaluations.
        refractory: Detection pause after an onset, in samples.
        extraction_width: Training maps per onset: one map ends at the onset
            and at each of the next ``extraction_width - 1`` samples, the
            detection delays the classifier is trained for.
        threshold_multiplier: Scale applied to the mean per-gesture spread of
            the difference signal when calibrating the onset threshold.
        gestures: Ordered gesture label names; their count fixes the number
            of classifier output classes.
        conv1_filters / conv2_filters: Convolution filter counts.
        batch_size: SGD mini-batch size.
        learning_rate: SGD learning rate.
        epochs: SGD epochs.
        seed: Master seed; all randomness (synthesis, weight init, shuffling)
            derives from it.
        suppress_alternate_onsets: When true, every second onset (the return
            to neutral) is reported but not classified.
    """

    sample_rate: float = 200.0
    channels: int = 8
    envelope_cutoff_hz: float = 2.0
    map_width: int = 80
    map_stride: int = 20
    refractory: int = 400
    extraction_width: int = 60
    threshold_multiplier: float = 4.0
    gestures: tuple[str, ...] = DEFAULT_GESTURES
    conv1_filters: int = 8
    conv2_filters: int = 16
    batch_size: int = 32
    learning_rate: float = 0.001
    epochs: int = 15
    seed: int = 0
    suppress_alternate_onsets: bool = True

    def __post_init__(self):
        check_field_types(self)
        # a str would pass as a sequence of one-letter labels
        if not isinstance(self.gestures, (list, tuple)) or not all(
                isinstance(g, str) and g for g in self.gestures):
            raise ConfigError("gestures must be a list of non-empty strings, "
                              f"got {self.gestures!r}")
        self.gestures = tuple(self.gestures)
        if self.sample_rate <= 0:
            raise ConfigError(f"sample_rate must be positive, got {self.sample_rate}")
        if self.channels < 1:
            raise ConfigError(f"channels must be >= 1, got {self.channels}")
        if not 0 < self.envelope_cutoff_hz < self.sample_rate / 2:
            raise ConfigError(
                f"envelope_cutoff_hz must lie in (0, {self.sample_rate / 2}), "
                f"got {self.envelope_cutoff_hz}"
            )
        if self.map_width <= 0:
            raise ConfigError(f"map_width must be positive, got {self.map_width}")
        if not 0 < self.map_stride <= self.map_width:
            raise ConfigError(
                f"map_stride must lie in (0, map_width={self.map_width}], "
                f"got {self.map_stride}"
            )
        if self.refractory < self.map_stride:
            raise ConfigError(
                f"refractory must be >= map_stride, got {self.refractory}"
            )
        if self.extraction_width < 2:
            raise ConfigError(
                f"extraction_width must be >= 2, got {self.extraction_width}"
            )
        if self.threshold_multiplier <= 0:
            raise ConfigError("threshold_multiplier must be positive")
        if len(self.gestures) < 2:
            raise ConfigError("need at least 2 gesture labels")
        if len(set(self.gestures)) != len(self.gestures):
            raise ConfigError("gesture labels must be unique")
        for knob in ("conv1_filters", "conv2_filters", "batch_size"):
            if getattr(self, knob) < 1:
                raise ConfigError(f"{knob} must be >= 1")
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be positive")
        if self.epochs < 0:
            raise ConfigError("epochs must be >= 0")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")

    @property
    def warmup_samples(self) -> int:
        """Samples to discard while the envelope filter settles from zero state."""
        return math.ceil(2.0 * self.sample_rate / self.envelope_cutoff_hz)

    @property
    def feature_rows(self) -> int:
        """Rows of an activation map: channels plus all channel pair products."""
        from .tma import feature_rows   # tma checks its bounds with this module
        return feature_rows(self.channels)

    def to_dict(self) -> dict:
        d = asdict(self)
        d["gestures"] = list(self.gestures)
        return d

    @classmethod
    def from_dict(cls, data: dict) -> "SessionConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)

    @classmethod
    def load(cls, path: str | Path) -> "SessionConfig":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except ValueError as exc:    # also bytes that are not UTF-8
            raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError(f"{path}: config file must hold a JSON object")
        return cls.from_dict(data)

    def save(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
