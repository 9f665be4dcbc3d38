"""Real-time multi-channel sEMG gesture recognition with activation maps."""

from .config import SessionConfig
from .dsp import (
    BiquadCoefficients,
    EnvelopeFilter,
    design_butterworth_lowpass,
    envelope_stream,
)
from .engine import (Engine, Prediction, SuppressedOnset, difference_series,
                     run_replay)
from .errors import TmagestError
from .cnn import (
    CnnArchitecture,
    CnnModel,
    TrainingExample,
    forward,
    predict,
    train,
)
from .onset import (
    OnsetDetector,
    OnsetEvent,
    ThresholdCalibration,
    calibrate_threshold,
    difference,
)
from .pipeline import (EvaluationReport, evaluate, extract_training_set,
                       training_set)
from .recording import Annotation, Recording
from .synth import GestureTemplate, SessionScript, default_template_set, generate
from .tma import (
    FrameRing,
    NormalizationBounds,
    TmaMap,
    fit_normalization,
)

__version__ = "0.1.0"

__all__ = [
    "Annotation",
    "BiquadCoefficients",
    "CnnArchitecture",
    "CnnModel",
    "Engine",
    "EnvelopeFilter",
    "EvaluationReport",
    "FrameRing",
    "GestureTemplate",
    "NormalizationBounds",
    "OnsetDetector",
    "OnsetEvent",
    "Prediction",
    "Recording",
    "SessionConfig",
    "SessionScript",
    "SuppressedOnset",
    "ThresholdCalibration",
    "TmaMap",
    "TmagestError",
    "TrainingExample",
    "calibrate_threshold",
    "default_template_set",
    "design_butterworth_lowpass",
    "difference",
    "difference_series",
    "envelope_stream",
    "evaluate",
    "extract_training_set",
    "fit_normalization",
    "forward",
    "generate",
    "predict",
    "run_replay",
    "train",
    "training_set",
]
