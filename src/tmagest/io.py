"""File formats: recordings (CSV), models (binary container), exports.

Recordings are human-inspectable CSV with header ``t,ch0,...,ch{L-1}``; the
channel values are rendered with shortest round-trip precision so write/read
is value-exact. Annotations ride in a sidecar CSV (``n,gesture,phase``)
derived from the recording path.

Models use a small versioned binary container: magic bytes, version, a JSON
header (architecture, normalization bounds, label table, calibration,
metadata, tensor manifest), then the raw little-endian float64 tensor data in
manifest order. Weights round-trip bit-for-bit.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

from .cnn import (
    PARAM_ORDER,
    CnnArchitecture,
    CnnModel,
    TrainingMetadata,
)
from .config import SessionConfig
from .errors import (
    ConfigError,
    ModelFormatError,
    ModelIOError,
    ModelTruncatedError,
    ModelVersionError,
    RecordingParseError,
    StructuralError,
)
from .onset import DifferencePoint, ThresholdCalibration
from .recording import PHASES, Annotation, Recording
from .tma import NormalizationBounds

MODEL_MAGIC = b"TMA1"
MODEL_VERSION = 1


def annotations_path(recording_path: str | Path) -> Path:
    p = Path(recording_path)
    return p.with_name(p.stem + ".annotations.csv")


def _fmt(value: float) -> str:
    return repr(float(value))


def write_recording(recording: Recording, path: str | Path) -> None:
    """Write samples as CSV plus, if present, the annotation sidecar."""
    path = Path(path)
    channels = recording.channels
    header = "t," + ",".join(f"ch{i}" for i in range(channels))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for t in range(recording.num_samples):
            row = recording.samples[t]
            fh.write(str(t) + "," + ",".join(_fmt(v) for v in row) + "\n")
    if recording.annotations:
        with open(annotations_path(path), "w", encoding="utf-8") as fh:
            fh.write("n,gesture,phase\n")
            for a in recording.annotations:
                fh.write(f"{a.n},{a.gesture},{a.phase}\n")


def read_recording(path: str | Path, sample_rate: float,
                   expected_channels: int | None = None) -> Recording:
    """Read a recording CSV (and its annotation sidecar when present).

    Raises:
        RecordingParseError: On a malformed header or row, a column-count
            mismatch, non-consecutive sample indices or a NaN or infinite
            value; the error names the offending line.
    """
    path = Path(path)
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise RecordingParseError("file is empty, expected a header", line=1)
    header = lines[0].split(",")
    if header[0] != "t" or len(header) < 2:
        raise RecordingParseError(
            f"bad header {lines[0]!r}, expected 't,ch0,...'", line=1)
    channels = len(header) - 1
    if expected_channels is not None and channels != expected_channels:
        raise RecordingParseError(
            f"file has {channels} channels, expected {expected_channels}",
            line=1)
    rows = np.empty((len(lines) - 1, channels))
    prev_t = None
    for i, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != channels + 1:
            raise RecordingParseError(
                f"row has {len(parts)} columns, expected {channels + 1}",
                line=i)
        try:
            t = int(parts[0])
            rows[i - 2] = [float(p) for p in parts[1:]]
        except ValueError as exc:
            raise RecordingParseError(str(exc), line=i) from exc
        if prev_t is not None and t != prev_t + 1:
            raise RecordingParseError(
                f"sample index {t} does not follow {prev_t}", line=i)
        prev_t = t
    finite = np.isfinite(rows)
    if not finite.all():
        row, col = np.argwhere(~finite)[0]
        raise RecordingParseError(
            f"ch{col} is {rows[row, col]}, expected a finite value",
            line=int(row) + 2)
    annotations = []
    side = annotations_path(path)
    if side.exists():
        annotations = read_annotations(side)
    return Recording(sample_rate=sample_rate, samples=rows,
                     annotations=annotations)


def read_annotations(path: str | Path) -> list[Annotation]:
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != "n,gesture,phase":
        raise RecordingParseError("bad annotation header", line=1)
    out = []
    for i, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != 3:
            raise RecordingParseError(
                f"annotation row has {len(parts)} columns, expected 3", line=i)
        try:
            n = int(parts[0])
        except ValueError as exc:
            raise RecordingParseError(str(exc), line=i) from exc
        if parts[2] not in PHASES:
            raise RecordingParseError(f"unknown phase {parts[2]!r}", line=i)
        out.append(Annotation(n=n, gesture=parts[1], phase=parts[2]))
    return out


def write_difference_csv(points: list[DifferencePoint], path: str | Path) -> None:
    """Difference-signal trace as ``n,d`` rows, for plotting."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("n,d\n")
        for p in points:
            fh.write(f"{p.n},{_fmt(p.value)}\n")


# ---------------------------------------------------------------------------
# model container
# ---------------------------------------------------------------------------

def _header_dict(model: CnnModel) -> dict:
    arch = model.architecture
    header: dict = {
        "architecture": {
            "input_rows": arch.input_rows,
            "input_cols": arch.input_cols,
            "conv1_filters": arch.conv1_filters,
            "conv2_filters": arch.conv2_filters,
            "num_classes": arch.num_classes,
            "kernel": arch.kernel,
            "fc1_units": arch.fc1_units,
            "fc2_units": arch.fc2_units,
        },
        "bounds": None,
        "labels": list(model.labels) if model.labels is not None else None,
        "calibration": None,
        "metadata": None,
        "config": model.config.to_dict() if model.config is not None else None,
        "tensors": [{"name": name, "shape": list(model.params[name].shape)}
                    for name in PARAM_ORDER],
    }
    if model.bounds is not None:
        b = model.bounds
        header["bounds"] = {
            "first_order_min": b.first_order_min,
            "first_order_max": b.first_order_max,
            "second_order_min": b.second_order_min,
            "second_order_max": b.second_order_max,
        }
    if model.calibration is not None:
        c = model.calibration
        header["calibration"] = {
            "per_gesture_sigma": dict(sorted(c.per_gesture_sigma.items())),
            "threshold": c.threshold,
            "multiplier": c.multiplier,
            "degenerate": c.degenerate,
        }
    if model.metadata is not None:
        m = model.metadata
        header["metadata"] = {
            "seed": m.seed,
            "epochs": m.epochs,
            "learning_rate": m.learning_rate,
            "batch_size": m.batch_size,
            "final_loss": m.final_loss,
        }
    return header


def write_model(model: CnnModel, path: str | Path) -> None:
    header = json.dumps(_header_dict(model), sort_keys=True,
                        separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MODEL_MAGIC)
        fh.write(struct.pack("<II", MODEL_VERSION, len(header)))
        fh.write(header)
        for name in PARAM_ORDER:
            fh.write(np.ascontiguousarray(model.params[name],
                                          dtype="<f8").tobytes())


def read_model(path: str | Path) -> CnnModel:
    """Load a model container.

    Raises:
        ModelFormatError: Wrong magic bytes.
        ModelVersionError: Unsupported container version.
        ModelTruncatedError: Fewer payload bytes than the manifest declares.
        ModelIOError: Malformed header or tensor shapes inconsistent with
            the declared architecture.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 4 or blob[:4] != MODEL_MAGIC:
        raise ModelFormatError(f"{path}: not a model file (bad magic)")
    if len(blob) < 12:
        raise ModelTruncatedError(f"{path}: header cut short")
    version, header_len = struct.unpack_from("<II", blob, 4)
    if version != MODEL_VERSION:
        raise ModelVersionError(
            f"{path}: container version {version}, supported: {MODEL_VERSION}")
    if len(blob) < 12 + header_len:
        raise ModelTruncatedError(f"{path}: header cut short")
    try:
        header = json.loads(blob[12:12 + header_len].decode("utf-8"))
        arch = CnnArchitecture(**header["architecture"])
        manifest = header["tensors"]
    except (ValueError, KeyError, TypeError, StructuralError) as exc:
        raise ModelIOError(f"{path}: malformed header: {exc}") from exc

    params: dict[str, np.ndarray] = {}
    offset = 12 + header_len
    for entry in manifest:
        try:
            name = entry["name"]
            shape = tuple(int(d) for d in entry["shape"])
            if any(d < 1 for d in shape):
                raise ValueError(f"tensor '{name}' has shape {shape}")
            count = int(np.prod(shape)) if shape else 1
        except (KeyError, TypeError, ValueError) as exc:
            raise ModelIOError(f"{path}: malformed manifest: {exc}") from exc
        nbytes = count * 8
        if offset + nbytes > len(blob):
            raise ModelTruncatedError(f"{path}: tensor '{name}' cut short")
        params[name] = np.frombuffer(
            blob, dtype="<f8", count=count, offset=offset,
        ).astype(np.float64).reshape(shape)
        offset += nbytes

    try:
        bounds = None
        if header.get("bounds") is not None:
            bounds = NormalizationBounds(**header["bounds"])
        calibration = None
        if header.get("calibration") is not None:
            calibration = ThresholdCalibration(**header["calibration"])
        metadata = None
        if header.get("metadata") is not None:
            metadata = TrainingMetadata(**header["metadata"])
        config = None
        if header.get("config") is not None:
            config = SessionConfig.from_dict(header["config"])
        labels = header.get("labels")
        return CnnModel(
            architecture=arch,
            params=params,
            bounds=bounds,
            labels=tuple(labels) if labels is not None else None,
            calibration=calibration,
            metadata=metadata,
            config=config,
        )
    except (StructuralError, ConfigError, TypeError, ValueError) as exc:
        raise ModelIOError(f"{path}: malformed header: {exc}") from exc
