"""File formats: recordings (CSV), calibrations (JSON), models (binary container).

Recordings are human-inspectable CSV with header ``t,ch0,...,ch{L-1}``; the
channel values are rendered with shortest round-trip precision so write/read
is value-exact. Annotations ride in a sidecar CSV (``n,gesture,phase``)
derived from the recording path; rows piped on stdin obey the same checks.
A calibration is a JSON object, which the model header embeds.

Models use a small versioned binary container: magic bytes, version, a JSON
header (architecture, normalization bounds, label table, calibration,
metadata, tensor manifest), then the raw little-endian float64 tensor data in
manifest order. Weights round-trip bit-for-bit.
"""

from __future__ import annotations

import json
import math
import numbers
import struct
from dataclasses import asdict, fields as dataclass_fields
from pathlib import Path
from typing import Sequence

import numpy as np

from .cnn import (
    PARAM_ORDER,
    CnnArchitecture,
    CnnModel,
    TrainingMetadata,
)
from .config import SessionConfig
from .errors import (
    CalibrationError,
    ConfigError,
    ModelFormatError,
    ModelIOError,
    ModelTruncatedError,
    ModelVersionError,
    RecordingParseError,
    StructuralError,
)
from .onset import ThresholdCalibration
from .recording import PHASES, Annotation, Recording
from .tma import NormalizationBounds

MODEL_MAGIC = b"TMA1"
MODEL_VERSION = 1


def annotations_path(recording_path: str | Path) -> Path:
    p = Path(recording_path)
    return p.with_name(p.stem + ".annotations.csv")


# Rows move through the CSV in blocks of this many: one string per block
# bounds the text held at once, where a whole-file join or split would not.
ROW_BLOCK = 4096


def write_recording(recording: Recording, path: str | Path) -> None:
    """Write samples as CSV plus, if present, the annotation sidecar."""
    path = Path(path)
    header = "t," + ",".join(f"ch{i}" for i in range(recording.channels))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for start in range(0, recording.num_samples, ROW_BLOCK):
            rows = recording.samples[start:start + ROW_BLOCK].tolist()
            fh.write("".join(f"{t},{','.join(map(repr, row))}\n"
                             for t, row in enumerate(rows, start)))
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
    parse_rows(lines[1:], range(2, len(lines) + 1), rows)
    annotations = []
    side = annotations_path(path)
    if side.exists():
        annotations = read_annotations(side)
    return Recording(sample_rate=sample_rate, samples=rows,
                     annotations=annotations)


def parse_rows(lines: Sequence[str], line_numbers: Sequence[int],
               out: np.ndarray, prev_t: int | None = None) -> int | None:
    """Parse ``t,ch0,...`` rows into ``out[:len(lines)]``; returns the last t.

    Each row needs ``out.shape[1] + 1`` columns, an integer ``t`` one above
    the previous row's (``prev_t`` carries it from an earlier block) and
    finite values. A :class:`RecordingParseError` names the first bad row by
    its entry in ``line_numbers``.

    Rows go in blocks of :data:`ROW_BLOCK`. :func:`_parse_block` reads a
    block of canonical rows in one pass; any other block goes through the
    row loop, which defines the accepted language and the error text.
    """
    for start in range(0, len(lines), ROW_BLOCK):
        block = slice(start, start + ROW_BLOCK)
        t = _parse_block(lines[block], out[block], prev_t)
        if t is None:
            t = _parse_row_loop(lines[block], line_numbers[block], out[block],
                                prev_t)
        prev_t = t
    # Checked once over all rows, so a structural error anywhere still
    # takes precedence over a non-finite value before it.
    rows = out[:len(lines)]
    finite = np.isfinite(rows)
    if not finite.all():
        row, col = np.argwhere(~finite)[0]
        raise RecordingParseError(
            f"ch{col} is {rows[row, col]}, expected a finite value",
            line=line_numbers[row])
    return prev_t


def _parse_block(lines: Sequence[str], out: np.ndarray,
                 prev_t: int | None) -> int | None:
    """Read a block of canonical rows in one pass, or return None.

    The block is taken only when every line has ``out.shape[1]`` commas, the
    ``t`` fields read exactly ``str(prev_t + 1), str(prev_t + 2), ...`` (from
    the first row's ``int()`` when ``prev_t`` is None) and every value parses
    with ``float()``. The row loop would then split the same fields and give
    the same bits. ``out`` is written only once the whole block has passed.
    """
    channels = out.shape[1]
    if not all(line.count(",") == channels for line in lines):
        return None
    fields = ",".join(lines).split(",")
    stamps = fields[::channels + 1]
    if prev_t is None:
        try:
            prev_t = int(stamps[0]) - 1
        except ValueError:
            return None
    last = prev_t + len(lines)
    if stamps != list(map(str, range(prev_t + 1, last + 1))):
        return None
    del fields[::channels + 1]
    try:
        values = np.fromiter(map(float, fields), np.float64, len(fields))
    except ValueError:
        return None
    out[:len(lines)] = values.reshape(len(lines), channels)
    return last


def _parse_row_loop(lines: Sequence[str], line_numbers: Sequence[int],
                    out: np.ndarray, prev_t: int | None) -> int | None:
    """The row-by-row reference parse; leaves finiteness to the caller."""
    width = out.shape[1] + 1
    for k, line in enumerate(lines):
        parts = line.split(",")
        if len(parts) != width:
            raise RecordingParseError(
                f"row has {len(parts)} columns, expected {width}",
                line=line_numbers[k])
        try:
            t = int(parts[0])
            out[k] = [float(p) for p in parts[1:]]
        except ValueError as exc:
            raise RecordingParseError(str(exc), line=line_numbers[k]) from exc
        if prev_t is not None and t != prev_t + 1:
            raise RecordingParseError(
                f"sample index {t} does not follow {prev_t}",
                line=line_numbers[k])
        prev_t = t
    return prev_t


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


# ---------------------------------------------------------------------------
# calibration
# ---------------------------------------------------------------------------

def _calibration_from_dict(data) -> ThresholdCalibration:
    """Inverse of ``asdict``; raises ValueError naming the first bad field."""
    if not isinstance(data, dict):
        raise ValueError("calibration must be a JSON object")
    names = [f.name for f in dataclass_fields(ThresholdCalibration)]
    for name in [*names, *data]:
        if (name in names) != (name in data):
            raise ValueError(f"calibration field {name!r} is "
                             + ("missing" if name in names else "unknown"))
    sigmas = data["per_gesture_sigma"]
    if not isinstance(sigmas, dict):
        raise ValueError("calibration field 'per_gesture_sigma' is not an object")
    for name, value in [("threshold", data["threshold"]),
                        ("multiplier", data["multiplier"]),
                        *((f"per_gesture_sigma.{g}", v) for g, v in sigmas.items())]:
        if (isinstance(value, bool) or not isinstance(value, numbers.Real)
                or not math.isfinite(value)):
            raise ValueError(f"calibration field {name!r} is {value!r}, "
                             "expected a finite number")
    if not isinstance(data["degenerate"], bool):
        raise ValueError("calibration field 'degenerate' is not true or false")
    return ThresholdCalibration(**data)


def write_calibration(cal: ThresholdCalibration, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(asdict(cal), fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_calibration(path: str | Path) -> ThresholdCalibration:
    """Load a :func:`write_calibration` file; a :class:`CalibrationError`
    names the file and, unless the text is not JSON, the bad field."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        return _calibration_from_dict(json.loads(text))
    except json.JSONDecodeError as exc:
        raise CalibrationError(f"{path}: invalid JSON: {exc}") from exc
    except ValueError as exc:
        raise CalibrationError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# model container
# ---------------------------------------------------------------------------

def _header_dict(model: CnnModel) -> dict:
    def fields(obj):
        return asdict(obj) if obj is not None else None
    return {
        "architecture": asdict(model.architecture),
        "bounds": fields(model.bounds),
        "labels": list(model.labels) if model.labels is not None else None,
        "calibration": fields(model.calibration),
        "metadata": fields(model.metadata),
        "config": model.config.to_dict() if model.config is not None else None,
        "tensors": [{"name": name, "shape": list(model.params[name].shape)}
                    for name in PARAM_ORDER],
    }


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
        ModelIOError: Malformed header, an unknown or repeated tensor,
            bytes after the last tensor, or tensor shapes inconsistent with
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
        if name not in PARAM_ORDER:
            raise ModelIOError(f"{path}: unknown tensor {name!r}")
        if name in params:
            raise ModelIOError(f"{path}: tensor {name!r} appears twice")
        nbytes = count * 8
        if offset + nbytes > len(blob):
            raise ModelTruncatedError(f"{path}: tensor '{name}' cut short")
        params[name] = np.frombuffer(
            blob, dtype="<f8", count=count, offset=offset,
        ).astype(np.float64).reshape(shape)
        offset += nbytes
    if offset != len(blob):
        raise ModelIOError(
            f"{path}: {len(blob) - offset} bytes after the last tensor")

    def load(key, make):
        return make(header[key]) if header.get(key) is not None else None
    try:
        labels = header.get("labels")
        return CnnModel(
            architecture=arch,
            params=params,
            bounds=load("bounds", lambda d: NormalizationBounds(**d)),
            labels=tuple(labels) if labels is not None else None,
            calibration=load("calibration", _calibration_from_dict),
            metadata=load("metadata", lambda d: TrainingMetadata(**d)),
            config=load("config", SessionConfig.from_dict),
        )
    except (StructuralError, ConfigError, TypeError, ValueError) as exc:
        raise ModelIOError(f"{path}: malformed header: {exc}") from exc
