"""File formats: recordings (CSV), calibrations (JSON), models (binary container).

Recordings are human-inspectable CSV with header ``t,ch0,...,ch{L-1}``; the
channel values are rendered with shortest round-trip precision so write/read
is value-exact. Every recording, from a file or a pipe, is read by one row
reader (:func:`_rows`) with one grammar: a file given by path starts with its
header; lines blank after ``strip()`` are skipped anywhere, and so are ``t,``
lines that declare the channel count; every other line is a row. The first
bad line in stream order is the error, whatever is wrong with it: bytes that
are not UTF-8, a header of another count, a malformed row or a non-finite
value. The text is decoded by :func:`_line_blocks`: UTF-8 in any locale,
lines broken as by ``str.splitlines``. A file is read in blocks of
:data:`ROW_BLOCK` lines, so its whole text is never held, and a pipe a stride
at a time. Annotations ride in a sidecar CSV (``n,gesture,phase``) derived
from the recording path, read whole. A calibration is a JSON object, which
the model header embeds.

Models use a small versioned binary container: magic bytes, version, a JSON
header (architecture, normalization bounds, label table, calibration,
metadata, tensor dtype, tensor manifest), then the raw tensor data in
manifest order, little-endian in the dtype of the model's parameters:
``"<f4"`` for a trained float32 model, ``"<f8"`` for a float64 one. Version 1
files, which have no dtype field, hold ``"<f8"`` tensors and still load.
A header key its version does not define is refused; an optional field that
is missing reads as null. Weights round-trip bit-for-bit.
"""

from __future__ import annotations

import json
import math
import struct
from contextlib import contextmanager
from dataclasses import asdict, fields as dataclass_fields
from io import DEFAULT_BUFFER_SIZE
from itertools import compress, islice
from pathlib import Path
from typing import Callable, Iterator, Sequence

import numpy as np

from .cnn import (
    PARAM_ORDER,
    CnnArchitecture,
    CnnModel,
    TrainingMetadata,
)
from .config import SessionConfig, is_finite_real
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
MODEL_VERSION = 2
# The tensor dtypes a container may declare; version 1 wrote only "<f8".
MODEL_DTYPES = ("<f4", "<f8")
# The header keys of each container version. Any other key is refused, so a
# flipped bit in a key's name cannot drop a field; a missing optional key
# still reads as null.
_V1_HEADER_KEYS = frozenset({"architecture", "bounds", "labels", "calibration",
                             "metadata", "config", "tensors"})
MODEL_HEADER_KEYS = {1: _V1_HEADER_KEYS, 2: _V1_HEADER_KEYS | {"dtype"}}


def annotations_path(recording_path: str | Path) -> Path:
    p = Path(recording_path)
    return p.with_name(p.stem + ".annotations.csv")


# Rows move through the CSV in blocks of this many: one block's strings,
# floats and text bound what is held at once, where a whole-file join or
# split would not. Of 1024 and 4096, 1024 holds a quarter of the Python
# objects at the same throughput; the bytes written do not depend on it.
ROW_BLOCK = 1024


def write_recording(recording: Recording, path: str | Path) -> None:
    """Write samples as CSV plus, if present, the annotation sidecar; a
    sidecar left at ``path`` by an earlier recording is removed, so that
    :func:`read_recording` gives back exactly the annotations written.

    Raises:
        StructuralError: Before the file is opened, if a sample is NaN or
            infinite, which :func:`read_recording` would refuse; the error
            names the first such sample.
    """
    path = Path(path)
    samples = recording.samples
    for start in range(0, recording.num_samples, ROW_BLOCK):
        bad = ~np.isfinite(samples[start:start + ROW_BLOCK])
        if bad.any():
            row, col = np.argwhere(bad)[0]
            raise StructuralError(
                f"sample {start + row} ch{col} is {samples[start + row, col]}"
                ", expected a finite value")
    header = "t," + ",".join(f"ch{i}" for i in range(recording.channels))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for start in range(0, recording.num_samples, ROW_BLOCK):
            rows = samples[start:start + ROW_BLOCK].tolist()
            fh.write("".join(f"{t},{','.join(map(repr, row))}\n"
                             for t, row in enumerate(rows, start)))
    side = annotations_path(path)
    if not recording.annotations:
        side.unlink(missing_ok=True)
        return
    with open(side, "w", encoding="utf-8") as fh:
        fh.write("n,gesture,phase\n")
        for a in recording.annotations:
            fh.write(f"{a.n},{a.gesture},{a.phase}\n")


def read_recording(path: str | Path, sample_rate: float,
                   expected_channels: int | None = None) -> Recording:
    """Read a recording CSV (and its annotation sidecar when present).

    Line 1 must be the header (:func:`read_header`). The rows are read by
    :func:`_rows` in blocks of :data:`ROW_BLOCK` lines, each into the end of
    one array grown in place: the reader holds one block's text beside the
    rows, never the whole file's, and the rows once.

    Raises:
        RecordingParseError: At the first bad line of the file: a missing,
            malformed or other-count header, a malformed row, a
            column-count mismatch, non-consecutive sample indices, a NaN or
            infinite value, or bytes that are not UTF-8; the error names the
            file (the recording or its sidecar) and the offending line. A
            path that cannot seek, such as a named pipe, is refused before
            any byte is read; :func:`read_strides` streams one.
    """
    path = Path(path)
    with named(path), open(path, "rb") as fh:
        if not fh.seekable():    # read_header seeks back to line 1
            raise RecordingParseError(
                "cannot seek; a recording is read from a regular file")
        channels = read_header(fh, expected_channels)
        samples = np.empty((0, channels))
        for rows in _rows(fh, channels, lambda: ROW_BLOCK):
            start = len(samples)
            # No view of samples outlives its statement, so the reference
            # check is skipped: it also counts the references that a trace
            # or profile hook holds to this frame's locals, and refuses.
            samples.resize((start + len(rows), channels), refcheck=False)
            samples[start:] = rows
    annotations = []
    side = annotations_path(path)
    if side.exists():
        annotations = read_annotations(side, len(samples))
    return Recording(sample_rate=sample_rate, samples=samples,
                     annotations=annotations)


def read_header(fh, expected: int | None) -> int:
    """The channel count that the header on line 1 of the seekable binary
    stream ``fh`` declares; ``fh`` is left at its start.

    A file given by path starts with its header: an empty file, or a first
    line that is blank or a row, is a :class:`RecordingParseError` at line 1,
    as is a header that declares other than ``expected`` channels.
    """
    first = next(_line_blocks(fh, lambda: 1), None)
    fh.seek(0)
    if first is None:
        raise RecordingParseError("file is empty, expected a header", line=1)
    return _recording_channels(first[1][0].strip(), expected)


def _recording_channels(header: str, expected: int | None,
                        line: int = 1) -> int:
    """The channel count that a recording's header line declares."""
    names = header.split(",")
    if names[0] != "t" or len(names) < 2:
        raise RecordingParseError(
            f"bad header {header!r}, expected 't,ch0,...'", line=line)
    channels = len(names) - 1
    if expected is not None and channels != expected:
        raise RecordingParseError(
            f"file has {channels} channels, expected {expected}", line=line)
    return channels


def _line_blocks(fh, size: Callable[[], int]
                 ) -> Iterator[tuple[int, list[str]]]:
    """``(number of its first line, lines)`` for each block of the UTF-8
    text on the binary stream ``fh``, in order.

    A block is the text of the next ``size()`` byte lines, split by
    ``str.splitlines``. A byte line ends just after a ``b"\\n"``; on a stream
    that cannot seek, also just after a ``b"\\r"`` (:func:`_pipe_lines`), and
    a ``b"\\r\\n"`` that two of its byte lines split is one line break. A
    block ends on a whole line break and UTF-8 sequence, so the blocks hold
    the lines of ``read().splitlines()`` in text mode (which also breaks at
    ``\\r``, ``\\x0c``, ``\\x85``, ``\\u2028`` and the like). After the lines
    before its line, a byte that is not UTF-8 ends in a
    :class:`RecordingParseError` naming line 1 + the count of ``b"\\n"``
    before it.
    """
    source = fh if fh.seekable() else _pipe_lines(fh)
    number, newlines, after_cr = 1, 0, False

    def split(raw: bytes) -> list[str]:
        text = raw.decode("utf-8")
        if after_cr and text[:1] == "\n":    # the end of a split "\r\n"
            text = text[1:]
        return text.splitlines()

    while raw := b"".join(islice(source, size())):
        try:
            lines = split(raw)
        except UnicodeDecodeError as exc:
            if lines := split(raw[:raw.rfind(b"\n", 0, exc.start) + 1]):
                yield number, lines
            line = newlines + raw.count(b"\n", 0, exc.start) + 1
            raise RecordingParseError(f"not UTF-8 text: {exc.reason}",
                                      line=line) from exc
        newlines += raw.count(b"\n")
        after_cr = raw.endswith(b"\r")
        del raw    # while the block is parsed, its text is held once
        if lines:
            yield number, lines
            number += len(lines)


def _pipe_lines(fh) -> Iterator[bytes]:
    """The byte lines of the binary stream ``fh``, each ending just after a
    ``b"\\n"``, ``b"\\r\\n"`` or ``b"\\r"``, or at the end of the stream.

    A line is yielded as soon as its end has been read, and ``fh`` is not
    read again until the next line is asked for. A ``b"\\r"`` that ends the
    bytes read so far ends its line at once, so a ``b"\\n"`` read after it
    starts the next line.
    """
    read = getattr(fh, "read1", fh.read)
    rest = b""
    while chunk := read(DEFAULT_BUFFER_SIZE):
        lines = (rest + chunk).splitlines(keepends=True)
        rest = b"" if lines[-1].endswith((b"\n", b"\r")) else lines.pop()
        yield from lines
    if rest:
        yield rest


@contextmanager
def named(path: Path | str | None):
    """Name ``path`` in a :class:`RecordingParseError` raised in the block;
    ``None`` (stdin) names nothing."""
    try:
        yield
    except RecordingParseError as exc:
        if path is None:
            raise
        raise RecordingParseError(exc.reason, exc.line, path) from exc


def parse_rows(lines: Sequence[str], line_numbers: Sequence[int],
               out: np.ndarray, prev_t: int | None = None) -> int | None:
    """Parse ``t,ch0,...`` rows into ``out[:len(lines)]``; returns the last t.

    Each row needs ``out.shape[1] + 1`` columns, an integer ``t`` one above
    the previous row's (``prev_t`` carries it from an earlier block) and
    finite values. A :class:`RecordingParseError` names the first bad row by
    its entry in ``line_numbers``, once the rows before it are written.

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
    return prev_t


def read_strides(fh, channels: int, stride: int) -> Iterator[np.ndarray]:
    """Each ``(stride, channels)`` block of the rows on the binary stream
    ``fh``, in order: the rows of :func:`_rows`, which needs no header (a
    caller reading a file checks line 1 with :func:`read_header`). The
    strides before the first bad line are yielded, then its error is
    raised; a partial last stride is checked, then dropped.

    A seekable stream never waits on a writer, so it is read and parsed in
    blocks of :data:`ROW_BLOCK` rows (``stride`` rows if that is more): each
    read tops the rows held up to a block. Any other stream is read only as
    far as the current stride needs: a row counts as read when the
    ``b"\\n"`` or ``b"\\r"`` that ends it, or the end of the stream, arrives.
    A row ended by a rarer break of ``str.splitlines``, such as ``\\x0c``,
    waits for the next of those.
    """
    size = max(ROW_BLOCK, stride) if fh.seekable() else stride
    held = np.empty((0, channels))
    for rows in _rows(fh, channels, lambda: size - len(held)):
        held = np.concatenate((held, rows))
        full = len(held) - len(held) % stride
        for start in range(0, full, stride):
            yield held[start:start + stride]
        held = held[full:]


def _rows(fh, channels: int, size: Callable[[], int]
          ) -> Iterator[np.ndarray]:
    """The rows of each :func:`_line_blocks` block of the binary stream
    ``fh``, parsed and checked into one ``(rows, channels)`` array.

    Each line is stripped. Blank lines are skipped, and so are lines
    starting with ``t,`` that declare ``channels`` channels; every other
    line is a row for :func:`parse_rows`, with ``t`` carried across blocks.
    At the first bad line the rows before it are yielded, then its error is
    raised.
    """
    prev_t = None
    for first, lines in _line_blocks(fh, size):
        lines = list(map(str.strip, lines))
        numbers, error = range(first, first + len(lines)), None
        # a line starting with "t," sorts at or after "t,", so the filter
        # runs only when a blank line or such a line may be in the block
        if "" in lines or max(lines) >= "t,":
            lines, numbers, error = _drop_skipped(lines, numbers, channels)
        rows = np.empty((len(lines), channels))
        try:
            prev_t = parse_rows(lines, numbers, rows, prev_t)
        except RecordingParseError as exc:
            error, rows = exc, rows[:numbers.index(exc.line)]
        yield rows
        if error is not None:
            raise error


def _drop_skipped(lines: list[str], numbers: Sequence[int], channels: int
                  ) -> tuple[list[str], list[int], RecordingParseError | None]:
    """The rows among ``lines``, their ``numbers`` and the error of the first
    header that does not declare ``channels`` channels, if any; the rows
    stop before that header."""
    error = None
    for k in [k for k, line in enumerate(lines) if line.startswith("t,")]:
        try:
            _recording_channels(lines[k], channels, numbers[k])
        except RecordingParseError as exc:
            error, lines, numbers = exc, lines[:k], numbers[:k]
            break
    kept = [line and not line.startswith("t,") for line in lines]
    return list(compress(lines, kept)), list(compress(numbers, kept)), error


def _parse_block(lines: Sequence[str], out: np.ndarray,
                 prev_t: int | None) -> int | None:
    """Read a block of canonical rows in one pass, or return None.

    The block is taken only when every line has ``out.shape[1]`` commas, the
    ``t`` fields read exactly ``str(prev_t + 1), str(prev_t + 2), ...`` (from
    the first row's ``int()`` when ``prev_t`` is None) and every value parses
    with ``float()`` to a finite number. The row loop would then split the
    same fields and give the same bits. ``out`` is written only once the
    whole block has passed.
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
    if not np.isfinite(values).all():
        return None
    out[:len(lines)] = values.reshape(len(lines), channels)
    return last


def _parse_row_loop(lines: Sequence[str], line_numbers: Sequence[int],
                    out: np.ndarray, prev_t: int | None) -> int | None:
    """The row-by-row reference parse."""
    width = out.shape[1] + 1
    for k, line in enumerate(lines):
        parts = line.split(",")
        if len(parts) != width:
            raise RecordingParseError(
                f"row has {len(parts)} columns, expected {width}",
                line=line_numbers[k])
        try:
            t = int(parts[0])
            values = [float(p) for p in parts[1:]]
        except ValueError as exc:
            raise RecordingParseError(str(exc), line=line_numbers[k]) from exc
        if prev_t is not None and t != prev_t + 1:
            raise RecordingParseError(
                f"sample index {t} does not follow {prev_t}",
                line=line_numbers[k])
        for col, value in enumerate(values):
            if not math.isfinite(value):
                raise RecordingParseError(
                    f"ch{col} is {value}, expected a finite value",
                    line=line_numbers[k])
        out[k] = values
        prev_t = t
    return prev_t


def read_annotations(path: str | Path, num_samples: int) -> list[Annotation]:
    """Read the annotation sidecar of a recording of ``num_samples``
    samples; a :class:`RecordingParseError` names the file and the offending
    line, also of an annotation outside the recording."""
    path = Path(path)
    with named(path), open(path, "rb") as fh:
        # a sidecar holds a few rows per gesture, so it is read whole
        lines = [line for _, block in _line_blocks(fh, lambda: ROW_BLOCK)
                 for line in block]
        if not lines or lines[0] != "n,gesture,phase":
            raise RecordingParseError("bad annotation header", line=1)
        out = []
        for i, line in enumerate(lines[1:], start=2):
            parts = line.split(",")
            if len(parts) != 3:
                raise RecordingParseError(
                    f"annotation row has {len(parts)} columns, expected 3",
                    line=i)
            try:
                n = int(parts[0])
            except ValueError as exc:
                raise RecordingParseError(str(exc), line=i) from exc
            if parts[2] not in PHASES:
                raise RecordingParseError(f"unknown phase {parts[2]!r}",
                                          line=i)
            if not 0 <= n < num_samples:
                raise RecordingParseError(
                    f"annotation at {n} outside recording of {num_samples} "
                    "samples", line=i)
            out.append(Annotation(n=n, gesture=parts[1], phase=parts[2]))
    return out


# ---------------------------------------------------------------------------
# calibration
# ---------------------------------------------------------------------------

def _calibration_from_dict(data) -> ThresholdCalibration:
    """Inverse of ``asdict``; the error raised names the first bad field."""
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
    for gesture, value in sigmas.items():
        if not is_finite_real(value):
            raise ValueError(f"calibration field 'per_gesture_sigma.{gesture}' "
                             f"is {value!r}, expected a finite number")
    return ThresholdCalibration(**data)


def write_calibration(cal: ThresholdCalibration, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(asdict(cal), fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_calibration(path: str | Path) -> ThresholdCalibration:
    """Load a :func:`write_calibration` file; a :class:`CalibrationError`
    names the file and, unless the text is not JSON, the bad field."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return _calibration_from_dict(json.load(fh))
    except json.JSONDecodeError as exc:
        raise CalibrationError(f"{path}: invalid JSON: {exc}") from exc
    except (ValueError, ConfigError) as exc:    # also a UnicodeDecodeError
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
        "dtype": np.result_type(*model.params.values()).newbyteorder("<").str,
        "tensors": [{"name": name, "shape": list(model.params[name].shape)}
                    for name in PARAM_ORDER],
    }


def write_model(model: CnnModel, path: str | Path) -> None:
    fields = _header_dict(model)
    header = json.dumps(fields, sort_keys=True,
                        separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MODEL_MAGIC)
        fh.write(struct.pack("<II", MODEL_VERSION, len(header)))
        fh.write(header)
        for name in PARAM_ORDER:
            fh.write(np.ascontiguousarray(model.params[name],
                                          dtype=fields["dtype"]).tobytes())


def read_model(path: str | Path) -> CnnModel:
    """Load a model container.

    Raises:
        ModelFormatError: Wrong magic bytes.
        ModelVersionError: Unsupported container version.
        ModelTruncatedError: Fewer payload bytes than the manifest declares.
        ModelIOError: Malformed header, a header key the container
            version does not define, a tensor dtype other than
            ``"<f4"`` or ``"<f8"``, an unknown or repeated tensor, bytes
            after the last tensor, or tensor shapes inconsistent with the
            declared architecture.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 4 or blob[:4] != MODEL_MAGIC:
        raise ModelFormatError(f"{path}: not a model file (bad magic)")
    if len(blob) < 12:
        raise ModelTruncatedError(f"{path}: header cut short")
    version, header_len = struct.unpack_from("<II", blob, 4)
    if version not in (1, MODEL_VERSION):
        raise ModelVersionError(
            f"{path}: container version {version}, supported: 1 to "
            f"{MODEL_VERSION}")
    if len(blob) < 12 + header_len:
        raise ModelTruncatedError(f"{path}: header cut short")

    def build(key, make):
        try:
            return make(header[key])
        except (ConfigError, StructuralError, TypeError, ValueError) as exc:
            raise ModelIOError(f"{path}: header field '{key}': {exc}") from exc

    try:
        header = json.loads(blob[12:12 + header_len].decode("utf-8"))
        manifest = header["tensors"]
        arch = build("architecture", lambda d: CnnArchitecture(**d))
    except (ValueError, KeyError, TypeError) as exc:
        raise ModelIOError(f"{path}: malformed header: {exc}") from exc

    unknown = sorted(set(header) - MODEL_HEADER_KEYS[version])
    if unknown:
        raise ModelIOError(f"{path}: unknown header field {unknown[0]!r}")
    if not isinstance(manifest, list):
        raise ModelIOError(
            f"{path}: header field 'tensors' is {manifest!r}, expected a list")
    dtype = header.get("dtype") if version > 1 else "<f8"
    if dtype not in MODEL_DTYPES:
        raise ModelIOError(f"{path}: header field 'dtype' is {dtype!r}, "
                           f"expected one of {MODEL_DTYPES}")
    dtype = np.dtype(dtype)

    params: dict[str, np.ndarray] = {}
    offset = 12 + header_len
    for entry in manifest:
        try:
            name, shape = entry["name"], entry["shape"]
        except (KeyError, TypeError) as exc:
            raise ModelIOError(f"{path}: malformed manifest: {exc}") from exc
        if not (isinstance(shape, list)
                and all(type(d) is int and d >= 1 for d in shape)):
            raise ModelIOError(
                f"{path}: tensor {name!r} has shape {shape!r}, expected a "
                "list of positive integers")
        count = math.prod(shape)
        if name not in PARAM_ORDER:
            raise ModelIOError(f"{path}: unknown tensor {name!r}")
        if name in params:
            raise ModelIOError(f"{path}: tensor {name!r} appears twice")
        nbytes = count * dtype.itemsize
        if offset + nbytes > len(blob):
            raise ModelTruncatedError(f"{path}: tensor '{name}' cut short")
        params[name] = np.frombuffer(
            blob, dtype=dtype, count=count, offset=offset,
        ).astype(dtype.type).reshape(shape)
        offset += nbytes
    if offset != len(blob):
        raise ModelIOError(
            f"{path}: {len(blob) - offset} bytes after the last tensor")

    def load(key, make):
        return build(key, make) if header.get(key) is not None else None
    try:
        return CnnModel(
            architecture=arch,
            params=params,
            bounds=load("bounds", lambda d: NormalizationBounds(**d)),
            labels=header.get("labels"),
            calibration=load("calibration", _calibration_from_dict),
            metadata=load("metadata", lambda d: TrainingMetadata(**d)),
            config=load("config", SessionConfig.from_dict),
        )
    except StructuralError as exc:
        raise ModelIOError(f"{path}: malformed header: {exc}") from exc
