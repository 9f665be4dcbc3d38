import dataclasses
import io as std_io
import json
import os
import re
import struct
import sys
import tempfile
import threading
from itertools import islice
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tmagest import io as tmio
from tmagest.cnn import (
    PARAM_ORDER,
    CnnArchitecture,
    CnnModel,
    TrainingMetadata,
    forward,
    initial_params,
    predict,
)
from tmagest.config import SessionConfig
from tmagest.errors import (
    CalibrationError,
    ModelFormatError,
    ModelIOError,
    ModelTruncatedError,
    ModelVersionError,
    RecordingParseError,
    StructuralError,
    TmagestError,
)
from tmagest.io import (
    annotations_path,
    parse_rows,
    read_calibration,
    read_model,
    read_recording,
    write_calibration,
    write_model,
    write_recording,
)
from tmagest.onset import ThresholdCalibration
from tmagest.recording import Annotation, Recording
from tmagest.tma import NormalizationBounds

from conftest import reframe_header, rewrite_header, traced_peak


def sample_recording(rng, n=50, channels=3, annotated=True):
    annotations = []
    if annotated:
        annotations = [Annotation(n=10, gesture="grip", phase="flexion-onset"),
                       Annotation(n=30, gesture="grip", phase="return-onset")]
    return Recording(sample_rate=200.0,
                     samples=rng.normal(size=(n, channels)) * 1.7,
                     annotations=annotations)


class TestRecordingCsv:
    def test_round_trip_values_and_annotations(self, tmp_path, rng):
        rec = sample_recording(rng)
        path = tmp_path / "session.csv"
        write_recording(rec, path)
        back = read_recording(path, sample_rate=200.0)
        np.testing.assert_array_equal(back.samples, rec.samples)
        assert back.annotations == rec.annotations

    def test_round_trip_extreme_values(self, tmp_path):
        vals = np.array([[1e-300, -1e300], [0.1, np.pi],
                         [-0.0, 123456789.123456789]])
        rec = Recording(sample_rate=200.0, samples=vals)
        path = tmp_path / "x.csv"
        write_recording(rec, path)
        back = read_recording(path, sample_rate=200.0)
        np.testing.assert_array_equal(back.samples, rec.samples)

    @pytest.mark.parametrize("n", [50, 20])
    def test_an_unannotated_write_removes_a_stale_sidecar(self, tmp_path, rng,
                                                         n):
        # the old annotations (at 10 and 30) lie inside the new recording
        # (n = 50) or past its end (n = 20): either way the read gives none
        path = tmp_path / "session.csv"
        write_recording(sample_recording(rng, n=50), path)
        plain = sample_recording(rng, n=n, annotated=False)
        write_recording(plain, path)
        assert not annotations_path(path).exists()
        back = read_recording(path, sample_rate=200.0)
        assert back.annotations == []
        np.testing.assert_array_equal(back.samples, plain.samples)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_a_non_finite_sample_is_refused_before_the_file_opens(
            self, tmp_path, rng, value):
        samples = rng.normal(size=(3 * tmio.ROW_BLOCK, 3))
        samples[tmio.ROW_BLOCK + 7, 2] = value
        samples[2 * tmio.ROW_BLOCK, 0] = np.nan
        path = tmp_path / "bad.csv"
        with pytest.raises(StructuralError) as err:
            write_recording(Recording(sample_rate=200.0, samples=samples),
                            path)
        assert str(err.value) == (f"sample {tmio.ROW_BLOCK + 7} ch2 is "
                                  f"{value}, expected a finite value")
        assert not path.exists()

    def test_write_peak_memory_does_not_grow_with_the_length(self, tmp_path,
                                                             rng):
        # one block's floats, strings and text, 0.7 MiB at 1024 rows and
        # 2.8 MiB at 4096: 60 000 rows of 8 channels are 3.7 MiB of samples
        # and over 10 MiB of text
        rec = Recording(sample_rate=200.0,
                        samples=rng.normal(size=(60_000, 8)))
        _, peak = traced_peak(lambda: write_recording(rec, tmp_path / "w.csv"))
        assert peak < 1.5 * (1 << 20)

    def test_header_only_is_empty_recording(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("t,ch0,ch1\n")
        rec = read_recording(path, sample_rate=200.0)
        assert rec.num_samples == 0
        assert rec.channels == 2

    def test_channel_count_mismatch_names_line(self, tmp_path, rng):
        path = tmp_path / "seven.csv"
        write_recording(sample_recording(rng, channels=7, annotated=False),
                        path)
        with pytest.raises(RecordingParseError) as err:
            read_recording(path, sample_rate=200.0, expected_channels=8)
        assert "line 1" in str(err.value)

    def test_ragged_row_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,ch0,ch1\n0,1.0,2.0\n1,3.0\n")
        with pytest.raises(RecordingParseError) as err:
            read_recording(path, sample_rate=200.0)
        assert "line 3" in str(err.value)

    def test_non_consecutive_index_rejected(self, tmp_path):
        path = tmp_path / "skip.csv"
        path.write_text("t,ch0\n0,1.0\n2,1.0\n")
        with pytest.raises(RecordingParseError) as err:
            read_recording(path, sample_rate=200.0)
        assert "line 3" in str(err.value)

    def test_non_numeric_value_rejected(self, tmp_path):
        path = tmp_path / "nan.csv"
        path.write_text("t,ch0\n0,1.0\n1,banana\n")
        with pytest.raises(RecordingParseError) as err:
            read_recording(path, sample_rate=200.0)
        assert "line 3" in str(err.value)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite_value_names_line(self, tmp_path, value):
        path = tmp_path / "poisoned.csv"
        path.write_text(f"t,ch0,ch1\n0,1.0,2.0\n1,3.0,{value}\n2,{value},4.0\n")
        with pytest.raises(RecordingParseError) as err:
            read_recording(path, sample_rate=200.0)
        assert "line 3" in str(err.value) and "ch1" in str(err.value)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "void.csv"
        path.write_text("")
        with pytest.raises(RecordingParseError):
            read_recording(path, sample_rate=200.0)

    def test_bytes_equal_per_value_repr_across_blocks(self, tmp_path, rng):
        specials = [-0.0, 5e-324, 1e-300, 1e16, 0.1, 1 / 3, 2.0,
                    -1.7976931348623157e308]
        samples = rng.normal(size=(tmio.ROW_BLOCK + 5, 8))
        samples[0] = specials
        samples[tmio.ROW_BLOCK] = specials[::-1]
        path = tmp_path / "exact.csv"
        write_recording(Recording(sample_rate=200.0, samples=samples), path)
        header = "t," + ",".join(f"ch{i}" for i in range(8)) + "\n"
        expected = header + "".join(
            str(t) + "," + ",".join(repr(float(v)) for v in row) + "\n"
            for t, row in enumerate(samples))
        assert path.read_bytes() == expected.encode("utf-8")

    def test_earlier_nan_beats_structural_error_in_later_block(self, tmp_path):
        # the first bad line wins, whatever is wrong with it
        rows = [f"{t},1.0,2.0" for t in range(6000)]
        rows[1] = "1,nan,2.0"      # line 3, first block
        rows[4998] = "4998,1.0"    # line 5000, second block
        path = tmp_path / "two_faults.csv"
        path.write_text("t,ch0,ch1\n" + "\n".join(rows) + "\n")
        with pytest.raises(RecordingParseError,
                           match="line 3: ch0 is nan, expected a finite value"):
            read_recording(path, sample_rate=200.0)

    @pytest.mark.parametrize("bad_row", [1, 30000])
    def test_non_utf8_bytes_name_their_line(self, tmp_path, bad_row):
        # a bad byte on row 30000 lies far past the first read buffer
        rows = [f"{t},1.0".encode() for t in range(30001)]
        rows[bad_row] = f"{bad_row},\xff\xfe".encode("latin-1")
        path = tmp_path / "r.csv"
        path.write_bytes(b"\n".join([b"t,ch0", *rows, b""]))
        with pytest.raises(RecordingParseError, match="not UTF-8") as err:
            read_recording(path, sample_rate=200.0)
        assert err.value.line == bad_row + 2

    def test_non_utf8_annotation_names_its_line(self, tmp_path, rng):
        path = tmp_path / "r.csv"
        write_recording(sample_recording(rng), path)
        side = annotations_path(path)
        side.write_bytes(b"n,gesture,phase\n10,gr\xe9p,onset\n")
        with pytest.raises(RecordingParseError, match="not UTF-8") as err:
            read_recording(path, sample_rate=200.0)
        assert err.value.line == 2

    def test_bad_annotation_phase_rejected(self, tmp_path, rng):
        rec = sample_recording(rng, annotated=False)
        path = tmp_path / "s.csv"
        write_recording(rec, path)
        annotations_path(path).write_text("n,gesture,phase\n5,grip,sideways\n")
        with pytest.raises(RecordingParseError):
            read_recording(path, sample_rate=200.0)


    def test_errors_name_the_recording_or_its_sidecar(self, tmp_path, rng):
        # the same bad line 2 in either file gives a message naming that file
        path = tmp_path / "a.csv"
        write_recording(sample_recording(rng), path)
        side = annotations_path(path)
        good_csv = path.read_text()
        path.write_text(good_csv.replace("\n0,", "\n0,bogus,", 1))
        with pytest.raises(RecordingParseError, match="line 2: ") as in_csv:
            read_recording(path, sample_rate=200.0)
        path.write_text(good_csv)
        side.write_text("n,gesture,phase\n10,grip,bogus\n")
        with pytest.raises(RecordingParseError, match="line 2: ") as in_side:
            read_recording(path, sample_rate=200.0)
        assert str(in_csv.value).startswith(f"{path}: line 2: row has 5")
        assert str(in_side.value) == f"{side}: line 2: unknown phase 'bogus'"
        assert (in_csv.value.path, in_side.value.path) == (path, side)


def sample_model(rng):
    arch = CnnArchitecture(input_rows=14, input_cols=12, conv1_filters=2,
                           conv2_filters=3, num_classes=3, fc1_units=7,
                           fc2_units=5)
    return CnnModel(
        architecture=arch,
        params=initial_params(arch, rng),
        bounds=NormalizationBounds(0.0, 1.5, -0.25, 9.0),
        labels=("a", "b", "c"),
        calibration=ThresholdCalibration(
            per_gesture_sigma={"a": 1.0, "b": 2.5, "c": 0.75},
            threshold=5.666666666666667, multiplier=4.0),
        metadata=TrainingMetadata(seed=3, epochs=15, learning_rate=0.001,
                                  batch_size=32, final_loss=0.0123456789),
    )


def container_header(path):
    """``((version, header length), header)`` of a model file."""
    blob = path.read_bytes()
    lengths = struct.unpack_from("<II", blob, 4)
    return lengths, json.loads(blob[12:12 + lengths[1]])


def write_version1_model(model, path):
    """Write ``model`` as container version 1 did: the same header without a
    ``dtype`` field, then every tensor as ``"<f8"``."""
    def fields(obj):
        return dataclasses.asdict(obj) if obj is not None else None
    header = {
        "architecture": dataclasses.asdict(model.architecture),
        "bounds": fields(model.bounds),
        "labels": list(model.labels) if model.labels is not None else None,
        "calibration": fields(model.calibration),
        "metadata": fields(model.metadata),
        "config": model.config.to_dict() if model.config is not None else None,
        "tensors": [{"name": name, "shape": list(model.params[name].shape)}
                    for name in PARAM_ORDER],
    }
    text = json.dumps(header, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")
    path.write_bytes(
        b"TMA1" + struct.pack("<II", 1, len(text)) + text
        + b"".join(np.ascontiguousarray(model.params[name], dtype="<f8")
                   .tobytes() for name in PARAM_ORDER))


class TestModelContainer:
    def test_round_trip_bitwise(self, tmp_path, rng):
        model = sample_model(rng)
        path = tmp_path / "m.tma"
        write_model(model, path)
        back = read_model(path)
        for name in model.params:
            np.testing.assert_array_equal(back.params[name],
                                          model.params[name])
        assert back.labels == model.labels
        assert back.bounds == model.bounds
        assert back.calibration.threshold == model.calibration.threshold
        assert back.metadata.final_loss == model.metadata.final_loss
        x = rng.random((14, 12))
        np.testing.assert_array_equal(forward(back, x), forward(model, x))

    def test_write_is_deterministic(self, tmp_path, rng):
        model = sample_model(rng)
        p1, p2 = tmp_path / "a.tma", tmp_path / "b.tma"
        write_model(model, p1)
        write_model(model, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic(self, tmp_path, rng):
        path = tmp_path / "m.tma"
        write_model(sample_model(rng), path)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"NOPE"
        path.write_bytes(blob)
        with pytest.raises(ModelFormatError):
            read_model(path)

    def test_unsupported_version(self, tmp_path, rng):
        path = tmp_path / "m.tma"
        write_model(sample_model(rng), path)
        blob = bytearray(path.read_bytes())
        blob[4] = 99
        path.write_bytes(blob)
        with pytest.raises(ModelVersionError):
            read_model(path)

    def test_truncation_detected(self, tmp_path, rng):
        path = tmp_path / "m.tma"
        write_model(sample_model(rng), path)
        blob = path.read_bytes()
        for cut in (2, 10, len(blob) // 2, len(blob) - 3):
            path.write_bytes(blob[:cut])
            with pytest.raises((ModelTruncatedError, ModelFormatError)):
                read_model(path)

    def test_corrupt_header_is_io_error(self, tmp_path, rng):
        path = tmp_path / "m.tma"
        write_model(sample_model(rng), path)
        blob = bytearray(path.read_bytes())
        blob[12] = ord("X")  # break the JSON
        path.write_bytes(blob)
        with pytest.raises(ModelIOError):
            read_model(path)

    def test_flipped_bit_in_a_null_key_is_refused(self, tmp_path, rng):
        # 'f' ^ 0x04 == 'b': the model has no config, so the flipped name
        # would read as a missing key, and a missing key reads as null
        path = tmp_path / "m.tma"
        write_model(sample_model(rng), path)
        blob = path.read_bytes()
        assert blob.count(b'"config":null') == 1
        path.write_bytes(blob.replace(b'"config":null', b'"conbig":null'))
        with pytest.raises(ModelIOError,
                           match="unknown header field 'conbig'"):
            read_model(path)

    @pytest.mark.parametrize("version", [1, 2])
    def test_unknown_header_key_is_named(self, tmp_path, rng, version):
        path = tmp_path / "m.tma"
        model = sample_model(rng)
        if version == 1:
            write_version1_model(model, path)
        else:
            write_model(model, path)
        rewrite_header(path, lambda header: header.update(
            {"zzz": 1, "notes": None}))
        with pytest.raises(ModelIOError, match="unknown header field 'notes'"):
            read_model(path)

    @pytest.mark.parametrize("write", [write_model, write_version1_model])
    def test_missing_optional_keys_read_as_null(self, tmp_path, rng, write):
        path = tmp_path / "m.tma"
        model = sample_model(rng)
        write(model, path)

        def drop(header):
            for key in ("bounds", "labels", "calibration", "metadata",
                        "config"):
                del header[key]
        rewrite_header(path, drop)
        back = read_model(path)
        assert (back.bounds, back.labels, back.calibration, back.metadata,
                back.config) == (None, None, None, None, None)
        for name in model.params:
            np.testing.assert_array_equal(back.params[name],
                                          model.params[name])

    @staticmethod
    def rewrite(path, manifest_extra=(), payload_extra=b""):
        """Re-frame a written model with more manifest entries and bytes."""
        blob = path.read_bytes()
        (header_len,) = struct.unpack_from("<I", blob, 8)
        header = json.loads(blob[12:12 + header_len])
        header["tensors"] += list(manifest_extra)
        text = json.dumps(header).encode("utf-8")
        path.write_bytes(blob[:8] + struct.pack("<I", len(text)) + text
                         + blob[12 + header_len:] + payload_extra)

    def test_unknown_tensor_rejected(self, tmp_path, rng):
        path = tmp_path / "m.tma"
        write_model(sample_model(rng), path)
        self.rewrite(path, [{"name": "extra_w", "shape": [2]}], bytes(16))
        with pytest.raises(ModelIOError, match="unknown tensor 'extra_w'"):
            read_model(path)

    def test_duplicate_tensor_rejected(self, tmp_path, rng):
        path = tmp_path / "m.tma"
        write_model(sample_model(rng), path)
        self.rewrite(path, [{"name": "out_b", "shape": [3]}], bytes(24))
        with pytest.raises(ModelIOError, match="'out_b' appears twice"):
            read_model(path)

    def test_trailing_bytes_rejected(self, tmp_path, rng):
        path = tmp_path / "m.tma"
        write_model(sample_model(rng), path)
        self.rewrite(path, payload_extra=bytes(8))
        with pytest.raises(ModelIOError, match="8 bytes after the last tensor"):
            read_model(path)

    @pytest.mark.parametrize("key,value,message", [
        ("tensors", 5, "'tensors' is 5"),
        ("tensors", None, "'tensors' is None"),
        ("labels", "abc", "labels must be a list of strings, got 'abc'"),
        ("labels", ["a", 2, "c"], "labels must be a list of strings"),
        ("labels", {"a": 0, "b": 1, "c": 2}, "labels must be a list of strings"),
    ])
    def test_malformed_header_field_named(self, tmp_path, rng, key, value,
                                          message):
        path = tmp_path / "m.tma"
        write_model(sample_model(rng), path)
        rewrite_header(path, lambda header: header.update({key: value}))
        with pytest.raises(ModelIOError, match=message):
            read_model(path)

    @pytest.mark.parametrize("dim", [3.5, True, "3", 0])
    def test_shape_entries_must_be_positive_integers(self, tmp_path, rng, dim):
        path = tmp_path / "m.tma"
        write_model(sample_model(rng), path)

        def change(header):
            header["tensors"][-1]["shape"] = [dim]   # out_b, 3 classes
        rewrite_header(path, change)
        with pytest.raises(ModelIOError,
                           match="tensor 'out_b' has shape .*positive integers"):
            read_model(path)


    @pytest.mark.parametrize("key,field,value,expected", [
        ("metadata", "seed", "x", "an integer"),
        ("metadata", "epochs", True, "an integer"),
        ("metadata", "batch_size", 32.0, "an integer"),
        ("metadata", "learning_rate", "0.1", "a finite number"),
        ("metadata", "final_loss", None, "a finite number"),
        ("bounds", "first_order_min", True, "a finite number"),
        ("bounds", "first_order_max", "1.5", "a finite number"),
        ("bounds", "second_order_min", float("-inf"), "a finite number"),
        ("bounds", "second_order_max", [9.0], "a finite number"),
    ])
    def test_metadata_and_bounds_fields_are_type_checked(
            self, tmp_path, rng, key, field, value, expected):
        path = tmp_path / "m.tma"
        write_model(sample_model(rng), path)
        rewrite_header(path, lambda header: header[key].update({field: value}))
        with pytest.raises(ModelIOError, match=f"header field '{key}': "
                           f"field '{field}' is .*, expected {expected}"):
            read_model(path)

    def test_untrained_model_keeps_its_nan_loss(self, tmp_path, rng):
        # cnn.train records a NaN final_loss when no epoch ran
        model = sample_model(rng)
        model.metadata = TrainingMetadata(seed=3, epochs=0, learning_rate=0.01,
                                          batch_size=32,
                                          final_loss=float("nan"))
        path = tmp_path / "m.tma"
        write_model(model, path)
        assert np.isnan(read_model(path).metadata.final_loss)
        rewrite_header(path, lambda header: header["metadata"].update(
            {"epochs": 1}))
        with pytest.raises(ModelIOError, match="header field 'metadata': field "
                           "'final_loss' is nan, expected a finite number"):
            read_model(path)

    def test_trained_model_round_trips_in_float32(self, tmp_path,
                                                  trained_setup):
        model = trained_setup.model
        path, wide_path = tmp_path / "m.tma", tmp_path / "wide.tma"
        write_model(model, path)
        write_model(dataclasses.replace(model, params={
            k: v.astype(np.float64) for k, v in model.params.items()}),
            wide_path)
        (version, header_len), header = container_header(path)
        assert (version, header["dtype"]) == (2, "<f4")
        assert container_header(wide_path)[1]["dtype"] == "<f8"
        payload = path.stat().st_size - 12 - header_len
        wide_payload = wide_path.stat().st_size - 12 - header_len
        assert 2 * payload == wide_payload
        assert path.stat().st_size < 0.55 * wide_path.stat().st_size

        back = read_model(path)
        for name in PARAM_ORDER:
            assert back.params[name].dtype == np.float32
            assert back.params[name].tobytes() == model.params[name].tobytes()
        arch = model.architecture
        maps = np.random.default_rng(7).random(
            (5, arch.input_rows, arch.input_cols))
        for m in maps:
            assert predict(back, m) == predict(model, m)

    def test_version1_file_loads_in_float64(self, tmp_path, rng):
        model = sample_model(rng)
        model.params = {k: v.astype(np.float32).astype(np.float64)
                        for k, v in model.params.items()}
        path = tmp_path / "v1.tma"
        write_version1_model(model, path)
        back = read_model(path)
        for name in PARAM_ORDER:
            assert back.params[name].dtype == np.float64
            np.testing.assert_array_equal(back.params[name],
                                          model.params[name])
        x = rng.random((14, 12))
        np.testing.assert_array_equal(forward(back, x), forward(model, x))
        assert forward(back, x).dtype == np.float64
        # version 1 has no dtype field: one in its header is refused, as a
        # version-2 file whose version number was flipped to 1 would be
        rewrite_header(path, lambda header: header.update({"dtype": "<f4"}))
        with pytest.raises(ModelIOError, match="unknown header field 'dtype'"):
            read_model(path)

    @pytest.mark.parametrize("value", [
        "<fx", "<i8", ">f8", "<f2", "float32", "", 4, 8.0, None, ["<f4"],
        {"dtype": "<f8"}, "missing",
    ])
    def test_bad_tensor_dtype_is_named(self, tmp_path, rng, value):
        path = tmp_path / "m.tma"
        write_model(sample_model(rng), path)

        def change(header):
            if value == "missing":
                del header["dtype"]
            else:
                header["dtype"] = value
        rewrite_header(path, change)
        with pytest.raises(ModelIOError, match="header field 'dtype' is "):
            read_model(path)

    @pytest.mark.parametrize("field,value", [
        ("input_rows", 44.0), ("kernel", 3.0), ("conv1_filters", True),
        ("input_cols", "80"),
    ])
    def test_architecture_fields_are_type_checked(self, tmp_path, rng, field,
                                                  value):
        # a float input_rows used to load, then fail inside the forward pass
        path = tmp_path / "m.tma"
        write_model(sample_model(rng), path)
        rewrite_header(path, lambda header: header["architecture"].update(
            {field: value}))
        with pytest.raises(ModelIOError, match=re.escape(
                f"header field 'architecture': field '{field}' is {value!r}, "
                "expected an integer")):
            read_model(path)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
    | st.integers(min_value=2 ** 1024),          # beyond the float range
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=4)),
    max_leaves=8)
HEADER_KEYS = ("architecture", "bounds", "labels", "calibration", "metadata",
               "config", "dtype", "tensors")


@pytest.fixture(scope="module")
def model_file(tmp_path_factory):
    """A valid model file with every optional header field present."""
    model = sample_model(np.random.default_rng(5))
    model.config = SessionConfig(channels=4, map_width=12, map_stride=4)
    path = tmp_path_factory.mktemp("model") / "m.tma"
    write_model(model, path)
    return path


@settings(max_examples=300, deadline=None)
@given(key=st.sampled_from(HEADER_KEYS), value=JSON_VALUES,
       nested=st.booleans(), pick=st.integers(min_value=0))
@example(key="architecture", value=14.0, nested=True, pick=5)  # input_rows
def test_arbitrary_header_values_load_or_raise_model_io_error(
        model_file, key, value, nested, pick):
    # any JSON value in a header key, or in one field of that key's valid
    # value, either loads or raises a ModelIOError - never anything else;
    # a model that loads classifies a map of its shape or raises a
    # TmagestError
    def change(header):
        target = header[key]
        if nested and isinstance(target, dict):
            target[sorted(target)[pick % len(target)]] = value
        elif nested and isinstance(target, list):
            target[pick % len(target)] = value
        else:
            header[key] = value

    # each example goes to a new file: truncating and rewriting one file
    # per example was slow on some file systems
    fd, path = tempfile.mkstemp(suffix=".tma", dir=model_file.parent)
    with os.fdopen(fd, "wb") as fh:
        fh.write(reframe_header(model_file.read_bytes(), change))
    try:
        model = read_model(path)
    except ModelIOError:
        return
    arch = model.architecture
    try:
        predict(model, np.zeros((arch.input_rows, arch.input_cols)))
    except TmagestError:
        pass


class TestParseRows:
    ROWS = ["0,1.5,2.5", "1,-3.0,4.0", "2,0.0,1e-300", "3,7.0,8.0"]

    def test_blocks_equal_one_call(self):
        whole = np.empty((4, 2))
        assert parse_rows(self.ROWS, range(2, 6), whole) == 3
        parts = np.empty((4, 2))
        prev = parse_rows(self.ROWS[:3], [2, 3, 4], parts)
        assert parse_rows(self.ROWS[3:], [5], parts[3:], prev) == 3
        np.testing.assert_array_equal(parts, whole)
        np.testing.assert_array_equal(whole[1], [-3.0, 4.0])

    def test_gap_across_blocks_names_line(self):
        out = np.empty((4, 2))
        with pytest.raises(RecordingParseError, match="line 17: sample index 3"):
            parse_rows(self.ROWS[3:], [17], out, prev_t=1)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_names_its_line_number(self, value):
        rows = ["0,1.0,2.0", f"1,3.0,{value}"]
        with pytest.raises(RecordingParseError, match=f"line 9: ch1 is {value}"):
            parse_rows(rows, [4, 9], np.empty((2, 2)))

    @pytest.mark.parametrize("row", ["0,1.0", "0,1.0,2.0,3.0", "x,1.0,2.0",
                                     "0,1.0,abc", "0.5,1.0,2.0"])
    def test_bad_row_names_its_line_number(self, row):
        with pytest.raises(RecordingParseError, match="line 7: "):
            parse_rows([row], [7], np.empty((1, 2)))


ARABIC_INDIC = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")
# Spellings int() and float() accept or reject that a canonical row never has.
T_SPELLINGS = [lambda t: "+" + t, lambda t: "0" + t, lambda t: " " + t,
               "_".join, lambda t: t + "_0", lambda t: t + ".0",
               lambda t: t.translate(ARABIC_INDIC)]
VALUE_SPELLINGS = ["1_0", " 1.5", "nan", "inf", "0x1p3", "-0", "", "1e999"]


@st.composite
def csv_rows(draw):
    """Canonical rows, optionally mutated, with a prev_t, a split point and
    a block size; returns (channels, lines, prev_t, cut, block)."""
    channels = draw(st.integers(1, 4))
    n = draw(st.integers(1, 12))
    start = draw(st.integers(0, 120))
    values = st.floats(allow_nan=False, allow_infinity=False)
    rows = [[str(start + k)]
            + [repr(draw(values)) for _ in range(channels)]
            for k in range(n)]
    for _ in range(draw(st.integers(0, 3))):
        k = draw(st.integers(0, n - 1))
        kind = draw(st.sampled_from(["t", "value", "ragged", "gap", "blank"]))
        if kind == "t":
            rows[k][0] = draw(st.sampled_from(T_SPELLINGS))(rows[k][0])
        elif kind == "value":
            last = len(rows[k]) - 1
            rows[k][draw(st.integers(min(1, last), last))] = draw(
                st.sampled_from(VALUE_SPELLINGS))
        elif kind == "ragged":
            if len(rows[k]) > 1 and draw(st.booleans()):
                rows[k].pop()
            else:
                rows[k].append("1.0")
        elif kind == "gap":
            rows[k][0] = str(start + k + draw(st.sampled_from([-1, 1, 2])))
        else:
            rows[k] = [""]
    prev_t = draw(st.sampled_from([None, start - 1, start - 2, start]))
    cut = draw(st.integers(0, n))
    block = draw(st.sampled_from([1, 2, 3, tmio.ROW_BLOCK]))
    return channels, [",".join(r) for r in rows], prev_t, cut, block


def parse_outcome(lines, channels, prev_t, cut):
    """Parse in two calls that carry ``prev_t``, as the stdin reader does;
    returns (last t, array bytes) or (error text, error line)."""
    out = np.zeros((len(lines), channels))
    numbers = list(range(2, len(lines) + 2))
    try:
        t = parse_rows(lines[:cut], numbers[:cut], out[:cut], prev_t)
        t = parse_rows(lines[cut:], numbers[cut:], out[cut:], t)
    except RecordingParseError as exc:
        return str(exc), exc.line
    return t, out.tobytes()


class TestBulkRows:
    """The block parser must accept exactly what the row loop accepts."""

    @settings(max_examples=400, deadline=None)
    @given(csv_rows())
    def test_bulk_matches_row_loop(self, case):
        channels, lines, prev_t, cut, block = case
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(tmio, "_parse_block", lambda lines, out, prev_t: None)
            reference = parse_outcome(lines, channels, prev_t, cut)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(tmio, "ROW_BLOCK", block)
            assert parse_outcome(lines, channels, prev_t, cut) == reference

    def test_canonical_block_is_taken_in_one_pass(self):
        out = np.empty((2, 2))
        assert tmio._parse_block(["4,1.5,2.0", "5,-0.0,3e-9"], out, 3) == 5
        np.testing.assert_array_equal(out, [[1.5, 2.0], [-0.0, 3e-9]])
        assert tmio._parse_block(["7,1.5,2.0"], out, None) == 7

    @pytest.mark.parametrize("lines,prev_t", [
        (["+4,1.5,2.0"], 3), (["04,1.5,2.0"], None), (["4,1.5,2.0"], 4),
        (["4,1.5", "5,2.0,3.0,4.0"], 3), (["4,1.5,x"], 3)])
    def test_other_blocks_go_to_the_row_loop(self, lines, prev_t):
        out = np.full((2, 2), 9.0)
        assert tmio._parse_block(lines, out, prev_t) is None
        assert (out == 9.0).all()


# Line breaks that str.splitlines() takes besides "\n", and byte runs that
# are not UTF-8: a stray byte, a lead byte cut short, an encoded surrogate.
LINE_BREAKS = ["\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x85", "\u2028",
               "\u2029", "\n\n"]
NOT_UTF8 = [b"\xff", b"\xc3", b"\xe2\x82", b"\xed\xa0\x80", b"\xf0\x9f\x98"]


@st.composite
def csv_files(draw):
    """The bytes of a recording CSV, mutated on lines at either side of the
    edges of line blocks, with blank lines and headers inserted there, and
    the block size; returns (data, block)."""
    block = draw(st.sampled_from([1, 2, 3, 5]))
    channels = draw(st.integers(1, 3))
    values = st.floats(allow_nan=False, allow_infinity=False)
    lines = [["t", *(f"ch{i}" for i in range(channels))]]
    lines += [[str(t), *(repr(draw(values)) for _ in range(channels))]
              for t in range(draw(st.integers(0, 4 * block + 2)))]
    ends = ["\n"] * len(lines)
    ends[-1] = draw(st.sampled_from(["\n", ""]))
    pieces = [",".join(line).encode() for line in lines]
    for _ in range(draw(st.integers(0, 3))):
        edge = draw(st.integers(0, 4)) * block + draw(st.integers(-1, 1))
        k = min(max(edge, 0), len(pieces) - 1)
        kind = draw(st.sampled_from(["end", "break", "utf8", "value",
                                     "ragged", "skipped"]))
        at = draw(st.integers(0, len(pieces[k])))
        if kind == "skipped":    # before line k: blank, or a header
            pieces.insert(k, draw(st.sampled_from(
                [b"", b" \t", pieces[0], b"  " + pieces[0], b"t,"])))
            ends.insert(k, "\n")
        elif kind == "end":
            ends[k] = draw(st.sampled_from(LINE_BREAKS))
        elif kind == "break":
            pieces[k] = (pieces[k][:at]
                         + draw(st.sampled_from(LINE_BREAKS)).encode()
                         + pieces[k][at:])
        elif kind == "utf8":
            pieces[k] = (pieces[k][:at] + draw(st.sampled_from(NOT_UTF8))
                         + pieces[k][at:])
        elif kind == "value" and k > 0 and b"," in pieces[k]:
            fields = pieces[k].split(b",")
            fields[draw(st.integers(1, len(fields) - 1))] = draw(
                st.sampled_from([b"nan", b"inf", b"-inf", b"1e999"]))
            pieces[k] = b",".join(fields)
        elif kind == "ragged":
            pieces[k] = (pieces[k].rpartition(b",")[0] if draw(st.booleans())
                         else pieces[k] + b",1.0")
    data = b"".join(p + e.encode() for p, e in zip(pieces, ends))
    if draw(st.integers(0, 9)) == 0:    # cut anywhere, to nothing at all
        data = data[:draw(st.integers(0, len(data)))]
    return data, block


def rows_line_by_line(lines, channels):
    """The rows of the ``(line number, line)`` pairs ``lines``, each parsed
    alone: stripped lines that are blank, or start with ``t,`` and declare
    ``channels`` channels, are skipped."""
    prev_t = None
    for number, line in lines:
        line = line.strip()
        if line.startswith("t,") and line.count(",") != channels:
            raise RecordingParseError(
                f"file has {line.count(',')} channels, expected {channels}",
                line=number)
        if line and not line.startswith("t,"):
            row = np.empty((1, channels))
            prev_t = parse_rows([line], [number], row, prev_t)
            yield row


def whole_file_outcome(path):
    """The file read whole and decoded in text mode, split by splitlines()
    and parsed line by line; line 1 must be the header. The lines before a
    byte that is not UTF-8 are parsed before its error is raised.
    Returns (shape, array bytes) or (error reason, error line)."""
    data = path.read_bytes()
    try:
        text, bad = data.decode("utf-8"), None
    except UnicodeDecodeError as exc:
        text = data[:data.rfind(b"\n", 0, exc.start) + 1].decode("utf-8")
        bad = RecordingParseError(f"not UTF-8 text: {exc.reason}",
                                  line=data.count(b"\n", 0, exc.start) + 1)
    lines = text.splitlines()
    try:
        if not lines:
            raise bad or RecordingParseError(
                "file is empty, expected a header", line=1)
        header = lines[0].strip()
        if not header.startswith("t,"):
            raise RecordingParseError(
                f"bad header {header!r}, expected 't,ch0,...'", line=1)
        channels = header.count(",")
        rows = list(rows_line_by_line(enumerate(lines, start=1), channels))
        if bad:
            raise bad
    except RecordingParseError as exc:
        return exc.reason, exc.line
    rows = np.concatenate(rows) if rows else np.empty((0, channels))
    return rows.shape, rows.tobytes()


def block_outcome(path):
    try:
        samples = read_recording(path, sample_rate=200.0).samples
    except RecordingParseError as exc:
        assert exc.path == path
        return exc.reason, exc.line
    return samples.shape, samples.tobytes()


class TestLineBlocks:
    """The line-block reader must read what the whole-file reader read."""

    @settings(max_examples=500, deadline=None)
    @given(csv_files())
    @example((b"t,ch0\n0,1.0\n1,nan\n2,1.0\r3,1.0\n", 2))
    @example((b"t,ch0\n0,1.0\n1,\xff\n2,1.0\n3,1.0\r\n", 1))
    @example((b"t,ch0\n0,1.0\x852,1.0\n", 2))
    @example((b"t,ch0\n0,nan\n1,1.0\n2,1,1\n", 2))    # NaN, then a bad row
    @example((b"t,ch0\n0,1,1\n1,\xff\n", 2))    # a bad row, then not UTF-8
    @example((b"\n\nt,ch0\n", 1))    # the header is not on line 1
    def test_blocks_equal_the_whole_file_reader(self, case):
        data, block = case
        with tempfile.TemporaryDirectory() as root:
            path = Path(root) / "r.csv"
            path.write_bytes(data)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(tmio, "ROW_BLOCK", block)
                assert block_outcome(path) == whole_file_outcome(path)

    def test_peak_memory_bounded_by_the_array(self, tmp_path, rng):
        path = tmp_path / "long.csv"
        write_recording(Recording(sample_rate=200.0,
                                  samples=rng.normal(size=(60_000, 8))), path)
        rec, peak = traced_peak(lambda: read_recording(path, sample_rate=200.0))
        samples = rec.samples
        # the block arrays and their join, and one block's text and lines
        assert peak < 2.5 * samples.nbytes + (4 << 20)

    def test_read_under_a_trace_hook_equals_a_plain_read(self, tmp_path, rng):
        # a trace hook holds references to the reader's locals, which numpy's
        # reference check on the in-place growth would count
        path = tmp_path / "r.csv"
        write_recording(Recording(sample_rate=200.0,
                                  samples=rng.normal(size=(tmio.ROW_BLOCK + 5, 2))),
                        path)
        plain = read_recording(path, sample_rate=200.0).samples

        def tracer(frame, event, arg):
            return tracer

        hook = sys.gettrace()
        sys.settrace(tracer)
        try:
            traced = read_recording(path, sample_rate=200.0).samples
        finally:
            sys.settrace(hook)
        assert traced.tobytes() == plain.tobytes()


class LineWriter(std_io.RawIOBase):
    """The read end of a pipe whose writer sends one line at a time, as a
    live acquisition process does."""

    def __init__(self, data):
        self._lines = std_io.BytesIO(data)

    def readable(self):
        return True

    def readinto(self, buffer):
        line = self._lines.readline(len(buffer))
        buffer[:len(line)] = line
        return len(line)


def text_stdin_outcome(data, channels, stride):
    """The universal-newline lines of a strict UTF-8 text stdin, parsed line
    by line, a stride reported as soon as its last row is parsed.
    Returns (stride bytes, (error reason, error line) or None)."""
    stdin = std_io.TextIOWrapper(std_io.BufferedReader(LineWriter(data)),
                                 encoding="utf-8", errors="strict")

    def stdin_lines():
        i = 0
        try:
            for i, line in enumerate(stdin, start=1):
                yield i, line
        except UnicodeDecodeError as exc:
            # the chunk after line i is decoded only once line i is read
            line = i + 1 + exc.object.count(b"\n", 0, exc.start)
            raise RecordingParseError(f"not UTF-8 text: {exc.reason}",
                                      line=line) from exc

    strides, rows = [], []
    try:
        for row in rows_line_by_line(stdin_lines(), channels):
            rows.append(row)
            if len(rows) == stride:
                strides.append(np.concatenate(rows).tobytes())
                rows = []
    except RecordingParseError as exc:
        return strides, (exc.reason, exc.line)
    return strides, None


class ChunkWriter(std_io.RawIOBase):
    """The read end of a pipe whose writer sends the bytes between the given
    cut points, one piece at a time."""

    def __init__(self, data, cuts):
        self._pieces = [data[a:b] for a, b in zip([0, *cuts],
                                                  [*cuts, len(data)])]

    def readable(self):
        return True

    def readinto(self, buffer):
        while self._pieces and not self._pieces[0]:
            self._pieces.pop(0)
        if not self._pieces:
            return 0
        piece = self._pieces[0][:len(buffer)]
        self._pieces[0] = self._pieces[0][len(piece):]
        buffer[:len(piece)] = piece
        return len(piece)


def stride_outcome(data, channels, stride, seekable=False, cuts=None):
    """:func:`text_stdin_outcome` for ``read_strides``, on a seekable stream
    or on the read end of a pipe whose writer sends a line at a time or,
    given ``cuts``, the bytes between them."""
    if seekable:
        stream = std_io.BytesIO(data)
    else:
        stream = std_io.BufferedReader(LineWriter(data) if cuts is None
                                       else ChunkWriter(data, cuts))
    assert stream.seekable() == seekable
    strides = []
    try:
        for batch in tmio.read_strides(stream, channels, stride):
            strides.append(batch.tobytes())
    except RecordingParseError as exc:
        return strides, (exc.reason, exc.line)
    return strides, None


SKIPPED = [b"", b"  ", b" \t", b"t,ch0", b"  t,ch0,ch1", b"t,"]


@st.composite
def stdin_streams(draw):
    """Rows piped on stdin, mutated on lines at either side of the edges of
    strides, with skipped lines anywhere; returns (data, channels, stride)."""
    stride = draw(st.sampled_from([1, 2, 3, 20]))
    channels = draw(st.integers(1, 3))
    start = draw(st.integers(0, 50))
    values = st.floats(allow_nan=False, allow_infinity=False)
    pieces = [",".join([str(start + k), *(repr(draw(values))
                                          for _ in range(channels))]).encode()
              for k in range(draw(st.integers(0, 3 * stride + 2)))]
    utf8 = True
    for _ in range(draw(st.integers(0, 2))):
        if not pieces:
            break
        edge = draw(st.integers(0, 3)) * stride + draw(st.integers(-1, 1))
        k = min(max(edge, 0), len(pieces) - 1)
        kind = draw(st.sampled_from(["gap", "value", "ragged", "truncate",
                                     "utf8"]))
        at = draw(st.integers(0, len(pieces[k])))
        fields = pieces[k].split(b",")
        if kind == "gap":
            del pieces[k]
        elif kind == "value" and len(fields) > 1:
            fields[draw(st.integers(1, len(fields) - 1))] = draw(
                st.sampled_from([b"nan", b"inf", b"-inf", b"1e999"]))
            pieces[k] = b",".join(fields)
        elif kind == "ragged":
            pieces[k] = (pieces[k].rpartition(b",")[0] if draw(st.booleans())
                         else pieces[k] + b",1.0")
        elif kind == "truncate":
            pieces[k] = pieces[k][:at]
        elif kind == "utf8":
            pieces[k] = (pieces[k][:at] + draw(st.sampled_from(NOT_UTF8))
                         + pieces[k][at:])
            utf8 = False
    for _ in range(draw(st.integers(0, 3))):
        pieces.insert(draw(st.integers(0, len(pieces))),
                      draw(st.sampled_from(SKIPPED)))
    # A line that is not UTF-8 is named by its count of b"\n" (see
    # test_not_utf8_is_named_by_its_newlines), so "\r" ends only UTF-8 text.
    ends = st.sampled_from(["\n", "\r\n", "\r"] if utf8 else ["\n", "\r\n"])
    data = b"".join(p + draw(ends).encode() for p in pieces)
    if pieces and draw(st.booleans()):    # no break after the last line
        data = data.rstrip(b"\r\n")
    return data, channels, stride


class TestReadStrides:
    """Streamed rows, read through the file decoder: a stride at a time from
    a pipe, a block of lines at a time from a seekable stream."""

    @settings(max_examples=400, deadline=None)
    @given(stdin_streams())
    @example((b"t,ch0\n0,1.0\n\n1,2.0\r\n2,nan\r3,4.0\n", 1, 2))
    @example((b"0,1,2\n\n1,3,4\n  t,ch0,ch1\n2,5,6\n4,7,8\n", 2, 2))
    @example((b"0,1\n1,2\n2,inf\n", 1, 2))    # a partial last stride
    @example((b"0,nan\n1,\xff\n", 1, 1))    # stream order, line by line
    @example((b"0,1.0\n1,2.0\n2,\xff3.0\n", 1, 2))
    @example((b"0,1.0\n1,2.0\n2,3.0\xe2\x82", 1, 20))
    @example((b"0,0.0\r1,0.0\n", 1, 1))    # two strides in one byte line
    @example((b"0,nan\n1,1,1\n", 1, 2))    # a NaN, then a bad row, one stride
    def test_strides_equal_the_text_stdin_reader(self, case):
        data, channels, stride = case
        expected = text_stdin_outcome(data, channels, stride)
        assert stride_outcome(data, channels, stride) == expected
        for block in (1, 5, tmio.ROW_BLOCK):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(tmio, "ROW_BLOCK", block)
                assert stride_outcome(data, channels, stride,
                                      seekable=True) == expected

    @settings(max_examples=300, deadline=None)
    @given(stdin_streams(), st.lists(st.integers(0, 200), max_size=8))
    @example((b"0,1.0\r\n1,2.0\r\n2,x\n", 1, 1), [6, 13])    # "\r" | "\n"
    @example((b"0,1.0\r\n1,\xff\n", 1, 1), [6])
    def test_strides_do_not_depend_on_where_a_pipe_cuts_its_bytes(
            self, case, cuts):
        data, channels, stride = case
        assert stride_outcome(data, channels, stride,
                              cuts=sorted(cuts)) == \
            text_stdin_outcome(data, channels, stride)

    @pytest.mark.parametrize("faults", [
        [(tmio.ROW_BLOCK + 904, b"nan")], [(tmio.ROW_BLOCK + 904, b"\xff")],
        [(tmio.ROW_BLOCK + 904, None)],
        # an inf before a gap in the same block: stream order
        [(tmio.ROW_BLOCK + 4, b"inf"), (2 * tmio.ROW_BLOCK - 96, None)],
        # a later block's error after an earlier block's gap
        [(2 * tmio.ROW_BLOCK + 808, b"1e999"), (tmio.ROW_BLOCK + 20, None)],
    ])
    def test_an_error_in_the_second_row_block(self, faults):
        # a seekable stream gives the strides and the first error of a pipe,
        # also when a block holds more than one bad stride
        rows = [b"%d,%d.5,1.0" % (t, t) for t in range(3 * tmio.ROW_BLOCK)]
        for row, value in faults:
            rows[row] = (value.join([b"%d," % row, b",1.0"])
                         if value else b"%d,1.0,1.0" % (row + 1))
        data = b"\n".join([b"t,ch0,ch1", *rows, b""])
        piped = stride_outcome(data, 2, 20)
        assert stride_outcome(data, 2, 20, seekable=True) == piped
        first = min(row for row, _ in faults)
        assert len(piped[0]) == first // 20 and piped[1][1] == first + 2

    @pytest.mark.parametrize("seekable", [False, True])
    def test_a_header_of_other_channels_ends_the_rows_at_its_line(
            self, seekable):
        # the strides before it come out, and the first bad line wins: a
        # NaN in the partial stride before the header, else the header
        data = b"t,ch0\n0,1.0\n1,2.0\n2,nan\n  t,ch0,ch1 \n3,4.0\n"
        assert stride_outcome(data, 1, 2, seekable) == (
            [np.array([1.0, 2.0]).tobytes()],
            ("ch0 is nan, expected a finite value", 4))
        assert stride_outcome(data.replace(b"nan", b"3.0"), 1, 2,
                              seekable) == (
            [np.array([1.0, 2.0]).tobytes()],
            ("file has 2 channels, expected 1", 5))
        assert stride_outcome(data, 2, 2, seekable) == (
            [], ("file has 1 channels, expected 2", 1))

    @pytest.mark.parametrize("data,line", [
        (b"0,1.0\n1,\xff\n", 2),           # a C locale gave a float() error
        (b"t,\xff\n0,1.0\n1,2.0\n", 1),    # a C locale skipped the line
        (b"0,1.0\r1,\xff\r2,3.0\r", 1),    # "\r" does not count
    ])
    def test_not_utf8_is_named_by_its_newlines(self, data, line):
        # in every locale, as in a file: line 1 + the count of b"\n" before
        assert stride_outcome(data, 1, 1)[1] == (
            "not UTF-8 text: invalid start byte", line)

    def test_a_cr_row_before_bytes_not_utf8_comes_only_from_a_pipe(self):
        # a pipe hands out the row its "\r" ends before the bad byte
        # arrives; a file's blocks end at b"\n", so a file gives none of the
        # rows on the bad byte's b"\n" line; the error is the same
        data = b"0,1.0\r1,\xff\n"
        error = ("not UTF-8 text: invalid start byte", 1)
        assert stride_outcome(data, 1, 1) == (
            [np.array([1.0]).tobytes()], error)
        assert stride_outcome(data, 1, 1, seekable=True) == ([], error)

    @pytest.mark.parametrize("brk",["\x0b", "\x0c", "\x1c", "\x1d", "\x1e",
                                     "\x85", "\u2028", "\u2029"])
    def test_rare_line_breaks_split_rows_as_in_a_file(self, brk):
        data = f"0,1.0{brk}1,2.0\n2,nan\n".encode()
        strides, error = stride_outcome(data, 1, 2)
        np.testing.assert_array_equal(np.frombuffer(strides[0]), [1.0, 2.0])
        assert error == ("ch0 is nan, expected a finite value", 3)


class CountingStream(std_io.BytesIO):
    """The read end of a pipe whose writer sends one line at a time, which
    cannot seek, counting the lines it has handed out."""

    handed = 0

    def seekable(self):
        return False

    def read1(self, size=-1):
        line = self.readline(size)
        self.handed += bool(line)
        return line

    def __next__(self):
        line = super().__next__()
        self.handed += 1
        return line


class SeekableCountingStream(CountingStream):
    def seekable(self):
        return True


def counted_rows(stride):
    """Four strides of rows with skipped lines between them, and the line
    number of each row."""
    lines, rows = [b"t,ch0"], []
    for t in range(4 * stride):
        if t % 3 == 1:
            lines.append([b"", b"t,ch0", b" "][t // 3 % 3])
        lines.append(b"%d,%d.5" % (t, t))
        rows.append(len(lines))
    return b"\n".join(lines) + b"\n", rows


@pytest.mark.parametrize("stride", [1, 2, 3, 20])
def test_a_stride_is_yielded_before_the_next_line_is_read(stride):
    data, rows = counted_rows(stride)
    stream = CountingStream(data)
    strides = tmio.read_strides(stream, 1, stride)
    for k, batch in enumerate(strides):
        # the line of the stride's last row is the last line read
        assert stream.handed == rows[(k + 1) * stride - 1]
        assert batch[-1, 0] == (k + 1) * stride - 0.5
    assert k == 3


@pytest.mark.parametrize("stride", [1, 2])
def test_rows_ended_by_a_lone_cr_are_read_from_an_open_pipe(stride):
    # "\r" ends the rows, so they are read before the writer closes the
    # pipe; the "\n" of a "\r\n" sent later starts no new line
    r, w = os.pipe()
    with os.fdopen(r, "rb") as fh, os.fdopen(w, "wb", buffering=0) as writer:
        writer.write(b"0,1.0\r1,2.0\r")
        strides = tmio.read_strides(fh, 1, stride)
        got = []
        reader = threading.Thread(
            target=lambda: got.extend(islice(strides, 2 // stride)))
        reader.start()
        reader.join(timeout=10)
        waited = reader.is_alive()
        writer.write(b"\n2,x\n")
        writer.close()
        reader.join()
        assert not waited
        np.testing.assert_array_equal(np.concatenate(got), [[1.0], [2.0]])
        with pytest.raises(RecordingParseError) as err:
            list(strides)
        assert err.value.line == 3


def lines_read_per_stride(data, stride, block):
    """The lines handed out by the time each stride is yielded when every
    read tops the rows held up to ``max(block, stride)`` lines."""
    lines = data.splitlines()
    size = max(block, stride)
    handed = held = 0
    at_stride = []
    while handed < len(lines):
        read = lines[handed:handed + size - held]
        handed += len(read)
        held += sum(1 for line in read
                    if line.strip() and not line.strip().startswith(b"t,"))
        at_stride += [handed] * (held // stride)
        held %= stride
    return at_stride


@pytest.mark.parametrize("block", [1, 4, 7, tmio.ROW_BLOCK])
@pytest.mark.parametrize("stride", [1, 2, 3, 20])
def test_a_seekable_stream_reads_up_to_a_block_of_rows(monkeypatch, stride,
                                                       block):
    data, rows = counted_rows(stride)
    monkeypatch.setattr(tmio, "ROW_BLOCK", block)
    stream = SeekableCountingStream(data)
    expected = lines_read_per_stride(data, stride, block)
    for k, batch in enumerate(tmio.read_strides(stream, 1, stride)):
        assert stream.handed == expected[k]
        assert batch[-1, 0] == (k + 1) * stride - 0.5
    assert k == 3 == len(expected) - 1


@pytest.mark.parametrize("stride", [1, 20, 7])
def test_each_block_of_a_seekable_stream_is_parsed_in_one_pass(monkeypatch,
                                                               stride):
    # each read holds at most ROW_BLOCK rows, so every parse_rows call of a
    # file of a few blocks is one _parse_block call: 4 for 3.5 blocks
    calls = []
    parse_block = tmio._parse_block
    monkeypatch.setattr(tmio, "_parse_block", lambda lines, *args: (
        calls.append(len(lines)) or parse_block(lines, *args)))
    n = 7 * tmio.ROW_BLOCK // 2 // 140 * 140
    data = b"".join(b"t,ch0\n" if t == 0 else b"%d,1.5\n" % (t - 1)
                    for t in range(n + 1))
    strides = list(tmio.read_strides(std_io.BytesIO(data), 1, stride))
    assert len(strides) == n // stride
    assert max(calls) <= tmio.ROW_BLOCK and sum(calls) == n
    assert len(calls) == -(-n // (tmio.ROW_BLOCK - tmio.ROW_BLOCK % stride))


class TestCalibrationJson:
    CAL = ThresholdCalibration(per_gesture_sigma={"b": 2.5, "a": 0.1},
                               threshold=5.2, multiplier=4.0)

    def test_round_trip_and_format(self, tmp_path):
        path = tmp_path / "cal.json"
        write_calibration(self.CAL, path)
        assert read_calibration(path) == self.CAL
        assert path.read_text() == (
            '{\n  "degenerate": false,\n  "multiplier": 4.0,\n'
            '  "per_gesture_sigma": {\n    "a": 0.1,\n    "b": 2.5\n  },\n'
            '  "threshold": 5.2\n}\n')

    @pytest.mark.parametrize("text,field", [
        ('{"threshold": 1.0}', "'per_gesture_sigma' is missing"),
        ('{"per_gesture_sigma": {"a": 1.0}, "threshold": 1.0, '
         '"multiplier": 4.0}', "'degenerate' is missing"),
        ('{"per_gesture_sigma": {"a": 1.0}, "threshold": "high", '
         '"multiplier": 4.0, "degenerate": false}', "'threshold'"),
        ('{"per_gesture_sigma": {"a": NaN}, "threshold": 1.0, '
         '"multiplier": 4.0, "degenerate": false}', "'per_gesture_sigma.a'"),
        ('{"per_gesture_sigma": [1.0], "threshold": 1.0, '
         '"multiplier": 4.0, "degenerate": false}', "'per_gesture_sigma'"),
        ('{"per_gesture_sigma": {"a": 1.0}, "threshold": 1.0, '
         '"multiplier": true, "degenerate": false}', "'multiplier'"),
        ('{"per_gesture_sigma": {"a": 1.0}, "threshold": 1.0, '
         '"multiplier": 4.0, "degenerate": 0}', "'degenerate'"),
        ('{"per_gesture_sigma": {"a": 1.0}, "threshold": 1.0, '
         '"multiplier": 4.0, "degenerate": false, "extra": 1}', "'extra'"),
        ('[1.0]', "JSON object"),
        ('threshold = 1.0', "invalid JSON"),
    ])
    def test_bad_file_names_file_and_field(self, tmp_path, text, field):
        path = tmp_path / "cal.json"
        path.write_text(text)
        with pytest.raises(CalibrationError) as err:
            read_calibration(path)
        assert str(path) in str(err.value)
        assert field in str(err.value)

    def test_int_beyond_float_range_rejected(self, tmp_path):
        path = tmp_path / "cal.json"
        write_calibration(self.CAL, path)
        path.write_text(path.read_text().replace("5.2", "1" + "0" * 400))
        with pytest.raises(CalibrationError, match="'threshold'"):
            read_calibration(path)

    def test_non_utf8_file_names_file(self, tmp_path):
        path = tmp_path / "cal.json"
        path.write_bytes(b'{"threshold": "\xff"}')
        with pytest.raises(CalibrationError, match="can't decode") as err:
            read_calibration(path)
        assert str(path) in str(err.value)

    def test_bad_calibration_in_model_header(self, tmp_path, rng):
        path = tmp_path / "m.tma"
        write_model(sample_model(rng), path)
        blob = path.read_bytes()
        assert blob.count(b'"threshold"') == 1
        path.write_bytes(blob.replace(b'"threshold"', b'"threshald"'))
        with pytest.raises(ModelIOError, match="threshold"):
            read_model(path)


class TestFuzzedMutations:
    """Readers must reject or visibly change - never silently misread."""

    def test_recording_csv_single_char_mutations(self, tmp_path, rng):
        rec = sample_recording(rng, n=20, annotated=False)
        path = tmp_path / "base.csv"
        write_recording(rec, path)
        original = path.read_text()
        alphabet = "0123456789.,-eE+chnt X"
        for _ in range(300):
            pos = int(rng.integers(0, len(original)))
            char = alphabet[int(rng.integers(0, len(alphabet)))]
            mutated = original[:pos] + char + original[pos + 1:]
            path.write_text(mutated)
            try:
                back = read_recording(path, sample_rate=200.0)
            except RecordingParseError:
                continue
            if mutated == original:
                continue
            same = (back.channels == rec.channels
                    and back.num_samples == rec.num_samples
                    and np.array_equal(back.samples, rec.samples))
            # parsing succeeded: either the values visibly changed or the
            # mutation was semantically neutral (e.g. a header column name)
            if same:
                stripped = [line.split(",", 1)[1] for line
                            in mutated.splitlines()[1:]]
                original_rows = [line.split(",", 1)[1] for line
                                 in original.splitlines()[1:]]
                assert [[float(v) for v in row.split(",")]
                        for row in stripped] == \
                    [[float(v) for v in row.split(",")]
                     for row in original_rows]

    def test_model_byte_mutations(self, tmp_path, rng):
        model = sample_model(rng)
        path = tmp_path / "base.tma"
        write_model(model, path)
        original = path.read_bytes()
        for _ in range(200):
            pos = int(rng.integers(0, len(original)))
            flip = bytes([original[pos] ^ (1 << int(rng.integers(0, 8)))])
            path.write_bytes(original[:pos] + flip + original[pos + 1:])
            try:
                back = read_model(path)
            except ModelIOError:
                continue
            # compared as bytes: a flipped sign bit of 0.0 reads back as
            # -0.0, which is a visible change that == does not see
            changed = any(back.params[k].tobytes() != model.params[k].tobytes()
                          for k in model.params)
            changed |= back.labels != model.labels
            changed |= back.bounds != model.bounds
            changed |= back.calibration != model.calibration
            changed |= back.metadata != model.metadata
            assert changed, f"silent misread at byte {pos}"
