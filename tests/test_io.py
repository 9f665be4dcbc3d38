import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tmagest import io as tmio
from tmagest.cnn import (
    CnnArchitecture,
    CnnModel,
    TrainingMetadata,
    forward,
    initial_params,
)
from tmagest.errors import (
    CalibrationError,
    ModelFormatError,
    ModelIOError,
    ModelTruncatedError,
    ModelVersionError,
    RecordingParseError,
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

    def test_structural_error_in_later_block_beats_earlier_nan(self, tmp_path):
        rows = [f"{t},1.0,2.0" for t in range(6000)]
        rows[1] = "1,nan,2.0"      # line 3, first block
        rows[4998] = "4998,1.0"    # line 5000, second block
        path = tmp_path / "two_faults.csv"
        path.write_text("t,ch0,ch1\n" + "\n".join(rows) + "\n")
        with pytest.raises(RecordingParseError,
                           match="line 5000: row has 2 columns, expected 3"):
            read_recording(path, sample_rate=200.0)

    def test_bad_annotation_phase_rejected(self, tmp_path, rng):
        rec = sample_recording(rng, annotated=False)
        path = tmp_path / "s.csv"
        write_recording(rec, path)
        annotations_path(path).write_text("n,gesture,phase\n5,grip,sideways\n")
        with pytest.raises(RecordingParseError):
            read_recording(path, sample_rate=200.0)


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
            changed = any(
                not np.array_equal(back.params[k], model.params[k])
                for k in model.params)
            changed |= back.labels != model.labels
            changed |= back.bounds != model.bounds
            changed |= back.calibration != model.calibration
            changed |= back.metadata != model.metadata
            assert changed, f"silent misread at byte {pos}"
