import contextlib
import dataclasses
import io as std_io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import threading
import unittest.mock
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tmagest
from tmagest import engine as engine_mod
from tmagest import pipeline
from tmagest.cli import main
from tmagest.config import SessionConfig
from tmagest.io import (ROW_BLOCK, annotations_path, read_model,
                        read_recording, write_model)

from conftest import SMALL_CONFIG_KWARGS, rewrite_header

SYNTH_FLAGS = ["--hold", "1.2", "--rest", "1.5", "--rise", "0.025",
               "--settle", "0.05", "--fall", "0.05", "--lead", "2.0",
               "--separation", "0.9"]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One synth -> calibrate -> train pass through the real CLI."""
    root = tmp_path_factory.mktemp("cli")
    config_path = root / "config.json"
    SessionConfig(**SMALL_CONFIG_KWARGS).save(config_path)
    base = ["--config", str(config_path)]

    train_csv = root / "train.csv"
    rc = main(["synth", *base, "--out", str(train_csv), "--mode", "blocked",
               "--reps", "4", "--session-seed", "211", *SYNTH_FLAGS])
    assert rc == 0

    eval_csv = root / "eval.csv"
    rc = main(["synth", *base, "--out", str(eval_csv), "--mode", "sequence",
               "--events", "9", "--session-seed", "311", *SYNTH_FLAGS])
    assert rc == 0

    cal_json = root / "cal.json"
    rc = main(["calibrate", *base, "--recording", str(train_csv),
               "--out", str(cal_json)])
    assert rc == 0

    model_path = root / "model.tma"
    rc = main(["train", *base, "--recording", str(train_csv),
               "--calibration", str(cal_json), "--out", str(model_path)])
    assert rc == 0

    return {"root": root, "base": base, "config": config_path,
            "train_csv": train_csv, "eval_csv": eval_csv,
            "cal_json": cal_json, "model": model_path}


class TestUsage:
    def test_no_arguments_exits_2(self, capsys):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2

    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main(["synth", "--bogus"])
        assert err.value.code == 2

    def test_missing_file_is_error_exit_1(self, workspace, capsys):
        rc = main(["eval", *workspace["base"], "--model", "/nope.tma",
                   "--input", str(workspace["eval_csv"])])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("corrupt,message", [
        ("train.csv", "not UTF-8 text"),
        ("train.annotations.csv", "not UTF-8 text"),
        ("config.json", "can't decode"), ("cal.json", "can't decode"),
    ])
    def test_non_utf8_input_is_error_exit_1(self, workspace, capsys,
                                            tmp_path, corrupt, message):
        # train reads all four files; a byte that is not UTF-8 in any of
        # them ends in one error line naming where it is
        root = workspace["root"]
        for name in ("train.csv", "train.annotations.csv", "config.json",
                     "cal.json"):
            (tmp_path / name).write_bytes((root / name).read_bytes())
        with open(tmp_path / corrupt, "ab") as fh:
            fh.write(b"\xff\xfe\n")
        rc = main(["train", "--config", str(tmp_path / "config.json"),
                   "--recording", str(tmp_path / "train.csv"),
                   "--calibration", str(tmp_path / "cal.json"),
                   "--out", str(tmp_path / "unused.tma")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err


class TestSynth:
    def test_outputs_exist_with_annotations(self, workspace):
        rec = read_recording(workspace["train_csv"], sample_rate=200.0)
        assert rec.channels == 4
        assert len(rec.annotations) == 2 * 3 * 4  # two marks per activation

    def test_sequence_mode_balanced(self, workspace):
        rec = read_recording(workspace["eval_csv"], sample_rate=200.0)
        flex = [a for a in rec.annotations if a.phase == "flexion-onset"]
        names = sorted(a.gesture for a in flex)
        assert names == sorted(["grip", "point", "spread"] * 3)


class TestCalibrate:
    def test_prints_sigma_table_and_threshold(self, workspace, capsys):
        rc = main(["calibrate", *workspace["base"],
                   "--recording", str(workspace["train_csv"])])
        assert rc == 0
        out = capsys.readouterr().out
        for gesture in ("grip", "point", "spread"):
            assert gesture in out
        assert "threshold" in out

    def test_written_json_is_complete(self, workspace):
        data = json.loads(workspace["cal_json"].read_text())
        assert set(data) == {"per_gesture_sigma", "threshold", "multiplier",
                             "degenerate"}
        assert data["multiplier"] == 4.0
        assert data["threshold"] > 0

    @pytest.mark.parametrize("bad", ["a.csv", "a.annotations.csv"])
    def test_parse_error_names_the_file(self, workspace, capsys, tmp_path,
                                        monkeypatch, bad):
        # with --recording a.csv, a bad line 2 in either file is told apart
        root = workspace["root"]
        for src, dst in [("train.csv", "a.csv"),
                         ("train.annotations.csv", "a.annotations.csv")]:
            (tmp_path / dst).write_bytes((root / src).read_bytes())
        lines = (tmp_path / bad).read_text().splitlines()
        lines[1] = "0,1.0" if bad == "a.csv" else "10,grip,bogus"
        (tmp_path / bad).write_text("\n".join(lines) + "\n")
        monkeypatch.chdir(tmp_path)
        rc = main(["calibrate", *workspace["base"], "--recording", "a.csv"])
        assert rc == 1
        expected = {"a.csv": "error: a.csv: line 2: row has 2 columns, "
                             "expected 5\n",
                    "a.annotations.csv": "error: a.annotations.csv: line 2: "
                                         "unknown phase 'bogus'\n"}
        assert capsys.readouterr().err == expected[bad]

    @pytest.mark.parametrize("row", ["-1,grip,rest", "7,grip,flexion-onset"])
    def test_annotation_outside_its_recording_names_the_sidecar(
            self, workspace, capsys, tmp_path, monkeypatch, row):
        # c.csv has 2 samples; beside a second recording, only the file and
        # the line tell where the fault is
        (tmp_path / "c.csv").write_text("t,ch0,ch1,ch2,ch3\n0,1,2,3,4\n"
                                        "1,5,6,7,8\n")
        (tmp_path / "c.annotations.csv").write_text(
            f"n,gesture,phase\n1,grip,rest\n{row}\n")
        monkeypatch.chdir(tmp_path)
        rc = main(["calibrate", *workspace["base"], "--recording", "c.csv",
                   "--recording", str(workspace["train_csv"])])
        assert rc == 1
        n = row.split(",")[0]
        assert capsys.readouterr().err == (
            f"error: c.annotations.csv: line 3: annotation at {n} outside "
            "recording of 2 samples\n")

    @pytest.mark.parametrize("command", ["calibrate", "train"])
    def test_a_gesture_the_config_does_not_know_is_error_exit_1(
            self, workspace, tmp_path, command):
        # train without --calibration calibrates from its recordings first
        path = tmp_path / "train.csv"
        path.write_bytes(workspace["train_csv"].read_bytes())
        sidecar = annotations_path(workspace["train_csv"]).read_text()
        annotations_path(path).write_text(
            sidecar.replace(",point,", ",zzz,", 1))
        argv = [command, *workspace["base"], "--recording", str(path)]
        if command == "train":
            argv += ["--out", str(tmp_path / "unused.tma")]
        rc, out, err = run_quietly(argv)
        assert (rc, out) == (1, "")
        assert err == ("error: calibration data for gestures not in the "
                       "configuration: ['zzz'] (configured: grip, point, "
                       "spread)\n")


class TestTrain:
    def test_model_is_ready_and_carries_calibration(self, workspace):
        model = read_model(workspace["model"])
        assert model.labels == ("grip", "point", "spread")
        assert model.bounds is not None
        assert model.calibration is not None
        assert model.metadata.epochs == SMALL_CONFIG_KWARGS["epochs"]

    def test_training_is_byte_deterministic(self, workspace):
        again = workspace["root"] / "model2.tma"
        rc = main(["train", *workspace["base"],
                   "--recording", str(workspace["train_csv"]),
                   "--calibration", str(workspace["cal_json"]),
                   "--out", str(again)])
        assert rc == 0
        assert again.read_bytes() == workspace["model"].read_bytes()

    def test_each_epoch_prints_loss_and_wall_time(self, workspace, capsys):
        rc = main(["train", *workspace["base"], "--epochs", "2",
                   "--recording", str(workspace["train_csv"]),
                   "--calibration", str(workspace["cal_json"]),
                   "--out", str(workspace["root"] / "two_epochs.tma")])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        epochs = [line for line in lines if line.startswith("epoch")]
        assert len(epochs) == 2
        for i, line in enumerate(epochs, start=1):
            assert re.fullmatch(
                rf"epoch +{i}/2: loss \d+\.\d{{6}} \(\d+\.\d s\)", line), line

    @pytest.mark.parametrize("text,message", [
        ('{"threshold": 1.0}', "calibration field 'per_gesture_sigma' is missing"),
        ("not json at all", "invalid JSON"),
    ])
    def test_bad_calibration_file_is_error_exit_1(self, workspace, capsys,
                                                  text, message):
        cal = workspace["root"] / "bad_cal.json"
        cal.write_text(text)
        rc = main(["train", *workspace["base"],
                   "--recording", str(workspace["train_csv"]),
                   "--calibration", str(cal),
                   "--out", str(workspace["root"] / "unused.tma")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cal}: ")
        assert message in err


class TestRun:
    def test_jsonl_events(self, workspace, capsys):
        rc = main(["run", *workspace["base"], "--model", str(workspace["model"]),
                   "--input", str(workspace["eval_csv"])])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines
        events = [json.loads(line) for line in lines]
        for e in events:
            assert set(e) == {"n", "type", "gesture", "confidence",
                              "compute_us"}
            assert e["type"] in ("prediction", "suppressed")
        kinds = [e["type"] for e in events]
        assert kinds == ["prediction", "suppressed"] * (len(kinds) // 2)

    def test_no_timing_output_is_reproducible(self, workspace, capsys):
        args = ["run", *workspace["base"], "--model", str(workspace["model"]),
                "--input", str(workspace["eval_csv"]), "--no-timing"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        second = capsys.readouterr().out
        assert first == second
        assert "compute_us" not in first

    def test_no_suppression_classifies_all(self, workspace, capsys):
        rc = main(["run", *workspace["base"], "--model", str(workspace["model"]),
                   "--input", str(workspace["eval_csv"]), "--no-suppression"])
        assert rc == 0
        events = [json.loads(line)
                  for line in capsys.readouterr().out.strip().splitlines()]
        assert all(e["type"] == "prediction" for e in events)

    def test_model_alone_suffices(self, workspace, capsys):
        # no --config: geometry, filter, and threshold come from the model
        rc = main(["run", "--model", str(workspace["model"]),
                   "--input", str(workspace["eval_csv"])])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines
        assert json.loads(lines[0])["type"] == "prediction"

    def test_flag_disagreeing_with_the_model_is_error_exit_1(self, workspace,
                                                               capsys):
        # the model was trained with a 2 Hz envelope cutoff; its threshold
        # does not hold for the difference signal of another one
        rc = main(["run", *workspace["base"], "--model", str(workspace["model"]),
                   "--input", str(workspace["eval_csv"]), "--cutoff", "3"])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "error: envelope_cutoff_hz is 3.0, but the model was trained with 2.0")

    @pytest.mark.parametrize("field,value", [
        ("input_rows", 44.0), ("kernel", 3.0), ("conv1_filters", True),
        ("input_cols", "80"),
    ])
    def test_ill_typed_architecture_is_error_exit_1(self, workspace, tmp_path,
                                                    field, value):
        model = tmp_path / "m.tma"
        model.write_bytes(workspace["model"].read_bytes())
        rewrite_header(model, lambda header: header["architecture"].update(
            {field: value}))
        rc, stdout, err = run_quietly(["run", "--model", str(model), "--input",
                                       str(workspace["eval_csv"]),
                                       "--no-timing"])
        assert rc == 1 and stdout == ""
        assert err.startswith(f"error: {model}: header field 'architecture': "
                              f"field '{field}' is ")
        assert err.count("\n") == 1

    def test_stdin_rows(self, workspace, capsys, monkeypatch):
        blob = workspace["eval_csv"].read_bytes()
        monkeypatch.setattr("sys.stdin", std_io.TextIOWrapper(
            std_io.BytesIO(blob), encoding="utf-8"))
        rc = main(["run", *workspace["base"], "--model", str(workspace["model"]),
                   "--input", "-"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines  # events still fire from piped rows

    @pytest.mark.parametrize("fault,message", [
        ("gap", "sample index 501 does not follow 499"),
        ("nan", "ch1 is nan"),
        ("inf", "ch0 is inf"),
        ("bytes", "not UTF-8 text: invalid start byte"),
    ])
    def test_stdin_row_errors_name_the_line(self, workspace, capsys,
                                            monkeypatch, fault, message):
        # stdin rows obey the rules of a recording file; line 502 is t = 500
        lines = workspace["eval_csv"].read_text().splitlines()
        cols = lines[501].split(",")
        if fault == "gap":
            del lines[501]
        elif fault == "nan":
            lines[501] = ",".join(cols[:2] + ["nan"] + cols[3:])
        elif fault == "inf":
            lines[501] = ",".join(cols[:1] + ["inf"] + cols[2:])
        blob = "\n".join(lines).encode()
        if fault == "bytes":    # stdin decodes strictly in a UTF-8 locale
            at = blob.index(lines[501].encode()) + 5
            blob = blob[:at] + b"\xff" + blob[at:]
        monkeypatch.setattr("sys.stdin", std_io.TextIOWrapper(
            std_io.BytesIO(blob), encoding="utf-8"))
        rc = main(["run", *workspace["base"], "--model", str(workspace["model"]),
                   "--input", "-"])
        assert rc == 1
        assert f"error: line 502: {message}" in capsys.readouterr().err

    def test_stdin_is_utf8_in_every_locale(self, workspace, capsys,
                                           monkeypatch):
        # a C locale decodes sys.stdin with surrogateescape; the rows are
        # read from its bytes, so a byte that is not UTF-8 is named as such
        lines = workspace["eval_csv"].read_bytes().splitlines()
        lines[501] = lines[501][:5] + b"\xff" + lines[501][5:]
        monkeypatch.setattr("sys.stdin", std_io.TextIOWrapper(
            std_io.BytesIO(b"\n".join(lines)), encoding="utf-8",
            errors="surrogateescape"))
        rc = main(["run", *workspace["base"], "--model", str(workspace["model"]),
                   "--input", "-"])
        assert rc == 1
        assert ("error: line 502: not UTF-8 text: invalid start byte"
                in capsys.readouterr().err)

    def test_piped_rows_give_the_file_events(self, workspace, capsys):
        argv = ["run", *workspace["base"], "--model", str(workspace["model"]),
                "--no-timing", "--input"]
        assert main([*argv, str(workspace["eval_csv"])]) == 0
        expected = capsys.readouterr().out
        src = str(Path(tmagest.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
        piped = subprocess.run(
            [sys.executable, "-m", "tmagest.cli", *argv, "-"], env=env,
            input=workspace["eval_csv"].read_bytes(), capture_output=True,
            check=True, timeout=300)
        assert expected and piped.stdout.decode() == expected


    @pytest.mark.parametrize("sidecar", [None, "n,gesture,phase\n1\n"])
    def test_sidecar_is_not_read(self, workspace, capsys, tmp_path, sidecar):
        # run streams the rows alone, so a missing or malformed annotation
        # sidecar leaves its events as they are
        argv = ["run", *workspace["base"], "--model", str(workspace["model"]),
                "--no-timing", "--input"]
        assert main([*argv, str(workspace["eval_csv"])]) == 0
        expected = capsys.readouterr().out
        path = tmp_path / "r.csv"
        path.write_bytes(workspace["eval_csv"].read_bytes())
        if sidecar is not None:
            annotations_path(path).write_text(sidecar)
        assert main([*argv, str(path)]) == 0
        assert expected and capsys.readouterr().out == expected

    def test_bad_row_in_a_file_ends_the_run_after_the_strides_before_it(
            self, workspace, capsys, tmp_path, monkeypatch):
        # a NaN in the file's second block of lines: the events of every
        # stride before its stride come out, then the error naming the file
        argv = ["run", *workspace["base"], "--model", str(workspace["model"]),
                "--no-timing", "--input"]
        assert main([*argv, str(workspace["eval_csv"])]) == 0
        clean = capsys.readouterr().out.splitlines(keepends=True)
        lines = workspace["eval_csv"].read_text().splitlines()
        t = ROW_BLOCK + 500
        assert len(lines) > t + 2
        cols = lines[t + 1].split(",")
        lines[t + 1] = ",".join(cols[:3] + ["nan"] + cols[4:])
        (tmp_path / "late.csv").write_text("\n".join(lines) + "\n")
        monkeypatch.chdir(tmp_path)
        assert main([*argv, "late.csv"]) == 1
        captured = capsys.readouterr()
        stride = SMALL_CONFIG_KWARGS["map_stride"]
        before = [e for e in clean if json.loads(e)["n"] < t - t % stride]
        assert before and len(before) < len(clean)
        assert captured.out == "".join(before)
        assert captured.err == (f"error: late.csv: line {t + 2}: ch2 is nan, "
                                "expected a finite value\n")

    @pytest.mark.parametrize("source", ["file", "stdin"])
    def test_header_of_other_channels_is_refused_at_its_line(
            self, workspace, tmp_path, monkeypatch, source):
        # a 2-channel file run with the 4-channel model: the header's
        # error, as read_recording gives it, not the first row's
        path = tmp_path / "two.csv"
        path.write_bytes(b"t,ch0,ch1\n0,1.0,2.0\n1,1.0,2.0\n")
        named = f"{path}: "
        if source == "stdin":
            monkeypatch.setattr("sys.stdin", std_io.TextIOWrapper(
                std_io.BytesIO(path.read_bytes()), encoding="utf-8"))
            path, named = "-", ""
        rc, out, err = run_quietly(["run", *workspace["base"], "--model",
                                    str(workspace["model"]), "--input",
                                    str(path)])
        assert (rc, out) == (1, "")
        assert err == f"error: {named}line 1: file has 2 channels, expected 4\n"

    def test_empty_file_is_error_empty_stdin_is_no_rows(
            self, workspace, tmp_path, monkeypatch):
        path = tmp_path / "empty.csv"
        path.write_bytes(b"")
        argv = ["run", *workspace["base"], "--model", str(workspace["model"]),
                "--input"]
        assert run_quietly([*argv, str(path)]) == (
            1, "", f"error: {path}: line 1: file is empty, expected a header\n")
        monkeypatch.setattr("sys.stdin", std_io.TextIOWrapper(
            std_io.BytesIO(b""), encoding="utf-8"))
        assert run_quietly([*argv, "-"]) == (0, "", "")

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    def test_a_named_pipe_needs_no_header(self, workspace, tmp_path,
                                          monkeypatch):
        # a named pipe cannot seek back to its first line, and is read as
        # stdin is: rows without a header give stdin's events
        rows = b"".join(workspace["eval_csv"].read_bytes().splitlines(
            keepends=True)[1:])
        argv = ["run", *workspace["base"], "--model", str(workspace["model"]),
                "--no-timing", "--input"]
        monkeypatch.setattr("sys.stdin", std_io.TextIOWrapper(
            std_io.BytesIO(rows), encoding="utf-8"))
        expected = run_quietly([*argv, "-"])
        assert expected[0] == 0 and expected[1]
        fifo = tmp_path / "rows"
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_bytes, args=(rows,),
                                  daemon=True)
        writer.start()
        try:
            assert run_quietly([*argv, str(fifo)]) == expected
        finally:
            writer.join(timeout=60)
        assert not writer.is_alive()

    @pytest.mark.parametrize("pacing", ["fast", "realtime"])
    def test_pacing_applies_to_stdin(self, workspace, capsys, monkeypatch,
                                     pacing):
        # stdin is paced as a file is: a writer faster than real time waits
        sleeps = []
        monkeypatch.setattr(engine_mod.time, "sleep", sleeps.append)
        rows = b"\n".join(workspace["eval_csv"].read_bytes().splitlines()[:401])
        monkeypatch.setattr("sys.stdin", std_io.TextIOWrapper(
            std_io.BytesIO(rows), encoding="utf-8"))
        rc = main(["run", *workspace["base"], "--model", str(workspace["model"]),
                   "--input", "-", "--pacing", pacing])
        assert rc == 0
        if pacing == "realtime":    # 40 strides, each far under 50 ms
            assert len(sleeps) > 20
        else:
            assert sleeps == []

def reading_commands(workspace, path):
    """The argv of each command that reads the recording at ``path``."""
    model = ["--model", str(workspace["model"])]
    return [["run", *workspace["base"], *model, "--no-timing", "--input",
             str(path)],
            ["eval", *workspace["base"], *model, "--input", str(path)],
            ["calibrate", *workspace["base"], "--recording", str(path)]]


class TestOneReader:
    """run, eval and calibrate read a recording file by one grammar and
    report its first bad line alike."""

    @pytest.mark.parametrize("fault,error", [
        ("empty", "line 1: file is empty, expected a header"),
        ("blank", "line 1: bad header '', expected 't,ch0,...'"),
        ("no header", "line 1: bad header '0,"),
        ("channels", "line 1: file has 8 channels, expected 4"),
        ("nan then short", "line 3: ch1 is nan, expected a finite value"),
    ])
    def test_every_command_gives_the_same_error(self, workspace, tmp_path,
                                                fault, error):
        lines = workspace["eval_csv"].read_bytes().splitlines()
        assert len(lines) > 5000
        if fault == "empty":
            lines = []
        elif fault == "blank":
            lines = [b"", b""]
        elif fault == "no header":
            del lines[0]
        elif fault == "channels":
            lines[0] = b"t," + b",".join(b"ch%d" % i for i in range(8))
        else:
            lines[2] = b"1,0.5,nan,0.5,0.5"
            lines[4999] = b"4998,0.5"
        path = tmp_path / "r.csv"
        path.write_bytes(b"".join(line + b"\n" for line in lines))
        outcomes = [run_quietly(argv)
                    for argv in reading_commands(workspace, path)]
        assert outcomes[0][2].startswith(f"error: {path}: {error}")
        assert outcomes == [(1, "", outcomes[0][2])] * 3

    def test_blank_lines_and_a_repeated_header_are_skipped(self, workspace,
                                                           tmp_path):
        lines = workspace["eval_csv"].read_bytes().splitlines()
        path = tmp_path / "r.csv"
        path.write_bytes(b"\n".join(
            [*lines[:300], b"", lines[0], b"  ", *lines[300:], b""]))
        annotations_path(path).write_bytes(
            annotations_path(workspace["eval_csv"]).read_bytes())
        def untimed(argv):    # eval's table ends with the compute times
            rc, out, err = run_quietly(argv)
            return rc, re.sub(r"prediction compute: .*\n", "", out), err

        for clean, spaced in zip(
                reading_commands(workspace, workspace["eval_csv"]),
                reading_commands(workspace, path)):
            expected = untimed(clean)
            assert expected[0] == 0 and expected[1]
            assert untimed(spaced) == expected

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    def test_a_named_pipe_is_refused_by_the_whole_file_readers(
            self, workspace, tmp_path):
        # eval, train and calibrate read line 1 and seek back; a pipe cannot,
        # so it is refused before any byte is read (run streams it instead)
        fifo = tmp_path / "rows"
        os.mkfifo(fifo)
        model, base = ["--model", str(workspace["model"])], workspace["base"]
        for argv in (["eval", *base, *model, "--input", str(fifo)],
                     ["calibrate", *base, "--recording", str(fifo)],
                     ["train", *base, "--recording", str(fifo),
                      "--out", str(tmp_path / "m.tma")]):
            writer = threading.Thread(
                target=write_ignoring_broken_pipe,
                args=(fifo, workspace["eval_csv"].read_bytes()), daemon=True)
            writer.start()
            try:
                assert run_quietly(argv) == (
                    1, "", f"error: {fifo}: cannot seek; a recording is read "
                    "from a regular file\n")
            finally:
                writer.join(timeout=60)
            assert not writer.is_alive()
        assert not (tmp_path / "m.tma").exists()


def write_ignoring_broken_pipe(path, data):
    """Write ``data`` to the named pipe ``path``; a reader may close first."""
    with contextlib.suppress(BrokenPipeError):
        path.write_bytes(data)


class TestEval:
    def test_table_and_report(self, workspace, capsys):
        report_path = workspace["root"] / "report.json"
        rc = main(["eval", *workspace["base"], "--model", str(workspace["model"]),
                   "--input", str(workspace["eval_csv"]),
                   "--report", str(report_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "onset recall" in out
        data = json.loads(report_path.read_text())
        assert data["n_true_onsets"] == 18
        rows = np.array(data["confusion"])
        assert rows.sum() == 9

    def test_a_gesture_the_model_does_not_know_is_refused_before_replay(
            self, workspace, tmp_path, monkeypatch):
        path = tmp_path / "eval.csv"
        path.write_bytes(workspace["eval_csv"].read_bytes())
        annotations_path(path).write_text(
            "n,gesture,phase\n500,zzz,flexion-onset\n")
        monkeypatch.setattr(pipeline, "run_replay",
                            lambda *a, **k: pytest.fail("replayed"))
        rc, out, err = run_quietly(["eval", *workspace["base"], "--model",
                                    str(workspace["model"]),
                                    "--input", str(path)])
        assert (rc, out) == (1, "")
        assert err == ("error: annotation at sample 500 names gesture "
                       "'zzz', which the model does not know "
                       "(grip, point, spread)\n")


class TestBench:
    def test_reports_latency_stats(self, workspace, capsys):
        rc = main(["bench", *workspace["base"], "--model",
                   str(workspace["model"]), "--iterations", "30"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "mean" in out and "p95" in out and "budget" in out
        assert "quiet strides: 30" in out
        quiet = {line.split()[1]: float(line.split()[2])
                 for line in out.splitlines() if line.startswith("quiet p")}
        assert set(quiet) == {"p50", "p95"}
        assert 0 < quiet["p50"] <= quiet["p95"]
        rows = [line.split() for line in out.splitlines()
                if line.startswith(("sgd batch ", "forward B="))]
        assert [row[:2] for row in rows] == [
            ["sgd", "batch"], ["forward", "B=1"], ["forward", "B=256"]]
        sgd, single, batched = rows
        assert sgd[2] == "16" and float(sgd[3]) > 0
        assert sgd[4:] == ["ms", "fwd+bwd"]
        for row in (single, batched):
            assert float(row[2]) > 0 and row[3] == "us/map"

    def test_json_holds_the_text_lines_numbers(self, workspace):
        rc, out, err = run_quietly(["bench", *workspace["base"], "--model",
                                    str(workspace["model"]), "--iterations",
                                    "30", "--json"])
        assert (rc, err) == (0, "")
        assert out.count("\n") == 1
        report = json.loads(out)
        assert set(report) == {
            "predictions", "mean_us", "p50_us", "p95_us", "max_us",
            "stride_budget_us", "budget_share", "quiet_strides",
            "quiet_p50_us", "quiet_p95_us", "sgd_batch_size", "sgd_step_ms",
            "forward_us_per_map", "forward_batch_size",
            "forward_batched_us_per_map"}
        assert report["predictions"] == report["quiet_strides"] == 30
        assert report["sgd_batch_size"] == 16
        assert report["forward_batch_size"] == 256
        assert report["stride_budget_us"] == 50_000  # 10 samples at 200 Hz
        assert 0 < report["p50_us"] <= report["p95_us"] <= report["max_us"]
        assert 0 < report["quiet_p50_us"] <= report["quiet_p95_us"]
        assert report["budget_share"] == pytest.approx(
            report["mean_us"] / report["stride_budget_us"])
        for key in ("sgd_step_ms", "forward_us_per_map",
                    "forward_batched_us_per_map"):
            assert report[key] > 0

    def test_every_iteration_is_timed_past_a_long_warmup(self, workspace,
                                                         tmp_path):
        # at a 0.5 Hz cutoff the filter settles for 800 samples, 80 strides
        path = tmp_path / "no-config.tma"
        write_model(dataclasses.replace(read_model(workspace["model"]),
                                        config=None), path)
        rc, out, err = run_quietly(["bench", *workspace["base"], "--model",
                                    str(path), "--cutoff", "0.5",
                                    "--iterations", "3"])
        assert (rc, err) == (0, "")
        assert "predictions: 3\n" in out and "quiet strides: 3\n" in out

    @pytest.mark.parametrize("iterations", ["0", "-5", "-30"])
    def test_iterations_below_one_is_error_exit_1(self, workspace,
                                                  iterations):
        rc, out, err = run_quietly(["bench", *workspace["base"], "--model",
                                    str(workspace["model"]), "--iterations",
                                    iterations])
        assert rc == 1 and out == ""
        assert err == f"error: --iterations is {iterations}, need at least 1\n"


def run_quietly(argv):
    """``main(argv)`` with its output captured: (exit code, stdout, stderr)."""
    out, err = std_io.StringIO(), std_io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


def assert_clean_exit(rc, err):
    """Success, or exit 1 with exactly one ``error:`` line."""
    if rc == 0:
        assert err == ""
    else:
        assert rc == 1
        assert err.startswith("error: ") and err.count("\n") == 1, err


def field_values(default):
    """JSON values for a config field: its default, others of its kind
    (small numbers, so that sessions stay short), NaN, infinities and values
    of the wrong type."""
    if isinstance(default, bool):
        kind = st.booleans()
    elif isinstance(default, int):
        kind = st.integers(-10, 10)
    elif isinstance(default, float):
        kind = st.floats(-10.0, 10.0) | st.sampled_from(
            [math.nan, math.inf, -math.inf])
    else:
        kind = st.lists(st.text(max_size=3), max_size=6)
    return (st.just(default) | kind | st.none() | st.text(max_size=4)
            | st.dictionaries(st.text(max_size=2), st.integers(), max_size=2))


def config_objects():
    """Config JSON objects: some fields set, perhaps an unknown key."""
    defaults = SessionConfig().to_dict()
    known = st.fixed_dictionaries(
        {}, optional={k: field_values(v) for k, v in defaults.items()})
    unknown = st.dictionaries(
        st.text(max_size=8).filter(lambda k: k not in defaults),
        st.integers(), max_size=1)
    return st.builds(lambda a, b: {**a, **b}, known, unknown)


class TestSettingsIngress:
    @pytest.mark.parametrize("flag,value,field", [
        ("--rise", "-1", "rise_s"), ("--hold", "0", "hold_s"),
        ("--burst", "0.5", "burst_gain"), ("--snr", "nan", "snr_db"),
        ("--snr", "inf", "snr_db"), ("--snr", "-3", "snr_db"),
        ("--noise-floor", "nan", "noise_floor"),
        ("--noise-floor", "inf", "noise_floor"), ("--hold", "inf", "hold_s"),
        ("--rest", "inf", "rest_s"), ("--hold", "nan", "hold_s"),
        ("--lead", "nan", "lead_s"), ("--lead", "-1", "lead_s"),
        ("--lead", "inf", "lead_s"), ("--settle", "nan", "settle_s"),
        ("--burst", "inf", "burst_gain"), ("--fall", "-inf", "fall_s"),
        ("--separation", "nan", "separation"),
        ("--separation", "inf", "separation"),
        ("--session-seed", "-1", "seed"),
        ("--noise-floor", "1e-170", "noise_floor"), ("--snr", "4000", "snr_db"),
        ("--burst", "1e308", "noise_floor, snr_db and burst_gain"),
        ("--reps", "-1", "repetitions"),
    ])
    def test_bad_synth_flag_is_error_exit_1(self, tmp_path, flag, value, field):
        self.assert_refused(tmp_path, [f"{flag}={value}"], field)

    @pytest.mark.parametrize("flags,field", [
        (["--noise-floor=1e160", "--snr=3000"],
         "noise_floor, snr_db and burst_gain"),
        (["--mode=sequence", "--events=-5"], "count"),
    ])
    def test_bad_synth_flag_pair_is_error_exit_1(self, tmp_path, flags, field):
        self.assert_refused(tmp_path, flags, field)

    @pytest.mark.parametrize("rest,error", [
        ("1e307", "the session lasts 5e+307 s, too long to render at 200 Hz"),
        ("1e13", "rendering 10000000000006550 samples of 8 channels needs "
                 "more memory than is available"),
    ])
    def test_session_too_long_is_error_exit_1(self, tmp_path, rest, error):
        out = tmp_path / "s.csv"
        rc, stdout, err = run_quietly(["synth", "--out", str(out),
                                       "--reps", "1", "--rest", rest])
        assert (rc, stdout, err) == (1, "", f"error: {error}\n")
        assert not out.exists()

    @staticmethod
    def assert_refused(tmp_path, flags, field):
        """``synth`` with ``flags`` exits 1 with one error line that starts
        with ``field`` and writes nothing."""
        out = tmp_path / "s.csv"
        rc, stdout, err = run_quietly(["synth", "--out", str(out),
                                       "--reps", "1", *flags])
        assert rc == 1
        assert err.startswith(f"error: {field} must be ")
        assert err.count("\n") == 1
        assert stdout == "" and not out.exists()

    @settings(max_examples=60, deadline=None)
    @given(mode=st.sampled_from(["blocked", "sequence"]),
           flags=st.dictionaries(
               st.sampled_from(["--hold", "--rest", "--rise", "--fall",
                                "--burst", "--settle", "--compression",
                                "--lead", "--snr", "--noise-floor",
                                "--separation"]),
               st.sampled_from([0.0, -1.0, math.nan, math.inf, -math.inf])
               | st.floats(-10.0, 10.0),
               max_size=4))
    def test_synth_flags_never_raise(self, mode, flags):
        argv = ["synth", "--mode", mode, "--reps", "1", "--events", "5"]
        argv += [f"{flag}={value!r}" for flag, value in flags.items()]
        with tempfile.TemporaryDirectory() as root:
            rc, _, err = run_quietly([*argv, "--out", f"{root}/s.csv"])
        assert_clean_exit(rc, err)

    @settings(max_examples=80, deadline=None)
    @given(data=config_objects())
    @example(data={"sample_rate": 8.0})    # below the synthetic carrier band
    @example(data={"seed": -1})
    def test_config_json_never_raises(self, data):
        with tempfile.TemporaryDirectory() as root:
            path = f"{root}/config.json"
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(data, fh)    # writes NaN and Infinity literals
            rc, _, err = run_quietly(["synth", "--config", path, "--reps", "1",
                                      "--out", f"{root}/s.csv"])
        assert_clean_exit(rc, err)


# Faults a recording row can carry: (kind, row, position, replacement field).
ROW_FAULTS = st.tuples(
    st.sampled_from(["truncate", "ragged", "blank", "bytes", "t", "value",
                     "cut"]),
    st.integers(0, 10 ** 6), st.integers(0, 10 ** 6),
    st.sampled_from([b"", b"x", b" ", b"-", b"1.5", b"-1", b"1e3", b"+7",
                     b"nan", b"-inf", b"inf", b"1e999", b"0x10", b"1_0",
                     b"\xd9\xa1", b"\xff", b"99999999999999999999"]))


def corrupt(lines, faults):
    """The recording ``lines`` (bytes, header first) with each fault applied
    to a data row; "cut" ends the text inside that row."""
    lines = list(lines)
    for kind, row, pos, field in faults:
        i = 1 + row % (len(lines) - 1)
        line = lines[i]
        fields = line.split(b",")
        at = pos % (len(line) + 1)
        if kind == "truncate":
            lines[i] = line[:at]
        elif kind == "ragged":
            lines[i] = b",".join(fields[:-1] if pos % 2 else fields + [b"1.0"])
        elif kind == "blank":
            lines[i] = b""
        elif kind == "bytes":
            lines[i] = line[:at] + b"\xff\xfe" + line[at:]
        elif kind == "cut":
            return b"\n".join(lines[:i] + [line[:at]])
        else:
            fields[0 if kind == "t" else pos % len(fields)] = field
            lines[i] = b",".join(fields)
    return b"\n".join(lines) + b"\n"


class TestCorruptedRows:
    """Mutated recording rows, from a file or on stdin, end in exit 0 or in
    exit 1 with one ``error:`` line, never in a traceback."""

    @settings(max_examples=100, deadline=None)
    @given(faults=st.lists(ROW_FAULTS, min_size=1, max_size=3))
    @example(faults=[("bytes", 7, 3, b"")])
    # row ROW_BLOCK is on line ROW_BLOCK + 2, in the second block of lines
    @example(faults=[("value", ROW_BLOCK, 1, b"1e999")])
    def test_calibrate_never_raises(self, workspace, faults):
        lines = workspace["train_csv"].read_bytes().splitlines()
        sidecar = workspace["root"] / "train.annotations.csv"
        with tempfile.TemporaryDirectory() as root:
            with open(f"{root}/r.csv", "wb") as fh:
                fh.write(corrupt(lines, faults))
            with open(f"{root}/r.annotations.csv", "wb") as fh:
                fh.write(sidecar.read_bytes())
            rc, _, err = run_quietly(["calibrate", *workspace["base"],
                                      "--recording", f"{root}/r.csv"])
        assert_clean_exit(rc, err)

    @settings(max_examples=100, deadline=None)
    @given(faults=st.lists(ROW_FAULTS, min_size=1, max_size=3),
           errors=st.sampled_from(["strict", "surrogateescape"]))
    @example(faults=[("bytes", 7, 3, b"")], errors="strict")
    @example(faults=[("cut", 95, 4, b"")], errors="strict")
    def test_stdin_run_never_raises(self, workspace, faults, errors):
        # a C locale decodes stdin with surrogateescape, a UTF-8 one strictly
        lines = workspace["eval_csv"].read_bytes().splitlines()[:401]
        stdin = std_io.TextIOWrapper(std_io.BytesIO(corrupt(lines, faults)),
                                     encoding="utf-8", errors=errors)
        with unittest.mock.patch("sys.stdin", stdin):
            rc, _, err = run_quietly(["run", *workspace["base"], "--model",
                                      str(workspace["model"]), "--input", "-"])
        assert_clean_exit(rc, err)
