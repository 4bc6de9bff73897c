"""Timetag file format and command-line workflows."""

from __future__ import annotations

import dataclasses
import json
import math
import os
import resource
import runpy
import shlex
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from qcsync import cli
from qcsync.cli import main
from qcsync.linkmodel import GroundStation, LinkModel, StaticRange
from qcsync.photonics import Detector, TagStream
from qcsync.scenario import ConfigError, validate_scenario
from qcsync.tagfiles import (
    TagFileError,
    _format_body,
    _parse_body_by_line,
    _read_strict,
    atomic_write_text,
    read_timetag_file,
    write_timetag_file,
)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def _stream(values, resolution=1000, channel="det-a", frame="clock-a", metadata=None):
    return TagStream(
        channel_id=channel,
        timestamps=np.asarray(values, dtype=np.int64),
        frame=frame,
        resolution_fs=resolution,
        metadata=metadata or {},
    )


def test_round_trip_exact(tmp_path):
    stream = _stream([-5000, 0, 1000, 99 * 10**12], metadata={"scenario": "abc", "n": 4})
    path = tmp_path / "a.tags"
    write_timetag_file(path, stream)
    loaded = read_timetag_file(path)
    assert loaded.channel_id == "det-a"
    assert loaded.frame == "clock-a"
    assert loaded.resolution_fs == 1000
    assert loaded.metadata == {"scenario": "abc", "n": 4}
    assert np.array_equal(loaded.timestamps, stream.timestamps)
    assert loaded.timestamps.dtype == np.int64


def test_round_trip_empty_stream(tmp_path):
    path = tmp_path / "empty.tags"
    write_timetag_file(path, _stream([]))
    loaded = read_timetag_file(path)
    assert len(loaded.timestamps) == 0


def test_missing_magic_reports_line_one(tmp_path):
    path = tmp_path / "bad.tags"
    path.write_text("not a tag file\n")
    with pytest.raises(TagFileError, match="line 1"):
        read_timetag_file(path)


def test_bad_resolution_reports_line_three(tmp_path):
    path = tmp_path / "bad.tags"
    path.write_text("# qcs-timetag v1\n# channel: x\n# resolution_fs: fast\n")
    with pytest.raises(TagFileError, match="line 3"):
        read_timetag_file(path)
    path.write_text("# qcs-timetag v1\n# channel: x\n# resolution_fs: 0\n")
    with pytest.raises(TagFileError, match="line 3"):
        read_timetag_file(path)
    path.write_text(f"# qcs-timetag v1\n# channel: x\n# resolution_fs: {2**63}\n0\n")
    with pytest.raises(TagFileError, match="line 3.*2\\^63"):
        read_timetag_file(path)


_HEADER = "# qcs-timetag v1\n# channel: x\n# resolution_fs: 1\n"
_BAD_HEADERS = [
    ("metadata-not-json", _HEADER + "# metadata: {nope\n5\n", "line 4: metadata is not valid JSON"),
    ("metadata-not-an-object", _HEADER + "# metadata: [1]\n5\n", "line 4: metadata must be a JSON object"),
    ("magic-line-only", "# qcs-timetag v1\n", "line 2: missing channel and resolution headers"),
    (
        "wrong-channel-key",
        _HEADER.replace("channel", "chanel") + "5\n",
        "line 2: expected '# channel: ...', got '# chanel: x'",
    ),
]


@pytest.mark.parametrize("text, message", [case[1:] for case in _BAD_HEADERS], ids=[case[0] for case in _BAD_HEADERS])
def test_bad_header_reports_its_line_and_estimate_exits_four(tmp_path, capsys, text, message):
    bad = tmp_path / "bad.tags"
    bad.write_text(text)
    with pytest.raises(TagFileError) as raised:
        read_timetag_file(bad)
    assert str(raised.value) == message
    code, _, err = _run(capsys, "estimate", str(bad), str(bad), str(bad), str(bad))
    assert code == 4
    assert message in err and "Traceback" not in err


def test_unsorted_body_reports_offending_line(tmp_path):
    path = tmp_path / "bad.tags"
    path.write_text("# qcs-timetag v1\n# channel: x\n# resolution_fs: 1\n5\n9\n7\n")
    with pytest.raises(TagFileError, match="line 6.*strictly increasing"):
        read_timetag_file(path)


def test_quantization_violation_reports_line(tmp_path):
    path = tmp_path / "bad.tags"
    path.write_text("# qcs-timetag v1\n# channel: x\n# resolution_fs: 1000\n1000\n2500\n")
    with pytest.raises(TagFileError, match="line 5.*multiple"):
        read_timetag_file(path)


def test_non_integer_body_reports_line(tmp_path):
    path = tmp_path / "bad.tags"
    path.write_text("# qcs-timetag v1\n# channel: x\n# resolution_fs: 1\n1\n2.5\n")
    with pytest.raises(TagFileError, match="line 5.*decimal integer"):
        read_timetag_file(path)


def test_out_of_int64_range_reports_line(tmp_path):
    path = tmp_path / "bad.tags"
    path.write_text(f"# qcs-timetag v1\n# channel: x\n# resolution_fs: 1\n1\n2\n{2**63}\n")
    with pytest.raises(TagFileError, match="line 6.*int64"):
        read_timetag_file(path)
    path.write_text(f"# qcs-timetag v1\n# channel: x\n# resolution_fs: 1\n{-2**63 - 1}\n0\n")
    with pytest.raises(TagFileError, match="line 4.*int64"):
        read_timetag_file(path)


def test_reader_accepts_python_int_spellings(tmp_path):
    path = tmp_path / "spellings.tags"
    path.write_text(
        "# qcs-timetag v1\n# channel: x\n# resolution_fs: 1\n+5\n1_0\n \u0661\u0662 \n\uff11\uff13\n"
    )
    assert read_timetag_file(path).timestamps.tolist() == [5, 10, 12, 13]


def test_reader_reports_first_offending_line(tmp_path):
    path = tmp_path / "bad.tags"
    path.write_text("# qcs-timetag v1\n# channel: x\n# resolution_fs: 2\n2\n4\n4\nx\n")
    with pytest.raises(TagFileError, match="line 6.*strictly increasing"):
        read_timetag_file(path)
    path.write_text("# qcs-timetag v1\n# channel: x\n# resolution_fs: 2\n2\n4\n4\n6\n")
    with pytest.raises(TagFileError, match="line 6: timestamp 4 not strictly increasing"):
        read_timetag_file(path)


def test_reader_rejects_decrease_whose_difference_wraps_int64(tmp_path):
    path = tmp_path / "bad.tags"
    path.write_text(
        "# qcs-timetag v1\n# channel: x\n# resolution_fs: 1\n"
        "6000000000000000000\n-6000000000000000000\n"
    )
    with pytest.raises(TagFileError, match="line 5: .* not strictly increasing"):
        read_timetag_file(path)


def test_blank_line_in_body_rejected(tmp_path):
    path = tmp_path / "bad.tags"
    path.write_text("# qcs-timetag v1\n# channel: x\n# resolution_fs: 1\n1\n\n3\n")
    with pytest.raises(TagFileError, match="line 5.*blank"):
        read_timetag_file(path)


def test_written_file_bytes_are_pinned(tmp_path):
    # the header lines, then one decimal line per tag: 19-digit and short
    # negatives, zero, and positives of several widths
    values = [-(2**63) + 808, -5000, -1000, 0, 3000, 10**15]
    stream = _stream(values, channel="a_local", frame="a", metadata={"scenario": "abc", "n": 4})
    path = tmp_path / "a.tags"
    write_timetag_file(path, stream)
    assert path.read_bytes() == (
        b"# qcs-timetag v1\n"
        b"# channel: a_local\n"
        b"# resolution_fs: 1000\n"
        b"# frame: a\n"
        b'# metadata: {"n": 4, "scenario": "abc"}\n'
        b"-9223372036854775000\n-5000\n-1000\n0\n3000\n1000000000000000\n"
    )


def test_missing_file_raises_tagfile_error(tmp_path):
    with pytest.raises(TagFileError, match="cannot read"):
        read_timetag_file(tmp_path / "nope.tags")


def test_atomic_write_leaves_no_temp_files(tmp_path):
    target = tmp_path / "deep" / "file.txt"
    atomic_write_text(target, "payload\n")
    assert target.read_text() == "payload\n"
    assert [p.name for p in target.parent.iterdir()] == ["file.txt"]


def test_atomic_write_removes_its_temp_file_when_the_rename_fails(tmp_path):
    # os.replace cannot put a file over a directory
    target = tmp_path / "taken"
    target.mkdir()
    with pytest.raises(IsADirectoryError):
        atomic_write_text(target, "payload\n")
    assert [p.name for p in tmp_path.iterdir()] == ["taken"]
    assert list(target.iterdir()) == []


# every change of digit count and sign, and both ends of int64
_WIDTH_EDGES = sorted(
    {s * (10**k + e) for k in range(19) for e in (-1, 0, 1) for s in (1, -1)}
    | {0, 1, -1, 2**63 - 1, -(2**63)}
)


def test_writer_matches_str_at_every_width_edge(tmp_path):
    values = np.array(_WIDTH_EDGES, dtype=np.int64)
    assert _format_body(values).decode() == "\n".join(map(str, values.tolist())) + "\n"
    path = tmp_path / "edges.tags"
    write_timetag_file(path, _stream(values, resolution=1, frame="", metadata={}))
    assert path.read_text() == (
        "# qcs-timetag v1\n# channel: det-a\n# resolution_fs: 1\n"
        + "".join(f"{v}\n" for v in _WIDTH_EDGES)
    )
    assert read_timetag_file(path).timestamps.tolist() == _WIDTH_EDGES
    for value in _WIDTH_EDGES:
        assert _format_body(np.array([value], dtype=np.int64)) == f"{value}\n".encode()
    assert _format_body(np.empty(0, dtype=np.int64)) == b""


def test_writer_formats_any_order():
    values = np.random.default_rng(3).permutation(np.array(_WIDTH_EDGES, dtype=np.int64))
    assert _format_body(values).decode() == "".join(f"{v}\n" for v in values.tolist())


_HEADER = "# qcs-timetag v1\n# channel: x\n# resolution_fs: 1\n"


@pytest.mark.parametrize(
    ("body", "strict"),
    [
        ("", True),
        ("-0\n5\n", True),
        ("007\n0010\n", True),
        ("-0000000000000000005\n0000000000000000009\n", True),
        (f"{-(2**63)}\n{2**63 - 1}\n", True),
        ("5\r\n9\r\n", False),
        ("5\n9", False),
        ("00000000000000000000005\n", False),
        ("-00000000000000000000005\n", False),
        ("+5\n", False),
        ("1 \n", False),
        ("-\n", False),
        ("--5\n", False),
        ("5-\n", False),
        ("5\n\n", False),
        ("5\n# note\n", False),
        ("9\n5\n", False),
        (f"{2**63}\n", False),
        (f"{-(2**63) - 1}\n", False),
        ("9999999999999999999\n", False),
        ("".join(f"0{i}\n" if i % 2 else f"{i}\n" for i in range(1, 200)), False),
    ],
    ids=[
        "empty",
        "minus-zero",
        "leading-zeros",
        "19-digits-with-zeros",
        "int64-ends",
        "crlf",
        "no-final-newline",
        "23-digits",
        "minus-23-digits",
        "plus-sign",
        "trailing-space",
        "lone-minus",
        "double-minus",
        "trailing-minus",
        "blank-line",
        "header-in-body",
        "decrease",
        "int64-max-plus-1",
        "int64-min-minus-1",
        "19-nines",
        "199-runs",
    ],
)
def test_strict_reader_agrees_with_line_loop(tmp_path, body, strict):
    path = tmp_path / "t.tags"
    path.write_bytes((_HEADER + body).encode("ascii"))
    lines = path.read_text().splitlines()
    try:
        expected = _parse_body_by_line(lines[3:], 3, 1).tolist()
    except TagFileError as exc:
        expected = str(exc)
    try:
        got = read_timetag_file(path).timestamps.tolist()
    except TagFileError as exc:
        got = str(exc)
    assert got == expected
    assert (_read_strict(path.read_bytes()) is not None) == strict


def test_non_ascii_header_takes_line_loop(tmp_path):
    path = tmp_path / "t.tags"
    path.write_text(_HEADER + "# frame: cl\u00f6ck-\u03b1\n-3\n4\n")
    assert _read_strict(path.read_bytes()) is None
    loaded = read_timetag_file(path)
    assert loaded.frame == "cl\u00f6ck-\u03b1"
    assert loaded.timestamps.tolist() == [-3, 4]


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_simulate_exit_zero_and_exact_recovery(tmp_path, capsys):
    config = str(SCENARIOS / "noiseless.json")
    code, out, err = _run(capsys, "simulate", "--config", config, "--out", str(tmp_path))
    assert code == 0, err
    assert "theta_fs=1000000 flight_fs=1000000000" in out
    for name in ("a_local.tags", "b_from_a.tags", "b_local.tags", "a_from_b.tags"):
        read_timetag_file(tmp_path / name)
    payload = json.loads((tmp_path / "twoway_result.json").read_text())
    assert payload["clock_offset"] == 10**6
    assert payload["flight_time"] == 10**9
    assert payload["offset_uncertainty"] == 0
    assert payload["truth"]["theta_fs"] == 10**6


@pytest.mark.parametrize("window", [2**63 - 2, 10**19])
def test_simulate_with_window_past_int64_recovers_exactly(tmp_path, capsys, window):
    # the window's offsets wrapped the int64 tags (2^63 - 2: no pairs, exit 3)
    # or did not convert to int64 at all (10^19: a traceback)
    config = json.loads((SCENARIOS / "noiseless.json").read_text())
    config["correlation"]["search_window_fs"] = window
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(config))
    code, out, err = _run(capsys, "simulate", "--config", str(path), "--out", str(tmp_path / "out"))
    assert code == 0, err
    assert "theta_fs=1000000 flight_fs=1000000000" in out


def test_unbounded_rate_uncertainty_is_written_as_null(tmp_path, capsys):
    # one local tag per direction: the members share one local time, so the
    # rate's uncertainty is inf, which JSON cannot hold. Two far-off remote
    # tags spread each remote stream over 1.8 us, so that its 9 members stand
    # far above their accidentals.
    local = [10**9]
    spread = [k * 1000 for k in range(-4, 5)]
    far = [2 * 10**9 - 9 * 10**8, 2 * 10**9 + 9 * 10**8]
    ab, ba = (sorted(far + [2 * 10**9 + shift + s for s in spread]) for shift in (10**6, -(10**6)))
    streams = (local, ab, local, ba)
    files = [str(tmp_path / f"{k}.tags") for k in range(4)]
    for path, values in zip(files, streams):
        write_timetag_file(path, _stream(values, resolution=1))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"seed": 1, "correlation": {"search_window_fs": 10**10, "coarse_bin_fs": 10**5, "fine_bin_fs": 10**4}}))
    code, out, err = _run(capsys, "estimate", *files, "--config", str(config))
    assert code == 0, err
    payload = json.loads(out, parse_constant=pytest.fail)
    assert payload["clock_offset"] == 10**6 and payload["frequency"]["fractional_frequency"] == 0.0
    assert payload["frequency"]["fractional_frequency_uncertainty"] is None


def test_simulate_then_estimate_round_trip(tmp_path, capsys):
    config = str(SCENARIOS / "noiseless.json")
    code, _, _ = _run(capsys, "simulate", "--config", config, "--out", str(tmp_path))
    assert code == 0
    files = [
        str(tmp_path / n)
        for n in ("a_local.tags", "b_from_a.tags", "b_local.tags", "a_from_b.tags")
    ]
    code, out, err = _run(capsys, "estimate", *files, "--config", config)
    assert code == 0, err
    estimate = json.loads(out)
    simulated = json.loads((tmp_path / "twoway_result.json").read_text())
    assert estimate["clock_offset"] == simulated["clock_offset"]
    assert estimate["flight_time"] == simulated["flight_time"]


def test_double_run_is_byte_stable(tmp_path, capsys):
    config = str(SCENARIOS / "paper_100pairs.json")
    run_a, run_b = tmp_path / "a", tmp_path / "b"
    assert _run(capsys, "simulate", "--config", config, "--out", str(run_a))[0] == 0
    assert _run(capsys, "simulate", "--config", config, "--out", str(run_b))[0] == 0
    for name in (
        "a_local.tags",
        "b_from_a.tags",
        "b_local.tags",
        "a_from_b.tags",
        "twoway_result.json",
    ):
        assert (run_a / name).read_bytes() == (run_b / name).read_bytes()


def test_seed_override_changes_streams(tmp_path, capsys):
    config = str(SCENARIOS / "noiseless.json")
    run_a, run_b = tmp_path / "a", tmp_path / "b"
    assert _run(capsys, "simulate", "--config", config, "--out", str(run_a))[0] == 0
    assert (
        _run(capsys, "simulate", "--config", config, "--seed", "99", "--out", str(run_b))[0] == 0
    )
    assert (run_a / "b_local.tags").read_bytes() != (run_b / "b_local.tags").read_bytes()


def test_estimate_without_peak_exits_three(tmp_path, capsys):
    local = tmp_path / "local.tags"
    empty = tmp_path / "empty.tags"
    write_timetag_file(local, _stream([1000, 2000, 3000]))
    write_timetag_file(empty, _stream([]))
    code, _, err = _run(capsys, "estimate", str(local), str(empty), str(local), str(empty))
    assert code == 3
    assert "estimation failed" in err


def test_missing_tagfile_exits_four(tmp_path, capsys):
    missing = str(tmp_path / "nope.tags")
    code, _, err = _run(capsys, "estimate", missing, missing, missing, missing)
    assert code == 4
    assert "I/O error" in err


def test_corrupt_tagfile_exits_four(tmp_path, capsys):
    bad = tmp_path / "bad.tags"
    bad.write_text("# qcs-timetag v1\n# channel: x\n# resolution_fs: 1\n9\n5\n")
    code, _, err = _run(capsys, "estimate", str(bad), str(bad), str(bad), str(bad))
    assert code == 4
    assert "line 5" in err


def test_undecodable_tagfile_exits_four(tmp_path, capsys):
    bad = tmp_path / "bad.tags"
    bad.write_bytes(b"# qcs-timetag v1\n# channel: x\n# resolution_fs: 1\n\xff\xfe\n")
    code, _, err = _run(capsys, "estimate", str(bad), str(bad), str(bad), str(bad))
    assert code == 4
    assert "cannot decode" in err and "bad.tags" in err


def test_out_of_range_tagfile_exits_four(tmp_path, capsys):
    bad = tmp_path / "bad.tags"
    bad.write_text(f"# qcs-timetag v1\n# channel: x\n# resolution_fs: 1\n5\n{10**19}\n")
    code, _, err = _run(capsys, "estimate", str(bad), str(bad), str(bad), str(bad))
    assert code == 4
    assert "line 5" in err and "Traceback" not in err


_TAG_FILES = ("a_local.tags", "b_from_a.tags", "b_local.tags", "a_from_b.tags")


@pytest.mark.parametrize("theta_fs, stray", [(5 * 10**8, 9223372036854775000), (-5 * 10**8, -9223372036854775000)])
def test_estimate_with_a_tag_near_the_int64_end_exits_cleanly(tmp_path, capsys, theta_fs, stray):
    # B's block edges are A's shifted by theta_m, +-500 ns here; past the int64
    # range they ended in an OverflowError traceback (exit 1)
    config = json.loads((SCENARIOS / "paper_100pairs.json").read_text())
    config["clocks"]["b"]["initial_offset_fs"] = theta_fs
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    code, _, err = _run(capsys, "simulate", "--config", str(path), "--out", str(tmp_path))
    assert code == 0, err
    a_local = read_timetag_file(tmp_path / "a_local.tags")
    timestamps = np.sort(np.append(a_local.timestamps, stray))
    write_timetag_file(tmp_path / "a_local.tags", dataclasses.replace(a_local, timestamps=timestamps))
    code, _, err = _run(capsys, "estimate", *(str(tmp_path / name) for name in _TAG_FILES))
    assert code in (0, 3), err
    assert "Traceback" not in err


def test_clocks_2_to_the_63_apart_exit_three(tmp_path, capsys):
    # Every difference between the two clocks' tags lies past int64, so the
    # window holds none; the pair search ended in an OverflowError traceback (exit 1).
    config = json.loads((SCENARIOS / "paper_100pairs.json").read_text())
    config["duration_s"] = 1e-4
    for node, offset in (("a", -(2**62)), ("b", 2**62)):
        config["sources"][node]["pair_rate_hz"] = 1e6
        config["clocks"][node]["initial_offset_fs"] = offset
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    code, _, err = _run(capsys, "simulate", "--config", str(path), "--out", str(tmp_path / "out"))
    assert code == 3 and "no pairwise differences" in err and "Traceback" not in err


def test_block_count_past_the_bound_exits_two(tmp_path, capsys):
    # two_way_offset builds block_count + 1 edges: 10^9 blocks ran for more than 60 s
    config = _set(json.loads((SCENARIOS / "paper_100pairs.json").read_text()), ("correlation", "block_count"), 10**9)
    path = tmp_path / "blocks.json"
    path.write_text(json.dumps(config))
    code, _, err = _run(capsys, "simulate", "--config", str(path), "--out", str(tmp_path / "out"))
    assert code == 2 and "block_count" in err and "1000000" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()
    files = [tmp_path / name for name in _TAG_FILES]
    for file in files:
        write_timetag_file(file, _stream([1000, 2000, 3000]))
    code, _, err = _run(capsys, "estimate", *map(str, files), "--config", str(path))
    assert code == 2 and "block_count" in err and "Traceback" not in err


def test_format_is_a_relativity_option_only(tmp_path, capsys):
    config = str(SCENARIOS / "noiseless.json")
    with pytest.raises(SystemExit) as excinfo:
        _run(capsys, "bell", "--config", config, "--format", "csv")
    assert excinfo.value.code == 2
    assert "--format" in capsys.readouterr().err


def test_unknown_config_key_exits_two(tmp_path, capsys):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({"seed": 1, "wavelength_nm": 810}))
    code, _, err = _run(capsys, "simulate", "--config", str(config))
    assert code == 2
    assert "config error" in err and "wavelength_nm" in err


def test_config_error_message_is_pinned():
    config = {"seed": "x", "link": {"geometry": {"variant": "circular_orbit", "altitude_m": 5}}}
    with pytest.raises(ConfigError) as excinfo:
        validate_scenario(config)
    # two errors: best_match picks the shallower one
    assert str(excinfo.value) == "config invalid at $['seed']: 'x' is not of type 'integer'"
    config["seed"] = 1
    with pytest.raises(ConfigError) as excinfo:
        validate_scenario(config)
    assert str(excinfo.value) == (
        "config invalid at $['link']['geometry']['altitude_m']: "
        "5 is less than or equal to the minimum of 100000"
    )


def test_simulate_with_readings_beyond_int64_exits_two(tmp_path, capsys):
    config = json.loads((SCENARIOS / "noiseless.json").read_text())
    config["clocks"]["b"]["initial_offset_fs"] = 2**63 - 10**6
    path = tmp_path / "huge_offset.json"
    path.write_text(json.dumps(config))
    out_dir = tmp_path / "out"
    code, _, err = _run(capsys, "simulate", "--config", str(path), "--out", str(out_dir))
    assert code == 2
    assert "config error" in err and "int64" in err and "Traceback" not in err
    assert list(out_dir.glob("*.tags")) == []


def test_missing_section_exits_two(tmp_path, capsys):
    config = str(SCENARIOS / "noiseless.json")
    code, _, err = _run(capsys, "bell", "--config", config)
    assert code == 2
    assert "bell" in err


def test_bell_command_reports_decision(tmp_path, capsys):
    config = tmp_path / "bell.json"
    config.write_text(
        json.dumps(
            {"seed": 5, "bell": {"visibility": 0.95, "pairs_per_setting": 4000}}
        )
    )
    code, out, err = _run(capsys, "bell", "--config", str(config), "--out", str(tmp_path))
    assert code == 0, err
    payload = json.loads(out)
    assert payload["decision"] == "authentic"
    assert payload["S"] == pytest.approx(2.687, abs=0.1)
    assert (tmp_path / "bell_report.json").exists()


def test_relativity_static_link(tmp_path, capsys):
    config = str(SCENARIOS / "noiseless.json")
    code, out, err = _run(
        capsys, "relativity", "--config", config, "--out", str(tmp_path), "--format", "csv"
    )
    assert code == 0, err
    assert out == (tmp_path / "relativity_report.json").read_text()
    payload = json.loads(out)
    assert payload["orbital_period_s"] is None
    assert all(s["flight_ab_fs"] == 10**9 for s in payload["samples"])
    csv_lines = (tmp_path / "relativity_samples.csv").read_text().splitlines()
    assert csv_lines[0].startswith("t_s,range_m,elevation_deg")
    assert len(csv_lines) == len(payload["samples"]) + 1


def _leo_edge_link() -> dict:
    leo = json.loads((SCENARIOS / "leo_demo.json").read_text())
    return dict(leo["topology"]["edges"][0]["link"], include_shapiro=True)


@pytest.mark.parametrize("variant", ["static_range", "circular_orbit"])
def test_relativity_past_int64_horizon(tmp_path, capsys, variant):
    # 20000 s is past 2^63 fs (about 9223 s), where an int64 time grid wraps
    if variant == "static_range":
        link = {"geometry": {"variant": "static_range", "range_m": 299.792458}}
    else:
        link = _leo_edge_link()
    path = tmp_path / "long.json"
    path.write_text(json.dumps({"seed": 1, "link": link, "relativity": {"horizon_s": 20000}}))
    code, out, err = _run(
        capsys, "relativity", "--config", str(path), "--out", str(tmp_path), "--format", "csv"
    )
    assert code == 0, err
    payload = json.loads(out)
    samples = payload["samples"]
    assert samples[-1]["t_s"] == 20000.0
    assert [s["t_s"] for s in samples] == sorted(s["t_s"] for s in samples)
    windows = payload["visibility_windows"]
    assert all(0 <= w["start_s"] <= w["end_s"] <= 20000 for w in windows)
    visible = [s for s in samples if s["visible"]]
    assert all(s["flight_ab_fs"] is not None for s in visible)
    assert all(s["flight_ab_fs"] is None for s in samples if not s["visible"])
    if variant == "static_range":
        assert windows == [{"start_s": 0.0, "end_s": 20000.0, "max_elevation_deg": 90.0}]
        assert {s["flight_ab_fs"] for s in samples} == {10**9}
    else:
        assert len(windows) == 4 and 0 < len(visible) < len(samples)
        # a LEO slant range of 550 to about 2000 km is 1.8 to 7 ms of flight
        assert all(1.8e12 < s["flight_ab_fs"] < 7e12 for s in visible)


def test_simulate_past_int64_arrivals_exits_two(tmp_path, capsys):
    # the session ends inside int64, but 1 s flights carry its last arrivals past 2^63 fs
    config = {
        "seed": 3,
        "duration_s": 9223.372,
        "clocks": {"a": {}, "b": {}},
        "sources": {"a": {"pair_rate_hz": 10}, "b": {"pair_rate_hz": 10}},
        "link": {"geometry": {"variant": "static_range", "range_m": 300000000}},
        "correlation": {"search_window_fs": 2 * 10**15, "coarse_bin_fs": 10**6, "fine_bin_fs": 1000},
    }
    path = tmp_path / "wrap.json"
    path.write_text(json.dumps(config))
    out_dir = tmp_path / "out"
    code, _, err = _run(capsys, "simulate", "--config", str(path), "--out", str(out_dir))
    assert code == 2
    assert "int64" in err and "Traceback" not in err
    assert list(out_dir.glob("*.tags")) == []


@pytest.mark.parametrize("altitude", [1e40, 1e120, 1e300])
def test_orbit_altitude_past_the_bound_exits_two(tmp_path, capsys, altitude):
    # above about 5.6e102 m, a**3 in the orbit's mean motion overflowed with
    # a traceback; the bound, c * 2^63 fs, is where no flight fits int64
    leo = json.loads((SCENARIOS / "leo_demo.json").read_text())
    link = leo["topology"]["edges"][0]["link"]
    link["geometry"]["altitude_m"] = altitude
    relativity = tmp_path / "relativity.json"
    relativity.write_text(json.dumps({"seed": 1, "link": link, "relativity": {"samples": 5}}))
    leo["topology"]["horizon_s"] = 3
    net = tmp_path / "net.json"
    net.write_text(json.dumps(leo))
    for command, path in (("relativity", relativity), ("net", net)):
        code, _, err = _run(capsys, command, "--config", str(path), "--out", str(tmp_path / command))
        assert code == 2
        assert "config error" in err and "altitude_m" in err and "maximum" in err and "Traceback" not in err


_JITTER_FIELDS = [
    (("detectors", "a"), "jitter_sigma_fs", lambda sigma: Detector(jitter_sigma=sigma)),
    (("link",), "channel_jitter_sigma_fs", lambda sigma: LinkModel(StaticRange(1.0), channel_jitter_sigma=sigma)),
]


def _set(config: dict, path: tuple, value) -> dict:
    """config with config[path[0]][path[1]]... = value."""
    parent = config
    for name in path[:-1]:
        parent = parent[name]
    parent[path[-1]] = value
    return config


def _noiseless() -> dict:
    return json.loads((SCENARIOS / "noiseless.json").read_text())


def _simulate_edited(tmp_path, capsys, section, key, value):
    """simulate on noiseless.json with config[section...][key] = value: exit code, stderr, tag files."""
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(_set(_noiseless(), (*section, key), value)))
    out_dir = tmp_path / "out"
    code, _, err = _run(capsys, "simulate", "--config", str(path), "--out", str(out_dir))
    return code, err, list(out_dir.glob("*.tags"))


@pytest.mark.parametrize("section, key, build", _JITTER_FIELDS, ids=["detector", "link"])
def test_simulate_with_jitter_beyond_one_second_exits_two(tmp_path, capsys, section, key, build):
    # a sigma of 10^19 fs overflowed the int64 cast of the jitter draws to -2^63
    code, err, tags = _simulate_edited(tmp_path, capsys, section, key, 10**19)
    assert code == 2
    assert key in err and "maximum" in err and "Traceback" not in err
    assert tags == []
    build(10**15)  # 1 s is allowed
    with pytest.raises(ValueError, match="jitter_sigma_fs must be in"):
        build(10**19)


def test_simulate_with_white_phase_noise_beyond_one_second_exits_two(tmp_path, capsys):
    # a sigma of 1e30 fs cast its draws to int64 as invalid values and wrote the wrapped tags
    code, err, tags = _simulate_edited(tmp_path, capsys, ("clocks", "b"), "white_phase_sigma_fs", 1e30)
    assert code == 2
    assert "white_phase_sigma_fs" in err and "maximum" in err and "Traceback" not in err
    assert tags == []


@pytest.mark.filterwarnings("error")
def test_simulate_with_random_walk_phase_beyond_int64_exits_two(tmp_path, capsys):
    # 1e300 made the walk's steps inf, and overflowed its phase sum with a
    # warning, before the int64 phase check; the key is bounded at 1e-3 /sqrt(s)
    for coeff in (1e10, 1e300):
        code, err, tags = _simulate_edited(tmp_path, capsys, ("clocks", "b"), "random_walk_freq_coeff", coeff)
        assert code == 2
        assert "random_walk_freq_coeff" in err and "maximum" in err and "Traceback" not in err
        assert tags == []


def test_simulate_with_refine_span_beyond_int64_exits_cleanly(tmp_path, capsys):
    # a span of 10^18 coarse bins put the span's first difference past int64
    code, err, _ = _simulate_edited(tmp_path, capsys, ("correlation",), "refine_span_bins", 10**18)
    assert code in (0, 2, 3)
    assert "Traceback" not in err


def test_simulate_config_error_writes_no_tag_files(tmp_path, capsys):
    config = json.loads((SCENARIOS / "noiseless.json").read_text())
    config["correlation"]["fine_bin_fs"] = 10**7  # coarser than coarse_bin_fs
    path = tmp_path / "inconsistent.json"
    path.write_text(json.dumps(config))
    out_dir = tmp_path / "out"
    code, _, err = _run(capsys, "simulate", "--config", str(path), "--out", str(out_dir))
    assert code == 2
    assert "config error" in err
    assert list(out_dir.glob("*.tags")) == []


def test_simulate_writes_under_output_dir_unless_out_is_given(tmp_path, capsys):
    config = json.loads((SCENARIOS / "noiseless.json").read_text())
    configured, given = tmp_path / "configured", tmp_path / "given"
    config["output"] = {"dir": str(configured)}
    path = tmp_path / "with_dir.json"
    path.write_text(json.dumps(config))
    names = {"a_local.tags", "b_from_a.tags", "b_local.tags", "a_from_b.tags", "twoway_result.json"}
    code, _, err = _run(capsys, "simulate", "--config", str(path))
    assert code == 0, err
    assert {p.name for p in configured.iterdir()} == names
    for p in configured.iterdir():
        p.unlink()
    code, _, err = _run(capsys, "simulate", "--config", str(path), "--out", str(given))
    assert code == 0, err
    assert {p.name for p in given.iterdir()} == names and list(configured.iterdir()) == []


def test_command_without_config_exits_two(capsys):
    code, out, err = _run(capsys, "simulate")
    assert code == 2 and out == ""
    assert "config error" in err and "--config" in err and "Traceback" not in err


def test_python_dash_m_runs_the_cli(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["qcsync", "--version"])
    with pytest.raises(SystemExit) as exit_:
        runpy.run_module("qcsync", run_name="__main__")
    assert exit_.value.code == 0
    assert capsys.readouterr().out == "qcsync 0.1.0\n"
    monkeypatch.setattr(sys, "argv", ["qcsync", "simulate", "--config", str(tmp_path / "missing.json")])
    with pytest.raises(SystemExit) as exit_:
        runpy.run_module("qcsync", run_name="__main__")
    assert exit_.value.code == 2
    assert "missing.json" in capsys.readouterr().err


def _run_readme_example(capsys, monkeypatch, command: str, out_dir: Path):
    readme = (SCENARIOS.parent / "README.md").read_text().splitlines()
    (line,) = [l for l in readme if l.startswith(f"qcsync {command} ")]
    argv = shlex.split(line)[1:]
    argv[argv.index("--out") + 1] = str(out_dir)
    monkeypatch.chdir(SCENARIOS.parent)
    return _run(capsys, *argv)


def test_readme_library_example_runs(capsys):
    readme = (SCENARIOS.parent / "README.md").read_text()
    section = readme.split("\n## Library\n", 1)[1]
    example = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(example, "README.md", "exec"), {})
    offset, flight = map(float, capsys.readouterr().out.split())
    assert offset == pytest.approx(500_000_000, abs=50_000)
    assert flight == pytest.approx(300_000.0 / 299_792_458.0 * 10**15, rel=1e-6)


def test_readme_relativity_example_runs(tmp_path, capsys, monkeypatch):
    code, out, err = _run_readme_example(capsys, monkeypatch, "relativity", tmp_path / "rel")
    assert code == 0, err
    assert json.loads(out)["samples"]
    assert (tmp_path / "rel" / "relativity_report.json").exists()
    assert (tmp_path / "rel" / "relativity_samples.csv").exists()


def test_readme_bell_example_runs(tmp_path, capsys, monkeypatch):
    code, out, err = _run_readme_example(capsys, monkeypatch, "bell", tmp_path / "bell")
    assert code == 0, err
    assert json.loads(out)["decision"] == "authentic"
    assert (tmp_path / "bell" / "bell_report.json").exists()


def test_net_without_topology_exits_two(tmp_path, capsys):
    config = str(SCENARIOS / "noiseless.json")
    code, _, err = _run(capsys, "net", "--config", config)
    assert code == 2
    assert "topology" in err


def test_estimate_with_resolution_beyond_int64_exits_four(tmp_path, capsys):
    path = tmp_path / "coarse.tags"
    path.write_text("# qcs-timetag v1\n# channel: x\n# resolution_fs: 10000000000000000000\n0\n")
    code, _, err = _run(capsys, "estimate", *[str(path)] * 4)
    assert code == 4
    assert "line 3" in err and "Traceback" not in err


def test_simulate_with_resolution_beyond_int64_exits_two(tmp_path, capsys):
    config = json.loads((SCENARIOS / "paper_100pairs.json").read_text())
    for resolution in (10**19, 1e19):
        config["tagger"]["resolution_fs"] = resolution
        path = tmp_path / "coarse_tagger.json"
        path.write_text(json.dumps(config))
        code, _, err = _run(capsys, "simulate", "--config", str(path), "--out", str(tmp_path / "out"))
        assert code == 2
        assert "resolution_fs" in err and "Traceback" not in err


def test_integral_float_config_values_act_as_integers(tmp_path, capsys):
    # JSON Schema's "integer" admits 1000.0; the run must match the 1000 one
    config = json.loads((SCENARIOS / "paper_100pairs.json").read_text())
    runs = []
    for resolution in (1000, 1000.0):
        config["tagger"]["resolution_fs"] = resolution
        config["correlation"]["coarse_bin_fs"] = resolution * 1000
        path = tmp_path / f"tagger_{resolution!r}.json"
        path.write_text(json.dumps(config))
        runs.append(tmp_path / f"out_{resolution!r}")
        code, _, err = _run(capsys, "simulate", "--config", str(path), "--out", str(runs[-1]))
        assert code == 0, err
    assert "1000.0" in (tmp_path / "tagger_1000.0.json").read_text()
    for name in ("a_local.tags", "b_from_a.tags", "b_local.tags", "a_from_b.tags", "twoway_result.json"):
        assert (runs[0] / name).read_bytes() == (runs[1] / name).read_bytes()


def test_simulate_without_detectors_section_uses_default_detectors(tmp_path, capsys):
    # every detector field is optional, so the whole section is too
    config = json.loads((SCENARIOS / "noiseless.json").read_text())
    runs = []
    for label, detectors in (("omitted", None), ("empty", {})):
        config.pop("detectors", None)
        if detectors is not None:
            config["detectors"] = detectors
        path = tmp_path / f"{label}.json"
        path.write_text(json.dumps(config))
        runs.append(tmp_path / label)
        code, _, err = _run(capsys, "simulate", "--config", str(path), "--out", str(runs[-1]))
        assert code == 0, err
    assert (runs[0] / "twoway_result.json").read_bytes() == (runs[1] / "twoway_result.json").read_bytes()
    for name in ("a_local.tags", "b_from_a.tags", "b_local.tags", "a_from_b.tags"):
        # the tag files differ only in the metadata line's hash of the config text
        omitted, empty = ((run / name).read_bytes().split(b"\n") for run in runs)
        assert [line for line in omitted if not line.startswith(b"# metadata: ")] == [
            line for line in empty if not line.startswith(b"# metadata: ")
        ]


def _two_node_net(horizon_s, interval_s, report_interval_s) -> dict:
    """A ground reference and one child on a 3 km static link, synced every interval_s."""
    edge = {
        "upstream": "ref",
        "downstream": "g1",
        "interval_s": interval_s,
        "link": {"geometry": {"variant": "static_range", "range_m": 3000.0}},
        "session": {"duration_s": 1e-5, "source_up": {"pair_rate_hz": 1e7}, "source_down": {"pair_rate_hz": 1e7}},
        "correlation": {"search_window_fs": 10**11, "coarse_bin_fs": 10**6, "fine_bin_fs": 2 * 10**5},
    }
    nodes = [{"id": "ref", "role": "reference", "clock": {}}, {"id": "g1", "clock": {"initial_offset_fs": 10**6}}]
    topology = {"horizon_s": horizon_s, "report_interval_s": report_interval_s, "nodes": nodes, "edges": [edge]}
    return {"seed": 3, "topology": topology}


def _net(tmp_path, capsys, config):
    path = tmp_path / "net.json"
    path.write_text(json.dumps(config))
    return _run(capsys, "net", "--config", str(path), "--out", str(tmp_path / "out"))


def test_net_past_int64_horizon_exits_two(tmp_path, capsys):
    # the sync at 10000 s would put tag times past 2^63 fs
    code, _, err = _net(tmp_path, capsys, _two_node_net(10001, 5000, 5000))
    assert code == 2
    assert "9223 s" in err and "Traceback" not in err


def test_net_report_epoch_past_int64_exits_two(tmp_path, capsys):
    # the one report epoch, at 9223.5 s, is past 2^63 fs; the sync at 5000 s is not
    code, _, err = _net(tmp_path, capsys, _two_node_net(9224, 5000, 18447))
    assert code == 2
    assert "2^63" in err and "Traceback" not in err
    code, _, err = _net(tmp_path, capsys, _two_node_net(9223, 5000, 18440))
    assert code == 0, err


def _net_with_failure() -> dict:
    return _set(_two_node_net(10, 5, 5), ("topology", "failures"), [{"node": "g1", "at_s": 0}])


_SECONDS_KEYS = [
    ("simulate", _noiseless, ("duration_s",)),
    ("relativity", lambda: _set(_noiseless(), ("relativity",), {}), ("relativity", "horizon_s")),
    ("net", lambda: _two_node_net(10, 5, 5), ("topology", "horizon_s")),
    ("net", lambda: _two_node_net(10, 5, 5), ("topology", "report_interval_s")),
    ("net", lambda: _two_node_net(10, 5, 5), ("topology", "edges", 0, "interval_s")),
    ("net", _net_with_failure, ("topology", "failures", 0, "at_s")),
]


@pytest.mark.parametrize(
    "command, base, key", _SECONDS_KEYS, ids=[".".join(map(str, key)) for _, _, key in _SECONDS_KEYS]
)
def test_seconds_past_the_float_range_exit_two(tmp_path, capsys, command, base, key):
    # seconds * 10^15 overflowed to inf, and round(inf) raised OverflowError (exit 1)
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(_set(base(), key, 1e300)))
    code, _, err = _run(capsys, command, "--config", str(path), "--out", str(tmp_path / "out"))
    assert code == 2
    assert key[-1] in err and "Traceback" not in err


def _cli_subprocess(tmp_path, command, config, memory=1 << 30) -> subprocess.CompletedProcess:
    """Run `python -m qcsync <command>` on config in a child capped at 20 s and memory bytes (1 GiB).

    The child starts no BLAS thread pool, whose buffers would count against the cap.
    """
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (memory, memory))

    env = {**os.environ, "PYTHONPATH": str(SCENARIOS.parent / "src"), "OPENBLAS_NUM_THREADS": "1"}
    return subprocess.run(
        [sys.executable, "-m", "qcsync", command, "--config", str(path), "--out", str(tmp_path / "out")],
        env=env,
        preexec_fn=limit_memory,
        capture_output=True,
        text=True,
        timeout=20,
    )


def test_long_session_fits_in_memory(tmp_path):
    # 0.3 s of paper_100pairs enumerates about 1.2e8 A->B window pairs, one
    # 4-byte coarse-bin offset each, and peaks near 610 MB: it fits the
    # 768 MiB cap that the next test's longer session does not. It exited 3
    # while the offsets were counted through an 8-byte copy (919 MiB).
    result = _cli_subprocess(tmp_path, "simulate", _set(_paper(), ("duration_s",), 0.3), memory=768 << 20)
    assert result.returncode == 0, result.stderr
    assert "theta_fs=" in result.stdout


def test_session_too_large_for_memory_exits_three(tmp_path):
    # 0.5 s of paper_100pairs holds about 930 MB at its peak, so under a
    # 768 MiB cap an allocation fails: a one-line message and exit 3, not a
    # MemoryError traceback (exit 1). The session must not fit the cap.
    result = _cli_subprocess(tmp_path, "simulate", _set(_paper(), ("duration_s",), 0.5), memory=768 << 20)
    assert result.returncode == 3, result.stderr
    assert "simulation failed: out of memory" in result.stderr and "Traceback" not in result.stderr
    assert len(result.stderr.splitlines()) == 1


def test_net_interval_below_one_fs_exits_two(tmp_path):
    # interval_s 1e-20 rounded to a 0 fs interval, and the schedule loop never ended
    result = _cli_subprocess(tmp_path, "net", _two_node_net(10, 1e-20, 5))
    assert result.returncode == 2
    assert "interval_s" in result.stderr and "Traceback" not in result.stderr


def test_net_huge_horizon_exits_two_before_the_first_event(tmp_path):
    # the whole schedule to 10^12 s was built before the first sync ran, and the run hung;
    # later every sync up to 9223 s ran, about 16 s, before the one past 2^63 fs exited 2
    started = time.monotonic()
    result = _cli_subprocess(tmp_path, "net", _two_node_net(1e12, 1, 1e12))
    assert time.monotonic() - started < 5
    assert result.returncode == 2
    assert "9223 s" in result.stderr and "Traceback" not in result.stderr


def test_net_report_epochs_past_the_bound_exit_two_before_the_first_event(tmp_path):
    # 1e-9 s over leo_demo's 30 s horizon asks for 3e10 report epochs; the run was still going after 20 s
    leo = json.loads((SCENARIOS / "leo_demo.json").read_text())
    started = time.monotonic()
    result = _cli_subprocess(tmp_path, "net", _set(leo, ("topology", "report_interval_s"), 1e-9))
    assert time.monotonic() - started < 5
    assert result.returncode == 2
    assert "report epochs" in result.stderr and "Traceback" not in result.stderr


def test_net_syncs_past_the_bound_exit_two_before_the_first_event(tmp_path):
    # a 1 fs sync interval over a 3 s horizon asks for 3e15 syncs; the run was still going after 60 s
    leo = _set(json.loads((SCENARIOS / "leo_demo.json").read_text()), ("topology", "horizon_s"), 3)
    started = time.monotonic()
    result = _cli_subprocess(tmp_path, "net", _set(leo, ("topology", "edges", 0, "interval_s"), 1e-15))
    assert time.monotonic() - started < 5
    assert result.returncode == 2
    assert "syncs" in result.stderr and "Traceback" not in result.stderr


def _leo() -> dict:
    return json.loads((SCENARIOS / "leo_demo.json").read_text())


def _paper() -> dict:
    return json.loads((SCENARIOS / "paper_100pairs.json").read_text())


_ORBIT_KEYS = ("topology", "edges", 0, "link", "geometry")
_NON_FINITE = [
    ("net", _leo, (*_ORBIT_KEYS, "inclination_rad"), math.inf),
    ("net", _leo, (*_ORBIT_KEYS, "inclination_rad"), math.nan),
    ("net", _leo, (*_ORBIT_KEYS, "ground_station", "lat_rad"), math.nan),
    ("net", _leo, (*_ORBIT_KEYS, "ground_station", "lon_rad"), math.inf),
    ("simulate", _paper, ("correlation", "significance_sigma"), math.inf),
]


@pytest.mark.parametrize(
    "command, base, key, value", _NON_FINITE, ids=[f"{key[-1]}={value}" for _, _, key, value in _NON_FINITE]
)
def test_non_finite_values_exit_two_naming_the_key(tmp_path, capsys, command, base, key, value):
    # json reads NaN and Infinity, and NaN passes every schema bound: an inf
    # inclination exited 2 as "math domain error" from math.cos, the NaN
    # angles exited 3 when the light-time iteration never converged, and an
    # inf significance exited 3 as "below threshold inf". (An inf station
    # altitude, which exited 3 with a numpy warning, now meets its upper
    # bound in the schema: test_ground_station_past_the_altitude_bound_exits_two.)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(_set(base(), key, value)))
    code, _, err = _run(capsys, command, "--config", str(path), "--out", str(tmp_path / "out"))
    assert code == 2
    assert f"config error: {key[-1]} must be in" in err and "math domain" not in err and "Traceback" not in err


_SUB_FS_DURATIONS = [
    ("simulate", _noiseless, ("duration_s",), "duration_s"),
    (
        "net",
        lambda: _two_node_net(10, 5, 5),
        ("topology", "edges", 0, "session", "duration_s"),
        "topology.edges[].session.duration_s",
    ),
]


@pytest.mark.parametrize("command, base, key, name", _SUB_FS_DURATIONS, ids=["simulate", "net"])
def test_session_below_one_fs_exits_two(tmp_path, command, base, key, name):
    # 1e-20 s rounds to an empty session, which the session builder rejects naming the key
    result = _cli_subprocess(tmp_path, command, _set(base(), key, 1e-20))
    assert result.returncode == 2
    assert f"config error: {name} must be at least 1 fs, got 1e-20 s" in result.stderr
    assert "Traceback" not in result.stderr


def test_ground_station_at_the_earth_centre_exits_two(tmp_path, capsys):
    # alt_m -6371000 put the station at the Earth's centre: relativity ended in
    # a ZeroDivisionError traceback, and below it reported a rate offset from
    # a negative radius; net ran with a numpy warning and no sync visible
    leo = _set(_leo(), ("topology", "horizon_s"), 3)
    link = leo["topology"]["edges"][0]["link"]
    for alt_m in (-6371000, -7e6):
        link["geometry"]["ground_station"]["alt_m"] = alt_m
        relativity, net = tmp_path / "relativity.json", tmp_path / "net.json"
        relativity.write_text(json.dumps({"seed": 1, "link": link, "relativity": {"samples": 5}}))
        net.write_text(json.dumps(leo))
        for command, path in (("relativity", relativity), ("net", net)):
            code, _, err = _run(capsys, command, "--config", str(path), "--out", str(tmp_path / command))
            assert code == 2
            assert "['alt_m']" in err and "minimum of -6371000.0" in err and "Traceback" not in err
    # the schema bound is the field's declaration, which a library caller meets too
    with pytest.raises(ConfigError, match=r"^alt_m must be in \(-6\.371e\+06, 2\.7651e\+12\), got -6371000"):
        GroundStation(alt=-6371000)


@pytest.mark.parametrize("alt_m", [2.7651e12, 1e300, math.inf])
def test_ground_station_past_the_altitude_bound_exits_two(tmp_path, capsys, alt_m):
    # alt_m 1e300 made net warn "invalid value encountered in sin" and exit 3
    # on a light-time iteration that could not converge, and inf exited 3
    # with a numpy warning; a station as high as the orbit altitude bound,
    # c * 2^63 fs, has no flight that fits int64
    leo = _set(_leo(), ("topology", "horizon_s"), 3)
    leo["topology"]["edges"][0]["link"]["geometry"]["ground_station"]["alt_m"] = alt_m
    net = tmp_path / "net.json"
    net.write_text(json.dumps(leo))
    code, _, err = _run(capsys, "net", "--config", str(net), "--out", str(tmp_path / "net"))
    assert code == 2
    assert "['alt_m']" in err and "maximum" in err and "Traceback" not in err


def _station_at_the_earth_centre() -> dict:
    link = _leo()["topology"]["edges"][0]["link"]
    link["geometry"]["ground_station"]["alt_m"] = -6371000
    return {"seed": 1, "link": link}


# (id, command, config, what stderr must name or None), each run through
# `python -m qcsync` as the installed console script runs it
_EXIT_TWO = [
    ("horizon-past-int64", "net", lambda: _set(_leo(), ("topology", "horizon_s"), 1e30), None),
    ("report-epochs-past-the-bound", "net", lambda: _set(_leo(), ("topology", "report_interval_s"), 1e-9), None),
    (
        "syncs-past-the-bound",
        "net",
        lambda: _set(_set(_leo(), ("topology", "horizon_s"), 3), ("topology", "edges", 0, "interval_s"), 1e-15),
        None,
    ),
    ("block-count-past-the-bound", "simulate", lambda: _set(_paper(), ("correlation", "block_count"), 10**9), None),
    ("inclination-inf", "net", lambda: _set(_leo(), (*_ORBIT_KEYS, "inclination_rad"), math.inf), None),
    ("significance-inf", "simulate", lambda: _set(_paper(), ("correlation", "significance_sigma"), math.inf), None),
    (
        "session-below-one-fs",
        "net",
        lambda: _set(_leo(), ("topology", "edges", 0, "session", "duration_s"), 1e-20),
        "topology.edges[].session.duration_s",
    ),
    (
        "interval-below-one-fs",
        "net",
        lambda: _set(_leo(), ("topology", "edges", 0, "interval_s"), 1e-20),
        "topology.edges[].interval_s",
    ),
    (
        "report-interval-below-one-fs",
        "net",
        lambda: _set(_leo(), ("topology", "report_interval_s"), 4e-16),
        "topology.report_interval_s",
    ),
    ("station-at-the-earth-centre", "relativity", _station_at_the_earth_centre, "['alt_m']"),
    (
        "station-past-the-altitude-bound",
        "net",
        lambda: _set(_set(_leo(), ("topology", "horizon_s"), 3), (*_ORBIT_KEYS, "ground_station", "alt_m"), 1e300),
        "alt_m",
    ),
]


@pytest.mark.parametrize("command, config, key", [case[1:] for case in _EXIT_TWO], ids=[case[0] for case in _EXIT_TWO])
def test_config_error_exits_two_from_the_command_line(tmp_path, command, config, key):
    # a horizon past 2^63 fs, more than 10^6 report epochs or syncs, and a
    # block_count past 10^6 are config errors before the first sync or
    # session; an infinite orbit inclination or significance exits 2, not as
    # the "math domain error" of math.cos; a sub-fs session or interval and a
    # ground station at the Earth's centre name their key; a station at
    # alt_m 1e300 does too, with no numpy RuntimeWarning from its sines
    result = _cli_subprocess(tmp_path, command, config())
    assert result.returncode == 2, result.stderr
    assert key is None or key in result.stderr
    assert "math domain" not in result.stderr and "RuntimeWarning" not in result.stderr


def test_relativity_at_coincident_endpoints_exits_zero(tmp_path):
    # a ground station at the orbit's altitude meets the satellite at t = 0:
    # relativity printed numpy's "invalid value encountered in divide" for the
    # elevation of the zero range, which now reads not visible without it
    link = _leo()["topology"]["edges"][0]["link"]
    geometry = link["geometry"]
    geometry["ground_station"]["alt_m"] = geometry["altitude_m"] = 550000
    del geometry["phase0_rad"]
    result = _cli_subprocess(tmp_path, "relativity", {"seed": 1, "link": link})
    assert result.returncode == 0, result.stderr
    assert "RuntimeWarning" not in result.stderr
    first = json.loads(result.stdout)["samples"][0]
    assert first["t_s"] == 0 and first["range_m"] == 0 and first["visible"] is False


def test_net_horizon_shorter_than_one_interval_exits_two(tmp_path, capsys):
    code, _, err = _net(tmp_path, capsys, _two_node_net(1, 5, 5))
    assert code == 2
    assert "horizon must cover" in err and "Traceback" not in err


def test_net_report_interval_past_the_horizon_exits_two(tmp_path, capsys):
    # no report epoch falls in the horizon; the baseline comparison of the empty report raised ValueError
    code, _, err = _net(tmp_path, capsys, _two_node_net(10, 5, 1e30))
    assert code == 2
    assert " 0 report epochs" in err and "Traceback" not in err


@pytest.mark.parametrize("key", [("sources", "a", "pair_rate_hz"), ("detectors", "a", "dark_rate_hz")])
def test_event_count_past_the_guard_exits_two(tmp_path, capsys, key):
    code, err, tags = _simulate_edited(tmp_path, capsys, key[:-1], key[-1], 1e30)
    assert code == 2
    assert "expected event count" in err and "Traceback" not in err
    assert tags == []


def test_config_errors_are_qcsync_types_only():
    # a bare ValueError or KeyError there printed internal bugs as "config error"
    assert all(cls.__module__.startswith("qcsync.") for cls in cli._CONFIG_ERRORS)


@pytest.mark.parametrize("samples", [100001, 10**9])
def test_relativity_samples_past_the_bound_exit_two(tmp_path, samples):
    # the time grid is built in a Python loop: 10^9 samples ended in a MemoryError traceback (exit 1)
    started = time.monotonic()
    result = _cli_subprocess(tmp_path, "relativity", _set(_noiseless(), ("relativity",), {"samples": samples}))
    assert time.monotonic() - started < 5
    assert result.returncode == 2
    assert "samples" in result.stderr and "100000" in result.stderr and "Traceback" not in result.stderr


def test_net_failure_of_the_only_reference_exits_two(tmp_path, capsys):
    # it exited 0, and every sync after the failure logged holdover
    config = _set(_two_node_net(10, 5, 5), ("topology", "failures"), [{"node": "ref", "at_s": 5}])
    code, _, err = _net(tmp_path, capsys, config)
    assert code == 2
    assert "reference node must never fail" in err and "Traceback" not in err


def test_net_failure_of_unknown_node_exits_two(tmp_path, capsys):
    config = json.loads((SCENARIOS / "leo_demo.json").read_text())
    config["topology"]["failures"] = [{"node": "nosuch", "at_s": 1}]
    path = tmp_path / "leo_failure.json"
    path.write_text(json.dumps(config))
    code, _, err = _run(capsys, "net", "--config", str(path), "--out", str(tmp_path / "out"))
    assert code == 2
    assert "nosuch" in err and "Traceback" not in err


def test_bell_pairs_per_setting_past_int64_exits_two(tmp_path, capsys):
    # 10**30 passed the schema and overflowed numpy's multinomial (exit 1)
    config = json.loads((SCENARIOS / "bell_demo.json").read_text())
    config["bell"]["pairs_per_setting"] = 10**30
    path = tmp_path / "bell_huge.json"
    path.write_text(json.dumps(config))
    code, _, err = _run(capsys, "bell", "--config", str(path), "--out", str(tmp_path / "out"))
    assert code == 2
    assert "pairs_per_setting" in err and "Traceback" not in err


def test_simulate_with_lone_tag_before_epoch_on_random_walk_clocks(tmp_path, capsys):
    # a lone tag jittered below t = 0 was the only reading of a fresh random walk,
    # which then indexed past its one-node arrays (IndexError, exit 1)
    config = _noiseless()
    config["duration_s"] = 1e-9
    for side in ("a", "b"):
        config["sources"][side]["pair_rate_hz"] = 2e9
        config["detectors"][side]["jitter_sigma_fs"] = 10**9
        config["clocks"][side]["random_walk_freq_coeff"] = 1e-9
    path = tmp_path / "lone_tag.json"
    path.write_text(json.dumps(config))
    code, _, err = _run(capsys, "simulate", "--config", str(path), "--seed", "10", "--out", str(tmp_path / "out"))
    # the lone tags are read now, and too few to form a peak
    assert code == 3 and "significance" in err, err
