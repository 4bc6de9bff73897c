"""Timetag file format and command-line workflows."""

from __future__ import annotations

import json
import shlex
from pathlib import Path

import numpy as np
import pytest

from qcsync.cli import main
from qcsync.photonics import TagStream
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


def test_missing_file_raises_tagfile_error(tmp_path):
    with pytest.raises(TagFileError, match="cannot read"):
        read_timetag_file(tmp_path / "nope.tags")


def test_atomic_write_leaves_no_temp_files(tmp_path):
    target = tmp_path / "deep" / "file.txt"
    atomic_write_text(target, "payload\n")
    assert target.read_text() == "payload\n"
    assert [p.name for p in target.parent.iterdir()] == ["file.txt"]


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


def _run_readme_example(capsys, monkeypatch, command: str, out_dir: Path):
    readme = (SCENARIOS.parent / "README.md").read_text().splitlines()
    (line,) = [l for l in readme if l.startswith(f"qcsync {command} ")]
    argv = shlex.split(line)[1:]
    argv[argv.index("--out") + 1] = str(out_dir)
    monkeypatch.chdir(SCENARIOS.parent)
    return _run(capsys, *argv)


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


def test_net_past_int64_horizon_exits_two(tmp_path, capsys):
    # the sync at 10000 s would put tag times past 2^63 fs
    edge = {
        "upstream": "ref",
        "downstream": "g1",
        "interval_s": 5000,
        "link": {"geometry": {"variant": "static_range", "range_m": 3000.0}},
        "session": {"duration_s": 1e-5, "source_up": {"pair_rate_hz": 1e7}, "source_down": {"pair_rate_hz": 1e7}},
        "correlation": {"search_window_fs": 10**11, "coarse_bin_fs": 10**6, "fine_bin_fs": 2 * 10**5},
    }
    nodes = [{"id": "ref", "role": "reference", "clock": {}}, {"id": "g1", "clock": {"initial_offset_fs": 10**6}}]
    config = {"seed": 3, "topology": {"horizon_s": 10001, "report_interval_s": 5000, "nodes": nodes, "edges": [edge]}}
    path = tmp_path / "long_net.json"
    path.write_text(json.dumps(config))
    code, _, err = _run(capsys, "net", "--config", str(path), "--out", str(tmp_path / "out"))
    assert code == 2
    assert "9223 s" in err and "Traceback" not in err
