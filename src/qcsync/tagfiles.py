"""Plain-text timetag file format and atomic file writing.

Format (one file per channel):

    # qcs-timetag v1
    # channel: <id>
    # resolution_fs: <int>
    # frame: <id>              (optional)
    # metadata: <json object>  (optional)
    <decimal integer femtoseconds, one per line, strictly increasing>

Values must be multiples of the declared resolution. Parsing reports the
offending line number for every violation. Plain decimal text keeps golden
files diff-able; stream volumes at simulation scale stay small.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

import numpy as np

from .photonics import TagStream

__all__ = ["TagFileError", "write_timetag_file", "read_timetag_file", "atomic_write_text"]

MAGIC = "# qcs-timetag v1"


class TagFileError(Exception):
    """Timetag file violates the format; message carries the line number."""


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write via a temp file in the same directory plus rename."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def write_timetag_file(path: str | Path, stream: TagStream) -> None:
    lines = [MAGIC, f"# channel: {stream.channel_id}", f"# resolution_fs: {stream.resolution_fs}"]
    if stream.frame:
        lines.append(f"# frame: {stream.frame}")
    if stream.metadata:
        lines.append(f"# metadata: {json.dumps(stream.metadata, sort_keys=True)}")
    body = "\n".join(map(str, stream.timestamps.tolist()))
    text = "\n".join(lines) + ("\n" + body if body else "") + "\n"
    atomic_write_text(path, text)


def _header_value(line: str, key: str, line_no: int) -> str:
    prefix = f"# {key}:"
    if not line.startswith(prefix):
        raise TagFileError(f"line {line_no}: expected '{prefix} ...', got {line!r}")
    return line[len(prefix) :].strip()


def read_timetag_file(path: str | Path) -> TagStream:
    try:
        raw = Path(path).read_text()
    except OSError as exc:
        raise TagFileError(f"cannot read {path}: {exc}") from exc
    lines = raw.splitlines()
    if not lines or lines[0] != MAGIC:
        raise TagFileError(f"line 1: missing magic header {MAGIC!r}")
    if len(lines) < 3:
        raise TagFileError("line 2: missing channel and resolution headers")
    channel = _header_value(lines[1], "channel", 2)
    resolution_text = _header_value(lines[2], "resolution_fs", 3)
    try:
        resolution = int(resolution_text)
    except ValueError as exc:
        raise TagFileError(f"line 3: resolution_fs must be an integer, got {resolution_text!r}") from exc
    if resolution < 1:
        raise TagFileError(f"line 3: resolution_fs must be >= 1, got {resolution}")

    frame = ""
    metadata: dict = {}
    body_start = 3
    if body_start < len(lines) and lines[body_start].startswith("# frame:"):
        frame = _header_value(lines[body_start], "frame", body_start + 1)
        body_start += 1
    if body_start < len(lines) and lines[body_start].startswith("# metadata:"):
        blob = _header_value(lines[body_start], "metadata", body_start + 1)
        try:
            metadata = json.loads(blob)
        except json.JSONDecodeError as exc:
            raise TagFileError(f"line {body_start + 1}: metadata is not valid JSON") from exc
        if not isinstance(metadata, dict):
            raise TagFileError(f"line {body_start + 1}: metadata must be a JSON object")
        body_start += 1

    timestamps = _parse_body(lines[body_start:], body_start, resolution)
    return TagStream(
        channel_id=channel,
        timestamps=timestamps,
        frame=frame,
        resolution_fs=resolution,
        metadata=metadata,
    )


def _parse_body(body: list[str], body_start: int, resolution: int) -> np.ndarray:
    """Timestamps of the body lines; line numbers count from 1 at the magic line.

    numpy parses each line with Python ``int()`` semantics and the checks are
    array operations. Only a file that fails one of them goes through the
    per-line loop, which names the first offending line.
    """
    try:
        timestamps = np.array(body, dtype=np.int64)
        if not (np.any(timestamps % resolution) or np.any(timestamps[1:] <= timestamps[:-1])):
            return timestamps
    except (ValueError, OverflowError):
        pass
    return _parse_body_by_line(body, body_start, resolution)


def _parse_body_by_line(body: list[str], body_start: int, resolution: int) -> np.ndarray:
    values = []
    previous = None
    for offset, line in enumerate(body):
        line_no = body_start + offset + 1
        stripped = line.strip()
        if not stripped:
            raise TagFileError(f"line {line_no}: blank line in body")
        if stripped.startswith("#"):
            raise TagFileError(f"line {line_no}: unexpected header line in body")
        try:
            value = int(stripped)
        except ValueError as exc:
            raise TagFileError(f"line {line_no}: not a decimal integer: {stripped!r}") from exc
        if value % resolution != 0:
            raise TagFileError(
                f"line {line_no}: timestamp {value} not a multiple of resolution {resolution}"
            )
        if previous is not None and value <= previous:
            raise TagFileError(f"line {line_no}: timestamp {value} not strictly increasing")
        previous = value
        values.append(value)

    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        limits = np.iinfo(np.int64)
        bad = next(i for i, v in enumerate(values) if not limits.min <= v <= limits.max)
        raise TagFileError(
            f"line {body_start + bad + 1}: timestamp {values[bad]} outside the int64 range"
        ) from None
