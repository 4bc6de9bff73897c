"""Plain-text timetag file format and atomic file writing.

Format (one file per channel):

    # qcs-timetag v1
    # channel: <id>
    # resolution_fs: <int in [1, 2^63)>
    # frame: <id>              (optional)
    # metadata: <json object>  (optional)
    <decimal integer femtoseconds, one per line, strictly increasing>

Values must be multiples of the declared resolution. Parsing reports the
offending line number for every violation. Plain decimal text keeps golden
files diff-able.

Both directions format and parse whole arrays, not one Python int per tag.

The writer finds each tag's sign and digit count with one ``searchsorted``
on the signed powers of ten. Each run of tags with equal digit count and
sign becomes one fixed-width 2-D block of bytes, filled four digits at a
time from a lookup table; magnitudes are taken on the uint64 view, so
-2**63 is exact. A stream is strictly increasing, so the digit counts fall
over its negative tags and rise over the rest: a file has at most 38 runs
whatever its length. Any order formats correctly; disorder only makes more
runs.

The reader has a strict array path and a per-line fallback. The strict form
is an ASCII header and a body of ``-?[0-9]{1,19}`` lines, each ending in a
newline. Each run of equal line length is viewed in place as a 2-D block of
bytes and combined column by column in uint64. The int64 limits, the
resolution and the strict increase are then array checks. Any other file,
and any file that fails a check, goes through the per-line loop over the
text ``Path.read_text()`` gives. That loop accepts what Python ``int()``
accepts (``+5``, ``1_0``, non-ASCII digits, CRLF, no final newline) and
names the first offending line, so messages do not depend on the path
taken.
"""

from __future__ import annotations

import io
import json
import os
import re
import tempfile
from pathlib import Path

import numpy as np

from .photonics import TagStream
from .timebase import INT64_LIMIT

__all__ = ["TagFileError", "write_timetag_file", "read_timetag_file", "atomic_write_text"]

MAGIC = "# qcs-timetag v1"

_MAX_DIGITS = 19  # 2**63 has 19 digits
# Lowest value of each (sign, digit count) class but the first:
# -(10**18 - 1) .. -9, then 0, 10 .. 10**18
_CLASS_EDGES = np.array(
    [-(10**k - 1) for k in range(_MAX_DIGITS - 1, 0, -1)]
    + [0]
    + [10**k for k in range(1, _MAX_DIGITS)],
    dtype=np.int64,
)
_NEWLINE, _MINUS, _ZERO = ord("\n"), ord("-"), ord("0")
# "0000" .. "9999" as 4-byte words, indexed by value
_QUADS = (
    np.ascontiguousarray(np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1).T + np.uint8(_ZERO))
    .view(np.uint32)
    .ravel()
)
# A strictly increasing body written by this module has at most 38 runs of
# equal line length. Each run costs a few numpy calls, so a body with more
# (leading zeros, disorder) is left to the per-line loop.
_MAX_RUNS = 64
# ASCII characters other than "\n" at which str.splitlines() also breaks
_OTHER_LINE_BREAKS = re.compile(rb"[\r\v\f\x1c-\x1e]")


class TagFileError(Exception):
    """Timetag file violates the format; message carries the line number."""


def atomic_write_text(path: str | Path, text: str | bytes) -> None:
    """Write text, or bytes as they are, via a temp file in the same directory plus rename."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb" if isinstance(text, bytes) else "w") as handle:
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
    header = "".join(f"{line}\n" for line in lines).encode()
    atomic_write_text(path, header + _format_body(stream.timestamps))


def _format_body(timestamps: np.ndarray) -> bytes:
    """``str()`` of each timestamp, each followed by a newline."""
    if not len(timestamps):
        return b""
    # Class k < 19 holds the negatives of 19 - k digits and class 19 + j the
    # non-negatives of j + 1 digits. A run is a stretch of one class.
    classes = np.searchsorted(_CLASS_EDGES, timestamps, side="right")
    cuts = (np.flatnonzero(classes[1:] != classes[:-1]) + 1).tolist()
    chunks = []
    for first, last in zip([0, *cuts], [*cuts, len(timestamps)]):
        k = int(classes[first])
        sign = int(k < _MAX_DIGITS)
        width = _MAX_DIGITS - k if sign else k - _MAX_DIGITS + 1
        chunks.append(_format_run(timestamps[first:last], width, sign))
    return b"".join(chunks)


def _format_run(timestamps: np.ndarray, width: int, sign: int) -> bytes:
    """Lines of tags that all have ``width`` digits and all the same ``sign``."""
    rest = timestamps.view(np.uint64)
    if sign:
        rest = -rest  # modulo 2**64, so -2**63 gives its magnitude 2**63
    groups = (width + 3) // 4
    quads = np.empty((len(rest), groups), dtype=np.uint32)
    for col in range(groups - 1, 0, -1):
        high = rest // 10_000
        quads[:, col] = _QUADS.take(rest - high * 10_000)
        rest = high
    quads[:, 0] = _QUADS.take(rest)
    size = sign + width + 1
    lines = np.empty((len(rest), size), dtype=np.uint8)
    if sign:
        lines[:, 0] = _MINUS
    # Copied as one width-byte item per line: a single strided copy, where a
    # 2-D uint8 copy would loop once per line.
    lines[:, sign : size - 1].view(f"V{width}")[...] = (
        quads.view(np.uint8)[:, 4 * groups - width :].view(f"V{width}")
    )
    lines[:, size - 1] = _NEWLINE
    return lines.tobytes()


def _header_value(line: str, key: str, line_no: int) -> str:
    prefix = f"# {key}:"
    if not line.startswith(prefix):
        raise TagFileError(f"line {line_no}: expected '{prefix} ...', got {line!r}")
    return line[len(prefix) :].strip()


def read_timetag_file(path: str | Path) -> TagStream:
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise TagFileError(f"cannot read {path}: {exc}") from exc
    stream = _read_strict(raw)
    if stream is not None:
        return stream
    try:
        text = io.TextIOWrapper(io.BytesIO(raw)).read()  # what Path.read_text() returns
    except UnicodeDecodeError as exc:
        raise TagFileError(f"cannot decode {path}: {exc}") from exc
    lines = text.splitlines()
    fields, body_start = _parse_header(lines)
    timestamps = _parse_body_by_line(lines[body_start:], body_start, fields["resolution_fs"])
    return TagStream(timestamps=timestamps, **fields)


def _parse_header(lines: list[str]) -> tuple[dict, int]:
    """The ``TagStream`` fields but the timestamps, and the index of the first body line."""
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
    if not 1 <= resolution < INT64_LIMIT:
        raise TagFileError(f"line 3: resolution_fs must be in [1, 2^63), got {resolution}")

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
    fields = dict(channel_id=channel, resolution_fs=resolution, frame=frame, metadata=metadata)
    return fields, body_start


def _read_strict(raw: bytes) -> TagStream | None:
    """The stream of a file in the strict form that passes every check, else None.

    The header has at most five lines. When they are ASCII and end in "\\n"
    with no other line break, they are the first lines ``str.splitlines()``
    gives, so ``_parse_header`` sees what the per-line path would.
    """
    head_end = 0
    for _ in range(5):
        newline = raw.find(b"\n", head_end)
        if newline < 0:
            break
        head_end = newline + 1
    head = raw[:head_end]
    if not head.isascii() or _OTHER_LINE_BREAKS.search(head):
        return None
    lines = head.decode("ascii").split("\n")[:-1]
    try:
        fields, body_start = _parse_header(lines)
    except TagFileError:
        return None
    body_at = sum(len(line) + 1 for line in lines[:body_start])
    timestamps = _parse_strict_body(np.frombuffer(raw, dtype=np.uint8, offset=body_at))
    if timestamps is None:
        return None
    try:
        return TagStream(timestamps=timestamps, **fields)
    except (ValueError, OverflowError):  # off the resolution grid or not strictly increasing
        return None


def _parse_strict_body(body: np.ndarray) -> np.ndarray | None:
    """Values of a body of ``-?[0-9]{1,19}\\n`` lines, or None when the body
    is not of that form or a value is outside int64."""
    if not len(body):
        return np.empty(0, dtype=np.int64)
    if body[-1] != _NEWLINE:
        return None
    ends = np.flatnonzero(body == _NEWLINE)
    lengths = np.diff(ends, prepend=-1) - 1
    cuts = (np.flatnonzero(lengths[1:] != lengths[:-1]) + 1).tolist()
    if len(cuts) >= _MAX_RUNS:
        return None

    magnitude = np.empty(len(ends), dtype=np.uint64)
    negative = np.empty(len(ends), dtype=bool)
    for first, last in zip([0, *cuts], [*cuts, len(ends)]):
        width = int(lengths[first])
        if not 1 <= width <= _MAX_DIGITS + 1:
            return None
        start = int(ends[first]) - width
        block = body[start : int(ends[last - 1]) + 1].reshape(last - first, width + 1)
        digits = block - np.uint8(_ZERO)  # "-" and "\n" wrap past 9
        neg = negative[first:last]
        np.equal(block[:, 0], _MINUS, out=neg)
        np.copyto(digits[:, 0], 0, where=neg)
        digits[:, width] = 0
        if digits.max() > 9:  # a byte that is not a digit, or a minus sign inside a line
            return None
        if (width == 1 and neg.any()) or (width > _MAX_DIGITS and not neg.all()):
            return None  # a lone minus sign, or 20 digits
        total = magnitude[first:last]
        total[:] = digits[:, 0]
        for col in range(1, width):
            total *= np.uint64(10)
            total += digits[:, col]
    if np.any(magnitude > np.uint64(INT64_LIMIT - 1) + negative):
        return None
    np.negative(magnitude, out=magnitude, where=negative)
    return magnitude.view(np.int64)


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
