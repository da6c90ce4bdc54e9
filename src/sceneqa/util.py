"""Small shared helpers: seeding, number rendering, JSON/JSONL I/O."""

from __future__ import annotations

import hashlib
import json
import os
import sys
from decimal import ROUND_HALF_UP, Decimal
from pathlib import Path
from typing import Any, Iterable, Iterator

from .errors import MalformedFileError, SceneQaError, SchemaViolationError

_SEED_MASK = (1 << 63) - 1
_FLOAT_MAX = sys.float_info.max


def derive_seed(master_seed: int, name: str) -> int:
    """Derive a stable sub-seed from a master seed and a string key.

    Used to give every scene (or any named unit of work) its own RNG stream so
    results do not depend on processing order or worker count.
    """
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    return (int(master_seed) ^ int.from_bytes(digest[:8], "big")) & _SEED_MASK


def finite_number(value) -> bool:
    """Whether a value read from JSON is a finite number: neither true nor
    false (``type()``, not ``isinstance()``), nor NaN, an infinity (JSON's
    NaN, Infinity, 1e400) or an integer too large for a float."""
    return ((type(value) is float or type(value) is int)
            and -_FLOAT_MAX <= value <= _FLOAT_MAX)


def render_decimal(value: float) -> str:
    """Render ``value`` with two decimals, rounding halves up.

    ``Decimal(repr(value))`` keeps the shortest decimal form of the float, so
    1.035 renders as "1.04" rather than falling into binary round-to-even.
    """
    return str(Decimal(repr(float(value))).quantize(Decimal("0.01"), rounding=ROUND_HALF_UP))


def render_count(value: float) -> str:
    """Render an integer-valued quantity without a decimal point.

    Counts are integral by construction, so anything else is a logic error
    upstream and must not be silently rounded away.
    """
    rounded = round(float(value))
    if abs(float(value) - rounded) > 1e-9:
        raise SceneQaError(f"count value {value!r} is not integral")
    return str(int(rounded))


# ``ensure_ascii=False`` string encoding, in C where the interpreter has it:
# the function ``json.dumps`` itself uses for strings and keys.
_encode_str = json.encoder.encode_basestring
# One compact encoder, as ``json.dumps(row, ensure_ascii=False)`` would build
# afresh for every row.
_encode_compact = json.JSONEncoder(ensure_ascii=False).encode


def _write_replacing(path: str | Path, write):
    """Call ``write(fh)`` on a temporary file beside ``path``, then rename it
    over ``path``.

    A reader sees the old file or the complete new one, never a truncated
    one; if ``write`` raises, the temporary file is removed and ``path`` is
    left as it was.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            result = write(fh)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return result


def write_json(obj: Any, path: str | Path) -> None:
    """Write ``json.dumps(obj, indent=2, ensure_ascii=False)`` and a newline
    to ``path`` through a temporary file: the manifest and the reports.
    Tables and truth go through :func:`sceneqa.scene.write_rows`."""
    text = json.dumps(obj, indent=2, ensure_ascii=False)
    _write_replacing(path, lambda fh: fh.writelines((text, "\n")))


def read_json(path: str | Path):
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise MalformedFileError(f"{path}: {exc}") from exc


def write_jsonl(rows: Iterable[dict], path: str | Path) -> int:
    """Write one compact JSON object per line; returns the number of rows."""

    def write(fh) -> int:
        n = 0
        for row in rows:
            fh.write(_encode_compact(row))
            fh.write("\n")
            n += 1
        return n

    return _write_replacing(path, write)


def read_jsonl(path: str | Path) -> Iterator[tuple[int, dict]]:
    """``(line number, object)`` for each non-blank line, numbering every
    line of the file from 1, so callers name the same line in their own
    errors.  A file that cannot be opened (missing, or a directory, say)
    raises :class:`MalformedFileError` naming it.  A line that is not UTF-8
    JSON raises :class:`MalformedFileError`, and one that holds anything but
    an object :class:`SchemaViolationError`; both name the line."""
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise MalformedFileError(f"{path}: {exc}") from exc
    with fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                line = line.decode("utf-8").strip()
                if not line:
                    continue
                row = json.loads(line)
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise MalformedFileError(f"{path}: line {lineno}: {exc}") from exc
            if type(row) is not dict:
                raise SchemaViolationError(
                    f"{path}: line {lineno}: expected a JSON object, got {type(row).__name__}")
            yield lineno, row
