"""Small shared helpers: seeding, number rendering, JSON/JSONL I/O."""

from __future__ import annotations

import hashlib
import json
import os
from decimal import ROUND_HALF_UP, Decimal
from pathlib import Path
from typing import Any, Iterable, Iterator

_SEED_MASK = (1 << 63) - 1


def derive_seed(master_seed: int, name: str) -> int:
    """Derive a stable sub-seed from a master seed and a string key.

    Used to give every scene (or any named unit of work) its own RNG stream so
    results do not depend on processing order or worker count.
    """
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    return (int(master_seed) ^ int.from_bytes(digest[:8], "big")) & _SEED_MASK


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
    from .errors import SceneQaError

    rounded = round(float(value))
    if abs(float(value) - rounded) > 1e-9:
        raise SceneQaError(f"count value {value!r} is not integral")
    return str(int(rounded))


def stable_json_dumps(obj: Any) -> str:
    """Serialize to JSON with a fixed layout so output files are reproducible."""
    return json.dumps(obj, indent=2, sort_keys=False, ensure_ascii=False)


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


def write_chunks(chunks: Iterable[str], path: str | Path) -> None:
    """Write the strings of ``chunks`` in order to ``path``, crash-safe."""
    _write_replacing(path, lambda fh: fh.writelines(chunks))


def write_json(obj: Any, path: str | Path) -> None:
    write_chunks((stable_json_dumps(obj), "\n"), path)


def read_json(path: str | Path):
    from .errors import MalformedFileError

    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise MalformedFileError(f"{path}: {exc}") from exc


def write_jsonl(rows: Iterable[dict], path: str | Path) -> int:
    """Write one compact JSON object per line; returns the number of rows."""

    def write(fh) -> int:
        n = 0
        for row in rows:
            fh.write(json.dumps(row, ensure_ascii=False, sort_keys=False))
            fh.write("\n")
            n += 1
        return n

    return _write_replacing(path, write)


def read_jsonl(path: str | Path) -> Iterator[dict]:
    from .errors import MalformedFileError

    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                yield json.loads(line)
            except json.JSONDecodeError as exc:
                raise MalformedFileError(f"{path}:{lineno}: {exc}") from exc
