"""Deterministic result files: atomic writes, canonical hashing, CSV/JSON."""

import hashlib
import json
import os
import secrets

import numpy as np


def canonical_json(obj):
    """Stable text form of a config: sorted keys, compact separators."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def config_hash(obj):
    return hashlib.sha256(canonical_json(obj).encode()).hexdigest()


def _atomic(path, data, mode):
    """Write via a sibling temp file and rename, so readers never see a
    partial file; it gets open()'s mode, 0o666 less the umask."""
    path = os.path.abspath(path)
    tmp = os.path.join(os.path.dirname(path),
                       f".tmp-{secrets.token_hex(8)}-{os.path.basename(path)}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, mode) as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path, text):
    _atomic(path, text, "w")


def atomic_write_bytes(path, data):
    _atomic(path, data, "wb")


def format_float(x):
    """Shortest decimal string that round-trips to the same float."""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


def write_json(path, payload):
    atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def write_csv(path, header, rows, metadata=None):
    """CSV with '#' metadata comment lines; floats in round-trip form."""
    lines = []
    for key in sorted(metadata or {}):
        lines.append(f"# {key}: {metadata[key]}")
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(
            format_float(v) if isinstance(v, (float, int, np.floating, np.integer))
            else str(v)
            for v in row))
    atomic_write_text(path, "\n".join(lines) + "\n")


def write_npz(path, metadata=None, **arrays):
    """Atomic .npz bundle; metadata lands as a JSON string array."""
    import io as _io

    buf = _io.BytesIO()
    if metadata is not None:
        arrays = dict(arrays)
        arrays["metadata_json"] = np.array(json.dumps(metadata, sort_keys=True))
    np.savez(buf, **arrays)
    atomic_write_bytes(path, buf.getvalue())
