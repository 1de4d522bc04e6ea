"""On-disk cache of the cell tables :func:`fairaudit.ingest.ingest_csv`
builds, so that an input audited again is not parsed again.

An entry holds a curve's built ``by_group`` table, each group's
:data:`~fairaudit.metrics.Cells` columns, so a hit builds nothing per cell.
A table depends only on the input's bytes and the ingest settings, and is
stored under a key of both: the input's BLAKE2b digest, the four column
names, the bin edges, the entry format, the package version, and the size
and modification time of the modules that count and build the table
(editing one invalidates every entry). Entries live in
``$XDG_CACHE_HOME/fairaudit`` (``~/.cache/fairaudit`` by default), a
directory of mode 0o700, at most :data:`MAX_ENTRIES` of them; storing one
more removes the oldest.

Every failure of the cache is a miss: a missing, unwritable or foreign
directory, a home directory that is not an absolute path, or an entry that
is missing, truncated or corrupt. A miss parses the input as if there were
no cache, so a report, an exit code or an error message never depends on
what the cache holds.
"""
from __future__ import annotations

import marshal
import os
import stat
import zlib
from typing import Mapping

from . import __version__, domain, ingest, metrics

try:
    # The digest hashlib would give, without the OpenSSL that hashlib loads.
    from _blake2 import blake2b
except ImportError:  # a build without it caches nothing
    blake2b = None

#: Names the layout of an entry; part of every key.
FORMAT = "fairaudit cell table 3"

#: Entries kept in the cache directory.
MAX_ENTRIES = 64

#: Bytes read at a time when summing an input.
_CHUNK_BYTES = 1 << 16


def key_of(config: ingest.DatasetConfig) -> tuple | None:
    """The cache key of ingesting ``config``, or None when nothing can be
    cached (no BLAKE2b, or the modules that compute the table cannot be
    stat'ed).

    Reads the whole input; an OSError doing so is the input's and is
    raised."""
    if blake2b is None:
        return None
    summed = blake2b(digest_size=32)
    buffer = bytearray(_CHUNK_BYTES)
    view = memoryview(buffer)
    with open(config.path, "rb", buffering=0) as fh:
        while n := fh.readinto(buffer):
            summed.update(view[:n])
    digest = summed.digest()
    modules = (ingest.__file__, domain.__file__, metrics.__file__, __file__)
    try:
        code = tuple(
            (st.st_size, st.st_mtime_ns) for st in map(os.stat, modules)
        )
    except OSError:
        return None
    return (
        digest, FORMAT, __version__, code, config.id_col, config.group_col,
        config.score_col, config.outcome_col, config.bins.edges,
    )


def load(key: tuple | None) -> dict[str, metrics.Cells] | None:
    """The cell table stored under ``key``, or None on a miss. The entry
    is read through a view of its bytes, not a copy of them."""
    if key is None:
        return None
    try:
        path = os.path.join(_directory(create=False), _entry_name(key))
        with open(path, "rb") as fh:
            data = fh.read()
        view = memoryview(data)
        body, crc = view[:-4], view[-4:]
        if crc != zlib.crc32(body).to_bytes(4, "big"):
            return None
        stored_key, table = marshal.loads(body)
    except (OSError, EOFError, ValueError, TypeError):
        return None
    return table if stored_key == key else None


def store(
    key: tuple | None, config: ingest.DatasetConfig,
    table: Mapping[str, metrics.Cells],
) -> None:
    """Store the cell table built from ``config.path`` under ``key``,
    unless the input changed since ``key`` was taken from it: then the
    table may be of other bytes than the key's."""
    if key is None:
        return
    try:
        directory = _directory(create=True)
        if key_of(config) != key:
            return
        path = os.path.join(directory, _entry_name(key))
        _write_replace(path, _encode(key, table))
        _evict(directory)
    except OSError:
        pass


def _directory(create: bool) -> str:
    """The cache directory, made with mode 0o700 if ``create``. Raises
    OSError unless it is a directory of this user's that no one else may
    read or write, or when the home directory it falls back to is not an
    absolute path."""
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):
        base = os.path.join(os.path.expanduser("~"), ".cache")
        if not os.path.isabs(base):
            raise OSError(f"home directory is not absolute: {base}")
    directory = os.path.join(base, "fairaudit")
    if create:
        os.makedirs(directory, mode=0o700, exist_ok=True)
    st = os.lstat(directory)
    getuid = getattr(os, "getuid", None)
    if (not stat.S_ISDIR(st.st_mode) or st.st_mode & 0o077
            or getuid is not None and st.st_uid != getuid()):
        raise OSError(f"not a private directory: {directory}")
    return directory


def _entry_name(key: tuple) -> str:
    return blake2b(repr(key).encode(), digest_size=16).hexdigest()


def _encode(key: tuple, table: Mapping[str, metrics.Cells]) -> bytes:
    """An entry: the key and the cell table, marshalled, then their
    CRC-32."""
    data = marshal.dumps((key, table))
    return data + zlib.crc32(data).to_bytes(4, "big")


def _write_replace(path: str, data: bytes) -> None:
    """Write ``data`` to a temporary file beside ``path``, then move it
    there, so that no reader sees a partly written entry."""
    temp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(temp, "xb") as fh:
            fh.write(data)
        os.replace(temp, path)
    except OSError:
        try:
            os.unlink(temp)
        except OSError:
            pass
        raise


def _evict(directory: str) -> None:
    """Remove the oldest files of the directory until at most
    :data:`MAX_ENTRIES` are left."""
    with os.scandir(directory) as it:
        files = [entry for entry in it if entry.is_file(follow_symlinks=False)]
    if len(files) <= MAX_ENTRIES:
        return
    files.sort(key=lambda entry: entry.stat(follow_symlinks=False).st_mtime_ns)
    for entry in files[:len(files) - MAX_ENTRIES]:
        os.unlink(entry.path)
