"""Crash-consistent file primitives for run directories.

Everything the harness persists goes through :func:`atomic_write_text`:
write to a temp file, ``fsync`` the data, ``os.replace`` onto the
destination, then ``fsync`` the parent directory so the rename itself is
durable.  Without the two fsyncs a power cut (or SIGKILL plus an unlucky
page-cache flush) can leave the *rename* on disk but not the data — a
present-but-torn file, which is precisely the corruption class
``python -m repro.harness.doctor`` exists to detect.  The fault-injection
``partial`` kind (:mod:`repro.faults`) manufactures that state on demand
to prove the detection works.

``tests/test_faults.py::TestDurable`` fails on harness/obs code that
writes run-directory files without coming through here.
"""

from __future__ import annotations

import hashlib
import os
from pathlib import Path
from typing import Optional

from repro import faults


def fsync_dir(path: Path) -> None:
    """Flush a directory's entries (the rename half of an atomic write)."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - e.g. platforms without dir fds
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def atomic_write_text(path: Path, text: str, *, site: Optional[str] = None) -> None:
    """Durably replace ``path``'s content with ``text``.

    ``site`` names the fault-injection site this write represents; the
    hook fires before any byte is written, so an injected crash models a
    failure *during* the operation, never a half-completed helper.
    """
    if faults.active_plan() is not None and site is not None:
        faults.fire(site, path=path, payload=text)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w") as fh:
        fh.write(text)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    fsync_dir(path.parent)


def content_checksum(text: str) -> str:
    """Hex SHA-256 of a canonical payload string."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
