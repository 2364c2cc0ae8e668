"""Deterministic I/O chaos: the ``FileOps`` seam and seeded fault injection.

Every durable write in the repo goes through the one
:class:`~repro.robustness.journal.Journal`, which performs its I/O through
an injectable :class:`FileOps` object instead of calling ``os`` directly.
In production that object is :data:`REAL_FILEOPS` — a thin, allocation-free pass-through (the CI bench
gates its overhead at ≤1.05x raw journal-write throughput).  In tests it is
a :class:`ChaosFileOps`, which can make any *individual* ``open`` / ``write``
/ ``fsync`` / ``truncate`` / ``replace`` / directory-fsync call misbehave:

* ``mode="error"`` — raise ``OSError`` with a chosen errno (ENOSPC, EIO);
* ``mode="short"`` — write only a prefix of the payload, then raise ENOSPC:
  the realistic disk-full failure, where part of the record lands before
  the error surfaces;
* ``mode="kill"`` — write a prefix (a *torn* record) and raise
  :class:`ChaosKill`, simulating ``SIGKILL``/power loss at that exact byte.
  ``ChaosKill`` subclasses ``BaseException`` so it punches through every
  ``except Exception`` / ``except OSError`` recovery path exactly the way
  real process death would — the test harness catches it at top level,
  abandons the instance, and restarts on the same store.

Faults are *positional* — the N-th call of an op kind — and
:class:`ChaosFileOps` logs every intercepted call, so a test can first run
a scenario clean to enumerate the fault points, then replay it once per
point per mode.  Everything is deterministic given the scenario and the
fault plan; the chaos matrix derives tear offsets from a seeded RNG and
logs the seed, so any failure reproduces from the log line.

The module also carries the raw-socket HTTP fault clients (truncated POST,
slow-loris) used to harden the service API — kept here so future PRs share
one misbehaving-client vocabulary.
"""

from __future__ import annotations

import errno
import json
import os
import socket
from dataclasses import dataclass
from pathlib import Path
from typing import IO

#: Dir-fsync failures that mean "this platform/filesystem cannot fsync a
#: directory", which is fine to ignore.  Anything else — EIO, ENOSPC — is a
#: real durability failure and MUST propagate (an earlier revision swallowed
#: all ``OSError`` here, which made the store's durability claims dishonest).
_DIR_FSYNC_UNSUPPORTED = frozenset(
    code
    for code in (
        getattr(errno, "ENOTSUP", None),
        getattr(errno, "EOPNOTSUPP", None),
        errno.EBADF,
        errno.EINVAL,
        getattr(errno, "ENOSYS", None),
    )
    if code is not None
)


class ChaosKill(BaseException):
    """Simulated process death at an exact I/O instant.

    ``BaseException`` on purpose: degradation handlers catch ``OSError`` /
    ``Exception``, and a real ``SIGKILL`` gives them no chance to run — so
    neither does this.  Only the chaos harness catches it.
    """


@dataclass(frozen=True)
class Fault:
    """One injected fault: the *index*-th call of *op* misbehaves.

    ``op`` is one of ``"open"``, ``"write"``, ``"fsync"``, ``"truncate"``,
    ``"replace"``, ``"fsync_dir"``.  ``mode``:

    * ``"error"`` — raise ``OSError(error)`` before touching the file;
    * ``"short"`` (write only) — write ``tear_at`` bytes of the payload,
      then raise ``OSError(error)``;
    * ``"kill"`` — for writes, land ``tear_at`` bytes then raise
      :class:`ChaosKill`; for other ops, raise it before acting.

    Faults fire once: after firing they are spent, so recovery I/O (e.g.
    recording the ``DEGRADED`` transition) sees a healthy disk again.
    """

    op: str
    index: int
    mode: str = "error"
    error: int = errno.ENOSPC
    tear_at: int | None = None


class FileOps:
    """The narrow I/O seam durable writers call instead of ``os``/``open``.

    Methods mirror exactly the operations the journal performs; reads stay
    direct (corruption of what is *on disk already* is the corruption
    fuzzers' job, not this seam's).
    """

    def open(self, path: Path | str, mode: str) -> IO[bytes]:
        return open(path, mode)

    def write(self, handle: IO[bytes], data: bytes) -> None:
        handle.write(data)

    def fsync(self, handle: IO[bytes]) -> None:
        handle.flush()
        os.fsync(handle.fileno())

    def truncate(self, handle: IO[bytes], size: int) -> None:
        handle.truncate(size)

    def replace(self, src: Path | str, dst: Path | str) -> None:
        os.replace(src, dst)

    def fsync_dir(self, path: Path | str) -> None:
        """Fsync a directory so a just-created/renamed entry is durable.

        Open/fsync failures meaning "unsupported here" (ENOTSUP, EBADF,
        EINVAL, ENOSYS) are ignored; real I/O failures propagate.
        """
        try:
            fd = os.open(path, os.O_RDONLY)
        except OSError as exc:
            if exc.errno in _DIR_FSYNC_UNSUPPORTED:
                return
            raise
        try:
            os.fsync(fd)
        except OSError as exc:
            if exc.errno in _DIR_FSYNC_UNSUPPORTED:
                return
            raise
        finally:
            os.close(fd)

    def disk_free(self, path: Path | str) -> int:
        """Free bytes available to unprivileged writers under *path* (the
        admission controller's load-shedding signal)."""
        stats = os.statvfs(path)
        return stats.f_bavail * stats.f_frsize


#: The production seam: shared, stateless, allocation-free.
REAL_FILEOPS = FileOps()


class ChaosFileOps(FileOps):
    """A :class:`FileOps` that misbehaves on schedule (see module docstring).

    ``armed=False`` lets a scenario set itself up (submissions, store
    creation) over a healthy disk, then :meth:`arm` the plan right before
    the phase under test — fault indices count only armed calls, so the
    enumeration run and the injection runs line up call-for-call.

    ``free_bytes`` (when not ``None``) overrides :meth:`disk_free`, so
    load-shedding tests can fake a nearly full disk without filling one.
    """

    def __init__(
        self,
        faults: tuple[Fault, ...] | list[Fault] = (),
        *,
        armed: bool = True,
        free_bytes: int | None = None,
    ) -> None:
        self.faults = list(faults)
        self.armed = armed
        self.free_bytes = free_bytes
        #: Armed calls so far, per op kind (fault indices count these).
        self.counts: dict[str, int] = {}
        #: Every armed intercepted call, in order: ``(op, path)``.
        self.ops: list[tuple[str, str]] = []
        #: Faults that have fired (spent), in firing order.
        self.fired: list[Fault] = []

    def arm(self) -> None:
        self.armed = True

    def _intercept(self, op: str, path: object) -> Fault | None:
        if not self.armed:
            return None
        index = self.counts.get(op, 0)
        self.counts[op] = index + 1
        self.ops.append((op, str(path)))
        for fault in self.faults:
            if fault not in self.fired and fault.op == op and fault.index == index:
                self.fired.append(fault)
                return fault
        return None

    def _raise(self, fault: Fault, detail: str) -> None:
        if fault.mode == "kill":
            raise ChaosKill(f"chaos kill during {detail}")
        raise OSError(fault.error, f"{os.strerror(fault.error)} [chaos {detail}]")

    def _gate(self, op: str, target: object) -> None:
        """Count one *op* call on *target*; raise if a fault is due."""
        fault = self._intercept(op, target)
        if fault is not None:
            self._raise(fault, f"{op} {target}")

    # -- intercepted ops -----------------------------------------------------

    def open(self, path: Path | str, mode: str) -> IO[bytes]:
        self._gate("open", path)
        return super().open(path, mode)

    def write(self, handle: IO[bytes], data: bytes) -> None:
        fault = self._intercept("write", getattr(handle, "name", "?"))
        if fault is None:
            return super().write(handle, data)
        if fault.mode in ("short", "kill"):
            tear = fault.tear_at
            if tear is None:
                tear = len(data) // 2
            torn = data[: max(0, min(tear, len(data)))]
            if torn:
                super().write(handle, torn)
                handle.flush()  # the torn prefix really lands on disk
        self._raise(fault, f"write {getattr(handle, 'name', '?')}")

    def fsync(self, handle: IO[bytes]) -> None:
        fault = self._intercept("fsync", getattr(handle, "name", "?"))
        if fault is not None:
            handle.flush()  # data reached the OS; durability is what failed
            self._raise(fault, f"fsync {getattr(handle, 'name', '?')}")
        super().fsync(handle)

    def truncate(self, handle: IO[bytes], size: int) -> None:
        self._gate("truncate", getattr(handle, "name", "?"))
        super().truncate(handle, size)

    def replace(self, src: Path | str, dst: Path | str) -> None:
        self._gate("replace", dst)
        super().replace(src, dst)

    def fsync_dir(self, path: Path | str) -> None:
        self._gate("fsync_dir", path)
        super().fsync_dir(path)

    def disk_free(self, path: Path | str) -> int:
        if self.free_bytes is not None:
            return self.free_bytes
        return super().disk_free(path)


# -- misbehaving HTTP clients (raw sockets; shared by tests and CI) ----------


def _read_http_status(sock: socket.socket) -> tuple[int, bytes]:
    """Minimal response parse: the status code plus whatever body bytes the
    server sent before closing (enough for asserting structured errors)."""
    data = b""
    while b"\r\n\r\n" not in data:
        chunk = sock.recv(65536)
        if not chunk:
            break
        data += chunk
    if not data:
        return 0, b""
    head, _, rest = data.partition(b"\r\n\r\n")
    status_line = head.split(b"\r\n", 1)[0]
    try:
        status = int(status_line.split()[1])
    except (IndexError, ValueError):
        return 0, b""
    while True:
        try:
            chunk = sock.recv(65536)
        except OSError:
            break
        if not chunk:
            break
        rest += chunk
    return status, rest


def truncated_post(
    host: str,
    port: int,
    path: str,
    payload: dict,
    *,
    send_bytes: int,
    extra_declared: int = 0,
    timeout: float = 10.0,
) -> tuple[int, bytes]:
    """POST whose ``Content-Length`` promises more than the wire delivers.

    Sends only ``send_bytes`` of the encoded body (and optionally inflates
    the declared length by ``extra_declared``), then half-closes the write
    side — the classic truncated upload.  Returns ``(status, body_bytes)``;
    a hardened server answers 400 instead of hanging or raising a 500.
    """
    body = json.dumps(payload).encode("utf-8")
    declared = len(body) + max(0, extra_declared)
    head = (
        f"POST {path} HTTP/1.1\r\n"
        f"Host: {host}\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {declared}\r\n"
        "Connection: close\r\n\r\n"
    ).encode("ascii")
    with socket.create_connection((host, port), timeout=timeout) as sock:
        sock.sendall(head + body[: max(0, send_bytes)])
        sock.shutdown(socket.SHUT_WR)
        return _read_http_status(sock)


def slow_loris_post(
    host: str,
    port: int,
    path: str,
    *,
    declared_length: int = 64,
    timeout: float = 10.0,
) -> tuple[int, bytes]:
    """A slow-loris body: headers promise a body that never finishes.

    Sends the headers plus a single body byte, then just waits.  A hardened
    server times the read out and answers 408 (closing the connection)
    instead of pinning a handler thread forever.  ``timeout`` bounds how
    long this *client* waits for that answer.
    """
    head = (
        f"POST {path} HTTP/1.1\r\n"
        f"Host: {host}\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {declared_length}\r\n\r\n"
    ).encode("ascii")
    with socket.create_connection((host, port), timeout=timeout) as sock:
        sock.sendall(head + b"{")
        return _read_http_status(sock)
