"""Crash-safe, per-run JSONL persistence for sweeps.

Layout under the sweep output directory::

    out/
      sweep-spec.json     # the SweepSpec that launched the sweep (if any)
      sweep-meta.jsonl    # one line per invocation: wall-clock accounting
      runs/
        <run_key>.jsonl   # one line per completed run: {run, result}
        <run_key>.jsonl.corrupt  # quarantined unreadable record (sidecar)
      failures/
        <run_key>.json    # quarantine record of a run that exhausted retries
      leases/
        <run_key>.lease   # exactly-once dispatch: flock-held while the run executes

Each run file is written atomically (temp file + ``os.replace``), so a
killed sweep never leaves a half-written result.  ``--resume`` does NOT
trust whatever is on disk: every present record is re-verified loadable,
and an unreadable one (truncated line, bad JSON, version drift) is moved
to a ``.corrupt`` sidecar and re-run instead of crashing the sweep.

Run files contain only deterministic simulation output — wall-clock
timings live in ``sweep-meta.jsonl`` — so a parallel sweep's ``runs/``
directory is byte-identical to a serial one.  Quarantine records under
``failures/`` hold the same contract: no timestamps, pids or absolute
paths, so a chaos sweep repeated with the same plan + seeds is
byte-identical too.
"""

from __future__ import annotations

import fcntl
import json
import os
from pathlib import Path
from typing import Any

from repro.errors import CorruptRunRecordError
from repro.experiments.spec import RunSpec, SweepSpec
from repro.sim.metrics import SimulationResult
from repro.sim.serialization import result_from_dict, result_to_dict

RUN_FORMAT_VERSION = 1

FAILURE_FORMAT_VERSION = 1


def build_failure_doc(
    run: RunSpec, attempts: list[dict[str, Any]]
) -> dict[str, Any]:
    """The quarantine record of a run that exhausted its retries.

    ``attempts`` is the deterministic attempt history (attempt index +
    error payload per try); the document carries no wall-clock or process
    identity, so repeated chaos sweeps produce byte-identical quarantine
    records.
    """
    return {
        "format_version": FAILURE_FORMAT_VERSION,
        "run_key": run.run_key,
        "run": run.to_dict(),
        "attempts": attempts,
        "error": attempts[-1]["error"] if attempts else "",
        "message": attempts[-1]["message"] if attempts else "",
    }


def _pid() -> int:
    """This process's id, for temp-file names only."""
    return os.getpid()


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    except OSError:
        return False
    return True


class RunStore:
    """Reads and writes one sweep output directory."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.runs_dir = self.root / "runs"
        self.runs_dir.mkdir(parents=True, exist_ok=True)
        self.failures_dir = self.root / "failures"
        self.leases_dir = self.root / "leases"
        #: run key -> fd of a lease this store holds (flock'd until release)
        self._lease_fds: dict[str, int] = {}

    # ------------------------------------------------------------------
    # Run records
    # ------------------------------------------------------------------
    def path_for(self, run_key: str) -> Path:
        return self.runs_dir / f"{run_key}.jsonl"

    def completed_keys(self) -> set[str]:
        return {p.stem for p in sorted(self.runs_dir.glob("*.jsonl"))}

    def save(
        self, run: RunSpec, result: SimulationResult, *, injector=None
    ) -> Path:
        record = {
            "format_version": RUN_FORMAT_VERSION,
            "run_key": run.run_key,
            "run": run.to_dict(),
            "result": result_to_dict(result),
        }
        text = json.dumps(record, sort_keys=True, allow_nan=False) + "\n"
        if injector is not None:
            # Torn-write seam: a matching rule truncates the document,
            # modelling a worker dying mid-write_text.
            text = injector.mangle("store-record", text)
        path = self.path_for(run.run_key)
        # Atomic publish: concurrent workers each write a private temp file.
        tmp = path.with_name(f".{path.name}.{_pid()}.tmp")
        tmp.write_text(text)
        if injector is not None:
            # Publish seam: a matching rule dies here, leaving tmp litter
            # behind for the stale-tmp GC to collect.
            injector.check("store-publish")
        os.replace(tmp, path)
        return path

    def load_record(self, run_key: str) -> dict[str, Any]:
        """Load and verify one run record.

        Raises :class:`CorruptRunRecordError` (never a raw decode error)
        on a truncated line, invalid JSON, a non-object document, or
        format-version drift; :class:`FileNotFoundError` passes through so
        "missing" stays distinguishable from "corrupt".
        """
        try:
            line = self.path_for(run_key).read_text()
        except FileNotFoundError:
            raise
        except (OSError, UnicodeDecodeError) as exc:
            raise CorruptRunRecordError(
                f"run record {run_key} is unreadable: {exc}",
                run_key=run_key,
            )
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise CorruptRunRecordError(
                f"run record {run_key} is not valid JSON "
                f"(truncated write?): {exc.msg} at char {exc.pos}",
                run_key=run_key,
            )
        if not isinstance(record, dict):
            raise CorruptRunRecordError(
                f"run record {run_key} is not a JSON object",
                run_key=run_key,
            )
        version = record.get("format_version")
        if version != RUN_FORMAT_VERSION:
            raise CorruptRunRecordError(
                f"run record {run_key} has unsupported version {version!r} "
                f"(expected {RUN_FORMAT_VERSION})",
                run_key=run_key,
            )
        return record

    def load(self, run_key: str) -> tuple[RunSpec, SimulationResult]:
        record = self.load_record(run_key)
        return (
            RunSpec.from_dict(record["run"]),
            result_from_dict(record["result"]),
        )

    def load_result(self, run_key: str) -> SimulationResult:
        return self.load(run_key)[1]

    def quarantine_record(self, run_key: str) -> Path | None:
        """Move an unreadable run record to a ``.corrupt`` sidecar.

        Returns the sidecar path, or ``None`` when no record exists.  The
        sidecar preserves the torn bytes for post-mortem while freeing the
        run key for re-execution.
        """
        path = self.path_for(run_key)
        if not path.exists():
            return None
        sidecar = path.with_name(path.name + ".corrupt")
        os.replace(path, sidecar)
        return sidecar

    def gc_stale_tmp(self) -> tuple[str, ...]:
        """Remove orphaned atomic-publish temp files.

        A worker dying between ``tmp.write_text`` and ``os.replace``
        leaves ``.{name}.{pid}.tmp`` litter behind forever.  Collect any
        temp file whose owning pid is gone (or is this process — a retry
        reuses the same temp path anyway); leave live foreign workers'
        in-flight files alone.
        """
        removed = []
        for tmp in sorted(self.runs_dir.glob(".*.tmp")):
            parts = tmp.name.rsplit(".", 2)  # ['.<name>', '<pid>', 'tmp']
            pid = None
            if len(parts) == 3 and parts[1].isdigit():
                pid = int(parts[1])
            if pid is not None and pid != _pid() and _pid_alive(pid):
                continue
            try:
                tmp.unlink()
            except FileNotFoundError:
                continue
            removed.append(tmp.name)
        return tuple(removed)

    # ------------------------------------------------------------------
    # Quarantined failed runs
    # ------------------------------------------------------------------
    def failure_path_for(self, run_key: str) -> Path:
        return self.failures_dir / f"{run_key}.json"

    def failed_keys(self) -> set[str]:
        if not self.failures_dir.is_dir():
            return set()
        return {p.stem for p in sorted(self.failures_dir.glob("*.json"))}

    def save_failure(
        self, run: RunSpec, attempts: list[dict[str, Any]]
    ) -> dict[str, Any]:
        """Persist a quarantine record for a run that exhausted retries."""
        doc = build_failure_doc(run, attempts)
        self.failures_dir.mkdir(parents=True, exist_ok=True)
        path = self.failure_path_for(run.run_key)
        tmp = path.with_name(f".{path.name}.{_pid()}.tmp")
        tmp.write_text(
            json.dumps(doc, sort_keys=True, allow_nan=False) + "\n"
        )
        os.replace(tmp, path)
        return doc

    def clear_failure(self, run_key: str) -> None:
        """Drop a stale quarantine record (the run later succeeded)."""
        try:
            self.failure_path_for(run_key).unlink()
        except FileNotFoundError:
            pass

    # ------------------------------------------------------------------
    # Run-key leases (exactly-once dispatch)
    # ------------------------------------------------------------------
    def lease_path_for(self, run_key: str) -> Path:
        return self.leases_dir / f"{run_key}.lease"

    def acquire_lease(self, run_key: str) -> bool:
        """Claim a run key for this store until :meth:`release_lease`.

        Returns ``True`` when this store now holds the lease: an exclusive
        non-blocking ``flock`` on the lease file, kept for the whole run.
        The kernel drops the lock when its holder dies, so a crashed
        worker's lease file is simply re-locked; a lock held by anyone
        else is respected, so a re-dispatched run executes exactly once.
        """
        self.leases_dir.mkdir(parents=True, exist_ok=True)
        path = self.lease_path_for(run_key)
        while True:
            fd = os.open(path, os.O_RDWR | os.O_CREAT, 0o644)
            try:
                fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            except BlockingIOError:
                os.close(fd)
                return False
            # The previous holder may have unlinked the file between our
            # open and our lock; a lock on an unlinked inode guards
            # nothing, so start over on whatever the path names now.
            try:
                current = os.stat(path).st_ino
            except FileNotFoundError:
                current = None
            if current == os.fstat(fd).st_ino:
                self._lease_fds[run_key] = fd
                return True
            os.close(fd)

    def release_lease(self, run_key: str) -> None:
        """Unlink a lease this store holds, then drop its lock.

        Unlinking first means a waiter that wins the lock afterwards sees
        a stale inode and retries, instead of holding a lock on a file a
        third process could recreate and lock too.
        """
        fd = self._lease_fds.pop(run_key, None)
        if fd is None:
            return
        self.lease_path_for(run_key).unlink(missing_ok=True)
        os.close(fd)

    # ------------------------------------------------------------------
    # Sweep-level metadata
    # ------------------------------------------------------------------
    def write_spec(self, spec: SweepSpec) -> None:
        (self.root / "sweep-spec.json").write_text(
            json.dumps(
                spec.to_dict(), sort_keys=True, indent=1, allow_nan=False
            )
        )

    def append_meta(self, entry: dict[str, Any]) -> None:
        """Append one wall-clock accounting line (kept out of ``runs/``)."""
        line = json.dumps(entry, sort_keys=True, allow_nan=False) + "\n"
        with (self.root / "sweep-meta.jsonl").open("a") as fh:
            fh.write(line)
