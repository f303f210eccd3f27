"""Set-up and control of one ``repro serve`` process, plus its HTTP client.

Set-up is what ``setup_s`` measures: ``repro build`` on a fresh copy of the
cached base table (index build + snapshot save), then ``repro serve`` until
``/healthz`` answers 200.  Both run as child processes with the checkout's
``src`` on ``PYTHONPATH``; a traced run starts them through
``perfbench/launch.py`` instead, which installs the timing wrappers around
``repro.cli.main``.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
LAUNCHER = Path(__file__).resolve().parent / "launch.py"
URL_LINE = re.compile(r"at http://([\d.]+):(\d+)")
HTTP_TIMEOUT_S = 60.0
BOOT_TIMEOUT_S = 60.0


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONUNBUFFERED"] = "1"
    return env


def cli_command(args: Sequence[str], trace_out: Optional[Path]) -> List[str]:
    """The argv that runs ``repro <args>``, traced or not."""
    if trace_out is None:
        return [sys.executable, "-m", "repro.cli", *args]
    return [sys.executable, str(LAUNCHER), "--trace-out", str(trace_out), "--", *args]


class Daemon:
    """One running ``repro serve`` child process."""

    def __init__(self, process: subprocess.Popen, host: str, port: int, log: Path) -> None:
        self.process = process
        self.host = host
        self.port = port
        self.log = log

    def request(
        self, method: str, path: str, body: Optional[dict] = None, headers: Optional[dict] = None
    ) -> Tuple[int, Optional[dict], str]:
        """One request on a fresh connection; returns (status, JSON body, raw text)."""
        conn = http.client.HTTPConnection(self.host, self.port, timeout=HTTP_TIMEOUT_S)
        try:
            data = json.dumps(body).encode() if body is not None else None
            hdrs = {"Content-Type": "application/json"} if data is not None else {}
            hdrs.update(headers or {})
            conn.request(method, path, body=data, headers=hdrs)
            response = conn.getresponse()
            raw = response.read().decode("utf-8", "replace")
        finally:
            conn.close()
        try:
            parsed = json.loads(raw)
        except ValueError:
            parsed = None
        return response.status, parsed if isinstance(parsed, dict) else None, raw

    def post(self, path: str, body: dict, request_id: str) -> Tuple[int, Optional[dict]]:
        status, parsed, _ = self.request("POST", path, body, {"X-Bench-Request": request_id})
        return status, parsed

    def prometheus(self) -> str:
        return self.request("GET", "/metrics")[2]

    def peak_rss_mb(self) -> float:
        """``VmHWM`` of the daemon process, in MiB."""
        status = Path(f"/proc/{self.process.pid}/status").read_text()
        match = re.search(r"VmHWM:\s+(\d+)\s+kB", status)
        if match is None:
            raise RuntimeError("VmHWM missing from /proc status")
        return int(match.group(1)) / 1024.0

    def stop(self, timeout_s: float = 60.0) -> int:
        """SIGINT (the CLI's clean shutdown: drain, checkpoint), then wait."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=timeout_s)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        return self.process.returncode


def run_cli(args: Sequence[str], log: Path, trace_out: Optional[Path] = None) -> None:
    """Run one ``repro`` subcommand to completion; raise on failure."""
    with open(log, "ab") as out:
        proc = subprocess.run(
            cli_command(args, trace_out), stdout=out, stderr=subprocess.STDOUT,
            env=_env(), cwd=ROOT, timeout=600,
        )
    if proc.returncode != 0:
        raise RuntimeError(f"repro {' '.join(args)} exited {proc.returncode}; see {log}")


def start_daemon(
    snapshot: Path, flags: Sequence[str], log: Path, trace_out: Optional[Path] = None
) -> Daemon:
    """Start ``repro serve`` on an ephemeral port and wait for ``/healthz`` 200."""
    args = ["serve", "--snapshot", str(snapshot), "--port", "0", *flags]
    out = open(log, "wb")
    process = subprocess.Popen(
        cli_command(args, trace_out), stdout=out, stderr=subprocess.STDOUT,
        env=_env(), cwd=ROOT,
    )
    out.close()
    deadline = time.monotonic() + BOOT_TIMEOUT_S
    daemon = None
    try:
        while time.monotonic() < deadline:
            if process.poll() is not None:
                raise RuntimeError(f"repro serve exited {process.returncode}; see {log}")
            if daemon is None:
                match = URL_LINE.search(log.read_text(errors="replace"))
                if match is not None:
                    daemon = Daemon(process, match.group(1), int(match.group(2)), log)
            if daemon is not None:
                try:
                    if daemon.request("GET", "/healthz")[0] == 200:
                        return daemon
                except OSError:
                    pass
            time.sleep(0.005)
        raise RuntimeError(f"repro serve not healthy after {BOOT_TIMEOUT_S} s; see {log}")
    except BaseException:
        process.kill()
        process.wait()
        raise


def fresh_copy(base: Path, dest: Path) -> None:
    """Replace *dest* (and its lock/journal siblings) with a copy of *base*."""
    for stale in (dest, Path(f"{dest}.lock")):
        if stale.exists():
            stale.unlink()
    shutil.rmtree(f"{dest}.wal", ignore_errors=True)
    shutil.copyfile(base, dest)


def setup(
    base: Path, snapshot: Path, flags: Sequence[str], logs: Path, trace_dir: Optional[Path]
) -> Tuple[float, float, Daemon]:
    """One full set-up; returns (seconds, boot seconds, running daemon).

    With *trace_dir*, the build and the daemon run traced and write
    ``build.json`` and ``serve.json`` there.
    """
    fresh_copy(base, snapshot)
    build_trace = trace_dir / "build.json" if trace_dir is not None else None
    serve_trace = trace_dir / "serve.json" if trace_dir is not None else None
    started = time.perf_counter()
    run_cli(["build", "--snapshot", str(snapshot)], logs / "build.log", build_trace)
    booting = time.perf_counter()
    daemon = start_daemon(snapshot, flags, logs / "serve.log", serve_trace)
    done = time.perf_counter()
    return done - started, done - booting, daemon


def parse_prometheus(text: str, name: str, labels: Optional[dict] = None) -> float:
    """Sum of the samples of *name* whose labels include *labels*."""
    total = 0.0
    pattern = re.compile(r"^" + re.escape(name) + r"(\{[^}]*\})?\s+(\S+)$")
    for line in text.splitlines():
        match = pattern.match(line)
        if match is None:
            continue
        sample_labels = dict(re.findall(r'(\w+)="([^"]*)"', match.group(1) or ""))
        if all(sample_labels.get(k) == v for k, v in (labels or {}).items()):
            total += float(match.group(2))
    return total
