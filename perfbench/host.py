"""Everything that touches the host: processes, /proc, spinners, environment.

The program under test always runs in its own process, started from the
checkout's ``src/`` with a fixed ``PYTHONHASHSEED`` so both commits of a
comparison hash strings the same way.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import platform
import re
import selectors
import signal
import subprocess
import sys
import threading
import time
from collections import deque
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from perfbench.stats import Window, parse_cpu_line, steal_share

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent

#: Where fixtures, spans and reports go; ignored by git.
WORK = ROOT / ".bench_build" / "perfbench"

#: The hash seed every program process gets, on both commits.
PYTHONHASHSEED = "0"

#: Longest a program may take from spawn to its ready line.
START_TIMEOUT_S = 60.0

#: Longest a helper script (fixture builds, reference dispatch) may run.
TOOL_TIMEOUT_S = 600.0

#: Longest a program may take to drain after SIGTERM before it is killed.
STOP_TIMEOUT_S = 60.0


#: Every CPU this process may use; spinners cover all of them.
ALL_CPUS = sorted(os.sched_getaffinity(0))

#: The one CPU the generator, the program and every helper share.
BENCH_CPU = ALL_CPUS[0]


def pin_to_bench_cpu() -> None:
    """Run the generator and (by inheritance) every program on one CPU.

    Then no request's critical path crosses CPUs.  With the generator and
    the server on different vCPUs each request needed cross-CPU wakeups,
    and closed-loop capacity of cached reads swung from ~1050 to ~1840
    reads/s with the host's load (its steal stayed at 0-4%); sharing one
    CPU halved the run-to-run variation in an alternating test.
    """
    os.sched_setaffinity(0, {BENCH_CPU})


_LISTENING = re.compile(r"listening on http://[^:]+:(\d+)")


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing program, start failure, ...)."""


def require_program() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program to measure: {SRC / 'repro'} is missing")


def program_env() -> Dict[str, str]:
    """The program's environment: its sources, a fixed hash seed, and a temp
    directory inside the checkout (the ingest endpoint spools each feed to a
    temporary file)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["PYTHONHASHSEED"] = PYTHONHASHSEED
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    temp = WORK / "tmp"
    temp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(temp)
    return env


def run_tool(args: Sequence[str]) -> str:
    """Run a helper script under the program's environment; return stdout."""
    completed = subprocess.run(
        [sys.executable, *args],
        env=program_env(),
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=TOOL_TIMEOUT_S,
    )
    if completed.returncode != 0:
        raise BenchError(
            f"{' '.join(args[:2])} failed ({completed.returncode}):\n"
            f"{completed.stderr[-2000:]}"
        )
    return completed.stdout


class Program:
    """One program process: spawned, watched for its ready line, stopped.

    Once ready, its output pipes are drained on background threads so a
    chatty program can never block on a full pipe mid-run.
    """

    def __init__(self, argv: Sequence[str], stdin: bool = False) -> None:
        self.started = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, *argv],
            env=program_env(),
            cwd=ROOT,
            stdin=subprocess.PIPE if stdin else subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        self._lines: "deque[bytes]" = deque(maxlen=40)
        self._drains: List[threading.Thread] = []

    @property
    def pid(self) -> int:
        return self.process.pid

    def wait_line(self, stream, pattern: re.Pattern, timeout: float) -> re.Match:
        """Block until a line of ``stream`` matches; fail on exit or timeout."""
        # Raw reads on the descriptor: a buffered readline could pull the
        # ready line into Python's buffer where select() no longer sees it.
        deadline = time.monotonic() + timeout
        descriptor = stream.fileno()
        selector = selectors.DefaultSelector()
        selector.register(descriptor, selectors.EVENT_READ)
        pending = b""
        try:
            while True:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise BenchError(f"program did not become ready in {timeout}s")
                if not selector.select(remaining):
                    continue
                chunk = os.read(descriptor, 65536)
                if not chunk:
                    self.process.wait()
                    self._drain(self.process.stderr)
                    raise BenchError(
                        "program exited before it was ready:\n" + self.output_tail()
                    )
                pending += chunk
                *lines, pending = pending.split(b"\n")
                for line in lines:
                    self._lines.append(line + b"\n")
                    match = pattern.search(line.decode("utf-8", "replace"))
                    if match:
                        return match
        finally:
            selector.close()

    def wait_listening(self) -> int:
        """The port a ``repro serve`` process reports on stderr."""
        match = self.wait_line(self.process.stderr, _LISTENING, START_TIMEOUT_S)
        self.drain_in_background()
        return int(match.group(1))

    def wait_ready(self) -> None:
        """A batch driver's ``ready`` line on stdout."""
        self.wait_line(self.process.stdout, re.compile(r"^ready$"), START_TIMEOUT_S)
        self.drain_in_background()

    def send(self, line: str) -> None:
        self.process.stdin.write(line.encode() + b"\n")
        self.process.stdin.flush()

    def _drain(self, stream) -> None:
        for line in iter(stream.readline, b""):
            self._lines.append(line)

    def drain_in_background(self) -> None:
        for stream in (self.process.stdout, self.process.stderr):
            thread = threading.Thread(target=self._drain, args=(stream,), daemon=True)
            thread.start()
            self._drains.append(thread)

    def output_tail(self) -> str:
        return b"".join(self._lines).decode("utf-8", "replace")

    def stop(self) -> int:
        """SIGTERM (the server's drain path), then wait; SIGKILL as last resort."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        try:
            self.process.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        return self.finish()

    def finish(self, timeout: float = 120.0) -> int:
        """Wait for a program that ends by itself; collect its output."""
        try:
            self.process.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        for thread in self._drains:
            thread.join(timeout=10)
        for stream in (self.process.stdin, self.process.stdout, self.process.stderr):
            if stream is not None:
                stream.close()
        return self.process.returncode


def vm_hwm_mib(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live process, in MiB."""
    status = Path(f"/proc/{pid}/status").read_text()
    kib = int(re.search(r"^VmHWM:\s+(\d+) kB", status, re.M).group(1))
    return kib / 1024.0


def cpu_seconds(pid: int) -> float:
    """User plus system CPU seconds a live process has used."""
    stat = Path(f"/proc/{pid}/stat").read_text()
    fields = stat.rsplit(")", 1)[1].split()
    ticks = int(fields[11]) + int(fields[12])
    return ticks / os.sysconf("SC_CLK_TCK")


def read_cpu_ticks() -> Tuple[int, int]:
    with open("/proc/stat") as handle:
        return parse_cpu_line(handle.readline())


class StealSampler:
    """Cuts a timed phase into fixed windows and records host steal in each."""

    def __init__(self, width: float) -> None:
        self.width = width
        self.windows: List[Window] = []
        self._ticks = (0, 0)
        self._next = 0.0

    def begin(self, start: float) -> None:
        self._ticks = read_cpu_ticks()
        self._next = start + self.width

    def tick(self, now: float) -> None:
        """Close every window that ended by ``now`` (cheap when none did)."""
        if now < self._next:
            return
        ticks = read_cpu_ticks()
        share = steal_share(self._ticks, ticks)
        while self._next <= now:
            self.windows.append(Window(self._next - self.width, self._next, share))
            self._next += self.width
        self._ticks = ticks


#: Spins at idle priority until its parent (the benchmark) is gone.
SPINNER_CODE = (
    "import os\n"
    "parent = os.getppid()\n"
    "os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))\n"
    "while os.getppid() == parent:\n"
    "    for _ in range(100000):\n"
    "        pass\n"
)


class Spinners:
    """One ``SCHED_IDLE`` busy loop per CPU while a phase is timed.

    They only run when nothing else wants a CPU, so they keep the vCPUs from
    halting between requests (halted vCPUs are what the host steals from)
    without taking time from the program or the generator.
    """

    def __init__(self) -> None:
        self.processes: List[subprocess.Popen] = []

    def __enter__(self) -> "Spinners":
        for cpu in ALL_CPUS:
            process = subprocess.Popen(
                [sys.executable, "-c", SPINNER_CODE],
                stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL,
            )
            self.processes.append(process)
            os.sched_setaffinity(process.pid, {cpu})
        return self

    def __exit__(self, *exc_info) -> None:
        for process in self.processes:
            process.kill()
        for process in self.processes:
            process.wait()
        self.processes.clear()


def _numpy_version() -> Optional[str]:
    from importlib.metadata import PackageNotFoundError, version

    try:
        return version("numpy")
    except PackageNotFoundError:
        return None


@functools.lru_cache(maxsize=None)
def commit_digest() -> str:
    """A digest of the program's sources, standing in for the commit.

    The benchmark may run in a checkout that is not a git repository, so the
    commit is identified by what it would build from.
    """
    hasher = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        hasher.update(str(path.relative_to(SRC)).encode())
        hasher.update(path.read_bytes())
    return hasher.hexdigest()[:16]


def fixtures_dir() -> Path:
    """Where fixtures built with the program under test live.

    Keyed by ``commit_digest``, so two commits measured in one working tree
    never share a ledger, deltas or catalogue names.
    """
    return WORK / "fixtures" / commit_digest()


def environment() -> Dict[str, object]:
    """The environment block every run records (timed phases add steal and
    generator lateness to their own details)."""
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": _numpy_version(),
        "commit_src_sha256": commit_digest(),
        "pythonhashseed": PYTHONHASHSEED,
        "spinner": True,
        "bench_cpu": BENCH_CPU,
    }


def write_json(path: Path, payload: object) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    return path
