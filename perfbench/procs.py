"""Run the ``egfrac`` CLI as a subprocess under a pinned environment.

Every invocation gets the same environment: all ``PYTHON*`` and
``EGFRAC_*`` variables of the caller are dropped, then the values in
``PINNED`` are set. Dropping ``PYTHONUNBUFFERED`` matters most: with it,
each of ``json.dump``'s small chunk writes becomes a syscall and the
threshold JSON run nearly doubles. Bytecode is compiled once by
``build()`` and read from the normal ``__pycache__`` directories, so
every timed start pays for loading bytecode, not for compiling source.

Resource use comes from ``os.wait4``. Its rusage covers the CLI process
and every child it reaped, which includes the ``--jobs`` pool workers.
"""

from __future__ import annotations

import compileall
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

PINNED = {"PYTHONHASHSEED": "0", "EGFRAC_BACKEND": "pure"}
DROPPED_PREFIXES = ("PYTHON", "EGFRAC_")

# What the ``egfrac`` console script runs (``egfrac = "egfrac.cli:main"``).
CLI_BOOTSTRAP = "import sys; from egfrac.cli import main; sys.exit(main())"
CALIBRATION = Path(__file__).resolve().parent / "calibration.py"

INVOCATION_TIMEOUT_S = 60.0


def pinned_env(root: Path) -> dict[str, str]:
    """The caller's environment with the interpreter settings pinned."""
    env = {k: v for k, v in os.environ.items() if not k.startswith(DROPPED_PREFIXES)}
    env.update(PINNED)
    env["PYTHONPATH"] = str(root / "src")
    return env


def env_is_pinned(root: Path) -> bool:
    """True when this process already runs under ``pinned_env(root)``."""
    def interpreter_vars(env):
        return {k: v for k, v in env.items() if k.startswith(DROPPED_PREFIXES)}

    return interpreter_vars(os.environ) == interpreter_vars(pinned_env(root))


def build(root: Path) -> None:
    """Compile the package's bytecode so that no timed start compiles source."""
    if not compileall.compile_dir(str(root / "src" / "egfrac"), quiet=1):
        raise RuntimeError("compileall failed on src/egfrac")


@dataclass
class CliRun:
    exit_code: int
    wall_s: float
    cpu_s: float
    maxrss_mb: float
    stdout: bytes
    stderr: bytes
    timed_out: bool


def run_cli(root: Path, env: dict[str, str], argv, scratch: Path) -> CliRun:
    """Run ``egfrac <argv>`` once, stdout and stderr going to files."""
    return run_program(root, env, [sys.executable, "-c", CLI_BOOTSTRAP, *argv], scratch)


def run_calibration(root: Path, env: dict[str, str], scratch: Path, copies: int = 1) -> CliRun:
    """Run ``copies`` of the host-speed reference program at once (see
    ``calibration.py``): wall time until the last one ends, CPU time per copy.

    A workload that keeps two cores busy is slowed by a tenant on either
    of them, so its calibration runs as many copies as it runs processes.
    """
    cmd = [sys.executable, str(CALIBRATION)]
    dirs = [scratch / f"calibration-{i}" for i in range(copies)]
    for d in dirs:
        d.mkdir(exist_ok=True)
    t0 = time.perf_counter()
    with ThreadPoolExecutor(copies) as pool:
        runs = list(pool.map(lambda d: run_program(root, env, cmd, d), dirs))
    wall = time.perf_counter() - t0
    return CliRun(
        exit_code=next((r.exit_code for r in runs if r.exit_code != 0), 0),
        wall_s=wall,
        cpu_s=statistics.mean(r.cpu_s for r in runs),
        maxrss_mb=max(r.maxrss_mb for r in runs),
        stdout=runs[0].stdout,
        stderr=b"".join(r.stderr for r in runs),
        timed_out=any(r.timed_out for r in runs),
    )


def run_program(root: Path, env: dict[str, str], cmd, scratch: Path) -> CliRun:
    """Run ``cmd`` once in ``root``, stdout and stderr going to files.

    The clock covers process creation to reaping. Output is read back
    only after the clock stops.
    """
    out_path = scratch / "stdout"
    err_path = scratch / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            cmd, cwd=root, env=env, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
            start_new_session=True,
        )
        killer = threading.Timer(INVOCATION_TIMEOUT_S, _kill_group, (proc.pid,))
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            # interrupted or terminated: leave no process behind
            _kill_group(proc.pid)
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
    return CliRun(
        exit_code=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        maxrss_mb=usage.ru_maxrss / 1024.0,
        stdout=out_path.read_bytes(),
        stderr=err_path.read_bytes(),
        timed_out=proc.returncode == -signal.SIGKILL,
    )


def _kill_group(pgid: int) -> None:
    # the whole group, so that ``--jobs`` workers die with the CLI
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass
