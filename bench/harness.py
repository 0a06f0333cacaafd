"""Running holocurve ops and checking what they print and write.

An op is one CLI subcommand on one config, as listed in workloads.json.  It
runs either in a fresh interpreter (`run_op_process`, for the end-to-end
numbers) or in this process through ``holocurve.cli.main``
(`run_op_inprocess`, for the traced per-layer numbers).  Both return an
`OpResult` with the wall time, exit code, captured output and a digest of
the artifacts, and `check` compares it with the op's expected outcome.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / ".out"


def load_workloads() -> dict:
    with open(BENCH_DIR / "workloads.json") as fh:
        return json.load(fh)


def child_env() -> dict:
    """Environment of every op: this checkout's sources first on the path,
    and HOLOCURVE_WORKERS unset, i.e. the serial single-worker baseline."""
    env = dict(os.environ)
    env.pop("HOLOCURVE_WORKERS", None)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


def write_config(op: dict, directory: Path) -> Path:
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / (op_slug(op) + ".cfg")
    path.write_text("".join(f"{k} = {v}\n" for k, v in op["config"].items()))
    return path


def op_slug(op: dict) -> str:
    return op["id"].replace("/", "__")


def op_argv(op: dict, config: Path, seed: int, out_dir: Path) -> list:
    return [op["command"], str(config), "--seed", str(seed),
            "--output", str(out_dir)]


@dataclass
class OpResult:
    op_id: str
    command: str
    wall_s: float
    exit: int | None            # None: killed at its timeout
    stdout: str = ""
    stderr: str = ""
    max_rss_mb: float = 0.0
    digest: str = ""
    problems: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems


def _digest(stdout: str, out_dir: Path) -> str:
    """Hash of the printed lines and every artifact file, byte for byte.

    The output directory differs between repetitions, so its path is
    replaced by a placeholder in the printed lines first.
    """
    h = hashlib.sha256(stdout.replace(str(out_dir), "<out>").encode())
    if out_dir.is_dir():
        for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
            h.update(str(path.relative_to(out_dir)).encode() + b"\0")
            with open(path, "rb") as fh:
                for block in iter(lambda: fh.read(1 << 20), b""):
                    h.update(block)
    return h.hexdigest()


def spawn(argv: list, env: dict, timeout_s: float, stdout_path: Path,
          stderr_path: Path):
    """Run argv to completion; return (wall_s, exit code or None, max RSS MB).

    The child gets its own session so that a timeout kills everything it
    started; it is always reaped before this returns.
    """
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env,
                                cwd=ROOT, start_new_session=True)
    killed = threading.Event()

    def kill():
        killed.set()
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)

    timer = threading.Timer(max(timeout_s, 0.0), kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    # Reap anything the child left in its session on a timeout.
    if killed.is_set():
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
    return wall, (None if killed.is_set() else proc.returncode), \
        usage.ru_maxrss / 1024.0


def run_op_process(op: dict, seed: int, work: Path, timeout_s: float
                   ) -> OpResult:
    slug = op_slug(op)
    out_dir = work / slug
    config = write_config(op, work / "configs")
    argv = [sys.executable, "-m", "holocurve"] + op_argv(op, config, seed,
                                                        out_dir)
    out_path, err_path = work / (slug + ".out"), work / (slug + ".err")
    if timeout_s <= 0:
        res = OpResult(op["id"], op["command"], 0.0, None)
        res.problems.append("not started: the run's time limit was reached")
        return res
    wall, code, rss = spawn(argv, child_env(), timeout_s, out_path, err_path)
    res = OpResult(op["id"], op["command"], wall, code,
                   out_path.read_text(errors="replace"),
                   err_path.read_text(errors="replace"), rss)
    if code is None:
        res.problems.append(f"timed out after {wall:.3f} s")
    res.digest = _digest(res.stdout, out_dir)
    shutil.rmtree(out_dir, ignore_errors=True)
    return res


class _OpTimeout(BaseException):
    """Raised by SIGALRM in an in-process op that ran past its timeout."""


def _raise_timeout(signum, frame):
    raise _OpTimeout()


def run_op_inprocess(main, op: dict, seed: int, work: Path,
                     timeout_s: float) -> OpResult:
    """Run one op through holocurve.cli.main in this process; an alarm
    interrupts it after timeout_s."""
    slug = op_slug(op)
    out_dir = work / slug
    config = write_config(op, work / "configs")
    if timeout_s <= 0:
        res = OpResult(op["id"], op["command"], 0.0, None)
        res.problems.append("not started: the run's time limit was reached")
        return res
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _raise_timeout)
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            signal.setitimer(signal.ITIMER_REAL, timeout_s)
            try:
                code = main(op_argv(op, config, seed, out_dir))
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # escaping exception: exit 1, as in a shell
                traceback.print_exc()
                code = 1
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
    except _OpTimeout:
        code = None
    finally:
        signal.signal(signal.SIGALRM, previous)
    wall = time.perf_counter() - t0
    res = OpResult(op["id"], op["command"], wall, code, out.getvalue(),
                   err.getvalue())
    if code is None:
        res.problems.append(f"timed out after {wall:.3f} s")
    res.digest = _digest(res.stdout, out_dir)
    shutil.rmtree(out_dir, ignore_errors=True)
    return res


def inprocess_pass(ops: list, seed: int, work: Path, deadline: float,
                   trace=None):
    """Run ops one after another through holocurve.cli.main in this process,
    wrapped by `trace` (a tracer.Tracer) when given.  Each op stops at its
    timeout or at `deadline` (a time.perf_counter() value).

    Returns (pass time, results).  The pass time is the sum of the ops'
    own times, without the benchmark's hashing and clean-up between them.
    """
    import holocurve.cli
    import tracer

    restore = tracer.install(trace) if trace else None
    try:
        # cli.main is looked up after install, so the traced pass enters
        # through its wrapper.
        results = [run_op_inprocess(
            holocurve.cli.main, op, seed, work,
            min(op["timeout_s"], deadline - time.perf_counter()))
            for op in ops]
    finally:
        if restore:
            restore()
    return sum(r.wall_s for r in results), results


def printed_values(stdout: str) -> dict:
    """The ``key = value`` lines of an op's output."""
    values = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition(" = ")
        if sep and key and not key.startswith(" "):
            values.setdefault(key, value)
    return values


def check(op: dict, res: OpResult, first_digest: str | None = None) -> None:
    """Record in res.problems every way res misses op's expected outcome."""
    want = op["expect"]
    printed = printed_values(res.stdout)
    if res.exit is not None and res.exit != want["exit"]:
        # What the op said instead: its verdict, or its last error line.
        said = [f"{k} = {printed[k]}" for k in ("verdict", "collision")
                if k in printed] or res.stderr.strip().splitlines()[-1:]
        res.problems.append(f"exit {res.exit}, want {want['exit']}"
                            + (f" ({said[0][:160]})" if said else ""))
    for key, value in want["lines"].items():
        if printed.get(key) != value:
            res.problems.append(f"{key} = {printed.get(key)!r}, "
                                f"want {value!r}")
    if first_digest is not None and res.exit is not None \
            and res.digest != first_digest:
        res.problems.append("output differs from the first repetition "
                            "in this run")
