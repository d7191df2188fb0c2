"""End-to-end benchmark of the totirr CLI, plus a traced per-layer run.

    python3 perfbench/run.py --workload exhaustive --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout.  With --trace 0 every command of
the workload runs as `python -m totirr.cli ...` with PYTHONPATH=src, in
passes, until --seconds is used up; with --trace 1 the same commands run
in-process through totirr.cli.cli_main, once untraced and once with spans.
Every output is checked (gate.py).  The last stdout line is the JSON result.
"""

from __future__ import annotations

import os
import sys

THREADS = max(1, min(2, os.cpu_count() or 1))
THREAD_CAPS = {
    var: str(THREADS)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
}
# set before numpy is imported, here and in every child
os.environ.update(THREAD_CAPS)

import argparse  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Dict, List, Tuple  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# fail before importing the modules that need totirr
if __name__ == "__main__" and not (SRC / "totirr" / "cli.py").is_file():
    sys.exit(f"perfbench: no totirr sources under {SRC}; run from a source checkout")
sys.path.insert(0, str(SRC))

import numpy  # noqa: E402

import gate  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import NO_WORK, Command  # noqa: E402

# no-work calls before the first pass; later, one before any command that
# starts this long after the previous no-work call, so that the samples
# spread over the whole run and not over its first seconds
SETUP_FIRST, SETUP_EVERY_S = 3, 2.0
# so that even the longest workload's commands get a median of two
MIN_PASSES = 2
# every command is killed once the run has taken this long
RUN_LIMIT_S = 150.0

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cmd_geomean_s": "s",
    "peak_rss_mb": "MB",
}


class Tally:
    """Commands attempted and failed, with the reason for each failure."""

    def __init__(self) -> None:
        self.attempted = self.failed = 0
        self.problems: List[str] = []

    def ok(self, cmd: Command, returncode, stdout: str, stderr: str = "") -> bool:
        self.attempted += 1
        if returncode:
            bad = [f"exit code {returncode}: {stderr.strip()[-300:]}"]
        else:
            bad = gate.check(cmd, stdout)
        if bad:
            self.failed += 1
            self.problems += [f"{cmd.key[:80]}: {p}" for p in bad]
        return not bad


def run_cli(argv: List[str], env: Dict[str, str], deadline: float) -> Dict[str, object]:
    """Run one CLI command; its time includes interpreter start."""
    out_path, err_path = WORK / "stdout", WORK / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "totirr.cli", *argv],
            cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
        )
        killer = threading.Timer(max(deadline - start, 1.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "seconds": seconds,
        "returncode": proc.returncode,
        "stdout": out_path.read_text(encoding="ascii", errors="replace"),
        "stderr": err_path.read_text(encoding="utf-8", errors="replace"),
        # Linux reports ru_maxrss in KiB; it covers the child's own children
        "rss_mb": usage.ru_maxrss * 1024 / 1e6,
    }


# what a run returns: the tally, metrics as name -> (value, unit), and detail
RunResult = Tuple[Tally, Dict[str, Tuple[float, str]], Dict[str, object]]


def timed_run(cmds: List[Command], seconds: float, deadline: float) -> RunResult:
    """Closed loop of passes over cmds, as subprocesses, until seconds is used."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    tally = Tally()

    def call(cmd: Command) -> Dict[str, object]:
        result = run_cli(cmd.args(workloads.WORKERS), env, deadline)
        result["ok"] = tally.ok(cmd, result["returncode"], result["stdout"], result["stderr"])
        return result

    run_cli(NO_WORK.args(1), env, deadline)  # warm the file cache and bytecode
    setup_times: List[float] = []
    passes: List[List[Dict[str, object]]] = []
    for _ in range(SETUP_FIRST):
        setup_times.append(call(NO_WORK)["seconds"])
    last_setup = time.perf_counter()

    def timed_call(cmd: Command) -> Dict[str, object]:
        nonlocal last_setup
        if time.perf_counter() - last_setup > SETUP_EVERY_S:
            setup_times.append(call(NO_WORK)["seconds"])
            last_setup = time.perf_counter()
        return call(cmd)

    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        passes.append([timed_call(cmd) for cmd in cmds])
        now = time.perf_counter()
        out_of_time = now - start + (now - pass_start) > seconds
        if (out_of_time and len(passes) >= MIN_PASSES) or now > deadline:
            break

    # Each command's time is its median over the passes.  The host runs
    # fast or slow in stretches of seconds to minutes; a fastest run depends
    # on whether a run caught a fast stretch, a median averages over the
    # stretches the run saw.
    walls = [sum(r["seconds"] for r in p) for p in passes]
    med = [statistics.median(p[i]["seconds"] for p in passes) for i in range(len(cmds))]
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (sum(med), "s"),
        "cmd_geomean_s": (math.exp(statistics.fmean(math.log(t) for t in med)), "s"),
        "peak_rss_mb": (max(r["rss_mb"] for p in passes for r in p), "MB"),
    }
    detail: Dict[str, object] = {
        "passes": len(passes),
        "pass_walls": walls,
        "setup_samples": len(setup_times),
        "fail_ratio": tally.failed / tally.attempted,
    }
    for kind in dict.fromkeys(c.kind for c in cmds):
        detail[f"{kind}_s"] = sum(t for t, c in zip(med, cmds) if c.kind == kind)
    first = [(c, r["stdout"]) for c, r in zip(cmds, passes[0]) if r["ok"]]
    total_cases = sum(gate.cases(stdout) for _, stdout in first)
    if total_cases:
        detail["cases_per_s"] = total_cases / sum(med)
    cs_err = max([gate.cs_abs_err(c, stdout) for c, stdout in first], default=0.0)
    if cs_err:
        detail["cs_abs_err"] = cs_err
    return tally, metrics, detail


def in_process_pass(cmds: List[Command], cli_main) -> Tuple[float, List[Tuple[object, str]]]:
    """Run each command through cli_main; (wall seconds, [(exit code, stdout)])."""
    outputs = []
    start = time.perf_counter()
    for cmd in cmds:
        out = io.StringIO()
        try:
            code = cli_main(cmd.args(1), out=out)
        except Exception as exc:  # an escaped exception is a failed command, not a crash
            code = f"uncaught {type(exc).__name__}: {exc}"
        outputs.append((code, out.getvalue()))
    return time.perf_counter() - start, outputs


def traced_pass(cmds: List[Command]) -> Tuple[tracing.Tracer, List[Tuple[object, str]]]:
    """One in-process pass with every traced call site wrapped."""
    from totirr import cli

    tracer = tracing.Tracer()
    with tracer.installed():
        traced = tracer.wrap(tracing.ROOT, in_process_pass)
        _, outputs = traced(cmds, tracer.wrap("cli.cli_main", cli.cli_main))
    return tracer, outputs


def traced_run(cmds: List[Command], seconds: float, deadline: float = math.inf) -> RunResult:
    """Pairs of untraced and traced in-process passes; per-layer metrics."""
    from totirr import cli

    tally = Tally()
    samples: List[Dict[str, float]] = []
    start = time.perf_counter()
    while True:
        pair_start = time.perf_counter()
        untraced_wall, untraced_out = in_process_pass(cmds, cli.cli_main)
        tracer, traced_out = traced_pass(cmds)
        for cmd, (code, stdout) in zip(cmds, untraced_out):
            tally.ok(cmd, code, stdout)
        sweep_cases, cs_err = 0, 0.0
        for cmd, (code, stdout) in zip(cmds, traced_out):
            if tally.ok(cmd, code, stdout):
                sweep_cases += gate.cases(stdout) if cmd.kind == "sweep" else 0
                cs_err = max(cs_err, gate.cs_abs_err(cmd, stdout))
        samples.append(tracing.layer_metrics(tracer, untraced_wall, sweep_cases, cs_err))
        now = time.perf_counter()
        if now - start + (now - pair_start) > seconds or now > deadline:
            break

    metrics = {name: (statistics.median(s[name] for s in samples), unit)
               for name, (unit, _) in tracing.PER_LAYER.items()}
    return tally, metrics, {"pairs": len(samples), "computed": list(tracing.COMPUTED)}


def _lscpu() -> Dict[str, str]:
    try:
        text = subprocess.run(["lscpu"], capture_output=True, text=True, timeout=10).stdout
    except (OSError, subprocess.SubprocessError):
        return {}
    return {k.strip(): v.strip() for k, _, v in (line.partition(":") for line in text.splitlines())}


def _git_sha() -> str:
    try:
        head = (ROOT / ".git" / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            return (ROOT / ".git" / head[5:]).read_text().strip()
        return head
    except OSError:
        return "unknown"


def environment() -> Dict[str, object]:
    cpu = _lscpu()
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu.get("Model name", platform.processor() or "unknown"),
        "l2_cache": cpu.get("L2 cache", "unknown"),
        "l3_cache": cpu.get("L3 cache", "unknown"),
        "memory_gib": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": _git_sha(),
        "thread_caps": THREAD_CAPS,
        "workers": workloads.WORKERS,
    }


def main(argv=None) -> int:
    deadline = time.perf_counter() + RUN_LIMIT_S
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    try:
        cmds = workloads.build(args.workload, args.seed, WORK)
        run = traced_run if args.trace else timed_run
        tally, metrics, detail = run(cmds, args.seconds, deadline)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    for problem in tally.problems[:20]:
        print(f"perfbench: FAIL {problem}", file=sys.stderr)
    print(json.dumps({"workload": args.workload, "seed": args.seed, "detail": detail}))
    print(json.dumps({"environment": environment()}))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
