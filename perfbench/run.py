"""The repository benchmark: three seeded workloads, checked and timed.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload batch-warm --seed 1 --seconds 50 --trace 0

``--workload`` is ``match-large``, ``batch-warm``, ``serve-mixed`` or
``all``. Every run first matches a small seeded pair on the default and
the reference engine (the leaf mappings must be bit-identical), runs
the workload for ``--seconds``, and checks its match quality against a
floor. With ``--trace 0`` the last stdout line is the end-to-end result;
with ``--trace 1`` the run measures half the time untraced and half
with layer spans (see ``layertrace.py``) and reports per-layer metrics
plus the tracing overhead. The line before it is a ``detail`` object:
the workload's own named metrics, counts, kept failure bodies and the
recorded environment. ``--workload all`` runs the three in turn, each
in its own process, and ends with every workload's named metrics.

The program is imported from ``src/`` of the checkout; nothing else is
read or written outside it. Exit status is non-zero, with no result
line, when the program cannot be imported or a run fails or hangs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

#: End-to-end metrics every workload reports: name -> unit.
END_TO_END = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "quality": "ratio",
    "success_frac": "ratio",
    "peak_rss_mb": "MB",
}

#: Set-ups per untraced run; setup_s is their median.
SETUP_REPEATS = 5

#: A second seed, never used while the benchmark or a change is tuned:
#: a claimed gain must also hold on it.
HELD_OUT_SEED = 7919

#: Whole-run wall-time cap; past it the run fails instead of hanging.
RUN_CAP_S = 165
#: Grace after the cap before the process is torn down from a thread.
HARD_STOP_GRACE_S = 10

#: Variables that force non-default program behaviour.
_FORCING_PREFIXES = ("REPRO_FORCE_",)
_FORCING_NAMES = ("REPRO_FAULTS", "REPRO_INTERVAL_ORACLE")


class RunTimeout(Exception):
    pass


def clean_environment() -> dict:
    """Strip forcing variables from this process; return the
    environment child processes get (the same, plus the program on
    ``PYTHONPATH``)."""
    for name in list(os.environ):
        if name.startswith(_FORCING_PREFIXES) or name in _FORCING_NAMES:
            del os.environ[name]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def import_program():
    """Import the workloads (and with them the program) from this
    checkout's ``src/``; None when the program is not there."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        return None
    sys.path.insert(0, SRC)
    import repro
    import workloads

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        return None
    return workloads


def git_commit() -> str:
    """The checkout's commit, read from ``.git`` when there is one."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="ascii") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="ascii") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    from repro.structure.parallel import available_cpu_count

    try:
        import numpy
    except ImportError:  # the program falls back to its stdlib backend
        numpy_version = "absent"
    else:
        numpy_version = numpy.__version__
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "available_cpus": available_cpu_count(),
        "commit": git_commit(),
        "held_out_seed": HELD_OUT_SEED,
    }


def run_workload(workloads, ctx, name: str, seed: int, seconds: float,
                 trace: bool):
    """One run: parity check, then the workload (twice when traced).

    Returns (correct, attempted, failed, metrics, detail)."""
    run = workloads.WORKLOADS[name]
    problems = []
    parity = workloads.parity_problem(seed)
    if parity:
        problems.append(parity)
    if not trace:
        outcome = run(ctx, seed, seconds, SETUP_REPEATS, traced=False)
        phases = [outcome]
        metrics = outcome.end_to_end()
    else:
        plain = run(ctx, seed, seconds / 2, 1, traced=False)
        outcome = run(ctx, seed, seconds / 2, 1, traced=True)
        phases = [plain, outcome]
        metrics = dict(outcome.layers)
        metrics["trace_overhead_frac"] = outcome.p50_ms / plain.p50_ms - 1.0
    for phase in phases:
        problems.extend(phase.problems)
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    named = dict(outcome.named)
    named["setup_s"] = (statistics.median(outcome.setup_s), "s")
    named["failed_frac"] = (failed / attempted, "ratio")
    named["peak_rss_mb"] = (outcome.peak_rss_mb, "MB")
    detail = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "named_metrics": {key: {"value": value, "unit": unit}
                          for key, (value, unit) in named.items()},
        "samples": len(outcome.latencies_ms),
        "latencies_ms": [round(x, 3) for x in outcome.latencies_ms],
        "setup_samples_s": outcome.setup_s,
        "info": outcome.info,
        "failures": [f for p in phases for f in p.failures],
        "problems": problems,
    }
    if trace and name != "serve-mixed":
        # One op is one pipeline call here, so the layers must account
        # for the op's wall time.
        stage_sum = sum(metrics[key] for key in (
            "linguistic.stage_ms", "tree.stage_ms", "structure.treematch_ms",
            "mapping.stage_ms", "pipeline.overhead_ms"))
        traced_op_ms = statistics.fmean(outcome.latencies_ms)
        detail["accounting"] = {
            "stages_plus_overhead_ms": stage_sum,
            "traced_op_mean_ms": traced_op_ms,
            "share_of_traced_op": stage_sum / traced_op_ms,
            "untraced_op_p50_ms": plain.p50_ms,
        }
    return not problems, attempted, failed, metrics, detail


def _arm_watchdog(ctx, cap_s: int) -> threading.Timer:
    """Turn the cap, and a SIGTERM from outside, into an exception in the
    main thread (so every ``finally`` cleans up); past the grace, stop
    the children and exit from a thread."""
    def on_alarm(signum, frame):
        raise RunTimeout(f"run exceeded its {cap_s} s cap")

    def on_term(signum, frame):
        raise RunTimeout("terminated")

    def hard_stop():
        ctx.close()
        print(f"error: run still alive {HARD_STOP_GRACE_S} s past its cap",
              file=sys.stderr, flush=True)
        os._exit(3)

    signal.signal(signal.SIGALRM, on_alarm)
    signal.signal(signal.SIGTERM, on_term)
    signal.alarm(cap_s)
    timer = threading.Timer(cap_s + HARD_STOP_GRACE_S, hard_stop)
    timer.daemon = True
    timer.start()
    return timer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("match-large", "batch-warm", "serve-mixed",
                                 "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    env = clean_environment()
    try:
        workloads = import_program()
    except ImportError as exc:
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        return 2
    if workloads is None:
        print(f"error: no program under {SRC}", file=sys.stderr)
        return 2

    ctx = workloads.Context(ROOT, env)
    # ``all`` runs each workload in a child that holds its own cap.
    timer = _arm_watchdog(ctx, RUN_CAP_S if args.workload != "all" else
                          len(workloads.WORKLOADS)
                          * (RUN_CAP_S + HARD_STOP_GRACE_S))
    try:
        if args.workload == "all":
            return run_all(ctx, args, list(workloads.WORKLOADS))
        correct, attempted, failed, values, detail = run_workload(
            workloads, ctx, args.workload, args.seed, args.seconds,
            bool(args.trace),
        )
    except RunTimeout as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        signal.alarm(0)
        timer.cancel()
        ctx.close()

    detail["environment"] = environment()
    print(json.dumps({"detail": detail}), flush=True)
    units = END_TO_END if not args.trace else {
        key: unit for key, (unit, _) in workloads.layertrace.PER_LAYER.items()
    }
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": values[key], "unit": unit}
                    for key, unit in units.items()},
    }), flush=True)
    return 0


def run_all(ctx, args, names) -> int:
    """Each workload in its own process (so peak RSS is its own), then
    one result holding every workload's named metrics."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        proc = ctx.spawn(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True,
        )
        try:
            out, _ = proc.communicate()
        finally:
            ctx.reap(proc)
        if proc.returncode != 0:
            print(f"error: {name} exited with code {proc.returncode}",
                  file=sys.stderr)
            return proc.returncode
        detail_line, result_line = out.strip().splitlines()[-2:]
        print(detail_line, flush=True)
        detail, result = json.loads(detail_line)["detail"], json.loads(
            result_line)
        correct = correct and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}.{key}": entry
                        for key, entry in detail["named_metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
