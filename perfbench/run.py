#!/usr/bin/env python3
"""Run one benchmark workload of invbargraph and print its metrics.

    python3 perfbench/run.py --workload verify-deep --seed 1 --seconds 30 --trace 0

Run from anywhere inside a checkout; the package is imported from ``src/``.
Every workload runs in single-threaded fresh Python processes (see
``worker.py``): a few set-up-only processes, whose median time to ready is
``setup_s``, and one measuring process.  With ``--trace 0`` the last line of
standard output is a JSON object with the end-to-end metrics named in
``BENCHMARK.json``; with ``--trace 1`` it has the per-layer metrics.  The lines
before it give the same figures for people, with the backend, Python version,
core count, commit, seed, sizes and sample counts, and a copy of everything
goes to ``perfbench/results/``.  The exit code is 1 if any output check fails
and 2 if the sources or a worker are missing or broken (no JSON line then).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import probe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"

SETUP_RUNS = 7  # timed set-ups per run, the measuring worker's included; setup_s is their median
SETUP_TIMEOUT_S = 30
RUN_GRACE_S = 100  # for the last checks and the negative control, with room to spare


class WorkerError(RuntimeError):
    pass


def _start(cmd: list[str]) -> tuple[subprocess.Popen, float, float]:
    """Start a worker; return it, its set-up seconds and its snippet time during set-up.

    Set-up seconds run from launch to `ready`, less the time the snippet
    samples took.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    try:
        if line != "ready\n":
            raise ValueError(line)
        probe_s, sampled_s = map(float, proc.stdout.readline().split())
    except ValueError:
        _stop(proc)
        raise WorkerError(f"worker did not get ready (exit code {proc.returncode})") from None
    return proc, ready - sampled_s, probe_s


def _stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()
    proc.stdout.close()


def _finish(proc: subprocess.Popen, timeout: float) -> str:
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        raise WorkerError(f"worker still running after {timeout:.0f} s") from None
    finally:
        _stop(proc)
    if proc.returncode != 0:
        raise WorkerError(f"worker exited with code {proc.returncode}")
    return out


def _setup_time(cmd: list[str]) -> tuple[float, float]:
    proc, ready, probe_s = _start(cmd)
    _finish(proc, SETUP_TIMEOUT_S)
    return ready, probe_s


def _git_commit() -> str:
    """The checkout's commit, read from its own .git (not from any enclosing repository)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "invbargraph" / "__init__.py").is_file():
        print(f"error: no invbargraph sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    RESULTS.mkdir(exist_ok=True)
    worker = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
              "--seed", str(args.seed), "--seconds", str(args.seconds),
              "--trace", str(args.trace), "--scratch", str(RESULTS)]
    try:
        _setup_time(worker + ["--mode", "setup"])  # untimed: fills the bytecode caches
        setups = [_setup_time(worker + ["--mode", "setup"]) for _ in range(SETUP_RUNS - 1)]
        proc, *setup = _start(worker + ["--mode", "run"])
        setups.append(tuple(setup))
        run = json.loads(_finish(proc, args.seconds + RUN_GRACE_S).splitlines()[-1])
    except WorkerError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2

    untraced = run["samples"]["untraced"]
    n_wall = len(untraced["s"])
    setup_ref = [probe.reference_seconds(s, probe_s) for s, probe_s in setups]
    # A 40 s run has 4 to 9 samples, too few for any percentile to have ten
    # samples beyond it, so the tail is the slowest sample.
    wall_s_tail = max(untraced["ref_s"])
    if args.trace:
        values = run["layers"]
    else:
        values = {"setup_s": statistics.median(setup_ref),
                  "wall_s": statistics.median(untraced["ref_s"]), "wall_s_tail": wall_s_tail,
                  "peak_rss_mb": run["peak_rss_mb"]}
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}
    if set(values) != set(units):
        raise SystemExit(f"metrics {sorted(values)} do not match BENCHMARK.json {kind}")
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    raw = {"setup_s": statistics.median(s for s, _ in setups),
           "wall_s": statistics.median(untraced["s"]), "wall_s_tail": max(untraced["s"]),
           "probe_ms": 1000 * statistics.median(untraced["probe_s"])}
    ratio = run["failed"] / run["attempted"]

    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "backend": run["backend"], "python": run["python"],
        "nproc": run["nproc"], "commit": _git_commit(), "sizes": run["sizes"],
        "setup_samples": len(setups), "wall_samples": n_wall,
        "traced_samples": len(run["samples"]["traced"]["s"]),
        "wall_s_tail": wall_s_tail, "checks_failed_ratio": ratio, "raw": raw,
    }
    print(f"{args.workload}: seed {args.seed}, backend {meta['backend']}, "
          f"Python {meta['python']}, nproc {meta['nproc']}, commit {meta['commit']}")
    print("  sizes: " + ", ".join(f"{k}={v}" for k, v in meta["sizes"].items()))
    for name, metric in metrics.items():
        value = metric["value"]
        print(f"  {name:<30} {value if isinstance(value, int) else format(value, '.6g')} "
              f"{metric['unit']}")
    print(f"  {'checks_failed_ratio':<30} {ratio:.6g} ({run['failed']} of {run['attempted']} "
          f"checks failed; negative control {'caught' if run['control_caught'] else 'MISSED'})")
    print(f"  (times in reference seconds, see perfbench/README.md; setup_s median of "
          f"{len(setups)} set-ups; wall_s median and wall_s_tail slowest of {n_wall} untraced "
          f"samples; "
          f"{meta['traced_samples']} traced samples)")
    print("  raw seconds: " + ", ".join(f"{k} {v:.6g}" for k, v in raw.items()))
    if args.trace:
        print(f"  (spans in {run['spans_file']})")

    correct = run["failed"] == 0
    (RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**meta, "metrics": metrics, "setup_samples_s_probe": setups, "run": run},
                   indent=1))
    print(json.dumps({"correct": correct, "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
