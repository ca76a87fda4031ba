"""One benchmark process: set up a workload, then (in run mode) time it.

Started by ``run.py`` in a fresh interpreter, so that set-up time covers the
interpreter start, the package import and backend selection, and input
generation, and so that peak RSS belongs to this workload alone.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 --mode setup|run

It prints ``ready`` once set up, then the snippet time seen during set-up and
the seconds the snippets took (``probe.Sampler``).  In setup mode it then
exits.  In run mode it repeats the workload while another iteration fits in
``--seconds``
(at least once; with ``--trace 1`` alternating untraced and traced
iterations, at least one of each), checks every output, runs the negative
control, and prints one JSON line.  A traced run also writes its spans, one
JSON object a line, to the scratch directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import probe  # standard library only, so it loads before the package

HERE = Path(__file__).resolve().parent


def main(argv: list[str] | None = None) -> int:
    # The package is imported here, inside the sampled block, so that the
    # snippet samples cover the import as well as the input generation.
    with probe.Sampler(probe.SETUP_INTERVAL_S) as setup_sampler:
        sys.path.insert(0, str(HERE.parent / "src"))
        import tracing
        import workloads
        from invbargraph import kernel

        parser = argparse.ArgumentParser(description=__doc__)
        parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
        parser.add_argument("--seed", type=int, required=True)
        parser.add_argument("--seconds", type=float, required=True)
        parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
        parser.add_argument("--mode", choices=("setup", "run"), required=True)
        parser.add_argument("--scratch", type=Path, required=True,
                            help="directory for files the workload writes")
        args = parser.parse_args(argv)
        workload = workloads.WORKLOADS[args.workload](args.scratch)
        inputs = workload.make_inputs(args.seed)
    print("ready", flush=True)
    print(setup_sampler.probe_s(), setup_sampler.seconds, flush=True)
    if args.mode == "setup":
        return 0

    tracer = tracing.Tracer() if args.trace else None
    samples: dict[str, dict[str, list[float]]] = {
        kind: {"s": [], "ref_s": [], "probe_s": []} for kind in ("untraced", "traced")}
    layer_rows: list[dict] = []
    attempted = failed = 0
    start = time.perf_counter()
    slowest = 0.0  # longest iteration so far, checks included
    while True:
        began = time.perf_counter()
        outputs = None  # so peak RSS holds one iteration's outputs, not two
        use_tracer = tracer is not None and len(samples["untraced"]["s"]) > len(layer_rows)
        if use_tracer:
            tracer.reset()
            tracer.install()
        try:
            with probe.Sampler() as sampler:
                t0 = time.perf_counter()
                outputs = workload.run(inputs)
                elapsed = time.perf_counter() - t0 - sampler.seconds
        finally:
            if use_tracer:
                tracer.uninstall()
        bucket = samples["traced" if use_tracer else "untraced"]
        bucket["s"].append(elapsed)
        bucket["probe_s"].append(sampler.probe_s())
        bucket["ref_s"].append(probe.reference_seconds(elapsed, bucket["probe_s"][-1]))
        if use_tracer:
            layer_rows.append(tracer.layer_metrics())
        checks = workload.check(outputs)
        attempted += len(checks)
        failed += sum(not ok for _, ok in checks)
        now = time.perf_counter()
        slowest = max(slowest, now - began)
        # Stop before an iteration that would end past --seconds, so a run
        # measures for at most --seconds once it has its minimum samples.
        if now - start + slowest > args.seconds and (tracer is None or layer_rows):
            break

    # Negative control: one corrupted output must make the check fail.
    attempted += 1
    control_caught = not all(ok for _, ok in workload.check(workload.corrupt(outputs)))
    failed += not control_caught

    result = {
        "backend": kernel.BACKEND,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "sizes": workload.sizes,
        "samples": samples,
        "attempted": attempted,
        "failed": failed,
        "control_caught": control_caught,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        # Counts are exact and equal in every traced iteration; median_low keeps them ints.
        layers = {name: (statistics.median_low if isinstance(value, int) else statistics.median)(
                      [row[name] for row in layer_rows])
                  for name, value in layer_rows[0].items()}
        layers["trace.overhead_ratio"] = (statistics.median(samples["traced"]["ref_s"])
                                          / statistics.median(samples["untraced"]["ref_s"]))
        result["layers"] = layers
        result["layer_rows"] = layer_rows
        spans = args.scratch / f"spans-{args.workload}-seed{args.seed}.jsonl"
        spans.write_text("".join(json.dumps(span) + "\n" for span in tracer.spans()))
        result["spans_file"] = str(spans)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
