"""One pass of one workload, in a fresh single-threaded process.

Started by ``run.py``; prints one JSON record as its last stdout line.
Modes: ``setup`` stops once the inputs are ready, ``plain`` times the
operation list, ``traced`` times it with the tracer installed and dumps the
spans.  ``--spawned-at`` is the parent's ``time.monotonic()`` just before the
process was started, so ``setup_s`` covers interpreter start, imports and
input generation.

Times are taken with a ``speed.SpeedProbe`` running from the first line of
``main``: ``setup_s``, ``wall_s``, ``cpu_s`` and the per-operation times
are at the probe's reference speed, and the raw ones are kept beside them
with a ``raw_`` prefix.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

import speed

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))


def main() -> int:
    probe = speed.SpeedProbe()
    probe.start()
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mode", choices=("setup", "plain", "traced"), required=True)
    p.add_argument("--spawned-at", type=float, required=True)
    p.add_argument("--workdir", required=True)
    args = p.parse_args()

    import dendrimag

    if not Path(dendrimag.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"imported dendrimag from {dendrimag.__file__}, not from this checkout", file=sys.stderr)
        return 2
    import dendrimag.cli  # noqa: F401  (the package's full import cost is set-up)
    import tracer
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed, args.workdir)
    tr = None
    if args.mode == "traced":
        tr = tracer.Tracer()
        tr.install()
    ops = wl.operations()
    ready = time.monotonic()
    setup = {"setup_s": probe.scaled(args.spawned_at, ready), "raw_setup_s": ready - args.spawned_at}
    if args.mode == "setup":
        probe.stop()
        wl.cleanup()
        print(json.dumps({"mode": args.mode, **setup}))
        return 0

    outcomes, intervals = [], []
    probe_cpu0 = probe.cpu
    cpu0 = time.process_time()
    t0 = time.monotonic()
    for _, fn in ops:
        start = time.monotonic()
        try:
            outcomes.append(fn())
        except Exception:
            outcomes.append(workloads.Outcome(error=traceback.format_exc(limit=4)))
        intervals.append((start, time.monotonic()))
    t1 = time.monotonic()
    raw_cpu_s = time.process_time() - cpu0
    probe_cpu = probe.cpu - probe_cpu0
    probe.stop()
    wall_s = probe.scaled(t0, t1)
    speed_factor = (t1 - t0 - probe.probe_time(t0, t1)) / wall_s
    # CPU time is rescaled by the wall-time factor of the same interval.
    cpu_s = (raw_cpu_s - probe_cpu) / speed_factor
    # Includes the probe's fixed 8 MiB buffer (speed.py).
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    state = tracer.program_state()

    wl.prepare_checks()
    op_records = []
    for (name, _), outcome, (start, end) in zip(ops, outcomes, intervals):
        if outcome.error:
            problems, info = [f"raised: {outcome.error.strip().splitlines()[-1]}"], {"traceback": outcome.error}
        else:
            problems, info = wl.check(name, outcome)
        op_records.append(
            {
                "name": name,
                "seconds": probe.scaled(start, end),
                "raw_seconds": end - start,
                "ok": not problems,
                "problems": problems,
                "stdout_sha256": outcome.sha256,
                **info,
            }
        )
    wl.cleanup()

    record = {
        "mode": args.mode,
        **setup,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "raw_wall_s": t1 - t0,
        "raw_cpu_s": raw_cpu_s,
        "speed_factor": speed_factor,
        "probes": len(probe.starts),
        "peak_rss_mb": peak_rss_mb,
        "steps": wl.steps,
        "ops": op_records,
        "state": state,
    }
    if tr is not None:
        record["trace"] = {**tr.metrics(), **tracer.state_metrics(state)}
        record["trace_missing"] = tr.missing
        spans = os.path.join(args.workdir, f"spans-{args.workload}-seed{args.seed}.npz")
        tr.dump(spans)
        record["spans_file"] = os.path.relpath(spans, ROOT)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
