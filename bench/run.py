"""dendrimag benchmark.

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Workloads are defined in ``workloads.py``
and listed, with every metric, in ``BENCHMARK.json``.

Each pass of a workload runs in a fresh child process (``child.py``), so
every pass starts with cold caches, as a CLI call does.  One client drives
the operation list in a closed loop: each operation starts when the previous
one returns.  Children run single-threaded: the BLAS thread counts are
pinned to 1 and the hash seed is fixed.  Passes repeat until the next one
would end after ``--seconds``; there is always at least one.

``--trace 0`` reports the end-to-end metrics: the medians over passes of
``wall_s``, ``cpu_s`` and ``peak_rss_mb``, and ``setup_s`` (child start to
the first timed operation), the median over every pass and the three
children that only set up before each pass.  ``--trace 1`` alternates an untraced and a traced pass
and reports the per-layer metrics of ``tracer.py`` and ``trace_overhead``,
traced over untraced ``wall_s``.

Every time is taken at a reference machine speed: each child runs
``speed.SpeedProbe``, which times a fixed calibration loop ten times a
second and divides the time between probes by the local slowdown of that
loop.  On a shared host whose speed drifts by up to 1.7x this cuts the
run-to-run spread of ``wall_s`` about threefold; the raw times are in the
record line as ``raw_wall_s``, ``raw_cpu_s`` and ``raw_setup_s``.

Outputs are checked after each pass; a failed check counts the operation
as failed.  The next-to-last stdout line is a JSON record of every pass
(per-operation times, check results, stdout digests, cache state) and its
provenance; the last line is the result.  Exits 2 without a result when the
benchmark cannot run, for example outside a checkout of the repository.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKDIR = ROOT / ".bench_out"
SETUP_CHILDREN_PER_PASS = 3
DEADLINE_S = 170.0
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def run_child(workload: str, seed: int, mode: str, deadline: float) -> dict:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before the first pass completed")
    cmd = [
        sys.executable,
        str(ROOT / "bench" / "child.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--mode", mode,
        "--workdir", str(WORKDIR),
        "--spawned-at", repr(time.monotonic()),
    ]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(), capture_output=True, text=True, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} pass of {workload} did not finish within the deadline") from exc
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} pass of {workload} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None  # benchmark checkouts are plain file trees
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
    return proc.stdout.strip() or None


def _source_sha256() -> str:
    """Digest of the package sources, which identifies the code without git."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "dendrimag").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def provenance(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "git_commit": _git_commit(),
        "source_sha256": _source_sha256(),
        "child_env": PINNED_ENV,
    }


def measure(args) -> dict:
    """Run the passes; return the provenance and every child record."""
    start = time.monotonic()
    deadline = start + DEADLINE_S
    modes = ("plain", "traced") if args.trace else ("setup",) * SETUP_CHILDREN_PER_PASS + ("plain",)
    children: list[dict] = []
    while True:
        unit_start = time.monotonic()
        children.extend(run_child(args.workload, args.seed, mode, deadline) for mode in modes)
        now = time.monotonic()
        if now - start + (now - unit_start) > args.seconds:
            break
    setups = [c for c in children if c["mode"] == "setup"]
    passes = [c for c in children if c["mode"] != "setup"]
    return {"provenance": provenance(args), "setup_only": setups, "passes": passes}


def _median(records: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in records)


def result(args, detail: dict, spec: dict) -> dict:
    passes = detail["passes"]
    ops = [op for p in passes for op in p["ops"]]
    failed = sum(1 for op in ops if not op["ok"])
    plain = [p for p in passes if p["mode"] == "plain"]
    if args.trace:
        traced = [p for p in passes if p["mode"] == "traced"]
        values = {k: statistics.median(p["trace"][k] for p in traced) for k in traced[0]["trace"]}
        values["trace_overhead"] = _median(traced, "wall_s") / _median(plain, "wall_s")
        wanted = spec["per_layer"]
    else:
        values = {k: _median(plain, k) for k in ("wall_s", "cpu_s", "peak_rss_mb")}
        values["setup_s"] = _median(detail["setup_only"] + plain, "setup_s")
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise BenchError(f"metrics listed in BENCHMARK.json but not measured: {missing}")
    detail["fail_ratio"] = failed / len(ops)
    if plain[0]["steps"]:
        detail["step_us"] = 1e6 * _median(plain, "wall_s") / plain[0]["steps"]
    return {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }


def main() -> int:
    p = argparse.ArgumentParser(description="dendrimag benchmark (see BENCHMARK.json)")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.seed < 0:
        p.error("--seed must be >= 0")
    try:
        if not (ROOT / "src" / "dendrimag" / "__init__.py").is_file():
            raise BenchError(f"no dendrimag sources under {ROOT / 'src'}; run from a checkout of the repository")
        with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
            spec = json.load(fh)
        if args.workload not in {w["name"] for w in spec["workloads"]}:
            raise BenchError(f"unknown workload {args.workload!r}")
        WORKDIR.mkdir(exist_ok=True)
        detail = measure(args)
        res = result(args, detail, spec)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
