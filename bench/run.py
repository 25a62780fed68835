"""Benchmark of largesub: cold scan, claim sweep and corpus ingest.

Run from the repository root, once per workload:

    for w in scan claims ingest; do
        python3 bench/run.py --workload $w --seed 1 --seconds 35 --trace 0
    done

Workloads (see workloads.py): scan, claims, ingest.  A run is a closed loop
with one caller: it starts one fresh worker process at a time, each of
which imports largesub, builds the inputs and makes one cold sweep over
them, one operation after another, single-threaded.  Workers are started
until the next one would end after --seconds, and at least MIN_SWEEPS.  Since each sweep has a
process of its own, no cache and no allocator state carries over.

With --trace 0 the run reports the end-to-end metrics, each the median over
its workers:

    setup_s       import of largesub and the benchmark modules plus one
                  build of the inputs (reference corpus, pool, relabelling,
                  then groups or JSONL lines); at least MIN_SETUPS per run
    sweep_s       time of one cold sweep over the pool
    sweep_rss_mb  resident memory at the end of the sweep minus at its
                  start (/proc/self/statm), with the pool still held; the
                  allocator's free pages are returned to the OS before each
                  reading, so it counts the memory the caches hold

setup_s is the wall time scaled to a reference host speed by calibration
chunks timed around the setup (see hostspeed.py); sweep_s is scaled the same
way by chunks timed around each group on scan and claims, and is the plain
wall time on ingest (see workloads.sweep for why).  The plain wall times are
in the report as setup_wall_s and sweep_wall_s.

With --trace 1 the workers make the traced sweep of tracing.py instead, and
the run reports its per-layer metrics (medians over workers, plain wall
times), printing trace.total_s beside the untraced run's sweep_wall_s when
a report of that run (same workload and seed) is in bench/out/.

Every output is checked against bench/expected.json (see pin.py).  The
report prints failed_frac, the share of operations whose output differs
from the pin or that raised, and the machine context (git SHA, CPUs,
versions, steal ticks over the run, the median calibration chunk).  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The full report, with the spans of a traced
run, is written to bench/out/.
"""

from __future__ import annotations

import argparse
import ctypes
import ctypes.util
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
MIN_SWEEPS = 2
MIN_SETUPS = 3
WORKER_TIMEOUT_S = 150
END_TO_END_UNITS = {"setup_s": "s", "sweep_s": "s", "sweep_rss_mb": "MB"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("scan", "claims", "ingest"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: run as one worker that sets up, and sweeps unless "setup"
    parser.add_argument("--worker", choices=("sweep", "setup"), help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# -- machine context ----------------------------------------------------------


def rss_mb() -> float:
    with open("/proc/self/statm", "r", encoding="ascii") as fh:
        pages = int(fh.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def release_free_heap() -> None:
    """Hand the C allocator's free pages back to the OS (glibc malloc_trim),
    so that resident memory counts what the process still holds rather than
    what the allocator kept from earlier work.  A no-op without glibc."""
    try:
        ctypes.CDLL(ctypes.util.find_library("c")).malloc_trim(0)
    except (OSError, AttributeError, TypeError):
        pass


def steal_ticks() -> int | None:
    try:
        with open("/proc/stat", "r", encoding="ascii") as fh:
            fields = fh.readline().split()
    except OSError:
        return None
    return int(fields[8]) if len(fields) > 8 and fields[0] == "cpu" else None


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


# -- one worker -----------------------------------------------------------------


def worker(args) -> dict:
    """Import largesub, set up, and (unless setup only) make one sweep."""
    import gc

    sys.path.insert(0, str(SRC))
    chunks = [hostspeed.chunk_s()]
    t0 = time.perf_counter()
    import largesub
    import workloads as wl

    inputs = wl.make_inputs(args.workload, args.seed)
    setup_wall = time.perf_counter() - t0
    chunks.append(hostspeed.chunk_s())
    if Path(largesub.__file__).resolve().parent != SRC / "largesub":
        raise SystemExit(f"bench: imported largesub from {largesub.__file__}, not {SRC}")
    out = {
        "setup_wall_s": setup_wall,
        "setup_s": hostspeed.adjusted([setup_wall], chunks),
        "numpy": sys.modules["numpy"].__version__,
        "chunks": chunks,
    }
    if args.worker == "setup":
        return out
    expected = wl.load_expected()
    gc.collect()
    release_free_heap()
    before = rss_mb()
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        t0 = time.perf_counter()
        results, witnesses = tracing.traced_sweep(inputs, tracer)
        out["sweep_wall_s"] = time.perf_counter() - t0
    else:
        results, times, sweep_chunks = wl.sweep(inputs)
        out["sweep_wall_s"] = sum(times)
        out["sweep_s"] = hostspeed.adjusted(times, sweep_chunks) if sweep_chunks else sum(times)
        chunks.extend(sweep_chunks)
    release_free_heap()
    out["sweep_rss_mb"] = rss_mb() - before
    outputs = wl.outputs_of(inputs, results)
    mismatches = wl.count_failures(expected, args.workload, inputs.names, outputs)
    out.update(
        groups=len(inputs.names),
        sum_order=sum(inputs.orders),
        attempted=len(outputs),
        failed=len(mismatches),
        mismatches=[list(m) for m in mismatches[:20]],
    )
    if args.trace:
        out["layers"] = tracing.layer_metrics(inputs, results, witnesses, tracer)
        out["spans"] = [[s.id, s.name, s.start, s.end, s.parent, s.group] for s in tracer.spans]
    return out


def spawn(args, mode: str) -> dict:
    cmd = [
        sys.executable,
        str(BENCH_DIR / "run.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--worker", mode,
    ]
    proc = subprocess.run(
        cmd, cwd=ROOT, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"bench: worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


# -- the run ---------------------------------------------------------------------


def run(args) -> dict:
    steal = steal_ticks()
    sweeps = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        sweeps.append(spawn(args, "sweep"))
        now = time.perf_counter()
        if len(sweeps) >= MIN_SWEEPS and (now - start) + (now - t0) > args.seconds:
            break
    workers = list(sweeps)
    while len(workers) < MIN_SETUPS:
        workers.append(spawn(args, "setup"))
    end_steal = steal_ticks()
    first = sweeps[0]
    chunks = [c for w in workers for c in w["chunks"]]
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "groups": first["groups"],
        "sum_order": first["sum_order"],
        "workers": len(sweeps),
        "attempted": sum(w["attempted"] for w in sweeps),
        "failed": sum(w["failed"] for w in sweeps),
        "mismatches": [m for w in sweeps for m in w["mismatches"]][:20],
        "samples": {
            key: [w[key] for w in workers if key in w]
            for key in ("setup_s", "setup_wall_s", "sweep_s", "sweep_wall_s", "sweep_rss_mb")
        },
        "context": {
            "git_sha": git_sha(),
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": first["numpy"],
            "steal_ticks": None if steal is None or end_steal is None else end_steal - steal,
            "calibration_chunk_s": statistics.median(chunks),
            "calibration_chunks": len(chunks),
        },
    }
    for key, values in result["samples"].items():
        if values:
            result[key] = statistics.median(values)
    if args.trace:
        keys = first["layers"]
        result["layers"] = {k: statistics.median(w["layers"][k] for w in sweeps) for k in keys}
        result["spans"] = [w["spans"] for w in sweeps]
    return result


def report(args, result: dict) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(OUT_DIR / name, "w", encoding="utf-8") as fh:
        json.dump(result, fh)

    print(
        f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
        f"groups {result['groups']}  sum of orders {result['sum_order']}  "
        f"workers {result['workers']}"
    )
    for m in result["mismatches"]:
        print(f"  MISMATCH {m}")
    if args.trace:
        metrics = {k: {"value": v, "unit": _unit(k)} for k, v in result["layers"].items()}
        untraced = OUT_DIR / f"{args.workload}-seed{args.seed}-trace0.json"
        if untraced.is_file():
            with open(untraced, "r", encoding="utf-8") as fh:
                wall = json.load(fh)["sweep_wall_s"]
            overhead = result["layers"]["trace.total_s"] - wall
            print(f"  {'sweep_wall_s (untraced run)':<40} {wall:.4f} s")
            print(f"  {'tracing overhead':<40} {overhead:.4f} s")
    else:
        metrics = {k: {"value": result[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
        for key in ("setup_wall_s", "sweep_wall_s"):
            print(f"  {key + ' (not scaled)':<40} {result[key]:.4f} s")
    for key, m in metrics.items():
        print(f"  {key:<40} {m['value']:.4f} {m['unit']}")
    failed, attempted = result["failed"], result["attempted"]
    print(f"  {'failed_frac':<40} {failed / attempted:.4f} ({failed} of {attempted} operations)")
    print("context " + json.dumps(result["context"]))
    print(
        json.dumps(
            {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )


def _unit(key: str) -> str:
    if key.endswith("_s"):
        return "s"
    if key.endswith("_ratio"):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "largesub" / "__init__.py").is_file():
        print(f"bench: no largesub package under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("bench: --seconds must be positive", file=sys.stderr)
        return 2
    if args.worker:
        print(json.dumps(worker(args)))
        return 0
    report(args, run(args))
    return 0


if __name__ == "__main__":
    sys.exit(main())
