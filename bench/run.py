"""Run one fparray benchmark workload and print its metrics.

    python3 bench/run.py --workload search|construct|pipeline \
        --seed N --seconds S --trace 0|1

Run from anywhere; the package is imported from `src/` next to this
directory, never from an installed copy.  Jobs call `fparray.cli.main`
in this process, one at a time (a closed loop with one client), with the
package's memo caches cleared before each pass so every pass starts cold
like a fresh CLI process.  Every job's output is checked (see
`workloads.py`).

--trace 0 runs the workload's job list twice, then again while one more
pass of average length fits in --seconds of job time, takes each job's
median time over the passes, and reports the end-to-end metrics:

    wall_s         sum of the job medians
    slowest_job_s  largest job median: the hard instance a user waits on
    setup_s        median of seven set-ups, this process's and six fresh
                   interpreters': import fparray, then write the inputs
    peak_rss_mb    ru_maxrss of this process

The three times are in reference seconds.  On a shared machine the same
pass takes 15 s one minute and 24 s the next, because the host runs
other work on the same cores.  So a fixed pure-Python kernel is timed
before a pass, after it, and between jobs at least every CAL_EVERY_S,
and each job's measured seconds are scaled by REF_KERNEL_S over the
mean kernel time just before and just after the job.  A set-up is
scaled by the kernel time right after it.  The raw seconds stay in the
per-job records.  Per-layer times are raw.

--trace 1 runs one untraced pass, then one traced pass (see
`tracing.py`), then times the search set-up of every `exact_max_size`
call the traced pass made, with a node budget of 0, and reports the
per-layer metrics.  The spans are written to
`.bench_work/spans-<workload>-<seed>.jsonl`.

The last line of stdout is one JSON object with keys correct, attempted,
failed and metrics; the line before it, prefixed `RECORD `, holds per-job
records and provenance.  Exits 2 without a result when the package
source is missing.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, run_checks  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_SAMPLES = 6  # fresh interpreters timed besides this process
# Reported seconds are those of a machine where one kernel call takes
# REF_KERNEL_S; an idle 2.0 GHz Xeon takes about that.
REF_KERNEL_S = 0.014
KERNEL_REPS = 5  # kernel calls per host-speed sample
CAL_EVERY_S = 2.0

_DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in _DECLARED["end_to_end"] + _DECLARED["per_layer"]}


def _parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up in this fresh interpreter, print it, exit")
    return parser.parse_args(argv)


def _import_package():
    if not (SRC / "fparray" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'fparray'}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import fparray
    import fparray.cli

    if Path(fparray.__file__).resolve().parent != SRC / "fparray":
        print(f"error: imported fparray from {fparray.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)
    return fparray


def _memo_caches():
    """The package's lru caches, found before any tracing patch hides them."""
    caches = {}
    for name, module in list(sys.modules.items()):
        if name == "fparray" or name.startswith("fparray."):
            for obj in vars(module).values():
                if hasattr(obj, "cache_clear") and getattr(obj, "__module__", "").startswith("fparray"):
                    caches[id(obj)] = obj
    return list(caches.values())


def _mix(a, b):
    return (a * b + 7) % 65521


def _kernel():
    """Fixed work in the three styles the workloads use, about 15 ms."""
    import numpy as np

    big, mask, acc = (1 << 700) - 12345, (1 << 700) - 1, 0
    for _ in range(8000):  # big-integer bit sets, as in the clique search
        big = ((big << 1) | (big >> 699)) & mask
        acc += (big & -big).bit_length()
    table, v = [0] * 256, 1
    for i in range(30000):  # small-integer calls and lists, as in field arithmetic
        v = _mix(v, i)
        table[v & 255] += 1
    grid = np.arange(64 * 512, dtype=np.int64).reshape(512, 64) % 7
    for i in range(60):  # row comparisons, as in verify
        acc += int((grid != grid[i]).sum())
    return acc


def _host_scale():
    """REF_KERNEL_S over the kernel's current time: > 1 on a fast host."""
    start = time.perf_counter()
    for _ in range(KERNEL_REPS):
        _kernel()
    return REF_KERNEL_S * KERNEL_REPS / (time.perf_counter() - start)


def _run_job(main, job):
    """Run one job; returns (exit code, stdout, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(list(job.argv))
    except SystemExit as exc:
        rc = exc.code
    except Exception as exc:  # a traceback is a failed job, not a failed benchmark
        rc = f"{type(exc).__name__}: {exc}"
    return rc, out.getvalue(), time.perf_counter() - start


def _run_pass(fparray, workload, work, caches, records, tracer=None, scaled=True):
    """One pass over the job list; returns the job times.

    With `scaled` the times are reference seconds (see the module
    docstring), otherwise raw seconds.
    """
    for cache in caches:
        cache.cache_clear()
    gc.collect()
    if tracer is not None:
        tracer.install()
    samples = []  # (index of the next job, host scale)
    results = []
    try:
        last = None
        for index, job in enumerate(workload.jobs):
            if scaled and (last is None or time.perf_counter() - last >= CAL_EVERY_S):
                samples.append((index, _host_scale()))
                last = time.perf_counter()
            results.append((job, *_run_job(fparray.cli.main, job)))
        if scaled:
            samples.append((len(results), _host_scale()))
    finally:
        if tracer is not None:
            tracer.uninstall()
    times = []
    for index, (job, rc, stdout, seconds) in enumerate(results):
        scale = 1.0
        if scaled:
            before = [k for i, k in samples if i <= index][-1]
            after = next(k for i, k in samples if i > index)
            scale = (before + after) / 2
        problems = run_checks(job, rc, stdout, work)
        records.append({"argv": list(job.argv), "rc": rc, "seconds": seconds,
                        "ref_seconds": seconds * scale, "ok": not problems,
                        "problems": problems})
        times.append(seconds * scale)
    return times


def _setup(args):
    """Import the package and write the workload's inputs; returns its pieces."""
    fparray = _import_package()
    workload = WORKLOADS[args.workload]
    work = WORK / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    os.chdir(work)
    problems = workload.setup(work, args.seed, fparray.cli.main)
    return fparray, workload, work, problems


def _setup_samples(args):
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(done.stdout.split()[-1]))
    return samples


def _provenance():
    commit = None  # not a git checkout, or a packed ref
    with contextlib.suppress(OSError):
        head = (ROOT / ".git" / "HEAD").read_text().strip()
        commit = (ROOT / ".git" / head[5:]).read_text().strip() if head.startswith("ref: ") else head
    cpu = None
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    import numpy

    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
    }


def main(argv=None):
    args = _parse_args(argv)
    if args.setup_only:  # its problems show in the parent's own set-up
        work = _setup(args)[2]
        elapsed = time.perf_counter() - START
        os.chdir(ROOT)
        shutil.rmtree(work, ignore_errors=True)
        print(elapsed * _host_scale())
        return 0

    provenance = {"loadavg_at_start": os.getloadavg()}
    fparray, workload, work, problems = _setup(args)
    own_setup = time.perf_counter() - START
    own_setup_ref = own_setup * _host_scale()
    problems += workload.setup_checks(work)
    provenance.update(_provenance())
    caches = _memo_caches()
    records = [{"argv": ["set-up"], "rc": 0, "seconds": own_setup, "ref_seconds": own_setup_ref,
                "ok": not problems, "problems": problems}]
    try:
        if args.trace:
            metrics = _traced(args, fparray, workload, work, caches, records)
        else:
            metrics = _untraced(args, fparray, workload, work, caches, records, own_setup_ref)
    finally:
        os.chdir(ROOT)
        shutil.rmtree(work, ignore_errors=True)

    declared = _DECLARED["per_layer" if args.trace else "end_to_end"]
    if sorted(metrics) != sorted(m["name"] for m in declared):
        raise RuntimeError("metrics differ from those BENCHMARK.json declares")
    failed = sum(1 for r in records if not r["ok"])
    attempted = len(records)
    for r in records:
        if not r["ok"]:
            print(f"FAILED {' '.join(r['argv'])}: {'; '.join(r['problems'])}")
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{attempted} jobs attempted, failed_frac {failed / attempted:.4f}")
    for name, value in metrics.items():
        print(f"  {name:32s} {value:.6g} {UNITS[name]}")
    print("RECORD " + json.dumps({"workload": args.workload, "seed": args.seed,
                                  "trace": args.trace, "provenance": provenance,
                                  "jobs": records, "metrics": metrics}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": UNITS[name]} for name, value in metrics.items()},
    }))
    return 0


def _untraced(args, fparray, workload, work, caches, records, own_setup):
    passes = []
    # two passes, then more while one of average length still fits in --seconds
    while len(passes) < 2 or sum(map(sum, passes)) * (1 + 1 / len(passes)) <= args.seconds:
        passes.append(_run_pass(fparray, workload, work, caches, records))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    job_medians = [statistics.median(times) for times in zip(*passes)]
    setups = [own_setup] + _setup_samples(args)
    return {
        "wall_s": sum(job_medians),
        "slowest_job_s": max(job_medians),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb,
    }


def _traced(args, fparray, workload, work, caches, records):
    untraced_wall = sum(_run_pass(fparray, workload, work, caches, records, scaled=False))
    tracer = Tracer()
    traced_wall = sum(_run_pass(fparray, workload, work, caches, records, tracer, scaled=False))
    probe = 0.0
    for call in tracer.search_calls():
        start = time.perf_counter()
        with contextlib.suppress(fparray.WorkLimitExceeded):
            fparray.bounds.exact_max_size(**{**call, "node_budget": 0})
        probe += time.perf_counter() - start
    WORK.mkdir(exist_ok=True)
    tracer.write(WORK / f"spans-{args.workload}-{args.seed}.jsonl")
    metrics = tracer.metrics(probe, traced_wall, untraced_wall)
    shares = tracer.self_times()
    print(f"layer self time, share of the traced pass ({traced_wall:.3f} s):")
    for group, seconds in sorted(shares.items(), key=lambda kv: -kv[1]):
        print(f"  {group:28s} {seconds:9.4f} s  {seconds / traced_wall:6.1%}")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
