"""The baric benchmark: one workload, one process, one client in a closed loop.

    python3 perfbench/run.py --workload verify|lattice|tensor --seed N \
        --seconds S --trace 0|1 [--tiny]

Run from anywhere; paths are taken relative to this file, and the program
under test is imported from ../src. Each job is one `baric` CLI command
run in-process through `baric.cli.main` on documents generated from the
seed. Every job's output is checked (exit code, the workload's own checks,
byte-identical re-save of written documents, the same digest every time a
pass repeats, and the stored golden digest for the fixed seeds).

--trace 0 runs passes over the job list until --seconds have been used
(at least three passes) and prints the end-to-end metrics:
  wall_s       median wall time of one pass over the job list
  job_p50_ms   median latency of one job, pooled over every pass
  setup_s      median of 15 timed set-ups in fresh interpreters (prepare.py)
  peak_rss_mb  peak resident memory of this process
The three times are scaled to a host of fixed speed: a calibration round
(calibrate.py) is timed before every job and set-up and after the last,
and each time is multiplied by REFERENCE_ROUND_S over the mean of the
rounds around it. The unscaled times are printed on the context line.
--trace 1 runs pass 0 three times -- untraced, with spans around every
traced baric function, and with FieldElement operations counted -- and
prints the per-layer metrics of metrics.PER_LAYER, including the traced
over untraced wall time. Spans are written to perfbench/_traces/.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics. Earlier lines give the machine, the source revision and fail_frac.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

import calibrate  # noqa: E402
import metrics  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 15
SETUP_ROUNDS = 3  # calibration rounds between two set-ups
MIN_PASSES = 3
SETUP_CPU_LIMIT_S = 60


class Run:
    """Outputs and verdicts of every job run so far."""

    def __init__(self, golden):
        self.golden = golden  # variant -> job name -> digest, or None
        self.seen = {}  # (variant, job name) -> digest of its first run
        self.argv = {}  # (variant, job name) -> command line
        self.attempted = 0
        self.failures = []

    def fail(self, where, message):
        self.failures.append(f"{where}: {message}")


def digest(code, stdout, written):
    h = hashlib.sha256(f"exit={code}\n".encode())
    h.update(stdout.encode())
    for path in written:
        h.update(f"\0{path}\0".encode())
        h.update(path.read_bytes() if path.exists() else b"<missing>")
    return h.hexdigest()[:16]


def run_pass(jobs, tracer=None):
    """Run the jobs in order, with a calibration round before each job and after the last.

    Returns the summed job time, (job, code, stdout, seconds, error) for
    each job, and the round times: job i ran between rounds i and i + 1.
    """
    import baric.cli as cli

    results = []
    rounds = [calibrate.round_seconds()]
    for job in jobs:
        out, err = io.StringIO(), io.StringIO()
        error = None
        if tracer is not None:
            tracer.enter("job")
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(job.argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # a crash is a failed job, not a failed benchmark
            code = None
            error = traceback.format_exc(limit=3)
        seconds = perf_counter() - t0
        if tracer is not None:
            tracer.exit()
        if err.getvalue() and error is None and code != 0:
            error = err.getvalue().strip()
        results.append((job, code, out.getvalue(), seconds, error))
        rounds.append(calibrate.round_seconds())
    return sum(r[3] for r in results), results, rounds


def scaled(seconds, rounds):
    """`seconds` measured while calibration rounds took `rounds`, on the reference host."""
    return seconds * calibrate.REFERENCE_ROUND_S / statistics.fmean(rounds)


def judge(run, variant, results, reference=None, full_checks=True):
    """Count and check every job of one pass; return its digests by job name."""
    earlier, digests = {}, {}
    for job, code, stdout, _, error in results:
        run.attempted += 1
        where = f"pass {variant} {job.name}"
        written = [Path(p) for p in job.writes]
        d = digests[job.name] = digest(code, stdout, written)
        earlier[job.name] = stdout
        problems = []
        if error is not None:
            problems.append(error)
        if code != 0:
            problems.append(f"exit code {code}")
        if full_checks:
            problem = workloads.run_check(job, stdout, earlier)
            if problem:
                problems.append(problem)
            for path in written:
                problem = workloads.written_roundtrip(path) if path.exists() else f"{path} not written"
                if problem:
                    problems.append(problem)
        first = run.seen.setdefault((variant, job.name), d)
        run.argv[variant, job.name] = job.argv
        if d != first:
            problems.append("output differs from the first run of the same pass")
        if reference is not None and d != reference.get(job.name):
            problems.append("output differs from the untraced run")
        if run.golden is not None and job.name in run.golden.get(str(variant), {}):
            if run.golden[str(variant)][job.name] != d:
                problems.append("output differs from the golden transcript")
        if problems:
            run.fail(where, "; ".join(problems))
    return digests


def _limit_cpu():
    resource.setrlimit(resource.RLIMIT_CPU, (SETUP_CPU_LIMIT_S, SETUP_CPU_LIMIT_S))


def measure_setup(workload, seed, directory):
    """Median wall time of SETUP_REPEATS fresh set-ups, after one untimed warm-up.

    Returns the scaled and the unscaled median; each set-up is scaled by
    the SETUP_ROUNDS calibration rounds on either side of it.

    The wait blocks without a timeout: subprocess polls in 50 ms steps when
    given one, which would round every set-up time. A CPU-time limit on the
    child bounds a runaway set-up instead.
    """
    directory.mkdir(parents=True, exist_ok=True)
    argv = [sys.executable, str(HERE / "prepare.py"), workload, str(seed), str(directory)]
    times, raw = [], []
    before = [calibrate.round_seconds() for _ in range(SETUP_ROUNDS)]
    for attempt in range(SETUP_REPEATS + 1):
        t0 = perf_counter()
        subprocess.run(argv, check=True, stdout=subprocess.DEVNULL, preexec_fn=_limit_cpu)
        seconds = perf_counter() - t0
        after = [calibrate.round_seconds() for _ in range(SETUP_ROUNDS)]
        if attempt:
            times.append(scaled(seconds, before + after))
            raw.append(seconds)
        before = after
    return statistics.median(times), statistics.median(raw)


def measure(args, run):
    """Passes until the time is used; returns the end-to-end metric values."""
    setup_s, raw_setup_s = measure_setup(args.workload, args.seed, Path("setup"))
    jobs = {}
    walls, latencies, raw_walls, raw_latencies, elapsed, rounds = [], [], [], [], [], []
    deadline = perf_counter() + args.seconds
    while len(walls) < MIN_PASSES or perf_counter() + statistics.median(elapsed) <= deadline:
        variant = len(walls) % workloads.VARIANTS
        if variant not in jobs:
            jobs[variant] = workloads.build(args.workload, args.seed, variant, args.tiny)
        t0 = perf_counter()
        wall, results, pass_rounds = run_pass(jobs[variant])
        elapsed.append(perf_counter() - t0)
        walls.append(scaled(wall, pass_rounds))
        raw_walls.append(wall)
        for i, r in enumerate(results):
            latencies.append(scaled(r[3], pass_rounds[i:i + 2]))
            raw_latencies.append(r[3])
        rounds.extend(pass_rounds)
        judge(run, variant, results)
    return {
        "wall_s": statistics.median(walls),
        "job_p50_ms": statistics.median(latencies) * 1000,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }, {
        "passes": len(walls),
        "jobs_per_pass": len(jobs[0]),
        "pass_wall_s": [round(w, 3) for w in walls],
        "unscaled": {
            "wall_s": statistics.median(raw_walls),
            "job_p50_ms": statistics.median(raw_latencies) * 1000,
            "setup_s": raw_setup_s,
            "calibration_round_ms": statistics.median(rounds) * 1000,
        },
    }


def trace(args, run):
    """Untraced, traced and counted runs of pass 0; returns the per-layer metric values."""
    from tracer import FieldCounter, Tracer, layer_metrics

    jobs = workloads.build(args.workload, args.seed, 0, args.tiny)
    untraced_s, results, rounds = run_pass(jobs)
    untraced_s = scaled(untraced_s, rounds)
    reference = judge(run, 0, results)

    tracer = Tracer()
    tracer.install()
    try:
        traced_s, results, rounds = run_pass(jobs, tracer)
    finally:
        tracer.uninstall()
    traced_s = scaled(traced_s, rounds)
    judge(run, 0, results, reference, full_checks=False)

    counter = FieldCounter()
    counter.install()
    try:
        _, results, _ = run_pass(jobs)
    finally:
        counter.uninstall()
    judge(run, 0, results, reference, full_checks=False)

    out = HERE / "_traces"
    out.mkdir(exist_ok=True)
    tracer.write(out / f"{args.workload}-seed{args.seed}{'-tiny' if args.tiny else ''}.json")
    values = layer_metrics(tracer, counter.metrics(), traced_s / untraced_s)
    return values, {"passes": 3, "jobs_per_pass": len(jobs), "untraced_wall_s": untraced_s, "traced_wall_s": traced_s}


def load_golden(workload, seed, tiny):
    path = HERE / "golden" / f"{workload}.json"
    if tiny or not path.exists():
        return None
    return json.loads(path.read_text(encoding="utf-8")).get(str(seed))


def revision():
    """The git commit of the checkout if it is a repository, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def tree_digest(paths):
    h = hashlib.sha256()
    for path in paths:
        h.update(path.as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes (no golden digests)")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "baric" / "cli.py").is_file():
        print(f"error: the baric sources are missing under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    run = Run(load_golden(args.workload, args.seed, args.tiny))
    work = HERE / "_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    cwd = os.getcwd()
    try:
        os.chdir(work)
        values, info = (trace if args.trace else measure)(args, run)
        documents = tree_digest(sorted(Path().glob("in*/*")))
        info["inputs_sha256"] = _sha(documents + json.dumps(sorted(run.argv.items())))
        info["transcripts_sha256"] = _sha(json.dumps(sorted(run.seen.items())))
    finally:
        os.chdir(cwd)
        shutil.rmtree(work, ignore_errors=True)

    wanted = [(m.name, m.unit) for m in (metrics.PER_LAYER if args.trace else metrics.END_TO_END)]
    values = {name: values.get(name, 0) for name, _ in wanted}  # a layer the workload never enters
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        **info,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "fail_frac": len(run.failures) / run.attempted,
        "golden": "checked" if run.golden else "none stored for this seed",
        "git_sha": revision(),
        "src_sha256": tree_digest(sorted(SRC.glob("baric/*.py"))),
        "machine": {"cpus": os.cpu_count(), "python": platform.python_version(), "platform": platform.platform()},
    }
    for failure in run.failures[:20]:
        print(f"FAILED {failure}")
    print(json.dumps(context))
    print("  ".join(f"{name}={values[name]:.6g} {unit}" for name, unit in wanted) + f"  fail_frac={context['fail_frac']:.6g}")
    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
