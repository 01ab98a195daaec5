"""Record the golden digests of every job for the benchmark's fixed seeds.

    python3 perfbench/golden.py [SEED ...]     (default: seeds 0 to 10)

Runs every pass variant of every workload once, with all output checks on,
and writes perfbench/golden/<workload>.json mapping seed -> variant -> job
-> digest of (exit code, stdout, written files). It refuses to write if any
job fails its checks. Rerun it only when a change is meant to alter output.
"""

import json
import os
import shutil
import sys

import run
import workloads

FIXED_SEEDS = range(11)


def main(argv):
    seeds = [int(s) for s in argv] or list(FIXED_SEEDS)
    sys.path.insert(0, str(run.SRC))
    out = run.HERE / "golden"
    out.mkdir(exist_ok=True)
    work = run.HERE / "_work" / f"golden-{os.getpid()}"
    work.mkdir(parents=True)
    cwd = os.getcwd()
    try:
        os.chdir(work)
        for workload in sorted(workloads.BUILDERS):
            path = out / f"{workload}.json"
            golden = json.loads(path.read_text()) if path.exists() else {}
            for seed in seeds:
                record = run.Run(None)
                golden[str(seed)] = {
                    str(v): run.judge(record, v, run.run_pass(workloads.build(workload, seed, v))[1])
                    for v in range(workloads.VARIANTS)
                }
                if record.failures:
                    print("\n".join(record.failures), file=sys.stderr)
                    return 1
                print(f"{workload} seed {seed}: {record.attempted} jobs", flush=True)
            lines = [f"{json.dumps(seed)}: {json.dumps(golden[seed])}" for seed in sorted(golden, key=int)]
            path.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
    finally:
        os.chdir(cwd)
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
