"""Layered Sharon benchmark: set-up, batch run and micro-batch latency.

    python3 perfbench/run.py --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]

Builds the program and the benchmark from source (see build.py), then runs
each workload in its own JVM on Spark local[*]. The last line of standard
output is one JSON object with `correct`, `attempted`, `failed` and
`metrics`: the end-to-end metrics, or with `--trace 1` the per-layer
metrics of a traced pass that follows the untraced rounds. The exit code is
non-zero when any check fails or the benchmark cannot run.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import build  # noqa: E402

WORKLOADS = ["shared-wide", "fleet"]
DEFAULT_SEED = 1
TIMEOUT_S = 170
JVM_OPTIONS = [
    "-Xms3g",
    "-Xmx3g",
    # Stop-the-world collections only: no concurrent GC threads compete
    # with the measured work.
    "-XX:+UseParallelGC",
    "-XX:+IgnoreUnrecognizedVMOptions",
    # The module openings Spark's launcher adds on Java 17.
    "--add-opens=java.base/java.lang=ALL-UNNAMED",
    "--add-opens=java.base/java.lang.invoke=ALL-UNNAMED",
    "--add-opens=java.base/java.lang.reflect=ALL-UNNAMED",
    "--add-opens=java.base/java.io=ALL-UNNAMED",
    "--add-opens=java.base/java.net=ALL-UNNAMED",
    "--add-opens=java.base/java.nio=ALL-UNNAMED",
    "--add-opens=java.base/java.util=ALL-UNNAMED",
    "--add-opens=java.base/java.util.concurrent=ALL-UNNAMED",
    "--add-opens=java.base/java.util.concurrent.atomic=ALL-UNNAMED",
    "--add-opens=java.base/jdk.internal.ref=ALL-UNNAMED",
    "--add-opens=java.base/sun.nio.ch=ALL-UNNAMED",
    "--add-opens=java.base/sun.nio.cs=ALL-UNNAMED",
    "--add-opens=java.base/sun.security.action=ALL-UNNAMED",
    "--add-opens=java.base/sun.util.calendar=ALL-UNNAMED",
    "-Djdk.reflect.useDirectMethodHandle=false",
    "-Dio.netty.tryReflectionSetAccessible=true",
]


def run_workload(classes, name, seed, seconds, trace):
    """Runs one workload; relays its output and returns (exit code, result)."""
    work = os.path.join(build.OUT, "run")
    for scratch in ("spark", "tmp", "warehouse"):
        shutil.rmtree(os.path.join(work, scratch), ignore_errors=True)
    os.makedirs(os.path.join(work, "tmp"))
    cmd = ["java"] + JVM_OPTIONS + [
        f"-Djava.io.tmpdir={os.path.join(work, 'tmp')}",
        f"-Dlog4j2.configurationFile={os.path.join(HERE, 'log4j2.properties')}",
        "-cp", build.classpath(classes),
        "repro.perfbench.Main",
        "--workload", name, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--work-dir", work,
    ]
    if seed == DEFAULT_SEED:
        with open(os.path.join(HERE, "expected.json")) as f:
            recorded = json.load(f).get(name)
        if recorded:
            cmd += ["--expect-digest", recorded["digest"]]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"{name}: no result within {TIMEOUT_S} s", file=sys.stderr)
        return 1, None
    *report, last = proc.stdout.rstrip("\n").split("\n")
    for line in report:
        print(line)
    try:
        result = json.loads(last)
    except ValueError:
        print(last, file=sys.stderr)
        return proc.returncode or 1, None
    return proc.returncode, result


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = p.parse_args()
    try:
        classes = build.build()
    except build.BuildError as e:
        sys.exit(f"build failed: {e}")
    names = WORKLOADS if a.workload == "all" else [a.workload]
    results, code = {}, 0
    for name in names:
        rc, result = run_workload(classes, name, a.seed, a.seconds, a.trace)
        if result is None:
            sys.exit(rc or 1)
        results[name] = result
        code = code or rc
    if len(names) == 1:
        summary = results[names[0]]
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{m}": v for n, r in results.items() for m, v in r["metrics"].items()},
        }
    print(json.dumps(summary))
    sys.exit(code)


if __name__ == "__main__":
    main()
