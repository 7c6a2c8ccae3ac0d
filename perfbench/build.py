"""Build file of the benchmark.

Compiles the program's `repro.core`, `repro.exec` and `repro.workload`
packages from source together with the benchmark's own Scala sources,
using the Scala compiler that ships with the Spark distribution (the
program's Scala version). The result is cached under `.bench_build/` and
rebuilt whenever a source file or the Spark jar set changes.

    python3 perfbench/build.py        # build (or confirm the cache) and print the classes dir
"""
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_build", "perfbench")

PROGRAM_SOURCES = [
    "src/main/scala/repro/core",
    "src/main/scala/repro/exec",
    "src/main/scala/repro/workload",
]
BENCH_SOURCES = ["perfbench/src"]


class BuildError(Exception):
    pass


def spark_jars():
    home = os.environ.get("SPARK_HOME")
    if not home:
        submit = shutil.which("spark-submit")
        if submit:
            home = os.path.dirname(os.path.dirname(os.path.realpath(submit)))
    jars = os.path.join(home or "", "jars")
    if not home or not os.path.isdir(jars):
        raise BuildError("no Spark distribution found: set SPARK_HOME")
    return jars


def classpath(*dirs):
    return os.pathsep.join(list(dirs) + [os.path.join(spark_jars(), "*")])


def sources():
    found = []
    for rel in PROGRAM_SOURCES + BENCH_SOURCES:
        top = os.path.join(ROOT, rel)
        files = sorted(
            os.path.join(d, f)
            for d, _, fs in os.walk(top)
            for f in fs
            if f.endswith(".scala")
        )
        if not files:
            raise BuildError(f"no Scala sources under {rel}")
        found += files
    return found


def build():
    """Returns the classes directory, compiling first if it is stale."""
    srcs = sources()
    h = hashlib.sha256()
    for path in srcs:
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            h.update(hashlib.sha256(f.read()).digest())
    h.update("\n".join(sorted(os.listdir(spark_jars()))).encode())
    stamp_path = os.path.join(OUT, "stamp")
    classes = os.path.join(OUT, "classes")
    if os.path.isdir(classes) and os.path.exists(stamp_path):
        with open(stamp_path) as f:
            if f.read() == h.hexdigest():
                return classes
    staging = classes + ".staging"
    shutil.rmtree(staging, ignore_errors=True)
    os.makedirs(staging)
    print(f"compiling {len(srcs)} Scala sources ...", file=sys.stderr, flush=True)
    cmd = ["java", "-Xss8m", "-Xmx2g", "-cp", classpath(), "scala.tools.nsc.Main",
           "-usejavacp", "-nowarn", "-d", staging] + srcs
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        raise BuildError("compilation failed")
    shutil.rmtree(classes, ignore_errors=True)
    os.rename(staging, classes)
    with open(stamp_path, "w") as f:
        f.write(h.hexdigest())
    return classes


if __name__ == "__main__":
    try:
        print(build())
    except BuildError as e:
        sys.exit(f"build failed: {e}")
