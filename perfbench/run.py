#!/usr/bin/env python3
"""Benchmark of the DCS pipeline: one workload per invocation.

    python3 perfbench/run.py --workload dcs-answer --seed 1 --seconds 10 --trace 0

Run from the repository root. The first run compiles the program's main
sources together with the benchmark's own sources (perfbench/src) with sbt into
.bench_build/, and later runs reuse that build while the sources are
unchanged. The benchmark then runs in one JVM with Spark in local mode on every
core. The last line of stdout is the JSON result; results of earlier runs
kept in .bench_build/results let a later run with the same seed check that
its result digest is unchanged.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ("dcs-answer", "topics-exhaustive")
BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
BUILD = os.path.join(ROOT, ".bench_build")
CLASSES = os.path.join(BUILD, "target", "scala-2.13", "classes")
PROGRAM_SOURCES = [os.path.join(ROOT, "src", "main", "scala"), os.path.join(ROOT, "jobs")]
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170
HEAP = "3g"

# Module access Spark needs on Java 17 (what spark-submit passes by default).
JAVA_OPENS = ["-XX:+IgnoreUnrecognizedVMOptions"] + [
    "--add-opens=java.base/%s=ALL-UNNAMED" % p for p in (
        "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net",
        "java.nio", "java.util", "java.util.concurrent", "java.util.concurrent.atomic",
        "jdk.internal.ref", "sun.nio.ch", "sun.nio.cs", "sun.security.action",
        "sun.util.calendar")
] + ["-Djdk.reflect.useDirectMethodHandle=false", "-Dio.netty.tryReflectionSetAccessible=true"]


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def source_files():
    roots = PROGRAM_SOURCES + [os.path.join(BENCH, "src")]
    files = [os.path.join(BENCH, "build.sbt"), os.path.join(BENCH, "project", "build.properties")]
    for r in roots:
        for d, _, names in os.walk(r):
            files += [os.path.join(d, n) for n in names if n.endswith(".scala")]
    return sorted(files)


def source_hash():
    h = hashlib.sha256()
    for f in source_files():
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def spark_home():
    home = os.environ.get("SPARK_HOME")
    if not home and shutil.which("spark-submit"):
        home = os.path.dirname(os.path.dirname(os.path.realpath(shutil.which("spark-submit"))))
    if not home or not os.path.isdir(os.path.join(home, "jars")):
        fail("no Spark distribution found (set SPARK_HOME)")
    return home


def run_bounded(cmd, timeout, **kw):
    """Runs cmd to completion or kills it after timeout seconds; waits either way."""
    proc = subprocess.Popen(cmd, **kw)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return None, None
    return proc.returncode, out


def build(src_hash, env):
    stamp = os.path.join(BUILD, "build.stamp")
    if os.path.isdir(CLASSES) and os.path.exists(stamp) and open(stamp).read() == src_hash:
        return
    sbt = shutil.which("sbt")
    if not sbt:
        fail("sbt not found")
    os.makedirs(BUILD, exist_ok=True)
    cmd = [sbt, "--batch", "-Dsbt.log.noformat=true", "-Dsbt.offline=true", "-Dsbt.server.autostart=false",
           "-Dsbt.global.base=" + os.path.join(BUILD, "sbt-global"), "clean", "compile"]
    with open(os.path.join(BUILD, "build.log"), "w") as log:
        code, _ = run_bounded(cmd, BUILD_TIMEOUT_S, cwd=BENCH, env=env, stdout=log,
                              stderr=subprocess.STDOUT, stdin=subprocess.DEVNULL)
    if code != 0:
        fail("build failed; see .bench_build/build.log")
    with open(stamp, "w") as fh:
        fh.write(src_hash)


def commit_id(src_hash):
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
        if r.returncode == 0:
            return r.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "sources-" + src_hash[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    for d in PROGRAM_SOURCES:
        if not os.path.isdir(d):
            fail("program sources not found at %s; run from a full checkout" % os.path.relpath(d, ROOT))
    home = spark_home()
    java = shutil.which("java")
    if not java:
        fail("java not found")
    nproc = len(os.sched_getaffinity(0))
    local = os.path.join(BUILD, "spark-local")
    tmp = os.path.join(BUILD, "tmp")
    for d in (local, tmp):
        os.makedirs(d, exist_ok=True)
    env = dict(os.environ, SPARK_HOME=home, SPARK_MASTER="local[%d]" % nproc, SPARK_LOCAL_DIRS=local)

    src_hash = source_hash()
    build(src_hash, env)

    results = os.path.join(BUILD, "results", src_hash[:16])
    cmd = [java, "-Xmx" + HEAP, "-Djava.io.tmpdir=" + tmp,
           "-Dlog4j2.configurationFile=" + os.path.join(BENCH, "log4j2.properties"),
           "-Dspark.ui.enabled=false", "-Dspark.driver.host=127.0.0.1",
           # two tasks per core; the default of 200 shuffle partitions makes
           # each DistPeeling round pay for 200 near-empty tasks per shuffle
           "-Dspark.sql.shuffle.partitions=%d" % (2 * nproc)] + JAVA_OPENS + [
           "-cp", CLASSES + os.pathsep + os.path.join(home, "jars", "*"),
           "perfbench.Main", "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace), "--out", results,
           "--commit", commit_id(src_hash)]
    code, out = run_bounded(cmd, RUN_TIMEOUT_S, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stdin=subprocess.DEVNULL, text=True)
    if code is None:
        fail("benchmark run exceeded %d s" % RUN_TIMEOUT_S)
    lines = out.rstrip("\n").split("\n")
    if code != 0 or not lines or not lines[-1].startswith("{"):
        sys.stdout.write(out)
        fail("benchmark run failed with exit code %d" % code)
    result = json.loads(lines[-1])

    # the same seed must give the same results on every run of one build;
    # this comparison is one more operation, counted like the others
    digest = next(l.split()[-1] for l in lines if l.startswith("digest "))
    ref = os.path.join(results, "%s-seed%d.digest" % (a.workload, a.seed))
    if os.path.exists(ref):
        expected = open(ref).read().strip()
        result["attempted"] += 1
        if expected != digest:
            lines.insert(-1, "check FAILED result digest %s differs from an earlier run's %s" % (digest, expected))
            result["failed"] += 1
            result["correct"] = False
        if "pass_frac" in result["metrics"]:
            result["metrics"]["pass_frac"]["value"] = (result["attempted"] - result["failed"]) / result["attempted"]
    else:
        with open(ref, "w") as fh:
            fh.write(digest + "\n")
    print("\n".join(lines[:-1]))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
