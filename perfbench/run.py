#!/usr/bin/env python3
"""DUST query benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload search_tus --seed 1 --seconds 20 --trace 0

Run from the repository root. Builds the program and the benchmark from
source (see build.py), then runs one JVM that sets up, answers the
workload's queries in a closed loop with one client for `--seconds` of
query time, checks every answer, and prints a JSON result as the last line
of standard output. `--trace 0` reports the end-to-end metrics; `--trace 1`
reports the per-layer metrics of a traced replay, kernel timings and, on
`diversify_santos`, the in-process vs Spark comparison. Spans go to
`.bench_build/perfbench/run/spans-<workload>-seed<n>.jsonl`.

Workloads: search_tus, diversify_santos, churn_ugen (see src/Workloads.scala).
"""
import argparse
import os
import subprocess
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import build  # noqa: E402

WORKLOADS = ["search_tus", "diversify_santos", "churn_ugen"]
TIMEOUT_S = 170

# Module opens Spark needs on Java 17 (what spark-submit adds).
JAVA_OPENS = [
    "--add-opens=java.base/" + p + "=ALL-UNNAMED"
    for p in ["java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net",
              "java.nio", "java.util", "java.util.concurrent", "java.util.concurrent.atomic",
              "jdk.internal.ref", "sun.nio.ch", "sun.nio.cs", "sun.security.action",
              "sun.util.calendar"]
]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    a = ap.parse_args()

    classes, jars = build.build()
    work = os.path.join(build.BUILD_DIR, "run")
    tmp = os.path.join(work, "tmp")
    os.makedirs(tmp, exist_ok=True)
    cmd = ["java", "-XX:-UsePerfData", "-Xms1g", "-Xmx3g", "-XX:+UseG1GC",
           "-Djava.io.tmpdir=" + tmp,
           "-Dlog4j2.configurationFile=" + os.path.join(build.HERE, "log4j2.properties"),
           "-Dspark.ui.enabled=false", "-Dspark.driver.host=127.0.0.1",
           *JAVA_OPENS,
           "-cp", os.pathsep.join([classes] + jars),
           "repro.perfbench.Main",
           "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
           "--trace", a.trace, "--work-dir", work]
    proc = subprocess.Popen(cmd, cwd=build.ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.exit("perfbench: run exceeded %d s" % TIMEOUT_S)
    lines = out.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines[-1].startswith("{"):
        sys.stderr.write(out)
        sys.exit("perfbench: run failed (exit %d)" % proc.returncode)
    sys.stdout.write(out)


if __name__ == "__main__":
    main()
