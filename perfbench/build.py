#!/usr/bin/env python3
"""Build file of the benchmark: compiles the program and the benchmark.

The repository's own build is sbt. This benchmark calls the Scala compiler
that ships with the Spark distribution directly instead, so that a build
reads only the checkout and the Spark jars, and writes only under
`.bench_build/` in the checkout.

    python3 perfbench/build.py        # prints the class directory

Sources: every `.scala` file under `src/main/scala` (the program) and under
`perfbench/src` (the benchmark). The output directory is keyed by a hash of
those sources and of the compiler classpath, so an unchanged tree is built
once. Exits non-zero, with the reason on stderr, when the program sources
or the Spark jars are missing.
"""
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
SOURCE_DIRS = [os.path.join(ROOT, "src", "main", "scala"), os.path.join(HERE, "src")]


def spark_jars():
    """The Spark distribution's jar directory, from SPARK_HOME or PATH."""
    home = os.environ.get("SPARK_HOME")
    if not home:
        submit = shutil.which("spark-submit")
        if submit:
            home = os.path.dirname(os.path.dirname(os.path.realpath(submit)))
    jars = os.path.join(home, "jars") if home else ""
    if not jars or not os.path.isdir(jars):
        sys.exit("build: no Spark distribution found (set SPARK_HOME)")
    return sorted(os.path.join(jars, j) for j in os.listdir(jars) if j.endswith(".jar"))


def sources():
    found = []
    for d in SOURCE_DIRS:
        for dirpath, _, files in os.walk(d):
            found += [os.path.join(dirpath, f) for f in files if f.endswith(".scala")]
    if not any(f.startswith(SOURCE_DIRS[0]) for f in found):
        sys.exit("build: no program sources under src/main/scala")
    return sorted(found)


def build():
    """Compile if needed; return (class directory, runtime classpath list)."""
    jars = spark_jars()
    srcs = sources()
    h = hashlib.sha256()
    for path in jars:
        h.update(os.path.basename(path).encode())
    for path in srcs:
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    out = os.path.join(BUILD_DIR, "classes-" + h.hexdigest()[:16])
    if not os.path.isfile(os.path.join(out, ".done")):
        if os.path.isdir(BUILD_DIR):
            shutil.rmtree(BUILD_DIR)
        os.makedirs(out)
        cp = os.pathsep.join(jars)
        cmd = ["java", "-XX:-UsePerfData", "-Xss8m", "-Xmx2g", "-cp", cp, "scala.tools.nsc.Main",
               "-nowarn", "-d", out, "-classpath", cp] + srcs
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            sys.exit("build: scalac failed")
        open(os.path.join(out, ".done"), "w").close()
    return out, jars


if __name__ == "__main__":
    print(build()[0])
