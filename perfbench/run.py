#!/usr/bin/env python3
"""Wall-clock benchmark: AMPC algorithms against their MPC baselines.

Run from the repository root:

    python3 perfbench/run.py --workload mis-mm-skew --seed 1 --seconds 10 --trace 0

Workloads and their parameters are in perfbench/workloads.json. The first
run builds the repository's sources together with the harness in
perfbench/src (sbt, offline) into .bench_build/; later runs reuse the build
until a source file changes. Each run is one JVM: it generates the
workload's graph from --seed, times passes over the AMPC and MPC calls
for at least --seconds and at least five passes, checks every output
against repro.ref.Reference, and prints as its last
line one JSON object with the end-to-end metrics (--trace 0) or the
per-layer metrics (--trace 1). The exit code is non-zero when any call
failed or disagreed with its oracle.
"""
import argparse
import hashlib
import json
import os
import pathlib
import shutil
import signal
import subprocess
import sys

ROOT = pathlib.Path.cwd()
BENCH = ROOT / "perfbench"
BUILD = ROOT / ".bench_build" / "perfbench"
# Class-data-sharing archive of the classes a run loads: written after each
# build by one short unmeasured run, mapped by every run to cut JVM start-up.
CDS_ARCHIVE = BUILD / "classes.jsa"
RUN_TIMEOUT_S = 170
# Driver heap of the harness JVM, fixed and pre-touched: no page faults on
# fresh heap mid-pass.
HEAP = "2g"

# Module access Spark needs on JDK 17 (as Spark's own launcher passes).
JVM_OPENS = [
    "-XX:+IgnoreUnrecognizedVMOptions",
    *(f"--add-opens=java.base/{p}=ALL-UNNAMED" for p in (
        "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net",
        "java.nio", "java.util", "java.util.concurrent", "java.util.concurrent.atomic",
        "jdk.internal.ref", "sun.nio.ch", "sun.nio.cs", "sun.security.action",
        "sun.util.calendar")),
    "-Djdk.reflect.useDirectMethodHandle=false",
    "-Dio.netty.tryReflectionSetAccessible=true",
]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def source_files():
    roots = [ROOT / "src" / "main", BENCH / "src"]
    files = [BENCH / "build.sbt", BENCH / "project" / "build.properties"]
    for r in roots:
        files += sorted(p for p in r.rglob("*") if p.is_file())
    return files


def build():
    """Compile program and harness; return the runtime classpath."""
    digest = hashlib.sha256()
    for f in source_files():
        digest.update(str(f.relative_to(ROOT)).encode())
        digest.update(f.read_bytes())
    stamp = digest.hexdigest()
    stamp_file, cp_file = BUILD / "stamp", BUILD / "classpath"
    if stamp_file.is_file() and cp_file.is_file() and stamp_file.read_text() == stamp:
        return cp_file.read_text()
    BUILD.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PERFBENCH_TARGET=str(BUILD / "target"))
    repos = pathlib.Path.home() / ".sbt" / "repositories"
    env.setdefault("SBT_OPTS", " ".join(
        ([f"-Dsbt.override.build.repos=true -Dsbt.repository.config={repos}"] if repos.is_file() else [])
        + ["-Dsbt.offline=true", "-Xmx2g"]))
    env.setdefault("COURSIER_MODE", "offline")
    cmd = ["sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.autostart=false",
           f"-Dsbt.global.base={ROOT / '.bench_build' / 'sbt-global'}",
           "compile", "export Compile/fullClasspath"]
    print("perfbench: building (first run in this checkout)", file=sys.stderr)
    proc = subprocess.run(cmd, cwd=BENCH, env=env, stdout=subprocess.PIPE, text=True)
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    sys.stderr.write("\n".join(lines[:-1]) + "\n")
    if proc.returncode != 0 or not lines or "perfbench" not in lines[-1]:
        fail(f"build failed (sbt exit {proc.returncode})")
    cp_file.write_text(lines[-1].strip())
    CDS_ARCHIVE.unlink(missing_ok=True)
    stamp_file.write_text(stamp)
    return cp_file.read_text()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    config = BENCH / "workloads.json"
    if not (ROOT / "src" / "main" / "scala").is_dir() or not config.is_file():
        fail("run from the repository root: the program's sources are missing")
    cfg = json.loads(config.read_text())
    if args.workload not in cfg["workloads"]:
        fail(f"unknown workload {args.workload!r}; known: {', '.join(cfg['workloads'])}")

    # Report exactly the metrics BENCHMARK.json names for this mode.
    bench_json = ROOT / "BENCHMARK.json"
    only = []
    if bench_json.is_file():
        spec = json.loads(bench_json.read_text())
        only = ["--metrics", ",".join(m["name"] for m in spec["per_layer" if args.trace else "end_to_end"])]

    classpath = build()
    java = os.path.join(os.environ["JAVA_HOME"], "bin", "java") if "JAVA_HOME" in os.environ else "java"

    def harness(cds, extra, **popen):
        work = ROOT / ".bench_build" / f"run-{os.getpid()}"
        (work / "tmp").mkdir(parents=True, exist_ok=True)
        # No class unloading: the full collection before each pass would
        # unload Spark's generated classes and throw away the compiled code
        # that depends on them, so every pass re-warmed; the first AMPC call
        # of a pass ran 40-60% slower than a second one right after it.
        cmd = [java, f"-Xms{HEAP}", f"-Xmx{HEAP}", "-XX:+AlwaysPreTouch", "-XX:-ClassUnloading", cds,
               f"-Djava.io.tmpdir={work / 'tmp'}", *JVM_OPENS,
               "-cp", classpath, "repro.perfbench.Main",
               "--config", str(config), "--work-dir", str(work),
               "--workload", args.workload, *extra]
        return subprocess.Popen(cmd, cwd=ROOT, **popen), work

    if not CDS_ARCHIVE.is_file():
        print("perfbench: writing the class-data-sharing archive", file=sys.stderr)
        proc, work = harness(f"-XX:ArchiveClassesAtExit={CDS_ARCHIVE}",
                             ["--seed", "0", "--seconds", "0", "--trace", "0", "--once", "1"],
                             stdout=subprocess.DEVNULL)
        try:
            proc.wait(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        shutil.rmtree(work, ignore_errors=True)

    proc, work = harness(f"-XX:SharedArchiveFile={CDS_ARCHIVE}",
                         ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace), *only])

    def stop(*_):
        proc.kill()
        proc.wait()
        sys.exit(1)

    signal.signal(signal.SIGTERM, stop)
    try:
        rc = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        rc = 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    sys.exit(rc)


if __name__ == "__main__":
    main()
