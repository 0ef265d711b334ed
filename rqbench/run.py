#!/usr/bin/env python3
"""Runs one workload of the ratio-quality benchmark.

    python3 rqbench/run.py --workload <codec|tune|table2> --seed <n> --seconds <s> --trace <0|1>
    python3 rqbench/run.py --self-test

Run it from the repository root. On first use it builds the benchmark with
sbt, offline (rqbench/build.sbt compiles the repository's main sources with
rqbench/src), and caches the class path under rqbench/target keyed by a hash
of the sources. The workload then runs in one JVM, which prints three JSON
lines: provenance, a report with the workload's own figures, and last the
result object. Spark and library logs go to rqbench/target/logs/, and the
spans of a traced run to rqbench/target/traces/.
"""
import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
TARGET = os.path.join(BENCH, "target")
BUILD = os.path.join(TARGET, "bench-build")
BUILD_TIMEOUT_S = 800
RUN_TIMEOUT_S = 170
HEAP = "2g"

# Spark on JDK 17 needs these, as its own launcher passes them.
JVM_MODULE_OPTS = ["-XX:+IgnoreUnrecognizedVMOptions"] + [
    f"--add-opens=java.base/{p}=ALL-UNNAMED" for p in (
        "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net", "java.nio",
        "java.util", "java.util.concurrent", "java.util.concurrent.atomic", "sun.nio.ch",
        "sun.nio.cs", "sun.security.action", "sun.util.calendar")
]


def die(msg, code=2):
    print(f"rqbench: {msg}", file=sys.stderr)
    sys.exit(code)


def sources():
    files = []
    for base in (os.path.join(ROOT, "src", "main", "scala"), os.path.join(BENCH, "src")):
        for d, _, names in os.walk(base):
            files += [os.path.join(d, n) for n in names if n.endswith(".scala")]
    files += [os.path.join(BENCH, "build.sbt"), os.path.join(BENCH, "project", "build.properties")]
    return sorted(files)


def source_hash():
    h = hashlib.sha256()
    for f in sources():
        h.update(os.path.relpath(f, ROOT).encode() + b"\0")
        with open(f, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def run_child(cmd, timeout, **kw):
    """Runs cmd in its own process group; kills the group on timeout.
    Returns (exit code or None on timeout, captured stdout or None)."""
    p = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        out, _ = p.communicate(timeout=timeout)
        return p.returncode, out
    except subprocess.TimeoutExpired:
        for sig in (signal.SIGTERM, signal.SIGKILL):
            try:
                os.killpg(p.pid, sig)
            except ProcessLookupError:
                break
            try:
                p.wait(timeout=10)
                break
            except subprocess.TimeoutExpired:
                continue
        p.wait()
        return None, None
    finally:
        if p.poll() is None:
            os.killpg(p.pid, signal.SIGKILL)
            p.wait()


def classpath(stamp):
    """Class path of the compiled benchmark, building it if the sources changed."""
    cp_file = os.path.join(BUILD, "classpath.txt")
    if os.path.exists(cp_file):
        with open(cp_file) as fh:
            lines = fh.read().splitlines()
        if len(lines) == 2 and lines[0] == stamp:
            return lines[1]
    os.makedirs(BUILD, exist_ok=True)
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    log = os.path.join(BUILD, "build.log")
    # sbt's global state (its own settings, staging) stays inside the checkout
    cmd = ["sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.offline=true",
           f"-Dsbt.global.base={os.path.join(TARGET, 'sbt-global')}", "-J-XX:-UsePerfData",
           "compile", "export Runtime/fullClasspath"]
    with open(log, "w") as out:
        code, _ = run_child(cmd, BUILD_TIMEOUT_S, cwd=BENCH, env=env, stdout=out,
                            stderr=subprocess.STDOUT, stdin=subprocess.DEVNULL)
    if code != 0:
        die(f"build failed ({'timeout' if code is None else f'exit {code}'}); see {log}", 1)
    classes = os.path.join(BENCH, "target", "scala-2.13", "classes")
    with open(log) as fh:
        cps = [ln.strip() for ln in fh if ln.strip().startswith(classes)]
    if not cps:
        die(f"build printed no class path; see {log}", 1)
    with open(cp_file, "w") as fh:
        fh.write(f"{stamp}\n{cps[-1]}\n")
    return cps[-1]


def gc_opts(workload):
    """The single-threaded workloads use the serial collector with a small
    young generation: short collections on the calling thread, with no GC
    threads to wait on when other processes hold the cores. table2 runs four
    Spark task threads and keeps the default parallel collector."""
    return [] if workload == "table2" else ["-XX:+UseSerialGC", "-Xmn32m"]


def git_commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True,
                             timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "none"
    except (OSError, subprocess.TimeoutExpired):
        return "none"


def l3_bytes():
    """L3 size in bytes from the C library, else from sysfs, else 0 (unknown)."""
    try:
        n = os.sysconf("SC_LEVEL3_CACHE_SIZE")
        if n > 0:
            return n
    except (ValueError, OSError):
        pass
    try:
        with open("/sys/devices/system/cpu/cpu0/cache/index3/size") as fh:
            size = fh.read().strip()
        scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(size[-1:], 1)
        return int(size.rstrip("KMG")) * scale
    except (OSError, ValueError):
        return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=["codec", "tune", "table2"])
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=[0, 1])
    ap.add_argument("--self-test", action="store_true")
    a = ap.parse_args()
    if not a.self_test and None in (a.workload, a.seed, a.seconds, a.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")
    if not os.path.isdir(os.path.join(ROOT, "src", "main", "scala", "repro")):
        die(f"the repository's sources (src/main/scala/repro) are not next to {os.path.relpath(BENCH)}")

    stamp = source_hash()
    cp = classpath(stamp)
    name = "self-test" if a.self_test else f"{a.workload}-seed{a.seed}-trace{a.trace}"
    for d in ("logs", "tmp", "spark-local", "traces"):
        os.makedirs(os.path.join(TARGET, d), exist_ok=True)
    java = os.path.join(os.environ["JAVA_HOME"], "bin", "java") if "JAVA_HOME" in os.environ else "java"
    # -XX:-UsePerfData: no hsperfdata file outside the checkout
    cmd = [java, f"-Xms{HEAP}", f"-Xmx{HEAP}", "-XX:-UsePerfData", *gc_opts(a.workload), *JVM_MODULE_OPTS,
           f"-Djava.io.tmpdir={os.path.join(TARGET, 'tmp')}",
           f"-Dlog4j2.configurationFile={os.path.join(BENCH, 'log4j2.properties')}",
           f"-Drqbench.logFile={os.path.join(TARGET, 'logs', name + '.log')}",
           f"-Drqbench.sparkLocalDir={os.path.join(TARGET, 'spark-local')}",
           f"-Drqbench.sparkWarehouse={os.path.join(TARGET, 'spark-warehouse')}",
           "-cp", cp, "repro.perf.Main"]
    if a.self_test:
        cmd.append("--self-test")
    else:
        cmd += ["--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
                "--trace", str(a.trace),
                "--span-file", os.path.join(TARGET, "traces", name + ".jsonl"),
                "--info", f"git_commit={git_commit()}", "--info", f"source_sha256={stamp}",
                "--info", f"l3_bytes={l3_bytes()}", "--info", f"heap={HEAP}"]
    code, out = run_child(cmd, RUN_TIMEOUT_S, cwd=ROOT, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL,
                          text=True)
    if code is None:
        die(f"{name} did not finish within {RUN_TIMEOUT_S} s", 1)
    lines = out.splitlines()
    for ln in lines:
        print(ln)
    sys.stdout.flush()
    if a.self_test:
        sys.exit(code)
    try:
        result = json.loads(lines[-1])
        ok = set(result) == {"correct", "attempted", "failed", "metrics"}
    except (IndexError, ValueError):
        ok = False
    if code == 0 and not ok:
        die("the last output line is not a result object", 1)
    if code == 0 and set(result["metrics"]) != declared_metrics(a.trace):
        die("the metrics printed differ from those BENCHMARK.json declares", 1)
    sys.exit(code)


def declared_metrics(trace):
    """Metric names BENCHMARK.json declares for an untraced or a traced run."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path) as fh:
        bench = json.load(fh)
    return {m["name"] for m in bench["per_layer" if trace else "end_to_end"]}


if __name__ == "__main__":
    main()
