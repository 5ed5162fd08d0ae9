#!/usr/bin/env python3
"""The repository benchmark: build, run one workload, check, report.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The program is built from that checkout's
sources into $CARGO_TARGET_DIR (default .bench_build). The last line of
standard output is the result object; build logs and diagnostics go to
standard error. Any failure exits non-zero and names the step that failed.
See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time

START = time.monotonic()
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# OpenMP threads per workload, never the host default; lanes x kernel
# threads stays within 4 cores. The socket workloads already run 8-10
# threads (lanes, event loops, router sessions, shipper, clients).
OMP_THREADS = {
    "kron17_inproc": 2,      # 2 kernel threads + the probe and Σ threads
    "router_query_mix": 1,   # 2 single-lane workers
    "replicated_ingest": 1,  # 2 primary lanes + 2 replica lanes
}
RUN_BUDGET_S = 175  # a run must end within 180 s


def fail(step, detail=""):
    print(f"perfbench: FAILED at step '{step}'" + (f": {detail}" if detail else ""),
          file=sys.stderr)
    sys.exit(1)


def run_logged(cmd, log, step):
    with open(log, "w") as f:
        try:
            r = subprocess.run(cmd, cwd=ROOT, stdout=f, stderr=subprocess.STDOUT)
        except OSError as e:
            fail(step, str(e))
    if r.returncode != 0:
        with open(log) as f:
            tail = f.read()[-4000:]
        sys.stderr.write(tail)
        fail(step, f"exit code {r.returncode}; log in {log}")


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("locate sources", f"no src/CMakeLists.txt under {ROOT}")
    for tool in ("cmake", "c++"):
        if shutil.which(tool) is None:
            fail("locate toolchain", f"{tool} not found")
    os.makedirs(build_dir, exist_ok=True)
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        run_logged(["cmake", "-S", HERE, "-B", build_dir,
                    "-DCMAKE_BUILD_TYPE=Release"],
                   os.path.join(build_dir, "configure.log"), "configure")
    run_logged(["cmake", "--build", build_dir, "-j4", "--target", "perfbench",
                "perfbench_selftest"],
               os.path.join(build_dir, "build.log"), "build")


def expected_metrics(trace):
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
    except (OSError, ValueError, KeyError) as e:
        fail("read BENCHMARK.json", str(e))


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=sorted(OMP_THREADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    a = ap.parse_args()
    if not a.selftest and a.workload is None:
        ap.error("--workload is required")

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build(build_dir)

    if a.selftest:
        r = subprocess.run([os.path.join(build_dir, "perfbench_selftest")], cwd=ROOT)
        if r.returncode != 0:
            fail("selftest", f"exit code {r.returncode}")
        return

    expected = expected_metrics(a.trace == 1)
    tmp_root = os.path.join(ROOT, ".bench_tmp")
    os.makedirs(tmp_root, exist_ok=True)
    tmpdir = tempfile.mkdtemp(prefix="run-", dir=tmp_root)
    env = dict(os.environ, OMP_NUM_THREADS=str(OMP_THREADS[a.workload]))
    cmd = [os.path.join(build_dir, "perfbench"), "--workload", a.workload,
           "--seed", str(a.seed), "--seconds", str(a.seconds),
           "--trace", str(a.trace), "--tmpdir", tmpdir]
    budget = max(30.0, RUN_BUDGET_S - (time.monotonic() - START))
    try:
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                                text=True)
        try:
            out, _ = proc.communicate(timeout=budget)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            fail("run workload", f"no result within {budget:.0f} s")
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
        try:
            os.rmdir(tmp_root)
        except OSError:
            pass  # another run's directory is still there

    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("run workload", f"exit code {proc.returncode}, no result line")
    if proc.returncode != 0 or not result.get("correct"):
        print(lines[-1])
        fail("check outputs", f"exit code {proc.returncode}, correct={result.get('correct')}")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("check result", f"keys {sorted(result)}")
    if set(result["metrics"]) != expected:
        fail("check result", "metrics differ from BENCHMARK.json: "
             f"{sorted(set(result['metrics']) ^ expected)}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
