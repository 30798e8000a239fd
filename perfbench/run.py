#!/usr/bin/env python3
"""Build and run the end-to-end benchmark from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/bench.exe with dune, runs it, and prints two lines:
the full report (every metric with its unit and clock, the failures,
the seed and the run metadata), then, as the last line, the result
object {"correct", "attempted", "failed", "metrics"} holding the
end-to-end metrics of BENCHMARK.json (--trace 0) or its per-layer
metrics (--trace 1). The report and, for traced runs, the span file are
also written under perfbench/out/. Exits 2 if the build or the run
fails, without printing a result.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

BENCH_DIR = "perfbench"
OUT_DIR = os.path.join(BENCH_DIR, "out")
TARGET = "./perfbench/bench.exe"
EXE = os.path.join("_build", "default", "perfbench", "bench.exe")
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def tool_output(argv):
    try:
        return subprocess.run(argv, capture_output=True, text=True, timeout=30,
                              check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def source_digest():
    """sha256 over the library and benchmark sources, so runs of checkouts
    that are not git repositories can still be told apart."""
    h = hashlib.sha256()
    for top in ("lib", BENCH_DIR):
        for root, dirs, files in os.walk(top):
            dirs[:] = sorted(d for d in dirs if d != "out")
            for name in sorted(files):
                if name.endswith((".ml", ".mli", "dune")):
                    path = os.path.join(root, name)
                    h.update(path.encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()[:16]


def git_rev():
    """HEAD of the checkout, or "unknown" when it is not a git work tree
    of its own (an exported checkout nested in another repository)."""
    top = tool_output(["git", "rev-parse", "--show-toplevel"])
    if top == "unknown" or os.path.realpath(top) != os.path.realpath("."):
        return "unknown"
    return tool_output(["git", "rev-parse", "HEAD"])


def metadata(seed):
    return {
        "seed": seed,
        "git_rev": git_rev(),
        "src_digest": source_digest(),
        "nproc": len(os.sched_getaffinity(0)),
        "ocaml": tool_output(["ocamlfind", "ocamlopt", "-version"]),
        "flambda": tool_output(["ocamlfind", "ocamlopt", "-config-var", "flambda"]),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("run from the root of a source checkout (dune-project, lib/)")
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", TARGET],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.SubprocessError) as e:
        fail(f"build failed: {e}")
    if build.returncode != 0 or not os.path.isfile(EXE):
        sys.stderr.write(build.stdout)
        fail("build failed")

    os.makedirs(OUT_DIR, exist_ok=True)
    argv = [EXE, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--out-dir", OUT_DIR]
    try:
        run = subprocess.run(argv, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.SubprocessError) as e:
        fail(f"benchmark run failed: {e}")
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        fail(f"benchmark exited with {run.returncode}")
    report = json.loads(lines[-1])
    report["meta"] = metadata(args.seed)

    name = f"report-{args.workload}-{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT_DIR, name), "w") as f:
        json.dump(report, f, indent=1)
        f.write("\n")

    got = report["metrics"]
    bad = [m["name"] for m in wanted
           if got.get(m["name"], {}).get("unit") != m["unit"]]
    if bad:
        fail(f"metrics missing from the report or with another unit: {', '.join(bad)}")
    metrics = {m["name"]: {"value": got[m["name"]]["value"], "unit": m["unit"]}
               for m in wanted}
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
