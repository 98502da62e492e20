#!/usr/bin/env python3
"""Builds bench_wallclock from source and runs it (see README.md here).

  python3 wallclock/run.py --workload NAME --seed N --seconds T --trace 0|1
      One run of one workload.  --trace 1 is the traced run: per-layer
      metrics, and a Chrome trace written next to the build.  The last
      line of stdout is the JSON result, with the units BENCHMARK.json
      declares; the exit code is 1 when an output was incorrect.
  python3 wallclock/run.py [--seed N] [--seconds T] [--trace 0|1] [--out F]
      Every workload, one after another, each in its own process; writes
      BENCH_wallclock.json (or F) and prints a summary table.
  python3 wallclock/run.py --smoke
      Every workload on small inputs, with all checks and a traced pass.
  python3 wallclock/run.py --compare PARENT.json... -- CHANGE.json...
      Compares sets of BENCH_wallclock.json files, metric by metric.

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the
repository root, which also holds the traces and the journal
directories the durable workload writes and removes.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return base


def build():
    """Configures (once) and builds; returns the benchmark binary."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no library sources in {os.path.join(ROOT, 'src')}")
    out = os.path.join(build_dir(), "wallclock")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    generated = ("build.ninja", "Makefile")
    if not any(os.path.exists(os.path.join(out, f)) for f in generated):
        configure = ["cmake", "-S", HERE, "-B", out,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", out, "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(out, "bench_wallclock")


def run_binary(binary, args):
    """Runs the binary and returns its stdout lines and parsed result.
    Exit code 1 with a result line means some output was incorrect; the
    result says so and is returned."""
    try:
        proc = subprocess.run([binary] + args, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"bench_wallclock timed out after {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    if proc.returncode not in (0, 1) or result is None:
        sys.stderr.write(proc.stdout)
        fail(f"bench_wallclock exited with {proc.returncode}")
    return lines, result


def with_units(spec, kind, result):
    """Replaces the binary's "values" with "metrics" carrying the units
    BENCHMARK.json declares.  Every end-to-end metric must be measured; a
    per-layer metric of a layer the workload does not exercise reads 0."""
    values = result.pop("values")
    declared = {m["name"] for m in spec[kind]}
    if set(values) - declared:
        fail(f"metrics not in BENCHMARK.json: {sorted(set(values) - declared)}")
    if kind == "end_to_end" and declared - set(values):
        fail(f"metrics not measured: {sorted(declared - set(values))}")
    result["metrics"] = {
        m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
        for m in spec[kind]}
    return result


def one_run(binary, spec, workload, seed, seconds, trace):
    work = os.path.join(build_dir(), "wallclock-work")
    args = ["--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--work-dir", work]
    if trace:
        args += ["--trace",
                 os.path.join(build_dir(), f"wallclock-trace-{workload}.json")]
    lines, result = run_binary(binary, args)
    kind = "per_layer" if trace else "end_to_end"
    return lines[:-1], with_units(spec, kind, result)


def run_all(binary, spec, opts):
    names = [w["name"] for w in spec["workloads"]]
    results = {}
    for name in names:
        lines, result = one_run(binary, spec, name, opts.seed, opts.seconds,
                                opts.trace == 1)
        print("\n".join(lines))
        results[name] = result
    out = opts.out or os.path.join(os.getcwd(), "BENCH_wallclock.json")
    with open(out, "w", encoding="utf-8") as f:
        json.dump({"bench": "wallclock", "seed": opts.seed,
                   "seconds": opts.seconds, "trace": opts.trace,
                   "workloads": results}, f, indent=2)
        f.write("\n")
    if not opts.trace:
        metrics = [m["name"] for m in spec["end_to_end"]]
        print(f"\n{'workload':16}" + "".join(f"{m:>14}" for m in metrics))
        for name in names:
            values = results[name]["metrics"]
            print(f"{name:16}" + "".join(
                f"{values[m]['value']:>14.6g}" for m in metrics))
    ok = all(r["correct"] and r["failed"] == 0 for r in results.values())
    print(f"\n{'all outputs correct' if ok else 'INCORRECT OUTPUT'}; "
          f"wrote {out}")
    return 0 if ok else 1


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def compare(spec, parent_files, change_files):
    """Per (workload, metric): medians, quartiles, delta against the
    bound, and a label by the alternating-pairs rule (files pair up in
    the order given): improved when there are at least 10 pairs, the
    change wins at least 9/10 of them and the medians differ by more
    than the parent's quartile spread; regressed when the change's
    median is worse by more than the bound; unresolved when either
    side's spread is wider than the bound (unless every change run beats
    every parent run); unchanged otherwise.  A workload on which a change
    run is incorrect, or fails more calls than every parent run, is
    regressed as a whole: no gain counts there.  Exits 1 on a
    regression."""
    def load(paths):
        runs = []
        for p in paths:
            with open(p, encoding="utf-8") as f:
                runs.append(json.load(f)["workloads"])
        return runs

    parent, change = load(parent_files), load(change_files)
    pairs_run = min(len(parent), len(change))
    if pairs_run < 10:
        print(f"{pairs_run} pair(s): too few to claim a gain (10 needed)")
    regressions = 0
    print(f"{'workload':16}{'metric':14}{'parent med [q1,q3]':>36}"
          f"{'change med [q1,q3]':>36}{'delta':>9}{'bound':>7}  verdict")
    for w in spec["workloads"]:
        parent_failed = max(r[w["name"]]["failed"] for r in parent)
        if any(not r[w["name"]]["correct"]
               or r[w["name"]]["failed"] > parent_failed for r in change):
            print(f"{w['name']:16}{'outputs':14}"
                  f"{'incorrect, or more failed calls than the parent':>88}"
                  "  regressed")
            regressions += 1
            continue
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            sign = 1 if m["better"] == "higher" else -1
            a = [r[w["name"]]["metrics"][name]["value"] for r in parent]
            b = [r[w["name"]]["metrics"][name]["value"] for r in change]
            ma, mb = statistics.median(a), statistics.median(b)
            qa, qb = quartiles(a), quartiles(b)
            gain = sign * (mb - ma) / ma  # > 0: the change is better
            spread = max(qa[1] - qa[0], qb[1] - qb[0]) / ma
            pairs = list(zip(a, b))
            wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
            all_better = min(sign * y for y in b) > max(sign * x for x in a)
            if len(pairs) >= 10 and wins >= 0.9 * len(pairs) \
                    and gain > (qa[1] - qa[0]) / ma \
                    and (spread <= bound or all_better):
                verdict = "improved"
            elif spread > bound and not all_better:
                verdict = "unresolved"
            elif gain < -bound:
                verdict = "regressed"
                regressions += 1
            else:
                verdict = "unchanged"
            print(f"{w['name']:16}{name:14}"
                  f"{f'{ma:.5g} [{qa[0]:.5g},{qa[1]:.5g}]':>36}"
                  f"{f'{mb:.5g} [{qb[0]:.5g},{qb[1]:.5g}]':>36}"
                  f"{(mb - ma) / ma * 100:>+8.1f}%{bound * 100:>6.0f}%  "
                  f"{verdict}")
    return 1 if regressions else 0


def main():
    # On SIGTERM, exit through Python so that subprocess.run kills the
    # running child and waits for it.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    argv = sys.argv[1:]
    if argv and argv[0] == "--compare":
        if "--" not in argv:
            fail("usage: run.py --compare PARENT.json... -- CHANGE.json...")
        split = argv.index("--")
        parent, change = argv[1:split], argv[split + 1:]
        if not parent or not change:
            fail("--compare needs files on both sides of --")
        sys.exit(compare(load_spec(), parent, change))

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    parser.add_argument("--smoke", action="store_true")
    opts = parser.parse_args(argv)

    spec = load_spec()
    if opts.seconds is None:
        opts.seconds = spec["run_seconds"]
    binary = build()
    if opts.smoke:
        work = os.path.join(build_dir(), "wallclock-work")
        sys.exit(subprocess.run([binary, "--smoke", "--work-dir", work],
                                timeout=RUN_TIMEOUT_S).returncode)
    if opts.workload is None:
        sys.exit(run_all(binary, spec, opts))
    if opts.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {opts.workload}")
    lines, result = one_run(binary, spec, opts.workload, opts.seed,
                            opts.seconds, opts.trace == 1)
    print("\n".join(lines))
    print(json.dumps(result))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
