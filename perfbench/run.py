#!/usr/bin/env python3
"""Build and run the vlpp benchmark (see README.md beside this file).

usage (from the repository root):
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --workload all [--seed N] [--seconds S] [--trace 0|1]

The first form runs one workload and passes its output through; the last
line is the JSON result. The second runs every workload in
BENCHMARK.json in turn and ends with a table of every metric. Either
exits non-zero when a build, a run, or an output check fails.
"""

import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Builds the benchmark binary (release, offline) and returns its path."""
    env = dict(os.environ)
    target = os.path.join(ROOT, env.get("CARGO_TARGET_DIR", ".bench_build"))
    env["CARGO_TARGET_DIR"] = target
    command = ["cargo", "build", "--release", "--offline", "--quiet",
               "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    if subprocess.run(command, env=env, cwd=ROOT, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(target, "release", "perfbench")


def run(binary, args):
    """Runs one workload; returns (exit code, stdout text)."""
    env = dict(os.environ, VLPP_THREADS="2")
    child = subprocess.Popen([binary] + args, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                             text=True, start_new_session=True)
    try:
        out, _ = child.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # The run and its server child share a process group.
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        fail(f"run timed out after {RUN_TIMEOUT_S} s: {' '.join(args)}")
    return child.returncode, out


def expected_names(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return [m["name"] for m in bench["per_layer" if trace else "end_to_end"]], bench


def result_of(out, trace):
    """Parses and validates the last output line against BENCHMARK.json."""
    lines = out.strip().splitlines()
    if not lines:
        fail("the run printed nothing")
    result = json.loads(lines[-1])
    names, _ = expected_names(trace)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail(f"unexpected result keys {sorted(result)}")
    missing = set(names) ^ set(result["metrics"])
    if missing:
        fail(f"metrics differ from BENCHMARK.json: {sorted(missing)}")
    return result


def option(args, flag, default):
    return args[args.index(flag) + 1] if flag in args else default


def main():
    args = sys.argv[1:]
    binary = build()
    trace = option(args, "--trace", "0") == "1"
    if option(args, "--workload", "") != "all":
        code, out = run(binary, args)
        sys.stdout.write(out)
        sys.stdout.flush()
        if code != 0:
            sys.exit(code)
        result_of(out, trace)
        return

    _, bench = expected_names(trace)
    seed = option(args, "--seed", "1")
    seconds = option(args, "--seconds", str(bench["run_seconds"]))
    table, failed = [], False
    for workload in (w["name"] for w in bench["workloads"]):
        run_args = ["--workload", workload, "--seed", seed, "--seconds", seconds,
                    "--trace", "1" if trace else "0"]
        code, out = run(binary, run_args)
        sys.stdout.write(out)
        failed |= code != 0
        samples = {}
        for line in out.splitlines():
            # "<workload>: <metric> = <value> <unit> (samples <n>)"
            if line.startswith(workload + ": ") and "(samples " in line:
                name = line.split(": ", 1)[1].split(" = ", 1)[0]
                samples[name] = line.rsplit("(samples ", 1)[1].rstrip(")")
        if code == 0:
            result = result_of(out, trace)
            for name, metric in result["metrics"].items():
                table.append((workload, name, metric["value"], metric["unit"],
                              samples.get(name, "?")))
    print()
    print(f"{'workload':<16} {'metric':<40} {'value':>16} {'unit':<6} samples")
    for workload, name, value, unit, n in table:
        print(f"{workload:<16} {name:<40} {value:>16.6g} {unit:<6} {n}")
    if failed:
        fail("at least one workload failed")


if __name__ == "__main__":
    main()
