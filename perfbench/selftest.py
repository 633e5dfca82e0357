#!/usr/bin/env python3
"""Self-test of the benchmark: a minimal-length run of every workload,
untraced and traced, checked against BENCHMARK.json.

Run from the repository root:

    python3 perfbench/selftest.py

It checks that every workload prints every metric BENCHMARK.json names,
with its unit, in a result object of the right shape; that the answer
checks ran and passed; that each traced run prints its "where the time
goes" tables and that every table reconciles, i.e. its layer self times
add up to the end-to-end figure within the stated remainder; and that a
bad invocation exits non-zero without a result. Exits 1 on any failure.
"""

import json
import re
import subprocess
import sys

RUN = ["bash", "perfbench/run.sh"]
TABLES = {
    "hot_estimate": ["direct estimate", "routed estimate"],
    "edit_estimate": ["routed edit estimate"],
    "sweep_optimize": ["64-point analytic sweep", "64-point DES sweep", "optimize"],
}
failures = []


def check(ok, what):
    if not ok:
        failures.append(what)
        print(f"FAIL {what}")


def run(workload, trace):
    args = ["--workload", workload, "--seed", "1", "--seconds", "1", "--trace", str(trace)]
    out = subprocess.run(RUN + args, capture_output=True, text=True, timeout=600)
    check(out.returncode == 0, f"{workload} trace={trace} exits 0 (stderr: {out.stderr[-400:]})")
    return out.stdout.splitlines()


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    for workload in [w["name"] for w in bench["workloads"]]:
        for trace in (0, 1):
            lines = run(workload, trace)
            tag = f"{workload} trace={trace}"
            if not lines:
                check(False, f"{tag} prints a result")
                continue
            result = json.loads(lines[-1])
            check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{tag} result keys")
            check(result["correct"] is True and result["failed"] == 0, f"{tag} answers correct")
            check(result["attempted"] >= 1, f"{tag} attempted at least one")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == expected[trace], f"{tag} metric names and units match BENCHMARK.json")
            for name, v in result["metrics"].items():
                check(isinstance(v["value"], (int, float)), f"{tag} {name} is a number")
            text = "\n".join(lines)
            check(
                re.search(r"^answers checked: \d+ attempted, 0 failed, correct=true$", text, re.M),
                f"{tag} answer checks ran",
            )
            for name, unit in expected[trace].items():
                check(
                    re.search(rf"^{re.escape(name)}\s+\S+\s+{re.escape(unit)}$", text, re.M),
                    f"{tag} prints {name} with unit {unit}",
                )
            if trace == 1:
                titles = re.findall(r"^where the time goes: (.*)$", text, re.M)
                for table in TABLES[workload]:
                    check(any(t.startswith(table) for t in titles), f"{tag} table {table!r}")
                verdicts = re.findall(r"^  reconciled: (\w+)", text, re.M)
                check(len(verdicts) == len(titles), f"{tag} every table states its remainder")
                check(all(v == "yes" for v in verdicts), f"{tag} tables reconcile: {verdicts}")
                check(re.search(r"^tracing overhead", text, re.M), f"{tag} states tracing overhead")

    bad = subprocess.run(RUN + ["--workload", "nope", "--seed", "1", "--seconds", "1", "--trace", "0"],
                         capture_output=True, text=True, timeout=600)
    check(bad.returncode != 0 and not bad.stdout.strip(), "unknown workload exits non-zero, no result")

    print(f"selftest: {'FAILED' if failures else 'ok'} ({len(failures)} failure(s))")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
