#!/usr/bin/env python3
"""Smoke test of the benchmark at a tiny size.

Run from the repository root:

    python3 perfbench/smoke.py

It checks that
  * every workload, untraced and traced, prints each metric that
    BENCHMARK.json names, with its unit and a number (nonzero for the
    end-to-end metrics), and reports a correct run;
  * an unknown argument and an unknown workload exit nonzero and print no
    result line;
  * the deterministic counts repeat exactly across two runs with the same
    seed.
Exits 0 when every check passes.
"""

import json
import subprocess
import sys

RUN = ["sh", "perfbench/run.sh"]
DETERMINISTIC = {
    "0": ["asm_instrs", "vax_steps"],
    "1": ["tree.nodes", "eval.rules", "sim.virtual_s", "sim.bytes", "edit.refired"],
}

failures = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def run(args):
    p = subprocess.run(RUN + args, capture_output=True, text=True, timeout=300)
    lines = p.stdout.strip().splitlines()
    return p.returncode, lines


def result(lines):
    try:
        r = json.loads(lines[-1])
    except (IndexError, ValueError):
        return None
    return r if isinstance(r, dict) and "metrics" in r else None


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    expected = {
        "0": {m["name"]: m["unit"] for m in bench["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    for w in bench["workloads"]:
        for trace in ("0", "1"):
            seen = []
            for _ in range(2):
                args = ["--workload", w["name"], "--seed", "7", "--seconds", "1",
                        "--trace", trace, "--tiny"]
                code, lines = run(args)
                r = result(lines)
                tag = f"{w['name']} --trace {trace}"
                check(code == 0 and r is not None, f"{tag}: exit 0 with a result line")
                if r is None:
                    break
                got = {k: v.get("unit") for k, v in r["metrics"].items()}
                check(got == expected[trace], f"{tag}: every metric printed with its unit")
                check(r["correct"] and r["failed"] == 0 and r["attempted"] >= 1,
                      f"{tag}: correct, no failed operation")
                # end-to-end metrics are never 0; a per-layer count may
                # truly be 0 at this size (no major GC in a tiny compile)
                bad = [k for k, v in r["metrics"].items()
                       if not isinstance(v.get("value"), (int, float))
                       or (trace == "0" and v["value"] == 0)]
                check(not bad, f"{tag}: every metric a number"
                      + (", nonzero" if trace == "0" else "")
                      + (f" (not in {', '.join(bad)})" if bad else ""))
                seen.append(r["metrics"])
            if len(seen) == 2:
                drift = [k for k in DETERMINISTIC[trace]
                         if seen[0][k]["value"] != seen[1][k]["value"]]
                check(not drift, f"{w['name']} --trace {trace}: counts repeat exactly"
                      + (f" (drift in {', '.join(drift)})" if drift else ""))
    for bad in (["--workload", "paper", "--bogus-flag"], ["--workload", "nosuch"], []):
        code, lines = run(bad + ["--seconds", "1", "--tiny"])
        check(code != 0 and result(lines) is None,
              f"{' '.join(bad) or '(no --workload)'}: exits nonzero without a result")
    if failures:
        print(f"{len(failures)} check(s) failed")
        return 1
    print("all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
