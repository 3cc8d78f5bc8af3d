"""Runs the benchmark over several seeds and prints each metric's median
and quartile spread (IQR as a share of the median).

    python3 txbench/spread.py --workload hot-read --seeds 1 2 3 4 5

With --determinism it also runs the first seed a second time, and the
first seed plus one, and checks that the exact counts repeat for the same
seed and differ for the other.
"""
import argparse
import json
import statistics
import subprocess
import sys


def run(workload, seed, seconds, trace):
    cmd = ["bash", "txbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    lines = out.stdout.strip().splitlines()
    exact = next((l[6:] for l in lines if l.startswith("exact ")), "{}")
    calib = next((l.split(" ", 1)[1] for l in lines if l.startswith("host.calibration_ms")), "")
    if out.returncode != 0 or not lines:
        sys.exit(f"seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}")
    return json.loads(lines[-1]), json.loads(exact), calib


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3, 4, 5])
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--determinism", action="store_true")
    a = ap.parse_args()
    values = {}
    exacts = {}
    for seed in a.seeds:
        result, exact, calib = run(a.workload, seed, a.seconds, a.trace)
        exacts[seed] = exact
        if not result["correct"]:
            sys.exit(f"seed {seed}: incorrect result")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={v['value']:.4g}"
                                          for k, v in result["metrics"].items())
              + f" (calibration {calib})", flush=True)
    for name, vs in values.items():
        med = statistics.median(vs)
        q = statistics.quantiles(vs, n=4) if len(vs) > 1 else [med, med, med]
        share = (q[2] - q[0]) / med if med else float("nan")
        print(f"{name:32s} median {med:12.6g}  spread {share:7.2%}  min {min(vs):.6g} max {max(vs):.6g}")
    if a.determinism:
        first = a.seeds[0]
        again = run(a.workload, first, a.seconds, a.trace)[1]
        other = run(a.workload, first + 1, a.seconds, a.trace)[1]
        print(f"seed {first} twice: exact counts {'repeat' if again == exacts[first] else 'DIFFER'}")
        print(f"seed {first + 1}: exact counts {'differ' if other != exacts[first] else 'REPEAT'}")
        if again != exacts[first] or other == exacts[first]:
            sys.exit(1)


if __name__ == "__main__":
    main()
