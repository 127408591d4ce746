#!/usr/bin/env python3
"""Repeat the benchmark over several seeds, or A/B several checkouts.

Run from the root of a checkout:

  python3 perfbench/spread.py run --workload stress-50k --seeds 1-10 --out a.jsonl
  python3 perfbench/spread.py summary a.jsonl
  python3 perfbench/spread.py ab --workload search-grid --pairs 10 --out ab.jsonl DIR_A DIR_B...

`run` appends one JSON line per run (workload, seed, trace and the result
line). `summary` prints, per workload and metric, the median and the
interquartile range as a share of the median, with the bound from
BENCHMARK.json beside it. `ab` runs the benchmark in several checkouts (the
first is the baseline) in interleaved rounds, alternating the order each round,
so slow drift of the host falls on every side alike (Kalibera and Jones,
"Rigorous Benchmarking in Reasonable Time", ISMM 2013). For each end-to-end
metric it prints each side's median against the baseline's and the metric's
bound, and the pairs the side lost. Its verdict on a metric is "slower" when
the side lost at least nine tenths of the pairs and its median is worse than
the baseline's by more than the baseline's interquartile range, "faster" the
other way round, and "unresolved" otherwise. The verdicts are for a person to
read; the exit code does not depend on them. `--pairs 0` only reports on an
existing file.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def run_once(root, workload, seed, seconds, trace):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=root)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{root} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    res = json.loads(lines[-1])
    print(f"{root} {workload} seed {seed}: correct={res['correct']} "
          + " ".join(f"{k}={v['value']:.6g}" for k, v in sorted(res["metrics"].items())),
          flush=True)
    return {"workload": workload, "seed": seed, "trace": trace, "result": res}


def run(args):
    with open(args.out, "a") as out:
        for seed in parse_seeds(args.seeds):
            rec = run_once(".", args.workload, seed, args.seconds, args.trace)
            out.write(json.dumps(rec) + "\n")
            out.flush()


def ab(args):
    sides = args.dirs
    with open(args.out, "a") as out:
        for i in range(args.pairs):
            order = sides if i % 2 == 0 else sides[::-1]
            for side in order:
                rec = run_once(side, args.workload, args.first_seed + i, args.seconds, 0)
                rec["side"] = side
                rec["pair"] = i
                out.write(json.dumps(rec) + "\n")
                out.flush()
    b = bounds()
    recs = [json.loads(line) for line in open(args.out)]
    by = {}
    for r in recs:
        if r["workload"] == args.workload:
            by.setdefault(r["side"], {})[r["pair"]] = r["result"]["metrics"]
    base = by[sides[0]]
    for side in sides[1:]:
        print(f"{side} against {sides[0]} ({args.workload}):")
        for name, m in sorted(b.items()):
            pairs = [p for p in base if p in by[side]]
            bv = [base[p][name]["value"] for p in pairs]
            cv = [by[side][p][name]["value"] for p in pairs]
            # Positive means the side is worse than the baseline; ties count
            # for neither.
            sign = 1 if m["better"] == "lower" else -1
            lost = sum(sign * (c - x) > 0 for x, c in zip(bv, cv))
            won = sum(sign * (c - x) < 0 for x, c in zip(bv, cv))
            bm, bs = stats(bv)
            cm, _ = stats(cv)
            worse = sign * (cm - bm) / bm
            need = 0.9 * len(pairs)
            verdict = ("slower" if lost >= need and worse > bs else
                       "faster" if won >= need and -worse > bs else "unresolved")
            print(f"  {name:16s} medians {bm:10.6g} -> {cm:10.6g} worse by {worse:+7.2%} (bound {m['bound']:.2f},"
                  f" baseline iqr {bs:.3f}); lost {lost}/{len(pairs)} pairs: {verdict.upper()}")


def load(path):
    by = {}
    with open(path) as f:
        for line in f:
            rec = json.loads(line)
            by.setdefault((rec["workload"], rec["trace"]), []).append(rec["result"])
    return by


def bounds():
    with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m for m in spec["end_to_end"]}


def stats(values):
    med = statistics.median(values)
    if len(values) < 2:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else float("inf")


def summary(args):
    b = bounds()
    for (workload, trace), results in sorted(load(args.file).items()):
        bad = sum(not r["correct"] for r in results)
        print(f"{workload} trace={trace}: {len(results)} runs, {bad} incorrect")
        for name in sorted(results[0]["metrics"]):
            vals = [r["metrics"][name]["value"] for r in results]
            med, spread = stats(vals)
            bound = b.get(name, {}).get("bound")
            note = ""
            if bound is not None:
                note = f" bound {bound:.2f} ({spread / bound:.2f} of it)"
            print(f"  {name:28s} median {med:12.6g}  iqr/median {spread:7.4f}{note}")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("--workload", required=True)
    r.add_argument("--seeds", default="1-10")
    r.add_argument("--seconds", type=int, default=30)
    r.add_argument("--trace", type=int, default=0)
    r.add_argument("--out", required=True)
    s = sub.add_parser("summary")
    s.add_argument("file")
    a = sub.add_parser("ab")
    a.add_argument("--workload", required=True)
    a.add_argument("--pairs", type=int, default=10)
    a.add_argument("--first-seed", type=int, default=1)
    a.add_argument("--seconds", type=int, default=30)
    a.add_argument("--out", required=True)
    a.add_argument("dirs", nargs="+")
    args = p.parse_args()
    if args.cmd == "run":
        run(args)
    elif args.cmd == "summary":
        summary(args)
    else:
        ab(args)


if __name__ == "__main__":
    main()
