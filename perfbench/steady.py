"""Steadiness check for the benchmark.

    python3 perfbench/steady.py --runs 10 --out perfbench/results/steady.json

Runs each workload of BENCHMARK.json untraced on seeds 1 to `--runs`, one
process at a time.  For each metric on the result line it reports the
median, quartiles (statistics.quantiles, n=4) and spread, the quartile
distance as a share of the median, against the bound in BENCHMARK.json.
With `--against` an earlier output, it also checks that no median got worse
by more than its bound, as a second set of the same code must not.  It then
prints the median and spread of every end-to-end metric the runs report,
with its unit, and the failed and attempted operations.  With `--traced N`
it also runs each workload traced N times on the first seed and checks that
every work count repeats exactly (all but `persist.artifact.bytes`, see
spans.py).
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from spans import repeatable  # noqa: E402


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    detail = next(json.loads(line[len("detail "):]) for line in lines if line.startswith("detail "))
    return json.loads(lines[-1]), detail


def spread(values: list[float]) -> dict:
    if len(values) < 2:  # one run: no quartiles
        return {"values": values, "median": values[0], "q1": values[0], "q3": values[0], "spread": 0.0}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("inf")}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--traced", type=int, default=0)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--against", type=Path, help="an earlier --out file; compare each median with it")
    args = parser.parse_args(argv)
    earlier = json.loads(args.against.read_text())["workloads"] if args.against else None

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    summary = {"run_seconds": seconds, "workloads": {}}
    ok = True
    for workload in (w["name"] for w in bench["workloads"]):
        seeds = list(range(1, 1 + args.runs))
        runs = []
        for seed in seeds:
            runs.append(run_once(workload, seed, seconds, 0))
            detail = runs[-1][1]
            print(f"{workload:<12} seed {seed}: passes raw {[round(t, 3) for t in detail['pass_wall_s']]} "
                  f"scaled {[round(t, 3) for t in detail['pass_scaled_s']]}; "
                  f"setups (raw, scaled) {[[round(t, 3) for t in pair] for pair in detail['setup_repeats_s']]}; "
                  f"imports {[[round(t, 3) for t in pair] for pair in detail['import_s']]}",
                  flush=True)
        entry = {"seeds": seeds, "provenance": runs[0][1]["provenance"], "sizes": runs[0][1]["sizes"],
                 "input_seeds_of_first": runs[0][1]["input_seeds"],
                 "runs": [{"seed": d["seed"], "correct": r["correct"], "attempted": r["attempted"],
                           "failed": r["failed"], "pass_wall_s": d["pass_wall_s"],
                           "pass_scaled_s": d["pass_scaled_s"],
                           "setup_repeats_s": d["setup_repeats_s"], "import_s": d["import_s"]}
                          for r, d in runs],
                 "correct": all(r["correct"] for r, _ in runs),
                 "attempted": sum(r["attempted"] for r, _ in runs),
                 "failed": sum(r["failed"] for r, _ in runs),
                 "end_to_end": {}, "reported": {}}
        ok &= entry["correct"]
        for name, bound in bounds.items():
            stats = spread([r["metrics"][name]["value"] for r, _ in runs])
            stats.update(bound=bound, unit=runs[0][0]["metrics"][name]["unit"],
                         within_third=stats["spread"] <= bound / 3)
            entry["end_to_end"][name] = stats
            print(f"{workload:<12} {name:<12} median {stats['median']:<10.4g} spread {stats['spread']:6.1%} "
                  f"(bound {bound:.0%}, third {bound / 3:.1%})", flush=True)
            if earlier is not None:
                # every metric on the result line is better lower
                first = earlier[workload]["end_to_end"][name]["median"]
                stats.update(against=first, change=stats["median"] / first - 1,
                             within_bound=stats["median"] <= first * (1 + bound))
                ok &= stats["within_bound"]
                print(f"{workload:<12} {name:<12} against {first:.4g}: {stats['change']:+.1%} "
                      f"({'within' if stats['within_bound'] else 'OUTSIDE'} the bound)", flush=True)
        for name, metric in {**runs[0][1]["metrics"], **runs[0][1]["raw"]}.items():
            stats = spread([{**d["metrics"], **d["raw"]}[name]["value"] for _, d in runs])
            entry["reported"][name] = {"unit": metric["unit"], **stats}
            print(f"{workload:<12} {name:<16} median {stats['median']:<10.4g} {metric['unit']:<5} "
                  f"(min {min(stats['values']):.4g}, max {max(stats['values']):.4g}, spread {stats['spread']:.1%})",
                  flush=True)
        print(f"{workload:<12} failed_op_ratio  {entry['failed']} failed / {entry['attempted']} attempted",
              flush=True)
        if args.traced:
            traced = [run_once(workload, seeds[0], seconds, 1)[1] for _ in range(args.traced)]
            counts = [{k: m["value"] for k, m in d["per_layer"].items() if m["kind"].startswith("count")}
                      for d in traced]
            repeat = all(repeatable(c) == repeatable(counts[0]) for c in counts[1:])
            ok &= repeat and all(d["failed_op_ratio"]["failed"] == 0 for d in traced)
            entry["traced"] = {
                "seed": seeds[0],
                "counts_repeat": repeat,
                "per_layer": {k: {"kind": m["kind"], "unit": m["unit"],
                                  "values": [d["per_layer"][k]["value"] for d in traced]}
                              for k, m in traced[0]["per_layer"].items()},
            }
            print(f"{workload:<12} traced x{args.traced}: counts repeat {repeat}, overhead "
                  f"{[round(d['per_layer']['trace.overhead_s']['value'], 3) for d in traced]} s", flush=True)
        summary["workloads"][workload] = entry
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
