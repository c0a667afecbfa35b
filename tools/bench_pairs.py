"""Benchmark a change against its parent commit in alternating pairs.

    python3 tools/bench_pairs.py --pr N --what "what the change does" [--seed N]

Run from the repository root.  The parent side is the committed tree of
``HEAD``, exported with ``git archive``; the change side is a copy of
the working tree, its tracked files and the untracked ones that git
does not ignore.  The two are sibling directories under one temporary
directory, so that where the files live is the same for both sides.
Both run ``perfbench/run.py`` with
the workload seed ``--seed`` (default 1) and the run length
``BENCHMARK.json`` fixes, one run at a time.  A gain claimed on seed 1
should also hold on a seed not used while the change was written.
Each workload of ``BENCHMARK.json`` gets 10 untraced pairs and 3 traced
ones, and the side that runs first alternates from pair to pair.

The result goes to ``BENCH_<pr>.json``, rewritten after every run, so a
stopped benchmark keeps the runs it finished.  It holds ``what``,
``parent_commit``, ``command``, ``host``, ``summary`` (per workload and
metric: each side's q1, median, q3 and run count, and the pairs in
which the change read better, by the direction ``BENCHMARK.json``
gives) and ``runs`` (each run's final JSON line).  Each run also keeps,
under ``figures``, the ``name: value unit`` lines printed before that
line for figures it lacks: the times of layers that only some workloads
call, in a traced run, and the latency tail, in an untraced one.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10  # untraced, per workload
TRACED_PAIRS = 3  # per workload; a traced figure needs several runs per side
COMMAND = "python3 perfbench/run.py --workload <workload> --seed {seed} --seconds {seconds} --trace <trace>"
# a printed ``name: value unit`` line, as ``%g`` and ``%f`` write the value
FIGURE = re.compile(r"([\w.]+): (-?[\d.]+(?:e[-+]\d+)?) (\S+)")


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, stdout=subprocess.PIPE, text=True
    ).stdout.strip()


def export_commit(commit: str, dest: Path) -> None:
    """The committed files of ``commit``, as the benchmark would check
    them out, under ``dest``."""
    archive = subprocess.run(
        ["git", "archive", "--format=tar", commit], cwd=ROOT, check=True, stdout=subprocess.PIPE
    ).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def copy_working_tree(dest: Path) -> None:
    """The working tree's tracked files, and its untracked files that git
    does not ignore, as they are now, under ``dest``."""
    for name in _git("ls-files", "-co", "--exclude-standard", "-z").split("\0"):
        source = ROOT / name
        if name and os.path.lexists(source):  # a deleted tracked file stays listed
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, dest / name, follow_symlinks=False)


def run_once(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """The final JSON line of one ``perfbench/run.py`` run in ``checkout``,
    with its ``figures``."""
    command = [
        sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(command, cwd=checkout, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise SystemExit(f"{' '.join(command)} in {checkout} exited {proc.returncode} without a result")
    result = json.loads(lines[-1])
    result["figures"] = figures(lines[:-1], result["metrics"])
    return result


def figures(lines: list[str], metrics: dict) -> dict:
    """The ``name: value unit`` lines whose name is not in ``metrics``; a
    line such as ``name: not called`` gives no figure."""
    return {
        match[1]: {"value": float(match[2]), "unit": match[3]}
        for match in map(FIGURE.match, lines)
        if match and match[1] not in metrics
    }


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": round(q1, 4), "median": round(median, 4), "q3": round(q3, 4), "n": len(values)}


def summarize(runs: list[dict], directions: dict[str, str]) -> dict:
    """Per workload and metric, each side's quartiles and the pairs won
    by the change; traced metrics are named ``<metric> (traced)``."""
    summary = {}
    for key in dict.fromkeys((r["workload"], r["seed"]) for r in runs):
        mine = [r for r in runs if (r["workload"], r["seed"]) == key]
        table = {}
        for trace in (0, 1):
            pairs: dict[int, dict[str, dict]] = {}
            for r in mine:
                if r["trace"] == trace:
                    pairs.setdefault(r["pair"], {})[r["side"]] = r["result"]["metrics"]
            complete = [p for p in pairs.values() if len(p) == 2]
            if not complete:
                continue
            for metric in complete[0]["parent"]:
                parent = [p["parent"][metric]["value"] for p in complete]
                change = [p["change"][metric]["value"] for p in complete]
                sign = -1 if directions.get(metric) == "lower" else 1
                better = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
                table[metric + (" (traced)" if trace else "")] = {
                    "parent": quartiles(parent),
                    "change": quartiles(change),
                    "change_better_pairs": better,
                    "pairs": len(complete),
                }
        table["all_correct"] = all(r["result"]["correct"] for r in mine)
        table["failed_operations"] = sum(r["result"]["failed"] for r in mine)
        summary[f"{key[0]} seed={key[1]}"] = table
    return summary


def host() -> str:
    import numpy

    return (
        f"{os.cpu_count()}-vCPU {platform.machine()} host, Python {platform.python_version()}, "
        f"numpy {numpy.__version__}; one run at a time, parent and change alternating which runs first"
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pr", required=True, help="the number in BENCH_<pr>.json")
    parser.add_argument("--what", required=True, help="one line on what the change does")
    parser.add_argument("--seed", type=int, default=1, help="the workload seed (default 1)")
    args = parser.parse_args()

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in benchmark["workloads"]]
    seconds = benchmark["run_seconds"]
    directions = {
        m["name"]: m["better"] for m in benchmark["end_to_end"] + benchmark["per_layer"]
    }
    parent_commit = _git("rev-parse", "HEAD")
    out = ROOT / f"BENCH_{args.pr}.json"
    record = {
        "what": args.what,
        "parent_commit": parent_commit,
        "command": COMMAND.format(seed=args.seed, seconds=f"{seconds:g}"),
        "host": host(),
        "summary": {},
        "runs": [],
    }
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        checkouts = {"parent": Path(tmp, "parent"), "change": Path(tmp, "change")}
        for checkout in checkouts.values():
            checkout.mkdir()
        export_commit(parent_commit, checkouts["parent"])
        copy_working_tree(checkouts["change"])
        for workload in workloads:
            for trace, count in ((0, PAIRS), (1, TRACED_PAIRS)):
                for pair in range(1, count + 1):
                    order = ("parent", "change") if pair % 2 else ("change", "parent")
                    for side in order:
                        result = run_once(checkouts[side], workload, args.seed, seconds, trace)
                        record["runs"].append({
                            "workload": workload, "seed": args.seed, "trace": trace,
                            "side": side, "pair": pair, "result": result,
                        })
                        record["summary"] = summarize(record["runs"], directions)
                        out.write_text(json.dumps(record, indent=1) + "\n")
                        print(f"{workload} trace={trace} pair={pair} {side} done", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
