"""Paired benchmark runs of a git revision against the working tree.

Usage: python tools/bench_ab.py REV --label L [--pairs N] [--change REV2]

Exports REV's tree with ``git archive``, and copies the working tree (its
tracked and untracked, not ignored files) or exports ``--change REV2``, into
sibling temporary directories, so neither side runs from the checkout. Each
tree's own ``bench/run.py --seconds 3 --trace 0`` then runs on every
workload of ``BENCHMARK.json`` in N (default 10) alternated pairs, pair n on
seed n, the parent first in odd pairs and the change first in even ones. Each
run's last JSON line is parsed; a run without one, or with ``correct:
false``, stops the comparison with exit 1 and writes nothing.

It writes ``BENCH_<L>.json`` at the repo root: both sides' commits and
source digests, the machine line of the first run, and per workload and
end-to-end metric both medians, both quartiles, each pair's change/parent
ratio, the win and tie counts (a win is a pair where the change reads
better, in ``BENCHMARK.json``'s direction) and the gap: the median gain
over the parent's interquartile range, positive when the change is better.
It prints one line per metric. It needs git and no network.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SECONDS = "3"


def git(*args: str) -> str:
    res = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True)
    if res.returncode != 0:
        raise SystemExit(f"git {' '.join(args)}: {res.stderr.strip()}")
    return res.stdout.strip()


def export(rev: str, dest: Path) -> None:
    """Write the tree of ``rev`` into ``dest``."""
    res = subprocess.run(["git", "-C", str(ROOT), "archive", rev], capture_output=True)
    if res.returncode != 0:
        raise SystemExit(f"git archive {rev}: {res.stderr.decode().strip()}")
    with tarfile.open(fileobj=io.BytesIO(res.stdout)) as archive:
        archive.extractall(dest, filter="data")


def copy_working_tree(dest: Path) -> None:
    """Copy the checkout's tracked and untracked, not ignored files into ``dest``."""
    for name in git("ls-files", "-z", "--cached", "--others", "--exclude-standard").split("\0"):
        path = ROOT / name
        if name and path.is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(path, dest / name)


def run(tree: Path, workload: str, seed: int) -> tuple[dict, dict]:
    """One ``bench/run.py`` run in ``tree``: its result and its machine line."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    res = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", SECONDS, "--trace", "0"],
        capture_output=True, text=True, cwd=tree, env=env,
    )
    lines = res.stdout.splitlines()
    where = f"{tree.name} {workload} seed {seed}"
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise SystemExit(f"{where}: no result (exit {res.returncode}):\n{res.stderr[-2000:]}")
    if not result.get("correct"):
        raise SystemExit(f"{where}: correct: false ({result.get('failed')} failed):\n"
                         f"{res.stderr[-2000:]}")
    machine = next(json.loads(line.split(" ", 1)[1]) for line in lines
                   if line.startswith("machine "))
    return result, machine


def summary(parent: list[float], change: list[float], better: str) -> dict:
    """Medians, quartiles, per-pair ratios, wins and the median gain over the parent's IQR."""
    sign = 1 if better == "higher" else -1
    quartiles = [statistics.quantiles(side, n=4, method="inclusive") for side in (parent, change)]
    iqr = quartiles[0][2] - quartiles[0][0]
    gain = sign * (statistics.median(change) - statistics.median(parent))
    return {
        "parent_median": statistics.median(parent),
        "change_median": statistics.median(change),
        "parent_quartiles": [quartiles[0][0], quartiles[0][2]],
        "change_quartiles": [quartiles[1][0], quartiles[1][2]],
        "ratios": [c / p if p else None for p, c in zip(parent, change)],
        "wins": sum(sign * (c - p) > 0 for p, c in zip(parent, change)),
        "ties": sum(c == p for p, c in zip(parent, change)),
        "gap_over_parent_iqr": gain / iqr if iqr else None,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", help="the parent: a git revision")
    parser.add_argument("--label", required=True, help="writes BENCH_<label>.json")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--change", help="a git revision to run instead of the working tree")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    sides = {
        "parent": {"rev": args.rev, "commit": git("rev-parse", args.rev)},
        "change": ({"rev": args.change, "commit": git("rev-parse", args.change)} if args.change
                   else {"rev": "working tree", "commit": git("rev-parse", "HEAD"),
                         "dirty": bool(git("status", "--porcelain", "--untracked-files=no"))}),
    }
    out: dict = {"label": args.label, "command": f"bench/run.py --seconds {SECONDS} --trace 0",
                 **sides, "pairs": args.pairs, "workloads": {}}
    with tempfile.TemporaryDirectory(prefix="bench-ab-") as tmp:
        trees = {"parent": Path(tmp) / "parent", "change": Path(tmp) / "change"}
        export(args.rev, trees["parent"])
        if args.change:
            export(args.change, trees["change"])
        else:
            copy_working_tree(trees["change"])
        for workload in workloads:
            results: dict[str, list[dict]] = {"parent": [], "change": []}
            for n in range(args.pairs):
                order = ("parent", "change") if n % 2 == 0 else ("change", "parent")
                for side in order:
                    result, machine = run(trees[side], workload, n + 1)
                    results[side].append(result["metrics"])
                    sides[side]["source_sha256"] = machine.pop("source_sha256")
                    machine.pop("git_commit")
                    out.setdefault("machine", machine)
                print(f"{workload} pair {n + 1}/{args.pairs} done", file=sys.stderr, flush=True)
            metrics = {}
            for name in results["parent"][0]:
                values = {side: [r[name]["value"] for r in results[side]] for side in results}
                metrics[name] = {"unit": results["parent"][0][name]["unit"],
                                 "better": better[name],
                                 **summary(values["parent"], values["change"], better[name])}
                m = metrics[name]
                gap = m["gap_over_parent_iqr"]
                print(f"{workload:18s} {name:20s} {m['parent_median']:>12.6g} -> "
                      f"{m['change_median']:<12.6g} wins {m['wins']:2d}/{args.pairs}, "
                      f"ties {m['ties']:2d}, gap {'n/a' if gap is None else f'{gap:+.2f}'} IQR")
            out["workloads"][workload] = {"seeds": list(range(1, args.pairs + 1)),
                                          "metrics": metrics}
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
