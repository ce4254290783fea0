"""Check that the working tree trains the same bytes as a git revision.

Usage: python tools/same_trajectory.py REV

Exports REV's tree with ``git archive`` into a temporary directory and runs
acceptance criterion 7's CLI job from REV's ``src/`` and from the working
tree's, in float32 and in float64, on one planted seed-0 input file:

    concf prepare --min-count 0 --seed 0
    concf train --lambda1 1e-6 --lambda2 1e-6 --tau 0.05 --k-users 8 --k-items 8 --seed 0
    concf evaluate --groups 5

    concf export --format binary / --format text (readout)

Each dtype's job runs twice: as is, where the job's small graph keeps the
worker gate closed, and with the gate forced open by acceptance criterion
9's child recipe, so the worker's path runs too: in training, and in
evaluation wherever a revision uses the worker there. The open-gate child
also lowers the K-means tile size and the evaluator's user chunk where a
revision has them, so the E-step's 200- and 300-point passes run as
several tiles and the 200-user rankings as two halves of several chunks. It
compares ``history.jsonl`` without ``seconds``, ``model.ckpt``, the
evaluate output, ``manifest.json`` without ``created_utc`` and
``split_dir``, and each export file byte for byte; a manifest that differs
names the fields that do.

It also compares the prepared split directories: the job's, and one of a
second ``prepare`` whose input repeats every seventh record of the planted
file and whose ``--min-count 15`` drops items, so that the pair dedupe and
the k-core's re-coding run too. Every file that ``prepare`` writes is
compared byte for byte; a file only one tree writes reads ``DIFFERENT (only
in rev)`` or ``DIFFERENT (only in tree)``. A content row per prepare
compares the train/valid/test arrays (dtype, shape and bytes), ``n_users``,
``n_items`` and ``meta`` (seed, ratios, min_count), each loaded by its own
tree's ``DatasetSplit.load`` in a child process, so a change of file format
shows whether the split and the facts its header holds stayed the same. It
prints one verdict per file (per dtype and gate for the job's outputs) and
exits 1 on any difference. It needs git and no network.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

from bench.workloads import planted_communities  # noqa: E402
from bench_ab import export  # noqa: E402  (beside this file)

# acceptance criterion 9's child: ``concf`` with the worker gate forced open;
# only ``train`` must start the worker, as a revision's evaluation may not use it.
# A revision from before ``concf.overlap`` kept the gate in ``concf.objectives``.
# Tiles of 48 rows split the job's K=8, d=64 E-step passes (200 and 300
# points) into 4 and 6 tiles, where the default rule makes each one tile, so
# the multi-tile path runs; chunks of 64 users split its 200-user rankings
# into 4 chunks, where the default 256 makes one, so the ranking's halves run.
WORKER_CHILD = """
import os, sys
from concf import cli, evaluator, prototypes
try:
    from concf import overlap
except ImportError:
    from concf import objectives as overlap
overlap.OVERLAP_MIN_WORK = 0
overlap._usable_cpus = lambda: 2
for module, name, value in ((prototypes, "MIN_TILE_WORK", 1),
                            (prototypes, "TILE_ENTRIES", 48 * 8), (evaluator, "_CHUNK", 64)):
    if hasattr(module, name):
        setattr(module, name, value)
code = cli.main(sys.argv[1:])
started = sys.argv[1] != 'train' or os.getpid() in overlap._WORKERS
sys.exit(code or (0 if started else 'the worker never started'))
"""

# prints the digest of each part of the split in argv[1], its user and item
# counts and its meta, as loaded by the tree's package
LOAD_CHILD = """
import hashlib, json, sys
from concf.dataset import DatasetSplit
split = DatasetSplit.load(sys.argv[1])
print(json.dumps({
    **{name: [str(rows.dtype), list(rows.shape), hashlib.sha256(rows.tobytes()).hexdigest()]
       for name in ("train", "valid", "test") for rows in [getattr(split, name)]},
    "n_users": split.n_users, "n_items": split.n_items, "meta": split.meta,
}, sort_keys=True))
"""
# (name, min_count) of each compared prepare; the second one's input repeats records
PREPARES = (("planted", "0"), ("repeats", "15"))

TRAIN_FLAGS = ["--lambda1", "1e-6", "--lambda2", "1e-6", "--tau", "0.05",
               "--k-users", "8", "--k-items", "8", "--seed", "0"]


def python(src: Path, launch: list[str], what: str, *args: str) -> str:
    """Run ``python LAUNCH ARGS`` on the package under ``src`` and return its
    stdout; a failure exits, naming ``what``."""
    env = dict(os.environ, PYTHONPATH=str(src))
    res = subprocess.run([sys.executable, *launch, *args], capture_output=True,
                         text=True, env=env, cwd=src)
    if res.returncode != 0:
        raise SystemExit(f"{what} failed under {src}:\n{res.stderr}")
    return res.stdout


def concf(src: Path, *args: str, gate: str = "closed") -> str:
    """Run ``python -m concf ARGS`` on the package under ``src``, through
    ``WORKER_CHILD`` when ``gate`` is "open", and return its stdout."""
    launch = ["-c", WORKER_CHILD] if gate == "open" else ["-m", "concf"]
    return python(src, launch, f"concf {args[0]}", *args)


def prepared(src: Path, data: Path, split_dir: Path, min_count: str) -> dict[str, bytes]:
    """Every file that ``concf prepare`` run from ``src`` writes to
    ``split_dir`` from ``data``, by name."""
    concf(src, "prepare", "--input", str(data), "--out", str(split_dir),
          "--min-count", min_count, "--seed", "0")
    return {path.name: path.read_bytes() for path in sorted(split_dir.iterdir())}


def split_content(src: Path, split_dir: Path) -> dict:
    """The digest of each part of the split in ``split_dir``, its user and
    item counts and its meta, as the package under ``src`` loads it."""
    return json.loads(python(src, ["-c", LOAD_CHILD], "DatasetSplit.load", str(split_dir)))


def verdict(ours: dict, theirs: dict, name: str) -> str:
    """``identical``, ``DIFFERENT`` (naming the differing fields of two
    dicts), or which one tree alone has ``name``."""
    if name not in theirs:
        return "DIFFERENT (only in tree)"
    if name not in ours:
        return "DIFFERENT (only in rev)"
    a, b = ours[name], theirs[name]
    if a == b:
        return "identical"
    if isinstance(a, dict) and isinstance(b, dict):
        fields = sorted(key for key in a.keys() | b.keys() if a.get(key) != b.get(key))
        return f"DIFFERENT ({', '.join(fields)})"
    return "DIFFERENT"


def outputs(src: Path, split_dir: Path, work: Path, dtype: str, gate: str) -> dict[str, object]:
    """The compared outputs of the job run from ``src`` on the split in
    ``split_dir``, trained and evaluated with the worker ``gate`` "closed"
    or "open"."""
    out_dir = work / "run"
    concf(src, "train", "--split-dir", str(split_dir), "--out-dir", str(out_dir),
          *TRAIN_FLAGS, "--dtype", dtype, gate=gate)
    history = [json.loads(line) for line in (out_dir / "history.jsonl").read_text().splitlines()]
    for record in history:
        record.pop("seconds")
    manifest = json.loads((out_dir / "manifest.json").read_text())
    for key in ("created_utc", "split_dir"):
        manifest.pop(key)
    evaluated = concf(src, "evaluate", "--checkpoint", str(out_dir / "model.ckpt"),
                      "--split-dir", str(split_dir), "--groups", "5", gate=gate)
    compared = {
        "history.jsonl": history,
        "model.ckpt": (out_dir / "model.ckpt").read_bytes(),
        "evaluate": evaluated,
        "manifest.json": manifest,
    }
    for fmt in ("binary", "text"):
        concf(src, "export", "--checkpoint", str(out_dir / "model.ckpt"), "--split-dir",
              str(split_dir), "--format", fmt, "--out", str(work / "export" / "emb"), gate=gate)
    for path in sorted((work / "export").iterdir()):
        compared[f"export {path.name}"] = path.read_bytes()
    return compared


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", help="git revision to compare the working tree against")
    rev = parser.parse_args(argv).rev
    with tempfile.TemporaryDirectory(prefix="same-trajectory-") as tmp:
        tmp = Path(tmp)
        export(rev, tmp / "rev")
        trees = {"rev": tmp / "rev" / "src", "tree": ROOT / "src"}
        data = {"planted": tmp / "interactions.tsv", "repeats": tmp / "repeats.tsv"}
        planted_communities(data["planted"], seed=0)
        lines = data["planted"].read_text().splitlines(keepends=True)
        data["repeats"].write_text("".join(lines + lines[::7]))
        differ = False
        for name, min_count in PREPARES:
            splits = {tree: prepared(src, data[name], tmp / f"{tree}-{name}", min_count)
                      for tree, src in trees.items()}
            for file in sorted(splits["tree"].keys() | splits["rev"].keys()):
                said = verdict(splits["tree"], splits["rev"], file)
                differ |= said != "identical"
                print(f"prepare {name} {file}: {said}")
            # each tree's split, loaded by that tree
            content = {tree: split_content(src, tmp / f"{tree}-{name}")
                       for tree, src in trees.items()}
            same = content["tree"] == content["rev"]
            differ |= not same
            print(f"prepare {name} parts, n_users, n_items, meta: "
                  f"{'identical' if same else 'DIFFERENT'}")
        for dtype in ("float32", "float64"):
            for gate in ("closed", "open"):
                job = f"{dtype}-{gate}"
                theirs, ours = (
                    outputs(src, tmp / f"{tree}-planted", tmp / f"{tree}-{job}", dtype, gate)
                    for tree, src in trees.items()
                )
                for name in ours:
                    said = verdict(ours, theirs, name)
                    differ |= said != "identical"
                    print(f"{dtype} gate {gate} {name}: {said}")
                manifest = ours["manifest.json"]
                print(f"{dtype} gate {gate} run {manifest['run_id']}: "
                      f"{manifest['epochs_run']} epochs, best epoch {manifest['best_epoch']}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
