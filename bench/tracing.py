"""In-memory spans around calls into concf's public functions.

The program is not changed: ``Tracer.install`` replaces every binding of
each traced function in every loaded ``concf`` module (``from .graph import
propagate`` binds ``propagate`` again in ``model`` and ``objectives``) with a
wrapper that records a span, and ``Tracer.uninstall`` puts the originals back.
A span is ``[name, start, end, parent index, annotation]``.
"""

from __future__ import annotations

import contextlib
import functools
import json
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Callable

# span name -> (module, attribute path, annotation of the return value)
TRACED: dict[str, tuple[str, str, Callable[[Any], Any] | None]] = {
    "dataset.load_interactions": ("concf.dataset", "load_interactions", None),
    "dataset.k_core_filter": ("concf.dataset", "k_core_filter", None),
    "dataset.build_split": ("concf.dataset", "build_split", None),
    "dataset.save": ("concf.dataset", "DatasetSplit.save", None),
    "dataset.load": ("concf.dataset", "DatasetSplit.load", None),
    "dataset.sample_negatives": ("concf.dataset", "sample_negatives", None),
    "graph.build_normalized_adjacency": ("concf.graph", "build_normalized_adjacency", None),
    "graph.propagate": ("concf.graph", "propagate", None),
    "model.init_embeddings": ("concf.model", "init_embeddings", None),
    "model.forward": ("concf.model", "forward", None),
    "model.save_checkpoint": ("concf.model", "save_checkpoint", None),
    "model.load_checkpoint": ("concf.model", "load_checkpoint", None),
    "objectives.total_loss_and_gradient": ("concf.objectives", "total_loss_and_gradient", None),
    "objectives.bpr_loss": ("concf.objectives", "bpr_loss", None),
    "objectives.structure_contrastive_loss": (
        "concf.objectives", "structure_contrastive_loss", None),
    "objectives.prototype_contrastive_loss": (
        "concf.objectives", "prototype_contrastive_loss", None),
    "objectives.reg_loss": ("concf.objectives", "reg_loss", None),
    "prototypes.e_step": ("concf.prototypes", "e_step", None),
    "prototypes.run_kmeans": ("concf.prototypes", "run_kmeans", lambda r: r.n_iters),
    "trainer.adam_step": ("concf.trainer", "adam_step", None),
    "trainer.train": ("concf.trainer", "train", None),
    "evaluator.full_rank_eval": (
        "concf.evaluator", "full_rank_eval", lambda r: r.n_evaluated_users),
    "evaluator.sparsity_group_report": ("concf.evaluator", "sparsity_group_report", None),
}


class NullTracer:
    """Untraced runs: spans cost nothing and record nothing."""

    def span(self, name: str):
        return contextlib.nullcontext()


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self.binding_sites: dict[str, int] = {}

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        rec = [name, time.perf_counter(), 0.0, parent, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name: str, fn: Callable, annotate: Callable | None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
                if annotate is not None:
                    rec[4] = annotate(result)
                return result

        return traced

    def cost_per_span(self, calls: int = 20_000, rounds: int = 7) -> float:
        """Seconds a traced call adds to the call it wraps: a wrapped no-op
        against the bare no-op, median of ``rounds`` timings of ``calls`` calls.
        Spans go to a scratch tracer, so this tracer's spans are unchanged."""
        def noop():
            return None

        scratch = Tracer()
        wrapped = scratch._wrap("noop", noop, None)
        added = []
        for _ in range(rounds):
            scratch.spans.clear()
            t0 = time.perf_counter()
            for _ in range(calls):
                noop()
            t1 = time.perf_counter()
            for _ in range(calls):
                wrapped()
            t2 = time.perf_counter()
            added.append(((t2 - t1) - (t1 - t0)) / calls)
        return statistics.median(added)

    def install(self) -> None:
        """Wrap every binding of every traced function in the loaded concf modules."""
        modules = [m for n, m in sys.modules.items() if n == "concf" or n.startswith("concf.")]
        for name, (mod_name, attr, annotate) in TRACED.items():
            owner = sys.modules[mod_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(name, raw.__func__, annotate))
                else:
                    wrapped = self._wrap(name, raw, annotate)
                self._restore.append((cls, meth, raw))
                setattr(cls, meth, wrapped)
                self.binding_sites[name] = 1
                continue
            original = getattr(owner, attr)
            wrapped = self._wrap(name, original, annotate)
            sites = 0
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, key, original))
                        setattr(module, key, wrapped)
                        sites += 1
            self.binding_sites[name] = sites

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, note in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "note": note}) + "\n")


class SpanIndex:
    """Aggregates over the spans below the given root spans."""

    def __init__(self, spans: list[list], roots: set[str]) -> None:
        self.spans = spans
        root_of: list[str | None] = []
        for name, _, _, parent, _ in spans:
            if parent < 0:
                root_of.append(name)
            else:
                root_of.append(root_of[parent])
        self.keep = [i for i, r in enumerate(root_of) if r in roots]
        self.child_time = [0.0] * len(spans)
        for i, (_, start, end, parent, _) in enumerate(spans):
            if parent >= 0:
                self.child_time[parent] += end - start

    def _select(self, name: str) -> list[int]:
        return [i for i in self.keep if self.spans[i][0] == name]

    def calls(self, name: str) -> int:
        return len(self._select(name))

    def total(self, name: str) -> float:
        return sum(self.spans[i][2] - self.spans[i][1] for i in self._select(name))

    def p50(self, name: str) -> float:
        durations = [self.spans[i][2] - self.spans[i][1] for i in self._select(name)]
        return statistics.median(durations) if durations else 0.0

    def busy(self, name: str) -> float:
        """Self time: duration minus the time covered by child spans."""
        return sum(
            self.spans[i][2] - self.spans[i][1] - self.child_time[i] for i in self._select(name)
        )

    def notes(self, name: str) -> list:
        return [self.spans[i][4] for i in self._select(name)]

    def descendants_per_call(self, name: str, child: str) -> list[int]:
        """For each ``name`` span, how many ``child`` spans ran inside it."""
        counts = {i: 0 for i in self._select(name)}
        for i in self._select(child):
            parent = self.spans[i][3]
            while parent >= 0 and parent not in counts:
                parent = self.spans[parent][3]
            if parent >= 0:
                counts[parent] += 1
        return list(counts.values())
