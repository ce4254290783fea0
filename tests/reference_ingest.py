"""A frozen per-line copy of ``load_interactions``, the reference that the
vectorized ingest must match: equal ``RawInteractions`` arrays, or the same
``ParseError`` text.

It reads the file in text mode (universal newlines, strict UTF-8), splits
each line with ``str.split``, and codes each column by ``sorted(set(keys))``,
then drops repeated pairs, keeping each pair's first occurrence.
"""

import numpy as np

from concf.dataset import ParseError, RawInteractions


def load_interactions(path, fmt="tsv"):
    if fmt not in ("tsv", "csv"):
        raise ValueError(f"unknown format {fmt!r}, expected 'tsv' or 'csv'")
    sep = "\t" if fmt == "tsv" else ","
    users, items = [], []
    try:
        with open(path, encoding="utf-8") as fh:
            for ln, line in enumerate(fh, start=1):
                line = line.rstrip("\n")
                if not line or line.startswith("#"):
                    continue
                fields = line.split(sep, 2)
                if len(fields) < 2:
                    raise ParseError(f"{path}: line {ln}: expected at least 2 fields, got 1")
                if not fields[0] or not fields[1]:
                    raise ParseError(f"{path}: line {ln}: empty user or item key")
                users.append(fields[0])
                items.append(fields[1])
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not valid UTF-8 ({exc.reason})") from None
    if not users:
        raise ParseError(f"{path}: no interactions found")
    tables, codes = [], []
    for keys in (users, items):
        table = sorted(set(keys))
        index = {k: n for n, k in enumerate(table)}
        tables.append(np.array(table, dtype=object))
        codes.append(np.fromiter(map(index.__getitem__, keys), dtype=np.int64, count=len(keys)))
    u, i = codes
    first = np.sort(np.unique(u * len(tables[1]) + i, return_index=True)[1])
    return RawInteractions(*tables, u[first], i[first])
