"""Span recorder for the traced run.

`Recorder.install()` wraps the public functions named in TRACED and rebinds
every module attribute of the package that is bound to one of them, so a
caller's own lookup (say `walls.iterate`, imported from `pell`, or
`cli.wall_record`, imported from `jsonio`) reaches the wrapper.  Each call
becomes a span (name, start, end, parent, query id) kept in flat arrays in
memory, written out by `dump()` and reduced to per-name self times by
`reduce()`.  `uninstall()` restores the original bindings.
"""

from __future__ import annotations

import gzip
import importlib
from array import array
from time import perf_counter

TRACED = (
    "cli.main",
    "walls.enumerate_walls_on_line",
    "walls.wall_between",
    "walls.codim0_walls",
    "walls.is_codim0",
    "walls.classify_point",
    "pell.solve_generator",
    "pell.iterate",
    "pell.interval_index",
    "pell.slope_endpoints",
    "pell.u_vectors",
    "surd.squarefree_decompose",
    "lattice.pairing",
    "fmgroup.act_on_vector",
    "fmgroup.mobius",
    "oracle.brute_walls",
    "jsonio.wall_record",
    "svg.render",
)
MODULES = ("cli", "walls", "pell", "surd", "lattice", "charge", "fmgroup", "oracle", "jsonio", "svg")
ENUMERATE = TRACED.index("walls.enumerate_walls_on_line")
WALL_BETWEEN = TRACED.index("walls.wall_between")


class Recorder:
    def __init__(self):
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.qid = array("l")
        self.enum_walls = {}  # span index of an enumeration -> walls it returned
        self.stack = []
        self.query = -1
        self.query_first = 0
        self._saved = []

    def _wrap(self, nid, fn):
        names, starts, ends, parents, qids, stack = (
            self.name, self.start, self.end, self.parent, self.qid, self.stack)
        rec = self

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            qids.append(rec.query)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if nid == ENUMERATE:
                rec.enum_walls[idx] = len(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        mods = {m: importlib.import_module(f"stabwalls.{m}") for m in MODULES}
        for nid, dotted in enumerate(TRACED):
            mod, attr = dotted.split(".")
            orig = getattr(mods[mod], attr)
            wrapper = self._wrap(nid, orig)
            for m in mods.values():
                for key, val in list(vars(m).items()):
                    if val is orig:
                        self._saved.append((m, key, orig))
                        setattr(m, key, wrapper)

    def uninstall(self):
        for m, key, orig in reversed(self._saved):
            setattr(m, key, orig)
        self._saved.clear()

    def begin_query(self, qid):
        self.query = qid
        self.query_first = len(self.start)
        self.stack.clear()

    def end_query(self, t_end):
        """Repair what a deadline interrupted: drop a span caught half
        appended and close the spans it left open."""
        arrays = (self.name, self.start, self.end, self.parent, self.qid)
        keep = min(len(a) for a in arrays)
        for a in arrays:
            del a[keep:]
        for i in range(self.query_first, keep):
            if self.end[i] == 0.0:
                self.end[i] = t_end
        self.stack.clear()

    def reduce(self, first_span, end_span):
        """Per-name calls, inclusive seconds of outermost calls, self
        seconds, per-query self-time sums, and (walls returned, wall_between
        calls) under enumeration, over spans first_span..end_span-1."""
        count = end_span - first_span
        child = [0.0] * count
        for i in range(first_span, end_span):
            p = self.parent[i]
            if p >= first_span:
                child[p - first_span] += self.end[i] - self.start[i]
        names = len(TRACED)
        calls, incl, self_s = [0] * names, [0.0] * names, [0.0] * names
        per_query = {}
        enum_calls = enum_walls = 0
        for j in range(count):
            i = first_span + j
            nid = self.name[i]
            dur = self.end[i] - self.start[i]
            calls[nid] += 1
            own = dur - child[j]
            self_s[nid] += own
            per_query[self.qid[i]] = per_query.get(self.qid[i], 0.0) + own
            p, outer, under_enum = self.parent[i], True, False
            while p >= 0:
                if self.name[p] == nid:
                    outer = False
                if self.name[p] == ENUMERATE:
                    under_enum = True
                p = self.parent[p]
            if outer:
                incl[nid] += dur
                if nid == ENUMERATE:
                    enum_walls += self.enum_walls.get(i, 0)
            if nid == WALL_BETWEEN and under_enum:
                enum_calls += 1
        stats = {}
        for nid, dotted in enumerate(TRACED):
            stats[dotted] = {"calls": calls[nid], "s": incl[nid], "self_s": self_s[nid]}
        return stats, per_query, (enum_walls, enum_calls)

    def dump(self, path, header):
        """Write every span as a CSV line, gzip-compressed."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(f"# {header}\n")
            fh.write("name,start,end,parent,query\n")
            for i in range(len(self.start)):
                fh.write(f"{TRACED[self.name[i]]},{self.start[i]:.9f},{self.end[i]:.9f},"
                         f"{self.parent[i]},{self.qid[i]}\n")
