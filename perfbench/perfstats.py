"""Pure statistics behind perfbench/run.py.

Kept free of I/O so perfbench/test_perfstats.py can pin each rule:
percentiles with the ten-samples-beyond rule, span reconstruction and
wall-clock layer attribution, obs registry deltas, and the results-digest
store.
"""

import bisect
import json
import math
import os

MIN_BEYOND = 10


# -- percentiles -----------------------------------------------------------

def percentile(values, q):
    """Linear-interpolated quantile q in [0, 1] of a non-empty sequence."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no samples")
    pos = (len(xs) - 1) * q
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def samples_beyond(n, q):
    """Samples ranked above the q-quantile of n samples."""
    return n - math.ceil(q * n - 1e-9)


def tail_ok(n, q):
    """The reporting rule: a tail is reported only with ten samples beyond."""
    return samples_beyond(n, q) >= MIN_BEYOND


def median(values):
    return percentile(values, 0.5)


# -- spans and layer attribution -------------------------------------------

class Span:
    __slots__ = ("name", "tid", "start", "end", "detail")

    def __init__(self, name, tid, start, end, detail=""):
        self.name, self.tid, self.start, self.end, self.detail = name, tid, start, end, detail

    def __repr__(self):
        return f"Span({self.name!r}, {self.tid}, {self.start}, {self.end}, {self.detail!r})"


def spans_from_trace(events):
    """Pairs Chrome trace_event B/E events per thread into Spans (ns)."""
    stacks = {}
    spans = []
    for e in events:
        ph = e.get("ph")
        if ph == "B":
            stacks.setdefault(e["tid"], []).append(e)
        elif ph == "E":
            stack = stacks.get(e["tid"])
            if not stack:
                raise ValueError(f"unbalanced E event on tid {e['tid']}")
            b = stack.pop()
            detail = (b.get("args") or {}).get("detail", "")
            spans.append(Span(b["name"], b["tid"], round(b["ts"] * 1000), round(e["ts"] * 1000),
                              detail))
    for tid, stack in stacks.items():
        if stack:
            raise ValueError(f"unclosed span on tid {tid}")
    return spans


def self_times(spans):
    """Per-name self time: each span's duration minus the part of it its
    child spans (same thread, nested inside it) cover."""
    out = {}
    by_tid = {}
    for s in spans:
        by_tid.setdefault(s.tid, []).append(s)
    for group in by_tid.values():
        group.sort(key=lambda s: (s.start, -s.end))
        stack = []  # [span, covered_by_children]
        def close(entry):
            span, covered = entry
            out[span.name] = out.get(span.name, 0) + (span.end - span.start) - covered
            if stack:
                stack[-1][1] += span.end - span.start
        for s in group:
            while stack and stack[-1][0].end <= s.start:
                close(stack.pop())
            stack.append([s, 0])
        while stack:
            close(stack.pop())
    return out


def attribute(window, spans, ranks):
    """Wall-clock attribution of one operation.

    Every instant of `window` (start, end) goes to the deepest layer
    active at that instant on any thread, depth given by `ranks`
    (name -> int, higher is deeper); spans with unranked names are
    ignored. Returns ({name: ns}, unattributed_ns), where unattributed is
    the time no ranked span other than a rank-0 root covers. The values
    always sum to the window length.
    """
    lo, hi = window
    edges = []
    for s in spans:
        rank = ranks.get(s.name)
        if rank is None:
            continue
        a, b = max(s.start, lo), min(s.end, hi)
        if a < b:
            edges.append((a, 1, rank, s.name))
            edges.append((b, -1, rank, s.name))
    edges.sort(key=lambda e: (e[0], e[1]))
    active = {}  # (rank, name) -> open span count
    out = {}
    unattributed = 0
    t = lo
    for time, delta, rank, name in edges + [(hi, 0, 0, None)]:
        if time > t:
            top = max(active, default=None)  # deepest rank, ties by name
            if top is None or top[0] == 0:
                unattributed += time - t
            else:
                out[top[1]] = out.get(top[1], 0) + time - t
            t = time
        if delta:
            key = (rank, name)
            active[key] = active.get(key, 0) + delta
            if active[key] == 0:
                del active[key]
    return out, unattributed


class SpanIndex:
    """Spans sorted by start, for fast "what overlaps this window" queries."""

    def __init__(self, spans):
        self.spans = sorted(spans, key=lambda s: s.start)
        self.starts = [s.start for s in self.spans]
        self.max_len = max((s.end - s.start for s in self.spans), default=0)

    def overlapping(self, lo, hi):
        first = bisect.bisect_left(self.starts, lo - self.max_len)
        last = bisect.bisect_left(self.starts, hi)
        return [s for s in self.spans[first:last] if s.end > lo]


# -- obs registry deltas ----------------------------------------------------

def registry_delta(before, after):
    """Counter and histogram deltas between two Registry::to_json() docs.

    Instruments first registered inside the window count from zero.
    Returns {"counters": {name: delta}, "histograms": {name: (count, sum)}}.
    """
    counters = {}
    for name, value in after.get("counters", {}).items():
        counters[name] = value - before.get("counters", {}).get(name, 0)
    histograms = {}
    for name, h in after.get("histograms", {}).items():
        b = before.get("histograms", {}).get(name, {"count": 0, "sum": 0.0})
        histograms[name] = (h["count"] - b["count"], h["sum"] - b["sum"])
    return {"counters": counters, "histograms": histograms}


def histogram_mean(delta, name):
    count, total = delta["histograms"].get(name, (0, 0.0))
    return total / count if count else 0.0


def ratio(num, den):
    return num / den if den else 0.0


# -- results digests --------------------------------------------------------

def check_digest(store_dir, reference, workload, seed, digest):
    """Compares a run's results digest with the one recorded with the
    benchmark for (workload, seed), if any, and with the first digest this
    checkout produced for it (recorded on first sight). Returns a list of
    mismatch descriptions; empty when consistent."""
    problems = []
    expected = reference.get(workload, {}).get(str(seed))
    if expected is not None and expected != digest:
        problems.append(f"digest {digest} differs from the recorded reference {expected}")
    os.makedirs(store_dir, exist_ok=True)
    path = os.path.join(store_dir, f"{workload}-{seed}.digest")
    if os.path.exists(path):
        with open(path) as f:
            first = f.read().strip()
        if first != digest:
            problems.append(f"digest {digest} differs from an earlier run's {first}")
    else:
        with open(path, "w") as f:
            f.write(digest + "\n")
    return problems


def load_json(path, default):
    try:
        with open(path) as f:
            return json.load(f)
    except FileNotFoundError:
        return default
