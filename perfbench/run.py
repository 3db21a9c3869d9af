#!/usr/bin/env python3
"""Repository benchmark for mpsched.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds perfbench_driver (the library
plus the load generator, perfbench/CMakeLists.txt) into the build
directory — $CARGO_TARGET_DIR if set, else .bench_build — runs the
workload as one driver process per CPU this process may use, all at
once, each pinned to its own CPU with the same inputs; checks every
result, and prints one JSON object as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
(BENCHMARK.json lists both). The line before it is a "detail" object with
sample counts, the tail percentile used, offered and achieved rates and
the first failures. perfbench/README.md describes the workloads and the
metrics.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import perfstats as ps  # noqa: E402

WORKLOADS = ("batch_cold", "batch_solve", "serve_mixed")
# Tail percentiles tried, highest first: a tail is reported at the highest
# one the samples fill with ten beyond it.
TAIL_LADDER = (0.99, 0.9, 0.75, 0.5)
# Every driver must have ended this long after the instances start, so a
# run ends within the benchmark's time limit.
DRIVER_TIMEOUT_S = 170

# Wall-clock attribution depth (perfstats.attribute): the driver's spans
# frame each call into the program, the program's spans nest inside.
RANKS = {
    "bench.op": 0,
    "service.call": 1,
    "bench.engine_start": 2,
    "bench.engine_stop": 2,
    "io.corpus_parse": 2,
    "io.results_serialize": 2,
    "io.request_encode": 2,
    "io.response_decode": 2,
    "serve.request": 3,
    "queue.wait": 4,
    "engine.dispatch": 5,
    "engine.prepare": 6,
    "engine.enumerate": 7,
    "engine.select": 7,
    "engine.schedule": 7,
    "cache.disk.load": 8,
    "cache.disk.store": 8,
}
CLIENT_SPANS = {"bench.op", "service.call", "bench.engine_start", "bench.engine_stop",
                "io.corpus_parse", "io.results_serialize", "io.request_encode",
                "io.response_decode"}
ATTR_NAMES = {
    "service.call": "attr.transport_ms",
    "bench.engine_start": "attr.engine_start_stop_ms",
    "bench.engine_stop": "attr.engine_start_stop_ms",
    "io.corpus_parse": "attr.io_parse_ms",
    "io.results_serialize": "attr.io_serialize_ms",
    "io.request_encode": "attr.io_encode_ms",
    "io.response_decode": "attr.io_decode_ms",
    "serve.request": "attr.service_ms",
    "queue.wait": "attr.queue_wait_ms",
    "engine.dispatch": "attr.dispatch_ms",
    "engine.prepare": "attr.prepare_ms",
    "engine.enumerate": "attr.enumerate_ms",
    "engine.select": "attr.select_ms",
    "engine.schedule": "attr.schedule_ms",
    "cache.disk.load": "attr.disk_ms",
    "cache.disk.store": "attr.disk_ms",
}

END_TO_END_UNITS = {
    "throughput_jobs_s": "1/s",
    "latency_p50_ms": "ms",
    "setup_s": "s",
    "cycles_sum": "cycles",
    "peak_rss_mb": "MB",
}


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(build_root):
    """Configures (once) and builds perfbench_driver; returns its path."""
    cmake_dir = os.path.join(build_root, "perfbench-cmake")
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", cmake_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            shutil.rmtree(cmake_dir, ignore_errors=True)
            raise RuntimeError("cmake configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmd = ["cmake", "--build", cmake_dir, "--target", "perfbench_driver", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        raise RuntimeError("build failed")
    return os.path.join(cmake_dir, "perfbench_driver")


class Ops:
    """The driver's per-operation rows, as named columns (ns timestamps)."""

    def __init__(self, raw):
        cols = raw["ops_columns"]
        self.rows = [dict(zip(cols, row)) for row in raw["ops"]]
        self.start = raw["window"][0]

    def in_mode(self, traced):
        """Ops that ran with tracing on (or off) from start to end."""
        return [r for r in self.rows if r["traced"] == int(traced)]

    def span_s(self):
        return (max(r["end_ns"] for r in self.rows) - self.start) / 1e9


def latencies_ms(rows):
    """Per-op latency, from when the op was due (open loop: its scheduled
    send time; closed loop: when the caller issued it)."""
    return [(r["end_ns"] - r["due_ns"]) / 1e6 for r in rows if r["ok"]]


def tail(lat):
    """(percentile, value) at the highest TAIL_LADDER step with ten samples
    beyond it; (0, 0.0) when even the median has fewer."""
    for q in TAIL_LADDER:
        if ps.tail_ok(len(lat), q):
            return q, ps.percentile(lat, q)
    return 0, 0.0


def cpu_ms_per_job(raw, ok_rows):
    """Process CPU time (client, server and engine threads) per completed
    job over the window, the host-speed probe's own time taken out."""
    cpu_ms = raw["cpu_s"] * 1e3 - sum(raw["probe_ms"])
    return cpu_ms / sum(r["jobs"] for r in ok_rows)


def end_to_end(raws, ops_list):
    """Over all instances: jobs per second summed, the median latency and
    set-up over every operation and set-up, the largest peak RSS."""
    lat = [x for ops in ops_list for x in latencies_ms(ops.rows)]
    if not lat:
        raise RuntimeError("no successful operation")
    metrics = {
        "throughput_jobs_s": sum(sum(r["jobs"] for r in ops.rows if r["ok"]) / ops.span_s()
                                 for ops in ops_list),
        "latency_p50_ms": ps.median(lat),
        "setup_s": ps.median([x for raw in raws for x in raw["setup_s"]]),
        "cycles_sum": raws[0]["cycles_sum"],
        "peak_rss_mb": max(raw["peak_rss_kb"] for raw in raws) / 1024.0,
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}


def open_loop(raw, ops):
    """Offered vs achieved rate, generator lateness and backlog growth
    (late-send drift from the first tenth of the window's untraced
    operations to the last); none for a closed loop."""
    if raw["info"]["loop"] != "open":
        return {}
    rate = raw["info"]["offered_rate"]
    rows = ops.in_mode(False)
    achieved = sum(1 for r in ops.rows if r["ok"]) / ops.span_s()
    late = [(r["start_ns"] - r["due_ns"]) / 1e6 for r in rows]
    tenth = max(1, len(rows) // 10)
    return {
        "bench.offered_rate_per_s": rate,
        "bench.achieved_rate_per_s": achieved,
        "bench.gen_late_p99_ms": ps.percentile(late, 0.99),
        "bench.backlog_growth_ms": ps.median(late[-tenth:]) - ps.median(late[:tenth]),
    }


def per_layer(raw, ops, trace_events):
    traced = ops.in_mode(True)
    untraced = ops.in_mode(False)
    if not traced or not untraced:
        raise RuntimeError("trace run has no complete traced or untraced operations")
    n_ops = len(ops.rows)
    delta = ps.registry_delta(raw["registry_before"], raw["registry_after"])
    counts = raw["counts"]
    cal = raw["calibration"]

    def c(name):
        return counts.get(name, 0.0)

    spans = ps.spans_from_trace(trace_events)
    index = ps.SpanIndex([s for s in spans if s.name in RANKS])
    op_tid = {}
    for s in spans:
        if s.name == "bench.op" and s.detail.startswith("op "):
            op_tid[int(s.detail[3:])] = s.tid
    attr_sum = {}
    self_sum = {}
    unattributed = []
    for r in traced:
        lo, hi = r["start_ns"], r["end_ns"]
        mine = index.overlapping(lo, hi)
        tid = op_tid.get(r["index"])
        if tid is not None:  # drop the other connection's client-side spans
            mine = [s for s in mine if s.name not in CLIENT_SPANS or s.tid == tid]
        layers, rest = ps.attribute((lo, hi), mine, RANKS)
        unattributed.append(rest / 1e6)
        for name, ns in layers.items():
            key = ATTR_NAMES[name]
            attr_sum[key] = attr_sum.get(key, 0) + ns
        inside = [s for s in mine if s.start >= lo and s.end <= hi]
        for name, ns in ps.self_times(inside).items():
            self_sum[name] = self_sum.get(name, 0) + ns
    n_traced = len(traced)

    def self_ms(name):
        return self_sum.get(name, 0) / 1e6 / n_traced

    # Shard imbalance: max/mean enumerate span per dispatch that sharded.
    imbalance = []
    dispatch_index = ps.SpanIndex([s for s in spans if s.name == "engine.enumerate"])
    for d in (s for s in spans if s.name == "engine.dispatch"):
        shards = [s.end - s.start for s in dispatch_index.overlapping(d.start, d.end)
                  if s.start >= d.start and s.end <= d.end]
        if len(shards) >= 2:
            imbalance.append(max(shards) / (sum(shards) / len(shards)))

    lat_t = latencies_ms(traced)
    lat_u = latencies_ms(untraced)
    service_ms = ps.histogram_mean(delta, "serve.request_ms")
    # Transport: the client's round trip minus the server's handling of it,
    # over the traced requests (one serve.request per service.call).
    calls = [s.end - s.start for s in spans if s.name == "service.call"]
    served = [s.end - s.start for s in spans if s.name == "serve.request"]
    transport_ms = ps.ratio(sum(calls) - sum(served), len(calls)) / 1e6
    shard_count, shard_sum = delta["histograms"].get("engine.shard_ms", (0, 0.0))
    batches = c("engine.batches")
    tail_q, tail_value = tail(lat_u)

    m = {
        # io
        "io.corpus_parse_ms": cal.get("io.corpus_parse_ms", self_ms("io.corpus_parse")),
        "io.results_serialize_ms": cal.get("io.results_serialize_ms",
                                           self_ms("io.results_serialize")),
        "io.request_encode_ms": self_ms("io.request_encode"),
        "io.response_decode_ms": self_ms("io.response_decode"),
        "io.response_bytes": ps.ratio(c("io.response_bytes"), n_ops),
        # workloads
        "workloads.instantiate_ms": cal.get("workloads.instantiate_ms", 0.0),
        # engine prepare
        "engine.prepare_ms": self_ms("engine.prepare"),
        "cache.graph_hit_ratio": ps.ratio(c("cache.graph_hits"),
                                          c("cache.graph_hits") + c("cache.graph_misses")),
        # antichain
        "antichain.enumerate_cpu_ms": shard_sum / n_ops,
        "antichain.antichains": c("antichain.antichains") / n_ops,
        "antichain.shards": shard_count / n_ops,
        "antichain.shard_imbalance": ps.median(imbalance) if imbalance else 0.0,
        # engine dedup
        "engine.analyses_computed": c("engine.analyses_computed") / n_ops,
        "engine.analyses_reused": c("engine.analyses_reused") / n_ops,
        # core / sched
        "core.select_ms": self_ms("engine.select"),
        "core.schedule_ms": self_ms("engine.schedule"),
        "core.refine_ms": c("core.refine_ms") / n_ops,
        "sched.exhaustive_ms": c("sched.exhaustive_ms") / n_ops,
        "sched.force_directed_ms": c("sched.force_directed_ms") / n_ops,
        "sched.slowest_job_ms": c("sched.slowest_job_ms") / n_ops,
        # engine cache tiers
        "cache.analysis_hit_ratio": ps.ratio(
            c("cache.analysis_hits"), c("cache.analysis_hits") + c("cache.analysis_misses")),
        "cache.disk.stores": delta["counters"].get("cache.disk.stores", 0) / n_ops,
        "cache.disk.write_ms": ps.histogram_mean(delta, "cache.disk.write_ms"),
        "cache.disk.hits": delta["counters"].get("cache.disk.hits", 0) / n_ops,
        "cache.disk.read_ms": ps.histogram_mean(delta, "cache.disk.read_ms"),
        # queue + dispatch
        "queue.wait_ms": ps.histogram_mean(delta, "queue.wait_ms"),
        "queue.jobs_per_flush": ps.histogram_mean(delta, "queue.coalesce_jobs"),
        "engine.dispatches": delta["counters"].get("engine.dispatches", 0) / n_ops,
        "engine.coalesced_share": ps.ratio(c("engine.coalesced_dispatches"), batches),
        "engine.dispatch_ms": ps.histogram_mean(delta, "engine.dispatch_ms"),
        # service
        "service.request_ms": service_ms,
        "service.transport_ms": transport_ms,
        "service.errors": delta["counters"].get("serve.errors", 0),
        # benchmark validity
        "bench.unattributed_ms": ps.median(unattributed),
        "bench.attributed_pct": 100.0 * (1 - ps.ratio(
            sum(unattributed), sum(r["end_ns"] - r["start_ns"] for r in traced) / 1e6)),
        "bench.tracing_overhead_pct": 100.0 * (ps.median(lat_t) / ps.median(lat_u) - 1),
        "bench.latency_tail_ms": tail_value,
        "bench.tail_percentile": tail_q,
        "bench.untraced_ops": len(lat_u),
        "bench.traced_ops": n_traced,
        "bench.host_probe_ms": ps.median(raw["probe_ms"]),
        "bench.cpu_per_job_ms": cpu_ms_per_job(raw, [r for r in ops.rows if r["ok"]]),
        "bench.offered_rate_per_s": 0.0,
        "bench.achieved_rate_per_s": 0.0,
        "bench.gen_late_p99_ms": 0.0,
        "bench.backlog_growth_ms": 0.0,
        "bench.failed_frac": ps.ratio(sum(1 for r in ops.rows if not r["ok"]), n_ops),
        "obs.trace_dropped": raw["trace_dropped"],
    }
    m.update(open_loop(raw, ops))
    for key in set(ATTR_NAMES.values()):
        m[key] = attr_sum.get(key, 0) / 1e6 / n_traced
    units = {}
    for k in m:
        if k.endswith("_ms"):
            units[k] = "ms"
        elif k.endswith("_pct"):
            units[k] = "%"
        elif k.endswith("_per_s"):
            units[k] = "1/s"
        elif k.endswith("_bytes"):
            units[k] = "bytes"
        elif k.endswith(("ratio", "share", "frac", "percentile")) or \
                k in ("antichain.shard_imbalance", "queue.jobs_per_flush"):
            units[k] = "ratio"
        else:
            units[k] = "count"
    return {k: {"value": v, "unit": units[k]} for k, v in sorted(m.items())}


def run_instances(driver, args, work):
    """Runs one driver per CPU this process may use, all at once, each
    pinned to its own CPU and in its own directory under `work`; returns
    their raw documents, instance 0 first. Only instance 0 is traced; the
    others carry the same load untraced. Every driver has ended when this
    returns or raises."""
    procs = []
    try:
        for i, cpu in enumerate(sorted(os.sched_getaffinity(0))):
            wd = os.path.join(work, str(i))
            os.makedirs(wd)
            cmd = [driver, "--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace if i == 0 else 0),
                   "--out", "raw.json"]
            with open(os.path.join(wd, "driver.log"), "w") as out:
                procs.append((wd, subprocess.Popen(
                    cmd, cwd=wd, stdout=out, stderr=subprocess.STDOUT,
                    preexec_fn=lambda cpu=cpu: os.sched_setaffinity(0, {cpu}))))
        deadline = time.monotonic() + DRIVER_TIMEOUT_S
        for wd, proc in procs:
            try:
                code = proc.wait(timeout=max(0.1, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                raise RuntimeError(f"driver in {wd} ran past {DRIVER_TIMEOUT_S} s")
            if code != 0:
                with open(os.path.join(wd, "driver.log")) as f:
                    sys.stderr.write(f.read()[-4000:])
                raise RuntimeError(f"driver in {wd} exited with {code}")
    finally:
        for _, proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
    raws = []
    for wd, _ in procs:
        with open(os.path.join(wd, "raw.json")) as f:
            raws.append(json.load(f))
    return raws


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        driver = build(build_root)
    except RuntimeError as e:
        log(str(e))
        return 2

    work = os.path.join(build_root, "perfbench-work", f"{args.workload}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    try:
        raws = run_instances(driver, args, work)
    except RuntimeError as e:
        log(str(e))
        return 1
    trace_events = []
    if args.trace:
        with open(os.path.join(work, "0", raws[0]["trace_file"])) as f:
            trace_events = json.load(f)["traceEvents"]

    ops_list = [Ops(raw) for raw in raws]
    attempted = sum(len(ops.rows) for ops in ops_list)
    failed = sum(1 for ops in ops_list for r in ops.rows if not r["ok"])
    failures = [f for raw in raws for f in raw["failures"]]
    reference = ps.load_json(os.path.join(HERE, "reference_digests.json"), {})
    for raw in raws:  # every instance ran the same inputs
        for problem in ps.check_digest(os.path.join(build_root, "perfbench-digests"), reference,
                                       args.workload, args.seed, raw["digest"]):
            failed += 1
            failures.append(problem)
    correct = failed == 0

    if args.trace:
        metrics = per_layer(raws[0], ops_list[0], trace_events)
    else:
        metrics = end_to_end(raws, ops_list)

    lat = [x for ops in ops_list for x in latencies_ms(ops.rows)]
    tail_q, tail_value = tail(lat)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "instances": len(raws),
        "loop": raws[0]["info"]["loop"],
        "connections": raws[0]["info"]["connections"],
        "samples": len(lat),
        "tail_percentile": tail_q,
        "latency_tail_ms": tail_value,
        "host_probe_ms": ps.median([x for raw in raws for x in raw["probe_ms"]]),
        "digest": raws[0]["digest"],
        "failures": failures[:5],
    }
    shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
