#!/usr/bin/env python3
"""End-to-end benchmark of HER: three workloads, one command.

    python3 e2ebench/run.py --workload cold-link|scale-match|serve-mixed \\
        --seed N --seconds T --trace 0|1

Run from the repository root. The first run configures and builds
e2ebench/ (which compiles the library from src/) into $CARGO_TARGET_DIR
(default .bench_build). Every metric is printed by name with its unit, and
the last stdout line is one JSON object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
with --trace 1 the per-layer metrics. The exit code is 1 when a
correctness check fails, and the result line is still printed.
See e2ebench/README.md for the workloads and the metric definitions.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import struct
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# serve-mixed: open-loop rates (ops/s). The first rate is the reference
# rate below capacity at which every end-to-end figure is taken; the traced
# run adds the others, as a ladder for detail.max_ok_rate.
SERVE_RATES = [500, 1000, 2000, 4000]
SERVE_LIMIT_MS = 25.0      # p99 latency limit of max_ok_rate
SERVE_DEADLINE_MS = 25     # deadline carried by every op
SERVE_STEP_OPS = 1000      # ops per step: one fresh server, one op stream
# Reference-rate steps per --seconds; ladder steps per rate (traced run).
SERVE_REF_STEPS_PER_SECOND = 0.3
SERVE_LADDER_STEPS = 3
# One long step per run at SERVE_SOAK_RATE, long enough for the
# MaxPraPaths abort to show (it fired within 1.2k-5.4k ops on ten op
# streams tried alone, and one of ten 6k-op soak streams lived past 6k);
# its ops count in attempted/failed only.
SERVE_SOAK_OPS = 10000
SERVE_SOAK_RATE = 1000

KIND_WRITE_MAX = 15        # OpKind values below 16 are writes
OUTCOMES = ("accepted", "rejected", "degraded")
RECORD = struct.Struct("<4d4Iq6B2x")
HEADER = struct.Struct("<4Q")
RECORDS_MAGIC = 0x3145324552454852


def target_dir():
    """Where builds and scratch files go: $CARGO_TARGET_DIR, default
    .bench_build, relative to the working directory."""
    return Path.cwd() / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build():
    """Configures and builds her_e2e (incremental after the first run);
    returns the binary path."""
    bdir = target_dir() / "e2ebench"
    subprocess.run(["cmake", "-S", str(HERE), "-B", str(bdir),
                    "-DCMAKE_BUILD_TYPE=Release"], check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(bdir), "-j", jobs,
                    "--target", "her_e2e"], check=True, stdout=sys.stderr)
    return bdir / "her_e2e"


def run_json(cmd, timeout=170):
    """Runs a her_e2e subcommand and parses its last stdout line."""
    p = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)
    if p.returncode != 0:
        sys.stderr.write(p.stderr)
        raise RuntimeError(f"{cmd[1]} exited with {p.returncode}")
    return json.loads(p.stdout.strip().splitlines()[-1])


def percentile(values, p):
    """Nearest-rank percentile of a non-empty list."""
    v = sorted(values)
    return v[min(len(v) - 1, int(p * len(v)))]


def tail(values):
    """p90, or the slowest sample when there are fewer than 20; returns
    (value, label)."""
    n = len(values)
    if n < 20:
        return max(values), f"max of {n}"
    return percentile(values, 0.9), f"p90 of {n}"


def source_digest():
    h = hashlib.sha256()
    for d in ("src", "e2ebench"):
        for f in sorted((ROOT / d).rglob("*")):
            if f.is_file() and "__pycache__" not in f.parts:
                h.update(str(f.relative_to(ROOT)).encode())
                h.update(f.read_bytes())
    return h.hexdigest()[:16]


def host_stamp(build_info, args):
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    sha = "none"
    try:
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True,
                             timeout=10).stdout.strip() or "none"
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "machine": platform.machine(),
        "compiler": build_info.get("compiler", "?"),
        "build_type": build_info.get("build_type", "?"),
        "HER_FAULTS": build_info.get("her_faults", "?"),
        "git_sha": sha,
        "source_digest": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# ------------------------------------------------------------------ batch

def cold_link(exe, args):
    r = run_json([str(exe), "cold-link", f"--seed={args.seed}",
                  f"--seconds={args.seconds}", f"--trace={args.trace}"])
    # Jobs rotate over the datasets, so the first ones of a run get one job
    # more than the rest. Each figure takes every dataset's median job once,
    # so that how many jobs a run fits does not tilt it towards a dataset.
    n = r["datasets"]
    link = [statistics.median(r["link_s"][i::n]) for i in range(n)]
    rss = [statistics.mean(r["rss_mb"][i::n]) for i in range(n)]
    e2e = {
        "setup_s": (r["setup_s"], "s"),
        "latency_ms": (statistics.mean(link) * 1e3, "ms"),
        "tail_ms": (max(link) * 1e3, "ms"),
        "throughput_per_s": (n * r["entities"] / sum(link), "1/s"),
        "f1": (r["f1"], "share"),
        "peak_rss_mb": (statistics.mean(rss), "MB"),
    }
    notes = [f"request = one link job (Train + APair) on {r['dataset']}, "
             f"{len(r['link_s'])} jobs; per dataset the median job: "
             f"{', '.join(f'{x:.3f}' for x in link)} s; latency = their "
             "mean, tail = the slowest",
             f"throughput = {n * r['entities']} entities / {sum(link):.3f} s "
             "of median link jobs, one per dataset; peak RSS = mean over "
             "datasets of the mean job peak",
             f"Pi digests per dataset {r['pi_digest']} (identical whenever "
             "a dataset is linked again)"]
    detail = {
        "detail.link_s": (statistics.median(r["link_s"]), "s"),
        "detail.train_s": (statistics.median(r["train_s"]), "s"),
        "detail.match_s": (statistics.median(r["match_s"]), "s"),
        "detail.pairs_per_s": (statistics.median(r["pairs_per_s"]), "1/s"),
    }
    return r, e2e, detail, notes


def scale_match(exe, args):
    r = run_json([str(exe), "scale-match", f"--seed={args.seed}",
                  f"--seconds={args.seconds}", f"--trace={args.trace}"])
    match_ms = [s * 1e3 for s in r["match_s"]]
    tail_ms, tail_label = tail(match_ms)
    e2e = {
        "setup_s": (r["setup_s"], "s"),
        "latency_ms": (statistics.median(match_ms), "ms"),
        "tail_ms": (tail_ms, "ms"),
        "throughput_per_s": (statistics.median(r["pairs_per_s"]), "1/s"),
        "f1": (r["f1"], "share"),
        "peak_rss_mb": (statistics.median(r["rss_mb"]), "MB"),
    }
    notes = [f"request = one APair over |V(G)|={r['graph_vertices']}, "
             f"|E(G)|={r['graph_edges']}, {r['roots']} root candidates, "
             f"{len(match_ms)} runs; tail = {tail_label}",
             "throughput = root candidate pairs decided per second of APair",
             f"Pi: {r['pi_size']} pairs, digest {r['pi_digest']} "
             "(equal to the 1-worker reference)",
             "f1 = Pi against the generator's ground truth over the "
             "candidates"]
    detail = {
        "detail.link_s": (statistics.median(r["match_s"]), "s"),
        "detail.match_s": (statistics.median(r["match_s"]), "s"),
        "detail.pairs_per_s": (statistics.median(r["pairs_per_s"]), "1/s"),
    }
    return r, e2e, detail, notes


# ------------------------------------------------------------------ serve

def read_records(path):
    data = Path(path).read_bytes()
    magic, count, _, _ = HEADER.unpack_from(data, 0)
    if magic != RECORDS_MAGIC:
        return []
    recs = []
    for i in range(count):
        (due, start, end, service, depth, applied, batches, ckpt, wal,
         kind, outcome, answer, truth, waited, syncs) = RECORD.unpack_from(
             data, HEADER.size + RECORD.size * i)
        recs.append({
            "due": due, "start": start, "end": end, "service": service,
            "depth": depth, "applied": applied, "batches": batches,
            "ckpt": ckpt, "wal": wal, "write": kind <= KIND_WRITE_MAX,
            "outcome": outcome, "answer": answer, "truth": truth,
            "waited": waited, "syncs": syncs})
    return recs


def serve_cpu(step):
    """The CPU the step-th serve step runs on. The server is
    single-threaded: a step that the kernel moves between CPUs mid-stream
    pays for cold caches on ops that did not cause them. Steps take the
    CPUs in turn, so no one CPU's co-tenants decide the run."""
    cpus = sorted(os.sched_getaffinity(0))
    return cpus[step % len(cpus)]


def serve_step(exe, work, op_seed, rate, ops, trace, snapshot, cpu):
    """One fresh serve dir, one open-loop stream on `cpu`. Returns the step
    record; an aborted process leaves its acknowledged ops in the records
    file."""
    d = Path(tempfile.mkdtemp(prefix="step-", dir=work))
    shutil.copy(snapshot, d / "model.snap")
    records = d / "records.bin"
    cmd = [str(exe), "serve-step", f"--op-seed={op_seed}",
           f"--dir={d}", f"--rate={rate}", f"--ops={ops}",
           f"--deadline-ms={SERVE_DEADLINE_MS}", f"--records={records}",
           f"--trace={trace}"]
    t = time.monotonic()
    p = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                       preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
    wall = time.monotonic() - t
    recs = read_records(records)
    step = {"rate": rate, "op_seed": op_seed, "scheduled": ops,
            "records": recs, "wall": wall, "summary": None, "exit": None}
    if p.returncode == 0:
        step["summary"] = json.loads(p.stdout.strip().splitlines()[-1])
    else:
        sig = -p.returncode if p.returncode < 0 else None
        reason = (p.stderr.strip().splitlines() or ["(no stderr)"])[-1]
        reason = reason.replace(str(ROOT) + os.sep, "")
        name = signal.Signals(sig).name if sig else f"exit {p.returncode}"
        step["exit"] = f"{name}: {reason}"
    shutil.rmtree(d, ignore_errors=True)
    return step


def serve_schedule(seconds, trace):
    """Rates of the run's steps in order. The traced run interleaves the
    ladder steps with the reference steps, so host drift hits every rate
    alike."""
    ref = [SERVE_RATES[0]] * max(3, round(SERVE_REF_STEPS_PER_SECOND *
                                          seconds))
    ladder = [rate for _ in range(SERVE_LADDER_STEPS)
              for rate in SERVE_RATES[1:]] if trace else []
    order = []
    while ref or ladder:
        order += ref[:1] + ladder[:1]
        ref, ladder = ref[1:], ladder[1:]
    return order


def latency_ms(rec):
    return (rec["end"] - rec["due"]) * 1e3


def serve_mixed(exe, args):
    work = Path(tempfile.mkdtemp(prefix="serve-", dir=target_dir()))
    try:
        return serve_mixed_in(exe, args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def serve_mixed_in(exe, args, work):
    t_run = time.monotonic()
    prep = run_json([str(exe), "serve-prepare", f"--dir={work / 'prep'}"])
    prep_wall = time.monotonic() - t_run
    snapshot = work / "prep" / "model.snap"
    # Every step starts a fresh server from the same snapshot, so each
    # rate sees the same mix of young and aged graph states. Each step has
    # its own op stream; the k-th step of a rate draws the same stream in
    # the traced and the untraced run.
    steps = []
    for rate in serve_schedule(args.seconds, args.trace):
        k = sum(1 for s in steps if s["rate"] == rate)
        op_seed = args.seed * 1000 + 100 * SERVE_RATES.index(rate) + k
        steps.append(serve_step(exe, work, op_seed, rate, SERVE_STEP_OPS,
                                args.trace, snapshot, serve_cpu(k)))
    soak = serve_step(exe, work, args.seed * 1000 + 999, SERVE_SOAK_RATE,
                      SERVE_SOAK_OPS, args.trace, snapshot,
                      serve_cpu(len(steps)))
    run_wall = time.monotonic() - t_run

    correct, why = True, ""
    attempted = failed = 0
    per_rate = {}
    for s in steps + [soak]:
        recs = s["records"]
        attempted += s["scheduled"]
        unacked = s["scheduled"] - len(recs)
        shed = sum(1 for r in recs if r["outcome"] != 0)
        failed += unacked + shed
        if any(r["outcome"] >= len(OUTCOMES) for r in recs):
            correct, why = False, "serve: op with an unknown outcome"
        if s["summary"] is not None:
            sm = s["summary"]
            if sm["accepted"] + sm["rejected"] + sm["degraded"] != \
                    sm["submitted"] or sm["submitted"] != len(recs):
                correct, why = False, ("serve: accepted + rejected + "
                                       "degraded != submitted")
        if s is soak:
            continue
        g = per_rate.setdefault(s["rate"], {"recs": [], "steps": []})
        g["recs"].extend(recs)
        g["steps"].append(s)

    def step_ok(step):
        """Read and write p99 within the limit (shed ops count as missing
        it) and no backlog left at the end of the step."""
        recs = step["records"]
        if not recs:
            return False
        for want_write in (False, True):
            lat = [latency_ms(r) if r["outcome"] == 0 else float("inf")
                   for r in recs if r["write"] == want_write]
            if lat and percentile(lat, 0.99) > SERVE_LIMIT_MS:
                return False
        last = recs[-max(1, len(recs) // 10):]
        return statistics.median(map(latency_ms, last)) <= SERVE_LIMIT_MS

    def ok_at(rate):
        """A rate meets the limit when most of its steps do, so one step
        hit by a host stall does not decide it."""
        passed = [step_ok(s) for s in per_rate[rate]["steps"]]
        return 2 * sum(passed) > len(passed)

    max_ok = 0
    for rate in SERVE_RATES:
        if rate not in per_rate or not ok_at(rate):
            break
        max_ok = rate
    ref = per_rate[SERVE_RATES[0]]["recs"]
    acked = [r for r in ref if r["outcome"] == 0]
    reads = [latency_ms(r) for r in acked if not r["write"]]
    writes = [latency_ms(r) for r in acked if r["write"]]
    lat_all = [latency_ms(r) for r in acked]
    spair = [r for s in steps for r in s["records"]
             if r["outcome"] == 0 and r["truth"] != 2]
    tp = sum(1 for r in spair if r["answer"] and r["truth"])
    fp = sum(1 for r in spair if r["answer"] and not r["truth"])
    fn = sum(1 for r in spair if not r["answer"] and r["truth"])
    f1 = 2 * tp / (2 * tp + fp + fn) if tp else 0.0
    summaries = [s["summary"] for s in steps if s["summary"]]
    rss = statistics.median([sm["peak_rss_mb"] for sm in summaries] or [0.0])
    setup = statistics.median(
        [sm["generate_s"] + sm["open_s"] + sm["warmup_s"]
         for sm in summaries] or [0.0])
    e2e = {
        "setup_s": (setup, "s"),
        "latency_ms": (statistics.mean(lat_all), "ms"),
        "tail_ms": (percentile(lat_all, 0.9), "ms"),
        "throughput_per_s": (len(acked) / sum(r["service"] for r in acked),
                             "1/s"),
        "f1": (f1, "share"),
        "peak_rss_mb": (rss, "MB"),
    }
    aborted = [s for s in steps + [soak] if s["exit"]]
    soak_acked = [latency_ms(r) for r in soak["records"] if r["outcome"] == 0]
    notes = [f"request = one op at the reference rate {SERVE_RATES[0]} "
             f"ops/s, timed from its due time; latency = mean, tail = p90 "
             f"of {len(lat_all)} acknowledged ops",
             "throughput = acknowledged ops per second of server service "
             "time at the reference rate"]
    if args.trace:
        notes.append(f"max_ok_rate = {max_ok} ops/s over the ladder "
                     f"{SERVE_RATES} (read and write p99 <= "
                     f"{SERVE_LIMIT_MS:g} ms, no backlog)")
    notes += [

             f"f1 = accepted SPair answers against the annotations "
             f"({len(spair)} answers)",
             f"steps: {len(steps)} of {SERVE_STEP_OPS} ops plus one soak step "
             f"of {SERVE_SOAK_OPS} ops at {SERVE_SOAK_RATE} ops/s, each pinned "
             f"to one CPU in turn; aborted: {len(aborted)}; failed_share = "
             f"{failed}/{attempted}"]
    for s in aborted:
        notes.append(f"step rate={s['rate']} op_seed={s['op_seed']} died "
                     f"after {len(s['records'])}/{s['scheduled']} ops "
                     f"({s['exit']}); the {s['scheduled'] - len(s['records'])}"
                     " unacknowledged ops count as failed")
    detail = {
        "detail.read_p50_ms": (percentile(reads, 0.5) if reads else 0.0,
                               "ms"),
        "detail.read_p99_ms": (percentile(reads, 0.99) if reads else 0.0,
                               "ms"),
        "detail.write_p50_ms": (percentile(writes, 0.5) if writes else 0.0,
                                "ms"),
        "detail.write_p99_ms": (percentile(writes, 0.99) if writes else 0.0,
                                "ms"),
        "detail.max_ok_rate": (float(max_ok), "1/s"),
        "detail.aborted_steps": (len(aborted), "count"),
        "serve.soak_acked_ops": (len(soak["records"]), "count"),
        "serve.soak_p99_ms": (percentile(soak_acked, 0.99) if soak_acked
                              else 0.0, "ms"),
    }
    r = {"attempted": attempted, "failed": failed, "correct": correct,
         "why": why, "build_type": summaries[0]["build_type"] if summaries
         else "?", "compiler": summaries[0]["compiler"] if summaries else "?",
         "her_faults": summaries[0]["her_faults"] if summaries else "?"}
    if args.trace:
        r["layers"] = serve_layers(prep, prep_wall, steps, soak["wall"], ref,
                                   summaries, run_wall)
    return r, e2e, detail, notes


def serve_layers(prep, prep_wall, steps, soak_wall, ref, summaries,
                 run_wall):
    """Per-layer serve numbers from the ServeStats deltas of each Submit
    at the reference rate."""
    acked = [r for r in ref if r["outcome"] == 0]

    def service_ms(rs):
        """Median server service time of `rs` in ms (0 when empty)."""
        return statistics.median(r["service"] for r in rs) * 1e3 if rs \
            else 0.0

    log_writes = [r for r in acked if r["write"] and r["applied"] == 0
                  and r["ckpt"] == 0]
    cached = [r for r in acked if not r["write"] and r["applied"] == 0
              and r["ckpt"] == 0]
    apply_reads = [r for r in acked if not r["write"] and r["applied"] > 0]
    ckpt_ops = [r for r in acked if r["ckpt"] > 0]
    late = [r["start"] - r["due"] for r in ref if r["waited"]]
    applied = sum(r["applied"] for r in ref)
    batches = sum(r["batches"] for r in ref)
    wal_writes = [r["wal"] for r in log_writes]
    spans = prep_wall + sum(s["wall"] for s in steps) + soak_wall
    return {
        "datagen.generate_s": (statistics.median(
            sm["generate_s"] for sm in summaries), "s"),
        "persist.open_s": (statistics.median(
            sm["open_s"] for sm in summaries), "s"),
        "persist.snapshot_bytes": (prep["snapshot_bytes"], "bytes"),
        "sim.ptable_build_s": (statistics.median(
            sm["ptable_build_s"] for sm in summaries), "s"),
        "serve.log_write_ms": (service_ms(log_writes), "ms"),
        "serve.cached_read_ms": (service_ms(cached), "ms"),
        "serve.apply_read_ms": (service_ms(apply_reads), "ms"),
        "serve.checkpoint_op_ms": (service_ms(ckpt_ops), "ms"),
        "serve.wait_ms": (statistics.median(
            (r["end"] - r["due"] - r["service"]) * 1e3 for r in acked)
            if acked else 0.0, "ms"),
        "serve.queue_depth_max": (max((r["depth"] for r in ref), default=0),
                                  "count"),
        "serve.applied_mutations": (applied, "count"),
        "serve.apply_batches": (batches, "count"),
        "serve.mutations_per_batch": (applied / batches if batches else 0.0,
                                      "ratio"),
        "serve.logged_writes": (len(wal_writes), "count"),
        "serve.wal_bytes_per_write": (statistics.mean(wal_writes)
                                      if wal_writes else 0.0, "bytes"),
        "serve.syncs_per_write": (statistics.mean(r["syncs"] for r in
                                                  log_writes)
                                  if log_writes else 0.0, "ratio"),
        "serve.gen_late_ms": (statistics.median(late) * 1e3 if late
                              else 0.0, "ms"),
        "trace.wall_s": (run_wall, "s"),
        "trace.unattributed_s": (run_wall - spans, "s"),
        "trace.overhead_s": (sum(sm["trace_overhead_s"]
                                 for sm in summaries), "s"),
    }


# ------------------------------------------------------------------ main

WORKLOADS = {"cold-link": cold_link, "scale-match": scale_match,
             "serve-mixed": serve_mixed}

# Per-layer metrics of layers a workload does not run; they read 0. Any
# other declared metric a workload does not emit fails the run.
LEARN_LAYERS = ["learn.train_s", "learn.train_models_s",
                "learn.random_search_s", "learn.eval_s", "ml.lstm_s",
                "detail.train_s"]
MATCH_LAYERS = ["graph.partition_s", "graph.edge_cut_fraction",
                "graph.edge_cut_edges", "graph.border_vertices",
                "parallel.apair_s", "parallel.simulated_s",
                "parallel.outside_supersteps_s", "parallel.supersteps",
                "parallel.messages", "parallel.wire_bytes",
                "parallel.max_worker_calls", "parallel.worker_skew",
                "core.paramatch_calls", "detail.link_s", "detail.match_s",
                "detail.pairs_per_s"]
SERVE_LAYERS = ["persist.open_s", "persist.snapshot_bytes",
                "serve.log_write_ms", "serve.cached_read_ms",
                "serve.apply_read_ms", "serve.checkpoint_op_ms",
                "serve.wait_ms", "serve.queue_depth_max",
                "serve.applied_mutations", "serve.apply_batches",
                "serve.mutations_per_batch", "serve.logged_writes",
                "serve.wal_bytes_per_write", "serve.syncs_per_write",
                "serve.gen_late_ms",
                "serve.soak_acked_ops", "serve.soak_p99_ms",
                "detail.read_p50_ms", "detail.read_p99_ms",
                "detail.write_p50_ms", "detail.write_p99_ms",
                "detail.max_ok_rate", "detail.aborted_steps"]
NOT_RUN = {
    "cold-link": SERVE_LAYERS + ["sim.scorers_s"],
    "scale-match": SERVE_LAYERS + LEARN_LAYERS + ["sim.ptable_build_s"],
    "serve-mixed": LEARN_LAYERS + MATCH_LAYERS + ["rdb2rdf.fd_s",
                                                  "sim.scorers_s"],
}


def declared():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def batch_layers(r):
    """Per-layer metrics of cold-link / scale-match straight from the
    traced pass of her_e2e."""
    return {k: v for k, v in r.items() if "." in k}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    e2e_units, layer_units = declared()
    exe = build()

    t = time.monotonic()
    r, e2e, detail, notes = WORKLOADS[args.workload](exe, args)
    wall = time.monotonic() - t

    stamp = host_stamp(r, args)
    print("host: " + " ".join(f"{k}={v}" for k, v in stamp.items()))
    if stamp["build_type"] != "Release":
        print(f"WARNING: {stamp['build_type']} build; timings are not "
              "comparable with a Release build")
    for n in notes:
        print("note: " + n)

    if args.trace:
        layers = dict(detail)
        layers.update(r["layers"] if "layers" in r else
                      {k: (v, layer_units.get(k, "")) for k, v in
                       batch_layers(r).items()})
        layers["detail.failed_share"] = (
            r["failed"] / r["attempted"] if r["attempted"] else 0.0, "share")
        layers["trace.run_wall_s"] = (wall, "s")
        layers.update({name: (0.0, layer_units[name])
                       for name in NOT_RUN[args.workload]})
        want = layer_units
    else:
        layers = e2e
        want = e2e_units
    metrics = {}
    correct, why = bool(r["correct"]), r.get("why", "")
    for name, unit in want.items():
        if name not in layers:
            correct, why = False, f"{name} was not measured"
        value = float(layers.get(name, (0.0, unit))[0])
        if unit == "share" and not 0.0 <= value <= 1.0:
            correct, why = False, f"{name}={value} lies outside [0, 1]"
        metrics[name] = {"value": value, "unit": unit}
        print(f"{name} = {value:.6g} {unit}")
    if not correct:
        print(f"CHECK FAILED: {why}")
    print(json.dumps({"correct": correct, "attempted": int(r["attempted"]),
                      "failed": int(r["failed"]), "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
