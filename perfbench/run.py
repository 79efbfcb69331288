#!/usr/bin/env python3
"""perfbench: the repository's end-to-end benchmark.

    python3 perfbench/run.py --workload <origin|dsm|resubmit|corpus> \
        --seed N --seconds S --trace <0|1>

Run it from the root of a checkout.  It builds `xp` and the tracer
(`perfbench/tracer`) with cargo, then:

  --trace 0  repeats untraced passes of the workload for S seconds, each pass
             driving the `xp` entry points in their own processes, and reports
             the end-to-end metrics (medians over passes);
  --trace 1  makes one untraced pass plus one traced pass through the tracer,
             which times the calls into each layer, checks that the traced
             counters equal the untraced pass's, and reports per-layer metrics.

Every pass checks its outputs (see README.md).  The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import collections
import hashlib
import json
import os
import random
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
GOLDEN_PATH = os.path.join(BENCH_DIR, "golden.json")

# The seed at which every spec runs with its own default seed; the golden
# digests are recorded there.  Any other seed is passed to `xp --seed`.
DEFAULT_SEED = 0
JOBS = "2"  # scheduler slots and pool width: the host has 2 cores
SETUP_PROBES = 3  # extra start-ups before each pass, so setup_s is a median over the run
PROCESS_TIMEOUT_S = 150

APPS = ["barnes-hut", "fmm", "water-spatial", "moldyn", "unstructured"]
APP_NAMES = ["Barnes-Hut", "FMM", "Water-Spatial", "Moldyn", "Unstructured"]

# Sweep workloads: the specs they run and the cells each spec has.
SWEEPS = {
    "origin": {"table2": 12, "fig07": 5},
    "dsm": {"table3": 12, "fig08_09": 5},
}

# The resubmit mix: cheap keyed specs at tiny scale over two seeds.
RESUBMIT_SPECS = ["table3", "fig07", "fig08_09", "fig06", "fig01_04"]
RESUBMIT_CLIENTS = 2
RESUBMIT_SPEC_SEEDS = (1, 2)
RESUBMIT_JOBS_PER_CLIENT = 40  # each of the 10 spec/seed pairs 4 times
RESUBMIT_MEM_ENTRIES = 16  # below the mix's 54-cell working set

# Columns that carry host wall-clock time, so they differ between two runs of
# the same seed; the digest leaves them out.  fig07's reordered speedups and
# fig08_09's reordered speedups and gains divide by host reorder seconds.
EXCLUDED_COLUMNS = {
    "table2": {"reorder_s"},
    "table3": {"reorder_s"},
    "fig07": {"hilbert", "column"},
    "fig08_09": {"tmk_reordered", "hlrc_reordered", "tmk_gain_pct", "hlrc_gain_pct"},
    "trace_record": {"record_ms", "write_mb_s"},
    "trace_replay": {"corpus", "replay_ms", "maccess_s"},
}

END_TO_END = {
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "ok_ratio": "ratio",
    "job_p95_ms": "ms",
}

PER_LAYER_UNITS = {
    "workloads.build_s": "s",
    "reorder.reorder_s": "s",
    "apps.stream_s": "s",
    "smtrace.accesses": "count",
    "smtrace.trace_mb": "MB",
    "memsim.replay_s": "s",
    "memsim.maccess_per_s": "Maccess/s",
    "dsm.history_s": "s",
    "dsm.history_builds": "count",
    "dsm.protocol_s": "s",
    "codec.encode_s": "s",
    "codec.decode_s": "s",
    "codec.bytes_per_access": "B/access",
    "codec.corpus_mb": "MB",
    "bench.cache.hit_ratio": "ratio",
    "bench.cache.memory_hits": "count",
    "bench.cache.disk_hits": "count",
    "bench.cache.misses": "count",
    "bench.cache.evictions": "count",
    "bench.cache.flight_waits": "count",
    "bench.cache.flight_steals": "count",
    "bench.cache.disk_errors": "count",
    "bench.cache.lookup_us": "us",
    "bench.cache.commit_us": "us",
    "bench.scheduler.queue_wait_ms_p50": "ms",
    "bench.scheduler.queue_wait_ms_p95": "ms",
    "bench.scheduler.cells_computed": "count",
    "bench.serve.hit_job_ms": "ms",
    "bench.runner.render_ms": "ms",
    "rayon.cpu_util": "ratio",
    "trace.overhead_s": "s",
}


class BenchError(Exception):
    """The benchmark cannot run here (no repository, build failure, ...)."""


def log(message):
    print(message, file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# Statistics.


def percentile(values, p):
    """Linear interpolation between closest ranks (numpy's default)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    at = (len(ordered) - 1) * p / 100.0
    lo = int(at)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (at - lo)


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def tail_percentile(n):
    """The highest percentile with at least ten samples beyond it, or None."""
    if n < 11:
        return None
    return 100.0 * (n - 10) / n


# ---------------------------------------------------------------------------
# Output checks.


def digest(experiment, columns, rows):
    """Digest of the deterministic columns of an artifact's rows."""
    excluded = EXCLUDED_COLUMNS.get(experiment, set())
    kept = [c for c in columns if c not in excluded]
    canonical = json.dumps([[row.get(c) for c in kept] for row in rows], sort_keys=True)
    return hashlib.sha256((experiment + "|" + canonical).encode()).hexdigest()[:20]


def artifact_digest(artifact):
    return digest(artifact["experiment"], artifact["columns"], artifact["rows"])


def direction_failures(artifact):
    """Rows breaking the paper's directions: reordering lowers L2/TLB misses
    (N processors; never raises them on one) and TMK/HLRC messages, and every
    Figure 8/9 gain is positive."""
    experiment, rows = artifact["experiment"], artifact["rows"]
    bad = []
    if experiment in ("table2", "table3"):
        if experiment == "table2":
            lower = ["par_l2_misses", "par_tlb_misses"]
            not_higher = ["seq_l2_misses", "seq_tlb_misses"]
        else:
            lower = ["tmk_messages", "hlrc_messages"]
            not_higher = []
        original = {r["app"]: r for r in rows if r["version"] == "original"}
        for r in rows:
            base = original.get(r["app"])
            if r["version"] == "original" or base is None:
                continue
            for c in lower:
                if not r[c] < base[c]:
                    bad.append(f"{experiment} {r['app']} {r['version']}: {c} {r[c]} >= {base[c]}")
            for c in not_higher:
                if r[c] > base[c]:
                    bad.append(f"{experiment} {r['app']} {r['version']}: {c} {r[c]} > {base[c]}")
    elif experiment == "fig08_09":
        for r in rows:
            for c in ("tmk_gain_pct", "hlrc_gain_pct"):
                if not r[c] > 0:
                    bad.append(f"fig08_09 {r['app']}: {c} {r[c]} <= 0")
    return bad


def load_golden():
    with open(GOLDEN_PATH) as f:
        return json.load(f)


def check_golden(golden, workload, seed, digests, problems):
    """At the default seed every digest must equal the recorded one; resubmit
    computes the same spec seeds at every benchmark seed, so always."""
    if seed != DEFAULT_SEED and workload != "resubmit":
        return
    expected = golden.get(workload, {})
    for key, value in sorted(digests.items()):
        if expected.get(key) != value:
            problems.append(f"digest {workload}/{key}: {value} != golden {expected.get(key)}")


# ---------------------------------------------------------------------------
# Processes.


Outcome = collections.namedtuple("Outcome", "returncode wall_s maxrss_mb stdout stderr")


def reap(proc, t0, timeout=PROCESS_TIMEOUT_S):
    """Wait for `proc` with wait4, so the peak RSS is this process's own."""
    deadline = time.monotonic() + timeout
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid == proc.pid:
            break
        if time.monotonic() > deadline:
            proc.kill()
            pid, status, usage = os.wait4(proc.pid, 0)
            break
        time.sleep(0.001)
    wall = time.monotonic() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def run_process(cmd):
    """Run to completion; stdout is captured, stderr goes to a file."""
    with open(os.path.join(WORK, "stderr.log"), "w+") as err:
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, text=True)
        out = proc.stdout.read()
        proc.stdout.close()
        rc, wall, rss = reap(proc, t0)
        err.seek(0)
        return Outcome(rc, wall, rss, out, err.read())


def kill_after_line(cmd, marker):
    """Start `cmd`, return seconds until its stderr shows `marker`, then kill it."""
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    ready = None
    for line in proc.stderr:
        if line.startswith(marker):
            ready = time.monotonic() - t0
            break
    proc.kill()
    proc.stderr.close()
    reap(proc, t0)
    if ready is None:
        raise BenchError(f"{cmd[1]} never printed {marker!r}")
    return ready


# ---------------------------------------------------------------------------
# Workloads.  A pass returns a dict with wall_s, peak_rss_mb, setup samples,
# job latencies, attempted/failed operations, problems, digests and rows.


def new_pass():
    return {"setup": [], "jobs_ms": [], "attempted": 0, "failed": 0, "problems": [],
            "digests": {}, "artifacts": {}}


def seed_args(seed):
    return [] if seed == DEFAULT_SEED else ["--seed", str(seed)]


def sweep_cmd(workload, seed, out_dir):
    return [XP, "sweep", *SWEEPS[workload], "--scale", "small", "--jobs", JOBS,
            "--format", "json", "--out", out_dir, *seed_args(seed)]


def sweep_pass(workload, seed):
    """`xp sweep table2 fig07` (origin) or `xp sweep table3 fig08_09` (dsm):
    one process, a cold in-memory cell cache, two slots."""
    res = new_pass()
    out_dir = os.path.join(WORK, "sweep")
    shutil.rmtree(out_dir, ignore_errors=True)
    t0 = time.monotonic()
    proc = subprocess.Popen(sweep_cmd(workload, seed, out_dir), stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, text=True)
    started, tail = None, []
    for line in proc.stderr:
        now = time.monotonic()
        tail.append(line)
        if line.startswith("running "):
            if not res["setup"]:
                res["setup"].append(now - t0)
            started = now
        elif line.startswith("wrote ") and started is not None:
            res["jobs_ms"].append((now - started) * 1e3)
            started = None
    proc.stderr.close()
    rc, res["wall_s"], res["peak_rss_mb"] = reap(proc, t0)
    if rc != 0:
        res["problems"].append(f"xp sweep exited {rc}: {''.join(tail[-5:]).strip()}")
    for experiment, cells in SWEEPS[workload].items():
        res["attempted"] += cells
        path = os.path.join(out_dir, experiment + ".json")
        try:
            with open(path) as f:
                artifact = json.load(f)
        except (OSError, ValueError) as e:
            res["failed"] += cells
            res["problems"].append(f"{experiment}: no artifact ({e})")
            continue
        bad = direction_failures(artifact)
        res["problems"].extend(bad)
        res["failed"] += max(0, cells - len(artifact["rows"])) + len(bad)
        res["digests"][experiment] = artifact_digest(artifact)
        res["artifacts"][experiment] = artifact
    return res


def sweep_setup_probe(workload, seed):
    out_dir = os.path.join(WORK, "probe")
    shutil.rmtree(out_dir, ignore_errors=True)
    return kill_after_line(sweep_cmd(workload, seed, out_dir), "running ")


def resubmit_jobs(seed, pass_index=0):
    """The seeded closed-loop job list.  It holds each spec at each of two
    fixed spec seeds the same number of times, in a seeded order, and every
    client submits the whole list.  Most submissions repeat an earlier one,
    every benchmark seed computes the same cells, and each first submission
    reaches the server from both clients at once: one computes, one parks."""
    combos = [(e, s) for e in RESUBMIT_SPECS for s in RESUBMIT_SPEC_SEEDS]
    order = combos * (RESUBMIT_JOBS_PER_CLIENT // len(combos))
    # Each pass of a run takes its own order, so a run's medians cover several.
    random.Random(f"{seed}/{pass_index}").shuffle(order)
    return [{"client": client, "experiment": e, "seed": s}
            for client in range(RESUBMIT_CLIENTS) for e, s in order]


def ok_ratio(attempted, failed):
    return (attempted - failed) / attempted if attempted else 0.0


def wait_for_socket(path, proc, t0, timeout=30.0):
    while time.monotonic() - t0 < timeout:
        if proc.poll() is not None:
            raise BenchError(f"xp serve exited {proc.returncode} before listening")
        try:
            probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            probe.connect(path)
            return probe, time.monotonic() - t0
        except OSError:
            probe.close()
            time.sleep(0.0001)
    raise BenchError("xp serve never listened")


def serve_cmd(sock, cache_dir):
    return [XP, "serve", "--socket", sock, "--cache-dir", cache_dir, "--single-flight",
            "--jobs", JOBS, "--cache-mem-budget", f"{RESUBMIT_MEM_ENTRIES}e"]


def start_server(name):
    sock = os.path.join(WORK, name + ".sock")
    cache_dir = os.path.join(WORK, name + "-cache")
    shutil.rmtree(cache_dir, ignore_errors=True)
    err = open(os.path.join(WORK, name + ".err"), "w")
    t0 = time.monotonic()
    proc = subprocess.Popen(serve_cmd(sock, cache_dir), stdout=subprocess.DEVNULL, stderr=err)
    err.close()
    try:
        probe, setup = wait_for_socket(sock, proc, t0)
    except BaseException:
        proc.kill()
        reap(proc, t0)
        raise
    probe.close()
    return proc, sock, setup, t0


def resubmit_setup_probe(seed):
    proc, _sock, setup, t0 = start_server("probe")
    proc.kill()
    reap(proc, t0)
    return setup


def write_jobs(jobs):
    path = os.path.join(WORK, "jobs.ndjson")
    with open(path, "w") as f:
        f.writelines(json.dumps(j) + "\n" for j in jobs)
    return path


def resubmit_pass(seed, pass_index):
    """Two closed-loop clients against one `xp serve --socket --single-flight`
    with a fresh cache dir and a memory budget below the working set.  The
    clients are `perfbench-tracer load`, one thread each, so the latencies
    carry no interpreter time."""
    res = new_pass()
    jobs = resubmit_jobs(seed, pass_index)
    jobs_file = write_jobs(jobs)
    proc, sock, setup, t0 = start_server("serve")
    res["setup"].append(setup)
    try:
        out = run_process([TRACER, "load", "--socket", sock, "--jobs", jobs_file])
    finally:
        proc.send_signal(signal.SIGTERM)
        rc, _, res["peak_rss_mb"] = reap(proc, t0, timeout=30)
    if rc != 0:
        res["problems"].append(f"xp serve exited {rc}")
    records = []
    if out.returncode == 0:
        loaded = json.loads(out.stdout)
        res["wall_s"] = loaded["wall_s"]
        # `load` lists client 0's jobs, then client 1's, each in submission order.
        records = [(job, row["outcome"], row["latency_ms"], row["result"])
                   for job, row in zip(jobs, loaded["jobs"])]
    else:
        res["wall_s"] = out.wall_s
        res["problems"].append(f"load generator exited {out.returncode}: {out.stderr.strip()[-300:]}")
    tally_jobs(jobs, records, res)
    return res


def tally_jobs(jobs, records, res):
    """Count the pass's jobs: one that never finished, was refused, ended in
    another status than ok, or whose result differs from an identical earlier
    job's is failed.  Every settled job's latency is kept."""
    res["attempted"] += len(jobs)
    res["failed"] += len(jobs) - len(records)
    for job, outcome, latency_ms, result in records:
        res["jobs_ms"].append(latency_ms)
        key = f"{job['experiment']}@{job['seed']}"
        body = json.loads(result) if outcome == "ok" and result else None
        if body is None:
            res["failed"] += 1
            res["problems"].append(f"job {key}: {outcome}")
            continue
        value = artifact_digest(body)
        if res["digests"].setdefault(key, value) != value:
            res["failed"] += 1
            res["problems"].append(f"job {key}: result differs from an earlier identical job")


def corpus_pass(seed, live):
    """`xp trace record` for all five apps, then `xp trace replay --into sim` and
    `--into dsm` for each: fifteen processes, run one after another."""
    res = new_pass()
    corpus_dir = os.path.join(WORK, "corpus")
    os.makedirs(corpus_dir, exist_ok=True)
    start = time.monotonic()
    peak = 0.0
    records, replays = [], {"sim": [], "dsm": []}

    def call(cmd):
        nonlocal peak
        res["attempted"] += 1
        out = run_process(cmd)
        peak = max(peak, out.maxrss_mb)
        res["jobs_ms"].append(out.wall_s * 1e3)
        try:
            artifact = json.loads(out.stdout) if out.returncode == 0 else None
        except ValueError:
            artifact = None
        if artifact is None:
            res["failed"] += 1
            res["problems"].append(f"{' '.join(cmd[1:4])} exited {out.returncode}: {out.stderr.strip()[-300:]}")
            return None
        res["setup"].append(max(out.wall_s - artifact["elapsed_seconds"], 0.0))
        return artifact

    paths = [os.path.join(corpus_dir, app + ".corpus") for app in APPS]
    for app, path in zip(APPS, paths):
        records.append(call([XP, "trace", "record", "--app", app, "--out", path, "--format", "json",
                             "--jobs", JOBS, *seed_args(seed)]))
    for target in ("sim", "dsm"):
        for path in paths:
            replays[target].append(call([XP, "trace", "replay", "--in", path, "--into", target,
                                         "--format", "json", "--jobs", JOBS]))
    res["wall_s"] = time.monotonic() - start
    res["peak_rss_mb"] = peak
    shutil.rmtree(corpus_dir, ignore_errors=True)

    live_by_app = {row["app"]: row for row in live}
    for i, name in enumerate(APP_NAMES):
        record, sim, dsm = records[i], replays["sim"][i], replays["dsm"][i]
        for label, artifact in (("record", record), ("sim", sim), ("dsm", dsm)):
            if artifact is not None:
                res["digests"][f"{label}:{name}"] = artifact_digest(artifact)
        expected = live_by_app.get(name)
        checks = []
        if record is not None and sim is not None:
            checks.append(("accesses", record["rows"][0]["accesses"], sim["rows"][0]["accesses"]))
        if expected is not None and sim is not None:
            for c in ("accesses", "l2_misses", "tlb_misses", "coherence_misses"):
                checks.append((c, expected[c], sim["rows"][0][c]))
        if expected is not None and dsm is not None:
            for c in ("tmk_messages", "tmk_mb", "hlrc_messages", "hlrc_mb"):
                checks.append((c, expected[c], dsm["rows"][0][c]))
        for column, want, got in checks:
            if want != got:
                res["failed"] += 1
                res["problems"].append(f"corpus {name}: replay {column} {got} != live {want}")
    res["artifacts"] = replays  # per target, in APP_NAMES order, None where a call failed
    return res


# ---------------------------------------------------------------------------
# Traced run.


def run_tracer(args):
    out = run_process([TRACER, *args])
    if out.returncode != 0:
        raise BenchError(f"tracer {args[0]} exited {out.returncode}: {out.stderr.strip()[-500:]}")
    return json.loads(out.stdout), out.stderr


def live_counters(seed):
    live, _ = run_tracer(["live", *seed_args(seed)])
    return live["counters"]


def e2e_counters(workload, res):
    """The untraced pass's rows, in the traced run's counter layout."""
    arts = res["artifacts"]
    if workload in SWEEPS:
        table, cols = {
            "origin": ("table2", ["seq_l2_misses", "seq_tlb_misses", "par_l2_misses", "par_tlb_misses"]),
            "dsm": ("table3", ["tmk_messages", "tmk_data_mb", "hlrc_messages", "hlrc_data_mb"]),
        }[workload]
        rows = arts.get(table, {}).get("rows", [])
        return {(r["app"], r["version"]): [r[c] for c in cols] for r in rows}, cols
    if workload == "corpus":
        sim_cols = ["l2_misses", "tlb_misses", "coherence_misses"]
        dsm_cols = ["tmk_messages", "tmk_mb", "hlrc_messages", "hlrc_mb"]
        return {(name, "original"): [s["rows"][0][c] for c in sim_cols] + [d["rows"][0][c] for c in dsm_cols]
                for name, s, d in zip(APP_NAMES, arts["sim"], arts["dsm"]) if s and d}, sim_cols + dsm_cols
    return {}, []


def traced_consistency(workload, res, counters):
    """Counters the traced run recomputed layer by layer must equal the
    untraced pass's: otherwise the split describes a different program."""
    want, cols = e2e_counters(workload, res)
    got = {(r["app"], r.get("version", "original")): [r[c] for c in cols] for r in counters}
    return [f"traced {workload} {key}: {got.get(key)} != untraced {want.get(key)}"
            for key in sorted(set(want) | set(got)) if got.get(key) != want.get(key)]


# ---------------------------------------------------------------------------
# Host facts, calibration, build.


def read_first(path, default=""):
    try:
        with open(path) as f:
            return f.read().strip()
    except OSError:
        return default


def llc_bytes():
    best_level, best = -1, 0
    base = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        level = read_first(os.path.join(base, index, "level"), "0")
        size = read_first(os.path.join(base, index, "size"), "0K")
        scale = {"K": 1 << 10, "M": 1 << 20}.get(size[-1:], 1)
        value = int(size.rstrip("KM") or 0) * scale
        if int(level) > best_level:
            best_level, best = int(level), value
    return best


def cpu_ticks():
    """(steal, total) jiffies of the host's vCPUs so far, from /proc/stat."""
    fields = [int(x) for x in read_first("/proc/stat").splitlines()[0].split()[1:]]
    return fields[7] if len(fields) > 7 else 0, sum(fields)


def host_facts():
    mem = next((line.split()[1] for line in read_first("/proc/meminfo").splitlines()
                if line.startswith("MemTotal:")), "0")
    try:
        rustc = subprocess.run(["rustc", "--version"], capture_output=True, text=True).stdout.strip()
    except OSError:
        rustc = "unknown"
    commit = "unknown (not a git checkout)"
    if os.path.isdir(".git"):
        got = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = got.stdout.strip() or commit
    return {"nproc": len(os.sched_getaffinity(0)), "mem_total_mb": round(int(mem) / 1024),
            "llc_mb": round(llc_bytes() / 2**20, 1), "rustc": rustc, "commit": commit}


def build():
    if not (os.path.isfile("Cargo.toml") and os.path.isdir("crates/cli")):
        raise BenchError("run from the root of a checkout of the repository (no Cargo.toml/crates here)")
    for cmd in (["cargo", "build", "--release", "--offline", "-q", "-p", "xp-cli"],
                ["cargo", "build", "--release", "--offline", "-q", "--manifest-path",
                 os.path.join(os.path.relpath(BENCH_DIR), "tracer", "Cargo.toml")]):
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            raise BenchError(f"build failed: {' '.join(cmd)}")


# ---------------------------------------------------------------------------
# Main.

WORKLOADS = ["origin", "dsm", "resubmit", "corpus"]


def one_pass(workload, seed, live, index=0):
    if workload in SWEEPS:
        return sweep_pass(workload, seed)
    if workload == "resubmit":
        return resubmit_pass(seed, index)
    return corpus_pass(seed, live)


def setup_probe(workload, seed):
    if workload in SWEEPS:
        return sweep_setup_probe(workload, seed)
    if workload == "resubmit":
        return resubmit_setup_probe(seed)
    return None  # corpus: every pass yields ten samples of its own


def metric(value, unit):
    return {"value": value, "unit": unit}


def summarize(name, values, unit):
    q1, med, q3 = quartiles(values)
    log(f"  {name:<12} median {med:.6g} {unit}  q1 {q1:.6g}  q3 {q3:.6g}  n={len(values)}")


def measure(workload, seed, seconds, golden):
    live = live_counters(seed) if workload == "corpus" else None
    # Passes while the next one still fits in `seconds` (always at least one).
    passes, probes = [], []
    start, ticks0 = time.monotonic(), cpu_ticks()
    while True:
        probes += [p for p in (setup_probe(workload, seed) for _ in range(SETUP_PROBES)) if p is not None]
        passes.append(one_pass(workload, seed, live, len(passes)))
        elapsed = time.monotonic() - start
        if elapsed * (len(passes) + 1) / len(passes) > seconds:
            break
    problems, first = [], passes[0]["digests"]
    for i, res in enumerate(passes):
        problems.extend(res["problems"])
        if res["digests"] != first:
            problems.append(f"pass {i} digests differ from pass 0 at the same seed")
    check_golden(golden, workload, seed, first, problems)
    attempted = sum(r["attempted"] for r in passes)
    failed = sum(r["failed"] for r in passes)

    walls = [r["wall_s"] for r in passes]
    rss = [r["peak_rss_mb"] for r in passes]
    setups = probes + [s for r in passes for s in r["setup"]]
    jobs = [j for r in passes for j in r["jobs_ms"]]
    steal, total = (b - a for a, b in zip(ticks0, cpu_ticks()))
    log(f"{workload}: {len(passes)} passes, seed {seed}; "
        f"the hypervisor took {100 * steal / max(total, 1):.1f}% of this VM's CPU time meanwhile")
    summarize("wall_s", walls, "s")
    summarize("peak_rss_mb", rss, "MB")
    summarize("setup_s", setups, "s")
    tail = tail_percentile(len(jobs))
    tail_text = f", p{tail:.1f} {percentile(jobs, tail):.4g} ms" if tail else ""
    log(f"  job_p50_ms {percentile(jobs, 50):.4g}  job_p95_ms {percentile(jobs, 95):.4g}"
        f"  (n={len(jobs)}{tail_text})")
    log(f"  failed_ratio {failed / attempted:.4g}  ({failed} of {attempted} operations failed)")
    values = {
        "wall_s": statistics.median(walls),
        "peak_rss_mb": statistics.median(rss),
        "setup_s": statistics.median(setups),
        "ok_ratio": ok_ratio(attempted, failed),
        "job_p95_ms": percentile(jobs, 95),
    }
    return problems, attempted, failed, {n: metric(values[n], u) for n, u in END_TO_END.items()}


def traced(workload, seed, golden):
    live = live_counters(seed) if workload == "corpus" else None
    res = one_pass(workload, seed, live)
    problems = list(res["problems"])
    check_golden(golden, workload, seed, res["digests"], problems)
    args = ["trace", "--workload", workload, "--work", WORK, *seed_args(seed)]
    if workload == "resubmit":
        args += ["--jobs", write_jobs(resubmit_jobs(seed)), "--mem-entries", str(RESUBMIT_MEM_ENTRIES)]
    result, self_times = run_tracer(args)
    # Keep the Chrome trace once the work directory is gone.
    kept = os.path.join(os.path.dirname(WORK), f"trace_{workload}.json")
    os.replace(result["trace_file"], kept)
    log(f"{workload}: traced pass {result['wall_s']:.3f} s, untraced pass {res['wall_s']:.3f} s; "
        f"spans in {os.path.relpath(kept)} (self time below)")
    log(self_times.rstrip())
    mismatches = traced_consistency(workload, res, result["counters"])
    problems.extend(mismatches)
    values = dict(result["metrics"])
    values["trace.overhead_s"] = result["wall_s"] - res["wall_s"]
    # A layer the workload does not use reads 0.
    metrics = {name: metric(values.get(name, 0.0), unit) for name, unit in PER_LAYER_UNITS.items()}
    for name, m in metrics.items():
        log(f"  {name:<36} {m['value']:.6g} {m['unit']}")
    return problems, res["attempted"], res["failed"] + len(mismatches), metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--record-golden", action="store_true",
                        help="write this workload's digests at the default seed to golden.json")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    global WORK, XP, TRACER
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    os.environ["CARGO_TARGET_DIR"] = target
    XP = os.path.join(target, "release", "xp")
    TRACER = os.path.join(target, "release", "perfbench-tracer")
    WORK = os.path.abspath(os.path.join(".bench_work", str(os.getpid())))
    try:
        build()
        os.makedirs(WORK)
        log("host: " + json.dumps(host_facts()))
        llc = llc_bytes()
        array = max(4 * llc, 64 << 20)
        calibration, _ = run_tracer(["calibrate", "--bytes", str(array)])
        log(f"calibration (LLC {llc / 1e6:.1f} MB, array {array / 1e6:.1f} MB): {json.dumps(calibration)}")
        golden = load_golden()
        if args.record_golden:
            live = live_counters(DEFAULT_SEED) if args.workload == "corpus" else None
            res = one_pass(args.workload, DEFAULT_SEED, live)
            if res["problems"]:
                raise BenchError("not recording a failing pass: " + "; ".join(res["problems"]))
            golden[args.workload] = res["digests"]
            with open(GOLDEN_PATH, "w") as f:
                json.dump(golden, f, indent=1, sort_keys=True)
                f.write("\n")
            log(f"recorded {len(res['digests'])} digests for {args.workload}")
            return 0
        if args.trace:
            problems, attempted, failed, metrics = traced(args.workload, args.seed, golden)
        else:
            problems, attempted, failed, metrics = measure(args.workload, args.seed, args.seconds, golden)
    except BenchError as e:
        log(f"perfbench: {e}")
        return 2
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(WORK))
        except OSError:
            pass  # kept traces, or another run's work directory
    for problem in problems:
        log(f"CHECK FAILED: {problem}")
    print(json.dumps({"correct": not problems and failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


WORK = XP = TRACER = None

if __name__ == "__main__":
    sys.exit(main())
