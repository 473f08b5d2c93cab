#!/usr/bin/env python3
"""The jitsched benchmark.

Builds the shipped jitschedd / jitsched-router binaries and the load
generator from the checkout it sits in, starts the processes a
workload needs with default flags, drives them, checks every answer,
and prints the metrics BENCHMARK.json names.

  run.py --workload W --seed N --seconds S --trace 0|1
      One run.  The last stdout line is the result object; the line
      before it is a provenance report.  --trace 0 prints the
      end-to-end metrics, --trace 1 the per-layer ones.

  run.py --smoke
      Every workload briefly, untraced and traced; fails unless every
      metric is emitted with its unit and every trace validates.

  run.py series --workload W --seeds 1-10 [--seconds S] [--trace T]
                --out FILE
      Repeated runs, one JSON line per run (result and report)
      appended to FILE, then the median and quartile spread of each
      metric.

  run.py compare BASE NEW
      Two series files side by side: per (workload, metric) each
      side's median and quartiles, the share of pairs the new side
      won, and a verdict.

Run from the root of the checkout.  The build goes to
$CARGO_TARGET_DIR (default .bench_build).
"""

import argparse
import hashlib
import json
import os
import select
import signal
import socket
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
TARGETS = ["jitschedd", "jitsched-router", "jitsched-trace-check",
           "perfbench-loadgen"]

# Processes per workload.  cached-repeat is the only one with a
# router and the only one with the result cache on; --result-cache-mb
# must match kCacheMbPerBackend in loadgen.cc.
TOPOLOGY = {
    "iar-stream": {"daemons": 1, "router": False, "cache_mb": 0},
    "cached-repeat": {"daemons": 2, "router": True, "cache_mb": 1},
    "mixed-astar": {"daemons": 1, "router": False, "cache_mb": 0},
}

# Set-up is repeated and its median reported: one spawn is too noisy.
SETUP_REPEATS = 21
SMOKE_SECONDS = 2
LOADGEN_TIMEOUT_S = 160


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def load_spec():
    if not os.path.isfile(SPEC_PATH):
        fail("BENCHMARK.json not found at the checkout root")
    with open(SPEC_PATH) as f:
        return json.load(f)


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                          ".bench_build"))


def build():
    """Configure once, then build the four targets incrementally."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) and
            os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt"))):
        fail("no jitsched sources next to perfbench/; run from a "
             "checkout of the repository")
    out = build_dir()
    jobs = str(os.cpu_count() or 1)
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", out, "-j", jobs, "--target"] +
                   TARGETS, stdout=sys.stderr, check=True)
    return os.path.join(out, "bin")


def build_type():
    try:
        with open(os.path.join(build_dir(), "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_BUILD_TYPE:"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def source_identity():
    """The git sha when there is one, and a digest of src/ always."""
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True,
                             timeout=10).stdout.strip() or "none"
    except (OSError, subprocess.SubprocessError):
        sha = "none"
    h = hashlib.sha256()
    for base, dirs, files in os.walk(os.path.join(ROOT, "src")):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return sha, h.hexdigest()[:16]


class Proc:
    """One spawned jitschedd or jitsched-router."""

    def __init__(self, argv, log):
        self.p = subprocess.Popen(argv, stdout=subprocess.PIPE,
                                  stderr=log, text=True)
        self.port = None

    def wait_port(self, deadline):
        """Read the 'listening on HOST:PORT' line the binary prints."""
        while self.port is None:
            left = deadline - time.monotonic()
            if left <= 0 or not select.select([self.p.stdout], [], [],
                                              left)[0]:
                raise RuntimeError("no listening line before deadline")
            line = self.p.stdout.readline()
            if not line:
                raise RuntimeError("process exited before listening")
            if " listening on " in line:
                self.port = int(line.rsplit(":", 1)[1])
        return self.port

    def peak_rss_mb(self):
        with open("/proc/%d/status" % self.p.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def stop(self):
        if self.p.poll() is None:
            self.p.send_signal(signal.SIGTERM)
            try:
                self.p.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.p.kill()
                self.p.wait()
        self.p.stdout.close()


def exchange(port, frame):
    """Send one frame, return the response frame's lines."""
    with socket.create_connection(("127.0.0.1", port), timeout=10) as s:
        s.sendall(frame)
        data = b""
        while not (data.endswith(b"\nend\n") or data == b"end\n"):
            chunk = s.recv(65536)
            if not chunk:
                break
            data += chunk
    return data.decode().splitlines()


def ping(port):
    return "status ok" in exchange(port, b"jitsched-ping 1\nend\n")


def scrape(port):
    """Counter and gauge values from a daemon's STATS verb."""
    out = {}
    for line in exchange(port, b"jitsched-stats 1\nend\n"):
        parts = line.split()
        if len(parts) == 3 and parts[0] in ("counter", "gauge"):
            out[parts[1]] = float(parts[2])
    return out


def stats_metrics(before, after):
    """Per-layer metrics from daemon STATS deltas over the measured
    phases, summed over daemons."""
    def d(name):
        return sum(a.get(name, 0.0) - b.get(name, 0.0)
                   for b, a in zip(before, after))
    hits = d("service.result_cache.hits")
    misses = d("service.result_cache.misses")
    return {
        "result_cache.hit_ratio": hits / (hits + misses)
        if hits + misses else 0.0,
        # No insertion counter exists: every insertion either is still
        # an entry or was evicted.
        "result_cache.insertions": d("service.result_cache.entries") +
        d("service.result_cache.evictions"),
        "result_cache.evictions": d("service.result_cache.evictions"),
        "result_cache.collapsed": d("service.result_cache.collapsed"),
        "admission.shed": d("service.requests.shed"),
        "admission.expired": d("service.requests.expired"),
        "exec.pool.busy_ms": d("exec.pool.busy_ns") / 1e6,
        "astar.nodes_expanded": d("solver.astar.nodes_expanded"),
    }


def start_topology(bindir, workload, log):
    """Spawn the workload's processes; return (procs, seconds to ready)."""
    topo = TOPOLOGY[workload]
    daemon_argv = [os.path.join(bindir, "jitschedd")]
    if topo["cache_mb"]:
        daemon_argv += ["--result-cache-mb", str(topo["cache_mb"])]
    t0 = time.perf_counter()
    deadline = time.monotonic() + 30
    procs = [Proc(daemon_argv, log) for _ in range(topo["daemons"])]
    try:
        ports = [p.wait_port(deadline) for p in procs]
        if topo["router"]:
            argv = [os.path.join(bindir, "jitsched-router")]
            for port in ports:
                argv += ["--backend", "127.0.0.1:%d" % port]
            procs.append(Proc(argv, log))
            procs[-1].wait_port(deadline)
        # Every process answers PING; with a router, the last PING
        # goes through it.
        for p in procs:
            while True:
                try:
                    if ping(p.port):
                        break
                except OSError:
                    pass
                if time.monotonic() > deadline:
                    raise RuntimeError("PING never answered")
                time.sleep(0.001)
    except Exception:
        for p in procs:
            p.stop()
        raise
    return procs, time.perf_counter() - t0


def one_run(args, spec):
    bindir = build()
    workdir = os.path.join(build_dir(), "runs")
    os.makedirs(workdir, exist_ok=True)
    tag = "%s-%d-%d" % (args.workload, args.seed, args.trace)
    log = open(os.path.join(workdir, tag + ".log"), "w")
    trace_path = os.path.join(workdir, tag + ".trace.json")

    setups = []
    procs = None
    try:
        for i in range(SETUP_REPEATS):
            procs, secs = start_topology(bindir, args.workload, log)
            setups.append(secs)
            if i + 1 < SETUP_REPEATS:
                for p in procs:
                    p.stop()
                procs = None
        daemons = procs[:TOPOLOGY[args.workload]["daemons"]]
        argv = [os.path.join(bindir, "perfbench-loadgen"),
                "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        for p in daemons:
            argv += ["--daemon", "127.0.0.1:%d" % p.port]
        if TOPOLOGY[args.workload]["router"]:
            argv += ["--router", "127.0.0.1:%d" % procs[-1].port]
        if args.trace:
            argv += ["--trace-out", trace_path]
        if args.smoke:
            argv += ["--smoke"]
        gen = subprocess.run(argv, stdout=subprocess.PIPE, text=True,
                             timeout=LOADGEN_TIMEOUT_S)
        peak_rss = sum(p.peak_rss_mb() for p in procs)
        # The router's idle pooled connections hold every backend
        # handler, so the closing STATS scrape waits until it is gone.
        for p in procs[len(daemons):]:
            p.stop()
        stats_after = [scrape(p.port) for p in daemons]
    finally:
        if procs:
            for p in procs:
                p.stop()
        log.close()
    if gen.returncode != 0:
        fail("load generator exited with %d" % gen.returncode)
    out = json.loads(gen.stdout.strip().splitlines()[-1])

    measured = dict(out["metrics"])
    measured.update(stats_metrics(out["info"]["stats_before"], stats_after))
    measured["setup_s"] = statistics.median(setups)
    measured["peak_rss_mb"] = peak_rss
    errors = list(out["info"]["errors"])
    if args.trace:
        check = subprocess.run(
            [os.path.join(bindir, "jitsched-trace-check"), trace_path],
            capture_output=True, text=True)
        if check.returncode != 0:
            errors.append("trace check failed: " +
                          (check.stderr or check.stdout).strip())

    section = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in section:
        if m["name"] not in measured:
            fail("metric %s was not measured" % m["name"])
        metrics[m["name"]] = {"value": measured[m["name"]],
                              "unit": m["unit"]}

    sha, digest = source_identity()
    info = out["info"]
    report = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "git_sha": sha, "src_digest": digest,
        "build_type": build_type(),
        "offered_rps": info["offered_rps"],
        "achieved_rps": info["achieved_rps"],
        "slo_ms": info["slo_ms"],
        "prepare_s": info["prepare_s"],
        "setup_samples_s": setups,
        "attribution_ms": info["attribution_ms"],
        "pooled": info["pooled"],
        "rounds": info["rounds"],
        "errors": errors,
        "all_metrics": measured,
    }
    if args.trace:
        report["trace_file"] = trace_path
    result = {"correct": out["correct"] and not errors,
              "attempted": out["attempted"], "failed": out["failed"],
              "metrics": metrics}
    return report, result


def main_run(argv):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(TOPOLOGY))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    spec = load_spec()
    report, result = one_run(args, spec)
    for e in report["errors"]:
        print("perfbench: output check: " + e, file=sys.stderr)
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def main_smoke():
    """Every workload briefly, untraced and traced."""
    spec = load_spec()
    problems = []
    for w in sorted(TOPOLOGY):
        for trace in (0, 1):
            args = argparse.Namespace(workload=w, seed=1,
                                      seconds=SMOKE_SECONDS, trace=trace,
                                      smoke=True)
            report, result = one_run(args, spec)
            section = spec["per_layer"] if trace else spec["end_to_end"]
            for m in section:
                got = result["metrics"].get(m["name"])
                if got is None or got.get("unit") != m["unit"]:
                    problems.append("%s trace=%d: %s missing or unitless"
                                    % (w, trace, m["name"]))
            if not result["correct"]:
                problems.append("%s trace=%d: %s" %
                                (w, trace, "; ".join(report["errors"])))
            print("smoke %s trace=%d: %d attempted, %d failed, %s" %
                  (w, trace, result["attempted"], result["failed"],
                   "correct" if result["correct"] else "INCORRECT"))
    for p in problems:
        print("smoke: " + p, file=sys.stderr)
    return 1 if problems else 0


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def spread(values):
    """(median, q1, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) < 2:
        v = values[0] if values else 0.0
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q1, q3


def main_series(argv):
    ap = argparse.ArgumentParser(prog="run.py series")
    ap.add_argument("--workload", required=True, choices=sorted(TOPOLOGY))
    ap.add_argument("--seeds", required=True)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    spec = load_spec()
    seconds = args.seconds or spec["run_seconds"]
    rows = []
    for seed in parse_seeds(args.seeds):
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload",
             args.workload, "--seed", str(seed), "--seconds",
             str(seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            fail("run with seed %d failed (exit %d)" %
                 (seed, proc.returncode), 1)
        row = {"workload": args.workload, "seed": seed,
               "trace": args.trace, "wall_s": time.monotonic() - t0,
               "result": json.loads(lines[-1]),
               "report": json.loads(lines[-2])["report"]}
        rows.append(row)
        with open(args.out, "a") as f:
            f.write(json.dumps(row) + "\n")
        print("seed %d: %.1f s" % (seed, row["wall_s"]), file=sys.stderr)
    names = sorted(rows[0]["result"]["metrics"])
    for name in names:
        vals = [r["result"]["metrics"][name]["value"] for r in rows]
        med, q1, q3 = spread(vals)
        rel = (q3 - q1) / med if med else float("nan")
        print("%-34s median %-12.6g q1 %-12.6g q3 %-12.6g iqr/med %.3f" %
              (name, med, q1, q3, rel))
    return 0


def load_series(path):
    runs = {}
    with open(path) as f:
        for line in f:
            if line.strip():
                row = json.loads(line)
                runs.setdefault(row["workload"], []).append(row)
    return runs


def verdict(base, new, higher_better, bound):
    """The choosing-metrics Sec. 8 rule, per (workload, metric)."""
    bmed, bq1, bq3 = spread(base)
    nmed, nq1, nq3 = spread(new)
    sign = 1.0 if higher_better else -1.0
    pairs = list(zip(base, new))
    wins = sum(1 for b, n in pairs if sign * (n - b) > 0)
    losses = sum(1 for b, n in pairs if sign * (n - b) < 0)
    diff = sign * (nmed - bmed)
    base_iqr = bq3 - bq1
    if pairs and wins >= 0.9 * len(pairs) and abs(diff) > base_iqr:
        v = "better"
    elif pairs and losses >= 0.9 * len(pairs) and abs(diff) > base_iqr:
        v = "worse"
    elif bound is not None and bmed and diff < -bound * abs(bmed):
        v = "worse"
    elif bound is None:
        v = "unresolved"
    elif ((bmed and base_iqr / abs(bmed) > bound) or
          (nmed and (nq3 - nq1) / abs(nmed) > bound)) and not (
              min(sign * n for n in new) > max(sign * b for b in base)):
        v = "unresolved"
    else:
        v = "unchanged"
    return (bmed, bq1, bq3), (nmed, nq1, nq3), wins, len(pairs), v


def main_compare(argv):
    ap = argparse.ArgumentParser(prog="run.py compare")
    ap.add_argument("base")
    ap.add_argument("new")
    args = ap.parse_args(argv)
    spec = load_spec()
    catalog = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    base, new = load_series(args.base), load_series(args.new)
    moved = 0
    for workload in sorted(set(base) & set(new)):
        b_rows = sorted(base[workload], key=lambda r: r["seed"])
        n_rows = sorted(new[workload], key=lambda r: r["seed"])
        print("== %s (%d base runs, %d new runs)" %
              (workload, len(b_rows), len(n_rows)))
        for name in sorted(b_rows[0]["result"]["metrics"]):
            if name not in catalog:
                continue
            m = catalog[name]
            bvals = [r["result"]["metrics"][name]["value"] for r in b_rows]
            nvals = [r["result"]["metrics"][name]["value"]
                     for r in n_rows if name in r["result"]["metrics"]]
            higher = m.get("better") == "higher"
            b, n, wins, pairs, v = verdict(bvals, nvals, higher,
                                           m.get("bound"))
            ratio = n[0] / b[0] if b[0] else float("nan")
            print("  %-30s base %.6g [%.6g, %.6g] new %.6g [%.6g, %.6g] "
                  "%s; ratio %.4f of base %.6g %s; won %d/%d pairs: %s" %
                  (name, b[0], b[1], b[2], n[0], n[1], n[2], m["unit"],
                   ratio, b[0], m["unit"], wins, pairs, v))
            if v in ("better", "worse") and "bound" in m:
                moved += 1
    print("end-to-end pairs judged better or worse: %d" % moved)
    return 0


def main():
    argv = sys.argv[1:]
    if argv[:1] == ["series"]:
        return main_series(argv[1:])
    if argv[:1] == ["compare"]:
        return main_compare(argv[1:])
    if argv == ["--smoke"]:
        return main_smoke()
    return main_run(argv)


if __name__ == "__main__":
    sys.exit(main())
