#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the shipped scheduler.

Run from the root of a checkout:

    python3 perfbench/run.py --workload pipeline-uniform --seed 1 --seconds 30 --trace 0

See perfbench/README.md for the workloads and what each metric means. The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.
"""

import argparse
import json
import os
import shutil
import statistics
import struct
import subprocess
import sys
import time

sys.dont_write_bytecode = True  # leave nothing behind in the benchmark's directory
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import benchlib  # noqa: E402

ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build")
DUNE_BUILD = os.path.join(BUILD, "dune")
WORK = os.path.join(BUILD, "work")
SCHEDULER = os.path.join(DUNE_BUILD, "default", "bin", "scheduler.exe")
TOOL = os.path.join(DUNE_BUILD, "default", "perfbench", "tool", "perfbench_tool.exe")

# How many times set-up is repeated; setup_s is the median.
SETUP_REPS = 7

# Each one-shot workload generates a list of distinct instances and runs the
# scheduler once on each, in order, until --seconds is used up; the first
# min_calls always run, and cost_geomean is taken over exactly those, so it
# does not depend on how fast the machine is. serve-mixed runs stdio sessions
# of a seeded request stream (benchlib.make_sessions) over one cache until
# --seconds is used up; the first min_sessions always run and between them
# compute every instance once with the pipeline and once with a baseline.
WORKLOADS = {
    # The CLI's default pipeline on fine-grained instances, uniform machine.
    "pipeline-uniform": {
        "kind": "oneshot",
        "algorithm": "pipeline",
        "machine": "u:8:3:5",
        "seconds": 6.0,
        "instances": [("spmv", 250), ("exp", 250), ("cg", 250)] * 8,
        "min_calls": 9,
    },
    # The multilevel pipeline on a communication-bound NUMA machine.
    "multilevel-numa": {
        "kind": "oneshot",
        "algorithm": "multilevel",
        "machine": "n:16:5:5:3",
        "seconds": 6.0,
        "instances": [("spmv", 800)] * 12,
        "min_calls": 5,
    },
    # One closed-loop client against `scheduler serve --stdio`.
    "serve-mixed": {
        "kind": "serve",
        "machines": ["u:4:3:5", "n:8:3:5:2"],
        "dags": [("spmv", 250), ("exp", 250), ("cg", 250)] * 2,
        "algorithms": ["pipeline", "bspg", "etf", "cilk"],
        "seconds": 1.0,
        "session_requests": 10,
        "min_sessions": 12,
        "max_sessions": 36,
    },
}

END_TO_END = {
    "wall_s": "s",
    "budget_ratio": "ratio",
    "cost_geomean": "cost",
    "peak_mem_mb": "MB",
    "setup_s": "s",
    "req_p50_ms": "ms",
}

PER_LAYER = {
    "ilp_sched.init_s": "s",
    "ilp_sched.init_overrun_s": "s",
    "ilp_sched.init_sub_solves": "count",
    "ilp_sched.part_s": "s",
    "ilp_sched.part_overrun_s": "s",
    "ilp_sched.part_sub_solves": "count",
    "ilp_sched.full_s": "s",
    "ilp_sched.cs_s": "s",
    "ilp.bb_nodes": "count",
    "schedule.merge_s": "s",
    "schedule.merge_removed": "count",
    "heuristics.bspg_s": "s",
    "heuristics.bspg_mwords": "Mwords",
    "heuristics.source_s": "s",
    "localsearch.hc_s": "s",
    "localsearch.hc_evals": "count",
    "localsearch.hc_apply_ratio": "ratio",
    "localsearch.hccs_s": "s",
    "multilevel.coarsen_s": "s",
    "multilevel.coarse_solve_s": "s",
    "multilevel.refine_s": "s",
    "multilevel.refine_mwords": "Mwords",
    "dag.read_s": "s",
    "dag.hash_s": "s",
    "server.parse_s": "s",
    "server.key_s": "s",
    "server.lookup_s": "s",
    "server.store_s": "s",
    "server.compute_s": "s",
    "server.hit_ratio": "ratio",
    "schedule.validity_s": "s",
    "core.coverage": "ratio",
    "core.unattributed_s": "s",
    "core.trace_overhead": "ratio",
    "core.budget_ratio_max": "ratio",
    "serve.client_p50_ms": "ms",
    "serve.req_p90_ms": "ms",
    "serve.hit_p50_ms": "ms",
    "serve.latency_samples": "count",
    "serve.req_per_s": "1/s",
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def die(msg):
    log("perfbench: " + msg)
    sys.exit(2)


# --------------------------------------------------------------------------
# Build


def build():
    for path in ("dune-project", "lib", os.path.join("bin", "scheduler.ml")):
        if not os.path.exists(os.path.join(ROOT, path)):
            die("run from the root of a scheduler checkout (missing %s)" % path)
    os.makedirs(BUILD, exist_ok=True)
    cmd = ["dune", "build", "--root", ".", "--profile", "release",
           "--build-dir", DUNE_BUILD, "./bin/scheduler.exe",
           "./perfbench/tool/perfbench_tool.exe"]
    # no shared dune cache: the build reads and writes only inside the checkout
    env = dict(os.environ, DUNE_CACHE="disabled")
    r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    if r.returncode != 0:
        die("build failed:\n" + r.stdout.decode(errors="replace"))


def tool_cpu(args, stdin=None):
    """Run perfbench_tool; return its JSON answer and the CPU seconds it used."""
    p = subprocess.Popen([TOOL] + args, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                         stderr=subprocess.PIPE)
    # the tool reads all its input before it writes, and writes little to stderr
    p.stdin.write(stdin or b"")
    p.stdin.close()
    out, err = p.stdout.read(), p.stderr.read()
    p.stdout.close()
    p.stderr.close()
    code, _, cpu = wait_child(p)
    if code != 0:
        die("perfbench_tool %s failed: %s" % (args[0], err.decode(errors="replace")))
    return json.loads(out.decode().strip().splitlines()[-1]), cpu


def tool(args, stdin=None):
    return tool_cpu(args, stdin)[0]


def machine_args(spec):
    parts = spec.split(":")
    args = ["-p", parts[1], "-g", parts[2], "-l", parts[3]]
    if parts[0] == "n":
        args += ["--numa-delta", parts[4]]
    return args


def machine_request_lines(spec):
    parts = spec.split(":")
    lines = ["p %s" % parts[1], "g %s" % parts[2], "l %s" % parts[3]]
    if parts[0] == "n":
        lines.append("numa-delta %s" % parts[4])
    return lines


def median(values):
    """Median, or 0 when a failed run left nothing to take it of."""
    values = list(values)
    return statistics.median(values) if values else 0.0


def geomean(values):
    return benchlib.geomean(values) if values else 0.0


def wait_child(p):
    """Reap a process; return its exit code, peak RSS in MB and CPU seconds."""
    _, status, usage = os.wait4(p.pid, 0)
    p.returncode = os.waitstatus_to_exitcode(status)
    return p.returncode, usage.ru_maxrss / 1024.0, usage.ru_utime + usage.ru_stime


def run_child(cmd):
    """Run a process to completion; return (exit code, stdout, seconds, peak RSS MB)."""
    t0 = time.perf_counter()
    p = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL)
    out = p.stdout.read()
    p.stdout.close()
    code, rss, _ = wait_child(p)
    return code, out.decode(errors="replace"), time.perf_counter() - t0, rss


# --------------------------------------------------------------------------
# Set-up: generate the instances (and, for serve, start a daemon).


def instance_specs(wl, seed):
    pairs = wl["instances"] if wl["kind"] == "oneshot" else wl["dags"]
    return ["%s%d:%s:%d:%d" % (fam, i, fam, target, seed * 1000 + i)
            for i, (fam, target) in enumerate(pairs)]


def setup(name, wl, seed):
    """Generate the inputs SETUP_REPS times; return the work directory, the
    instance manifest and the median CPU seconds of one set-up (the
    generator process, plus for serve a daemon start and `stats` round
    trip). CPU time rather than wall time, so that disk and scheduling
    waits on a shared host do not swamp a set-up of a few milliseconds."""
    workdir = os.path.join(WORK, "%s-%d" % (name, seed))
    times = []
    manifest = None
    for _ in range(SETUP_REPS):
        shutil.rmtree(workdir, ignore_errors=True)
        os.makedirs(workdir)
        manifest, cpu = tool_cpu(["gen", workdir] + instance_specs(wl, seed))
        if wl["kind"] == "serve":
            daemon = Daemon(os.path.join(workdir, "cache-setup"))
            daemon.stats()
            cpu += daemon.close()[1]
        times.append(cpu)
    return workdir, manifest, statistics.median(times)


def check_schedules(checks):
    """Validity, profile reconciliation and reported cost of each
    (dag, machine, schedule file, reported cost); returns the failures."""
    if not checks:
        return []
    lines = "".join("%s %s %s\n" % (dag, machine, out) for dag, machine, out, _ in checks)
    results = tool(["check"], stdin=lines.encode())["results"]
    failures = []
    for (_, _, out, cost), r in zip(checks, results):
        if r["errors"]:
            failures.append("%s: %s" % (out, "; ".join(r["errors"])))
        elif r["cost"] != cost:
            failures.append("%s: reported cost %d, recomputed %s" % (out, cost, r["cost"]))
    return failures


# --------------------------------------------------------------------------
# One-shot workloads: one `scheduler` process per call, as a CLI user runs it.


def run_oneshot(wl, workdir, manifest, seconds):
    paths = [os.path.join(workdir, inst["name"] + ".hdag") for inst in manifest["instances"]]
    calls, checks, failures = [], [], []
    start = time.perf_counter()
    for i, path in enumerate(paths):
        elapsed = time.perf_counter() - start
        if i >= wl["min_calls"] and elapsed + elapsed / i > seconds:
            break
        out = os.path.join(workdir, "out-%d.schedule" % i)
        cmd = [SCHEDULER, path, "-a", wl["algorithm"], "--seconds", str(wl["seconds"]),
               "--jobs", "1", "-q", "-o", out] + machine_args(wl["machine"])
        code, stdout, dt, rss = run_child(cmd)
        cost = int(stdout.strip()) if code == 0 and stdout.strip().isdigit() else None
        if cost is None:
            failures.append("%s: exit %d" % (path, code))
        else:
            checks.append((path, wl["machine"], out, cost))
        calls.append({"wall": dt, "rss": rss, "cost": cost})
    failures += check_schedules(checks)
    walls = [c["wall"] for c in calls]
    first = [c["cost"] for c in calls[:wl["min_calls"]] if c["cost"] is not None]
    metrics = {
        "wall_s": median(walls),
        "budget_ratio": benchlib.budget_ratio(walls, [wl["seconds"]] * len(walls))
        if walls else 0.0,
        "cost_geomean": geomean(first),
        "peak_mem_mb": median(c["rss"] for c in calls),
        "req_p50_ms": median(walls) * 1000.0,
    }
    summary = {"calls": len(calls), "call_walls_s": [round(w, 3) for w in walls],
               "total_wall_s": sum(walls),
               "budget_ratio_max": max(walls) / wl["seconds"],
               "peak_mem_max_mb": max(c["rss"] for c in calls)}
    return len(calls), failures, metrics, summary


# --------------------------------------------------------------------------
# serve-mixed: a closed loop with one client over the framed stdio protocol.


class Daemon:
    def __init__(self, cache_dir):
        self.proc = subprocess.Popen(
            [SCHEDULER, "serve", "--stdio", "--jobs", "1", "--cache", cache_dir, "--no-metrics"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)

    def request(self, payload):
        data = payload.encode()
        self.proc.stdin.write(struct.pack(">I", len(data)) + data)
        self.proc.stdin.flush()
        header = self.proc.stdout.read(4)
        if len(header) < 4:
            raise RuntimeError("daemon closed the session")
        (length,) = struct.unpack(">I", header)
        return json.loads(self.proc.stdout.read(length).decode())

    def stats(self):
        return self.request("stats\n")

    def close(self):
        """End the session; return the daemon's peak RSS in MB and CPU seconds."""
        self.proc.stdin.close()
        self.proc.stdout.read()
        self.proc.stdout.close()
        return wait_child(self.proc)[1:]


def make_sessions(wl, workdir, manifest, seed):
    """The run's stdio sessions, each a list of (document, dag path, machine,
    request)."""
    instances = [(os.path.join(workdir, inst["name"] + ".hdag"), m)
                 for m in wl["machines"] for inst in manifest["instances"]]
    sessions = benchlib.make_sessions(seed, wl["max_sessions"], len(instances),
                                      wl["algorithms"], wl["seconds"], wl["session_requests"])
    out = []
    for j, session in enumerate(sessions):
        reqs = []
        for i, req in enumerate(session):
            dag_path, machine = instances[req["instance"]]
            doc = (["id s%d-%d" % (j, i), "algorithm %s" % req["algorithm"],
                    "seconds %g" % req["seconds"], "seed %d" % req["seed"]]
                   + machine_request_lines(machine) + ["dag %s" % dag_path])
            reqs.append(("\n".join(doc) + "\n", dag_path, machine, req))
        out.append(reqs)
    return out


def serve_session(workdir, reqs, j, stored):
    """One `scheduler serve --stdio` session over the shared cache. `stored`
    maps each cache key to the cost last answered for it, across sessions."""
    daemon = Daemon(os.path.join(workdir, "cache"))
    lat, handled, failures, checks, final = [], [], [], [], []
    for i, (doc, dag_path, machine, req) in enumerate(reqs):
        where = "session %d request %d" % (j, i)
        t0 = time.perf_counter()
        try:
            reply = daemon.request(doc)
        except (RuntimeError, ValueError, OSError) as e:
            failures.append("%s: %s" % (where, e))
            break
        dt = time.perf_counter() - t0
        lat.append((dt, req))
        if reply.get("status") != "ok":
            failures.append("%s: %s" % (where, reply.get("error")))
            continue
        status, cost, key = reply["cache"], reply["cost"], reply["key"]
        handled.append(reply["seconds"])
        if status != req["expected"]:
            failures.append("%s: %s, expected %s" % (where, status, req["expected"]))
        if status == "hit" and stored.get(key) != cost:
            failures.append("%s: hit cost %d, stored %s" % (where, cost, stored.get(key)))
        stored[key] = cost
        if status == "miss" and req["algorithm"] not in benchlib.BUDGET_SENSITIVE:
            final.append(cost)
        out = os.path.join(workdir, "reply-%d-%d.schedule" % (j, i))
        with open(out, "w") as f:
            f.write(reply["schedule"])
        checks.append((dag_path, machine, out, cost))
    rss = daemon.close()[0]
    failures += check_schedules(checks)
    return {"lat": lat, "handled": handled, "failures": failures, "rss": rss, "final": final}


def serve_summary(wl, sessions):
    lat = [dt for s in sessions for dt, _ in s["lat"]]
    hits = [dt for s in sessions for dt, r in s["lat"] if r["expected"] == "hit"]
    budgeted = [(dt, r) for s in sessions for dt, r in s["lat"]
                if r["expected"] != "hit" and r["algorithm"] in benchlib.BUDGET_SENSITIVE]
    tail = benchlib.tail_percentile(lat)
    out = {"serve.latency_samples": len(lat),
           "serve.client_p50_ms": median(lat) * 1000.0,
           "serve.hit_p50_ms": median(hits) * 1000.0,
           "serve.req_per_s": len(lat) / sum(lat) if lat else 0.0,
           "core.budget_ratio_max": max((dt / r["seconds"] for dt, r in budgeted), default=0.0)}
    if tail:
        out["serve.req_p%g_ms" % tail[0]] = tail[1] * 1000.0
    return out, lat, budgeted


def run_serve(wl, workdir, manifest, seed, seconds):
    plan = make_sessions(wl, workdir, manifest, seed)
    sessions, stored = [], {}
    start = time.perf_counter()
    for j, reqs in enumerate(plan):
        elapsed = time.perf_counter() - start
        if j >= wl["min_sessions"] and elapsed + elapsed / j > seconds:
            break
        sessions.append(serve_session(workdir, reqs, j, stored))
    summary, lat, budgeted = serve_summary(wl, sessions)
    # the first round's budget-insensitive answers, which do not depend on timing
    final = [c for s in sessions[:wl["min_sessions"]] for c in s["final"]]
    metrics = {
        "wall_s": median(dt for dt, r in budgeted if r["expected"] == "miss"),
        "budget_ratio": benchlib.budget_ratio([dt for dt, _ in budgeted],
                                              [r["seconds"] for _, r in budgeted])
        if budgeted else 0.0,
        "cost_geomean": geomean(final),
        "peak_mem_mb": median(s["rss"] for s in sessions),
        "req_p50_ms": median(t for s in sessions for t in s["handled"]) * 1000.0,
    }
    summary["sessions"] = len(sessions)
    failures = [f for s in sessions for f in s["failures"]]
    return sum(len(r) for r in plan[:len(sessions)]), failures, metrics, summary


# --------------------------------------------------------------------------
# Traced run: per-layer numbers from the replay in perfbench_tool.


def run_traced(wl, workdir, manifest, seed):
    if wl["kind"] == "oneshot":
        paths = [os.path.join(workdir, inst["name"] + ".hdag")
                 for inst in manifest["instances"][:wl["min_calls"]]]
        out = tool(["replay", wl["algorithm"], wl["machine"], str(wl["seconds"])] + paths)
        layer = out["metrics"]
        layer["core.budget_ratio_max"] = max(out["untraced_walls"]) / wl["seconds"]
        return len(paths), out["errors"], layer
    plan = make_sessions(wl, workdir, manifest, seed)[:wl["min_sessions"]]
    stored = {}
    sessions = [serve_session(workdir, reqs, j, stored) for j, reqs in enumerate(plan)]
    # the in-process replay of the same stream against a fresh cache
    index = []
    for j, reqs in enumerate(plan):
        for i, (doc, dag_path, _, req) in enumerate(reqs):
            path = os.path.join(workdir, "req-%d-%d" % (j, i))
            with open(path, "w") as f:
                f.write(doc)
            index.append("%s %s %s\n" % (path, dag_path, req["expected"]))
    with open(os.path.join(workdir, "index"), "w") as f:
        f.writelines(index)
    os.makedirs(os.path.join(workdir, "cache-replay"))
    out = tool(["serve-replay", os.path.join(workdir, "cache-replay"),
                os.path.join(workdir, "index")])
    layer = out["metrics"]
    layer.update(serve_summary(wl, sessions)[0])
    failures = [f for s in sessions for f in s["failures"]] + out["errors"]
    return 2 * len(index), failures, layer


# --------------------------------------------------------------------------


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    wl = WORKLOADS[args.workload]

    build()
    workdir, manifest, setup_s = setup(args.workload, wl, args.seed)
    log("perfbench: %s seed %d instances (name, nodes, edges): %s" % (
        args.workload, args.seed,
        json.dumps([(i["name"], i["n"], i["m"]) for i in manifest["instances"]])))

    if args.trace:
        attempted, failures, layer = run_traced(wl, workdir, manifest, args.seed)
        metrics = {k: {"value": float(layer.get(k, 0.0)), "unit": u}
                   for k, u in PER_LAYER.items()}
    else:
        if wl["kind"] == "oneshot":
            attempted, failures, values, summary = run_oneshot(wl, workdir, manifest,
                                                               args.seconds)
        else:
            attempted, failures, values, summary = run_serve(wl, workdir, manifest,
                                                             args.seed, args.seconds)
        values["setup_s"] = setup_s
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
        summary["failed_ratio"] = len(failures) / attempted
        print("summary: " + json.dumps(summary))
    for k, m in metrics.items():
        print("%-28s %16.6f %s" % (k, m["value"], m["unit"]))
    for f in failures:
        log("perfbench: FAILED " + f)
    shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": min(len(failures), attempted), "metrics": metrics}))


if __name__ == "__main__":
    main()
