#!/usr/bin/env python3
"""Repo benchmark: the shipped TCP server under closed-loop workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sampled-miss --seed 1 \
        --seconds 30 --trace 0
    python3 perfbench/run.py --self-test

Each run builds the server and the load generator and prepares the
fixed table and trained bundle (first run of a build only), measures the
server's set-up time over several cold starts, drives the last server
closed-loop for --seconds with queries made from --seed, checks every
served estimate against the sequential reference walk, and prints one
JSON object as the last line of stdout. --trace 0 reports the end-to-end
metrics, --trace 1 the per-layer ones. See perfbench/README.md for the
method and the metrics.
"""

import argparse
import ctypes
import fcntl
import hashlib
import json
import os
import platform
import re
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time

sys.dont_write_bytecode = True

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
LOADGEN = os.path.join(BUILD, "perfbench_loadgen")
SERVER = os.path.join(BUILD, "naru", "example_naru_cli")

# single-sampled runs by hand but is not in BENCHMARK.json: on the
# reference host its run-to-run spread reached the bound (README.md).
WORKLOADS = ("sampled-miss", "hot-cached", "single-sampled")

# name -> unit, in print order. BENCHMARK.json lists the same names and
# units; the self-test checks that they agree.
END_TO_END = {
    "qps": "1/s",
    "p50_ms": "ms",
    "mean_ms": "ms",
    "ok_frac": "ratio",
    "qerr_p50": "ratio",
    "qerr_p95": "ratio",
    "rss_mb": "MiB",
    "setup_s": "s",
}
PER_LAYER = {
    "net.wire_ms_p50": "ms",
    "net.wire_ms_p95": "ms",
    "net.codec_us": "us",
    "net.req_bytes": "bytes",
    "net.resp_bytes": "bytes",
    "net.protocol_errors": "count",
    "net.orphaned": "count",
    "serve.queue_ms_p50": "ms",
    "serve.queue_ms_p95": "ms",
    "serve.compute_ms_p50": "ms",
    "serve.batches": "count",
    "serve.batch_mean": "requests",
    "serve.largest_batch": "requests",
    "serve.deadline_flush_frac": "ratio",
    "serve.memo_hit_ratio": "ratio",
    "serve.joined_twins": "count",
    "serve.estimate_batch_ms": "ms",
    "plan.trees": "count",
    "plan.share_ratio": "ratio",
    "plan.compile_us": "us",
    "plan.execute_ms": "ms",
    "core.sampled": "count",
    "core.enumerated": "count",
    "core.exact": "count",
    "core.estimate_ms": "ms",
    "core.workspaces": "count",
    "tensor.gemm_gflops": "GFLOP/s",
    "tensor.mflop_per_query": "MFLOP",
    "proc.cpu_ms_per_req": "ms",
    "trace.overhead": "ratio",
}

# The table and its trained bundle are fixed inputs; --seed drives the
# queries. A 2-epoch bundle's q-error tail moved 14 -> 30 at p95 between
# query sets on one table, and tables from different seeds moved p95 by
# about 20% even at 8 epochs (README.md, "Noise findings"), so the bundle
# is trained well once per build and reused by every run of that build.
TABLE_SEED = 2019
TABLE_ROWS = 20000
TRAIN_EPOCHS = 8
SERVER_THREADS = 2
COLD_STARTS = 15  # set-up is the median of this many cold starts per run
CHILD_TIMEOUT_S = 150

DRAIN_RE = re.compile(
    r"# net: (\d+) conns accepted, (\d+) frames, (\d+) submitted, "
    r"(\d+) responses, (\d+) control, (\d+) protocol errors "
    r"\((\d+) poisoned streams\), (\d+) rejected, (\d+) orphaned")


class BenchError(Exception):
    """A failed step: the run exits nonzero without a result."""


class GateError(Exception):
    """A correctness or workload-identity violation."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ---------------------------------------------------------------- build

def build():
    """Configures and builds perfbench/ (and through it the server) into
    .bench_build/perfbench. A no-op after the first run in a checkout."""
    for required in ("CMakeLists.txt", "src", "examples"):
        if not os.path.exists(os.path.join(ROOT, required)):
            raise BenchError(f"not a source checkout: {required} is missing")
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        logfile = os.path.join(BUILD, "build.log")
        steps = []
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD, "--target",
                      "perfbench_loadgen", "-j", "4"])
        with open(logfile, "a") as out:
            for cmd in steps:
                rc = subprocess.call(cmd, stdout=out, stderr=subprocess.STDOUT,
                                     cwd=ROOT)
                if rc != 0:
                    with open(logfile) as f:
                        tail = f.read()[-3000:]
                    raise BenchError(
                        f"build step failed: {' '.join(cmd)}\n{tail}")
    for binary in (LOADGEN, SERVER):
        if not os.access(binary, os.X_OK):
            raise BenchError(f"build produced no {binary}")


# ---------------------------------------------------------------- processes

_LIBC = ctypes.CDLL(None, use_errno=True)
_PR_SET_PDEATHSIG = 1


def die_with_parent():
    """Child-side hook: the kernel SIGKILLs the child if this harness dies
    first, so a killed run leaves no server behind."""
    _LIBC.prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)


def run_checked(cmd, cwd, timeout=CHILD_TIMEOUT_S):
    try:
        proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                              timeout=timeout, preexec_fn=die_with_parent)
    except subprocess.TimeoutExpired:
        raise BenchError(f"timed out: {' '.join(cmd)}")
    if proc.returncode != 0:
        raise BenchError(f"failed ({proc.returncode}): {' '.join(cmd)}\n"
                         f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    return proc.stdout


def free_port():
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


class Server:
    """One `naru_cli serve --listen` process with shipped defaults except
    --threads. `naru_cli` rejects port 0, so the harness picks a free port
    and retries when the bind loses a race."""

    def __init__(self, workdir, index):
        self.workdir = workdir
        self.index = index
        self.proc = None
        self.port = None
        self.stderr_path = os.path.join(workdir, f"server{index}.err")

    def start(self):
        """Spawns the server; returns seconds from spawn to the first
        answered estimate (the probe's all-wildcard query)."""
        for _attempt in range(5):
            self.port = free_port()
            with open(self.stderr_path, "w") as err:
                spawned_ns = time.monotonic_ns()
                self.proc = subprocess.Popen(
                    [SERVER, "serve", "table.csv", "model.bundle",
                     "--listen", f"127.0.0.1:{self.port}",
                     "--threads", str(SERVER_THREADS)],
                    cwd=self.workdir, stdout=subprocess.DEVNULL, stderr=err,
                    preexec_fn=die_with_parent)
            probe = subprocess.Popen(
                [LOADGEN, "probe", "--dir", ".", "--port", str(self.port)],
                cwd=self.workdir, stdout=subprocess.PIPE,
                stderr=subprocess.PIPE, text=True, preexec_fn=die_with_parent)
            deadline = time.monotonic() + 60
            while probe.poll() is None and self.proc.poll() is None:
                if time.monotonic() > deadline:
                    break
                time.sleep(0.002)
            if probe.poll() is None:
                probe.kill()
            out, perr = probe.communicate()
            if probe.returncode == 0:
                m = re.search(r"answered_ns (\d+)", out)
                if not m:
                    raise BenchError(f"probe printed no answer: {out}")
                return (int(m.group(1)) - spawned_ns) / 1e9
            server_exited = self.proc.poll() is not None
            self.kill()
            with open(self.stderr_path) as f:
                err_text = f.read()
            if server_exited and ("bind" in err_text.lower()
                                  or "address" in err_text.lower()):
                continue  # lost the port race: try another port
            raise BenchError(f"server did not come up:\n{err_text}\n{perr}")
        raise BenchError("server could not bind a free port in 5 attempts")

    def peak_rss_mb(self):
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM for the server")

    def stop(self):
        """SIGINT (graceful drain) and the drain line's counters."""
        self.proc.send_signal(signal.SIGINT)
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.kill()
            raise BenchError("server did not drain within 60 s of SIGINT")
        with open(self.stderr_path) as f:
            text = f.read()
        m = DRAIN_RE.search(text)
        if self.proc.returncode != 0 or not m:
            raise BenchError(f"server exited {self.proc.returncode} without "
                             f"a drain line:\n{text[-2000:]}")
        keys = ("conns", "frames", "submitted", "responses", "control",
                "protocol_errors", "poisoned", "rejected", "orphaned")
        return dict(zip(keys, map(int, m.groups())))

    def kill(self):
        if self.proc is not None and self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()


def check_drain(drain, what):
    if (drain["submitted"] != drain["responses"] or drain["protocol_errors"]
            or drain["orphaned"] or drain["rejected"]):
        raise GateError(f"{what}: drain line broke conservation: {drain}")


# ---------------------------------------------------------------- one run

def provenance(drive):
    commit = os.environ.get("NARU_GIT_COMMIT", "")
    if not commit and os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                                    cwd=ROOT, capture_output=True, text=True,
                                    timeout=10).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = ""
    return {
        "host": platform.node(),
        "nproc": os.cpu_count(),
        "commit": commit or "unknown",
        "simd": drive.get("simd", "?"),
        "calibration_ms": drive.get("calibration_ms"),
    }


def identity_guards(workload, d):
    """A workload must not quietly turn into another one."""
    if workload == "sampled-miss":
        if d["serve.memo_hits"] != 0 or d["serve.joined_twins"] != 0:
            raise GateError("sampled-miss served memo hits or joined twins: "
                            f"{d['serve.memo_hits']} hits, "
                            f"{d['serve.joined_twins']} twins")
    elif workload == "hot-cached":
        if d["serve.memo_hit_ratio"] != 1.0 or d["core.sampled"] != 0:
            raise GateError("hot-cached was not all memo hits: hit ratio "
                            f"{d['serve.memo_hit_ratio']}, "
                            f"{d['core.sampled']} sampled walks")
    elif workload == "single-sampled":
        if d["serve.largest_batch"] != 1:
            raise GateError("single-sampled batched requests together: "
                            f"largest batch {d['serve.largest_batch']}")
    if d["serve.admission_shed"] != 0:
        raise GateError(f"{workload}: admission control shed requests")


def prepared_inputs(rows, epochs):
    """The table, its domains, the trained bundle and the accuracy set's
    references, made once per build (keyed by the binaries and the
    preparation parameters) under .bench_build/perfbench/prep/. Returns
    the directory."""
    key = hashlib.sha256(f"{TABLE_SEED}/{rows}/{epochs}".encode())
    for binary in (SERVER, LOADGEN):
        with open(binary, "rb") as f:
            key.update(hashlib.sha256(f.read()).digest())
    prep = os.path.join(BUILD, "prep", key.hexdigest()[:16])
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(prep, "done")):
            shutil.rmtree(prep, ignore_errors=True)
            os.makedirs(prep)
            run_checked([LOADGEN, "prepare", "--dir", ".", "--seed",
                         str(TABLE_SEED), "--rows", str(rows)], prep)
            run_checked([SERVER, "train", "table.csv", "model.bundle",
                         str(epochs)], prep, timeout=600)
            run_checked([LOADGEN, "accuracy", "--dir", "."], prep, timeout=600)
            open(os.path.join(prep, "done"), "w").close()
    return prep


def remove_stale_runs(runs):
    """Deletes run directories left by a killed harness (its pid is gone)."""
    if not os.path.isdir(runs):
        return
    for name in os.listdir(runs):
        pid = int(name.rsplit("-", 1)[-1])
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            shutil.rmtree(os.path.join(runs, name), ignore_errors=True)


def run_once(workload, seed, seconds, trace, rows=TABLE_ROWS,
             epochs=TRAIN_EPOCHS, cold_starts=COLD_STARTS):
    """Returns (result dict, provenance dict). Raises BenchError/GateError."""
    prep = prepared_inputs(rows, epochs)
    runs = os.path.join(BUILD, "runs")
    remove_stale_runs(runs)
    workdir = os.path.join(runs, f"{workload}-{seed}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    servers = []
    try:
        for name in os.listdir(prep):  # table, domains, bundle (+ weights)
            if name != "done":
                shutil.copy(os.path.join(prep, name), workdir)

        # Set-up time: cold starts; the last server stays up for the run.
        setups = []
        for i in range(cold_starts):
            server = Server(workdir, i)
            servers.append(server)
            setups.append(server.start())
            if i + 1 < cold_starts:
                check_drain(server.stop(), "cold start")
        server = servers[-1]

        t_drive = time.monotonic()
        out = os.path.join(workdir, "drive.json")
        run_checked([LOADGEN, "drive", "--dir", ".",
                     "--port", str(server.port),
                     "--server-pid", str(server.proc.pid),
                     "--workload", workload, "--seed", str(seed),
                     "--seconds", str(seconds), "--trace", str(trace),
                     "--out", out], workdir)
        with open(out) as f:
            d = json.load(f)
        log(f"perfbench: {workload}: drive took "
            f"{time.monotonic() - t_drive:.1f} s")
        run_peak_mb = server.peak_rss_mb()
        drain = server.stop()
        check_drain(drain, workload)

        failures = [k for k in ("mismatches", "transport_failures",
                                "unanswered") if d[k] != 0]
        if failures:
            raise GateError(f"{workload}: served estimates failed the gate: "
                            + ", ".join(f"{k}={d[k]}" for k in failures))
        identity_guards(workload, d)

        if trace:
            kept = os.path.join(BUILD, "traces")
            os.makedirs(kept, exist_ok=True)
            shutil.copy(os.path.join(workdir, "spans.json"),
                        os.path.join(kept, f"{workload}.json"))
        d["ok_frac"] = d["ok"] / max(d["sent"], 1)
        d["run_peak_mb"] = run_peak_mb
        d["setup_s"] = statistics.median(setups)
        d["setup_all"] = setups
        d["net.protocol_errors"] = drain["protocol_errors"]
        d["net.orphaned"] = drain["orphaned"]
        return d, provenance(d)
    finally:
        for server in servers:
            server.kill()
        shutil.rmtree(workdir, ignore_errors=True)


def result_line(d, trace):
    names = PER_LAYER if trace else END_TO_END
    metrics = {}
    for name, unit in names.items():
        value = d.get(name)
        if value is None:
            raise BenchError(f"metric {name} was not measured")
        metrics[name] = {"value": value, "unit": unit}
    return {"correct": True, "attempted": int(d["sent"]),
            "failed": int(d["sent"] - d["ok"]), "metrics": metrics}


def print_table(workload, seed, d, prov, trace):
    print(f"# perfbench {workload} seed={seed} trace={trace}  "
          f"host={prov['host']} nproc={prov['nproc']} "
          f"commit={prov['commit']} {prov['simd']} "
          f"calibration_ms={prov['calibration_ms']:.1f}")
    print(f"# timed phase: {int(d['sent'])} sent, {int(d['ok'])} ok in "
          f"{d['wall_s']:.2f} s; q-error over {int(d['qerr_queries'])} "
          f"distinct queries; gate: {int(d['checked'])} estimates "
          "bit-identical to the sequential reference"
          + ("; query pool exhausted, timed phase ended early"
             if d["pool_exhausted"] else ""))
    print(f"# round trip p95: {d['p95_ms']:.3f} ms (not gated)")
    print(f"# server peak RSS: {d['rss_mb']:.1f} MiB after warm-up (rss_mb), "
          f"{d['run_peak_mb']:.1f} MiB over the whole run (not gated)")
    print(f"# setup: {len(d['setup_all'])} cold starts, "
          + " ".join(f"{s * 1000:.1f}" for s in d["setup_all"]) + " ms")
    names = PER_LAYER if trace else END_TO_END
    for name, unit in names.items():
        print(f"{name:28s} {d[name]:14.6g} {unit}")


def self_test():
    """Smoke mode: all three workloads at tiny sizes, traced and untraced;
    every metric named in BENCHMARK.json must appear with its unit."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    declared_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if declared != END_TO_END or declared_layer != PER_LAYER:
        raise BenchError("BENCHMARK.json metrics differ from run.py's")
    if not {w["name"] for w in spec["workloads"]} <= set(WORKLOADS):
        raise BenchError("BENCHMARK.json names a workload run.py lacks")
    build()
    for workload in WORKLOADS:
        for trace in (0, 1):
            d, _ = run_once(workload, seed=7, seconds=2, trace=trace,
                            rows=2000, epochs=1, cold_starts=2)
            line = result_line(d, trace)
            want = declared_layer if trace else declared
            got = {k: v["unit"] for k, v in line["metrics"].items()}
            if got != want:
                raise BenchError(f"{workload} trace={trace}: metrics {got}")
            bad = [k for k, v in line["metrics"].items()
                   if not isinstance(v["value"], (int, float))]
            if bad:
                raise BenchError(f"{workload}: non-numeric metrics {bad}")
            log(f"self-test: {workload} trace={trace}: {len(got)} metrics ok")
    print("self-test passed")


def main():
    # SIGTERM unwinds through the finally blocks that stop the servers.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    try:
        if args.self_test:
            self_test()
            return 0
        if args.workload is None:
            ap.error("--workload is required")
        build()
        d, prov = run_once(args.workload, args.seed, args.seconds, args.trace)
    except GateError as e:
        log(f"perfbench: GATE FAILED: {e}")
        return 1
    except BenchError as e:
        log(f"perfbench: error: {e}")
        return 1
    line = result_line(d, args.trace)
    print_table(args.workload, args.seed, d, prov, args.trace)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
