#!/usr/bin/env python3
"""DiffTrace benchmark: one command, three workloads, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--tiny]

Run from the root of a difftrace checkout. The first run builds the
`difftrace` CLI and the `dtbench` layer probe from source into .bench_build/;
inputs and scratch files go to .bench_work/<workload>/. Inputs are made from
--seed by `difftrace collect` (same seed, byte-identical archives).

Every workload runs the same user session on its own inputs: rounds of
triage with the one-shot CLI (rank, cached rank, diffnlr, the check engines)
alternate with blocks of a closed loop of clients against one `difftrace
serve` daemon over its unix socket. What differs is the input and the weight
of each half; see README.md.

--trace 0 measures the end-to-end metrics with nothing traced. --trace 1 is
the separate traced run: dtbench wraps each public layer call in a span and
the per-layer metrics come from those spans. Both modes check the program's
answers (correct) and count operations (attempted, failed). The last line of
standard output is one JSON object; progress and diagnostics go to stderr.
--tiny shrinks every input for the self-test (selftest.py).
"""

import argparse
import contextlib
import gc
import json
import os
import random
import re
import shutil
import socket
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
BUILD = ROOT / ".bench_build" / "perfbench"
WORK = ROOT / ".bench_work"

# setup_s is the median of SETUPS_FIRST set-ups at the start of a run, one
# half-way through and one at the end: spread over the run, one stretch of
# contention from other tenants cannot slow most of them.
SETUPS_FIRST = 3
RSS_SAMPLES = 3       # untimed runs per command for peak_rss_mb
# Every end-to-end time is scaled to a machine on which `dtbench calibrate`
# (fixed work, no difftrace code) takes CAL_REF_MS; see README.md.
CAL_REF_MS = 60.0
TIMEOUT_S = 60        # cap on any single program invocation
JOBS = max(1, min(2, os.cpu_count() or 1))   # --jobs of every timed command
# The daemon serves each connection on one of its jobs-1 pool workers, so
# it gets one job more than the commands: one worker for the idle
# connection serve_mixed holds, one for the clients.
DAEMON_JOBS = max(1, min(3, os.cpu_count() or 1))


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


class BenchError(Exception):
    """The benchmark cannot run at all (no source tree, build failure)."""


# --------------------------------------------------------------------------
# Workloads

@dataclass
class Workload:
    app: str
    shape: dict            # collect flags: nranks, workers, iterations, size
    hang_iter: int         # skip@rank=R,iter=K for the faulty run (late hang)
    variant_iter: int      # skip iteration of the serve session's unseen runs
    cli_share: float       # share of the run spent on one-shot CLI commands
    clients: int           # closed-loop serve clients
    idle_connection: bool  # hold one idle socket open for the whole session
    cycles: int            # ingest + first rank of unseen runs per session
    tiny_shape: dict = field(default_factory=dict)


WORKLOADS = {
    # lulesh: hybrid MPI+OpenMP, many traces with wide function sets; the
    # sweep's evaluate half (attributes, JSM, clustering, B-score) dominates.
    "hybrid_triage": Workload(
        app="lulesh", shape=dict(nranks=48, workers=4, iterations=4, size=16),
        hang_iter=2, variant_iter=2, cli_share=0.55, clients=1,
        idle_connection=False, cycles=6,
        tiny_shape=dict(nranks=8, workers=2, iterations=3, size=8)),
    # stencil: MPI-only halo exchange, few functions, thousands of iterations;
    # archive load, decode, NLR and the check context dominate.
    "long_iterative": Workload(
        app="stencil", shape=dict(nranks=8, iterations=2000, size=32),
        hang_iter=1995, variant_iter=100, cli_share=0.6, clients=1,
        idle_connection=False, cycles=12,
        tiny_shape=dict(nranks=4, iterations=60, size=8)),
    # serve: hybrid_triage's inputs with the weight on the daemon: two
    # closed-loop clients, unseen runs ingested during the session, and one
    # idle connection held open throughout.
    "serve_mixed": Workload(
        app="lulesh", shape=dict(nranks=48, workers=4, iterations=4, size=16),
        hang_iter=2, variant_iter=2, cli_share=0.45, clients=2,
        idle_connection=True, cycles=6,
        tiny_shape=dict(nranks=8, workers=2, iterations=3, size=8)),
}

END_TO_END = [
    ("setup_s", "s"), ("rank_ms", "ms"), ("rank_cache_warm_ms", "ms"), ("diffnlr_ms", "ms"), ("check_ms", "ms"),
    ("check_auto_ms", "ms"), ("check_warm_ms", "ms"), ("peak_rss_mb", "MB"),
    ("serve_warm_ms", "ms"), ("serve_req_per_s", "1/s"),
]

PER_LAYER = [
    ("trace.load_ms", "ms"), ("trace.save_ms", "ms"), ("trace.archive_bytes", "bytes"),
    ("compress.decode_events_per_s", "1/s"), ("compress.encode_events_per_s", "1/s"),
    ("compress.bytes_per_event", "bytes"), ("instrument.collect_events_per_s", "1/s"),
    ("core.session_ms", "ms"), ("core.nlr_ms", "ms"), ("core.nlr_tokens_per_s", "1/s"),
    ("core.evaluate_ms", "ms"), ("core.attributes_ms", "ms"), ("core.jsm_ms", "ms"),
    ("core.hclust_ms", "ms"), ("core.bscore_ms", "ms"), ("core.sweep_ms", "ms"),
    ("core.diffnlr_ms", "ms"), ("analyze.context_ms", "ms"), ("analyze.replay_ms", "ms"),
    ("analyze.ops_per_s", "1/s"), ("analyze.auto_ms", "ms"), ("analyze.summary_ms", "ms"),
    ("analyze.summary_exact_ratio", "ratio"), ("sched.cache_store_ms", "ms"),
    ("sched.cache_bytes", "bytes"), ("sched.cache_lookup_ms", "ms"),
    ("sched.cache_hit_ratio", "ratio"), ("sched.pool_speedup", "ratio"),
    ("serve.handle_warm_ms", "ms"), ("serve.handle_cold_ms", "ms"),
    ("serve.handle_ingest_ms", "ms"), ("serve.transport_ms", "ms"),
    ("serve.hot_hit_ratio", "ratio"), ("serve.peak_rss_mb", "MB"), ("cli.overhead_ms", "ms"),
    ("probe.trace_overhead_pct", "%"),
]


@dataclass
class Plan:
    """The inputs one seed makes for one workload."""
    workload: Workload
    shape: dict
    seed: int
    suspect: int                 # the rank the faulty run skips an iteration on
    variants: list               # (rank, iter) of the unseen runs serve ingests

    @staticmethod
    def make(name, seed, tiny):
        wl = WORKLOADS[name]
        shape = dict(wl.tiny_shape if tiny else wl.shape)
        rng = random.Random(f"{name}:{seed}")
        nranks = shape["nranks"]
        # The injected rank is fixed: where a stencil rank sits in the halo
        # chain changes how much of the run hangs (check time and memory
        # moved by 20% with it). The seed picks the ranks of the unseen
        # runs, which hang on distinct ranks so their archives all differ.
        suspect = nranks // 2
        others = [r for r in range(nranks) if r != suspect]
        # A second pass over the ranks hangs one iteration later (stencil
        # archives differ by hang point; lulesh ones only by rank).
        perm = rng.sample(others, len(others))
        it = min(wl.variant_iter, shape["iterations"] // 2)
        variants = [(perm[i % len(perm)], it + i // len(perm)) for i in range(2 if tiny else wl.cycles)]
        return Plan(wl, shape, seed, suspect, variants)


# --------------------------------------------------------------------------
# Running the program

@dataclass
class Result:
    code: int
    out: str
    err: str
    ms: float


class Env:
    """Paths of the built programs and the run's bookkeeping."""

    def __init__(self, difftrace, dtbench):
        self.difftrace = str(difftrace)
        self.dtbench = str(dtbench)
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def check(self, ok, what):
        if not ok:
            self.problems.append(what)
            log("CHECK FAILED:", what)
        return ok

    def run(self, args, cwd, program=None):
        """Runs one command; returns its exit code, output and wall ms."""
        err_path = Path(cwd) / ".stderr"
        env = dict(os.environ, DIFFTRACE_JOBS=str(JOBS))
        with open(err_path, "wb") as err_file:
            t0 = time.perf_counter()
            proc = subprocess.Popen([program or self.difftrace] + [str(a) for a in args],
                                    cwd=cwd, stdout=subprocess.PIPE, stderr=err_file, env=env)
            timer = threading.Timer(TIMEOUT_S, proc.kill)
            timer.start()
            try:
                out = proc.stdout.read()
                _, status = os.waitpid(proc.pid, 0)
            finally:
                timer.cancel()
                proc.stdout.close()
            ms = (time.perf_counter() - t0) * 1000.0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Result(proc.returncode, out.decode(errors="replace"),
                      err_path.read_text(errors="replace"), ms)

    def op(self, args, cwd, expect_code=0):
        """A counted operation: one attempt, failed when the exit code is off."""
        self.attempted += 1
        res = self.run(args, cwd)
        if res.code != expect_code:
            self.failed += 1
            log(f"operation failed (exit {res.code}): difftrace {' '.join(map(str, args))}\n{res.err[-800:]}")
        return res


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file() or not (ROOT / "tools" / "CMakeLists.txt").is_file():
        raise BenchError(f"no difftrace source tree at {ROOT}")
    if shutil.which("cmake") is None:
        raise BenchError("cmake not found")

    def step(cmd):
        log("+", " ".join(cmd))
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            raise BenchError("build failed: " + " ".join(cmd))

    if not (BUILD / "CMakeCache.txt").is_file():
        step(["cmake", "-S", str(BENCH), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    step(["cmake", "--build", str(BUILD), "--target", "difftrace_tool", "dtbench",
          "-j", str(os.cpu_count() or 1)])
    return BUILD / "difftrace_tools" / "difftrace", BUILD / "dtbench"


# --------------------------------------------------------------------------
# The serve daemon and its clients

DAEMONS = []   # every daemon this run started; main() stops them all


class Daemon:
    def __init__(self, env, cwd):
        self.cwd = Path(cwd)
        self.sock = str((self.cwd / "s.sock").relative_to(ROOT))
        self.log = open(self.cwd / "serve.log", "wb")
        self.proc = subprocess.Popen(
            [env.difftrace, "serve", "--socket", "s.sock", "--store", "store", "--jobs", str(DAEMON_JOBS)],
            cwd=self.cwd, stdout=subprocess.DEVNULL, stderr=self.log,
            env=dict(os.environ, DIFFTRACE_JOBS=str(JOBS)))
        DAEMONS.append(self)
        deadline = time.monotonic() + 20
        while True:
            try:
                with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
                    s.connect(self.sock)
                break
            except OSError:
                if self.proc.poll() is not None or time.monotonic() > deadline:
                    self.stop()
                    raise BenchError("serve daemon did not start")
                time.sleep(0.01)

    def request(self, obj):
        """One request on its own connection, as `difftrace query` sends it."""
        line = (json.dumps(obj) + "\n").encode()
        t0 = time.perf_counter()
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
            s.settimeout(TIMEOUT_S)
            s.connect(self.sock)
            s.sendall(line)
            buf = b""
            while not buf.endswith(b"\n"):
                chunk = s.recv(1 << 16)
                if not chunk:
                    break
                buf += chunk
        ms = (time.perf_counter() - t0) * 1000.0
        return ms, json.loads(buf)

    def peak_rss_kb(self):
        try:
            for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
        except OSError:
            pass
        return 0

    def stop(self):
        if self.log.closed:
            return
        if self.proc.poll() is None:
            try:
                self.request({"op": "shutdown"})
            except (OSError, ValueError):
                pass
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()


def jobs_opt():
    return f"--jobs={JOBS}"


def run_tag(rank, it):
    return f"v{rank}i{it}"


# --------------------------------------------------------------------------
# Set-up

@dataclass
class Inputs:
    dir: Path
    normal: str = "n.dtr"
    faulty: str = "f.dtr"
    watchdog: dict = field(default_factory=dict)   # rank -> blocked call, from collect
    collect_rates: list = field(default_factory=list)   # events/s of each collect
    consensus: str = ""
    cold_rank: str = ""      # `rank --cache` output of the pass that filled the cache
    daemon: Daemon = None


@contextlib.contextmanager
def one_core():
    """Programs started inside run on one core: they inherit the calling
    thread's CPU mask.

    A collect runs every simulated rank on a thread of its own and wakes
    another rank at every message. Spread over the cores, its time is mostly
    cross-core wake-ups, whose cost swings with the cores other tenants
    take: a set-up took 1.6-2.3 s on four cores beside two busy loops of our
    own, 1.0-1.2 s on one core, with or without them."""
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


def collect_flags(plan):
    flags = ["--app", plan.workload.app, "--seed", plan.seed]
    for key in ("nranks", "workers", "iterations", "size"):
        if key in plan.shape:
            flags += [f"--{key}", plan.shape[key]]
    return flags


def hang_iter(plan):
    return min(plan.workload.hang_iter, plan.shape["iterations"] - 1)


def setup(env, plan, dir):
    """Generates the inputs, starts the daemon and ingests the pair. Returns (Inputs, seconds)."""
    dir.mkdir()
    inp = Inputs(dir)
    t0 = time.perf_counter()
    runs = [(inp.normal, None), (inp.faulty, (plan.suspect, hang_iter(plan)))]
    runs += [(run_tag(r, i) + ".dtr", (r, i)) for r, i in plan.variants]
    for out, fault in runs:
        args = ["collect", "--out", out] + collect_flags(plan)
        if fault:
            args += ["--plan", f"skip@rank={fault[0]},iter={fault[1]}"]
        with one_core():
            res = env.run(args, dir)
        if res.code != 0:
            raise BenchError(f"collect failed: {res.err[-400:]}")
        m = re.search(r"saved \d+ trace\(s\), (\d+) events", res.out)
        if m:
            inp.collect_rates.append(int(m.group(1)) / (res.ms / 1000.0))
        if out == inp.faulty:
            m = re.search(r"\[watchdog\] deadlock: .*?\[(.*)\]", res.err)
            if m:
                for part in m.group(1).split(", "):
                    w = re.match(r"rank (\d+) in (\S+)", part)
                    if w:
                        inp.watchdog[int(w.group(1))] = w.group(2)
    inp.daemon = Daemon(env, dir)
    for name, path in (("n", inp.normal), ("f", inp.faulty)):
        _, resp = inp.daemon.request({"op": "ingest", "path": path, "name": name})
        if resp.get("status") != "ok":
            raise BenchError(f"ingest failed: {resp.get('error')}")
    return inp, time.perf_counter() - t0


def warm_up(env, plan, inp):
    """The daemon's first answer, the consensus trace diffnlr uses, and the
    artifact caches rank_cache_warm_ms and check_warm_ms read.

    Each of these starts with a cold artifact cache, whose stores are one
    small file per artifact; their latency on a virtual disk swings by 2x
    over minutes, so warm-up is kept out of setup_s (see README.md)."""
    inp.daemon.request({"op": "rank", "normal": "n", "faulty": "f", "opts": [jobs_opt()]})
    rank = env.run(["rank", inp.normal, inp.faulty, "--jobs", JOBS], inp.dir)
    m = re.search(r"consensus suspicious trace:\s*(\S+)", rank.out)
    inp.consensus = m.group(1) if m else f"{plan.suspect}.0"
    args = ["rank", inp.normal, inp.faulty, "--jobs", JOBS, "--cache=rank-cache"]
    inp.cold_rank = env.run(args, inp.dir).out
    env.run(["check", "--engine", "auto", "--cache=check-cache", inp.faulty], inp.dir)


def settle_disk():
    """Writes back what earlier steps wrote and deleted before the next timed
    step, so their journal commits and discards do not land inside it."""
    os.sync()


def same_archives(env, plan, a, b):
    for f in sorted(p.name for p in b.dir.glob("*.dtr")):
        env.check((a.dir / f).read_bytes() == (b.dir / f).read_bytes(),
                  f"two collects at seed {plan.seed} give byte-identical {f}")


def set_up_all(env, plan, base, cals):
    """The first set-ups of the run, each bracketed by calibrations (into
    `cals`); keeps the last one and checks all collected the same bytes.
    Returns (Inputs, the set-ups' seconds)."""
    times = []
    inputs = []
    base.mkdir(parents=True)
    for i in range(SETUPS_FIRST):
        calibrate(env, base, cals)
        inp, secs = setup(env, plan, base / f"setup{i}")
        calibrate(env, base, cals)
        times.append(secs)
        inputs.append(inp)
        if i < SETUPS_FIRST - 1:
            inp.daemon.stop()
    last = inputs[-1]
    for earlier in inputs[:-1]:
        same_archives(env, plan, earlier, last)
        shutil.rmtree(earlier.dir, ignore_errors=True)
    settle_disk()
    warm_up(env, plan, last)
    return last, times


def later_setup(env, plan, inp, name, cals):
    """One more timed set-up, part way through the run, into a directory of
    its own that is then removed; its archives must equal the kept ones.
    Returns its seconds."""
    base = inp.dir.parent
    calibrate(env, base, cals)
    other, secs = setup(env, plan, base / name)
    calibrate(env, base, cals)
    other.daemon.stop()
    same_archives(env, plan, other, inp)
    shutil.rmtree(other.dir, ignore_errors=True)
    settle_disk()
    return secs


# --------------------------------------------------------------------------
# The timed session

CLI_OPS = ("rank", "rank_cache_warm", "diffnlr", "check", "check_auto", "check_warm")
READ_KINDS = ("rank", "check", "diff")   # warm serve reads, sent in turn


def calibrate(env, cwd, cals):
    cals.append(env.run(["calibrate"], cwd, program=env.dtbench).ms)


def cli_calls(inp):
    """The one-shot commands of a CLI round: key -> (args, expected exit code)."""
    n, f = inp.normal, inp.faulty
    jobs = ["--jobs", JOBS]
    return {
        "rank": (["rank", n, f] + jobs, 0),
        "rank_cache_warm": (["rank", n, f, "--cache=rank-cache"] + jobs, 0),
        "diffnlr": (["diffnlr", n, f, "--trace", inp.consensus], 0),
        "check": (["check", f], 1),
        "check_auto": (["check", "--engine", "auto", f], 1),
        "check_warm": (["check", "--engine", "auto", "--cache=check-cache", f], 1),
    }


def cli_round(env, inp, samples, answers):
    calibrate(env, inp.dir, samples["cal"])
    calls = cli_calls(inp)
    for key in CLI_OPS:
        args, code = calls[key]
        res = env.op(args, inp.dir, expect_code=code)
        samples[key].append(res.ms)
        answers.setdefault(key, res.out)
        if answers[key] != res.out:
            answers.setdefault("unstable", []).append(key)


def peak_rss_mb(env, inp):
    """Per command, the median peak resident set of RSS_SAMPLES untimed runs,
    read through `dtbench rss`; returns them by command."""
    calls = cli_calls(inp)
    file = inp.dir / ".rss"
    peaks = {}
    for key in CLI_OPS:
        kb = []
        args, code = calls[key]
        for _ in range(RSS_SAMPLES):
            res = env.run(["rss", file, env.difftrace] + args, inp.dir, program=env.dtbench)
            env.check(res.code == code, f"dtbench rss {key}: exit {res.code}")
            kb.append(int(file.read_text()))
        peaks[key] = statistics.median(kb) / 1024.0
    return peaks


class ServeSession:
    """Closed-loop clients against the daemon, run in blocks of time (between
    the CLI rounds of an untraced run), plus every ingest cycle of the plan,
    spread over the session's planned length.

    `lat` holds the latencies by kind (and each request's transport time:
    client latency minus the daemon's own wall_ns); `elapsed` is the time
    spent in blocks."""

    def __init__(self, env, plan, inp, answers, planned_s):
        self.env = env
        self.plan = plan
        self.daemon = inp.daemon
        self.answers = answers
        self.planned_s = planned_s
        self.reads = {
            "rank": {"op": "rank", "normal": "n", "faulty": "f", "opts": [jobs_opt()]},
            "check": {"op": "check", "run": "f"},
            "diff": {"op": "diff", "normal": "n", "faulty": "f", "trace": inp.consensus},
        }
        self.lock = threading.Lock()
        self.lat = {k: [] for k in ("warm", "cold", "ingest", "all", "transport") + READ_KINDS}
        self.served = {}
        answers["serve"] = self.served
        self.errors = []
        self.elapsed = 0.0
        self.next_cycle = 0
        # Each client sends the read kinds in a fresh seeded order every
        # three requests: equal counts of each, and no fixed phase between
        # two clients that queue on one worker, which would decide what
        # each kind waits behind.
        self.orders = [(random.Random(f"{plan.seed}:{c}"), []) for c in range(plan.workload.clients)]
        self.idle = None
        if plan.workload.idle_connection and DAEMON_JOBS > 2:
            self.idle = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            self.idle.connect(self.daemon.sock)

    def record(self, kind, ms, resp, key=None):
        with self.lock:
            self.env.attempted += 1
            if resp.get("status") != "ok":
                self.env.failed += 1
                self.errors.append(resp.get("error", "?"))
            self.lat[kind].append(ms)
            self.lat["all"].append(ms)
            self.lat["transport"].append(ms - resp.get("wall_ns", 0) / 1e6)
            if key is not None:
                self.served.setdefault(key, resp.get("output", ""))
                if self.served[key] != resp.get("output", ""):
                    self.answers.setdefault("unstable", []).append("serve " + key)

    def cycle_due(self, block_start):
        cycles = len(self.plan.variants)
        now = self.elapsed + time.perf_counter() - block_start
        return self.next_cycle < cycles and now >= (self.next_cycle + 0.5) * self.planned_s / cycles

    def client(self, index, block_start, seconds, finish):
        rng, order = self.orders[index]
        while True:
            if index == 0 and (self.cycle_due(block_start) or (finish and self.next_cycle < len(self.plan.variants)
                                                               and time.perf_counter() >= block_start + seconds)):
                rank, it = self.plan.variants[self.next_cycle]
                name = run_tag(rank, it)
                ms, resp = self.daemon.request({"op": "ingest", "path": name + ".dtr", "name": name})
                self.record("ingest", ms, resp)
                ms, resp = self.daemon.request({"op": "rank", "normal": "n", "faulty": name,
                                                "opts": [jobs_opt()]})
                self.record("cold", ms, resp, key="cold " + name)
                self.next_cycle += 1
                continue
            if time.perf_counter() >= block_start + seconds:
                return
            if not order:
                order.extend(rng.sample(READ_KINDS, len(READ_KINDS)))
            key = order.pop()
            ms, resp = self.daemon.request(self.reads[key])
            self.record("warm", ms, resp, key=key)
            with self.lock:
                self.lat[key].append(ms)

    def block(self, seconds, finish=False):
        """Runs the clients for `seconds`. With `finish`, the first client
        then runs every ingest cycle still to do, and the session ends."""
        start = time.perf_counter()
        threads = [threading.Thread(target=self.client, args=(c, start, seconds, finish))
                   for c in range(len(self.orders))]
        gc.disable()   # no collector pauses inside the clients' timings
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        finally:
            gc.enable()
        self.elapsed += time.perf_counter() - start
        if finish:
            if self.idle is not None:
                self.idle.close()
            if self.errors:
                log("serve errors:", self.errors[:3])


def p99(values):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(0.99 * len(ordered)))]


# --------------------------------------------------------------------------
# Checks made after the timed part

def table_cells(line):
    return [c.strip() for c in line.strip().strip("|").split("|")]


def table_errors(text):
    """(rule, where, function) of every error row of a `check` table."""
    rows = []
    for line in text.splitlines():
        cells = table_cells(line)
        if len(cells) >= 5 and cells[0] == "error":
            rows.append((cells[1], cells[2], cells[3]))
    return rows


def after_first_line(text):
    return text.split("\n", 1)[1] if "\n" in text else ""


def verify(env, plan, inp, answers, name, probed=False):
    """The checks made after the timed part. `probed`: dtbench's own checks
    already ran (its `layers` mode starts with them)."""
    d = inp.dir
    n, f = inp.normal, inp.faulty
    if not probed:
        probe = env.run(["layers", n, f, "--jobs", JOBS, "--seconds", 0, "--work", "probe-verify",
                         "--suspect", plan.suspect], d, program=env.dtbench)
        env.check(probe.code == 0, "dtbench checks: " + probe.err.strip()[-600:])
    unstable = answers.get("unstable", [])
    env.check(not unstable, f"repeated commands give the same answer ({sorted(set(unstable))})")

    rank = answers.get("rank", "")
    env.check(inp.cold_rank == rank and answers.get("rank_cache_warm") == rank,
              "the rank table is identical across the no-cache, cold and warm passes")
    serial = env.run(["rank", n, f, "--jobs", 1], d)
    env.check(serial.out == rank, f"the rank table is identical at jobs 1 and jobs {JOBS}")
    selfrank = env.run(["rank", n, n, "--jobs", JOBS], d)
    rows = [table_cells(line) for line in selfrank.out.splitlines()]
    rows = [c for c in rows if len(c) == 5 and c[2][:1].isdigit()]
    env.check(selfrank.code == 0 and rows and all(c[3] == "" and c[4] == "" for c in rows)
              and "consensus suspicious process: -1" in selfrank.out,
              "rank of a run against itself names no suspect")
    if name == "hybrid_triage":
        m = re.search(r"consensus suspicious process: (-?\d+)", rank)
        env.check(m is not None and int(m.group(1)) == plan.suspect,
                  f"the consensus process is the injected rank {plan.suspect}")

    clean = env.run(["check", n], d)
    env.check(clean.code == 0 and " 0 error(s)" in clean.out, "check is clean on the clean archive")
    errors = table_errors(answers.get("check", ""))
    stall_rules = {"mpi.deadlock-cycle", "mpi.collective-stall"}
    env.check(any(rule in stall_rules for rule, _, _ in errors),
              "check reports a deadlock or collective-stall error on the hang archive")
    env.check(bool(inp.watchdog), "collect's watchdog reported the hang")
    for rule, where, fn in errors:
        rank_of = int(where.split(".")[0]) if where[:1].isdigit() else -1
        if fn != "-":
            # The watchdog names a receive completed by MPI_Wait/MPI_Waitall
            # "MPI_Recv"; check names the call the trace is inside.
            seen = inp.watchdog.get(rank_of)
            env.check(seen == fn or (seen == "MPI_Recv" and fn in ("MPI_Wait", "MPI_Waitall")),
                      f"check's {rule} at {where} in {fn} agrees with the watchdog ({seen})")
    env.check(answers.get("check_auto") == answers.get("check")
              and answers.get("check_warm") == answers.get("check"),
              "check --engine auto (cold and warm cache) equals replay")

    served = answers.get("serve", {})
    expect = {"rank": rank, "diff": answers.get("diffnlr", "")}
    for key, text in expect.items():
        if key in served:
            env.check(served[key] == text, f"serve {key} equals the CLI answer")
    if "check" in served:
        env.check(after_first_line(served["check"]) == after_first_line(answers.get("check", "")),
                  "serve check equals the CLI answer")
    for rank_, it in plan.variants:
        tag = run_tag(rank_, it)
        cli = env.run(["rank", n, tag + ".dtr", "--jobs", JOBS], d)
        env.check(served.get("cold " + tag) == cli.out, f"serve's first rank of {tag} equals the CLI")


# --------------------------------------------------------------------------
# Modes

def median(values):
    return statistics.median(values) if values else float("nan")


def end_to_end(env, plan, inp, setups, cals, seconds, name):
    answers = {}
    samples = {key: [] for key in CLI_OPS}
    samples["cal"] = cals
    share = plan.workload.cli_share
    session = ServeSession(env, plan, inp, answers, seconds * (1 - share))
    # CLI rounds and serve blocks alternate, each block (1 - share) / share
    # times as long as the round before it, so both halves and the
    # calibrations sample the same stretches of the machine's time.
    measured = 0.0
    while True:
        t0 = time.perf_counter()
        cli_round(env, inp, samples, answers)
        round_s = time.perf_counter() - t0
        finish = measured + round_s / share >= seconds
        session.block(round_s * (1 - share) / share, finish=finish)
        measured += time.perf_counter() - t0
        if finish:
            break
        if len(setups) == SETUPS_FIRST and measured >= seconds / 2:
            setups.append(later_setup(env, plan, inp, "setup-mid", cals))
    lat, elapsed = session.lat, session.elapsed
    daemon_kb = inp.daemon.peak_rss_kb()
    inp.daemon.stop()
    rss = peak_rss_mb(env, inp)
    setups.append(later_setup(env, plan, inp, "setup-end", cals))
    log(f"{len(samples['rank'])} CLI rounds, {len(lat['all'])} serve requests in {elapsed:.1f} s")
    t0 = time.perf_counter()
    verify(env, plan, inp, answers, name)
    log(f"checks took {time.perf_counter() - t0:.1f} s")
    times = {
        "rank_ms": median(samples["rank"]),
        "rank_cache_warm_ms": median(samples["rank_cache_warm"]),
        "diffnlr_ms": median(samples["diffnlr"]),
        "check_ms": median(samples["check"]),
        "check_auto_ms": median(samples["check_auto"]),
        "check_warm_ms": median(samples["check_warm"]),
        # Every warm read kind weighs the same: a 2x change in any one of
        # them moves this by 2^(1/3), whatever their sizes.
        "serve_warm_ms": statistics.geometric_mean([median(lat[k]) for k in READ_KINDS]),
    }
    # One calibration takes 55-90 ms from one call to the next; only the
    # median of many follows the machine's slower drift, so every time of
    # the session shares the median of all of them.
    cal = median(samples["cal"])
    scale = CAL_REF_MS / cal
    log("calibrations ms: " + ", ".join(f"{c:.1f}" for c in cals))
    log("set-ups s: " + ", ".join(f"{t:.3f}" for t in setups))
    log(f"calibration {cal:.2f} ms; unscaled: "
        + ", ".join(f"{k} {v:.2f}" for k, v in times.items())
        + f", serve_req_per_s {len(lat['all']) / elapsed:.1f}; not reported: serve_cold_ms "
        + f"{median(lat['cold']):.2f}, serve_ingest_ms "
        + f"{median(lat['ingest']):.2f}, serve_p99_ms {p99(lat['all']):.2f}; warm reads: "
        + ", ".join(f"{k} {median(lat[k]):.2f}" for k in READ_KINDS)
        + "; peak RSS MB: " + ", ".join(f"{k} {v:.1f}" for k, v in rss.items())
        + f", daemon {daemon_kb / 1024.0:.1f}")
    values = {k: v * scale for k, v in times.items()}
    values["setup_s"] = median(setups) * scale
    values["peak_rss_mb"] = max(rss.values())
    values["serve_req_per_s"] = len(lat["all"]) / elapsed / scale
    return {k: {"value": values[k], "unit": unit} for k, unit in END_TO_END}


def layer_metrics(spans_doc):
    """Per-layer metrics from dtbench's spans: per traced round, the self
    time (duration minus children) and work of each span name; then the
    median over rounds."""
    spans = spans_doc["spans"]
    child_ns = [0] * len(spans)
    for s in spans:
        if s["parent"] >= 0:
            child_ns[s["parent"]] += s["end_ns"] - s["start_ns"]
    per_round = {}
    for i, s in enumerate(spans):
        r = per_round.setdefault(s["round"], {})
        slot = r.setdefault(s["name"], {"ms": 0.0, "work": 0.0, "calls": []})
        ms = (s["end_ns"] - s["start_ns"] - child_ns[i]) / 1e6
        slot["ms"] += ms
        slot["work"] += s["work"]
        slot["calls"].append(ms)
    for c in spans_doc["counts"]:
        per_round.setdefault(c["round"], {})[c["name"]] = {"value": c["value"]}
    rounds = list(per_round.values())

    def med(fn):
        return statistics.median(fn(r) for r in rounds)

    def total(name):
        return med(lambda r: r[name]["ms"])

    def rate(name):
        return med(lambda r: r[name]["work"] / (r[name]["ms"] / 1000.0))

    def per_call(name):
        return med(lambda r: statistics.median(r[name]["calls"]))

    traced = statistics.median(spans_doc["traced_round_s"])
    untraced = statistics.median(spans_doc["untraced_round_s"])
    first = rounds[0]
    return {
        "trace.load_ms": total("trace.load"),
        "trace.save_ms": total("trace.save"),
        "compress.decode_events_per_s": rate("compress.decode"),
        "compress.encode_events_per_s": rate("compress.encode"),
        "core.session_ms": total("core.session"),
        "core.nlr_ms": total("core.nlr"),
        "core.nlr_tokens_per_s": rate("core.nlr"),
        "core.evaluate_ms": total("core.evaluate"),
        "core.attributes_ms": total("core.attributes"),
        "core.jsm_ms": total("core.jsm"),
        "core.hclust_ms": total("core.hclust"),
        "core.bscore_ms": total("core.bscore"),
        "core.sweep_ms": total("core.sweep"),
        "core.diffnlr_ms": total("core.diffnlr"),
        "analyze.context_ms": total("analyze.context"),
        "analyze.replay_ms": total("analyze.replay"),
        "analyze.ops_per_s": rate("analyze.replay"),
        "analyze.auto_ms": total("analyze.auto"),
        "analyze.summary_ms": total("analyze.summary"),
        "analyze.summary_exact_ratio": first["analyze.streams_exact"]["value"]
        / max(1.0, first["analyze.streams_summarized"]["value"]),
        "sched.cache_store_ms": med(lambda r: r["sched.cache_cold"]["ms"] - r["core.sweep"]["ms"]),
        "sched.cache_bytes": first["sched.cache_cold"]["work"],
        "sched.cache_lookup_ms": total("sched.cache_warm"),
        "sched.cache_hit_ratio": first["sched.cache_hits"]["value"]
        / max(1.0, first["sched.cache_lookups"]["value"]),
        "sched.pool_speedup": med(lambda r: r["core.sweep_j1"]["ms"] / r["core.sweep"]["ms"]),
        # One call of each warm read kind per round; each weighs the same.
        "serve.handle_warm_ms": med(lambda r: statistics.geometric_mean(r["serve.handle_warm"]["calls"])),
        "serve.handle_cold_ms": per_call("serve.handle_cold"),
        "serve.handle_ingest_ms": per_call("serve.handle_ingest"),
        "probe.trace_overhead_pct": (traced - untraced) / untraced * 100.0,
    }


def traced(env, plan, inp, seconds, name):
    d = inp.dir
    answers = {}
    probe_s = seconds * 0.6
    env.attempted += 1
    probe = env.run(["layers", inp.normal, inp.faulty, "--jobs", JOBS, "--seconds", probe_s,
                     "--work", "probe", "--out", "spans.json", "--suspect", plan.suspect],
                    d, program=env.dtbench)
    if probe.code != 0:
        env.failed += 1
        env.check(False, "dtbench layers: " + probe.err.strip()[-600:])
        inp.daemon.stop()
        return None
    values = layer_metrics(json.loads((d / "spans.json").read_text()))

    session = ServeSession(env, plan, inp, answers, seconds * 0.2)
    session.block(seconds * 0.2, finish=True)
    lat = session.lat
    _, stats = inp.daemon.request({"op": "stats"})
    daemon_kb = inp.daemon.peak_rss_kb()
    inp.daemon.stop()
    hot = stats.get("serve", {})
    hits = hot.get("store_hits", 0) + hot.get("session_hits", 0)
    looks = hits + hot.get("store_misses", 0) + hot.get("session_misses", 0)

    ranks = []
    cli_end = time.perf_counter() + seconds * 0.2
    while True:
        res = env.op(["rank", inp.normal, inp.faulty, "--jobs", JOBS], d)
        ranks.append(res.ms)
        answers.setdefault("rank", res.out)
        if time.perf_counter() >= cli_end:
            break
    answers["diffnlr"] = env.run(["diffnlr", inp.normal, inp.faulty, "--trace", inp.consensus], d).out
    for key, args in (("check", ["check", inp.faulty]), ("check_auto", ["check", "--engine", "auto", inp.faulty]),
                      ("check_warm", ["check", "--engine", "auto", "--cache=check-cache", inp.faulty]),
                      ("rank_cache_warm", ["rank", inp.normal, inp.faulty, "--jobs", JOBS, "--cache=rank-cache"])):
        answers[key] = env.run(args, d).out
    verify(env, plan, inp, answers, name, probed=True)

    info = json.loads(env.run(["info", inp.faulty, "--json"], d).out)
    values.update({
        "trace.archive_bytes": float((d / inp.faulty).stat().st_size),
        "compress.bytes_per_event": info["compressed_bytes"] / max(1, info["events"]),
        "instrument.collect_events_per_s": median(inp.collect_rates),
        "serve.transport_ms": median(lat["transport"]),
        "serve.hot_hit_ratio": hits / max(1, looks),
        "serve.peak_rss_mb": daemon_kb / 1024.0,
        "cli.overhead_ms": median(ranks) - values["trace.load_ms"] - values["core.sweep_ms"],
    })
    return {k: {"value": values[k], "unit": unit} for k, unit in PER_LAYER}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="tiny inputs, for the self-test")
    args = ap.parse_args()

    os.chdir(ROOT)
    try:
        difftrace, dtbench = build()
    except BenchError as e:
        log("perfbench:", e)
        return 2
    env = Env(difftrace, dtbench)
    plan = Plan.make(args.workload, args.seed, args.tiny)
    base = WORK / args.workload
    shutil.rmtree(base, ignore_errors=True)
    settle_disk()
    try:
        cals = []
        inp, setups = set_up_all(env, plan, base, cals)
        if args.trace:
            metrics = traced(env, plan, inp, args.seconds, args.workload)
        else:
            metrics = end_to_end(env, plan, inp, setups, cals, args.seconds, args.workload)
    except BenchError as e:
        log("perfbench:", e)
        return 2
    finally:
        for daemon in DAEMONS:
            daemon.stop()
        # Leave nothing for the next run to write back or discard.
        shutil.rmtree(base, ignore_errors=True)
        settle_disk()
    if metrics is None:
        return 1
    print(json.dumps({"correct": not env.problems, "attempted": env.attempted,
                      "failed": env.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
