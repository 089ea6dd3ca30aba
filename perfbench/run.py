"""hmstream benchmark: one command, four workloads, checked outputs.

    python3 perfbench/run.py --workload local-n256 --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout (the package is imported from
./src). With --trace 0 it prints the end-to-end metrics, with --trace 1 the
per-layer metrics from a traced run plus the tracing overhead. The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
The exit code is 1 when a correctness check fails, 2 on bad usage or a
checkout without the package. README.md defines every metric.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import selectors
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from common import ALPHA, UNBOUNDED_ROW_K_MAX, WORKLOADS, derive_seed, instance_case

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5  # set-ups timed per run; setup_s is their median
RUN_DEADLINE_S = 170.0

LIMITS = [
    "loopback only: the tcp-n32 client and server share this host",
    "one CPU: the worker and the server are pinned to the same CPU of this run's "
    "affinity set, so cross-CPU wake-ups do not add to the measured time",
    "no system-wide tracing: spans come from wrappers inside the worker process; "
    "the server is read from its session log and /proc/<pid>/status",
    "Tier-1 wall time is not a workload: one pytest run takes about 145 s, "
    "longer than a benchmark run may take",
    "--jobs scaling is not a workload: shot threads are bound by the GIL on a "
    "2-core host, and the flag may be removed",
]


class BenchError(Exception):
    """The benchmark could not complete a run; no result is printed."""


# ---------------------------------------------------------------------------
# processes


class LineReader:
    """Reads lines from a child's stdout pipe with a deadline."""

    def __init__(self, proc: subprocess.Popen, what: str):
        self.proc = proc
        self.what = what
        self.buf = b""
        self.sel = selectors.DefaultSelector()
        self.sel.register(proc.stdout, selectors.EVENT_READ)

    def readline(self, deadline: float) -> str | None:
        """Next line, or None at end of file."""
        while b"\n" not in self.buf:
            left = deadline - time.monotonic()
            if left <= 0:
                raise BenchError(f"{self.what}: no output before the deadline")
            if not self.sel.select(timeout=left):
                continue
            chunk = os.read(self.proc.stdout.fileno(), 1 << 16)
            if not chunk:
                if self.buf:
                    line, self.buf = self.buf, b""
                    return line.decode()
                return None
            self.buf += chunk
        line, _, self.buf = self.buf.partition(b"\n")
        return line.decode()

    def close(self) -> None:
        self.sel.close()


def _stop(proc: subprocess.Popen | None) -> None:
    """Kill a child that is still running and wait until it has ended."""
    if proc is None:
        return
    if proc.poll() is None:
        proc.kill()
    proc.wait()
    if proc.stdout is not None:
        proc.stdout.close()


def _proc_status(pid: int) -> dict:
    fields = {}
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        key, _, value = line.partition(":")
        if key in ("VmHWM", "Threads"):
            fields[key] = int(value.split()[0])
    return {"vmhwm_mb": fields["VmHWM"] / 1024.0, "threads": fields["Threads"]}


def _port_closed(endpoint: str) -> bool:
    host, _, port = endpoint.rpartition(":")
    try:
        socket.create_connection((host, int(port)), timeout=2.0).close()
    except OSError:
        return True
    return False


class Bench:
    def __init__(self, workload: str, seed: int, out_dir: Path):
        self.name = workload
        self.spec = WORKLOADS[workload]
        self.seed = seed
        self.out_dir = out_dir
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        self.stamp: dict = {}
        self.notes: list[str] = []
        self.children: list[subprocess.Popen] = []
        self.cpu = min(os.sched_getaffinity(0))

    def _pin(self) -> None:
        # Every process of a run shares one CPU: on a virtual machine a
        # wake-up sent to another vCPU can stall for milliseconds, which
        # would swamp a loopback round trip of about 100 us. Where the
        # affinity cannot be set, the run goes on unpinned.
        try:
            os.sched_setaffinity(0, {self.cpu})
        except OSError:
            pass

    def _spawn(self, argv: list[str], errlog: Path) -> subprocess.Popen:
        with errlog.open("w") as err:
            proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err, cwd=ROOT,
                                    env=self.env, preexec_fn=self._pin)
        self.children.append(proc)
        return proc

    def stop_all(self) -> None:
        for proc in self.children:
            _stop(proc)

    # -- one round ------------------------------------------------------------

    def _start_server(self, phase: str, r: int) -> dict:
        log = self.out_dir / f"sessions-{phase}-{r}.jsonl"
        argv = [sys.executable, "-m", "hmstream.cli", "serve", "--n", str(self.spec["n"]),
                "--alpha", ALPHA, "--case", instance_case(r),
                "--seed", str(derive_seed(self.seed, "instance", r)), "--log", str(log)]
        start = time.perf_counter()
        proc = self._spawn(argv, self.out_dir / f"server-{phase}-{r}.err")
        reader = LineReader(proc, "hmstream serve")
        line = reader.readline(min(self.deadline, time.monotonic() + 60))
        setup = time.perf_counter() - start
        if not line or not line.startswith("serving ") or " on " not in line:
            raise BenchError(f"hmstream serve did not start: {line!r}")
        return {"proc": proc, "reader": reader, "log": log, "setup_s": setup,
                "endpoint": line.rsplit(" on ", 1)[1].strip()}

    def _stop_server(self, server: dict, sessions: int) -> dict:
        proc, reader = server["proc"], server["reader"]
        status = _proc_status(proc.pid)
        proc.send_signal(signal.SIGTERM)
        lines = []
        while (line := reader.readline(min(self.deadline, time.monotonic() + 30))) is not None:
            lines.append(line)
        reader.close()
        rc = proc.wait(timeout=30)
        _stop(proc)
        log = server["log"]
        entries = ([json.loads(x) for x in log.read_text().splitlines()]
                   if log.exists() else [])
        return {**status, "rc": rc, "tail": lines, "expected_sessions": sessions,
                "served_line_ok": f"served {sessions} sessions" in lines,
                "port_closed": _port_closed(server["endpoint"]), "log": entries,
                "endpoint": server["endpoint"]}

    def _round(self, phase: str, r: int, work: bool, trace: bool) -> dict:
        server = self._start_server(phase, r) if self.spec.get("mode") == "tcp" else None
        spec = {"root": str(ROOT), "workload": self.name, "seed": self.seed, "round": r,
                "phase": phase, "work": work, "trace": trace,
                "out_dir": str(self.out_dir),
                "endpoint": server["endpoint"] if server else None}
        start = time.perf_counter()
        proc = self._spawn([sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
                           self.out_dir / f"worker-{phase}-{r}.err")
        reader = LineReader(proc, "worker")
        ready = reader.readline(min(self.deadline, time.monotonic() + 60))
        setup = time.perf_counter() - start
        if not ready or not ready.startswith("READY "):
            _stop(proc)
            err = (self.out_dir / f"worker-{phase}-{r}.err").read_text()[-2000:]
            raise BenchError(f"worker failed during set-up: {ready!r}\n{err}")
        self.stamp.update(json.loads(ready[6:]))
        line = reader.readline(self.deadline)
        reader.close()
        rc = proc.wait(timeout=30)
        _stop(proc)
        if rc != 0 or not line or not line.startswith("RESULT "):
            err = (self.out_dir / f"worker-{phase}-{r}.err").read_text()[-2000:]
            raise BenchError(f"worker exited {rc} without a result\n{err}")
        result = json.loads(line[7:])
        out = {"round": r, "setup_s": setup, "worker": result, "server": None}
        if server is not None:
            opened = sum(u["shots"] for u in result["units"])
            out["server"] = self._stop_server(server, opened)
            out["setup_s"] += server["setup_s"]
        return out

    def phase(self, name: str, budget_s: float, trace: bool, work_rounds: int | None = None,
              setups: int = SETUP_SAMPLES) -> list[dict]:
        """Work rounds until budget_s of work is measured (or exactly
        `work_rounds` of them), then set-up-only rounds up to `setups` rounds."""
        rounds = []
        measured = 0.0
        while True:
            if work_rounds is None:
                work = measured < budget_s
            else:
                work = len(rounds) < work_rounds
            if not work and len(rounds) >= setups:
                return rounds
            rnd = self._round(name, len(rounds), work, trace)
            measured += sum(u["wall_s"] for u in rnd["worker"]["units"])
            rounds.append(rnd)


# ---------------------------------------------------------------------------
# metrics and checks


def _median(values):
    return statistics.median(values) if values else 0.0


def _tail(values):
    """(value, percentile rank, samples): the highest percentile with at
    least ten samples beyond it, or None with fewer than eleven samples."""
    if len(values) < 11:
        return None
    ordered = sorted(values)
    n = len(ordered)
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def _units(rounds):
    return [u for rnd in rounds for u in rnd["worker"]["units"]]


def throughput(bench: Bench, rounds) -> float:
    """Completed shots, or table passes, per second of summed call time.

    A ratio of sums rather than a median of units: the host switches
    between a slow and a fast speed, and a median of a few units jumps
    between the two where a mean moves in proportion to the time spent in
    each."""
    units = _units(rounds)
    done = (sum(u["completed"] for u in units) if bench.spec["kind"] == "shots"
            else len(units))
    return done / sum(u["wall_s"] for u in units)


def attempts(bench: Bench, rounds) -> tuple[int, int]:
    """(attempted, failed): shots or table commands; aborted shots and
    non-zero exits are failures."""
    units = _units(rounds)
    if bench.spec["kind"] == "shots":
        attempted = sum(u["shots"] for u in units)
        failed = sum(u["aborted"] if u["rc"] == 0 else u["shots"] for u in units)
    else:
        commands = [c for u in units for c in u["commands"]]
        attempted = len(commands)
        failed = sum(c["rc"] != 0 for c in commands)
    return attempted, failed


def end_to_end(bench: Bench, rounds) -> dict:
    work = [rnd for rnd in rounds if rnd["worker"]["units"]]
    peak = [rnd["worker"]["peak_rss_mb"] for rnd in work]
    total = [rnd["worker"]["peak_rss_mb"] + (rnd["server"]["vmhwm_mb"] if rnd["server"] else 0)
             for rnd in work]
    return {
        "ops_per_s": (throughput(bench, rounds), "1/s"),
        "setup_s": (_median([rnd["setup_s"] for rnd in rounds]), "s"),
        "peak_rss_mb": (_median(peak), "MB"),
        "total_rss_mb": (_median(total), "MB"),
    }


def digest(outcomes: list) -> dict:
    """Verdict counts and terminating-step histogram of the digest call."""
    body = {"shots": len(outcomes),
            "verdicts": dict(sorted(Counter(o[1] for o in outcomes).items())),
            "steps": {str(k): v for k, v in sorted(Counter(o[2] for o in outcomes).items())}}
    body["sha256"] = hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()
    return body


def _same_counts(outcomes, counts: dict) -> bool:
    got = Counter(o[1] for o in outcomes)
    return all(got[v] == counts[v] for v in ("yes", "no", "null"))


def check_shots(bench: Bench, rounds, checks: list) -> None:
    work = [rnd for rnd in rounds if rnd["worker"]["units"]]
    done = [(rnd, rnd["worker"]["units"][0]) for rnd in work
            if rnd["worker"]["units"][0]["counts"] is not None]
    if bench.spec["noise_p"] == 0.0:
        # Pooled over calls: each call is a binomial sample of its instance's
        # exact distribution; the sum must lie within 4 sigma of its mean.
        for verdict in ("correct", "wrong", "null"):
            obs = mean = var = 0.0
            for rnd, unit in done:
                case = rnd["worker"]["case"]
                key = {"correct": case, "wrong": "no" if case == "yes" else "yes",
                       "null": "null"}[verdict]
                p = rnd["worker"]["exact"]["p_" + verdict]
                obs += unit["counts"][key]
                mean += unit["completed"] * p
                var += unit["completed"] * p * (1 - p)
            sigma = math.sqrt(var)
            checks.append((f"{verdict} verdicts within 4 sigma of exact_distribution",
                           abs(obs - mean) <= 4 * sigma,
                           f"observed {obs:.0f}, expected {mean:.1f} +- {sigma:.1f}"))
    first = rounds[0]["worker"]
    if "replay" in first and first["units"][0]["counts"] is not None:
        checks.append(("digest call replays to the counts hmstream run reported",
                       _same_counts(first["replay"], first["units"][0]["counts"]),
                       f"run {first['units'][0]['counts']}"))
    servers = [rnd for rnd in rounds if rnd["server"] is not None]
    if not servers:
        return
    bad = [f"round {rnd['round']}: rc {rnd['server']['rc']}, output {rnd['server']['tail']}"
           for rnd in servers if rnd["server"]["rc"] != 0 or not rnd["server"]["served_line_ok"]]
    checks.append(("serve exits 0 and reports 'served N sessions' for the N opened",
                   not bad, "; ".join(bad) or f"{len(servers)} servers"))
    bad = [rnd["server"]["endpoint"] for rnd in servers if not rnd["server"]["port_closed"]]
    checks.append(("every server port is released", not bad, " ".join(bad) or "all closed"))
    bad, compared = [], 0
    for rnd in servers:
        server, units = rnd["server"], rnd["worker"]["units"]
        log = sorted(server["log"], key=lambda e: e["session_id"])
        logged = [[e["session_id"], e["result"]["outcome"], e["result"]["terminating_step"]]
                  for e in log if e["result"] is not None]
        if [e["session_id"] for e in log] != list(range(server["expected_sessions"])) \
                or len(logged) != len(log):
            bad.append(f"round {rnd['round']}: {len(log)} sessions, {len(logged)} with a "
                       f"result, {server['expected_sessions']} shots")
        elif units and units[0]["counts"] is not None and not _same_counts(logged, units[0]["counts"]):
            bad.append(f"round {rnd['round']}: logged verdicts differ from the run's counts")
        reference = rnd["worker"].get("replay") or rnd["worker"].get("trace", {}).get("reports")
        if reference:
            compared += len(reference)
            if reference != logged:
                bad.append(f"round {rnd['round']}: logged outcome or step differs from the client's")
    checks.append(("the server log holds one session per shot, with the client's verdict "
                   "and step", not bad, "; ".join(bad) or f"{compared} sessions compared "
                                                        "shot by shot"))


def check_tables(rounds, checks: list) -> None:
    units = _units(rounds)
    first = units[0]["commands"]

    def out(*words):
        """Output of the first table command whose argv holds every word."""
        return next(c for c in first if all(w in c["argv"] for w in words))["stdout"]

    vote = out("vote", "--k-list").splitlines()[0]
    checks.append(("vote: 5 copies at alpha=1/4", vote.endswith("min_copies=5"), vote))
    rows = [line.split(",") for line in out("figure2b", "--n-list").splitlines()[1:]]
    ones = [row for row in rows if float(row[1]) == 1.0]
    checks.append(("figure2b: 5 copies on every gamma=1.0 row",
                   len(ones) == 9 and all(row[5] == "5" for row in ones),
                   f"{len(ones)} rows, copies {sorted({row[5] for row in ones})}"))
    crossing = out("estimate", "two-gross").strip().splitlines()[-1]
    checks.append(("estimate: two-gross crossing at n=1e12", crossing.endswith("n=1e+12"),
                   crossing))
    unbounded = out("figure2b", "--k-max").splitlines()[1].split(",")
    checks.append(("figure2b: gamma=0 row is unbounded at the capped --k-max",
                   unbounded[5] == "unbounded", ",".join(unbounded)))
    same = all(c["sha256"] == ref["sha256"]
               for u in units for c, ref in zip(u["commands"], first))
    checks.append(("every pass prints the same tables", same, f"{len(units)} passes"))


# ---------------------------------------------------------------------------
# traced run


def per_layer(bench: Bench, untraced, traced, checks: list) -> dict:
    spans: dict = {}
    shot_ns, rtt_ns = [], []
    for rnd in traced:
        tr = rnd["worker"]["trace"]
        for name, entry in tr["spans"].items():
            acc = spans.setdefault(name, {"count": 0, "ns": 0, "self_ns": 0})
            for key in acc:
                acc[key] += entry[key]
        shot_ns += tr["shot_ns"]
        rtt_ns += tr["next_rtt_ns"]
    # Per-shot counts come from round 0 alone (the digest call), whose shots
    # are fixed by the seed, so they repeat exactly across runs.
    first = traced[0]["worker"]["trace"]
    digest_shots = first["outcomes"]
    shots = len(digest_shots)
    per_shot = {name: n / shots for name, n in first["shot_counts"].items()} if shots else {}
    units = len(_units(traced))

    def count(name):
        return spans.get(name, {}).get("count", 0)

    def mean(name, scale, key="ns"):
        return spans[name][key] / spans[name]["count"] / scale if count(name) else 0.0

    def p50(values, scale):
        return _median(values) / scale if values else 0.0

    def tail(values, scale, label):
        t = _tail(values)
        if t is None:
            if values:
                bench.notes.append(f"{label}: {len(values)} samples, too few for a tail; 0")
            return 0.0
        bench.notes.append(f"{label}: p{t[1]:.1f} of {t[2]} samples")
        return t[0] / scale

    gate_names = [n for n in spans if n.startswith("statevector.gate_")]
    gates = sum(per_shot.get(n, 0.0) for n in gate_names)
    measures = per_shot.get("statevector.measure", 0.0)
    passes = gates + measures
    width = bench.spec["n"].bit_length() - 1 + 4 if bench.spec["kind"] == "shots" else 0
    servers = [rnd["server"] for rnd in traced if rnd["server"]]
    session_ms = [e["wall_ms"] for s in servers for e in s["log"]]
    transport_ns = (spans.get("wire.session_open", {}).get("ns", 0) + sum(rtt_ns)
                    + spans.get("wire.report", {}).get("ns", 0))
    networked_ns = spans.get("cli.networked_shot", {}).get("ns", 0)
    codec = [spans.get(n, {"count": 0, "ns": 0}) for n in ("wire.encode", "wire.decode")]
    codec_calls = sum(c["count"] for c in codec)
    untraced_rate, traced_rate = throughput(bench, untraced), throughput(bench, traced)
    bench.notes.append(f"tracing overhead: {untraced_rate:.4g} ops/s untraced, "
                       f"{traced_rate:.4g} ops/s traced, on the same rounds and seeds")
    if width:
        bench.notes.append("statevector.bytes_per_shot_computed is computed as passes x "
                           f"16 B x 2^{width}, not measured")
    m = {
        "statevector.gate.calls_per_shot": (gates, "count"),
        "statevector.gate_h.us": (mean("statevector.gate_h", 1e3), "us"),
        "statevector.gate_x.us": (mean("statevector.gate_x", 1e3), "us"),
        "statevector.gate_cx.us": (mean("statevector.gate_cx", 1e3), "us"),
        "statevector.gate_mcx.us": (mean("statevector.gate_mcx", 1e3), "us"),
        "statevector.measure.calls_per_shot": (measures, "count"),
        "statevector.measure.us": (mean("statevector.measure", 1e3), "us"),
        "statevector.noise.calls_per_shot": (per_shot.get("statevector.noise", 0.0), "count"),
        "statevector.noise.us": (mean("statevector.noise", 1e3), "us"),
        "statevector.passes_per_shot": (passes, "count"),
        "statevector.bytes_per_shot_computed": (passes * 16 * (1 << width) if width else 0.0, "B"),
        "sketch.create.us": (mean("sketch.create", 1e3), "us"),
        "sketch.query_pair.calls_per_shot": (per_shot.get("sketch.query_pair", 0.0), "count"),
        "sketch.query_pair.us": (mean("sketch.query_pair", 1e3), "us"),
        "sketch.query_pair.self_us": (mean("sketch.query_pair", 1e3, "self_ns"), "us"),
        "sketch.apply_gate.calls_per_shot": (per_shot.get("sketch.apply_gate", 0.0), "count"),
        "sketch.apply_gate.us": (mean("sketch.apply_gate", 1e3), "us"),
        "runners.shot_ms.p50": (p50(shot_ns, 1e6), "ms"),
        "runners.shot_ms.tail": (tail(shot_ns, 1e6, "runners.shot_ms.tail"), "ms"),
        "runners.shot.self_ms": (mean("runners.run_quantum_shot", 1e6, "self_ns"), "ms"),
        "runners.steps_per_shot": (sum(o[2] for o in digest_shots) / shots if shots else 0.0,
                                   "count"),
        "runners.exact_distribution.ms": (mean("runners.exact_distribution", 1e6), "ms"),
        "instances.generate.ms": (mean("instances.generate", 1e6), "ms"),
        "instances.to_stream.ms": (mean("instances.to_stream", 1e6), "ms"),
        "wire.session_open_ms": (mean("wire.session_open", 1e6), "ms"),
        "wire.next_us.p50": (p50(rtt_ns, 1e3), "us"),
        "wire.next_us.tail": (tail(rtt_ns, 1e3, "wire.next_us.tail"), "us"),
        "wire.next.calls_per_shot": (first["next_sends"] / shots if shots else 0.0,
                                     "count"),
        "wire.frames_per_shot": (per_shot.get("wire.send_message", 0.0)
                                 + per_shot.get("wire.read_frame", 0.0), "count"),
        "wire.bytes_per_shot": (first["wire_bytes"] / shots if shots else 0.0, "B"),
        "wire.codec_us": (sum(c["ns"] for c in codec) / codec_calls / 1e3
                          if codec_calls else 0.0, "us"),
        "wire.report_us": (mean("wire.report", 1e3), "us"),
        "wire.transport_share": (transport_ns / networked_ns if networked_ns else 0.0, "ratio"),
        "wire.server_session_ms.p50": (p50(session_ms, 1.0), "ms"),
        "wire.server_threads": (max((s["threads"] for s in servers), default=0), "count"),
        "wire.server_rss_mb": (_median([s["vmhwm_mb"] for s in servers]), "MB"),
        "cli.run.self_ms": (mean("cli.run", 1e6, "self_ns"), "ms"),
        "cli.counts.ms": (mean("cli.counts", 1e6), "ms"),
        "cli.vote.ms": (mean("cli.vote", 1e6), "ms"),
        "cli.bound.ms": (mean("cli.bound", 1e6), "ms"),
        "cli.estimate.ms": (mean("cli.estimate", 1e6), "ms"),
        "cli.figure2b.ms": (mean("cli.figure2b", 1e6), "ms"),
        "compiler.logical_counts_hm.ms": (mean("compiler.logical_counts_hm", 1e6), "ms"),
        "compiler.physical_counts_hm.ms": (mean("compiler.physical_counts_hm", 1e6), "ms"),
        "boosting.vote_success_general.calls": (count("boosting.vote_success_general") / units
                                                if units else 0.0, "count"),
        "boosting.vote_success_general.ms": (mean("boosting.vote_success_general", 1e6), "ms"),
        "boosting.min_copies_general.ms": (mean("boosting.min_copies_general", 1e6), "ms"),
        "resources.estimate.us": (mean("resources.estimate", 1e3), "us"),
        "resources.break_even.ms": (mean("resources.break_even", 1e6), "ms"),
        "trace.overhead_frac": (1.0 - traced_rate / untraced_rate if untraced_rate else 0.0,
                                "ratio"),
    }
    if bench.spec["kind"] == "shots":
        wire_calls = sum(count(n) for n in spans if n.startswith("wire."))
        if bench.spec["mode"] == "local":
            checks.append(("traced: wire is bypassed", wire_calls == 0,
                           f"{wire_calls} wire calls"))
        if bench.spec["noise_p"] == 0.0:
            noise = count("statevector.noise")
            checks.append(("traced: no noise injections", noise == 0, f"{noise} calls"))
        boosting = sum(count(n) for n in spans if n.startswith("boosting."))
        checks.append(("traced: boosting is bypassed", boosting == 0, f"{boosting} calls"))
        replay = untraced[0]["worker"].get("replay")
        checks.append(("traced digest call equals the untraced replay",
                       replay == digest_shots, f"{len(digest_shots)} shots"))
    return m


# ---------------------------------------------------------------------------
# main


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def _commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown (git unavailable)"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "hmstream" / "cli.py").is_file():
        print(f"no hmstream source tree under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    out_dir = ROOT / ".perfbench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)

    bench = Bench(args.workload, args.seed, out_dir)
    checks: list = []
    try:
        if args.trace:
            untraced = bench.phase("untraced", args.seconds / 2, trace=False, setups=0)
            traced = bench.phase("traced", 0.0, trace=True, work_rounds=len(untraced), setups=0)
            rounds = untraced + traced
        else:
            rounds = bench.phase("untraced", args.seconds, trace=False)
        if bench.spec["kind"] == "shots":
            check_shots(bench, rounds, checks)
        else:
            check_tables(rounds, checks)
        if args.trace:
            metrics = per_layer(bench, untraced, traced, checks)
        else:
            metrics = end_to_end(bench, rounds)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    finally:
        bench.stop_all()

    (out_dir / "rounds.json").write_text(json.dumps(rounds))
    attempted, failed = attempts(bench, rounds)
    e2e_rounds = untraced if args.trace else rounds
    work_units = _units(e2e_rounds)
    print(f"# hmstream benchmark  workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"# env: nproc={os.cpu_count()} affinity={len(os.sched_getaffinity(0))} "
          f"python={bench.stamp.get('python')} numpy={bench.stamp.get('numpy')} "
          f"host={platform.machine()} commit={_commit()} src_sha256={_src_digest()}")
    print(f"# closed loop, one client, "
          + ("sequential shots (--jobs 1), " if bench.spec["kind"] == "shots" else "")
          + f"alpha={ALPHA}; {len(rounds)} rounds, {len(work_units)} measured")
    for line in LIMITS:
        print(f"# limit: {line}")
    if bench.spec["kind"] == "shots":
        print(f"# shots_per_s = {throughput(bench, e2e_rounds):.6g} over "
              f"{sum(u['wall_s'] for u in work_units):.3f} s of `hmstream run` calls "
              f"({bench.spec['shots_per_call']} shots per call)")
        first = rounds[0]["worker"]
        d = digest(first["replay"] if "replay" in first else first["trace"]["outcomes"])
        print(f"# digest (first call, {d['shots']} shots): verdicts={d['verdicts']} "
              f"steps={d['steps']} sha256={d['sha256']}")
    else:
        walls = [u["wall_s"] for u in work_units]
        print(f"# analysis_s = {sum(walls) / len(walls):.6g} (mean of {len(walls)} passes); "
              f"the gamma=0 figure2b row runs at --k-max {UNBOUNDED_ROW_K_MAX} because "
              f"the default 2001 runs for minutes and then raises OverflowError")
        combined = hashlib.sha256("".join(c["sha256"] for c in work_units[0]["commands"])
                                  .encode()).hexdigest()
        print(f"# digest (table outputs of one pass): sha256={combined}")
        for c in work_units[0]["commands"]:
            print(f"#   rc={c['rc']} {c['wall_s'] * 1e3:9.2f} ms  hmstream {' '.join(c['argv'])}"
                  + (f"  [failed: {c['stderr'].strip()}]" if c["rc"] else ""))
    print(f"# failed_frac = {failed}/{attempted} (aborted shots and non-zero exits)")
    servers = [rnd["server"] for rnd in e2e_rounds if rnd["server"] and rnd["worker"]["units"]]
    if servers:
        print(f"# server_rss_mb = {_median([s['vmhwm_mb'] for s in servers]):.6g} "
              f"(VmHWM of hmstream serve, median of {len(servers)} servers)")
    for note in bench.notes:
        print(f"# note: {note}")
    correct = all(ok for _, ok, _ in checks)
    for name, ok, detail in checks:
        print(f"# check {'PASS' if ok else 'FAIL'}: {name} ({detail})")
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:14.6g} {unit}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
