"""Span tracing for the traced run, installed from outside the package.

Each public function is wrapped under the name its callers look it up by
(for example `hmstream.sketch.apply`, because sketch.py imports `apply`
from statevector), so every call the workload makes passes the wrapper.
A span records name, start, end, parent span and shot. Spans stay in
memory until `write_spans`. Nothing here is imported by the untraced run.
"""
from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict

_now = time.perf_counter_ns


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.shots: list = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.shot = None  # index of the shot being simulated, None outside shots
        self.outcomes: dict = {}  # shot -> (verdict, step) returned by the shot
        self.reports: dict = {}  # shot -> (verdict, step) sent in RESULT
        self.wire_bytes = 0  # sent + received, frame headers included
        self.next_sends = 0
        self.next_rtt_ns: list[int] = []
        self._next_sent: int | None = None

    # -- recording ----------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.starts)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.shots.append(self.shot)
        self.ends.append(0)
        self._stack.append(idx)
        self.starts.append(_now())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = _now()
        self._stack.pop()

    def _wrap(self, name: str, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _patch_fn(self, owner, attr: str, name: str, after=None) -> None:
        original = owner.__dict__[attr]
        if isinstance(original, classmethod):
            self._patch(owner, attr, classmethod(self._wrap(name, original.__func__, after)))
        else:
            self._patch(owner, attr, self._wrap(name, original, after))

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        from hmstream import (boosting, cli, compiler, instances, resources, runners,
                              sketch, wire)

        tracer = self
        apply_gate = sketch.apply

        def apply(state, op):
            idx = tracer._open("statevector.gate_" + op.kind)
            try:
                return apply_gate(state, op)
            finally:
                tracer._close(idx)

        self._patch(sketch, "apply", apply)
        self._patch_fn(sketch, "measure_and_reset", "statevector.measure")
        self._patch_fn(sketch, "inject_depolarizing", "statevector.noise")
        for attr in ("create", "query_pair", "apply_gate"):
            self._patch_fn(sketch.PairSketch, attr, "sketch." + attr)

        def shot_done(_args, outcome):
            tracer.outcomes[tracer.shot] = (outcome.verdict, outcome.terminating_step)

        self._patch_fn(runners, "run_quantum_shot", "runners.run_quantum_shot", shot_done)
        self._patch_fn(runners, "exact_distribution", "runners.exact_distribution")

        make_rng = cli.shot_rng

        def shot_rng(seed, index):
            tracer.shot = int(index)
            return make_rng(seed, index)

        self._patch(cli, "shot_rng", shot_rng)
        self._patch_fn(cli, "_run_networked_shot", "cli.networked_shot")
        for cmd in ("run", "counts", "vote", "bound", "estimate", "figure2b"):
            self._patch_fn(cli, "cmd_" + cmd, "cli." + cmd)

        for attr in ("generate", "to_stream", "load"):
            self._patch_fn(instances, attr, "instances." + attr)

        self._install_wire(wire)
        for attr in ("logical_counts_hm", "physical_counts_hm"):
            self._patch_fn(compiler, attr, "compiler." + attr)
        for attr in ("vote_success_general", "min_copies_general"):
            self._patch_fn(boosting, attr, "boosting." + attr)
        for attr in ("estimate", "break_even"):
            self._patch_fn(resources, attr, "resources." + attr)

    def _install_wire(self, wire) -> None:
        tracer = self
        send = self._wrap("wire.send_message", wire.send_message)

        def send_message(sock, msg):
            if isinstance(msg, wire.Next):
                tracer.next_sends += 1
                tracer._next_sent = _now()
            return send(sock, msg)

        def encoded(_args, payload):
            tracer.wire_bytes += 4 + len(payload)

        def received(_args, payload):
            if payload is not None:
                tracer.wire_bytes += 4 + len(payload)
            if tracer._next_sent is not None:
                tracer.next_rtt_ns.append(_now() - tracer._next_sent)
                tracer._next_sent = None

        def reported(args, _result):
            tracer.reports[tracer.shot] = (args[1], int(args[2]))

        self._patch(wire, "send_message", send_message)
        self._patch_fn(wire, "read_frame", "wire.read_frame", received)
        self._patch_fn(wire, "encode", "wire.encode", encoded)
        self._patch_fn(wire, "decode", "wire.decode")
        self._patch_fn(wire.StreamSession, "__init__", "wire.session_open")
        self._patch_fn(wire.StreamSession, "report", "wire.report", reported)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output -------------------------------------------------------------

    def summary(self) -> dict:
        """Per-name totals over every span, and span counts within shots."""
        child_ns = [0] * len(self.starts)
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                child_ns[parent] += self.ends[idx] - self.starts[idx]
        spans: dict = defaultdict(lambda: {"count": 0, "ns": 0, "self_ns": 0})
        shot_counts: Counter = Counter()
        for idx, name in enumerate(self.names):
            dur = self.ends[idx] - self.starts[idx]
            entry = spans[name]
            entry["count"] += 1
            entry["ns"] += dur
            entry["self_ns"] += dur - child_ns[idx]
            if self.shots[idx] is not None:
                shot_counts[name] += 1
        shot_name = ("cli.networked_shot" if "cli.networked_shot" in spans
                     else "runners.run_quantum_shot")
        shot_ns = [self.ends[i] - self.starts[i] for i, name in enumerate(self.names)
                   if name == shot_name]
        return {
            "spans": dict(spans),
            "shot_ns": shot_ns,
            "next_rtt_ns": self.next_rtt_ns,
            "shot_counts": dict(shot_counts),
            "wire_bytes": self.wire_bytes,
            "next_sends": self.next_sends,
            "outcomes": [[i, *self.outcomes[i]] for i in sorted(self.outcomes)],
            "reports": [[i, *self.reports[i]] for i in sorted(self.reports)],
        }

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("name\tstart_ns\tend_ns\tparent\tshot\n")
            for idx, name in enumerate(self.names):
                shot = self.shots[idx]
                fh.write(f"{name}\t{self.starts[idx]}\t{self.ends[idx]}\t"
                         f"{self.parents[idx]}\t{'' if shot is None else shot}\n")
