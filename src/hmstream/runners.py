"""Sketch shot execution, exact outcome enumeration, and the classical
baseline with its space calculators.

A quantum shot drives one pair sketch through a stream: Hadamard
initialization over vertex and parity qubits, one multi-controlled flip of
the label qubit per 1-labeled vertex, and per edge four pair queries in the
fixed order (0,0), (0,1), (1,0), (1,1). A plus outcome answers yes when
s ^ t ^ z == 0 (else no), a minus outcome aborts with null, and an
exhausted stream yields null.

The exact distribution follows the single zero-outcome branch analytically:
plus/minus outcomes are terminal, so the enumeration is a linear walk that
zeroes the two measured amplitudes at every step and accumulates terminal
leaf probabilities without ever renormalizing.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .compiler import SketchLayout, log2_exact
from .errors import DomainError, StreamOrderError, TransportError
from .instances import EdgeUpdate, EndOfStream, HMInstance, VertexUpdate, to_stream
from .sketch import PairSketch
from .statevector import NoiseConfig, PvmOutcome, mcx, shot_rng

PVM_QUERY_ORDER = ((0, 0), (0, 1), (1, 0), (1, 1))

VERDICT_YES = "yes"
VERDICT_NO = "no"
VERDICT_NULL = "null"


@dataclass(frozen=True)
class SketchOutcome:
    """Outcome of one shot; `correct` is None when the case is unknown or
    the verdict is null."""

    verdict: str
    terminating_step: int
    correct: bool | None = None

    def with_case(self, case: str) -> "SketchOutcome":
        if self.verdict == VERDICT_NULL:
            return SketchOutcome(self.verdict, self.terminating_step, None)
        return SketchOutcome(self.verdict, self.terminating_step, self.verdict == case)


@dataclass(frozen=True)
class OutcomeDistribution:
    p_correct: float
    p_wrong: float
    p_null: float

    def __post_init__(self):
        for name in ("p_correct", "p_wrong", "p_null"):
            object.__setattr__(self, name, float(getattr(self, name)))
        total = self.p_correct + self.p_wrong + self.p_null
        if abs(total - 1.0) > 1e-10:
            raise DomainError(f"outcome probabilities sum to {total}, not 1")

    @property
    def gap(self) -> float:
        return self.p_correct - self.p_wrong


def run_quantum_shot(updates, n: int, rng, noise: NoiseConfig | None = None) -> SketchOutcome:
    """Execute one simulated sketch shot against a stream of updates.

    `updates` yields VertexUpdate/EdgeUpdate/EndOfStream; consumption stops
    at the first terminal measurement, so early termination shortens the
    stream read (the program length is dynamic).
    """
    lay = SketchLayout(log2_exact(n))
    sketch = PairSketch.create(lay.width, lay.elements(), noise=noise, noise_rng=rng)
    step = 0
    edges_seen = False
    for upd in updates:
        if isinstance(upd, VertexUpdate):
            if edges_seen:
                raise StreamOrderError("vertex update arrived after an edge update")
            if not 0 <= upd.v < n:
                raise DomainError(f"vertex id {upd.v} outside [0, {n})")
            if upd.label:
                sketch.apply_gate(mcx(lay.vertex_controls(upd.v), lay.label))
        elif isinstance(upd, EdgeUpdate):
            edges_seen = True
            for s, t in PVM_QUERY_ORDER:
                a = lay.index(upd.u, s, s ^ t)
                b = lay.index(upd.v, t, s ^ t)
                outcome = sketch.query_pair(a, b, rng)
                if outcome is PvmOutcome.PLUS:
                    verdict = VERDICT_YES if (s ^ t ^ upd.label) == 0 else VERDICT_NO
                    return SketchOutcome(verdict, step)
                if outcome is PvmOutcome.MINUS:
                    return SketchOutcome(VERDICT_NULL, step)
                step += 1
        elif isinstance(upd, EndOfStream):
            return SketchOutcome(VERDICT_NULL, step)
        else:
            raise StreamOrderError(f"unexpected stream item {upd!r}")
    raise StreamOrderError("stream ended without an end-of-stream marker")


def exact_distribution(instance: HMInstance) -> OutcomeDistribution:
    """Exact outcome probabilities by walking the zero branch analytically."""
    n = instance.n
    lay = SketchLayout(log2_exact(n))
    amps = np.zeros(1 << lay.width, dtype=np.complex128)
    for v in range(n):
        for b in (0, 1):
            amps[lay.index(v, instance.x[v], b)] = 1.0 / math.sqrt(2 * n)
    p_correct = 0.0
    p_wrong = 0.0
    p_minus = 0.0
    for (u, v), z in zip(instance.edges, instance.z):
        for s, t in PVM_QUERY_ORDER:
            ia = lay.index(u, s, s ^ t)
            ib = lay.index(v, t, s ^ t)
            plus = abs(amps[ia] + amps[ib]) ** 2 / 2.0
            minus = abs(amps[ia] - amps[ib]) ** 2 / 2.0
            verdict = VERDICT_YES if (s ^ t ^ z) == 0 else VERDICT_NO
            if verdict == instance.case:
                p_correct += plus
            else:
                p_wrong += plus
            p_minus += minus
            amps[ia] = 0.0
            amps[ib] = 0.0
    p_null = p_minus + float(np.vdot(amps, amps).real)
    return OutcomeDistribution(p_correct, p_wrong, p_null)


def mixed_state_distribution(n: int, alpha: Fraction) -> OutcomeDistribution:
    """Outcome probabilities when the sketch is the maximally mixed state.

    Each pair query then fires each flag with probability 1/D where D is
    the dimension of the unmeasured remainder, which shrinks by two per
    query; correct and wrong answers are exactly balanced.
    """
    num_queries = 4 * int(Fraction(alpha) * n)
    dim = 1 << SketchLayout(log2_exact(n)).width
    weight = 1.0
    plus_total = 0.0
    for j in range(num_queries):
        d = dim - 2 * j
        plus_total += weight / d
        weight *= 1.0 - 2.0 / d
    return OutcomeDistribution(plus_total / 2.0, plus_total / 2.0, 1.0 - plus_total)


def depolarized_distribution(instance: HMInstance, gamma: float) -> OutcomeDistribution:
    """Global-depolarization heuristic: the pre-measurement state is taken as
    gamma * rho + (1 - gamma) * I / dim, which scales the correct/wrong gap
    by exactly gamma."""
    if not 0.0 <= gamma <= 1.0:
        raise DomainError(f"gamma {gamma} outside [0, 1]")
    ideal = exact_distribution(instance)
    mixed = mixed_state_distribution(instance.n, instance.alpha)
    return OutcomeDistribution(
        gamma * ideal.p_correct + (1 - gamma) * mixed.p_correct,
        gamma * ideal.p_wrong + (1 - gamma) * mixed.p_wrong,
        gamma * ideal.p_null + (1 - gamma) * mixed.p_null,
    )


# ---------------------------------------------------------------------------
# classical baseline


def run_classical_shot(updates, n: int, k: int, rng) -> SketchOutcome:
    """Classical baseline: store the labels of k pre-sampled vertices; answer
    from the first edge with both endpoints stored, else flip a fair coin."""
    if k > n:
        raise DomainError(f"sketch size {k} exceeds vertex count {n}")
    sampled = set(int(v) for v in rng.choice(n, size=k, replace=False)) if k else set()
    labels: dict[int, int] = {}
    step = 0
    for upd in updates:
        if isinstance(upd, VertexUpdate):
            if upd.v in sampled:
                labels[upd.v] = upd.label
        elif isinstance(upd, EdgeUpdate):
            if upd.u in labels and upd.v in labels:
                parity = labels[upd.u] ^ labels[upd.v]
                verdict = VERDICT_YES if parity == upd.label else VERDICT_NO
                return SketchOutcome(verdict, step)
            step += 1
        elif isinstance(upd, EndOfStream):
            verdict = VERDICT_YES if rng.random() < 0.5 else VERDICT_NO
            return SketchOutcome(verdict, step)
    raise StreamOrderError("stream ended without an end-of-stream marker")


def classical_sketch_size(n: int, alpha: Fraction | float) -> int:
    """Vertices the baseline stores for success probability 2/3."""
    if n < 1:
        raise DomainError("vertex count must be positive")
    a = float(alpha)
    if not 0.0 < a <= 0.25:
        raise DomainError(f"alpha {a} outside (0, 1/4]")
    return math.ceil(math.sqrt(math.log(3.0) * n / a))


def classical_lower_bound(n: int, alpha: Fraction | float, epsilon: float = 1.0 / 3.0) -> float:
    """Bits any classical streaming algorithm with worst-case error epsilon
    must store: (1/2 - eps) / (e ln 2) * sqrt((n - 1) / (2 alpha))."""
    if epsilon >= 0.5:
        raise DomainError(f"error bound {epsilon} must be below 1/2")
    a = float(alpha)
    if not 0.0 < a <= 0.25:
        raise DomainError(f"alpha {a} outside (0, 1/4]")
    return (0.5 - epsilon) / (math.e * math.log(2.0)) * math.sqrt((n - 1) / (2.0 * a))


def collision_bound(n: int, alpha: Fraction | float, k: int) -> float:
    """Upper bound on the probability that a random k-subset misses every
    matching edge: exp(-alpha k^2 / n)."""
    if k > n or k < 0:
        raise DomainError(f"subset size {k} outside [0, {n}]")
    return math.exp(-float(alpha) * k * k / n)


# ---------------------------------------------------------------------------
# shot aggregation


def wilson_interval(successes: int, trials: int, z: float = 1.959964) -> tuple[float, float]:
    """Wilson 95% score interval for a binomial proportion."""
    if trials == 0:
        return (0.0, 1.0)
    phat = successes / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


@dataclass
class ShotStats:
    shots: int
    counts: dict[str, int]
    aborted: int = 0
    wall_seconds: float = 0.0

    @classmethod
    def from_outcomes(cls, outcomes, wall_seconds: float = 0.0, aborted: int = 0) -> "ShotStats":
        counts = {VERDICT_YES: 0, VERDICT_NO: 0, VERDICT_NULL: 0}
        for o in outcomes:
            counts[o.verdict] += 1
        return cls(shots=sum(counts.values()), counts=counts, aborted=aborted,
                   wall_seconds=wall_seconds)

    def proportions(self, case: str) -> dict[str, dict]:
        """Point estimates and Wilson intervals keyed correct/wrong/null."""
        wrong_case = VERDICT_NO if case == VERDICT_YES else VERDICT_YES
        out = {}
        for name, count in (
            ("correct", self.counts[case]),
            ("wrong", self.counts[wrong_case]),
            ("null", self.counts[VERDICT_NULL]),
        ):
            lo, hi = wilson_interval(count, self.shots)
            out[name] = {"estimate": count / self.shots if self.shots else 0.0,
                         "wilson95": [lo, hi]}
        return out


def run_shots(shot, shots: int) -> ShotStats:
    """Run shot(0) .. shot(shots - 1) in order and tally their outcomes.

    A shot that raises TransportError is aborted and counted, not retried;
    the run fails only when every shot aborts.
    """
    if shots < 1:
        raise DomainError("shot count must be >= 1")
    outcomes = []
    aborted = 0
    last_error: TransportError | None = None
    start = time.perf_counter()
    for i in range(shots):
        try:
            outcomes.append(shot(i))
        except TransportError as exc:
            aborted += 1
            last_error = exc
    wall = time.perf_counter() - start
    if not outcomes:
        raise TransportError(f"every shot aborted; last: {last_error}")
    return ShotStats.from_outcomes(outcomes, wall_seconds=wall, aborted=aborted)


def run_local_shots(instance: HMInstance, shots: int, seed: int,
                    noise: NoiseConfig | None = None) -> ShotStats:
    """Run seeded, independent in-process shots over the instance stream."""
    stream = to_stream(instance)
    return run_shots(lambda i: run_quantum_shot(iter(stream), instance.n, shot_rng(seed, i),
                                                noise=noise), shots)
