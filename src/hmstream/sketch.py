"""Quantum pair sketch: create / query_one / query_pair / update.

A sketch of width k summarizes a set of k-bit basis states as the uniform
superposition over the set. It lives on k sketch qubits plus two
measurement ancillas (indices k and k+1) that are |0> at every operation
boundary. Elements are basis indices in [0, 2**k): bit i of an element is
the value of qubit i (qubit 0 is the least-significant bit).

query_pair(a, b) realizes the three-outcome measurement onto
(|a> +- |b>)/sqrt(2) and their complement. The compiled circuit, kept as
the gate-level reference `_query_pair_gates`, rotates the pair onto |r>
and |r ^ e_pivot> with one Hadamard and a CX fan, marks those states on
the ancillas with two multi-controlled flags, and undoes the basis change
after the ancilla measurements; per call it costs at most 2 H, 2k CX, 2 X
and 2 (k+1)-qubit multi-controlled X gates. query_pair itself samples the
measurement from amps[a] and amps[b] and writes the collapsed state once.
It draws the same uniforms as the circuit, in the same order: noise
samples are drawn independently of the state, so a query runs gate by
gate, replaying its draws, only when one of them is a fault.

update applies a permutation given as a product of transpositions; each
transposition |a> <-> |b> is the reflection about (|a> - |b>)/sqrt(2),
realized with a Hadamard-conjugated ancilla, a CX fan over the differing
bits and two pattern-matched multi-controlled flips (2 H, <= 2k CX,
2 multi-controlled X).
"""
from __future__ import annotations

import math
import operator
from collections.abc import Iterable
from functools import reduce

import numpy as np

from .errors import DomainError, SimulationError
from .statevector import (
    NORM_TOL,
    GateOp,
    NoiseConfig,
    PvmOutcome,
    QuantumState,
    allocate,
    apply,
    cx,
    h,
    inject_depolarizing,
    measure_and_reset,
    mcx,
    pair_pvm_probabilities,
    x,
)


_INV_SQRT2 = 1.0 / math.sqrt(2.0)


def _check_element(element: int, width: int) -> None:
    if not 0 <= element < 1 << width:
        raise DomainError(f"element {element} outside [0, 2**{width})")


def _pattern(element: int, width: int) -> tuple[tuple[int, int], ...]:
    """(qubit, bit) controls that fire exactly on basis state |element>."""
    return tuple((i, element >> i & 1) for i in range(width))


class _Tape:
    """The uniforms one query draws from a generator, kept for a replay.

    It records every `random()` value; after `rewind()` it hands them back
    in order and then draws live, so the gate-level rerun of a faulted query
    sees exactly the draws the sampled path made.
    """

    __slots__ = ("gen", "values", "pos")

    def __init__(self, gen):
        self.gen = gen
        self.values: list[float] = []
        self.pos: int | None = None

    def random(self) -> float:
        if self.pos is None:
            value = self.gen.random()
            self.values.append(value)
            return value
        if self.pos < len(self.values):
            self.pos += 1
            return self.values[self.pos - 1]
        return self.gen.random()

    def integers(self, *args):
        return self.gen.integers(*args)

    def rewind(self) -> None:
        self.pos = 0


class PairSketch:
    """Single-owner sketch state; operations mutate it in place."""

    def __init__(self, width: int, state: QuantumState, noise: NoiseConfig | None = None,
                 noise_rng=None):
        self.width = width
        self.state = state
        self.anc1 = width
        self.anc2 = width + 1
        self.noise = noise
        self.noise_rng = noise_rng

    # -- construction -------------------------------------------------------

    @classmethod
    def create(cls, width: int, elements: Iterable[int], noise: NoiseConfig | None = None,
               noise_rng=None) -> "PairSketch":
        """Uniform superposition over `elements`, basis indices of `width` bits.

        When the set is a product of free and fixed bit positions (the
        streamed-matching case) the state is prepared with a Hadamard layer
        plus X on fixed-one bits; otherwise the amplitudes are written
        directly, which is general state preparation.
        """
        elems = sorted(set(elements))
        if not elems:
            raise DomainError("cannot summarize an empty set")
        for e in elems:
            _check_element(e, width)
        sketch = cls(width, allocate(width + 2), noise=noise, noise_rng=noise_rng)
        ones = reduce(operator.and_, elems)
        free_mask = reduce(operator.or_, elems) ^ ones
        free = [i for i in range(width) if free_mask >> i & 1]
        if len(elems) == (1 << len(free)):
            for i in range(width):
                if ones >> i & 1:
                    sketch._emit(x(i))
            for i in free:
                sketch._emit(h(i))
        else:
            sketch.state.amps[0] = 0.0  # allocate() starts in |0...0>
            sketch.state.amps[elems] = 1.0 / np.sqrt(len(elems))
        return sketch

    # -- internals ----------------------------------------------------------

    def _noise_p(self) -> float:
        return self.noise.two_qubit_depolarizing_p if self.noise is not None else 0.0

    def _emit(self, op: GateOp, noise_rng=None) -> None:
        """Apply one gate; with noise, each control then depolarizes with the target.

        Noise is drawn from `noise_rng`, by default the sketch's own.
        """
        apply(self.state, op)
        p = self._noise_p()
        if p > 0.0:
            noise_rng = self.noise_rng if noise_rng is None else noise_rng
            for q, _ in op.controls:
                inject_depolarizing(self.state, q, op.target, p, noise_rng)

    def apply_gate(self, op: GateOp) -> None:
        """Emit one gate through the noise hook."""
        self._emit(op)

    def sketch_vector(self) -> np.ndarray:
        """Reduced k-qubit vector; requires both ancillas to be |0>."""
        blocks = self.state.amps.reshape(4, 1 << self.width)
        leak = float(np.sum(np.abs(blocks[1:]) ** 2))
        if leak > 1e-9:
            raise DomainError(f"ancillas are not clean (leak {leak:.2e})")
        return blocks[0].copy()

    def ancillas_clean(self, tol: float = 1e-9) -> bool:
        blocks = self.state.amps.reshape(4, 1 << self.width)
        return float(np.sum(np.abs(blocks[1:]) ** 2)) <= tol

    def _diff_and_pivot(self, a: int, b: int) -> tuple[list[int], int]:
        _check_element(a, self.width)
        _check_element(b, self.width)
        if a == b:
            raise DomainError("elements must differ")
        diff = [i for i in range(self.width) if (a ^ b) >> i & 1]
        return diff, diff[0]

    # -- queries ------------------------------------------------------------

    def pair_probabilities(self, a: int, b: int):
        """(p_plus, p_minus, p_zero) the next query_pair(a, b) would sample."""
        self._diff_and_pivot(a, b)
        return pair_pvm_probabilities(self.state, a, b)

    def query_one(self, a: int, rng) -> bool:
        """Probabilistic membership test: flag |a> on an ancilla and measure.

        True collapses the sketch to |a>; False to the renormalized rest.
        """
        _check_element(a, self.width)
        self._emit(mcx(_pattern(a, self.width), self.anc1))
        return bool(measure_and_reset(self.state, self.anc1, rng))

    def query_pair(self, a: int, b: int, rng) -> PvmOutcome:
        """Three-outcome measurement onto (|a> +- |b>)/sqrt(2).

        The outcome is sampled from amps[a] and amps[b]. If one of the
        query's noise samples is a fault, the query reruns gate by gate on
        the same draws.
        """
        diff, _ = self._diff_and_pivot(a, b)
        fan = len(diff) - 1
        p = self._noise_p()
        if p == 0.0:
            return self._sample_pair(a, b, fan, rng, None, 0.0)
        noise_tape = _Tape(self.noise_rng)
        rng_tape = noise_tape if rng is self.noise_rng else _Tape(rng)
        outcome = self._sample_pair(a, b, fan, rng_tape, noise_tape, p)
        if outcome is None:
            noise_tape.rewind()
            rng_tape.rewind()
            outcome = self._query_pair_gates(a, b, rng_tape, noise_tape)
        return outcome

    def _sample_pair(self, a: int, b: int, fan: int, rng, noise_rng, p: float):
        """query_pair's outcome from amps[a] and amps[b]; None once a fault is drawn.

        It draws what `_query_pair_gates` draws, in the same order: one noise
        sample per CX of the fan and per control of the first flag, the first
        measurement, one per control of the second flag, the second
        measurement, and one per CX of the fan back. The state is written only
        after the last draw, so a faulted query leaves it untouched.
        """
        def clean(samples: int) -> bool:
            return p == 0.0 or all(noise_rng.random() >= p for _ in range(samples))

        amps = self.state.amps
        amp_a, amp_b = complex(amps[a]), complex(amps[b])
        plus = (amp_a + amp_b) * _INV_SQRT2
        minus = (amp_a - amp_b) * _INV_SQRT2
        p_plus, p_minus = abs(plus) ** 2, abs(minus) ** 2
        if p_plus + p_minus > 1.0 + NORM_TOL:
            raise SimulationError(f"pair weight {p_plus + p_minus} exceeds the unit norm")

        if not clean(fan + self.width):
            return None
        if rng.random() < p_plus:
            outcome, amp = PvmOutcome.PLUS, plus
        else:
            rest = max(1.0 - p_plus, 1e-300)
            p_minus /= rest
            if not clean(self.width):
                return None
            outcome, amp = (PvmOutcome.MINUS if rng.random() < p_minus else PvmOutcome.ZERO,
                            minus)
        if not clean(fan):
            return None

        if outcome is PvmOutcome.ZERO:
            amps[a] = amps[b] = 0.0
            amps *= 1.0 / (math.sqrt(rest) * math.sqrt(max(1.0 - p_minus, 1e-300)))
        else:
            amp *= _INV_SQRT2 / abs(amp)
            amps.fill(0.0)
            amps[a] = amp
            amps[b] = amp if outcome is PvmOutcome.PLUS else -amp
        return outcome

    def _query_pair_gates(self, a: int, b: int, rng, noise_rng=None) -> PvmOutcome:
        """query_pair as the compiled circuit, simulated gate by gate.

        The reference for the sampled path and its rerun for faulted queries.
        """
        diff, pivot = self._diff_and_pivot(a, b)
        fan = [cx(pivot, i) for i in diff[1:]]
        controls = _pattern(b if a >> pivot & 1 else a, self.width)

        def emit(op: GateOp) -> None:
            self._emit(op, noise_rng)

        for op in fan:
            emit(op)
        emit(h(pivot))

        def rotate_back() -> None:
            emit(h(pivot))
            for op in reversed(fan):
                emit(op)

        emit(mcx(controls, self.anc1))
        if measure_and_reset(self.state, self.anc1, rng):
            rotate_back()
            return PvmOutcome.PLUS
        emit(x(pivot))
        emit(mcx(controls, self.anc2))
        emit(x(pivot))
        if measure_and_reset(self.state, self.anc2, rng):
            rotate_back()
            return PvmOutcome.MINUS
        rotate_back()
        return PvmOutcome.ZERO

    # -- updates ------------------------------------------------------------

    def update_transposition(self, a: int, b: int) -> "PairSketch":
        """Swap the amplitudes of |a> and |b>, leaving the rest unchanged."""
        diff, _ = self._diff_and_pivot(a, b)
        fan = [cx(self.anc1, i) for i in diff]
        self._emit(h(self.anc1))
        for op in fan:
            self._emit(op)
        self._emit(mcx(_pattern(a, self.width), self.anc1))
        self._emit(mcx(_pattern(b, self.width), self.anc1))
        for op in fan:
            self._emit(op)
        self._emit(h(self.anc1))
        return self

    def update(self, transpositions: Iterable[tuple[int, int]]) -> "PairSketch":
        """Apply a permutation given as transpositions, in list order."""
        for a, b in transpositions:
            self.update_transposition(a, b)
        return self
