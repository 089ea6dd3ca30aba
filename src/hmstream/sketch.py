"""Quantum pair sketch: create / query_one / query_pair / update.

A sketch of width k summarizes a set of k-bit basis states as the uniform
superposition over the set. It lives on k sketch qubits plus two
measurement ancillas (indices k and k+1) that are |0> at every operation
boundary. Elements are basis indices in [0, 2**k): bit i of an element is
the value of qubit i (qubit 0 is the least-significant bit).

query_pair(a, b) realizes the three-outcome measurement onto
(|a> +- |b>)/sqrt(2) and their complement: a basis change built from one
Hadamard and a CX fan rotates the pair onto |r> and |r ^ e_pivot>, two
multi-controlled flags mark those states on the ancillas, and the basis
change is undone after the ancilla measurements. Per call this costs at
most 2 H, 2k CX, 2 X and 2 (k+1)-qubit multi-controlled X gates.

update applies a permutation given as a product of transpositions; each
transposition |a> <-> |b> is the reflection about (|a> - |b>)/sqrt(2),
realized with a Hadamard-conjugated ancilla, a CX fan over the differing
bits and two pattern-matched multi-controlled flips (2 H, <= 2k CX,
2 multi-controlled X).
"""
from __future__ import annotations

import operator
from collections.abc import Iterable
from functools import reduce

import numpy as np

from .errors import DomainError
from .statevector import (
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


def _check_element(element: int, width: int) -> None:
    if not 0 <= element < 1 << width:
        raise DomainError(f"element {element} outside [0, 2**{width})")


def _pattern(element: int, width: int) -> tuple[tuple[int, int], ...]:
    """(qubit, bit) controls that fire exactly on basis state |element>."""
    return tuple((i, element >> i & 1) for i in range(width))


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

    def _emit(self, op: GateOp) -> None:
        """Apply one gate; with noise, each control then depolarizes with the target."""
        apply(self.state, op)
        if self.noise is not None and self.noise.two_qubit_depolarizing_p > 0.0:
            p = self.noise.two_qubit_depolarizing_p
            for q, _ in op.controls:
                inject_depolarizing(self.state, q, op.target, p, self.noise_rng)

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
        """Three-outcome measurement onto (|a> +- |b>)/sqrt(2)."""
        diff, pivot = self._diff_and_pivot(a, b)
        fan = [cx(pivot, i) for i in diff[1:]]
        controls = _pattern(b if a >> pivot & 1 else a, self.width)

        for op in fan:
            self._emit(op)
        self._emit(h(pivot))

        def rotate_back() -> None:
            self._emit(h(pivot))
            for op in reversed(fan):
                self._emit(op)

        self._emit(mcx(controls, self.anc1))
        if measure_and_reset(self.state, self.anc1, rng):
            rotate_back()
            return PvmOutcome.PLUS
        self._emit(x(pivot))
        self._emit(mcx(controls, self.anc2))
        self._emit(x(pivot))
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
