"""Dense statevector core with mid-circuit measurement and trajectory noise.

Conventions
-----------
- Qubit 0 is the least-significant bit of a basis index, so basis state
  ``|q0 q1 q2>`` (qubit-0 first) has index ``q0 + 2*q1 + 4*q2``.
- Amplitudes are a numpy complex128 vector of length ``2**m``, mutated in
  place. A state is owned by a single shot; independent shots derive their
  own generators with :func:`shot_rng`.
- Noise is a stochastic Pauli-trajectory model: every sample remains a pure
  state and ensemble statistics emerge over repeated shots.

Supported gate kinds: ``h``, ``x``, ``y``, ``z``, ``t``, ``tdg`` (single
qubit, no controls), ``cx`` (exactly one control) and ``mcx`` (one or more
controls). Controls carry a polarity bit; polarity 0 fires when the control
qubit is 0, so no explicit basis-flip conjugation is needed at this level.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import CapacityError, DomainError, SimulationError

MAX_QUBITS = 24
NORM_TOL = 1e-10

_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_T_PHASE = np.exp(1j * np.pi / 4)

_SINGLE_KINDS = frozenset({"h", "x", "y", "z", "t", "tdg"})
_CONTROLLED_KINDS = frozenset({"cx", "mcx", "ccx", "rccx"})
GATE_KINDS = _SINGLE_KINDS | _CONTROLLED_KINDS


@dataclass(frozen=True)
class GateOp:
    """One gate: kind, target qubit, and (qubit, polarity) controls.

    ``ccx`` is an exact Toffoli and ``rccx`` a relative-phase Toffoli; both
    are intermediate kinds emitted by the gate compiler. ``rccx`` must be
    expanded to physical gates before simulation.
    """

    kind: str
    target: int
    controls: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        if self.kind not in GATE_KINDS:
            raise DomainError(f"unknown gate kind {self.kind!r}")
        if self.kind in _SINGLE_KINDS and self.controls:
            raise DomainError(f"{self.kind} takes no controls")
        if self.kind == "cx" and len(self.controls) != 1:
            raise DomainError("cx takes exactly one control")
        if self.kind == "mcx" and not self.controls:
            raise DomainError("mcx needs at least one control")
        if self.kind in ("ccx", "rccx"):
            if len(self.controls) != 2:
                raise DomainError(f"{self.kind} takes exactly two controls")
            if any(pol != 1 for _, pol in self.controls):
                raise DomainError(f"{self.kind} supports polarity-1 controls only")
        qubits = [q for q, _ in self.controls]
        if self.target in qubits:
            raise DomainError("target may not be one of the controls")
        if len(set(qubits)) != len(qubits):
            raise DomainError("control qubits must be pairwise distinct")
        for _, pol in self.controls:
            if pol not in (0, 1):
                raise DomainError("control polarity must be 0 or 1")


def h(q: int) -> GateOp:
    return GateOp("h", q)


def x(q: int) -> GateOp:
    return GateOp("x", q)


def t(q: int) -> GateOp:
    return GateOp("t", q)


def tdg(q: int) -> GateOp:
    return GateOp("tdg", q)


def cx(control: int, target: int) -> GateOp:
    return GateOp("cx", target, ((control, 1),))


def mcx(controls, target: int) -> GateOp:
    return GateOp("mcx", target, tuple(controls))


@dataclass(frozen=True)
class NoiseConfig:
    """Two-qubit depolarizing strength plus the seed recorded in outputs."""

    two_qubit_depolarizing_p: float = 0.0
    rng_seed: int = 0

    def __post_init__(self):
        p = self.two_qubit_depolarizing_p
        if not 0.0 <= p <= 1.0:
            raise DomainError(f"depolarizing probability {p} outside [0, 1]")


class PvmOutcome(Enum):
    PLUS = "plus"
    MINUS = "minus"
    ZERO = "zero"


class QuantumState:
    """Amplitude vector over ``num_qubits`` qubits."""

    __slots__ = ("num_qubits", "amps")

    def __init__(self, num_qubits: int, amps: np.ndarray):
        self.num_qubits = num_qubits
        self.amps = amps

    def copy(self) -> "QuantumState":
        return QuantumState(self.num_qubits, self.amps.copy())

    def norm_squared(self) -> float:
        return float(np.vdot(self.amps, self.amps).real)

    def probability(self, basis_index: int) -> float:
        return float(abs(self.amps[basis_index]) ** 2)


def allocate(m: int, max_qubits: int = MAX_QUBITS) -> QuantumState:
    """Fresh ``|0...0>`` register of m qubits (1 <= m <= max_qubits)."""
    if not 1 <= m <= max_qubits:
        raise CapacityError(f"qubit count {m} outside [1, {max_qubits}]")
    amps = np.zeros(1 << m, dtype=np.complex128)
    amps[0] = 1.0
    return QuantumState(m, amps)


@functools.lru_cache(maxsize=None)
def _axis_pairs(m: int, target: int):
    """Index arrays (i0, i1) pairing basis states that differ in `target`."""
    base = np.arange(1 << (m - 1))
    low = base & ((1 << target) - 1)
    i0 = ((base >> target) << (target + 1)) | low
    i1 = i0 | (1 << target)
    i0.setflags(write=False)
    i1.setflags(write=False)
    return i0, i1


# Entries kept by _controlled_pairs: more than the distinct vertex-update
# patterns of an n = 1024 shot, so those still hit from one shot to the next.
_CONTROLLED_PAIRS_CACHE = 4096


@functools.lru_cache(maxsize=_CONTROLLED_PAIRS_CACHE)
def _controlled_pairs(m: int, target: int, controls):
    i0, i1 = _axis_pairs(m, target)
    if controls:
        keep = np.ones(len(i0), dtype=bool)
        for q, pol in controls:
            keep &= ((i0 >> q) & 1) == pol
        i0 = i0[keep]
        i1 = i1[keep]
        i0.setflags(write=False)
        i1.setflags(write=False)
    return i0, i1


def _validate_indices(op: GateOp, m: int) -> None:
    if not 0 <= op.target < m:
        raise IndexError(f"target {op.target} outside register of {m} qubits")
    for q, _ in op.controls:
        if not 0 <= q < m:
            raise IndexError(f"control {q} outside register of {m} qubits")


def _apply_raw(amps: np.ndarray, op: GateOp, m: int) -> None:
    """Apply `op` to an amplitude array (1-D vector or (2^m, k) matrix)."""
    kind = op.kind
    if kind == "h":
        i0, i1 = _axis_pairs(m, op.target)
        a0 = amps[i0]
        a1 = amps[i1]
        amps[i0] = (a0 + a1) * _INV_SQRT2
        amps[i1] = (a0 - a1) * _INV_SQRT2
    elif kind in ("x", "cx", "mcx", "ccx"):
        i0, i1 = _controlled_pairs(m, op.target, op.controls)
        a0 = amps[i0]
        amps[i0] = amps[i1]
        amps[i1] = a0
    elif kind == "rccx":
        raise SimulationError("rccx carries relative phases; expand to physical gates first")
    elif kind == "t":
        _, i1 = _axis_pairs(m, op.target)
        amps[i1] *= _T_PHASE
    elif kind == "tdg":
        _, i1 = _axis_pairs(m, op.target)
        amps[i1] *= np.conj(_T_PHASE)
    elif kind == "z":
        _, i1 = _axis_pairs(m, op.target)
        amps[i1] *= -1.0
    elif kind == "y":
        i0, i1 = _axis_pairs(m, op.target)
        a0 = amps[i0]
        amps[i0] = -1j * amps[i1]
        amps[i1] = 1j * a0
    else:  # pragma: no cover - GateOp validation forbids this
        raise DomainError(f"unknown gate kind {kind!r}")


def apply(state: QuantumState, op: GateOp) -> QuantumState:
    """Apply one gate in place and return the state."""
    _validate_indices(op, state.num_qubits)
    _apply_raw(state.amps, op, state.num_qubits)
    return state


def circuit_matrix(ops, m: int, columns=None) -> np.ndarray:
    """Evolve basis columns through `ops`; returns a (2^m, len(columns)) block.

    With the default columns this is the full dense unitary of the circuit.
    """
    dim = 1 << m
    cols = np.arange(dim) if columns is None else np.asarray(list(columns))
    mat = np.zeros((dim, len(cols)), dtype=np.complex128)
    mat[cols, np.arange(len(cols))] = 1.0
    for op in ops:
        _validate_indices(op, m)
        _apply_raw(mat, op, m)
    return mat


# ---------------------------------------------------------------------------
# measurement


def measure_qubit(state: QuantumState, q: int, rng) -> int:
    """Projectively measure one qubit; collapse and renormalize in place."""
    m = state.num_qubits
    if not 0 <= q < m:
        raise IndexError(f"qubit {q} outside register of {m} qubits")
    i0, i1 = _axis_pairs(m, q)
    p1 = float(np.vdot(state.amps[i1], state.amps[i1]).real)
    outcome = 1 if rng.random() < p1 else 0
    if outcome:
        state.amps[i0] = 0.0
        state.amps /= np.sqrt(p1)
    else:
        state.amps[i1] = 0.0
        state.amps /= np.sqrt(max(1.0 - p1, 1e-300))
    return outcome


def measure_and_reset(state: QuantumState, q: int, rng) -> int:
    """Measure a qubit and return it to |0> (reset is not a logged gate)."""
    outcome = measure_qubit(state, q, rng)
    if outcome:
        i0, i1 = _axis_pairs(state.num_qubits, q)
        state.amps[i0] = state.amps[i1]
        state.amps[i1] = 0.0
    return outcome


def projector_probability(state: QuantumState, basis_states, sign: int = +1) -> float:
    """<psi| P |psi> for the rank-1 projector onto (|a> + sign|b>)/sqrt(2)."""
    a, b = basis_states
    if a == b:
        raise DomainError("projector basis states must be distinct")
    if sign not in (+1, -1):
        raise DomainError("sign pattern must be +1 or -1")
    amp = (state.amps[a] + sign * state.amps[b]) * _INV_SQRT2
    return float(abs(amp) ** 2)


def pair_pvm_probabilities(state: QuantumState, a: int, b: int):
    """(p_plus, p_minus, p_zero) for the three-outcome PVM on |a>, |b>."""
    p_plus = projector_probability(state, (a, b), +1)
    p_minus = projector_probability(state, (a, b), -1)
    p_zero = state.norm_squared() - float(abs(state.amps[a]) ** 2) - float(abs(state.amps[b]) ** 2)
    return p_plus, p_minus, max(p_zero, 0.0)


# ---------------------------------------------------------------------------
# noise

_PAULI_PAIRS = tuple(
    (p1, p2)
    for p1 in ("i", "x", "y", "z")
    for p2 in ("i", "x", "y", "z")
    if (p1, p2) != ("i", "i")
)


def inject_depolarizing(state: QuantumState, q1: int, q2: int, p: float, rng) -> QuantumState:
    """Two-qubit depolarizing trajectory: with probability p apply one of the
    15 non-identity Pauli pairs chosen uniformly at random."""
    if q1 == q2:
        raise DomainError("depolarizing noise needs two distinct qubits")
    if p <= 0.0:
        return state
    if rng.random() < p:
        p1, p2 = _PAULI_PAIRS[int(rng.integers(15))]
        if p1 != "i":
            _apply_raw(state.amps, GateOp(p1, q1), state.num_qubits)
        if p2 != "i":
            _apply_raw(state.amps, GateOp(p2, q2), state.num_qubits)
    return state


def shot_rng(seed: int, shot_index: int) -> np.random.Generator:
    """Deterministic per-shot generator: seed and shot index feed one
    SeedSequence, so shots are independent and reproducible."""
    entropy = int(seed) & 0xFFFFFFFFFFFFFFFF
    return np.random.default_rng(np.random.SeedSequence(entropy=entropy, spawn_key=(int(shot_index),)))
