"""Fault-tolerant resource estimation for the streamed-matching sketch.

Per problem size n (copies default 7, per-copy fidelity gamma default
0.9975):

- logical qubits       L = copies * (2 * (ceil(log2 n) + 2) - 1)
- Toffoli total        copies * (3 n ceil(log2 n) + 4 n)
- CCZ infidelity goal  (1 - gamma) / per-copy Toffoli count
- surface distance     d = ceil(2 * log10(1/infidelity) / log10(p_th / p))
- surface qubits       L * 2 d^2 data block + one CCZ factory
- two-gross qubits     ceil(L / 12) modules of 768 qubits (576 data/check
                       + 158 logical processing + 34 adapter) + one factory

The published distance equation carries a stray "1 -" and an ambiguous
log sign; the variant above is the one that reproduces every tabulated
distance and the literal form stays available behind ``printed_form``.
Factory footprints are configuration, not physics: surface defaults are
1.65e4 (p = 1e-3, cultivation) and 1.24e4 (p = 1e-4, distillation);
two-gross footprints are a step lookup by target infidelity recovered by
subtracting the module block from published totals. Above n = 1e13 the
two-gross family switches to a 360-qubit bivariate bicycle block whose
per-module overhead is scaled from the two-gross module and flagged as
approximate.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from .boosting import total_quantum_space
from .compiler import toffoli_count_hm
from .errors import DomainError
from .runners import classical_lower_bound, classical_sketch_size

TWO_GROSS_MODULE_QUBITS = 576 + 158 + 34
TWO_GROSS_LOGICAL_PER_MODULE = 12
BB360_MODULE_QUBITS = TWO_GROSS_MODULE_QUBITS * 360 // 288
BB360_SWITCHOVER_N = 10**13

CODE_FAMILIES = ("surface", "two-gross", "bb360")


@dataclass(frozen=True)
class CodeSpec:
    family: str
    physical_error_rate: float
    threshold: float = 0.01

    def __post_init__(self):
        if self.family not in CODE_FAMILIES:
            raise DomainError(f"unknown code family {self.family!r}")
        if self.physical_error_rate <= 0:
            raise DomainError("physical error rate must be positive")
        if self.family == "surface" and self.physical_error_rate >= self.threshold:
            raise DomainError("surface code needs p below threshold")


@dataclass(frozen=True)
class FactoryConfig:
    """CCZ factory footprints (physical qubits, adapters included)."""

    surface: dict[float, int] = field(default_factory=lambda: {1e-3: 16_500, 1e-4: 12_400})
    # (infidelity floor, footprint): first row whose floor the target exceeds
    two_gross_steps: tuple[tuple[float, int], ...] = (
        (1e-9, 13_208),
        (1e-13, 14_350),
        (0.0, 15_500),
    )
    bb360: int = 25_000

    def surface_footprint(self, p: float) -> int:
        best = min(self.surface, key=lambda key: abs(math.log10(p) - math.log10(key)))
        return self.surface[best]

    def two_gross_footprint(self, infidelity: float) -> int:
        for floor, footprint in self.two_gross_steps:
            if infidelity > floor:
                return footprint
        return self.two_gross_steps[-1][1]

    @classmethod
    def from_json(cls, path: str | Path) -> "FactoryConfig":
        """An object with any of ``surface`` ({p: footprint}, p positive and
        finite), ``two_gross_steps`` ([[floor, footprint], ...]) and ``bb360``;
        anything else is a DomainError."""
        fields = {"surface": lambda table: {float(k): int(v) for k, v in table.items()},
                  "two_gross_steps": lambda rows: tuple((float(a), int(b)) for a, b in rows),
                  "bb360": int}
        try:
            kwargs = {key: fields[key](value)
                      for key, value in json.loads(Path(path).read_text()).items()}
        except (ValueError, TypeError, AttributeError, KeyError) as exc:
            raise DomainError(f"factory config {path} is not an object of surface, "
                              f"two_gross_steps and bb360: {exc!r}") from None
        if not all(kwargs.values()):
            raise DomainError(f"factory config {path} has an empty entry")
        bad = [p for p in kwargs.get("surface", ()) if not (math.isfinite(p) and p > 0.0)]
        if bad:
            raise DomainError(f"factory config {path}: surface error rates must be "
                              f"positive and finite, got {bad}")
        return cls(**kwargs)


DEFAULT_FACTORIES = FactoryConfig()


@dataclass(frozen=True)
class ResourceEstimate:
    n: int
    copies: int
    logical_qubits: int
    toffoli_total: int
    toffoli_per_copy: int
    ccz_infidelity_target: float
    code_family: str
    physical_error_rate: float
    code_distance: int | None
    module_count: int | None
    factory_footprint: int
    physical_qubits_total: int
    classical_best_known_bits: int
    classical_lower_bound_bits: float
    approximate: bool = False


def logical_qubits(n: int, copies: int = 7) -> int:
    """Logical qubits across all voting copies."""
    if n < 4 or copies < 1:
        raise DomainError("need n >= 4 and at least one copy")
    return 2 * total_quantum_space(n, copies) - copies


def ccz_infidelity_target(n: int, gamma: float = 0.9975) -> float:
    """Per-gate infidelity budget so one sketch run keeps fidelity gamma."""
    if not 0.0 < gamma < 1.0:
        raise DomainError(f"gamma {gamma} outside (0, 1)")
    return (1.0 - gamma) / toffoli_count_hm(n, copies=1)


def surface_code_distance(infidelity: float, p: float, p_th: float = 0.01,
                          printed_form: bool = False) -> int:
    """Distance at which the memory error stays below the CCZ budget."""
    if p >= p_th:
        raise DomainError(f"physical rate {p} not below threshold {p_th}")
    if infidelity <= 0:
        raise DomainError("infidelity target must be positive")
    if printed_form:
        # Literal published equation; does not reproduce the tabulated
        # distances (see module docstring). Kept for comparison only.
        return math.ceil(2 * (1 - math.log10(infidelity)) / math.log10(p / p_th))
    d = math.ceil(2.0 * math.log10(1.0 / infidelity) / math.log10(p_th / p))
    return max(d, 3)


def surface_physical_qubits(L: int, distance: int, factory_footprint: int) -> int:
    """Rotated-code data block (2 d^2 per logical qubit) plus one factory."""
    if L < 1 or distance < 3:
        raise DomainError("need at least one logical qubit and distance >= 3")
    return L * 2 * distance * distance + factory_footprint


def two_gross_physical_qubits(L: int, factory_footprint: int,
                              module_qubits: int = TWO_GROSS_MODULE_QUBITS,
                              logical_per_module: int = TWO_GROSS_LOGICAL_PER_MODULE) -> int:
    """Modular block-code accounting: full modules of 12 logical qubits."""
    if L < 1:
        raise DomainError("need at least one logical qubit")
    modules = -(-L // logical_per_module)
    return modules * module_qubits + factory_footprint


def estimate(n: int, code: CodeSpec, gamma: float = 0.9975, copies: int = 7,
             factories: FactoryConfig = DEFAULT_FACTORIES) -> ResourceEstimate:
    """Full per-n resource row for the requested code family."""
    L = logical_qubits(n, copies)
    per_copy = toffoli_count_hm(n, copies=1)
    infid = ccz_infidelity_target(n, gamma)
    family = code.family
    approximate = False
    if family == "two-gross" and n > BB360_SWITCHOVER_N:
        family = "bb360"
    distance = None
    modules = None
    if family == "surface":
        distance = surface_code_distance(infid, code.physical_error_rate, code.threshold)
        factory = factories.surface_footprint(code.physical_error_rate)
        physical = surface_physical_qubits(L, distance, factory)
    elif family == "two-gross":
        factory = factories.two_gross_footprint(infid)
        modules = -(-L // TWO_GROSS_LOGICAL_PER_MODULE)
        physical = two_gross_physical_qubits(L, factory)
    else:  # bb360
        factory = factories.bb360
        modules = -(-L // TWO_GROSS_LOGICAL_PER_MODULE)
        physical = two_gross_physical_qubits(L, factory, module_qubits=BB360_MODULE_QUBITS)
        approximate = True
    return ResourceEstimate(
        n=n,
        copies=copies,
        logical_qubits=L,
        toffoli_total=copies * per_copy,
        toffoli_per_copy=per_copy,
        ccz_infidelity_target=infid,
        code_family=family,
        physical_error_rate=code.physical_error_rate,
        code_distance=distance,
        module_count=modules,
        factory_footprint=factory,
        physical_qubits_total=physical,
        classical_best_known_bits=classical_sketch_size(n, 0.25),
        classical_lower_bound_bits=classical_lower_bound(n, 0.25),
        approximate=approximate,
    )


def break_even(n_list, code: CodeSpec, gamma: float = 0.9975, copies: int = 7,
               factories: FactoryConfig = DEFAULT_FACTORIES,
               classical: str = "lower_bound") -> int | None:
    """Smallest tabulated n whose quantum physical-qubit total drops below
    the classical reference column ("lower_bound" or "best_known")."""
    if classical not in ("lower_bound", "best_known"):
        raise DomainError("classical reference must be lower_bound or best_known")
    for n in sorted(n_list):
        est = estimate(n, code, gamma=gamma, copies=copies, factories=factories)
        ref = (est.classical_lower_bound_bits if classical == "lower_bound"
               else est.classical_best_known_bits)
        if est.physical_qubits_total < ref:
            return n
    return None
