"""Multi-controlled-X decomposition and worst-case gate accounting.

A ``mcx`` with c polarity-matched controls becomes, for c >= 3, a ladder of
c-2 relative-phase Toffolis that accumulate the running AND of the controls
into scratch qubits, one exact Toffoli onto the target, and the mirrored
ladder uncomputation. Relative phases cancel exactly because the uncompute
retraces the compute, so the composite equals the c-control permutation on
any input whose scratch qubits start in |0>. Zero-polarity controls are
conjugated with X at the outer layer.

Physical templates (gate set {H, T/Tdg, CX, X}):

- exact Toffoli: 2 H, 7 T, 6 CX
- relative-phase Toffoli: 2 H, 4 T, 3 CX (the gate is self-inverse)

The worst-case accounting circuit mirrors the never-terminating sketch run:
every vertex update fires, every pair query runs the full basis change at
its budgeted cost (one H plus one CX per sketch qubit), both ancilla flags,
and the final basis change back is elided after the last query. Tallying
that circuit reproduces the closed-form logical counts exactly.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, replace

from .errors import DecompositionError, DomainError
from .statevector import GateOp, cx, h, mcx, t, tdg, x


def log2_exact(n: int) -> int:
    """L = log2 n for a sketchable vertex count: a power of two >= 4."""
    if n < 4 or n & (n - 1):
        raise DomainError(f"vertex count {n} must be a power of two >= 4")
    return n.bit_length() - 1


def ceil_log2(n: int) -> int:
    if n < 1:
        raise DomainError("ceil_log2 needs a positive integer")
    return (n - 1).bit_length()


# ---------------------------------------------------------------------------
# Toffoli templates


def ccx_ops(c1: int, c2: int, target: int) -> list[GateOp]:
    """Exact Toffoli over {H, T, CX}."""
    return [
        h(target),
        cx(c2, target),
        tdg(target),
        cx(c1, target),
        t(target),
        cx(c2, target),
        tdg(target),
        cx(c1, target),
        t(c2),
        t(target),
        h(target),
        cx(c1, c2),
        t(c1),
        tdg(c2),
        cx(c1, c2),
    ]


def rccx_ops(c1: int, c2: int, target: int) -> list[GateOp]:
    """Relative-phase Toffoli (self-inverse) over {H, T, CX}."""
    return [
        h(target),
        t(target),
        cx(c2, target),
        tdg(target),
        cx(c1, target),
        t(target),
        cx(c2, target),
        tdg(target),
        h(target),
    ]


def decompose_mcx(op: GateOp, scratch: tuple[int, ...]) -> list[GateOp]:
    """Rewrite a multi-controlled X into {x, cx, ccx, rccx} using scratch
    qubits that must start (and are returned) in |0>."""
    if op.kind not in ("mcx", "cx", "x", "ccx"):
        raise DomainError(f"cannot decompose kind {op.kind!r}")
    controls = op.controls
    c = len(controls)
    conj = [x(q) for q, pol in controls if pol == 0]
    qs = [q for q, _ in controls]
    if c == 0:
        return [x(op.target)]
    if c == 1:
        return conj + [cx(qs[0], op.target)] + conj
    if c == 2:
        return conj + [GateOp("ccx", op.target, ((qs[0], 1), (qs[1], 1)))] + conj
    needed = c - 2
    if len(scratch) < needed:
        raise DecompositionError(f"{c}-control gate needs {needed} scratch qubits, have {len(scratch)}")
    anc = list(scratch[:needed])
    ladder = [GateOp("rccx", anc[0], ((qs[0], 1), (qs[1], 1)))]
    for i in range(1, needed):
        ladder.append(GateOp("rccx", anc[i], ((anc[i - 1], 1), (qs[i + 1], 1))))
    middle = GateOp("ccx", op.target, ((anc[-1], 1), (qs[-1], 1)))
    return conj + ladder + [middle] + list(reversed(ladder)) + conj


def decompose_mcx_arity(k: int, ancilla_budget: int) -> tuple[list[GateOp], int]:
    """Canonical decomposition of a k-control X on qubits 0..k (target k),
    scratch above. Returns (toffoli-level ops, total qubit count)."""
    if k < 1:
        raise DomainError("control count must be >= 1")
    needed = max(0, k - 2)
    if ancilla_budget < needed:
        raise DecompositionError(f"{k}-control gate needs {needed} ancillas, budget {ancilla_budget}")
    op = mcx([(q, 1) for q in range(k)], k)
    scratch = tuple(range(k + 1, k + 1 + needed))
    return decompose_mcx(op, scratch), k + 1 + needed


def expand_physical(ops) -> list[GateOp]:
    """Expand toffoli-level ops to the physical set {h, t, tdg, cx, x}."""
    out: list[GateOp] = []
    for op in ops:
        if op.kind == "ccx":
            (c1, _), (c2, _) = op.controls
            out.extend(ccx_ops(c1, c2, op.target))
        elif op.kind == "rccx":
            (c1, _), (c2, _) = op.controls
            out.extend(rccx_ops(c1, c2, op.target))
        elif op.kind in ("h", "t", "tdg", "x", "cx"):
            out.append(op)
        else:
            raise DomainError(f"cannot expand kind {op.kind!r}")
    return out


def decompose_circuit(ops, num_qubits: int) -> tuple[list[GateOp], int]:
    """Decompose every mcx in a circuit, appending shared scratch qubits.

    Scratch is sized for the widest gate and reused; every decomposition
    restores it to |0>, so reuse is sound.
    """
    widest = 0
    for op in ops:
        if op.kind == "mcx":
            widest = max(widest, len(op.controls))
    scratch_n = max(0, widest - 2)
    scratch = tuple(range(num_qubits, num_qubits + scratch_n))
    out: list[GateOp] = []
    for op in ops:
        if op.kind == "mcx":
            out.extend(decompose_mcx(op, scratch))
        else:
            out.append(op)
    return out, num_qubits + scratch_n


# ---------------------------------------------------------------------------
# worst-case circuit for the streamed-matching sketch


@dataclass
class GateCounts:
    """Gate totals; ``mcx`` maps control count to occurrences."""

    h: int = 0
    x: int = 0
    t: int = 0
    cnot: int = 0
    mcx: dict[int, int] = field(default_factory=dict)
    space: int | None = None


@dataclass(frozen=True)
class SketchLayout:
    """Qubit roles for a sketch over n = 2**vertex_bits graph vertices.

    A basis state |v, label, parity> puts vertex v on qubits
    0..vertex_bits-1 (qubit 0 least significant), then the label and the
    parity qubit; the two measurement ancillas sit above the sketch.
    """

    vertex_bits: int

    @property
    def label(self) -> int:
        return self.vertex_bits

    @property
    def parity(self) -> int:
        return self.vertex_bits + 1

    @property
    def width(self) -> int:
        return self.vertex_bits + 2

    @property
    def anc1(self) -> int:
        return self.width

    @property
    def anc2(self) -> int:
        return self.width + 1

    @property
    def num_qubits(self) -> int:
        return self.width + 2

    def vertex_controls(self, v: int) -> tuple[tuple[int, int], ...]:
        return tuple((q, (v >> q) & 1) for q in range(self.vertex_bits))

    def index(self, v: int, label: int, parity: int) -> int:
        """Basis index of |v, label, parity> on the sketch qubits."""
        return v | (label << self.label) | (parity << self.parity)

    def elements(self) -> list[int]:
        """The sketched set {(v, 0, b)}: every vertex, label 0, both parities."""
        return [self.index(v, 0, b) for b in (0, 1) for v in range(1 << self.vertex_bits)]


def worst_case_ops(n: int) -> tuple[list[GateOp], SketchLayout]:
    """Gate stream of the never-terminating sketch execution at alpha = 1/4.

    Every basis-change slot is charged at its full budget (one H plus one CX
    per sketch qubit), every vertex update fires, and the basis change after
    the final query is elided.
    """
    lay = SketchLayout(log2_exact(n))
    L = lay.vertex_bits
    k = lay.width
    pivot = 0
    zero_sel = tuple((q, 0) for q in range(k))

    def basis_slot() -> list[GateOp]:
        fan = [cx(pivot, q) for q in range(1, k)] + [cx(pivot, lay.anc1)]
        return fan + [h(pivot)]

    ops: list[GateOp] = [h(q) for q in range(L)] + [h(lay.parity)]
    for v in range(n):
        ops.append(mcx(lay.vertex_controls(v), lay.label))
    total_queries = 4 * (n // 4)
    for qi in range(total_queries):
        ops.extend(basis_slot())
        ops.append(mcx(zero_sel, lay.anc1))
        ops.append(x(pivot))
        ops.append(mcx(zero_sel, lay.anc2))
        ops.append(x(pivot))
        if qi != total_queries - 1:
            ops.extend(reversed(basis_slot()))
    return ops, lay


def tally_ops(ops: list[GateOp]) -> GateCounts:
    """Gate totals of a circuit: T and Tdg both count as ``t``, ``mcx`` is
    keyed by control count, and a kind with no field raises DomainError."""
    kinds = Counter(op.kind for op in ops)
    unknown = kinds.keys() - {"h", "x", "t", "tdg", "cx", "mcx"}
    if unknown:
        raise DomainError(f"no gate count for kinds {sorted(unknown)}")
    return GateCounts(h=kinds["h"], x=kinds["x"], t=kinds["t"] + kinds["tdg"], cnot=kinds["cx"],
                      mcx=dict(Counter(len(op.controls) for op in ops if op.kind == "mcx")))


def logical_counts_hm(n: int) -> GateCounts:
    """Closed-form worst-case logical gate counts at alpha = 1/4."""
    lay = SketchLayout(log2_exact(n))
    return GateCounts(
        h=2 * n + lay.vertex_bits,
        x=2 * n,
        cnot=(2 * n - 1) * lay.width,
        mcx={lay.vertex_bits: n, lay.width: 2 * n},
        space=lay.width,
    )


def physical_counts_hm(n: int) -> GateCounts:
    """Tally of the fully decomposed worst-case circuit."""
    ops, lay = worst_case_ops(n)
    toffoli_level, _ = decompose_circuit(ops, lay.num_qubits)
    return replace(tally_ops(expand_physical(toffoli_level)), space=lay.width)


def physical_closed_forms(n: int) -> dict[str, int]:
    """Closed-form physical counts; the CNOT total is an interval because
    the published figures disagree with each other by up to 2n."""
    L = log2_exact(n)
    return {
        "t": n * (5 + 24 * L),
        "h": (1 + 12 * n) * L,
        "cnot_low": 20 * n * L + 8 * n - L - 2,
        "cnot_high": 20 * n * L + 8 * n - L - 2 + 2 * n,
    }


def toffoli_count_hm(n: int, copies: int = 7) -> int:
    """Toffoli budget for `copies` parallel sketches on n vertices."""
    if n < 4:
        raise DomainError("graph size must be at least 4")
    return copies * (3 * n * ceil_log2(n) + 4 * n)
