"""Hidden Matching problem instances and their stream serialization.

An instance on n vertices carries vertex labels x, a partial matching M of
alpha*n vertex-disjoint edges, and edge labels z. In the "yes" case
x_u ^ x_v == z_uv on every edge; in the "no" case the relation fails on
every edge. Streams are vertices first (ascending id), then edges in
matching order, then an end marker.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from .compiler import log2_exact
from .errors import DomainError

CASES = ("yes", "no")


@dataclass(frozen=True)
class VertexUpdate:
    v: int
    label: int


@dataclass(frozen=True)
class EdgeUpdate:
    u: int
    v: int
    label: int


@dataclass(frozen=True)
class EndOfStream:
    pass


StreamUpdate = VertexUpdate | EdgeUpdate | EndOfStream


@dataclass(frozen=True)
class HMInstance:
    n: int
    alpha: Fraction
    x: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]
    z: tuple[int, ...]
    case: str
    seed: int

    @property
    def num_edges(self) -> int:
        return len(self.edges)


def _check_params(n: int, alpha: Fraction) -> int:
    log2_exact(n)
    if not 0 <= alpha <= Fraction(1, 4):
        raise DomainError(f"alpha {alpha} outside [0, 1/4]")
    m = alpha * n
    if m.denominator != 1:
        raise DomainError(f"alpha*n = {m} is not an integer")
    return int(m)


def generate(n: int, alpha: Fraction, case: str, seed: int) -> HMInstance:
    """Random instance: uniform labels, uniform partial matching, edge labels
    fixed by the case. Deterministic in `seed`."""
    alpha = Fraction(alpha)
    m = _check_params(n, alpha)
    if case not in CASES:
        raise DomainError(f"case must be one of {CASES}")
    rng = np.random.default_rng(seed)
    x = tuple(int(b) for b in rng.integers(0, 2, size=n))
    perm = rng.permutation(n)
    edges = []
    for i in range(m):
        u, v = int(perm[2 * i]), int(perm[2 * i + 1])
        edges.append((u, v) if u < v else (v, u))
    z = tuple(
        (x[u] ^ x[v]) if case == "yes" else 1 - (x[u] ^ x[v])
        for u, v in edges
    )
    return HMInstance(n, alpha, x, tuple(edges), z, case, seed)


def to_stream(instance: HMInstance) -> list[StreamUpdate]:
    """Vertices in ascending order, edges in matching order, end marker."""
    out: list[StreamUpdate] = [VertexUpdate(v, instance.x[v]) for v in range(instance.n)]
    out.extend(EdgeUpdate(u, v, z) for (u, v), z in zip(instance.edges, instance.z))
    out.append(EndOfStream())
    return out


def validate(instance: HMInstance) -> list[str]:
    """All invariant violations, empty when the instance is consistent."""
    problems: list[str] = []
    try:
        m = _check_params(instance.n, instance.alpha)
    except DomainError as exc:
        return [str(exc)]
    if instance.case not in CASES:
        problems.append(f"unknown case {instance.case!r}")
        return problems
    if len(instance.x) != instance.n:
        problems.append(f"labels cover {len(instance.x)} of {instance.n} vertices")
    if any(b not in (0, 1) for b in instance.x):
        problems.append("vertex labels must be bits")
    if len(instance.edges) != m:
        problems.append(f"matching has {len(instance.edges)} edges, expected {m}")
    if len(instance.z) != len(instance.edges):
        problems.append("edge labels do not cover the matching")
    seen: set[int] = set()
    for u, v in instance.edges:
        if not (0 <= u < instance.n and 0 <= v < instance.n):
            problems.append(f"edge ({u}, {v}) outside vertex range")
        if u == v:
            problems.append(f"edge ({u}, {v}) is a self-loop")
        if u in seen or v in seen:
            problems.append(f"edge ({u}, {v}) reuses a matched vertex")
        seen.update((u, v))
    if not problems:
        for (u, v), z in zip(instance.edges, instance.z):
            parity = instance.x[u] ^ instance.x[v]
            if instance.case == "yes" and parity != z:
                problems.append(f"yes-case edge ({u}, {v}) has x_u^x_v != z")
            if instance.case == "no" and parity == z:
                problems.append(f"no-case edge ({u}, {v}) has x_u^x_v == z")
    return problems


# ---------------------------------------------------------------------------
# archival format


def to_json(instance: HMInstance) -> str:
    """Canonical JSON (sorted keys) for archival and byte-identical replay."""
    doc = {
        "alpha": [instance.alpha.numerator, instance.alpha.denominator],
        "case": instance.case,
        "edges": [[u, v, z] for (u, v), z in zip(instance.edges, instance.z)],
        "n": instance.n,
        "seed": instance.seed,
        "x": "".join(str(b) for b in instance.x),
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def from_json(text: str | bytes) -> HMInstance:
    """Parse an archived instance; a decode, shape or consistency error is a DomainError."""
    try:
        doc = json.loads(text)
        edges = tuple((int(u), int(v)) for u, v, _ in doc["edges"])
        z = tuple(int(zz) for _, _, zz in doc["edges"])
        instance = HMInstance(
            n=int(doc["n"]),
            alpha=Fraction(int(doc["alpha"][0]), int(doc["alpha"][1])),
            x=tuple(int(ch) for ch in doc["x"]),
            edges=edges,
            z=z,
            case=doc["case"],
            seed=int(doc["seed"]),
        )
    except (ValueError, TypeError, KeyError, IndexError, ZeroDivisionError) as exc:
        raise DomainError(f"archived instance is malformed: {exc!r}") from None
    problems = validate(instance)
    if problems:
        raise DomainError("archived instance is inconsistent: " + "; ".join(problems))
    return instance


def save(instance: HMInstance, path: str | Path) -> None:
    Path(path).write_text(to_json(instance) + "\n")


def load(path: str | Path) -> HMInstance:
    return from_json(Path(path).read_bytes())
