"""Majority-vote boosting: success probability, copy counts, noise budget.

Run k independent sketches and vote between yes and no verdicts. With
per-copy probabilities (p_correct, p_wrong, p_null) the vote succeeds when
correct answers strictly outnumber wrong ones; ties, including the all-null
event, are broken by a fair coin. The distribution of correct minus wrong
votes is built by one convolution per copy: every term is a sum of
positive products, so there is no cancellation and no big integer, and
successive copy counts come from one walk. Brute-force enumeration and
Monte Carlo check it in the tests.

For the matching sketch the ideal per-copy probabilities are
(alpha, alpha/2, 1 - 3*alpha/2). A per-copy fidelity gamma raises the
failure probability delta(k, alpha) to delta + k*(1 - gamma), which gives
the largest per-copy infidelity a failure budget can absorb.
"""
from __future__ import annotations

import itertools

import numpy as np

from .compiler import SketchLayout, ceil_log2
from .errors import DomainError


def _check_alpha(alpha: float) -> float:
    a = float(alpha)
    if not 0.0 < a <= 0.25:
        raise DomainError(f"alpha {a} outside (0, 1/4]")
    return a


def _vote_successes(p_correct: float, p_wrong: float):
    """Vote success for k = 1, 2, ... copies, one value per copy added.

    margin[j] is the probability that correct minus wrong votes equals
    j - k; each copy convolves it with (p_wrong, p_null, p_correct).
    """
    p_null = 1.0 - p_correct - p_wrong
    if p_correct < 0 or p_wrong < 0 or p_null < -1e-12:
        raise DomainError("per-copy probabilities must be a distribution")
    step = np.array([p_wrong, max(p_null, 0.0), p_correct])
    margin = np.ones(1)
    for k in itertools.count(1):
        margin = np.convolve(margin, step)
        yield min(1.0, max(0.0, float(margin[k + 1:].sum() + 0.5 * margin[k])))


def vote_success_general(k: int, p_correct: float, p_wrong: float) -> float:
    """Probability a k-copy majority vote answers correctly, ties by coin."""
    if k < 1:
        raise DomainError("copy count must be >= 1")
    return next(itertools.islice(_vote_successes(p_correct, p_wrong), k - 1, None))


def vote_success(k: int, alpha: float) -> float:
    """Vote success at the sketch's ideal per-copy distribution."""
    a = _check_alpha(alpha)
    return vote_success_general(k, a, a / 2.0)


def min_copies_general(p_correct: float, p_wrong: float, target: float = 2.0 / 3.0,
                       k_max: int = 2001) -> int | None:
    """Smallest k whose vote reaches `target`; None when no k <= k_max does
    (a zero correct/wrong gap never exceeds one half)."""
    if target > 0.5 and p_correct <= p_wrong:
        return None  # wrong answers are at least as likely: success <= 1/2 for every k
    for k, success in zip(range(1, k_max + 1), _vote_successes(p_correct, p_wrong)):
        if success >= target:
            return k
    return None


def min_copies(alpha: float, target: float = 2.0 / 3.0) -> int:
    """Smallest copy count reaching `target` success at parameter alpha."""
    a = _check_alpha(alpha)
    cap = max(1000, int(20.0 / a))
    k = min_copies_general(a, a / 2.0, target, k_max=cap)
    if k is None:
        raise DomainError(f"no copy count below {cap} reaches {target}")
    return k


def noisy_failure(k: int, alpha: float, gamma: float) -> float:
    """Failure probability with per-copy fidelity gamma, clamped to [0, 1]."""
    if not 0.0 <= gamma <= 1.0:
        raise DomainError(f"gamma {gamma} outside [0, 1]")
    delta = 1.0 - vote_success(k, alpha)
    return min(1.0, max(0.0, delta + k * (1.0 - gamma)))


def max_tolerable_infidelity(k: int, alpha: float, budget: float = 1.0 / 3.0) -> tuple[float, bool]:
    """Largest per-copy infidelity keeping failure within `budget`.

    Returns (tolerance, feasible); infeasible k (noiseless failure already
    above budget) reports (0.0, False).
    """
    delta = 1.0 - vote_success(k, alpha)
    if delta >= budget:
        return 0.0, False
    return (budget - delta) / k, True


def total_quantum_space(n: int, copies: int) -> int:
    """Total sketch qubits for `copies` parallel sketches on n vertices."""
    if n < 2 or copies < 1:
        raise DomainError("need n >= 2 and at least one copy")
    return copies * SketchLayout(ceil_log2(n)).width
