"""Workload definitions and seed derivation shared by run.py and worker.py.

This module imports nothing from hmstream, so run.py can load it in a
directory that has no source tree and fail cleanly there.
"""
from __future__ import annotations

import hashlib
import json

ALPHA = "1/4"

# One shot workload per bottleneck; see README.md for why each exists.
# shots_per_call is fixed per workload, so the first call of a run (the
# digest call) simulates the same shots on every commit, however fast it is.
WORKLOADS = {
    "local-n256": {"kind": "shots", "n": 256, "mode": "local", "noise_p": 0.0,
                   "shots_per_call": 32},
    "noisy-n256": {"kind": "shots", "n": 256, "mode": "local", "noise_p": 1e-3,
                   "shots_per_call": 64},
    "tcp-n32": {"kind": "shots", "n": 32, "mode": "tcp", "noise_p": 0.0,
                "shots_per_call": 300},
    # n is the largest instance figure2b builds; setup generates one of it.
    "tables": {"kind": "tables", "n": 1024},
}

# The unbounded figure2b row (gamma 0) scans every k up to --k-max. At the
# default 2001 it runs for minutes and then overflows, so the batch caps it.
UNBOUNDED_ROW_K_MAX = 120

_DECADES = ",".join(f"1e{e}" for e in range(4, 15))


def table_commands(seed: int) -> list[list[str]]:
    """The paper's analysis batch, one `hmstream` argv per table."""
    fig_seed = str(derive_seed(seed, "figure2b"))
    return [
        ["counts", "--n-list", "4,8,16,32,64,128,256"],
        ["vote", "--alpha", ALPHA, "--k-list", "1,3,5,7,9,11,13,15,21,31"],
        # Exits 4 at the parent commit: the float step overshoots 0.25.
        ["vote", "--alpha", ALPHA, "--alpha-grid", "0.01:0.25:0.01"],
        ["bound", "--n", "1e4", "--alpha", ALPHA],
        ["bound", "--n", "1e8", "--alpha", ALPHA],
        ["bound", "--n", "1e12", "--alpha", ALPHA],
        ["estimate", "--n-list", _DECADES, "--code", "surface", "--p", "1e-3"],
        ["estimate", "--n-list", _DECADES, "--code", "two-gross", "--p", "1e-4"],
        ["figure2b", "--n-list", "4,8,16,32,64,128,256,512,1024", "--alpha", ALPHA,
         "--gamma-list", "1.0,0.99,0.9,0.5,0.2,0.15", "--seed", fig_seed],
        ["figure2b", "--n-list", "32", "--alpha", ALPHA, "--gamma-list", "0.0",
         "--k-max", str(UNBOUNDED_ROW_K_MAX), "--seed", fig_seed],
    ]


def derive_seed(seed: int, *keys) -> int:
    """A 31-bit seed for one input of the run, fixed by the run's seed."""
    text = json.dumps([int(seed), *keys])
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:4], "little") >> 1


def instance_case(round_index: int) -> str:
    """Rounds alternate the yes and no cases."""
    return ("yes", "no")[round_index % 2]
