"""Workload definitions: CLI operations built from a seed, with references.

The seed picks start pearls and the random pearl's edges and roots; the
problem sizes (K, M) are fixed per workload, so every seed does the same
amount of work.  See README.md in this directory for why each workload
exists.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import checks

# Sizes per workload: "full" is what the benchmark measures, "tiny" is what
# its own tests run.
SIZES = {
    "full": {
        "mix-curve": {"combs": [(1, 96), (2, 64), (0, 160)]},
        "spectra-largeK": {"comb1": 1400, "comb2": 800, "cycle": 2800, "random": 480},
        # Closed-form pearls up to K = 11585 and the others up to K = 1448, the
        # largest ranges on which every record passes its check at the parent.
        "gap-scan": {"scans": [("0,1,2", "16..11585"), ("3,5,8", "16..1448")]},
    },
    "tiny": {
        "mix-curve": {"combs": [(1, 12), (2, 8), (0, 16)]},
        "spectra-largeK": {"comb1": 20, "comb2": 12, "cycle": 40, "random": 8},
        "gap-scan": {"scans": [("0,1", "16..64"), ("3", "16..32")]},
    },
}
MIX_EPS = 0.1
MIX_T_LO, MIX_T_HI, MIX_RATIO = 1.0, 1e5, 1.05
# Grid times whose time average is checked against quadrature, and the
# quadrature step count (trapezoid error ~ (T/steps)^2, far below 1e-5).
QUADRATURE_POINTS = 2
QUADRATURE_STEPS = 4000
RANDOM_PEARL_M, RANDOM_PEARL_EDGES = 5, 6


@dataclass
class Op:
    """One CLI call: its arguments, how many records it counts for, its check."""

    name: str
    argv: list[str]
    reference: Callable[[], dict]
    check: Callable[[str, dict], list[str]]
    records: int = 1
    ref: dict | None = field(default=None, repr=False)


def _pearl_args(d: int) -> list[str]:
    return ["--cycle"] if d == 0 else ["--comb-d", str(d)]


def _pearl(d: int):
    from necklace_walks import graphs

    return graphs.make_cycle_pearl() if d == 0 else graphs.make_comb_pearl(d)


def random_pearl(rng: random.Random) -> dict:
    """Connected pearl: a random spanning tree plus extra edges, distinct roots."""
    m = RANDOM_PEARL_M
    order = list(range(m))
    rng.shuffle(order)
    edges = {tuple(sorted((order[i], order[rng.randrange(i)]))) for i in range(1, m)}
    others = [(a, b) for a in range(m) for b in range(a + 1, m) if (a, b) not in edges]
    edges.update(rng.sample(others, RANDOM_PEARL_EDGES - len(edges)))
    root_in, root_out = rng.sample(range(m), 2)
    return {"m": m, "edges": sorted(list(e) for e in edges),
            "root_in": root_in, "root_out": root_out}


def _mix_op(d: int, K: int, rng: random.Random) -> Op:
    j0 = rng.randrange(K)
    kind = {0: None, 1: "base"}.get(d, "tooth")
    start = f"{j0}" if kind is None else f"{j0},{kind}"
    argv = ["mix", *_pearl_args(d), "--K", str(K), "--start", start, "--eps", str(MIX_EPS),
            "--T-lo", str(MIX_T_LO), "--T-hi", str(MIX_T_HI)]

    def reference() -> dict:
        from necklace_walks import comb_analytics, graphs, oracle

        pearl = _pearl(d)
        necklace = graphs.NecklaceSpec(pearl, K)
        m0 = 1 if kind in (None, "base") else pearl.m
        start_row = necklace.flat_index(j0 + 1, m0)
        h = graphs.assemble_hamiltonian(necklace)
        if d == 0:
            pi = np.array([comb_analytics.cycle_limiting(K, x, j0 + 1) for x in range(1, K + 1)])
        elif d == 1:
            pi = np.array([
                comb_analytics.comb1_limiting(K, kind, pearl.vertex_kind(m), j, j0 + 1)
                for j in range(1, K + 1) for m in (1, 2)
            ])
        else:
            pi = checks.dense_limiting(h, start_row)
        count = math.ceil(math.log(MIX_T_HI / MIX_T_LO) / math.log(MIX_RATIO))
        grid = MIX_T_LO * MIX_RATIO ** np.arange(count + 1)
        phi0 = np.zeros(necklace.n_vertices, dtype=complex)
        phi0[start_row] = 1.0
        tv = [np.abs(oracle.quadrature_time_average(h, phi0, T, QUADRATURE_STEPS) - pi).sum()
              for T in grid[:QUADRATURE_POINTS]]
        return {"grid": grid, "tv": np.array(tv), "eps": MIX_EPS}

    return Op(f"mix d={d} K={K}", argv, reference, checks.check_mix)


def mix_curve(rng: random.Random, size: dict, threads: int, workdir: str) -> list[Op]:
    return [_mix_op(d, K, rng) for d, K in size["combs"]]


def _spectrum_op(name: str, pearl_args: list[str], K: int, reference) -> Op:
    argv = ["spectrum", *pearl_args, "--K", str(K)]
    return Op(f"spectrum {name} K={K}", argv, reference, checks.check_spectrum)


def _limiting_op(name: str, pearl_args: list[str], K: int, start: str, reference,
                 closed_form: bool = False) -> Op:
    argv = ["limiting", *pearl_args, "--K", str(K), "--start", start]
    if closed_form:
        argv.append("--closed-form")
    return Op(f"limiting {name} K={K}", argv, reference, checks.check_limiting)


def spectra_large_k(rng: random.Random, size: dict, threads: int,
                    workdir: str) -> list[Op]:
    from necklace_walks import comb_analytics, graphs

    ops = []
    K1, K2, Kc, Kr = size["comb1"], size["comb2"], size["cycle"], size["random"]

    j1 = rng.randrange(K1)
    ops.append(_spectrum_op("comb-d1", _pearl_args(1), K1,
                            lambda: {"table": checks.comb_sector_table(1, K1)}))
    ops.append(_limiting_op(
        "comb-d1", _pearl_args(1), K1, f"{j1},base",
        lambda: {"n": 2 * K1, "pi": np.array([
            comb_analytics.comb1_limiting(K1, "base", kind, j, j1 + 1)
            for j in range(1, K1 + 1) for kind in ("base", "tooth")])},
        closed_form=True))

    j2 = rng.randrange(K2)
    ops.append(_spectrum_op("comb-d2", _pearl_args(2), K2,
                            lambda: {"table": checks.comb_sector_table(2, K2)}))
    ops.append(_limiting_op("comb-d2", _pearl_args(2), K2, f"{j2},tooth",
                            lambda: {"n": 3 * K2}))

    jc = rng.randrange(Kc)
    ops.append(_limiting_op(
        "cycle", _pearl_args(0), Kc, f"{jc}",
        lambda: {"n": Kc, "pi": np.array([
            comb_analytics.cycle_limiting(Kc, x, jc + 1) for x in range(1, Kc + 1)])}))

    pearl_obj = random_pearl(rng)
    path = os.path.join(workdir, "random_pearl.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(pearl_obj, handle)
    pearl_args = ["--pearl-file", path]
    jr, mr = rng.randrange(Kr), rng.randrange(RANDOM_PEARL_M)

    def random_reference() -> dict:
        # Dense diagonalization of the full Hamiltonian, no sector structure.
        necklace = graphs.NecklaceSpec(graphs.pearl_from_json(pearl_obj), Kr)
        return {"sorted": np.linalg.eigvalsh(graphs.assemble_hamiltonian(necklace))}

    ops.append(_spectrum_op("random", pearl_args, Kr, random_reference))
    ops.append(_limiting_op("random", pearl_args, Kr, f"{jr},{mr}",
                            lambda: {"n": RANDOM_PEARL_M * Kr}))
    return ops


def log_spaced_range(lo: int, hi: int) -> list[int]:
    """The K values gap-scan expands 'lo..hi' to: 2 per octave, rounded, unique."""
    count = max(2, int(round(2 * math.log2(hi / lo))) + 1)
    grid = np.round(np.logspace(math.log10(lo), math.log10(hi), count))
    return [int(k) for k in np.unique(grid)]


def _gap_scan_op(d_arg: str, k_arg: str, threads: int) -> Op:
    d_list = [int(d) for d in d_arg.split(",")]
    k_list = log_spaced_range(*(int(k) for k in k_arg.split("..")))
    argv = ["gap-scan", "--d", d_arg, "--K", k_arg, "--threads", str(threads)]

    def reference() -> dict:
        records = {}
        for d in d_list:
            for K in k_list:
                if d <= 2:
                    gap, scale = checks.closed_form_gap(d, K)
                    records[(d, K)] = {"gap": gap, "tau": checks.TAU_REL * scale,
                                       "closed_form": True}
                    continue
                values = np.sort(checks.sector_eigenvalues(_pearl(d), K))
                tau = checks.TAU_REL * float(np.abs(values).max())
                diffs = np.diff(values)
                records[(d, K)] = {"gap": float(diffs[diffs > tau].min()), "tau": tau,
                                   "closed_form": False}
        return {"records": records}

    return Op(f"gap-scan d={d_arg}", argv, reference, checks.check_gap_scan,
              records=len(d_list) * len(k_list))


def gap_scan(rng: random.Random, size: dict, threads: int, workdir: str) -> list[Op]:
    return [_gap_scan_op(d_arg, k_arg, threads) for d_arg, k_arg in size["scans"]]


WORKLOADS = {
    "mix-curve": mix_curve,
    "spectra-largeK": spectra_large_k,
    "gap-scan": gap_scan,
}


def build(workload: str, seed: int, size: str, threads: int, workdir: str) -> list[Op]:
    """Operations of one workload run, generated from ``seed``."""
    ops = WORKLOADS[workload](random.Random(seed), SIZES[size][workload], threads, workdir)
    for i, op in enumerate(ops):
        op.argv += ["--output", os.path.join(workdir, f"op{i}.csv")]
    return ops
