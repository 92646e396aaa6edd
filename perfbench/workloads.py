"""Seeded inputs for the two workloads.

Each seed draws parameters from fixed narrow bands (listed beside each draw),
so every seed does the same amount of work and a result can be rechecked on
a held-out seed. The library sees only the generated op list.

An op is one top-level library call or one CLI invocation. `rows` is the
number of result rows it produces, which feeds rows_per_s.
"""

from __future__ import annotations

import random

WORKLOADS = ("kernel_oracle", "app_tables")
DEFAULT_SEED = 20180305


def _call(op_id, fn, *args, **kwargs):
    return {"id": op_id, "kind": "call", "fn": fn, "args": list(args), "kwargs": kwargs, "rows": 1}


def _distinct(rng: random.Random, lo: int, hi: int, k: int) -> list[int]:
    """k distinct port counts, so no series result could be reused."""
    return rng.sample(range(lo, hi + 1), k)


def _kernel_scaling(rng: random.Random, tiny: bool) -> list[dict]:
    """Closed-form kernel at large, all-distinct port counts; no eigensolves."""
    # port-count bands (+-1% around 1e5 and 2e4; 4e3..5e3 for the mpmath check)
    large, mid, small = ((1980, 2020), (990, 1010), (400, 500)) if tiny else (
        (99_000, 101_000), (19_800, 20_200), (4000, 5000))
    m_xi, m_ad = _distinct(rng, *large, 2)
    m_fe = rng.randint(*mid)
    m_small = rng.randint(*small)
    p = rng.uniform(0.2, 0.4)
    ops = [
        _call("xi_large", "pbt.xi", m_xi),
        _call("delta_ad_large", "pbt.delta_ad", m_ad, p),
        _call("f_e_mid", "pbt.entanglement_fidelity_qubit", m_fe),
        _call("xi_mid", "pbt.xi", m_fe),
        _call("xi_small", "pbt.xi", m_small),
    ]
    for n in (20, 200) if tiny else (20, 200, 2000):
        # 1 - F in [0.5, 1.5] * 1e-3 / n^2 keeps the Fuchs term below 1 at the optimum.
        F = 1.0 - rng.uniform(0.5e-3, 1.5e-3) / n**2
        for d in (2, 3):
            ops.append(_call(f"bound_n{n}_d{d}", "discrimination.bound_B_optimized", n, d, F=F))
    return ops


def _oracle_check(rng: random.Random, tiny: bool) -> list[dict]:
    """Brute-force oracle up to dimension 256 plus the scalar diamond criterion."""
    m_max = 5 if tiny else 7
    ops = []
    for M in range(2, m_max + 1):
        ops.append(_call(f"oracle_xi_M{M}", "pbt_oracle.oracle_xi", M))
        ops.append(_call(f"oracle_choi_M{M}", "pbt_oracle.oracle_channel_choi", M))
    # one damping probability from each of [0.1, 0.2], [0.4, 0.5], [0.7, 0.8]
    for j in range(3):
        p = rng.uniform(0.1 + 0.3 * j, 0.2 + 0.3 * j)
        for M in range(2, m_max + 1):
            ops.append({"id": f"diamond_p{j}_M{M}", "kind": "diamond_ad", "p": p, "M": M, "rows": 1})
    return ops


def kernel_oracle(rng: random.Random, tiny: bool) -> list[dict]:
    """Few, large computations: the closed-form kernel at up to 1e5 ports, then
    the brute-force oracle at up to 256 dimensions. A pass lasts about a
    second, so a run holds enough cold passes for each op's fastest time to
    be steady. The two halves load
    different layers (pbt vs pbt_oracle and numpy eigensolves); the traced run
    and the per-op times printed by run.py keep them apart."""
    return _kernel_scaling(rng, tiny) + _oracle_check(rng, tiny)


def _cli(op_id, *argv, rows):
    return {"id": op_id, "kind": "cli", "argv": [str(a) for a in argv], "rows": rows}


def app_tables(rng: random.Random, tiny: bool) -> list[dict]:
    """Every CLI subcommand in-process: many small validated matrices, repeated M."""
    m_max, oracle_m, ad_steps, met_steps = (10, 4, 3, 5) if tiny else (64, 6, 37, 61)
    ad_lo, ad_hi = rng.uniform(0.78, 0.82), rng.uniform(0.96, 0.98)
    eta = rng.uniform(0.005, 0.02)
    b = rng.uniform(0.5e-3, 2e-3)
    ill_lo, ill_hi = rng.uniform(0.5e-4, 2e-4), rng.uniform(0.008, 0.012)
    met_lo, met_hi = rng.uniform(0.18, 0.22), rng.uniform(0.78, 0.82)
    # e_r draws: one from each of [0.8, 1.2] * 1e-4, 1e-3, 1e-2 (shared by d = 2 and 3)
    e_r = ",".join(repr(rng.uniform(0.8, 1.2) * 10.0**k) for k in (-4, -3, -2))
    return [
        _cli("xi_table", "xi-table", "--m-max", m_max, rows=m_max - 1),
        _cli("oracle_verify", "oracle-verify", "--m-max", oracle_m, rows=oracle_m - 1),
        _cli("ad_sweep", "ad-sweep", "--steps", ad_steps, "--p-min", repr(ad_lo), "--p-max", repr(ad_hi),
             rows=ad_steps),
        _cli("resolution", "resolution", "--eta", repr(eta), rows=11),
        _cli("illumination", "illumination", "--d", 8, "--b", repr(b), "--eta-min", repr(ill_lo),
             "--eta-max", repr(ill_hi), rows=10),
        _cli("metrology", "metrology", "--steps", met_steps, "--p-min", repr(met_lo), "--p-max", repr(met_hi),
             rows=met_steps),
        _cli("keyrate_d2", "keyrate", "--d", 2, "--e-r-list", e_r, rows=3),
        _cli("keyrate_d3", "keyrate", "--d", 3, "--e-r-list", e_r, rows=3),
    ]


def make_ops(workload: str, seed: int, tiny: bool = False) -> list[dict]:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"{workload}:{seed}")
    return globals()[workload](rng, tiny)
