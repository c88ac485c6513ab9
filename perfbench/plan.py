"""Workload inputs, derived from the benchmark seed alone.

Imported by both sides: ``child.py`` turns these plain descriptions into
leveltopo objects, and ``run.py``/``checks.py`` use them to regenerate data
and to know what the outputs must cover.  Only numpy is imported here, so
the checking side never depends on the program it checks.
"""

from __future__ import annotations

import numpy as np

WORKLOADS = ("narrow-3a", "wide-3b", "nonsingular-sweep", "oracle-audit")

# ring data of the reference experiments (ExperimentSpec defaults)
RING = {"n_inner": 500, "n_ring": 1000, "inner_sigma": 0.5, "ring_radius": 3.0,
        "ring_sigma": 0.3}
CONVERGENCE_LOSS = 0.35
TARGET_LOSS = 0.05
DECISION_LEVEL = 0.5

# narrow-3a: the published 3a protocol on a subset of its 20 seeds.  Six
# seeds keep three per worker on two cores; all 20 published seeds run the
# full 20 000 steps, so every subset does the same training work.
NARROW_ARCH = (2, 2, 2, 2, 2, 2, 2, 1)
NARROW_STEPS = 20000
NARROW_PUBLISHED_SEEDS = 20
NARROW_SEEDS = 6

# wide-3b: the 3b protocol on 100 seeds drawn from a large range
WIDE_ARCH = (2, 3, 1)
WIDE_STEPS = 5000
WIDE_SEEDS = 100
WIDE_SEED_RANGE = 10 ** 6

# nonsingular-sweep: `sweep-nonsingular --count 100` at its defaults
SWEEP_COUNT = 100
SWEEP_LEVELS_PER_NET = 5
SWEEP_WINDOW = (-4.0, 4.0)
SWEEP_DELTA = 1e-3

# oracle-audit: criterion-7 style construction audits and criterion-6 style
# contour/band-oracle audits, 20 nets each
AUDIT_CONSTRUCT_NETS = 20
AUDIT_ORACLE_NETS = 20
AUDIT_CONSTRUCT_WINDOW = (-4.0, 4.0)
AUDIT_ORACLE_WINDOW = (-3.0, 3.0)
AUDIT_RESOLUTION = 201
AUDIT_LEVELS_PER_NET = 5
AUDIT_DELTA = 1e-3
AUDIT_PAD_POINTS = 1000


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), stream])


def narrow_seeds(seed: int) -> list[int]:
    rng = _rng(seed, 1)
    return sorted(int(s) for s in rng.choice(NARROW_PUBLISHED_SEEDS, NARROW_SEEDS,
                                             replace=False))


def wide_seeds(seed: int) -> list[int]:
    rng = _rng(seed, 2)
    return sorted(int(s) for s in rng.choice(WIDE_SEED_RANGE, WIDE_SEEDS, replace=False))


def sweep_seed(seed: int) -> int:
    return int(_rng(seed, 3).integers(2 ** 31))


def audit_nets(seed: int) -> list[dict]:
    """One description per audited net.

    Construction nets have hidden width 2 except for one width-1 layer, so
    padding always adds a zero row and the padded, unperturbed net is a
    negative control for ``is_nonsingular``.  They are sigmoid nets.  Nets
    with several width-1 layers, and ``one_to_one_relu`` nets, are left out:
    ``check_injective_on_grid`` rejects some of those non-singular trunks,
    depending on the seed.  Oracle nets have hidden widths in {2, 3}, so
    their level sets may hold bounded components.
    """
    rng = _rng(seed, 4)
    nets = []
    for _ in range(AUDIT_CONSTRUCT_NETS):
        depth = int(rng.integers(1, 7))
        hidden = [2] * depth
        hidden[int(rng.integers(depth))] = 1
        nets.append({"kind": "construct", "arch": [2, *hidden, 1],
                     "activation": ["sigmoid", None],
                     "init_seed": int(rng.integers(2 ** 31)),
                     "perturb_seed": int(rng.integers(2 ** 31)),
                     "again_seed": int(rng.integers(2 ** 31)),
                     "points_seed": int(rng.integers(2 ** 31))})
    for _ in range(AUDIT_ORACLE_NETS):
        depth = int(rng.integers(1, 4))
        hidden = [int(rng.integers(2, 4)) for _ in range(depth)]
        nets.append({"kind": "oracle", "arch": [2, *hidden, 1],
                     "activation": ["sigmoid", None],
                     "init_seed": int(rng.integers(2 ** 31)),
                     "levels_seed": int(rng.integers(2 ** 31))})
    return nets


def operations(workload: str) -> int:
    """Operations one round of ``workload`` attempts."""
    return {"narrow-3a": NARROW_SEEDS, "wide-3b": WIDE_SEEDS,
            "nonsingular-sweep": SWEEP_COUNT,
            "oracle-audit": AUDIT_CONSTRUCT_NETS + AUDIT_ORACLE_NETS}[workload]
