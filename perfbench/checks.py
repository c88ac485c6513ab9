"""Correctness checks on a workload's outputs, independent of leveltopo.

Nothing here imports the program.  Networks are read from the stored JSON
and evaluated by the benchmark's own numpy forward pass; ring data are
regenerated from their seeds; determinants come from ``numpy.linalg.det``;
winding numbers and frame distances are computed here.  Each ``check_*``
returns ``(attempted, failed, problems)``: operations attempted, operations
that failed (an error reported by the program), and every violated property
of the operations that did not fail.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

import plan

# a component touches the frame within this many cell diagonals
BOUNDARY_TOL_CELLS = 1.5
# the program's membership threshold on |det| of row-max-scaled matrices,
# less a margin for the different rounding of numpy.linalg.det
DET_FLOOR = 1e-9 * (1.0 - 1e-6)
# the stored final loss is taken before the last optimizer update when a run
# uses all its steps; one Adam step (learning rate 0.05) moved the loss by at
# most 0.0091 over the 20 published 3a seeds.  An early-stopped run stores
# the weights its final loss was computed with.
LOSS_TOL_FULL_RUN = 0.02
LOSS_TOL_STOPPED = 1e-9
# the program and this file compute accuracy with the same arithmetic; two
# points of slack leave room for last-bit differences at the threshold
ACCURACY_SLACK_POINTS = 2


def ring_dataset(seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The two-class ring data for ``seed`` (blob label 0 inside ring label 1)."""
    r = plan.RING
    rng = np.random.default_rng(seed)
    inner = rng.normal(0.0, r["inner_sigma"], size=(r["n_inner"], 2))
    radii = rng.normal(r["ring_radius"], r["ring_sigma"], size=r["n_ring"])
    angles = rng.uniform(0.0, 2.0 * math.pi, size=r["n_ring"])
    ring = np.stack([radii * np.cos(angles), radii * np.sin(angles)], axis=1)
    labels = np.concatenate([np.zeros(r["n_inner"]), np.ones(r["n_ring"])])
    return np.concatenate([inner, ring]), labels


def _activation(spec: dict):
    kind, sharpness = spec["kind"], spec.get("sharpness")
    if kind == "sigmoid":
        return lambda z: 1.0 / (1.0 + np.exp(-z))
    if kind == "tanh":
        return np.tanh
    if kind == "relu":
        return lambda z: np.maximum(z, 0.0)
    if kind == "one_to_one_relu":
        return lambda z: np.where(z >= 0, z, np.arctan(z) / sharpness)
    raise ValueError(f"unknown activation {kind!r}")


def forward(net: dict, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Output and last pre-activation of a stored network on points (m, n).

    Each unit sums its inputs left to right, so a zero-padded network gives
    bitwise the same values as the network it pads.
    """
    act = _activation(net["activation"])
    layers = net["layers"]
    a = np.asarray(x, dtype=np.float64)
    with np.errstate(over="ignore"):
        for i, layer in enumerate(layers):
            w = np.asarray(layer["weights"], dtype=np.float64)
            b = np.asarray(layer["bias"], dtype=np.float64)
            z = np.empty((a.shape[0], w.shape[0]))
            for j in range(w.shape[0]):
                acc = a[:, 0] * w[j, 0]
                for k in range(1, w.shape[1]):
                    acc = acc + a[:, k] * w[j, k]
                z[:, j] = acc + b[j]
            a = act(z) if (i < len(layers) - 1 or net["final_activation"]) else z
    return a, z


def hidden_widths(net: dict) -> list[int]:
    return [len(layer["bias"]) for layer in net["layers"][:-1]]


def scaled_dets(net: dict) -> list[float]:
    """|det| of every hidden weight matrix after scaling rows to max-abs 1."""
    dets = []
    for layer in net["layers"][:-1]:
        w = np.asarray(layer["weights"], dtype=np.float64)
        row_max = np.max(np.abs(w), axis=1)
        if w.shape[0] != w.shape[1] or np.any(row_max == 0.0):
            dets.append(0.0)
        else:
            dets.append(abs(float(np.linalg.det(w / row_max[:, None]))))
    return dets


def _grid(report: dict):
    """Window corners and the lattice axes the stored contours were cut on."""
    lo = np.asarray(report["window"]["lo"], dtype=np.float64)
    hi = np.asarray(report["window"]["hi"], dtype=np.float64)
    res = report["resolution"]
    return lo, hi, np.linspace(lo[0], hi[0], res[0]), np.linspace(lo[1], hi[1], res[1])


def frame_distance(points: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    return np.min(np.minimum(points - lo, hi - points), axis=1)


def vertices_off_level(net: dict, report: dict) -> int:
    """Stored contour vertices that do not lie on the report's level.

    Marching squares puts each vertex on a grid edge whose end nodes
    straddle the level, where the linear interpolation of the two node
    values equals the level.  A vertex passes when it lies on a grid line,
    between the neighbouring nodes on that line, those nodes (evaluated here)
    straddle the level, and the vertex is within a millionth of a grid
    spacing of the interpolated crossing, widened by the position error that
    a last-digit difference in the node values would cause.
    """
    chains = [np.asarray(c, dtype=np.float64)
              for comp in report["components"] for c in comp["polylines"]]
    if not chains:
        return 0
    verts = np.concatenate(chains)
    lo, hi, xs, ys = _grid(report)
    level = report["level"]
    ix = np.clip(np.searchsorted(xs, verts[:, 0], side="right") - 1, 0, len(xs) - 2)
    iy = np.clip(np.searchsorted(ys, verts[:, 1], side="right") - 1, 0, len(ys) - 2)
    on_y_line = (ys[iy] == verts[:, 1]) | (ys[iy + 1] == verts[:, 1])
    on_x_line = (xs[ix] == verts[:, 0]) | (xs[ix + 1] == verts[:, 0])
    # the edge runs along x when y sits on a grid line, else along y
    y_node = np.where(ys[iy + 1] == verts[:, 1], ys[iy + 1], ys[iy])
    x_node = np.where(xs[ix + 1] == verts[:, 0], xs[ix + 1], xs[ix])
    a = np.where(on_y_line[:, None], np.stack([xs[ix], y_node], axis=1),
                 np.stack([x_node, ys[iy]], axis=1))
    b = np.where(on_y_line[:, None], np.stack([xs[ix + 1], y_node], axis=1),
                 np.stack([x_node, ys[iy + 1]], axis=1))
    fa, fb = np.split(forward(net, np.concatenate([a, b]))[0][:, 0], 2)
    span = np.abs(fb - fa)
    straddles = (np.minimum(fa, fb) <= level) & (level <= np.maximum(fa, fb)) & (span > 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (level - fa) / (fb - fa)
        tol_t = 1e-6 + 1e-12 / span
    expected = a + t[:, None] * (b - a)
    spacing = np.linalg.norm(b - a, axis=1)
    near = np.linalg.norm(verts - expected, axis=1) <= tol_t * spacing
    ok = (on_y_line | on_x_line) & straddles & near
    return int(np.count_nonzero(~ok))


def winding_number(chain: np.ndarray, point=(0.0, 0.0)) -> int:
    rel = np.asarray(chain, dtype=np.float64) - np.asarray(point)
    angles = np.arctan2(rel[:, 1], rel[:, 0])
    turns = np.diff(angles)
    turns = (turns + math.pi) % (2.0 * math.pi) - math.pi
    return int(round(float(turns.sum()) / (2.0 * math.pi)))


def _components(report: dict):
    """(polylines, min frame distance, boundary tolerance) per component."""
    lo, hi, _xs, _ys = _grid(report)
    spacing = (hi - lo) / (np.asarray(report["resolution"]) - 1)
    tol = BOUNDARY_TOL_CELLS * float(np.linalg.norm(spacing))
    for comp in report["components"]:
        chains = [np.asarray(c, dtype=np.float64) for c in comp["polylines"]]
        dist = min(float(frame_distance(c, lo, hi).min()) for c in chains)
        yield chains, dist, tol


def _load(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _check_training(o: dict, steps: int, problems: list[str]) -> None:
    """Recompute final loss, convergence and accuracy from the stored weights."""
    seed = o["seed"]
    x, y = ring_dataset(seed)
    out, z = forward(o["network"], x)
    z = z[:, 0]
    loss = float(np.mean(np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z))) - y * z))
    stopped = o["final_loss"] <= plan.TARGET_LOSS
    if not (o["steps_run"] == steps or (stopped and o["steps_run"] < steps)):
        problems.append(f"seed {seed}: {o['steps_run']} steps with final loss "
                        f"{o['final_loss']}")
    tol = LOSS_TOL_STOPPED if stopped else LOSS_TOL_FULL_RUN
    if abs(loss - o["final_loss"]) > tol:
        problems.append(f"seed {seed}: loss of stored weights {loss} vs final "
                        f"{o['final_loss']}")
    if o["converged"] != (o["final_loss"] <= plan.CONVERGENCE_LOSS):
        problems.append(f"seed {seed}: converged flag {o['converged']} for loss "
                        f"{o['final_loss']}")
    if (abs(loss - plan.CONVERGENCE_LOSS) > tol
            and o["converged"] != (loss <= plan.CONVERGENCE_LOSS)):
        problems.append(f"seed {seed}: converged {o['converged']} but stored weights "
                        f"give loss {loss}")
    acc = float(np.mean((out[:, 0] >= 0.5) == (y == 1)))
    if abs(acc - o["accuracy"]) * len(y) > ACCURACY_SLACK_POINTS:
        problems.append(f"seed {seed}: accuracy {o['accuracy']} vs recomputed {acc}")


def _outcomes(report: dict, seeds: list[int], problems: list[str]):
    """The outcomes without an error, and how many seeds failed or are missing."""
    outcomes = report["outcomes"]
    got = [o["seed"] for o in outcomes]
    if got != list(seeds):
        problems.append(f"outcomes cover seeds {got}, expected {list(seeds)}")
    failed = sum(1 for o in outcomes if o["error"] is not None) + max(
        0, len(seeds) - len(outcomes))
    return [o for o in outcomes if o["error"] is None], failed


def _check_unbounded(label: str, net: dict, lv: dict, problems: list[str]) -> int:
    """The theorem on one level of a narrow net: every component comes within
    the boundary tolerance of the frame and none stays bounded; every vertex
    lies on the level.  Returns the number of components."""
    rep = lv["report"]
    count = 0
    for _chains, dist, tol in _components(rep):
        count += 1
        if dist > tol:
            problems.append(f"{label}: component {dist:.4g} from the frame "
                            f"(tolerance {tol:.4g})")
    if lv["bounded_final"] != 0:
        problems.append(f"{label}: {lv['bounded_final']} bounded")
    off = vertices_off_level(net, rep)
    if off:
        problems.append(f"{label}: {off} vertices off the level")
    return count


def check_narrow(out: Path, seed: int):
    """The theorem on trained narrow nets: no component is bounded."""
    seeds = plan.narrow_seeds(seed)
    report = _load(out / "report.json")
    problems: list[str] = []
    ok, failed = _outcomes(report, seeds, problems)
    for o in ok:
        if any(w > 2 for w in hidden_widths(o["network"])):
            problems.append(f"seed {o['seed']}: hidden widths "
                            f"{hidden_widths(o['network'])} exceed the input width 2")
        _check_training(o, plan.NARROW_STEPS, problems)
        components = 0
        for lv in o["levels"]:
            if lv["report"]["level"] != plan.DECISION_LEVEL:
                problems.append(f"seed {o['seed']}: level {lv['report']['level']}")
            components += _check_unbounded(f"seed {o['seed']}", o["network"], lv, problems)
        if o["converged"] and components == 0:
            problems.append(f"seed {o['seed']}: converged but no boundary component")
    return len(seeds), failed, problems


def check_wide(out: Path, seed: int):
    """Wide nets: every counted origin loop is closed, winds, clears the frame."""
    seeds = plan.wide_seeds(seed)
    report = _load(out / "report.json")
    problems: list[str] = []
    ok, failed = _outcomes(report, seeds, problems)
    for o in ok:
        if max(hidden_widths(o["network"])) <= 2:
            problems.append(f"seed {o['seed']}: not a wide net")
        _check_training(o, plan.WIDE_STEPS, problems)
        for lv in o["levels"]:
            rep = lv["report"]
            loops = 0
            for (chains, dist, tol), cls in zip(_components(rep),
                                                 lv["final_classifications"]):
                if cls != "bounded":
                    continue
                closed = len(chains) == 1 and np.array_equal(chains[0][0], chains[0][-1])
                if not closed or dist <= tol:
                    problems.append(f"seed {o['seed']}: bounded component closed="
                                    f"{closed}, {dist:.4g} from the frame")
                elif winding_number(chains[0]) != 0:
                    loops += 1
            if loops != lv["bounded_enclosing_origin"]:
                problems.append(f"seed {o['seed']}: {loops} loops wind about the origin, "
                                f"report says {lv['bounded_enclosing_origin']}")
            off = vertices_off_level(o["network"], rep)
            if off:
                problems.append(f"seed {o['seed']}: {off} vertices off the level")
    return len(seeds), failed, problems


def check_sweep(out: Path, seed: int):
    """Random non-singular nets: narrow, invertible, and no bounded component."""
    report = _load(out / "report.json")
    problems: list[str] = []
    ok, failed = _outcomes(report, list(range(plan.SWEEP_COUNT)), problems)
    spec = report["config"]["spec"]
    if spec["seed"] != plan.sweep_seed(seed) or spec["count"] != plan.SWEEP_COUNT:
        problems.append(f"sweep ran seed {spec['seed']} count {spec['count']}")
    for o in ok:
        net = o["network"]
        if any(w > 2 for w in hidden_widths(net)):
            problems.append(f"net {o['seed']}: hidden widths {hidden_widths(net)}")
        dets = scaled_dets(net)
        if min(dets) < DET_FLOOR:
            problems.append(f"net {o['seed']}: singular hidden matrix, dets {dets}")
        if len(o["levels"]) != plan.SWEEP_LEVELS_PER_NET:
            problems.append(f"net {o['seed']}: {len(o['levels'])} levels")
        for lv in o["levels"]:
            if _check_unbounded(f"net {o['seed']}", net, lv, problems) == 0:
                problems.append(f"net {o['seed']}: level {lv['level']} has no contour")
    return plan.SWEEP_COUNT, failed, problems


def _check_construct(k: int, r: dict, desc: dict, problems: list[str]) -> None:
    net, padded, fixed = r["net"], r["padded"], r["fixed"]
    for a, b in zip(net["layers"], padded["layers"]):
        w, pw = np.asarray(a["weights"]), np.asarray(b["weights"])
        bias, pbias = np.asarray(a["bias"]), np.asarray(b["bias"])
        block = pw[:w.shape[0], :w.shape[1]]
        rest = pw.copy()
        rest[:w.shape[0], :w.shape[1]] = 0.0
        if (not np.array_equal(block, w) or np.any(rest)
                or not np.array_equal(pbias[:len(bias)], bias) or np.any(pbias[len(bias):])):
            problems.append(f"net {k}: padding changed or added nonzero weights")
    points = np.random.default_rng(desc["points_seed"]).uniform(
        *plan.AUDIT_CONSTRUCT_WINDOW, size=(plan.AUDIT_PAD_POINTS, 2))
    if not np.array_equal(forward(net, points)[0], forward(padded, points)[0]):
        problems.append(f"net {k}: padded net differs bitwise from the original")
    if not r["program_pad_exact"]:
        problems.append(f"net {k}: the program's forward pass sees padding change values")
    if any(w != 2 for w in hidden_widths(fixed)):
        problems.append(f"net {k}: padded widths {hidden_widths(fixed)}")
    if min(scaled_dets(fixed)) < DET_FLOOR or not r["verdict"]:
        problems.append(f"net {k}: perturbed net not non-singular, dets "
                        f"{scaled_dets(fixed)}, verdict {r['verdict']}")
    for a, b in zip(padded["layers"], fixed["layers"]):
        if np.max(np.abs(np.asarray(a["weights"]) - np.asarray(b["weights"]))) > plan.AUDIT_DELTA:
            problems.append(f"net {k}: perturbation exceeds delta {plan.AUDIT_DELTA}")
    if not r["idempotent"]:
        problems.append(f"net {k}: make_nonsingular not idempotent")
    if not r["injective"]:
        problems.append(f"net {k}: trunk fails the injectivity witness")
    if r["collapsed_injective"]:
        problems.append(f"net {k}: zeroed first layer passes the injectivity witness")
    if r["unperturbed_verdict"] or min(scaled_dets(padded)) != 0.0:
        problems.append(f"net {k}: padded, unperturbed net accepted as non-singular")


def check_audit(out: Path, seed: int):
    """Construction exactness, injectivity, negative controls, oracle agreement."""
    descs = plan.audit_nets(seed)
    nets = _load(out / "audit.json")["nets"]
    problems: list[str] = []
    if len(nets) != len(descs):
        problems.append(f"{len(nets)} audits for {len(descs)} nets")
    failed = max(0, len(descs) - len(nets))
    for k, (desc, r) in enumerate(zip(descs, nets)):
        if "error" in r:
            failed += 1
        elif desc["kind"] == "construct":
            _check_construct(k, r, desc, problems)
        else:
            if len(r["compares"]) != plan.AUDIT_LEVELS_PER_NET:
                problems.append(f"net {k}: {len(r['compares'])} levels compared")
            for level, c in zip(r["levels"], r["compares"]):
                if not c["agree"] or c["issues"] or c["contour_count"] != c["band_count"]:
                    problems.append(f"net {k} level {level:.6g}: oracle and contours "
                                    f"disagree: {c}")
    return len(descs), failed, problems


CHECKS = {"narrow-3a": check_narrow, "wide-3b": check_wide,
          "nonsingular-sweep": check_sweep, "oracle-audit": check_audit}
