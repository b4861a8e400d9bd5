"""Per-layer tolerance schedules and whole-model conversion."""

from __future__ import annotations

import fnmatch
from dataclasses import dataclass

from .costs import DEFAULT_C_RATIO, DEFAULT_X, CostReport, cost_report
from .costs import flops_per_layer  # noqa: F401  (bench/workloads.py calls planner.flops_per_layer)
from .errors import FormatError
from .manifest import ModelManifest, is_number, load_json, manifest_to_dict
from .residual import DEFAULT_R_MAX, QuantizedModel, ternary_residual
from .tensors import Tensor

# Tolerance-squared anchors mirroring a deep-network band schedule: tight
# for the earliest layers, loose for the last ones.
DEPTH_GRADED_LO = 0.005
DEPTH_GRADED_HI = 0.06


@dataclass(frozen=True)
class BudgetSchedule:
    """Every parametric layer's squared tolerance, by layer name."""

    epsilon_sq: dict[str, float]
    mode: str

    def __post_init__(self):
        for name, eps_sq in self.epsilon_sq.items():
            if not (0.0 < eps_sq <= 1.0):
                raise ValueError(
                    f"epsilon_sq must be in (0, 1], got {eps_sq} for layer {name!r}")
        # Plain floats, as a model's provenance stores them in JSON.
        object.__setattr__(self, "epsilon_sq",
                           {name: float(e) for name, e in self.epsilon_sq.items()})


def make_schedule(
    manifest: ModelManifest,
    mode: str,
    *,
    epsilon_sq: float | None = None,
    lo: float = DEPTH_GRADED_LO,
    hi: float = DEPTH_GRADED_HI,
    cap: float | None = None,
    flops: dict[str, int] | None = None,
) -> BudgetSchedule:
    """Build a tolerance schedule over the manifest's parametric layers.

    uniform:        the same epsilon_sq everywhere.
    depth_graded:   epsilon_sq grows linearly from ``lo`` (first parametric
                    layer) to ``hi`` (last) - earlier layers are tighter
                    because their perturbations get magnified the most.
    compute_aware:  the same lo..hi ladder over the layers ranked by
                    multiply count, so the heaviest gets the loosest budget.

    ``cap`` bounds every rung of the ladder. Schedule files with explicit
    patterns go through ``load_schedule``.
    """
    names = [l.name for l in manifest.parametric_layers()]
    if not names:
        raise ValueError("manifest has no parametric layers")
    if mode == "uniform":
        if epsilon_sq is None:
            raise ValueError("uniform schedule needs epsilon_sq")
        return BudgetSchedule(dict.fromkeys(names, epsilon_sq), mode)
    if mode == "compute_aware":
        if flops is None:
            raise ValueError("compute_aware schedule needs per-layer flops")
        names.sort(key=lambda n: (flops.get(n, 0), n))
    elif mode != "depth_graded":
        raise ValueError(f"unknown schedule mode {mode!r}")
    # The ladder is computed in Python floats, whatever type the bounds came in.
    lo, hi, cap = float(lo), float(hi), None if cap is None else float(cap)
    if not (0.0 < lo <= hi <= 1.0):
        raise ValueError(f"need 0 < lo <= hi <= 1, got lo={lo}, hi={hi}")
    if cap is not None and not cap > 0.0:
        raise ValueError(f"cap must be a number above 0, got {cap}")
    top = float("inf") if cap is None else cap
    last = max(len(names) - 1, 1)
    ladder = {n: min(lo + (hi - lo) * (rank / last), top) for rank, n in enumerate(names)}
    return BudgetSchedule(ladder, mode)


def load_schedule(path, manifest: ModelManifest) -> BudgetSchedule:
    """Read a JSON schedule, a list of {"pattern": ..., "epsilon_sq": ...};
    each parametric layer's name must match exactly one glob pattern."""
    path = str(path)
    try:
        entries = [(e["pattern"], e["epsilon_sq"]) for e in load_json(path)]
    except (KeyError, TypeError) as exc:
        raise FormatError(
            f"{path}: schedule entries need 'pattern' and 'epsilon_sq' ({exc})"
        ) from exc
    for pattern, eps_sq in entries:
        if not isinstance(pattern, str) or not is_number(eps_sq):
            raise FormatError(f"{path}: schedule entry {pattern!r}: 'pattern' must be "
                              f"a string and 'epsilon_sq' a number, got {eps_sq!r}")
    resolved = {}
    for layer in manifest.parametric_layers():
        matches = [float(eps_sq) for pattern, eps_sq in entries
                   if fnmatch.fnmatchcase(layer.name, pattern)]
        if len(matches) != 1:
            raise ValueError(
                f"layer {layer.name!r} matched {len(matches)} schedule entries, "
                f"expected exactly one"
            )
        resolved[layer.name] = matches[0]
    return BudgetSchedule(resolved, "explicit")


def convert_model(
    manifest: ModelManifest,
    weights: dict[str, tuple[Tensor, Tensor | None]],
    block_size: int,
    schedule: BudgetSchedule,
    r_max: int = DEFAULT_R_MAX,
    x: float = DEFAULT_X,
    c_ratio: float = DEFAULT_C_RATIO,
) -> tuple[QuantizedModel, CostReport]:
    """Quantize every parametric layer under its scheduled tolerance.

    Deterministic for fixed inputs; layers convert one after another in
    manifest order.
    """
    names = [l.name for l in manifest.parametric_layers()]
    missing = [n for n in names if n not in schedule.epsilon_sq]
    if missing:
        raise ValueError(f"the schedule has no epsilon_sq for layers {missing}")
    epsilon_sq = {n: schedule.epsilon_sq[n] for n in names}
    # The empty model's report rejects a bad x or c_ratio before any layer converts.
    cost_report(QuantizedModel({}, ()), x=x, c_ratio=c_ratio)

    qlayers = tuple(
        ternary_residual(weights[name][0], block_size, epsilon_sq=eps_sq, r_max=r_max)
        for name, eps_sq in epsilon_sq.items()
    )

    provenance = {
        "N": int(block_size),
        "r_max": int(r_max),
        "schedule_mode": schedule.mode,
        "epsilon_sq": epsilon_sq,
    }
    model = QuantizedModel(manifest_to_dict(manifest), qlayers, provenance)

    return model, cost_report(model, x=x, c_ratio=c_ratio)
