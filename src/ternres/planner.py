"""Per-layer tolerance schedules and whole-model conversion."""

from __future__ import annotations

import fnmatch
import json
from dataclasses import dataclass

from .costs import DEFAULT_C_RATIO, DEFAULT_X, CostReport, cost_report
from .costs import flops_per_layer  # noqa: F401  (bench/workloads.py calls planner.flops_per_layer)
from .errors import FormatError
from .manifest import ModelManifest, manifest_to_dict
from .residual import DEFAULT_R_MAX, QuantizedModel, ternary_residual
from .tensors import Tensor

SCHEDULE_MODES = ("uniform", "depth_graded", "compute_aware", "explicit")

# Tolerance-squared anchors mirroring a deep-network band schedule: tight
# for the earliest layers, loose for the last ones.
DEPTH_GRADED_LO = 0.005
DEPTH_GRADED_HI = 0.06


@dataclass(frozen=True)
class ScheduleEntry:
    pattern: str
    epsilon_sq: float

    def __post_init__(self):
        if not (0.0 < self.epsilon_sq <= 1.0):
            raise ValueError(
                f"epsilon_sq must be in (0, 1], got {self.epsilon_sq} for "
                f"pattern {self.pattern!r}"
            )


@dataclass(frozen=True)
class BudgetSchedule:
    entries: tuple[ScheduleEntry, ...]
    mode: str = "explicit"

    def __post_init__(self):
        if self.mode not in SCHEDULE_MODES:
            raise ValueError(f"unknown schedule mode {self.mode!r}")

    def epsilon_sq_for(self, layer_name: str) -> float:
        # Only schedule files hold glob patterns; built schedules hold names.
        match = fnmatch.fnmatchcase if self.mode == "explicit" else str.__eq__
        matches = [e for e in self.entries if match(layer_name, e.pattern)]
        if len(matches) != 1:
            raise ValueError(
                f"layer {layer_name!r} matched {len(matches)} schedule entries, "
                f"expected exactly one"
            )
        return matches[0].epsilon_sq

    def validate_against(self, manifest: ModelManifest) -> None:
        for layer in manifest.parametric_layers():
            self.epsilon_sq_for(layer.name)


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
    compute_aware:  layers ranked by multiply count; the heaviest gets the
                    loosest budget on a lo..hi ladder (optionally capped).

    Schedule files with explicit patterns go through ``load_schedule``.
    """
    names = [l.name for l in manifest.parametric_layers()]
    if not names:
        raise ValueError("manifest has no parametric layers")

    if mode == "uniform":
        if epsilon_sq is None:
            raise ValueError("uniform schedule needs epsilon_sq")
        built = [ScheduleEntry(n, epsilon_sq) for n in names]
    elif mode == "depth_graded":
        if not (0.0 < lo <= hi <= 1.0):
            raise ValueError(f"need 0 < lo <= hi <= 1, got lo={lo}, hi={hi}")
        built = []
        for i, n in enumerate(names):
            frac = i / (len(names) - 1) if len(names) > 1 else 0.0
            built.append(ScheduleEntry(n, lo + (hi - lo) * frac))
    elif mode == "compute_aware":
        if not (0.0 < lo <= hi <= 1.0):
            raise ValueError(f"need 0 < lo <= hi <= 1, got lo={lo}, hi={hi}")
        if flops is None:
            raise ValueError("compute_aware schedule needs per-layer flops")
        order = sorted(names, key=lambda n: (flops.get(n, 0), n))
        built_map = {}
        for rank, n in enumerate(order):
            frac = rank / (len(order) - 1) if len(order) > 1 else 0.0
            eps_sq = lo + (hi - lo) * frac
            if cap is not None:
                eps_sq = min(eps_sq, cap)
            built_map[n] = eps_sq
        built = [ScheduleEntry(n, built_map[n]) for n in names]
    else:
        raise ValueError(f"unknown schedule mode {mode!r}")

    schedule = BudgetSchedule(tuple(built), mode)
    schedule.validate_against(manifest)
    return schedule


def load_schedule(path) -> BudgetSchedule:
    """Read a JSON schedule: a list of {"pattern": ..., "epsilon_sq": ...}."""
    path = str(path)
    with open(path, "r", encoding="utf-8") as fp:
        try:
            doc = json.load(fp)
        except json.JSONDecodeError as exc:
            raise FormatError(f"{path}: invalid JSON ({exc})") from exc
    try:
        entries = tuple(
            ScheduleEntry(str(e["pattern"]), float(e["epsilon_sq"])) for e in doc
        )
    except (KeyError, TypeError) as exc:
        raise FormatError(
            f"{path}: schedule entries need 'pattern' and 'epsilon_sq' ({exc})"
        ) from exc
    return BudgetSchedule(entries, "explicit")


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
    schedule.validate_against(manifest)
    layers = manifest.parametric_layers()

    qlayers = tuple(
        ternary_residual(
            weights[l.name][0], block_size,
            epsilon_sq=schedule.epsilon_sq_for(l.name), r_max=r_max,
        )
        for l in layers
    )

    provenance = {
        "N": block_size,
        "r_max": r_max,
        "schedule_mode": schedule.mode,
        "epsilon_sq": {l.name: schedule.epsilon_sq_for(l.name) for l in layers},
    }
    model = QuantizedModel(manifest_to_dict(manifest), qlayers, provenance)

    return model, cost_report(model, x=x, c_ratio=c_ratio)
