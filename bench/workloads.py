"""The ternres benchmark workloads, their output checks and their metrics.

Each workload generates a seeded model as NPY files plus a JSON manifest
and then drives the public ``ternres`` API the way one CLI command does:

- ``convert_mlp``: ``ternres quantize`` on an MLP whose layer sizes span 100x,
  so greedy conversion dominates and its cost per weight shows per layer.
- ``deploy_mlp``: ``ternres downgrade`` on a converted MLP: container load,
  level removal, container save; no conversion and no inference in a run.
- ``infer_conv``: ``ternres infer --act-quant`` on a converted conv net, where
  the paired simulator does all the work.

The program sees only the generated files; every array it returns is
checked (see ``check_*``) and an operation with a failed check counts as
failed.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import statistics
import traceback
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from ternres import container, manifest, planner, residual, simulate, tensors

from tracer import Tracer

BLOCK_SIZE = 64
R_MAX = 16
EPS = 0.1  # uniform schedules use epsilon_sq = EPS**2, as `quantize --eps 0.1`
SETUP_REPS = 3  # at least this many set-ups per run, and
SETUP_MIN_S = 4.0  # at least this long, so cheap set-ups get many samples
REFERENCE_BLOCKS = 4000
REFERENCE_S = 0.04  # the reference task on an uncontended core of a 2.1 GHz Xeon
DELTA_RTOL = 1e-6

SIZES = {
    "full": {
        "convert_mlp": (1024, 256, 250, 10),
        "deploy_mlp": (512, 192, 64, 10),
        "infer_conv": {"channels": (3, 32, 64, 64), "img": 32, "batch": 32, "classes": 10},
    },
    "smoke": {
        "convert_mlp": (64, 32, 20, 5),
        "deploy_mlp": (48, 24, 10, 4),
        "infer_conv": {"channels": (3, 4, 8, 8), "img": 8, "batch": 2, "classes": 10},
    },
}

MLP_LAYERS = ("fc1", "fc2", "fc3")
CONV_LAYERS = ("conv1", "conv2", "conv3", "fc1")

# Metrics every workload reports with tracing off: (name, unit, better).
# The same names mean the same stage of each workload's CLI path.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("load_s", "s", "lower"),
    ("op_s", "s", "lower"),
    ("save_s", "s", "lower"),
    ("blocks_factor", "levels/block", "lower"),
    ("delta", "ratio", "lower"),
)

# What op_s and delta are on each workload, under the names users know.
ALIASES = {
    "convert_mlp": {"op_s": "quantize_s"},
    "deploy_mlp": {"op_s": "downgrade_s", "delta": "downgrade_delta"},
    "infer_conv": {"op_s": "infer_s"},
}


def _per_layer_spec():
    spec = []
    for layer in MLP_LAYERS:
        spec += [
            (f"ternary.calls.{layer}", "count", "lower"),
            (f"ternary.self_s.{layer}", "s", "lower"),
            (f"residual.convert_s.{layer}", "s", "lower"),
            (f"residual.weights_per_s.{layer}", "weights/s", "higher"),
            (f"residual.select_self_s.{layer}", "s", "lower"),
            (f"residual.iterations.{layer}", "count", "lower"),
            (f"residual.levels_per_block.{layer}", "levels/block", "lower"),
        ]
    spec += [
        ("tensors.load_weights_s", "s", "lower"),
        ("planner.convert_model_s", "s", "lower"),
        ("costs.report_s", "s", "lower"),
        ("container.save_s", "s", "lower"),
        ("container.pack_calls", "count", "lower"),
        ("container.bytes_written", "B", "lower"),
        ("container.load_s", "s", "lower"),
        ("container.unpack_calls", "count", "lower"),
        ("container.bytes_read", "B", "lower"),
        ("container.load_mb_per_s", "MB/s", "higher"),
        ("residual.downgrade_removals", "count", "lower"),
        ("residual.removals_per_s", "1/s", "higher"),
        ("simulate.fp32_forward_s", "s", "lower"),
    ]
    for layer in CONV_LAYERS:
        spec += [
            (f"simulate.apply_s.{layer}", "s", "lower"),
            (f"simulate.apply_calls.{layer}", "count", "lower"),
        ]
    spec += [
        ("simulate.act_quant_s", "s", "lower"),
        ("residual.reconstruct_s", "s", "lower"),
        ("residual.reconstruct_calls", "count", "lower"),
        ("simulate.paired_self_s", "s", "lower"),
        ("simulate.paired_over_fp32", "ratio", "lower"),
        ("simulate.final_delta", "ratio", "lower"),
    ]
    for layer in CONV_LAYERS:
        spec += [
            (f"simulate.mults_computed.{layer}", "count", "lower"),
            (f"costs.predicted_mults.{layer}", "count", "lower"),
        ]
    spec.append(("trace.overhead_s", "s", "lower"))
    return tuple(spec)


PER_LAYER = _per_layer_spec()


# ---------------------------------------------------------------------------
# seeded inputs
# ---------------------------------------------------------------------------


def _save(work, filename, arr) -> str:
    np.save(os.path.join(work, filename), np.ascontiguousarray(arr, dtype="<f4"))
    return filename


def _write_manifest(work, layers, input_shape) -> str:
    path = os.path.join(work, "model.json")
    with open(path, "w", encoding="utf-8") as fp:
        json.dump({"layers": layers, "input_shape": list(input_shape)}, fp, indent=1)
    return path


def _fc(work, rng, name, fan_in, fan_out) -> dict:
    return {
        "name": name, "kind": "fc",
        "weight": _save(work, f"{name}.w.npy",
                        rng.normal(0.0, math.sqrt(2.0 / fan_in), (fan_out, fan_in))),
        "bias": _save(work, f"{name}.b.npy", rng.normal(0.0, 0.1, fan_out)),
    }


def write_mlp(work, rng, dims) -> str:
    """Gaussian MLP ``dims[0] -> ... -> dims[-1]`` with ReLUs in between."""
    layers = []
    for i, (fan_in, fan_out) in enumerate(zip(dims[:-1], dims[1:]), start=1):
        layers.append(_fc(work, rng, f"fc{i}", fan_in, fan_out))
        if i < len(dims) - 1:
            layers.append({"name": f"relu{i}", "kind": "relu"})
    return _write_manifest(work, layers, (dims[0],))


def write_conv(work, rng, channels, img, batch, classes) -> tuple[str, str]:
    """3x3 conv net (pad 1) with max and avg pooling, plus an input batch."""
    c0, c1, c2, c3 = channels

    def conv(name, c_in, c_out):
        return {
            "name": name, "kind": "conv2d", "pad": 1,
            "weight": _save(work, f"{name}.w.npy", rng.normal(
                0.0, math.sqrt(2.0 / (9 * c_in)), (c_out, c_in, 3, 3))),
            "bias": _save(work, f"{name}.b.npy", rng.normal(0.0, 0.1, c_out)),
        }

    layers = [
        conv("conv1", c0, c1), {"name": "relu1", "kind": "relu"},
        conv("conv2", c1, c2), {"name": "relu2", "kind": "relu"},
        {"name": "pool1", "kind": "maxpool", "window": 2},
        conv("conv3", c2, c3), {"name": "relu3", "kind": "relu"},
        {"name": "pool2", "kind": "avgpool", "window": 2},
        _fc(work, rng, "fc1", c3 * (img // 4) ** 2, classes),
    ]
    path = _write_manifest(work, layers, (c0, img, img))
    _save(work, "input.npy", rng.normal(size=(batch, c0, img, img)))
    return path, os.path.join(work, "input.npy")


# ---------------------------------------------------------------------------
# output checks and digests
# ---------------------------------------------------------------------------


def _sha(arr) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()


def layer_digests(qlayer) -> dict:
    """Digests that depend on the conversion's result, not on `.tq` bytes."""
    return {
        "reconstruction": _sha(residual.reconstruct(qlayer).data.astype("<f4")),
        "levels_per_block": _sha(np.asarray(qlayer.levels_per_block(), dtype="<i4")),
        "delta_sequence": _sha(np.asarray(qlayer.delta_sequence, dtype="<f8")),
        "delta": _sha(np.asarray([qlayer.delta], dtype="<f8")),
    }


def model_digests(model) -> dict:
    return {l.layer: layer_digests(l) for l in model.layers}


def check_deltas(model, weights, failures, *, within_budget: bool) -> None:
    """Stored deltas are true, and within budget right after a conversion."""
    for l in model.layers:
        if within_budget and not l.delta <= l.epsilon_sq:
            failures.append(f"{l.layer}: delta {l.delta!r} > epsilon_sq {l.epsilon_sq!r}")
        recomputed = residual.layer_delta(weights[l.layer][0], l)
        if abs(l.delta - recomputed) > DELTA_RTOL * max(abs(recomputed), 1e-300):
            failures.append(
                f"{l.layer}: stored delta {l.delta!r} != layer_delta {recomputed!r}")


def check_reload(model, path, failures) -> float:
    """Reading the saved container back reproduces ``reconstruct`` bit for
    bit; returns the seconds ``load_quantized`` took."""
    t0 = perf_counter()
    again = container.load_quantized(path)
    load_s = perf_counter() - t0
    if [l.layer for l in again.layers] != [l.layer for l in model.layers]:
        failures.append(f"{path}: reloaded layers differ")
        return load_s
    for a, b in zip(model.layers, again.layers):
        if a.levels_per_block() != b.levels_per_block() or (
                residual.reconstruct(a).data.tobytes()
                != residual.reconstruct(b).data.tobytes()):
            failures.append(f"{a.layer}: reload does not reproduce the reconstruction")
    return load_s


def check_digests(stage: str, digests: dict, expected: dict | None, failures) -> None:
    """Compare against the first operation's digests, or pinned ones."""
    if expected is None:
        return
    for layer, want in expected.items():
        got = digests.get(layer)
        for key, value in want.items():
            if got is None or got.get(key) != value:
                failures.append(f"{stage} {layer}: {key} digest differs")


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


@dataclass
class Op:
    """Timings and outputs of one operation of a workload."""

    times: dict
    outputs: dict = field(default_factory=dict)


def quantize_path(manifest_path, out_path, mode):
    """``ternres quantize``: load and convert (op_s), then save (save_s)."""
    t0 = perf_counter()
    man = manifest.load_manifest(manifest_path)
    weights = manifest.load_weights(man)
    if mode == "uniform":
        schedule = planner.make_schedule(man, "uniform", epsilon_sq=EPS ** 2)
    else:
        schedule = planner.make_schedule(man, mode)
    model, report = planner.convert_model(man, weights, BLOCK_SIZE, schedule, r_max=R_MAX)
    t1 = perf_counter()
    container.save_quantized(model, out_path)
    times = {"op_s": t1 - t0, "save_s": perf_counter() - t1}
    return times, man, weights, model, report


class Workload:
    """``setup`` writes the inputs (and converts where the command needs a
    container); ``op`` is the measured command; ``check`` verifies one op's
    outputs and returns (blocks_factor, delta, digests by stage)."""

    setup_failures: list | None = None  # None: set-up makes nothing to check
    setup_digests: dict = {}

    def _convert_in_setup(self, manifest_path, out_path, mode):
        times, man, weights, model, report = quantize_path(manifest_path, out_path, mode)
        self.setup_failures = []
        check_deltas(model, weights, self.setup_failures, within_budget=True)
        check_reload(model, out_path, self.setup_failures)
        self.setup_digests = {"convert": model_digests(model)}
        return times, man, weights, model, report


class ConvertMLP(Workload):
    name = "convert_mlp"

    def setup(self, work, rng, size):
        self.manifest_path = write_mlp(work, rng, size)
        self.out = os.path.join(work, "out.tq")

    def op(self) -> Op:
        times, _, weights, model, report = quantize_path(
            self.manifest_path, self.out, "uniform")
        return Op(times, {"weights": weights, "model": model, "report": report})

    def check(self, op, failures):
        model = op.outputs["model"]
        check_deltas(model, op.outputs["weights"], failures, within_budget=True)
        # Reading the output back is what a user of the container pays for.
        op.times["load_s"] = check_reload(model, self.out, failures)
        return (op.outputs["report"].blocks_factor, max(l.delta for l in model.layers),
                {"convert": model_digests(model)})


class DeployMLP(Workload):
    name = "deploy_mlp"

    def setup(self, work, rng, size):
        manifest_path = write_mlp(work, rng, size)
        self.base = os.path.join(work, "base.tq")
        self.out = os.path.join(work, "downgraded.tq")
        times, _, self.weights, model, _ = self._convert_in_setup(
            manifest_path, self.base, "uniform")
        residuals = model.num_levels - model.num_blocks
        self.removals = residuals // 4
        self.keep_levels = model.num_levels - self.removals
        return times

    def op(self) -> Op:
        t0 = perf_counter()
        model = container.load_quantized(self.base)
        t1 = perf_counter()
        thinned = residual.downgrade(model, keep_levels=self.keep_levels)
        t2 = perf_counter()
        container.save_quantized(thinned, self.out)
        t3 = perf_counter()
        return Op({"load_s": t1 - t0, "op_s": t2 - t1, "save_s": t3 - t2},
                  {"model": thinned})

    def check(self, op, failures):
        thinned = op.outputs["model"]
        if thinned.num_levels != self.keep_levels:
            failures.append(
                f"downgrade kept {thinned.num_levels} levels, budget {self.keep_levels}")
        check_deltas(thinned, self.weights, failures, within_budget=False)
        check_reload(thinned, self.out, failures)
        return (thinned.num_levels / thinned.num_blocks,
                max(l.delta for l in thinned.layers),
                {"downgrade": model_digests(thinned)})


class InferConv(Workload):
    name = "infer_conv"

    def setup(self, work, rng, size):
        self.manifest_path, self.input_path = write_conv(work, rng, **size)
        self.tq = os.path.join(work, "conv.tq")
        times, man, weights, self.model, report = self._convert_in_setup(
            self.manifest_path, self.tq, "depth_graded")
        self.blocks_factor = report.blocks_factor
        self.batch = size["batch"]
        shapes = {name: w.shape for name, (w, _) in weights.items()}
        self.flops = planner.flops_per_layer(man, shapes)
        return times

    def op(self) -> Op:
        t0 = perf_counter()
        man = manifest.load_manifest(self.manifest_path)
        weights = manifest.load_weights(man)
        qmodel = container.load_quantized(self.tq)
        x = tensors.load_tensor(self.input_path, name="input").data
        t1 = perf_counter()
        # Raises when the level-decomposed pass disagrees with the dense one.
        _, logits, trace = simulate.forward_quantized(man, weights, qmodel, x, act_quant=True)
        t2 = perf_counter()
        return Op({"load_s": t1 - t0, "op_s": t2 - t1}, {"logits": logits, "trace": trace})

    def check(self, op, failures):
        final_delta = op.outputs["trace"].final_delta
        if not np.all(np.isfinite(op.outputs["logits"])):
            failures.append("quantized logits are not finite")
        if not (np.isfinite(final_delta) and final_delta > 0.0):
            failures.append(f"final delta {final_delta!r} is not finite and positive")
        return self.blocks_factor, max(l.delta for l in self.model.layers), {}


WORKLOADS = {w.name: w for w in (ConvertMLP, DeployMLP, InferConv)}


# ---------------------------------------------------------------------------
# tracing targets and per-layer metrics
# ---------------------------------------------------------------------------


def _layer_of_tensor(w, *args, **kwargs):
    return {"layer": w.name}


def _layer_of_decl(layer, *args, **kwargs):
    return {"layer": layer.name}


def _layer_of_qlayer(qlayer, *args, **kwargs):
    return {"layer": qlayer.layer}


def _save_path(model, path, *args, **kwargs):
    return {"path": str(path)}


def _load_path(path, *args, **kwargs):
    return {"path": str(path)}


# Each public function is wrapped at the module-level name its caller looks
# up: the benchmark's own calls go through the module attribute, and
# ``ternres`` modules call their imports by global name.
TRACE_TARGETS = (
    (manifest, "load_manifest", "manifest.load_manifest", None),
    (manifest, "load_weights", "manifest.load_weights", None),
    (manifest, "load_tensor", "tensors.load_tensor", None),
    (tensors, "load_tensor", "tensors.load_tensor", None),
    (planner, "make_schedule", "planner.make_schedule", None),
    (planner, "convert_model", "planner.convert_model", None),
    (planner, "ternary_residual", "residual.ternary_residual", _layer_of_tensor),
    (residual, "ternarize", "ternary.ternarize", None),
    (planner, "cost_report", "costs.cost_report", None),
    (container, "save_quantized", "container.save_quantized", _save_path),
    (container, "pack_signs", "container.pack_signs", None),
    (container, "load_quantized", "container.load_quantized", _load_path),
    (container, "unpack_signs", "container.unpack_signs", None),
    (residual, "downgrade", "residual.downgrade", None),
    (simulate, "forward_quantized", "simulate.forward_quantized", None),
    (simulate, "forward", "simulate.forward", None),
    (simulate, "apply_layer", "simulate.apply_layer", _layer_of_decl),
    (simulate, "reconstruct", "residual.reconstruct", _layer_of_qlayer),
    (simulate, "quantize_activations", "simulate.quantize_activations", None),
)


def per_layer_metrics(workload, tracer: Tracer, op: Op) -> dict:
    """Per-layer values of one traced operation; 0 where a layer is unused."""
    dur = tracer.durations()
    own = tracer.self_times()
    names, parents, attrs = tracer.names, tracer.parents, tracer.attrs

    def spans(name, layer=None, parent_layer=None):
        for i, n in enumerate(names):
            if n != name or (layer is not None and attrs[i].get("layer") != layer):
                continue
            if parent_layer is not None and (
                    parents[i] < 0 or attrs[parents[i]].get("layer") != parent_layer):
                continue
            yield i

    def total(name, times=dur, **where):
        idx = list(spans(name, **where))
        return sum(times[i] for i in idx), len(idx)

    def file_bytes(name):
        return sum(os.path.getsize(attrs[i]["path"]) for i in spans(name))

    m = {name: 0.0 for name, _, _ in PER_LAYER}
    for layer in MLP_LAYERS:
        convert_s, converted = total("residual.ternary_residual", layer=layer)
        if not converted:
            continue
        q = op.outputs["model"].layer(layer)
        m[f"ternary.calls.{layer}"] = total("ternary.ternarize", parent_layer=layer)[1]
        m[f"ternary.self_s.{layer}"] = total(
            "ternary.ternarize", own, parent_layer=layer)[0]
        m[f"residual.convert_s.{layer}"] = convert_s
        m[f"residual.weights_per_s.{layer}"] = q.num_weights / convert_s
        m[f"residual.select_self_s.{layer}"] = total(
            "residual.ternary_residual", own, layer=layer)[0]
        m[f"residual.iterations.{layer}"] = len(q.trace)
        m[f"residual.levels_per_block.{layer}"] = q.num_levels / q.num_blocks
    m["tensors.load_weights_s"] = total("manifest.load_weights")[0]
    m["planner.convert_model_s"] = total("planner.convert_model")[0]
    m["costs.report_s"] = total("costs.cost_report")[0]
    m["container.save_s"] = total("container.save_quantized")[0]
    m["container.pack_calls"] = total("container.pack_signs")[1]
    m["container.bytes_written"] = file_bytes("container.save_quantized")
    load_s, loads = total("container.load_quantized")
    m["container.load_s"] = load_s
    m["container.unpack_calls"] = total("container.unpack_signs")[1]
    m["container.bytes_read"] = file_bytes("container.load_quantized")
    if loads:
        m["container.load_mb_per_s"] = m["container.bytes_read"] / 1e6 / load_s
    downgrade_s, downgrades = total("residual.downgrade")
    if downgrades:
        m["residual.downgrade_removals"] = workload.removals
        m["residual.removals_per_s"] = workload.removals / downgrade_s
    paired_s, paired = total("simulate.forward_quantized")
    fp32_s = total("simulate.forward")[0]
    m["simulate.fp32_forward_s"] = fp32_s
    if paired:
        for layer in CONV_LAYERS:
            apply_s, calls = total("simulate.apply_layer", layer=layer)
            q = workload.model.layer(layer)
            m[f"simulate.apply_s.{layer}"] = apply_s
            m[f"simulate.apply_calls.{layer}"] = calls
            # Both counts are computed from call counts and shapes, not measured.
            m[f"simulate.mults_computed.{layer}"] = (
                calls * workload.flops[layer] * workload.batch)
            m[f"costs.predicted_mults.{layer}"] = (
                workload.flops[layer] * (q.num_levels / q.num_blocks)
                / BLOCK_SIZE * workload.batch)
        m["simulate.act_quant_s"] = total("simulate.quantize_activations")[0]
        m["residual.reconstruct_s"], m["residual.reconstruct_calls"] = total(
            "residual.reconstruct")
        m["simulate.paired_self_s"] = total("simulate.forward_quantized", own)[0]
        m["simulate.paired_over_fp32"] = paired_s / fp32_s
        m["simulate.final_delta"] = op.outputs["trace"].final_delta
    return m


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------


class Clock:
    """Times steps and scales them to an uncontended core.

    The host's other tenants can slow this process's core by up to 2x for
    seconds to minutes at a time, which moves whole runs. So a fixed
    reference task, shaped like the ternarizer's inner loop, is timed right
    before and right after each step, and the step's seconds are multiplied
    by ``REFERENCE_S`` over the mean of the two.
    """

    def __init__(self):
        self._blocks = np.random.default_rng(64).normal(size=(REFERENCE_BLOCKS, 64))
        self._ranks = np.arange(1, 65, dtype=np.float64)

    def reference(self) -> float:
        t0 = perf_counter()
        for block in self._blocks:
            mags = np.abs(block)
            prefix = np.cumsum(mags[np.argsort(-mags, kind="stable")])
            int(np.argmax(prefix * prefix / self._ranks))
        return perf_counter() - t0

    def timed(self, fn, *args):
        """(result, raw seconds, scale) of one call of ``fn``."""
        gc.collect()
        before = self.reference()
        t0 = perf_counter()
        out = fn(*args)
        raw = perf_counter() - t0
        scale = REFERENCE_S / ((before + self.reference()) / 2)
        return out, raw, scale


class Tally:
    """Operations attempted and failed, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.log: list[str] = []

    def record(self, failures) -> None:
        self.attempted += 1
        if failures:
            self.failed += 1
            self.log += failures


def run(name, work, seed, seconds, trace, smoke=False, golden=None, spans_path=None):
    """Set up and measure one workload; returns (result, report) or
    (None, report) when no operation completed.

    ``golden`` holds pinned digests by stage and layer; without it only the
    semantic checks apply, plus the check that every operation reproduces
    the first one's digests.
    """
    size = SIZES["smoke" if smoke else "full"][name]
    workload = WORKLOADS[name]()
    pinned = golden or {}
    tally = Tally()

    # Set up several times from the same seed; the last copy is measured.
    clock = Clock()
    setup_s, setup_times = [], []
    min_setup_s = 0.0 if smoke else SETUP_MIN_S
    start = perf_counter()
    while not setup_s or not trace and (
            len(setup_s) < SETUP_REPS or perf_counter() - start < min_setup_s):
        times, raw, scale = clock.timed(
            workload.setup, work, np.random.default_rng(seed), size)
        setup_s.append((raw, scale))
        setup_times.append((times, scale))
    if workload.setup_failures is not None:
        failures = list(workload.setup_failures)
        for stage, digests in workload.setup_digests.items():
            check_digests(f"set-up {stage}", digests, pinned.get(stage), failures)
        tally.record(failures)

    def checked(op):
        failures = []
        blocks_factor, delta, digests = workload.check(op, failures)
        for stage, got in digests.items():
            check_digests(stage, got, pinned.get(stage), failures)
            check_digests(stage, got, first_digests.setdefault(stage, got), failures)
        tally.record(failures)
        return blocks_factor, delta

    # Start another operation only while it should end within ``seconds``.
    ops, first_digests = [], {}
    start, step = perf_counter(), 0.0
    while not ops or perf_counter() - start + step <= seconds:
        began = perf_counter()
        try:
            op, raw, scale = clock.timed(workload.op)
            outcome = checked(op)
        except Exception:  # the operation failed: count it and stop measuring
            tally.record([traceback.format_exc()])
            break
        op.times["wall_s"] = raw
        ops.append((op.times, scale))
        step = perf_counter() - began
    report = {"samples": {"setup_s": len(setup_s), "ops": len(ops)}, "raw_median": {},
              "failures": tally.log, "aliases": ALIASES[name],
              "digests": {**workload.setup_digests, **first_digests}}
    if not ops:
        return None, report

    def scaled(key, samples):
        """Median of (raw seconds x scale); the raw median goes to the report."""
        report["samples"][key] = len(samples)
        report["raw_median"][key] = statistics.median(raw for raw, _ in samples)
        return statistics.median(raw * scale for raw, scale in samples)

    def stage(key, source):
        return [(times[key], scale) for times, scale in source if key in times]

    if not trace:
        metrics = {
            "setup_s": scaled("setup_s", setup_s),
            "load_s": scaled("load_s", stage("load_s", ops)),
            "op_s": scaled("op_s", stage("op_s", ops)),
            # infer_conv saves its container in set-up only
            "save_s": scaled("save_s", stage("save_s", ops) or stage("save_s", setup_times)),
            "blocks_factor": outcome[0],
            "delta": outcome[1],
        }
        units = {n: u for n, u, _ in END_TO_END}
    else:
        tracer = Tracer()
        with tracer.installed(TRACE_TARGETS):
            op, raw, scale = clock.timed(workload.op)
        checked(op)
        metrics = per_layer_metrics(workload, tracer, op)
        metrics["trace.overhead_s"] = raw * scale - scaled("wall_s", stage("wall_s", ops))
        units = {n: u for n, u, _ in PER_LAYER}
        report["samples"]["spans"] = len(tracer.names)
        if spans_path:
            tracer.write(spans_path, {"workload": name, "seed": seed})
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }
    return result, report
