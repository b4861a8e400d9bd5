"""Command-line surface: quantize, stats, downgrade, infer, trace, lemma-check.

Exit codes: 0 success, 1 I/O or format failure, 2 non-convergence or an
infeasible budget. All emitted artifacts are deterministic functions of the
inputs and flags.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .container import load_quantized, save_quantized
from .costs import (
    DEFAULT_C_RATIO,
    DEFAULT_X,
    cost_report,
    flops_per_layer,
    table2_stats,
    throughput_gains,
)
from .errors import ConvergenceError, FormatError
from .manifest import load_manifest, load_weights
from .planner import (
    DEPTH_GRADED_HI,
    DEPTH_GRADED_LO,
    convert_model,
    load_schedule,
    make_schedule,
)
from .residual import DEFAULT_R_MAX, QuantizedModel, reconstruct, ternary_residual
from .residual import downgrade as downgrade_model
from .residual import quantize_scales_8bit, write_trace_csv
from .simulate import forward, forward_quantized, layer_lemma_checks, margin_check
from .simulate import avgpool_bound, matmul_bound, maxpool_bound, relu_bound
from .tensors import Tensor, load_tensor, save_tensor


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ternres",
        description="Post-training ternary-residual quantization toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    q = sub.add_parser("quantize", help="convert a model to stacked ternary form")
    q.add_argument("-m", "--manifest", required=True)
    q.add_argument("-N", "--block-size", type=int, default=64)
    q.add_argument("--eps", type=float, help="relative error tolerance (un-squared)")
    q.add_argument("--eps-sq", type=float, help="squared tolerance, overrides --eps")
    q.add_argument("--mode", choices=["uniform", "depth_graded", "compute_aware"],
                   default="uniform")
    q.add_argument("--schedule", help="JSON schedule file (overrides --mode)")
    q.add_argument("--lo", type=float, default=DEPTH_GRADED_LO)
    q.add_argument("--hi", type=float, default=DEPTH_GRADED_HI)
    q.add_argument("--cap", type=float, default=None)
    q.add_argument("--r-max", type=int, default=DEFAULT_R_MAX)
    q.add_argument("--quantize-scales", action="store_true",
                   help="snap scaling factors to 8-bit dynamic fixed point")
    q.add_argument("-o", "--output", required=True)
    q.add_argument("--report", help="write the cost report as JSON")
    q.add_argument("--trace", help="write the greedy iteration log as CSV")
    q.add_argument("--x", type=float, default=DEFAULT_X)
    q.add_argument("--c-ratio", type=float, default=DEFAULT_C_RATIO)

    s = sub.add_parser("stats", help="cost tables from a container or parameters")
    s.add_argument("container", nargs="?")
    s.add_argument("--n", type=int, help="weights per vector (closed-form row)")
    s.add_argument("--k", type=int, default=1)
    s.add_argument("--r", type=int, default=0, help="residuals per block")
    s.add_argument("--pi", action="store_true", help="throughput gains only")
    s.add_argument("--c", "--c-ratio", dest="c_ratio", type=float, default=DEFAULT_C_RATIO)
    s.add_argument("--N", dest="big_n", type=int, default=64)
    s.add_argument("--levels", type=float, default=1.0, help="levels per block (r+1)")
    s.add_argument("--x", type=float, default=DEFAULT_X)
    s.add_argument("--json", action="store_true", dest="as_json")

    d = sub.add_parser("downgrade", help="disable least-important residual levels")
    d.add_argument("container")
    d.add_argument("--keep-levels", type=int)
    d.add_argument("--target-compute", type=float)
    d.add_argument("-o", "--output", required=True)
    d.add_argument("--x", type=float, default=DEFAULT_X)
    d.add_argument("--c-ratio", type=float, default=DEFAULT_C_RATIO)

    def add_infer_args(p):
        p.add_argument("container")
        p.add_argument("-m", "--manifest", required=True)
        p.add_argument("-i", "--input", required=True, help="NPY activation tensor")
        p.add_argument("--act-quant", action="store_true")

    i = sub.add_parser("infer", help="paired FP32/quantized forward pass")
    add_infer_args(i)
    i.add_argument("--logits", help="write quantized logits as NPY")
    i.add_argument("--margin", type=float, default=None,
                   help="l2 perturbation bound for the safety check "
                        "(default: each sample's measured logit distance)")

    t = sub.add_parser("trace", help="emit the per-layer perturbation trace")
    add_infer_args(t)
    t.add_argument("--csv", help="write trace CSV")
    t.add_argument("--json-out", help="write trace JSON")
    t.add_argument("--depth-sensitivity", type=float, metavar="EPS_SQ",
                   help="also report the final perturbation when only the "
                        "first vs only the last parametric layer is quantized "
                        "at this tolerance (a tendency, not a guarantee)")

    l = sub.add_parser("lemma-check", help="verify per-layer perturbation bounds")
    l.add_argument("container", nargs="?")
    l.add_argument("-m", "--manifest")
    l.add_argument("-i", "--input")
    l.add_argument("--act-quant", action="store_true")
    l.add_argument("--trials", type=int, default=1000,
                   help="random perturbation trials (standalone mode)")
    l.add_argument("--seed", type=int, default=0)
    return parser


def _load_inference_inputs(args):
    manifest = load_manifest(args.manifest)
    weights = load_weights(manifest)
    qmodel = load_quantized(args.container)
    x = load_tensor(args.input, name="input")
    arr = x.data
    if manifest.input_shape is not None and arr.shape == tuple(manifest.input_shape):
        arr = arr[None, ...]
    return manifest, weights, qmodel, arr


def _cmd_quantize(args) -> int:
    if not args.schedule and args.mode == "uniform" and (
            args.eps_sq is None and args.eps is None):
        raise ValueError("uniform mode needs --eps or --eps-sq")
    manifest = load_manifest(args.manifest)
    weights = load_weights(manifest)
    if args.schedule:
        schedule = load_schedule(args.schedule, manifest)
    else:
        eps_sq = args.eps_sq
        if eps_sq is None and args.eps is not None:
            eps_sq = args.eps ** 2
        flops = None
        if args.mode == "compute_aware":
            flops = flops_per_layer(manifest, {n: weights[n][0].shape for n in weights})
        schedule = make_schedule(manifest, args.mode, epsilon_sq=eps_sq, lo=args.lo,
                                 hi=args.hi, cap=args.cap, flops=flops)

    model, report = convert_model(
        manifest, weights, args.block_size, schedule,
        r_max=args.r_max, x=args.x, c_ratio=args.c_ratio,
    )
    if args.trace:
        write_trace_csv(list(model.layers), args.trace)
    if args.quantize_scales:
        tensors = {name: weights[name][0] for name in weights}
        model = quantize_scales_8bit(model, tensors)
        report = cost_report(model, x=args.x, c_ratio=args.c_ratio)
    save_quantized(model, args.output)
    print(report.to_text())
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fp:
            json.dump(report.to_dict(), fp, indent=2, sort_keys=True)
            fp.write("\n")
    return 0


def _cmd_stats(args) -> int:
    if args.pi:
        pi_c, pi_m = throughput_gains(args.c_ratio, args.big_n, args.levels)
        doc = {"c_ratio": args.c_ratio, "N": args.big_n, "levels": args.levels,
               "pi_c": pi_c, "pi_m": pi_m}
        if args.as_json:
            print(json.dumps(doc, indent=2, sort_keys=True))
        else:
            print(f"pi_c = {pi_c:.4f}\npi_m = {pi_m:.4f}")
        return 0
    if args.container:
        model = load_quantized(args.container)
        report = cost_report(model, x=args.x, c_ratio=args.c_ratio)
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True)
              if args.as_json else report.to_text())
        return 0
    if args.n is None:
        raise ValueError("give a container, --n, or --pi")
    size_bits, capacity, num_alphas = table2_stats(args.n, args.k, [args.r] * args.k)
    doc = {"n": args.n, "k": args.k, "r": args.r, "model_size_bits": size_bits,
           "capacity": capacity, "scaling_factors": num_alphas}
    if args.as_json:
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print(f"model size:      {size_bits:g} bits")
        print(f"model capacity:  {capacity}")
        print(f"scaling factors: {num_alphas}")
    return 0


def _cmd_downgrade(args) -> int:
    if (args.keep_levels is None) == (args.target_compute is None):
        raise ValueError("give exactly one of --keep-levels or --target-compute")
    model = load_quantized(args.container)
    if args.keep_levels is not None:
        new_model = downgrade_model(model, keep_levels=args.keep_levels)
    else:
        new_model = downgrade_model(model, target_factor=args.target_compute)
    report = cost_report(new_model, x=args.x, c_ratio=args.c_ratio)
    save_quantized(new_model, args.output)
    print(report.to_text())
    return 0


def _cmd_infer(args) -> int:
    manifest, weights, qmodel, arr = _load_inference_inputs(args)
    _, logits, trace = forward_quantized(
        manifest, weights, qmodel, arr, act_quant=args.act_quant)
    samples = []  # checked before anything is written, so a bad margin writes nothing
    for i in range(trace.logits.shape[0]):
        measured = float(np.linalg.norm(
            trace.logits[i].astype(np.float64)
            - trace.logits_quantized[i].astype(np.float64)))
        delta = args.margin if args.margin is not None else measured
        verdict = margin_check(trace.logits[i], delta)
        samples.append(f"sample {i}: |y - y_hat| = {measured:.6g}, "
                       f"margin check ({delta:.6g}) -> {verdict}")
    if args.logits:
        save_tensor(Tensor("logits", logits), args.logits)
    np.set_printoptions(precision=6, suppress=False)
    print("quantized logits:")
    print(logits)
    print(f"final relative perturbation: {trace.final_delta:.6g}")
    for line in samples:
        print(line)
    return 0


def _cmd_trace(args) -> int:
    manifest, weights, qmodel, arr = _load_inference_inputs(args)
    _, _, trace = forward_quantized(
        manifest, weights, qmodel, arr, act_quant=args.act_quant)
    header = f"{'layer':>5}  {'name':<16} {'kind':<8} {'delta':>12} {'gamma':>12} {'epsilon':>12}"
    print(header)
    for e in trace.entries:
        print(f"{e.index:>5}  {e.name:<16} {e.kind:<8} "
              f"{e.delta:>12.5e} {e.gamma:>12.5e} {e.epsilon:>12.5e}")
    if args.csv:
        trace.to_csv(args.csv)
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as fp:
            fp.write(trace.to_json())
            fp.write("\n")
    if args.depth_sensitivity is not None:
        block_size = qmodel.provenance.get("N")
        if not isinstance(block_size, int) or block_size < 1:
            raise FormatError(f"{args.container}: provenance holds no block size N")
        _depth_sensitivity_report(manifest, weights, arr, args.depth_sensitivity,
                                  block_size)
    return 0


def _depth_sensitivity_report(manifest, weights, arr, eps_sq: float,
                              block_size: int) -> None:
    """Same-size noise injected early vs late: early usually hurts more.

    Both layers are converted at the container's block size N.
    """
    names = [l.name for l in manifest.parametric_layers()]
    if len(names) < 2:
        print("depth sensitivity needs at least two parametric layers")
        return
    for label, name in (("first", names[0]), ("last", names[-1])):
        qlayer = ternary_residual(weights[name][0], block_size, epsilon_sq=eps_sq)
        partial = QuantizedModel({}, (qlayer,), {})
        _, _, trace = forward_quantized(manifest, weights, partial, arr)
        print(f"quantizing only the {label} parametric layer ({name}) at "
              f"eps^2={eps_sq:g}: final delta {trace.final_delta:.6g}")


def _random_lemma_trials(trials: int, seed: int) -> int:
    if trials < 1:
        raise ValueError(f"the number of trials must be at least 1, got {trials}")
    rng = np.random.default_rng(seed)
    violations = 0
    for _ in range(trials):
        x = rng.normal(size=(1, 2, 6, 6)).astype(np.float32)
        xh = (x + rng.normal(scale=rng.uniform(1e-4, 0.5), size=x.shape)).astype(np.float32)
        checks = [
            relu_bound(x, xh),
            maxpool_bound(x, xh, 2, 2),
            avgpool_bound(x, xh, 2, 2),
        ]
        w = rng.normal(size=(5, 72)).astype(np.float32)
        wh = (w + rng.normal(scale=0.05, size=w.shape)).astype(np.float32)
        checks.append(matmul_bound(w, wh, x.reshape(1, -1), xh.reshape(1, -1)))
        violations += sum(0 if c.ok else 1 for c in checks)
    return violations


def _cmd_lemma_check(args) -> int:
    if args.container:
        if not (args.manifest and args.input):
            raise ValueError("container mode needs -m and -i")
        manifest, weights, qmodel, arr = _load_inference_inputs(args)
        clean_acts = forward(manifest, weights, arr)
        q_acts, _, _ = forward_quantized(
            manifest, weights, qmodel, arr, act_quant=args.act_quant)
        clean_inputs = [arr] + clean_acts[:-1]
        pert_inputs = [arr] + q_acts[:-1]
        quantized = {l.layer: reconstruct(l).data for l in qmodel.layers}
        checks = layer_lemma_checks(manifest, weights, clean_inputs, pert_inputs,
                                    quantized)
        violations = sum(0 if c.ok else 1 for c in checks)
        for c in checks:
            status = "ok" if c.ok else "VIOLATION"
            print(f"{c.name:<18} measured={c.measured:.6e} bound={c.bound:.6e} {status}")
    else:
        violations = _random_lemma_trials(args.trials, args.seed)
        print(f"{args.trials} random perturbation trials: {violations} violations")
    return 0 if violations == 0 else 1


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "quantize": _cmd_quantize,
        "stats": _cmd_stats,
        "downgrade": _cmd_downgrade,
        "infer": _cmd_infer,
        "trace": _cmd_trace,
        "lemma-check": _cmd_lemma_check,
    }
    try:
        return handlers[args.command](args)
    except (ConvergenceError, ValueError) as exc:  # bad arguments or inputs
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (FormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
