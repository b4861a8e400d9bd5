"""Run one ternres benchmark workload and print its metrics.

Usage, from the root of a source checkout (the package is imported from
``src/``, nothing is installed):

    python3 bench/run.py --workload convert_mlp --seed 0 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
measures untraced operations for ``--seconds``, then traces one more and
prints the per-layer metrics and the tracing overhead. The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``. ``--smoke`` shrinks every model for quick self-tests.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOAD_NAMES = ("convert_mlp", "deploy_mlp", "infer_conv")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
THREADS_ENV = "TERNRES_THREADS"
DEFAULT_SEED = 0  # pinned digests in golden.json hold for this seed only


def _git_commit(root: str) -> str | None:
    """HEAD of the checkout's own ``.git``, read without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fp:
            head = fp.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as fp:
                return fp.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fp:
            for line in fp:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest(package_dir: str) -> str:
    digest = hashlib.sha256()
    for name in sorted(os.listdir(package_dir)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(package_dir, name), "rb") as fp:
                digest.update(fp.read())
    return digest.hexdigest()


def _environment(root, package_dir, args, blas_threads, ternres_threads) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": blas_threads,
        "nproc": len(os.sched_getaffinity(0)),
        "TERNRES_THREADS": "unset" + (f" (was {ternres_threads!r})" if ternres_threads else ""),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "git_commit": _git_commit(root),
        "source_sha256": _source_digest(package_dir),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny models")
    args = parser.parse_args(argv)

    root = os.getcwd()
    package_dir = os.path.join(root, "src", "ternres")
    if not os.path.isfile(os.path.join(package_dir, "__init__.py")):
        print(f"error: no ternres sources under {package_dir}; run from the root "
              "of a source checkout", file=sys.stderr)
        return 2

    # Pin the load before numpy loads its BLAS: one process, one conversion
    # worker and one BLAS thread, so that the reference task that scales the
    # timings runs on the same core as the work it scales.
    blas_threads = 1
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(blas_threads)
    ternres_threads = os.environ.pop(THREADS_ENV, None)
    sys.path[:0] = [os.path.join(root, "src"), HERE]
    import workloads

    env = _environment(root, package_dir, args, blas_threads, ternres_threads)
    pinned = args.seed == DEFAULT_SEED and not args.smoke
    golden = None
    if pinned:
        with open(os.path.join(HERE, "golden.json"), encoding="utf-8") as fp:
            golden = json.load(fp)[args.workload]
    bench_dir = os.path.join(root, ".bench_work")
    work = os.path.join(bench_dir, f"{args.workload}-seed{args.seed}-pid{os.getpid()}")
    os.makedirs(work)
    spans_path = None
    if args.trace:
        spans_path = os.path.join(bench_dir, f"spans-{args.workload}-seed{args.seed}.json")
    try:
        result, report = workloads.run(
            args.workload, work, args.seed, args.seconds, args.trace,
            smoke=args.smoke, golden=golden, spans_path=spans_path)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print("env " + json.dumps(env, sort_keys=True))
    for failure in report["failures"]:
        print("FAILED " + failure.rstrip(), file=sys.stderr)
    if result is None:
        print("error: no operation completed", file=sys.stderr)
        return 1
    print("samples " + json.dumps(report["samples"], sort_keys=True))
    print("raw_median " + json.dumps(report["raw_median"], sort_keys=True))
    aliases = report["aliases"]
    for key, metric in result["metrics"].items():
        alias = f" ({aliases[key]})" if key in aliases else ""
        print(f"metric {key}{alias} = {metric['value']:.6g} {metric['unit']}")
    if pinned:
        print("digests " + json.dumps(report["digests"], sort_keys=True))
    if spans_path:
        print(f"spans written to {os.path.relpath(spans_path, root)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
