"""The megagcl benchmark: one workload per process, metrics on stdout.

    python3 megabench/run.py --workload mutag-mega --seed 0 --seconds 10 --trace 0

Run from the root of a checkout. ``--trace 0`` prints the end-to-end
metrics, measured with no wrappers installed. Their times are given at a
fixed reference host speed (see ``hostspeed.py``); the ``info`` line beside
them gives the unscaled wall-clock figures and the host-speed loop times.
``--trace 1`` prints the per-layer metrics from a separate pass with span
wrappers installed, and the tracing overhead. Each metric is printed as
``name = value unit``, and the last line of stdout is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--workload all`` runs every workload, each in its own process, and prints
their lines in turn.
"""

import os

# BLAS threads are fixed before numpy is first imported
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def use_sources():
    """Put the checkout's ``src`` and this directory first on the import
    path; False, with a message, when the sources are not there."""
    src = ROOT / "src"
    if not (src / "megagcl" / "__init__.py").is_file():
        print(f"megagcl sources not found under {src}", file=sys.stderr)
        return False
    sys.path[:0] = [str(src), str(HERE)]
    return True


def commit(root):
    """The checked-out commit, read from ``.git`` without running git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = root / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def environment(root):
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "machine": f"{os.uname().sysname} {os.uname().release} "
                   f"{platform.machine()}",
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "commit": commit(root),
    }


def run_all(args):
    """Each workload in its own process, so peak memory is its own."""
    from workloads import WORKLOADS
    status = 0
    for name in WORKLOADS:
        print(f"== {name}", flush=True)
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             name, "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], cwd=ROOT, check=False)
        status = status or done.returncode
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not use_sources():
        return 2
    if args.workload == "all":
        return run_all(args)

    from workloads import WORKLOADS, run
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)} or all")
    print("env " + json.dumps(environment(ROOT)), flush=True)
    metrics, tally, info = run(args.workload, args.seed, args.seconds,
                               bool(args.trace), ROOT)
    print("info " + json.dumps(info))
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
