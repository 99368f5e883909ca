"""Command line: ``megagcl train``, ``eval`` and ``compare``.

``train FOLDER NAME`` and ``eval FOLDER NAME`` read a TU-format dataset
(``NAME_A.txt`` and its companions, in ``FOLDER`` or ``FOLDER/NAME``) with
one-hot node features: ``--features node-label-onehot`` (the default) or
``--features degree-onehot --cap C``, which one-hots min(degree, C);
``--cap`` with any other scheme, or ``degree-onehot`` without it, is
misuse. They take ``--mode mega`` or ``ccl`` and one flag per
``training.Hyperparams`` field, with its type, default and check:
``--tau``, ``--lam``, ``--inner-lr``, ``--encoder-lr``, ``--augmenter-lr``,
``--epochs``, ``--batch-size``, ``--seed``; ``--help`` gives each one's
meaning and default. ``--lam 0`` is MEGA's feature-term ablation,
``--epochs 0`` the untrained encoder (GIN-RIU).
``train`` prints the run summary as JSON. ``eval`` prints the mode, settings,
run seeds, each seed's mean test accuracy of a linear probe under stratified
10-fold cross-validation (``accuracies``), their mean and population std.
Both add ``features`` and ``cap`` (``null`` without one), and
``blas_threads``, the OpenBLAS thread count the run used: one, as importing
the package sets it, unless a caller has set another with
``openblas.set_threads``. Same-seed bits hold only at the same count.
They also print ``versions`` (``python``, ``numpy`` and ``scipy``) and
``commit``, the commit checked out where the package's sources lie, read
from its ``.git`` folder without running git (``null`` without one).
``compare BEFORE AFTER`` prints both outputs' mode, settings, features and
cap (``null`` where absent) and, over the same seeds, the mean of
AFTER - BEFORE, its 95% t-interval and the seeds up and down. Misuse raises
``ConfigError``, not an exit; a file that is not an ``eval`` output raises
``DataError``.
"""

from __future__ import annotations

import argparse
import json
import platform
from dataclasses import asdict, fields
from importlib.metadata import version
from pathlib import Path

import numpy as np

from . import evaluation, graphdata, openblas, training
from .errors import ConfigError, DataError

_SETTINGS = [f.name for f in fields(training.Hyperparams)]

# the checkout that holds src/megagcl
_CHECKOUT = Path(__file__).resolve().parents[2]


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def _parser():
    parser = _Parser(prog="megagcl")
    commands = parser.add_subparsers(dest="command", required=True)
    for name, text in (
            ("train", "train and print the run summary"),
            ("eval", "run the linear-probe protocol and print its accuracy")):
        cmd = commands.add_parser(
            name, help=text,
            formatter_class=argparse.ArgumentDefaultsHelpFormatter)
        cmd.add_argument("folder", help="directory holding the TU files")
        cmd.add_argument("name", help="dataset name, NAME in NAME_A.txt")
        cmd.add_argument("--mode", choices=training.TRAINING_MODES,
                         default="mega", help="training schedule")
        cmd.add_argument("--features", choices=graphdata.FEATURE_SCHEMES,
                         default=graphdata.FEATURE_SCHEMES[0],
                         help="one-hot node features")
        cmd.add_argument("--cap", type=int,
                         help="degree-onehot's largest degree, required by "
                              "it and taken by no other scheme")
        for f in fields(training.Hyperparams):
            cmd.add_argument("--" + f.name.replace("_", "-"),
                             type=type(f.default), default=f.default,
                             help=f.metadata["help"])
    cmd = commands.add_parser("compare", help="print AFTER - BEFORE")
    cmd.add_argument("outputs", nargs=2, metavar="JSON", help="eval outputs")
    return parser


def _read_eval_output(path):
    """An ``eval`` output's accuracies, seeds, and mode and settings; a
    ``DataError`` names a file that cannot be read or holds no accuracies."""
    try:
        output = json.loads(Path(path).read_text())
        accuracies = np.asarray(output["accuracies"], dtype=np.float64)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise DataError(f"{path}: not a megagcl eval output "
                        f"({type(exc).__name__}: {exc})") from None
    if accuracies.ndim != 1 or not np.all(np.isfinite(accuracies)):
        raise DataError(f"{path}: accuracies must be a list of finite numbers")
    return (accuracies, output.get("seeds"),
            {key: output.get(key)
             for key in ["mode", *_SETTINGS, "features", "cap"]})


def _versions():
    """The versions a run's bits depend on, read from the packages'
    metadata, so that scipy is not imported for it."""
    return {"python": platform.python_version(),
            **{name: version(name) for name in ("numpy", "scipy")}}


def _commit(checkout):
    """The commit ``checkout/.git`` has checked out, read without git: a
    detached HEAD's, or its branch's from a loose or a packed ref. None
    where it cannot be read, as without a ``.git`` folder."""
    git = Path(checkout) / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head.removeprefix("ref: ")
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            commit, _, name = line.partition(" ")
            if name == ref:
                return commit
    except OSError:
        pass
    return None


def main(argv=None):
    args = _parser().parse_args(argv)
    if args.command == "compare":
        (before, before_seeds, ran_before), (after, after_seeds, ran_after) = (
            _read_eval_output(p) for p in args.outputs)
        if len(before) != len(after) or len(before) < 2:
            raise ConfigError("compare needs equal seed counts of at least "
                              f"2, got {len(before)} and {len(after)}")
        if before_seeds is None or before_seeds != after_seeds:
            raise ConfigError("compare needs two outputs over the same "
                              f"seeds, got {before_seeds} and {after_seeds}")
        # imported here, so that train and eval start without its ~70 MB
        import scipy.stats
        d = after - before
        mean = d.mean()
        half = scipy.stats.t.ppf(0.975, d.size - 1) * scipy.stats.sem(d)
        print(json.dumps({"before": ran_before, "after": ran_after,
                          "n": d.size, "mean": mean,
                          "ci95": [mean - half, mean + half],
                          "up": int(sum(d > 0)), "down": int(sum(d < 0))}))
        return 0
    hp = training.Hyperparams(**{k: getattr(args, k) for k in _SETTINGS})
    if (args.features == "degree-onehot") != (args.cap is not None):
        raise ConfigError("--cap is required by --features degree-onehot "
                          "and taken by no other scheme")
    dataset = graphdata.build_node_features(
        graphdata.parse_tu_dataset(args.folder, args.name),
        args.features, args.cap)
    if args.command == "train":
        _, log = training.train(dataset, hp, mode=args.mode)
        output = log.summary
    else:
        result = evaluation.run_protocol(dataset, hp, mode=args.mode)
        output = {"mode": args.mode, **asdict(hp), **asdict(result)}
    print(json.dumps({**output, "features": args.features, "cap": args.cap,
                      "blas_threads": openblas.threads(),
                      "versions": _versions(),
                      "commit": _commit(_CHECKOUT)}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
