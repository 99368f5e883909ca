"""Command line: ``megagcl train``, ``eval`` and ``compare``.

``train FOLDER NAME`` and ``eval FOLDER NAME`` read a TU-format dataset
(``NAME_A.txt`` and its companions, in ``FOLDER`` or ``FOLDER/NAME``) with
one-hot node-label features. They take ``--mode mega`` or ``ccl`` and one
flag per ``training.Hyperparams`` field, with its type, default and check:
``--tau``, ``--lam``, ``--inner-lr``, ``--encoder-lr``, ``--augmenter-lr``,
``--epochs``, ``--batch-size``, ``--seed``; ``--help`` gives each one's
meaning and default. ``--lam 0`` is MEGA's feature-term ablation,
``--epochs 0`` the untrained encoder (GIN-RIU).
``train`` prints the run summary as JSON. ``eval`` prints the mode, settings,
run seeds, each seed's mean test accuracy of a linear probe under stratified
10-fold cross-validation (``accuracies``), their mean and population std.
Both add ``blas_threads``, the OpenBLAS thread count the run used: one, as
importing the package sets it, unless a caller has set another with
``openblas.set_threads``. Same-seed bits hold only at the same count.
``compare BEFORE AFTER`` prints both outputs' mode and settings (``null``
where absent) and, over the same seeds, the mean of AFTER - BEFORE, its 95%
t-interval and the seeds up and down. Misuse raises ``ConfigError``, not an
exit; a file that is not an ``eval`` output raises ``DataError``.
"""

from __future__ import annotations

import argparse
import json
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from . import evaluation, graphdata, openblas, training
from .errors import ConfigError, DataError

_SETTINGS = [f.name for f in fields(training.Hyperparams)]


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
            {key: output.get(key) for key in ["mode", *_SETTINGS]})


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
    dataset = graphdata.build_node_features(
        graphdata.parse_tu_dataset(args.folder, args.name),
        "node-label-onehot")
    if args.command == "train":
        _, log = training.train(dataset, hp, mode=args.mode)
        output = log.summary
    else:
        result = evaluation.run_protocol(dataset, hp, mode=args.mode)
        output = {"mode": args.mode, **asdict(hp), **asdict(result)}
    print(json.dumps({**output, "blas_threads": openblas.threads()}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
