"""Command line: ``megagcl train`` and ``megagcl eval``.

Both read a TU-format dataset (``FOLDER`` holding ``NAME_A.txt`` and its
companions, directly or in a ``NAME`` subdirectory) with one-hot node-label
features. ``train`` runs the alternating schedule and prints the run summary
as JSON; ``eval`` runs the seeded protocol, a linear probe under stratified
10-fold cross-validation, and prints as JSON each seed's mean test accuracy
over the folds (``accuracies``), their mean and their population standard
deviation, with the run seeds (``seeds``). ``compare BEFORE AFTER`` prints,
for two ``eval`` outputs over the same seeds, the mean of AFTER - BEFORE per
seed, its 95% t-interval and the seeds up and down. Misuse, including two
outputs over different seeds, raises ``ConfigError`` instead of exiting; a
file that is not an ``eval`` output raises ``DataError``.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import numpy as np
import scipy.stats

from . import evaluation, graphdata, training
from .errors import ConfigError, DataError


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def _parser():
    parser = _Parser(prog="megagcl")
    commands = parser.add_subparsers(dest="command", required=True)
    for name, modes, text in (
            ("train", training.TRAINING_MODES,
             "train and print the run summary"),
            ("eval", evaluation.PROTOCOL_MODES,
             "run the linear-probe protocol and print its accuracy")):
        cmd = commands.add_parser(name, help=text)
        cmd.add_argument("folder", help="directory holding the TU files")
        cmd.add_argument("name", help="dataset name, NAME in NAME_A.txt")
        cmd.add_argument("--mode", choices=modes, default="mega")
        cmd.add_argument("--epochs", type=int,
                         default=training.Hyperparams.epochs)
        cmd.add_argument("--seed", type=int, default=0)
    cmd = commands.add_parser("compare", help="print AFTER - BEFORE")
    cmd.add_argument("outputs", nargs=2, metavar="JSON", help="eval outputs")
    return parser


def _read_eval_output(path):
    """The accuracies and seeds of an ``eval`` output file; ``DataError``
    naming the file for one that cannot be read or holds no accuracies."""
    try:
        output = json.loads(Path(path).read_text())
        accuracies = np.asarray(output["accuracies"], dtype=np.float64)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise DataError(f"{path}: not a megagcl eval output "
                        f"({type(exc).__name__}: {exc})") from None
    if accuracies.ndim != 1 or not np.all(np.isfinite(accuracies)):
        raise DataError(f"{path}: accuracies must be a list of finite numbers")
    return accuracies, output.get("seeds")


def main(argv=None):
    args = _parser().parse_args(argv)
    if args.command == "compare":
        (before, before_seeds), (after, after_seeds) = (
            _read_eval_output(p) for p in args.outputs)
        if len(before) != len(after) or len(before) < 2:
            raise ConfigError("compare needs equal seed counts of at least "
                              f"2, got {len(before)} and {len(after)}")
        if before_seeds is None or before_seeds != after_seeds:
            raise ConfigError("compare needs two outputs over the same "
                              f"seeds, got {before_seeds} and {after_seeds}")
        d = after - before
        mean = d.mean()
        half = scipy.stats.t.ppf(0.975, d.size - 1) * scipy.stats.sem(d)
        print(json.dumps({"n": d.size, "mean": mean,
                          "ci95": [mean - half, mean + half],
                          "up": int(sum(d > 0)), "down": int(sum(d < 0))}))
        return 0
    hp = training.Hyperparams(epochs=args.epochs, seed=args.seed)
    dataset = graphdata.build_node_features(
        graphdata.parse_tu_dataset(args.folder, args.name),
        "node-label-onehot")
    if args.command == "train":
        _, log = training.train(dataset, hp, mode=args.mode)
        print(json.dumps(log.summary))
    else:
        result = evaluation.run_protocol(dataset, hp, mode=args.mode)
        print(json.dumps({"mode": args.mode, "seeds": result.seeds,
                          "accuracies": result.accuracies,
                          "mean": result.mean, "std": result.std}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
