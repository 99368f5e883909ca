"""Downstream evaluation of a frozen encoder.

Graphs are embedded with all-ones edge weights and no projection head (the
augmenter never touches evaluation). Representation quality is the mean test
accuracy of a multinomial logistic probe over stratified 10-fold
cross-validation, the graph-level protocol of InfoGraph and GraphCL: each
fold's probe is standardised and trained on the other nine folds, with no
validation split and no early stopping. The ten-run protocol reports the
per-seed accuracies, their mean and population std. GIN-RIU is ``epochs=0``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import augmenter as lga
from . import gnn
from . import training as tr
from .errors import ConfigError, DataError, require_count
from .graphdata import Dataset, batch_graphs

N_FOLDS = 10
PROBE_STEPS = 500
PROBE_LR = 0.1
PROBE_L2 = 1e-3


@dataclass
class ProbeResult:
    seeds: list  # run i's seed, for both its folds and its training
    accuracies: list
    mean: float
    std: float  # population

    @classmethod
    def from_runs(cls, seeds, accs):
        accs = [float(a) for a in accs]
        return cls(seeds, accs, float(np.mean(accs)), float(np.std(accs)))


def embed_dataset(phi: gnn.EncoderParams, dataset: Dataset,
                  batch_size=64) -> np.ndarray:
    """One pooled encoder row per graph, in dataset order."""
    require_count("batch_size", batch_size, 1)
    tr.require_features(dataset)
    rows = []
    records = dataset.records
    for start in range(0, len(records), batch_size):
        chunk = records[start:start + batch_size]
        batch = batch_graphs(chunk)
        weights = lga.unit_edge_weights(batch)
        pooled = gnn.readout(batch, gnn.encode(batch, weights, phi))
        rows.append(pooled.data)
    return np.concatenate(rows, axis=0)


def stratified_folds(labels, seed):
    """Fold index (0..N_FOLDS-1) of each graph, deterministic per seed.

    Each class's graphs are permuted by one ``default_rng(seed)``, class
    after class in label order; the permuted lists are joined and position
    ``i`` goes to fold ``i % N_FOLDS``. So fold sizes differ by at most one,
    and so do each class's counts per fold.
    """
    require_count("seed", seed, 0)
    rng = np.random.default_rng(seed)
    order = np.concatenate([rng.permutation(np.flatnonzero(labels == c))
                            for c in np.unique(labels)])
    folds = np.empty(len(labels), dtype=np.intp)
    folds[order] = np.arange(len(labels)) % N_FOLDS
    return folds


def _fold_accuracy(x, y, test, n_classes):
    x_tr, y_tr = x[~test], y[~test]
    mu = x_tr.mean(axis=0)
    sd = x_tr.std(axis=0)
    sd[sd == 0.0] = 1.0
    x_tr = (x_tr - mu) / sd
    w = np.zeros((x_tr.shape[1], n_classes))
    b = np.zeros(n_classes)
    onehot = np.zeros((len(y_tr), n_classes))
    onehot[np.arange(len(y_tr)), y_tr] = 1.0
    for _ in range(PROBE_STEPS):
        logits = x_tr @ w + b
        shifted = logits - logits.max(axis=1, keepdims=True)
        p = np.exp(shifted)
        p /= p.sum(axis=1, keepdims=True)
        grad_logits = (p - onehot) / len(y_tr)
        w -= PROBE_LR * (x_tr.T @ grad_logits + 2.0 * PROBE_L2 * w)
        b -= PROBE_LR * grad_logits.sum(axis=0)
    logits = (x[test] - mu) / sd @ w + b
    return float((logits.argmax(axis=1) == y[test]).mean())


def linear_probe(vectors, labels, folds) -> float:
    """Mean test accuracy of a full-batch softmax probe over the folds.

    For each fold the probe is standardised on the other folds, trained
    from zero weights for ``PROBE_STEPS`` steps, and scored on the held-out
    fold. There is no validation split and no early stopping, so the outcome
    is deterministic.
    """
    n_classes = int(labels.max()) + 1
    return float(np.mean([
        _fold_accuracy(vectors, labels, folds == k, n_classes)
        for k in range(N_FOLDS)]))


def _require_folds(dataset: Dataset):
    """Raise ``DataError`` unless every label is a class index (an int, not
    a bool, of at least 0), every fold gets a test graph and every class
    has a graph in each fold's training set."""
    n = len(dataset)
    if n < N_FOLDS:
        raise DataError(f"{dataset.name}: {n} graphs are too few for "
                        f"{N_FOLDS}-fold cross-validation")
    for i, r in enumerate(dataset.records):
        if not isinstance(r.label, int) or isinstance(r.label, bool) \
                or r.label < 0:
            raise DataError(f"{dataset.name}: graph {i} has label "
                            f"{r.label!r}; a label must be an int of at "
                            "least 0")
    classes, counts = np.unique(dataset.labels, return_counts=True)
    if counts.min() < 2:
        c = classes[counts.argmin()]
        raise DataError(f"{dataset.name}: class {c} has 1 graph; "
                        "cross-validation needs at least 2 per class")


def run_protocol(dataset: Dataset, hp: tr.Hyperparams, mode="mega",
                 n_runs=10) -> ProbeResult:
    """Seeded runs of train / embed / cross-validated probe; run ``i`` uses
    seed ``hp.seed + i`` for both its folds and its training, and the
    result lists those seeds. GIN-RIU is ``epochs=0``.

    Everything is checked before the first run: an unknown mode, a run
    count that is not an int of at least 1, or a dataset without node
    features raises ``ConfigError``; a dataset without graphs, fewer graphs
    than folds, a label that is not an int of at least 0, or a class with a
    single graph raises ``DataError``.
    """
    if mode not in tr.TRAINING_MODES:
        raise ConfigError(f"unknown training mode: {mode!r}")
    require_count("n_runs", n_runs, 1)
    tr.require_features(dataset)
    _require_folds(dataset)
    labels = dataset.labels
    seeds = [hp.seed + run for run in range(n_runs)]
    accuracies = []
    for seed in seeds:
        folds = stratified_folds(labels, seed)
        phi = tr.train(dataset, replace(hp, seed=seed), mode=mode)[0].phi
        accuracies.append(
            linear_probe(embed_dataset(phi, dataset), labels, folds))
    return ProbeResult.from_runs(seeds, accuracies)
