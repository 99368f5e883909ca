"""Downstream evaluation of a frozen encoder.

Graphs are embedded with all-ones edge weights and no projection head (the
augmenter never touches evaluation). A multinomial logistic probe trained on
standardized train-split embeddings measures representation quality; the
ten-run protocol reports mean and population standard deviation.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import autodiff as ad
from . import gnn
from . import training as tr
from .errors import ConfigError, DataError
from .graphdata import Dataset, SplitResult, batch_graphs, split_dataset

PROBE_STEPS = 500
PROBE_LR = 0.1
PROBE_L2 = 1e-3
PROTOCOL_MODES = tr.TRAINING_MODES + ("gin-riu",)


@dataclass
class EmbeddingTable:
    vectors: np.ndarray  # one row per graph
    labels: np.ndarray


@dataclass
class ProbeResult:
    accuracies: list
    mean: float
    std: float  # population

    @classmethod
    def from_accuracies(cls, accs):
        accs = [float(a) for a in accs]
        return cls(accs, float(np.mean(accs)), float(np.std(accs)))


def embed_dataset(phi: gnn.EncoderParams, dataset: Dataset,
                  batch_size=64) -> EmbeddingTable:
    """Pooled encoder outputs for every graph, in dataset order."""
    if batch_size < 1:
        raise ConfigError(f"batch_size must be at least 1, got {batch_size}")
    if not dataset.records:
        raise DataError(f"{dataset.name}: no graphs to embed")
    rows = []
    records = dataset.records
    for start in range(0, len(records), batch_size):
        chunk = records[start:start + batch_size]
        batch = batch_graphs(chunk)
        weights = ad.constant(np.ones((batch.n_edges, 1)))
        pooled = gnn.readout(batch, gnn.encode(batch, weights, phi))
        rows.append(pooled.data)
    return EmbeddingTable(np.concatenate(rows, axis=0), dataset.labels)


def _standardizer(train_rows):
    mu = train_rows.mean(axis=0)
    sd = train_rows.std(axis=0)
    sd = np.where(sd == 0.0, 1.0, sd)
    return mu, sd


def _accuracy(logits, labels):
    return float((logits.argmax(axis=1) == labels).mean())


def linear_probe(table: EmbeddingTable, split: SplitResult) -> float:
    """Full-batch softmax regression on frozen embeddings.

    Standardization uses train-split statistics only. Returns the test
    accuracy at the step with the best validation accuracy (earliest on
    ties). The weights start at zero, so the outcome is deterministic. An
    empty validation or test split has no accuracy to select or report by,
    so it raises.
    """
    for part in ("val", "test"):
        if not getattr(split, part):
            raise DataError(f"the {part} split is empty")
    labels = table.labels
    classes = np.unique(labels)
    n_classes = len(classes)
    train_labels = labels[split.train]
    missing = set(classes.tolist()) - set(train_labels.tolist())
    if missing:
        raise DataError(f"classes absent from the train split: {sorted(missing)}")

    mu, sd = _standardizer(table.vectors[split.train])
    x = (table.vectors - mu) / sd
    x_tr, y_tr = x[split.train], labels[split.train]
    x_va, y_va = x[split.val], labels[split.val]
    x_te, y_te = x[split.test], labels[split.test]

    w = np.zeros((x.shape[1], n_classes))
    b = np.zeros(n_classes)
    onehot = np.zeros((len(y_tr), n_classes))
    onehot[np.arange(len(y_tr)), y_tr] = 1.0

    best_val = -1.0
    best_test = 0.0
    for _ in range(PROBE_STEPS):
        logits = x_tr @ w + b
        shifted = logits - logits.max(axis=1, keepdims=True)
        p = np.exp(shifted)
        p /= p.sum(axis=1, keepdims=True)
        grad_logits = (p - onehot) / len(y_tr)
        w -= PROBE_LR * (x_tr.T @ grad_logits + 2.0 * PROBE_L2 * w)
        b -= PROBE_LR * grad_logits.sum(axis=0)

        val_acc = _accuracy(x_va @ w + b, y_va)
        if val_acc > best_val:
            best_val = val_acc
            best_test = _accuracy(x_te @ w + b, y_te)
    return best_test


def run_protocol(dataset: Dataset, hp: tr.Hyperparams, mode="mega",
                 n_runs=10) -> ProbeResult:
    """Seeded runs of split / train / embed / probe; run ``i`` uses seed
    ``hp.seed + i`` for both its split and its training.

    ``gin-riu`` skips training and probes a freshly initialized encoder.
    The mode, the run count and the dataset are checked before any run:
    an unknown mode, fewer than one run, or a dataset without graphs or
    node features raises ``ConfigError``.
    """
    if mode not in PROTOCOL_MODES:
        raise ConfigError(f"unknown protocol mode: {mode!r}")
    if n_runs < 1:
        raise ConfigError(f"n_runs must be at least 1, got {n_runs}")
    tr.require_features(dataset)
    dims = gnn.ModelDims(feature_dim=dataset.feature_width)
    accuracies = []
    for run in range(n_runs):
        seed = hp.seed + run
        split = split_dataset(dataset, seed)
        if mode == "gin-riu":
            phi, _, _ = gnn.init_params(dims, seed)
        else:
            phi = tr.train(dataset, replace(hp, seed=seed), dims, mode)[0].phi
        accuracies.append(linear_probe(embed_dataset(phi, dataset), split))
    return ProbeResult.from_accuracies(accuracies)
