"""Downstream evaluation of a frozen encoder.

Graphs are embedded with all-ones edge weights and no projection head (the
augmenter never touches evaluation). A multinomial logistic probe trained on
standardized train-split embeddings measures representation quality; the
ten-run protocol reports mean and population standard deviation.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import gnn
from . import training as tr
from .errors import ConfigError, DataError
from .graphdata import Dataset, SplitResult, batch_graphs, split_dataset

PROBE_STEPS = 500
PROBE_LR = 0.1
PROBE_L2 = 1e-3


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


def linear_probe(table: EmbeddingTable, split: SplitResult, seed=0) -> float:
    """Full-batch softmax regression on frozen embeddings.

    Standardization uses train-split statistics only. Returns the test
    accuracy at the step with the best validation accuracy (earliest on
    ties). Zero init makes the outcome seed-independent; the seed parameter
    stays for interface stability. An empty validation or test split has no
    accuracy to select or report by, so it raises.
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
                 n_runs=10, dims: gnn.ModelDims = None,
                 pretrained_phi: gnn.EncoderParams = None,
                 progress=None) -> ProbeResult:
    """Ten seeded runs of split / train / embed / probe.

    ``gin-riu`` skips training and probes a freshly initialized encoder.
    With ``pretrained_phi`` the given frozen encoder is probed under each
    run's split instead of retraining. Fewer than one run has no accuracy
    to report, so it raises.
    """
    if n_runs < 1:
        raise ConfigError(f"n_runs must be at least 1, got {n_runs}")
    dims = dims or gnn.ModelDims(feature_dim=dataset.feature_width)
    accuracies = []
    fixed_table = None
    if pretrained_phi is not None:
        fixed_table = embed_dataset(pretrained_phi, dataset)
    for run in range(n_runs):
        seed = hp.seed + run
        split = split_dataset(dataset, seed)
        if fixed_table is not None:
            table = fixed_table
        elif mode == "gin-riu":
            phi, _, _ = gnn.init_params(dims, seed)
            table = embed_dataset(phi, dataset)
        else:
            state, _ = tr.train(dataset, replace(hp, seed=seed), dims, mode)
            table = embed_dataset(state.phi, dataset)
        acc = linear_probe(table, split, seed)
        accuracies.append(acc)
        if progress is not None:
            progress(run, acc)
    return ProbeResult.from_accuracies(accuracies)


# ---------------------------------------------------------------------------
# feature heatmap
# ---------------------------------------------------------------------------

def _color_ramp():
    """Fixed 256-entry blue-to-red ramp (piecewise linear)."""
    ramp = []
    for i in range(256):
        t = i / 255.0
        r = min(max(1.5 - abs(4.0 * t - 3.0), 0.0), 1.0)
        g = min(max(1.5 - abs(4.0 * t - 2.0), 0.0), 1.0)
        b = min(max(1.5 - abs(4.0 * t - 1.0), 0.0), 1.0)
        ramp.append((int(255 * r), int(255 * g), int(255 * b)))
    return ramp


COLOR_RAMP = _color_ramp()


def export_feature_heatmap(table: EmbeddingTable, path):
    """Render the embedding table as a binary portable pixmap.

    Rows are graphs sorted by class label, columns are embedding dimensions;
    values are min-max normalized over the whole table and mapped through
    the fixed color ramp. A constant table renders as a single color. The
    file is written to a temporary name in the target directory and renamed
    into place, so a reader never sees a partial image.
    """
    order = np.lexsort((np.arange(len(table.labels)), table.labels))
    values = table.vectors[order]
    lo = values.min()
    hi = values.max()
    if hi > lo:
        idx = np.rint((values - lo) / (hi - lo) * 255).astype(np.intp)
    else:
        idx = np.zeros(values.shape, dtype=np.intp)
    height, width = values.shape
    ramp = np.asarray(COLOR_RAMP, dtype=np.uint8)
    pixels = ramp[idx]  # (h, w, 3)
    header = f"P6\n{width} {height}\n255\n".encode("ascii")
    path = Path(path)
    tmp = tempfile.NamedTemporaryFile(dir=path.parent, delete=False)
    try:
        with tmp:
            tmp.write(header + pixels.tobytes())
        os.replace(tmp.name, path)
    finally:
        if os.path.exists(tmp.name):
            os.unlink(tmp.name)
