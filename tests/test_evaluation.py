import importlib
import pkgutil

import numpy as np
import pytest

import megagcl
from megagcl import evaluation as ev
from megagcl import gnn
from megagcl import graphdata as gd
from megagcl import training as tr
from megagcl.errors import ConfigError, DataError

from conftest import synthetic_dataset


def test_every_module_imports():
    names = [m.name for m in pkgutil.iter_modules(megagcl.__path__,
                                                  "megagcl.")]
    assert "megagcl.evaluation" in names
    for name in names:
        importlib.import_module(name)


def test_batched_embeddings_equal_one_graph_at_a_time():
    ds = synthetic_dataset()
    phi, _, _ = gnn.init_params(gnn.ModelDims(feature_dim=ds.feature_width),
                                seed=0)
    batched = ev.embed_dataset(phi, ds)
    alone = ev.embed_dataset(phi, ds, batch_size=1)
    assert batched.shape == (len(ds), phi.layers[-1].w2.shape[1])
    np.testing.assert_allclose(batched, alone, rtol=0, atol=1e-9)


@pytest.mark.parametrize("mode, epochs", [
    ("mega", 2), ("ccl", 2), ("mega", 0)], ids=["mega", "ccl", "gin-riu"])
def test_run_protocol_gives_one_accuracy_per_run(mode, epochs):
    hp = tr.Hyperparams(epochs=epochs, batch_size=8)
    result = ev.run_protocol(synthetic_dataset(), hp, mode=mode, n_runs=2)
    assert len(result.accuracies) == 2
    for acc in result.accuracies:
        assert np.isfinite(acc) and 0.0 <= acc <= 1.0
    assert result.mean == pytest.approx(np.mean(result.accuracies))


def test_run_protocol_reports_the_seed_of_each_run():
    ds = synthetic_dataset()
    result = ev.run_protocol(ds, tr.Hyperparams(epochs=0, seed=5), n_runs=2)
    assert result.seeds == [5, 6]
    alone = ev.run_protocol(ds, tr.Hyperparams(epochs=0, seed=6), n_runs=1)
    assert alone.seeds == [6] and alone.accuracies == result.accuracies[1:]


@pytest.mark.parametrize("n_runs", [0, -1, 2.5, True])
def test_run_protocol_rejects_fewer_than_one_run(n_runs):
    with pytest.raises(ConfigError, match="n_runs"):
        ev.run_protocol(synthetic_dataset(), tr.Hyperparams(epochs=0),
                        n_runs=n_runs)


def test_gin_riu_is_the_probe_of_each_seeds_initial_encoder():
    ds = synthetic_dataset()
    result = ev.run_protocol(ds, tr.Hyperparams(epochs=0, seed=3), n_runs=2)
    dims = gnn.ModelDims(feature_dim=ds.feature_width)
    oracle = [ev.linear_probe(
        ev.embed_dataset(gnn.init_params(dims, seed)[0], ds), ds.labels,
        ev.stratified_folds(ds.labels, seed)) for seed in (3, 4)]
    assert result.accuracies == oracle


def test_embed_dataset_rejects_batch_size_below_one():
    ds = synthetic_dataset()
    phi, _, _ = gnn.init_params(gnn.ModelDims(feature_dim=ds.feature_width),
                                seed=0)
    for batch_size in (0, 2.5, True):
        with pytest.raises(ConfigError, match="batch_size"):
            ev.embed_dataset(phi, ds, batch_size=batch_size)


def test_embed_dataset_names_a_dataset_without_features():
    phi, _, _ = gnn.init_params(gnn.ModelDims(feature_dim=2), seed=0)
    bare = gd.Dataset("BARE", [gd.GraphRecord(gd.GraphTopology(2, ()), 0)], 1)
    with pytest.raises(ConfigError, match="BARE"):
        ev.embed_dataset(phi, bare)


@pytest.mark.parametrize("seed", [-1, 1.5, True, "0"])
def test_stratified_folds_rejects_a_seed_that_is_not_a_nonnegative_int(seed):
    with pytest.raises(ConfigError, match="seed"):
        ev.stratified_folds(synthetic_dataset().labels, seed)


@pytest.fixture(params=["mutag", "synthetic"])
def labels(request):
    if request.param == "mutag":
        return request.getfixturevalue("mutag").labels
    return synthetic_dataset().labels


def test_folds_partition_the_dataset(labels):
    folds = ev.stratified_folds(labels, seed=0)
    assert folds.shape == labels.shape
    assert set(folds.tolist()) == set(range(ev.N_FOLDS))


def test_folds_balance_sizes_and_classes(labels):
    folds = ev.stratified_folds(labels, seed=3)
    sizes = np.bincount(folds, minlength=ev.N_FOLDS)
    assert sizes.max() - sizes.min() <= 1
    for c in np.unique(labels):
        counts = np.bincount(folds[labels == c], minlength=ev.N_FOLDS)
        assert counts.max() - counts.min() <= 1


def test_folds_are_fixed_by_the_seed(labels):
    a = ev.stratified_folds(labels, seed=5)
    np.testing.assert_array_equal(a, ev.stratified_folds(labels, seed=5))
    assert not np.array_equal(a, ev.stratified_folds(labels, seed=6))


def test_mutag_probe_beats_the_majority_rate(mutag):
    ds = gd.build_node_features(mutag, "node-label-onehot")
    majority = np.bincount(ds.labels).max() / len(ds)  # 125 / 188 = 66.5%
    result = ev.run_protocol(ds, tr.Hyperparams(epochs=0), n_runs=1)
    assert result.accuracies[0] > majority


def _bare_dataset():
    """Two graphs per class and no node features."""
    records = [gd.GraphRecord(gd.GraphTopology(2, [(0, 1), (1, 0)]), c)
               for c in (0, 1) for _ in range(2)]
    return gd.Dataset("BARE", records, 2)


def _synthetic_subset(indices):
    ds = synthetic_dataset()
    return gd.Dataset("SUB", [ds.records[i] for i in indices], 2)


@pytest.mark.parametrize("dataset, mode, epochs, error", [
    (gd.Dataset("EMPTY", [], 0), "mega", 0, DataError),
    (gd.Dataset("EMPTY", [], 0), "mega", 1, DataError),
    (_bare_dataset(), "mega", 0, ConfigError),
    (_bare_dataset(), "ccl", 1, ConfigError),
    (synthetic_dataset(), "nope", 1, ConfigError),
    # synthetic graphs alternate ring (class 0) and star (class 1)
    (_synthetic_subset(range(9)), "mega", 1, DataError),
    (_synthetic_subset([0] + list(range(1, 24, 2))), "mega", 1, DataError),
], ids=["empty-gin-riu", "empty-mega", "no-features-gin-riu",
        "no-features-ccl", "unknown-mode", "fewer-graphs-than-folds",
        "single-graph-class"])
def test_run_protocol_rejects_bad_input_before_any_split(monkeypatch,
                                                         dataset, mode,
                                                         epochs, error):
    def never(*args, **kwargs):
        raise AssertionError("reached before the input was checked")

    monkeypatch.setattr(ev, "stratified_folds", never)
    monkeypatch.setattr(tr, "train", never)
    with pytest.raises(error):
        ev.run_protocol(dataset, tr.Hyperparams(epochs=epochs), mode=mode,
                        n_runs=1)


@pytest.mark.parametrize("labels, message", [
    # -1 would index the last one-hot class of a one-class probe
    ([-1, 0] * 10, r"^TWO: graph 0 has label -1; a label must be an int"),
    ([0, 1] * 5 + [1.7] + [0, 1] * 4 + [0], r"^TWO: graph 10 has label 1\.7;"),
    ([0, 1] * 5 + [True] + [0, 1] * 4 + [0], r"^TWO: graph 10 has label True;"),
], ids=["negative", "float", "bool"])
def test_run_protocol_rejects_labels_that_are_not_class_indices(
        monkeypatch, labels, message):
    records = [gd.GraphRecord(gd.GraphTopology(2, [(0, 1)]), label, [0, 1])
               for label in labels]
    ds = gd.build_node_features(gd.Dataset("TWO", records, 2),
                                "node-label-onehot")

    def never(*args, **kwargs):
        raise AssertionError("reached before the labels were checked")

    monkeypatch.setattr(ev, "stratified_folds", never)
    with pytest.raises(DataError, match=message):
        ev.run_protocol(ds, tr.Hyperparams(epochs=0), n_runs=1)


def test_embed_dataset_rejects_an_empty_dataset():
    phi, _, _ = gnn.init_params(gnn.ModelDims(feature_dim=3), seed=0)
    with pytest.raises(DataError, match="no graphs"):
        ev.embed_dataset(phi, gd.Dataset("EMPTY", [], 0))
