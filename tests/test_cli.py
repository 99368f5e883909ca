import importlib
import json
import multiprocessing
import os
import subprocess
import sys
from dataclasses import asdict, fields

import numpy as np
import pytest

from megagcl import cli
from megagcl import evaluation as ev
from megagcl import graphdata as gd
from megagcl import openblas
from megagcl import training as tr
from megagcl.errors import ConfigError, DataError

from conftest import REPO_ROOT, two_triangles, write_tu_fixture


def test_every_console_script_imports_and_is_callable():
    tomllib = pytest.importorskip("tomllib")  # standard from Python 3.11
    project = tomllib.loads((REPO_ROOT / "pyproject.toml").read_text())
    scripts = project["project"]["scripts"]
    assert scripts
    for target in scripts.values():
        module, attr = target.split(":")
        assert callable(getattr(importlib.import_module(module), attr))


def _load(folder, name):
    return gd.build_node_features(gd.parse_tu_dataset(folder, name),
                                  "node-label-onehot")


def test_train_prints_the_run_summary(tmp_path, capsys):
    folder = two_triangles(tmp_path)
    assert cli.main(["train", str(folder), "TRI", "--mode", "ccl",
                     "--epochs", "2", "--seed", "3"]) == 0
    printed = json.loads(capsys.readouterr().out)
    _, log = tr.train(_load(folder, "TRI"), tr.Hyperparams(epochs=2, seed=3),
                      mode="ccl")
    assert printed == {**log.summary, "blas_threads": openblas.threads()}
    assert printed["iterations"] == 2 and np.isfinite(printed["final_l_mega"])
    assert printed["mode"] == "ccl" and printed["epochs"] == 2
    assert printed["lam"] == tr.Hyperparams.lam  # a default, printed


def test_eval_prints_protocol_mean_and_std(tmp_path, capsys):
    # ten triangles and ten three-node paths: every fold gets both classes
    a_lines, indicator, labels = [], [], []
    for g in range(20):
        off = 3 * g
        pairs = [(1, 2), (2, 3)] + ([(1, 3)] if g % 2 == 0 else [])
        for u, v in pairs:
            a_lines += [f"{off + u}, {off + v}", f"{off + v}, {off + u}"]
        indicator += [g + 1] * 3
        labels.append(g % 2)
    folder = write_tu_fixture(tmp_path, "TP", a_lines, indicator, labels,
                              node_labels=[0, 1, 0] * 20)
    assert cli.main(["eval", str(folder), "TP", "--epochs", "0",
                     "--seed", "1"]) == 0
    printed = json.loads(capsys.readouterr().out)
    hp = tr.Hyperparams(epochs=0, seed=1)
    want = ev.run_protocol(_load(folder, "TP"), hp)
    assert printed == {"mode": "mega", **asdict(hp),
                       "seeds": list(range(1, 11)),
                       "accuracies": want.accuracies,
                       "mean": want.mean, "std": want.std,
                       "blas_threads": openblas.threads()}


def _stub_runs(monkeypatch):
    """Stub ``train`` and ``run_protocol``; the list of (settings, mode)
    each call was given."""
    ran = []

    def train(dataset, hp, mode):
        ran.append((hp, mode))
        return None, tr.MetricsLog()

    def run_protocol(dataset, hp, mode):
        ran.append((hp, mode))
        return ev.ProbeResult.from_runs([0], [1.0])

    monkeypatch.setattr(tr, "train", train)
    monkeypatch.setattr(ev, "run_protocol", run_protocol)
    return ran


@pytest.mark.parametrize("command", ["train", "eval"])
def test_no_options_give_the_default_settings(tmp_path, monkeypatch,
                                              command):
    ran = _stub_runs(monkeypatch)
    assert cli.main([command, str(two_triangles(tmp_path)), "TRI"]) == 0
    assert ran == [(tr.Hyperparams(), "mega")]


def test_each_flag_sets_its_field(tmp_path, monkeypatch):
    ran = _stub_runs(monkeypatch)
    values = dict(tau=0.25, lam=0.0, inner_lr=0.02, encoder_lr=0.03,
                  augmenter_lr=0.04, epochs=7, batch_size=5, seed=9)
    assert set(values) == {f.name for f in fields(tr.Hyperparams)}
    flags = [arg for name, value in values.items()
             for arg in ("--" + name.replace("_", "-"), str(value))]
    cli.main(["train", str(two_triangles(tmp_path)), "TRI", *flags])
    assert ran == [(tr.Hyperparams(**values), "mega")]


@pytest.mark.parametrize("flag, value, field", [
    ("--tau", "nan", "tau"), ("--augmenter-lr", "inf", "augmenter_lr"),
    ("--batch-size", "1", "batch_size"), ("--epochs", "-1", "epochs")])
def test_a_bad_flag_names_its_field(tmp_path, flag, value, field):
    # checked by Hyperparams before any file is read
    missing = str(tmp_path / "missing")
    for command in ("train", "eval"):
        with pytest.raises(ConfigError, match=f"^{field} must be"):
            cli.main([command, missing, "NONE", flag, value])


def test_misuse_raises_config_error(tmp_path):
    folder = str(two_triangles(tmp_path))
    empty = str(write_tu_fixture(tmp_path / "empty", "E", [], [], [],
                                 node_labels=[]))
    one = str(write_tu_fixture(tmp_path / "one", "ONE", ["1, 2", "2, 1"],
                               [1, 1], [1], node_labels=[0, 1]))
    for argv in ([], ["bench"], ["train"], ["train", folder],
                 ["train", folder, "TRI", "--mode", "gin-riu"],
                 ["eval", folder, "TRI", "--mode", "mega-il"],
                 ["eval", folder, "TRI", "--mode", "nope"],
                 ["train", folder, "TRI", "--epochs", "two"],
                 ["train", folder, "TRI", "--epochs", "-1"],
                 ["train", folder, "TRI", "--seed", "-1"],
                 ["train", one, "ONE"]):
        with pytest.raises(ConfigError):
            cli.main(argv)
    # a folder with no graphs is bad input data, rejected by the parser
    with pytest.raises(DataError, match="no graphs"):
        cli.main(["eval", empty, "E", "--epochs", "0"])


def _eval_output(path, accuracies, first_seed=0, **settings):
    seeds = list(range(first_seed, first_seed + len(accuracies)))
    path.write_text(json.dumps({"mode": "mega", **settings, "seeds": seeds,
                                "accuracies": accuracies,
                                "mean": float(np.mean(accuracies)),
                                "std": float(np.std(accuracies))}))
    return str(path)


def test_compare_prints_the_paired_difference(tmp_path, capsys):
    before = _eval_output(tmp_path / "before.json", [80.0, 82.5, 84.0, 86.5])
    after = _eval_output(tmp_path / "after.json", [81.0, 82.5, 86.0, 85.5])
    assert cli.main(["compare", before, after]) == 0
    printed = json.loads(capsys.readouterr().out)
    # differences 1, 0, 2, -1: mean 0.5, sample variance 5/3, standard
    # error sqrt(5/3)/2 = 0.6454972, and t(0.975, 3 df) = 3.1824463
    half = 3.1824463 * 0.6454972
    assert printed["n"] == 4 and (printed["up"], printed["down"]) == (2, 1)
    assert printed["mean"] == 0.5
    np.testing.assert_allclose(printed["ci95"], [0.5 - half, 0.5 + half],
                               rtol=0, atol=1e-6)
    # outputs that hold no settings still compare, their settings null
    unknown = {"mode": "mega", **dict.fromkeys(asdict(tr.Hyperparams()))}
    assert printed["before"] == printed["after"] == unknown


def test_compare_prints_the_settings_of_both_outputs(tmp_path, capsys):
    hp = tr.Hyperparams(epochs=20)
    ablation = tr.Hyperparams(epochs=20, lam=0.0)
    before = _eval_output(tmp_path / "before.json", [80.0, 82.0],
                          **asdict(hp))
    after = _eval_output(tmp_path / "after.json", [81.0, 82.0],
                         **asdict(ablation))
    assert cli.main(["compare", before, after]) == 0
    printed = json.loads(capsys.readouterr().out)
    assert printed["before"] == {"mode": "mega", **asdict(hp)}
    assert printed["after"] == {"mode": "mega", **asdict(ablation)}
    assert printed["n"] == 2 and printed["mean"] == 0.5


def test_compare_needs_equal_seed_counts_of_at_least_two(tmp_path):
    three = _eval_output(tmp_path / "three.json", [80.0, 81.0, 82.0])
    four = _eval_output(tmp_path / "four.json", [80.0, 81.0, 82.0, 83.0])
    one = _eval_output(tmp_path / "one.json", [80.0])
    for pair in ((three, four), (four, three), (one, one)):
        with pytest.raises(ConfigError, match="equal seed counts"):
            cli.main(["compare", *pair])
    with pytest.raises(ConfigError):
        cli.main(["compare", three])


def test_compare_refuses_outputs_over_different_seeds(tmp_path):
    accuracies = [80.0, 81.0, 82.0]
    zero = _eval_output(tmp_path / "zero.json", accuracies)
    one = _eval_output(tmp_path / "one.json", accuracies, first_seed=1)
    unseeded = tmp_path / "unseeded.json"
    unseeded.write_text(json.dumps({"accuracies": accuracies}))
    for pair in ((zero, one), (one, zero), (zero, str(unseeded))):
        with pytest.raises(ConfigError, match="same seeds"):
            cli.main(["compare", *pair])


@pytest.mark.parametrize("content", [
    None, "not json", json.dumps({"mean": 81.0}),
    json.dumps({"accuracies": ["a", "b"], "seeds": [0, 1]})],
    ids=["missing", "not-json", "no-accuracies", "text-accuracies"])
def test_compare_rejects_a_file_that_is_not_an_eval_output(tmp_path, content):
    good = _eval_output(tmp_path / "good.json", [80.0, 81.0])
    bad = tmp_path / "bad.json"
    if content is not None:
        bad.write_text(content)
    for pair in ((good, str(bad)), (str(bad), good)):
        with pytest.raises(DataError, match="bad.json"):
            cli.main(["compare", *pair])


def test_help_gives_each_setting_its_meaning_and_default(capsys):
    for command in ("train", "eval"):
        with pytest.raises(SystemExit) as done:
            cli.main([command, "--help"])
        assert done.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        flags = ["--" + f.name.replace("_", "-")
                 for f in fields(tr.Hyperparams)]
        # each flag's entry runs from its name to the next flag's
        entries = dict(zip(flags, (text.split(f" {flag} ")[-1].split(" --")[0]
                                   for flag in flags)))
        assert all("(default: " in entry for entry in entries.values())
        assert entries["--lam"].endswith("(default: 0.1)")
        assert "0 is the untrained encoder (GIN-RIU)" in entries["--epochs"]


# importing the package sets one OpenBLAS thread, and main leaves it
_BLAS_THREADS = """
import json, sys
import numpy as np
from megagcl import cli, openblas
np.ones((300, 300)) @ np.ones((300, 300))
imported = openblas.threads()
cli.main(["train", sys.argv[1], "TRI", "--epochs", "0", "--batch-size", "2"])
print(json.dumps([imported, openblas.threads()]))
"""


def test_importing_sets_one_openblas_thread_and_main_leaves_it(tmp_path):
    if openblas.threads() == "unknown" or os.cpu_count() < 2:
        pytest.skip("needs an OpenBLAS thread getter and two CPUs")
    done = subprocess.run(
        [sys.executable, "-c", _BLAS_THREADS, str(two_triangles(tmp_path))],
        capture_output=True, text=True, check=True, timeout=120,
        env={**os.environ, "OPENBLAS_NUM_THREADS": "2",
             "PYTHONPATH": str(REPO_ROOT / "src")})
    assert json.loads(done.stdout.splitlines()[-1]) == [1, 1]
    assert done.stderr == ""


def test_the_test_session_runs_at_one_openblas_thread():
    # importing the package sets one, so no test's bits depend on the
    # settings the session was started with
    if openblas.threads() == "unknown":
        pytest.skip("needs an OpenBLAS thread getter")
    assert openblas.threads() == 1


def test_a_spawned_worker_runs_at_one_openblas_thread(monkeypatch):
    # a worker's first unpickled call imports the package, which sets one
    # thread, so a process pool needs no initializer for it
    if openblas.threads() == "unknown" or os.cpu_count() < 2:
        pytest.skip("needs an OpenBLAS thread getter and two CPUs")
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    with multiprocessing.get_context("spawn").Pool(1) as pool:
        assert pool.apply_async(openblas.threads).get(timeout=60) == 1


@pytest.mark.parametrize("command", ["train", "eval"])
def test_train_and_eval_print_the_blas_threads_they_ran_at(
        tmp_path, monkeypatch, capsys, command):
    _stub_runs(monkeypatch)
    monkeypatch.setattr(openblas, "threads", lambda: 4)
    assert cli.main([command, str(two_triangles(tmp_path)), "TRI"]) == 0
    assert json.loads(capsys.readouterr().out)["blas_threads"] == 4
