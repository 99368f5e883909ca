"""The benchmark's workloads, their output checks and their metrics.

``mutag-mega`` trains the full MEGA loop on MUTAG as shipped: small batches
where per-primitive Python and tape overhead and the second-order meta step
dominate. ``large-ccl`` trains plain contrastive learning on seeded
synthetic graphs about ten times larger, so aggregation dominates and the
augmenter and second-order path are bypassed. ``large-embed`` runs the same
synthetic graphs forward only, with no tape, through a freshly initialised
encoder, so batching and untaped primitives dominate.

Every function here calls the program through module attributes
(``training.train``, ``gnn.encode``, ...), so the traced run sees each call
through its wrappers.

Timed samples are kept as (start, end) clock readings and reported at the
reference host speed of ``hostspeed``: each is scaled by the host-speed
marks taken just before and after it.
"""

import gc
import json
import resource
import statistics
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

from megagcl import augmenter, gnn, graphdata, losses, training
from megagcl import autodiff as ad

import hostspeed
import synth
import tracing

HERE = Path(__file__).resolve().parent
REFERENCE_FILE = HERE / "reference.json"

BATCH = 32             # training batch, as in the paper's MUTAG runs
EMBED_BATCH = 64       # evaluation.embed_dataset's batch
N_VARIANTS = 64        # --seed selects one of this many input variants
MIN_ROUNDS = 3         # a run measures at least this many rounds
SETUP_SHARE = 0.15     # share of a run spent timing repeated set-ups
TRACED_ROUNDS = 3
LARGE_GRAPHS = 128
REF_RTOL = 1e-6        # final losses against reference.json
EMBED_RTOL = 1e-9      # embedding checks, relative to the embedding scale
FD_STEP = 3e-4
FD_RTOL, FD_ATOL = 1e-4, 1e-8

WORKLOADS = {
    "mutag-mega": dict(data="mutag", mode="mega", epochs=2),
    "large-ccl": dict(data="large", mode="ccl", epochs=1),
    "large-embed": dict(data="large", mode=None, epochs=None),
}

END_TO_END = {
    "setup_s": "s",
    "graphs_per_s": "graphs/s",
    "step_ms_p50": "ms",
    "peak_rss_mb": "MB",
}

# primitive kinds that take at least 1% of step time on some workload
PRIM_KINDS = ("add", "mul", "matmul", "relu", "transpose", "gather-rows",
              "scatter-add-rows")

LAYER_MS = ("graphdata.batch_graphs", "augmenter.lga_edge_weights",
            "gnn.encode", "gnn.gin_layer_forward", "gnn.readout",
            "gnn.project", "losses.nt_xent", "losses.instance_corr",
            "losses.feature_corr", "losses.mega_loss",
            "autodiff.backward.first", "autodiff.backward.create_graph",
            "autodiff.adam_step", "autodiff.sgd_virtual_step")

# ``<layer>.ms`` is the median wall time of one call, child spans included,
# except ``graphdata.batch_graphs.ms``, which is self time. Primitive and
# ``training.step_self`` figures are self time, calls and output bytes per
# step. Layers a workload never calls read 0. Span figures are unscaled wall
# time; ``training.<kind>_step.*`` and ``trace.overhead_ratio`` come from
# samples at the reference host speed, as the end-to-end metrics do.
PER_LAYER = {
    "graphdata.parse_tu_dataset.s": "s",
    "graphdata.build_node_features.s": "s",
    **{f"{name}.ms": "ms" for name in LAYER_MS},
    "autodiff.tape_nodes.contrast": "count",
    "autodiff.tape_nodes.meta": "count",
    "autodiff.tape_nodes_2nd_gen.meta": "count",
    "training.contrast_step.ms_p50": "ms",
    "training.contrast_step.ms_p90": "ms",
    "training.contrast_step.n": "count",
    "training.meta_step.ms_p50": "ms",
    "training.meta_step.ms_p90": "ms",
    "training.meta_step.n": "count",
    "training.step_self.ms": "ms",
    **{f"autodiff.prim.{k}.{m}": u for k in PRIM_KINDS
       for m, u in (("ms", "ms"), ("calls", "count"), ("mb", "MB"))},
    "trace.overhead_ratio": "ratio",
    "trace.missing_spans": "count",
}


class Tally:
    """Counts attempted and failed operations and checks. A failure prints
    why to stderr; nothing is skipped silently."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def run(self, what, fn, *args):
        self.attempted += 1
        try:
            return fn(*args)
        except Exception:
            self.failed += 1
            print(f"FAILED {what}:", file=sys.stderr)
            traceback.print_exc()
            return None

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"CHECK FAILED {what}", file=sys.stderr)


# ---------------------------------------------------------------------------
# inputs and set-up
# ---------------------------------------------------------------------------

def write_inputs(root, data, variant, tmp):
    """Where the dataset's TU files are: MUTAG as shipped, or a synthetic
    set generated from the variant into ``tmp``."""
    if data == "mutag":
        return Path(root) / "data", "MUTAG"
    synth.write_tu(tmp, "LARGE", LARGE_GRAPHS, variant)
    return Path(tmp), "LARGE"


def load(folder, name, seed):
    """Set-up as a user pays it: parse, featurise, initialise parameters."""
    ds = graphdata.parse_tu_dataset(folder, name)
    ds = graphdata.build_node_features(ds, "node-label-onehot")
    state = training.init_train_state(
        gnn.ModelDims(feature_dim=ds.feature_width), seed)
    return ds, state


# ---------------------------------------------------------------------------
# the operations that are timed
# ---------------------------------------------------------------------------

def hyperparams(spec, seed):
    return training.Hyperparams(epochs=spec["epochs"], batch_size=BATCH,
                                seed=seed)


def train_once(ds, spec, seed):
    """One ``training.train`` call; returns the final (l_contrast, l_mega)."""
    _, log = training.train(ds, hyperparams(spec, seed), mode=spec["mode"])
    return log.summary["final_l_contrast"], log.summary["final_l_mega"]


def embed(records, phi, batch_times=None):
    """Forward-only pooled embeddings, as ``evaluation.embed_dataset``
    computes them: unit edge weights, no projection head, no tape. Each
    batch's (start, end) goes to ``batch_times`` if given."""
    rows = []
    for start in range(0, len(records), EMBED_BATCH):
        t0 = perf_counter()
        batch = graphdata.batch_graphs(records[start:start + EMBED_BATCH])
        weights = ad.constant(np.ones((batch.n_edges, 1)))
        rows.append(gnn.readout(batch, gnn.encode(batch, weights, phi)).data)
        if batch_times is not None:
            batch_times.append((t0, perf_counter()))
    return np.concatenate(rows, axis=0)


def step_epoch(ds, state, hp, mode, rng, tally, times):
    """One epoch of contrast and meta steps, driven as ``training.train``
    drives them. Each step call is timed with two clock reads and its
    (start, end) appended to ``times`` by step kind."""
    gc.collect()
    order = rng.permutation(len(ds.records))
    tape = ad.Tape()
    with ad.use_tape(tape):
        for start in range(0, len(order) - 1, BATCH):
            tape.reset()
            state.adopt_all(tape)
            batch = graphdata.batch_graphs(
                [ds.records[i] for i in order[start:start + BATCH]])
            kind = "meta" if mode == "mega" and state.iteration % 2 \
                else "contrast"
            t0 = perf_counter()
            if kind == "meta":
                done = tally.run("meta_step", training.meta_step, state,
                                 batch, hp)
            else:
                done = tally.run("contrast_step", training.contrast_step,
                                 state, batch, hp, mode == "ccl")
            t1 = perf_counter()
            state.iteration += 1
            if done is not None:
                tally.check(np.isfinite(done["l_contrast"])
                            and np.isfinite(done["l_mega"]),
                            f"{kind} step losses are finite")
                times[kind].append((t0, t1))


def timed(op, check, speed):
    """(start, end) of one ``op`` call, or None when it failed (returned
    None). The result goes to ``check`` after the clock stops; a host-speed
    mark follows."""
    gc.collect()
    t0 = perf_counter()
    out = op()
    t1 = perf_counter()
    speed.mark()
    if out is None:
        return None
    check(out)
    return t0, t1


def measure(seconds, setup, work, speed):
    """Rounds of ``work.op`` and ``work.between`` until ``seconds`` have
    passed, and at least MIN_ROUNDS. A round starts with a timed ``setup``
    while set-up has taken under SETUP_SHARE of the run so far. Set-up, op
    and between samples so all span the whole run, not a slice of it each.
    A host-speed mark precedes and follows every timed piece. Returns the
    (start, end) of the set-ups and ops that succeeded."""
    setups, walls = [], []
    rounds = 0
    start = perf_counter()
    speed.mark()
    while rounds < MIN_ROUNDS or perf_counter() < start + seconds:
        rounds += 1
        if sum(t1 - t0 for t0, t1 in setups) <= \
                SETUP_SHARE * (perf_counter() - start):
            setups.append(timed(setup, lambda out: None, speed))
            setups = [s for s in setups if s is not None]
        walls.append(timed(work.op, work.check, speed))
        if work.between:
            work.between()
            speed.mark()
    return setups, [w for w in walls if w is not None]


# ---------------------------------------------------------------------------
# output checks, all outside the timed regions
# ---------------------------------------------------------------------------

def reference(workload, variant):
    table = json.loads(REFERENCE_FILE.read_text())
    return table[workload][str(variant)]


def close(got, want, rtol):
    got, want = np.asarray(got, float), np.asarray(want, float)
    return bool(np.all(np.isfinite(got))
                and np.all(np.abs(got - want) <= rtol * np.abs(want)))


def meta_objective(phi_data, psi_data, sigma_data, batch, hp, hat_weights):
    """The meta objective as a function of the augmenter's parameters, from
    public functions only. The stop-gradient view is pinned to
    ``hat_weights``: the implemented meta-gradient holds it constant."""
    tape = ad.Tape()
    with ad.use_tape(tape):
        enc = [tape.adopt(ad.Tensor(d.copy())) for d in phi_data + psi_data]
        sigma = augmenter.AugmenterParams.from_tensors(
            [tape.adopt(ad.Tensor(d.copy())) for d in sigma_data])
        n_phi = len(phi_data)

        def features(weights, params):
            phi = gnn.EncoderParams.from_tensors(params[:n_phi])
            psi = gnn.MlpParams.from_tensors(params[n_phi:])
            h = gnn.readout(batch, gnn.encode(batch, weights, phi))
            return gnn.project(h, psi)

        ones = ad.constant(np.ones((batch.n_edges, 1)))
        weights = augmenter.lga_edge_weights(batch, sigma)
        l_contrast = losses.nt_xent(features(ones, enc),
                                    features(weights, enc), hp.tau)
        grads = ad.backward(l_contrast, enc, create_graph=True)
        virtual = ad.sgd_virtual_step(enc, grads, hp.inner_lr)
        z = features(ones, virtual)
        z_aug = features(ad.constant(hat_weights), virtual)
        return losses.mega_loss(losses.instance_corr(z, z_aug),
                                losses.feature_corr(z, z_aug), hp.lam).item()


def check_meta_gradient(ds, spec, seed):
    """<grad sigma, v> from ``training.meta_gradients`` against a central
    difference of the meta objective along a random unit direction v, on
    one batch. Returns (analytic, finite difference)."""
    hp = hyperparams(spec, seed)
    rng = np.random.default_rng(seed)
    records = [ds.records[i] for i in rng.permutation(len(ds.records))[:BATCH]]
    batch = graphdata.batch_graphs(records)
    state = training.init_train_state(
        gnn.ModelDims(feature_dim=ds.feature_width), seed)
    tape = ad.Tape()
    with ad.use_tape(tape):
        state.adopt_all(tape)
        grads, _ = training.meta_gradients(state.phi, state.psi, state.sigma,
                                           batch, hp)
        with tape.paused():
            hat = augmenter.lga_edge_weights(batch, state.sigma).data
    sigma = [t.data for t in state.sigma.tensors()]
    v = [rng.standard_normal(s.shape) for s in sigma]
    norm = np.sqrt(sum(float((x * x).sum()) for x in v))
    v = [x / norm for x in v]
    analytic = sum(float((grads[t].data * x).sum())
                   for t, x in zip(state.sigma.tensors(), v))
    phi = [t.data for t in state.phi.tensors()]
    psi = [t.data for t in state.psi.tensors()]

    def along(step):
        moved = [s + step * x for s, x in zip(sigma, v)]
        return meta_objective(phi, psi, moved, batch, hp, hat)

    fd = (along(FD_STEP) - along(-FD_STEP)) / (2 * FD_STEP)
    return analytic, fd


def check_embedding(records, phi):
    """Largest gap between embedding a batch and embedding its graphs one by
    one, relative to the embedding's scale."""
    together = embed(records, phi)
    alone = np.concatenate([embed([r], phi) for r in records], axis=0)
    scale = max(1.0, float(np.abs(alone).max()))
    return float(np.abs(together - alone).max()) / scale


def embed_checksum(embedding):
    return float(np.abs(embedding).sum())


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------

def _tape_len():
    tape = ad.active_tape()
    return len(tape.nodes) if tape is not None else 0


def _backward_name(args, kwargs):
    create = kwargs.get("create_graph", args[2] if len(args) > 2 else False)
    return ("autodiff.backward.create_graph" if create
            else "autodiff.backward.first")


def trace_targets():
    T = tracing.Target
    plain = [(graphdata, "parse_tu_dataset"), (graphdata, "build_node_features"),
             (graphdata, "batch_graphs"), (augmenter, "lga_edge_weights"),
             (gnn, "encode"), (gnn, "gin_layer_forward"), (gnn, "readout"),
             (gnn, "project"), (losses, "nt_xent"), (losses, "instance_corr"),
             (losses, "feature_corr"), (losses, "mega_loss"),
             (ad, "adam_step"), (ad, "sgd_virtual_step"),
             (training, "meta_gradients")]
    return [T(m, a) for m, a in plain] + [
        # training imports batch_graphs by name; wrap the name it looks up
        T(training, "batch_graphs",
          namer=lambda args, kwargs: "graphdata.batch_graphs"),
        T(training, "contrast_step", probe=_tape_len),
        T(training, "meta_step", probe=_tape_len),
        T(ad, "backward", namer=_backward_name, probe=_tape_len),
        T(ad, "primitive_forward",
          namer=lambda args, kwargs: "autodiff.prim." + args[0],
          sizer=lambda out: out.data.nbytes),
    ]


def _p(values, q):
    return float(np.percentile(values, q)) if values else 0.0


def layer_metrics(spans, selfs, n_steps):
    """Per-layer figures from the traced rounds' spans and self times.
    Totals are per step: per training iteration, or per embedding batch."""
    by_name = {}
    for s, own in zip(spans, selfs):
        by_name.setdefault(s.name, []).append((s, own))
    out = {}
    for name in ("graphdata.parse_tu_dataset", "graphdata.build_node_features"):
        out[f"{name}.s"] = _p([s.duration for s, _ in by_name.get(name, [])],
                              50)
    out["graphdata.batch_graphs.ms"] = _p(
        [own * 1e3 for _, own in by_name.get("graphdata.batch_graphs", [])], 50)
    for name in LAYER_MS[1:]:
        out[f"{name}.ms"] = _p([s.duration * 1e3
                                for s, _ in by_name.get(name, [])], 50)
    for kind in ("contrast", "meta"):
        out[f"autodiff.tape_nodes.{kind}"] = _p(
            [s.after for s, _ in by_name.get(f"training.{kind}_step", [])], 50)
    out["autodiff.tape_nodes_2nd_gen.meta"] = _p(
        [s.after - s.before
         for s, _ in by_name.get("autodiff.backward.create_graph", [])], 50)
    step_self = sum(own for name in (*Training.STEP_SPANS,
                                     "training.meta_gradients")
                    for _, own in by_name.get(name, []))
    out["training.step_self.ms"] = step_self * 1e3 / n_steps
    for kind in PRIM_KINDS:
        calls = by_name.get(f"autodiff.prim.{kind}", [])
        out[f"autodiff.prim.{kind}.ms"] = \
            sum(own for _, own in calls) * 1e3 / n_steps
        out[f"autodiff.prim.{kind}.calls"] = len(calls) / n_steps
        out[f"autodiff.prim.{kind}.mb"] = \
            sum(s.nbytes for s, _ in calls) / 1e6 / n_steps
    return out


def step_self_sums_match(spans, selfs):
    """Whether, under every training step span, the self times of the span
    and its descendants add up to the step's duration."""
    subtree = list(selfs)
    for i in range(len(spans) - 1, -1, -1):
        if spans[i].parent >= 0:
            subtree[spans[i].parent] += subtree[i]
    steps = [i for i, s in enumerate(spans)
             if s.name in Training.STEP_SPANS]
    return all(abs(subtree[i] - spans[i].duration)
               <= 1e-9 + 1e-9 * spans[i].duration for i in steps)


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------

def run(workload, seed, seconds, trace, root):
    """Run one workload; returns (metrics {name: (value, unit)}, tally,
    info), where ``info`` holds the unscaled wall-clock figures and the
    host-speed loop times, for the record."""
    spec = WORKLOADS[workload]
    variant = seed % N_VARIANTS
    tally = Tally()
    speed = hostspeed.HostSpeed()
    with tempfile.TemporaryDirectory(prefix=".megabench-", dir=root) as tmp:
        folder, name = write_inputs(root, spec["data"], variant, tmp)

        def setup():
            return tally.run("setup", load, folder, name, variant)

        ds, state = load(folder, name, variant)
        kind = Embedding if spec["mode"] is None else Training
        work = kind(ds, state, spec, variant, reference(workload, variant),
                    tally)
        timed(work.op, work.check, speed)  # warm-up, untimed
        work.verify()
        work.reset()
        setups, walls = measure(seconds, setup, work, speed)
        info = {"wall.setup_s":
                    statistics.median(t1 - t0 for t0, t1 in setups),
                "wall.graphs_per_s": len(walls) * work.graphs_per_op
                / sum(t1 - t0 for t0, t1 in walls),
                "wall.step_ms_p50": statistics.median(
                    (t1 - t0) * 1e3 for t0, t1 in work.samples()),
                "host.loop_ms_p50": statistics.median(speed.loops) * 1e3,
                "host.loop_ms_min": min(speed.loops) * 1e3,
                "host.loop_ms_max": max(speed.loops) * 1e3,
                "host.marks": len(speed.loops)}
        walls = speed.scaled(walls)
        if not trace:
            figures = {
                "setup_s": statistics.median(speed.scaled(setups)),
                "graphs_per_s": len(walls) * work.graphs_per_op / sum(walls),
                "step_ms_p50":
                    statistics.median(speed.scaled(work.samples())) * 1e3,
                "peak_rss_mb": peak_rss_mb(),
            }
            return ({k: (figures[k], u) for k, u in END_TO_END.items()},
                    tally, info)

        figures = work.layer_figures(speed)
        with tracing.Tracer(trace_targets()) as tracer:
            traced = []
            speed.mark()
            for _ in range(TRACED_ROUNDS):
                timed(setup, lambda out: None, speed)
                traced.append(timed(work.op, work.check, speed))
    traced = speed.scaled([w for w in traced if w is not None])
    figures["trace.overhead_ratio"] = \
        statistics.median(traced) / statistics.median(walls)
    if tracer.missing:
        print(f"spans missing: {', '.join(tracer.missing)}", file=sys.stderr)
    figures["trace.missing_spans"] = len(tracer.missing)
    selfs = tracing.self_times(tracer.spans)
    n_steps = sum(1 for s in tracer.spans if s.name in work.STEP_SPANS)
    figures.update(layer_metrics(tracer.spans, selfs, max(n_steps, 1)))
    if spec["mode"] is not None:
        tally.check(step_self_sums_match(tracer.spans, selfs),
                    "self times under each step add up to its duration")
    return ({k: (figures.get(k, 0.0), u) for k, u in PER_LAYER.items()},
            tally, info)


class Training:
    """``training.train`` calls, alternating with epochs of single steps."""

    STEP_SPANS = ("training.contrast_step", "training.meta_step")

    def __init__(self, ds, state, spec, variant, want, tally):
        self.ds, self.state, self.spec = ds, state, spec
        self.variant, self.want, self.tally = variant, want, tally
        self.hp = hyperparams(spec, variant)
        self.rng = np.random.default_rng(variant)
        self.graphs_per_op = len(ds.records) * spec["epochs"]
        self.reset()

    def reset(self):
        self.steps = {"contrast": [], "meta": []}

    def op(self):
        return self.tally.run("train", train_once, self.ds, self.spec,
                              self.variant)

    def check(self, got):
        self.tally.check(close(got, self.want, REF_RTOL),
                         f"final losses {got} match reference {self.want}")

    def between(self):
        step_epoch(self.ds, self.state, self.hp, self.spec["mode"], self.rng,
                   self.tally, self.steps)

    def verify(self):
        if self.spec["mode"] != "mega":
            return
        got = self.tally.run("meta-gradient check", check_meta_gradient,
                             self.ds, self.spec, self.variant)
        if got is not None:
            analytic, fd = got
            self.tally.check(
                abs(analytic - fd) <= FD_ATOL + FD_RTOL * abs(fd),
                f"meta-gradient {analytic} matches finite difference {fd}")

    def samples(self):
        """The step the workload is about: the meta step under mega."""
        return self.steps["meta" if self.spec["mode"] == "mega"
                          else "contrast"]

    def layer_figures(self, speed):
        out = {}
        for kind, samples in self.steps.items():
            ms = [t * 1e3 for t in speed.scaled(samples)]
            out[f"training.{kind}_step.ms_p50"] = _p(ms, 50)
            out[f"training.{kind}_step.ms_p90"] = _p(ms, 90)
            out[f"training.{kind}_step.n"] = len(ms)
        return out


class Embedding:
    """Forward-only embedding passes over the whole dataset."""

    STEP_SPANS = ("gnn.encode",)

    def __init__(self, ds, state, spec, variant, want, tally):
        self.records, self.phi = ds.records, state.phi
        self.want, self.tally = want, tally
        self.graphs_per_op = len(ds.records)
        self.reset()

    def reset(self):
        self.batch_ms = []

    def op(self):
        return self.tally.run("embed", embed, self.records, self.phi,
                              self.batch_ms)

    def check(self, got):
        self.tally.check(close(embed_checksum(got), self.want, EMBED_RTOL),
                         f"embedding checksum matches reference {self.want}")

    between = None  # nothing runs between embedding passes

    def verify(self):
        gap = self.tally.run("batch-vs-single check", check_embedding,
                             self.records[:EMBED_BATCH], self.phi)
        if gap is not None:
            self.tally.check(gap <= EMBED_RTOL,
                             f"batched embedding equals one-by-one (gap {gap})")

    def samples(self):
        return self.batch_ms

    def layer_figures(self, speed):
        return {}


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
