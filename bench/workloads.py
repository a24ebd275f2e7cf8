"""The benchmark's workloads: set-up, timed loops, correctness checks, metrics.

Every workload trains one network through rgconv's public API. A run

1. sets up a model and its inputs from ``--seed`` (set-up time counts from
   the start of the process);
2. spends the time budget on timed rounds of one optimizer step and one
   single-sample inference, interleaved with repeats of ``train(cfg)`` at
   the workload's fixture config and the fixture's own seed, so that its
   loss is the same number on every repeat and every run;
3. takes one untimed step under ``tracemalloc``;
4. runs the correctness checks against the oracles in ``oracles.py``.

With tracing on, every round adds one traced step after the untraced one,
which stays the reference ``step_s``, and ``train(cfg)`` runs once, traced,
after the rounds; set-up is traced too.
"""

from __future__ import annotations

import statistics
import time
import traceback
import tracemalloc
from collections import defaultdict
from dataclasses import dataclass, field, replace

import numpy as np

import oracles
from tracer import LAYER_CLASSES, Tracer

MIN_SAMPLES = 3  # timed rounds and train(cfg) repeats, even past the budget
TRAIN_SHARE = 0.4  # of the measuring time, spent repeating train(cfg)
COVERAGE_MARGIN = 0.15  # traced self times vs untraced step_s
EQUIV_SPLIT = 1e-10  # equivariance error / output scale: below inside, above outside
# A ReLU kink within one difference step spoils that step's estimate; it is
# less likely within each smaller step, and within those of a second direction.
FD_STEPS = (1e-6, 1e-7, 1e-8)
FD_DIRECTIONS = 2
FD_RTOL = 5e-4
ORACLE_RTOL = 1e-12
QUALITY_RATIO = 0.8  # the net must beat trilinear by 20% (acceptance criterion 8)


@dataclass(frozen=True)
class Workload:
    name: str
    task: str  # discovery fixture name, or the flow task
    layer_kind: str
    train_epochs: int  # epochs of the timed train(cfg)
    stabilizer_size: int = 0  # known |Stab(x) & Stab(y)|, discovery only
    probe_size: int = 0  # grid extent of the equivariance probe, discovery only

    @property
    def discovery(self) -> bool:
        return not self.task.startswith("flow")


WORKLOADS = {
    w.name: w
    for w in (
        Workload("discovery_o48", "cubic_to_tetragonal", "relaxed_equiv", 5, 8, 5),
        Workload("discovery_c4", "square_to_rectangle", "relaxed_equiv", 50, 2, 15),
        Workload("superres_o24_relaxed", "flow_channel", "relaxed_equiv", 2),
        Workload("superres_conv_matched", "flow_channel", "conv", 2),
    )
}

# parameter count of the relaxed criterion-8 model, which the plain-conv
# baseline matches; checked against build_model after the timed part so that
# set-up of the conv workload builds no group
MATCHED_PARAMS = 3924


def make_config(rg, w: Workload, seed=None):
    """The workload's config; ``seed=None`` keeps the fixture's own seed."""
    from fixtures import DISCOVERY_FIXTURES, SUPERRES_ACCEPTANCE, SUPERRES_SEEDS

    if w.discovery:
        fields = dict(DISCOVERY_FIXTURES[w.task], epochs=w.train_epochs)
    else:
        fields = dict(SUPERRES_ACCEPTANCE, task=w.task, epochs=w.train_epochs,
                      seed=SUPERRES_SEEDS[0], layer_kind=w.layer_kind)
        if w.layer_kind == "conv":
            fields["match_params"] = MATCHED_PARAMS
    if seed is not None:
        fields["seed"] = seed
    return rg.ExperimentConfig(**fields).validate()


class Ops:
    """Outcomes of the operations a run attempts.

    A check whose property does not hold makes the run incorrect. A target
    that is missed, or an operation that raises, counts as failed.
    """

    def __init__(self):
        self.results: list[tuple[str, str, str]] = []
        self.instrument_ok = True  # the traced run's coverage check

    def _run(self, name, fn, miss):
        try:
            ok, detail = fn()
        except Exception as exc:  # an operation that raises is a failed one
            traceback.print_exc()
            self.results.append((name, "failed", f"{type(exc).__name__}: {exc}"))
            return
        self.results.append((name, "ok" if ok else miss, detail))

    def check(self, name, fn):
        self._run(name, fn, "wrong")

    def target(self, name, fn):
        self._run(name, fn, "failed")

    @property
    def attempted(self) -> int:
        return len(self.results)

    @property
    def failed(self) -> int:
        return sum(status == "failed" for _, status, _ in self.results)

    @property
    def correct(self) -> bool:
        return self.instrument_ok and all(
            status != "wrong" for _, status, _ in self.results
        )


@dataclass
class Samples:
    step: list = field(default_factory=list)  # untraced step times
    infer: list = field(default_factory=list)
    traced: list = field(default_factory=list)  # traced step times
    train: list = field(default_factory=list)  # train(cfg) times
    losses: list = field(default_factory=list)  # of every timed step
    final_losses: list = field(default_factory=list)  # of every train(cfg)
    ranges: list = field(default_factory=list)  # (lo, hi, tape nodes) per traced step
    train_range: tuple = ()  # (lo, hi) of the traced train(cfg)
    out_shape: tuple = ()
    outputs_ok: bool = True
    trained: tuple = ()  # (model, stats) of the last train(cfg)


def _measure(step, infer, train, seconds, tracer=None) -> Samples:
    """Spend ``seconds`` on timed rounds, one step and one inference each,
    interleaved with repeats of ``train`` that take ``TRAIN_SHARE`` of the
    time, so that a slow stretch of a shared machine cannot take every sample
    of one kind.

    With a tracer, every round adds one traced step, so traced and untraced
    steps share the same stretch of the run, and ``train`` runs once, traced,
    after the rounds.
    """
    clock = time.perf_counter
    s = Samples()
    spent_train = spent_rounds = 0.0
    end = clock() + seconds
    while True:
        over = clock() >= end
        need_train = tracer is None and len(s.train) < MIN_SAMPLES
        if over and not need_train and len(s.step) >= MIN_SAMPLES:
            break
        if tracer is None and (
            need_train if over else spent_train < TRAIN_SHARE * (spent_train + spent_rounds)
        ):
            t = clock()
            s.trained = train()
            s.train.append(clock() - t)
            spent_train += s.train[-1]
            s.final_losses.append(s.trained[1].train_losses[-1])
            continue
        t = clock()
        s.losses.append(step())
        s.step.append(clock() - t)
        t = clock()
        out = infer()
        s.infer.append(clock() - t)
        spent_rounds += s.step[-1] + s.infer[-1]
        s.out_shape = out.shape
        s.outputs_ok = s.outputs_ok and bool(np.all(np.isfinite(out)))
        if tracer is not None:
            tracer.install()
            lo, nodes = len(tracer.spans), tracer.tape_nodes
            root = tracer.open("bench.step")
            t = clock()
            s.losses.append(step())
            s.traced.append(clock() - t)
            tracer.close(root)
            s.ranges.append((lo, len(tracer.spans), tracer.tape_nodes - nodes))
            tracer.uninstall()
    if tracer is not None:
        tracer.install()
        lo = len(tracer.spans)
        s.trained = train()
        s.final_losses.append(s.trained[1].train_losses[-1])
        s.train_range = (lo, len(tracer.spans))
        tracer.uninstall()
    return s


def run(name: str, seed: int, seconds: float, trace: bool, t_start: float):
    """Run one workload; returns (ops, metrics, notes, tracer)."""
    import rgconv as rg
    from rgconv import autodiff, optim, training

    w = WORKLOADS[name]
    tracer = Tracer() if trace else None
    if tracer is not None:
        tracer.install()

    # -- set-up: seeded model and inputs ------------------------------------
    cfg = make_config(rg, w, seed)
    model = training.build_model(cfg).init(seed)
    dtype = np.float64 if cfg.precision == "f64" else np.float32
    if w.discovery:
        x, y = training.discovery_pair(cfg)
        xb, yb = autodiff.tensor(x[None].astype(dtype)), autodiff.tensor(y[None].astype(dtype))
        sample, loss_kind = x.astype(dtype), "mse"
    else:
        batch = training.load_flow_dataset(cfg).train[: cfg.batch_size]
        xb = autodiff.tensor(np.stack([s[0] for s in batch]).astype(dtype))
        yb = autodiff.tensor(np.stack([s[1] for s in batch]).astype(dtype))
        sample, loss_kind = batch[0][0].astype(dtype), "l1"
    params = model.params()
    opt = optim.make_optimizer(cfg.optimizer, cfg.lr)
    predict = training.model_predictor(model)

    def step():
        autodiff.zero_grads(params)
        value = autodiff.loss(loss_kind, model(xb), yb)
        autodiff.backward(value, params=params)
        optim.optimizer_step(opt, params)
        return float(value.data)

    setup_s = time.perf_counter() - t_start
    setup_range = (0, len(tracer.spans)) if tracer is not None else None

    # -- timed rounds and train(cfg) at the fixture seed ---------------------
    if tracer is not None:
        tracer.uninstall()
    fixed = make_config(rg, w)
    warm_loss = step()  # warm-up: Adam allocates its moments on the first step
    samples = _measure(step, lambda: predict(sample), lambda: training.train(fixed),
                       seconds, tracer)
    samples.losses.append(warm_loss)
    trained, stats = samples.trained

    # -- memory of one step, untimed ----------------------------------------
    tracemalloc.start()
    base = tracemalloc.get_traced_memory()[0]
    autodiff.zero_grads(params)
    value = autodiff.loss(loss_kind, model(xb), yb)
    tape_mib = (tracemalloc.get_traced_memory()[0] - base) / 2**20
    autodiff.backward(value, params=params)
    optim.optimizer_step(opt, params)
    peak_mib = (tracemalloc.get_traced_memory()[1] - base) / 2**20
    tracemalloc.stop()
    del value

    # -- operations and their checks ----------------------------------------
    ops = Ops()
    ops.check("steps", lambda: (
        bool(np.all(np.isfinite(samples.losses))),
        f"{len(samples.losses)} step losses finite"))
    ops.check("inference", lambda: (
        samples.outputs_ok and samples.out_shape == yb.shape[1:],
        f"{len(samples.infer)} outputs of shape {samples.out_shape}, "
        f"all finite: {samples.outputs_ok}"))
    ops.check("train", lambda: _check_train(w, stats, samples.final_losses))
    rng = np.random.default_rng(seed)
    if w.discovery:
        mats = trained.group.matrices
        stab = oracles.stabilizer(mats, x) & oracles.stabilizer(mats, y)
        ops.check("stabilizer", lambda: (
            len(stab) == w.stabilizer_size and oracles.is_subgroup(mats, stab),
            f"|Stab(x) & Stab(y)| = {len(stab)}, expected {w.stabilizer_size}"))
        ops.check("readout", lambda: (
            stats.report.preserved == stab and stats.report.preserved_is_subgroup,
            f"weight_report preserved {sorted(stats.report.preserved)}, "
            f"oracle {sorted(stab)}"))
        ops.check("equivariance", lambda: _check_equivariance(
            autodiff, trained, mats, stab, w.probe_size, rng))
    else:
        twin = _f64_twin(training, fixed, trained)
        ops.check("gradient", lambda: _check_gradient(autodiff, twin, rng))
        ops.check("upsample", lambda: _check_upsample(rg, autodiff, twin, rng))
        if w.layer_kind == "conv":
            relaxed = replace(fixed, layer_kind="relaxed_equiv", match_params=0)
            ops.check("matched_params", lambda: (
                rg.param_count(training.build_model(relaxed)) == MATCHED_PARAMS,
                f"relaxed model has {MATCHED_PARAMS} parameters"))
        ops.target("quality", lambda: _quality(training, fixed, stats))

    notes = [
        f"step_s over {len(samples.step)} steps, infer_s over {len(samples.infer)} "
        f"inferences, train_s over {len(samples.final_losses)} runs of train(cfg)",
        f"final losses: train {stats.train_losses[-1]:.6g}"
        + (f", val {stats.val_losses[-1]:.6g}" if stats.val_losses else ""),
    ]
    for name, xs in (("step_s", samples.step), ("infer_s", samples.infer)):
        if len(xs) >= 40:  # the highest percentile with ten samples beyond it
            p = int(100 * (1 - 10 / len(xs)))
            tail = statistics.quantiles(xs, n=100)[p - 1]
            notes.append(f"{name} p{p} = {tail:.6g} s over {len(xs)} samples")
    step_s = statistics.median(samples.step)
    if tracer is None:
        metrics = {
            "setup_s": (setup_s, "s"),
            "train_s": (statistics.median(samples.train), "s"),
            "step_s": (step_s, "s"),
            "infer_s": (statistics.median(samples.infer), "s"),
            "step_peak_mib": (peak_mib, "MiB"),
            "final_loss": (float(stats.train_losses[-1]), "loss"),
        }
    else:
        metrics, coverage = layer_metrics(
            tracer, setup_range, samples.ranges, samples.train_range,
            step_s, statistics.median(samples.traced), tape_mib,
        )
        covered = abs(coverage - 1.0) <= COVERAGE_MARGIN
        notes.append(
            f"traced {len(samples.traced)} steps; per-layer self times sum to "
            f"{coverage:.3f} of the untraced step_s "
            f"({'within' if covered else 'OUTSIDE'} the margin {COVERAGE_MARGIN})"
        )
        # a layer the trace misses leaves the traced numbers unusable
        ops.instrument_ok = covered
    return ops, metrics, notes, tracer


# ---------------------------------------------------------------------------
# checks


def _check_train(w: Workload, stats, final_losses):
    losses = list(stats.train_losses) + list(stats.val_losses)
    finite = bool(np.all(np.isfinite(losses)))
    repeatable = len(set(final_losses)) == 1
    # super-resolution train losses are means over two shuffled minibatches of
    # unequal size, so their epoch-to-epoch noise hides the trend; the fixed
    # validation set shows it
    curve = stats.train_losses if w.discovery else stats.val_losses
    falls = curve[-1] < curve[0]
    kind = "train" if w.discovery else "validation"
    return finite and falls and repeatable, (
        f"{kind} loss {curve[0]:.6g} -> {curve[-1]:.6g}, all finite: {finite}; "
        f"last train loss identical over {len(final_losses)} runs: {repeatable}"
    )


def _check_equivariance(autodiff, model, mats, stab, size, rng):
    """The trained model is equivariant under exactly the elements of ``stab``."""
    d = mats.shape[1]
    x = rng.normal(size=(1,) + (size,) * d)
    batch = np.stack([x] + [oracles.transform_grid(m, x) for m in mats])
    with autodiff.no_grad():
        out = model(autodiff.tensor(batch)).data
    scale = float(np.max(np.abs(out[0])))
    errs = np.array([
        float(np.max(np.abs(out[g + 1] - oracles.transform_grid(m, out[0]))))
        for g, m in enumerate(mats)
    ]) / scale
    inside = [g for g in range(len(mats)) if g in stab]
    outside = [g for g in range(len(mats)) if g not in stab]
    worst_in = float(errs[inside].max())
    best_out = float(errs[outside].min()) if outside else np.inf
    return (
        worst_in < EQUIV_SPLIT < best_out,
        f"relative equivariance error: max {worst_in:.2e} inside the stabilizer, "
        f"min {best_out:.2e} outside (split {EQUIV_SPLIT:g})",
    )


def _f64_twin(training, cfg, model):
    twin = training.build_model(replace(cfg, precision="f64")).init(0)
    src = dict(model.named_params())
    for pname, p in twin.named_params():
        p.data[...] = src[pname].data
    return twin


def _check_gradient(autodiff, twin, rng):
    """Per parameter tensor: a directional central difference of a linear
    readout of the f64 twin matches the tape's gradient along that direction."""
    d_in = twin.layers[0].in_channels
    x = autodiff.tensor(rng.normal(size=(1, d_in, 4, 4, 4)))
    r = autodiff.tensor(rng.normal(size=(1, 3, 16, 16, 16)))

    def readout():
        return autodiff.sum_(autodiff.mul(twin(x), r))

    params = twin.params()
    autodiff.zero_grads(params)
    autodiff.backward(readout(), params=params)
    worst, name_of_worst = 0.0, ""
    for pname, p in twin.named_params():
        p0 = p.data.copy()

        def f(theta):
            p.data[...] = theta
            with autodiff.no_grad():
                return float(readout().data)

        err = np.inf
        for _ in range(FD_DIRECTIONS):
            v = rng.normal(size=p.shape)
            v /= np.linalg.norm(v)
            tape = float(np.sum(p.grad * v))
            for eps in FD_STEPS:
                fd = oracles.directional_fd(f, p0, v, eps)
                err = min(err, abs(fd - tape) / max(abs(fd), abs(tape), 1e-300))
                if err <= FD_RTOL:
                    break
            if err <= FD_RTOL:
                break
        p.data[...] = p0
        if err > worst:
            worst, name_of_worst = err, pname
    return worst <= FD_RTOL, (
        f"{len(params)} tensors, worst relative error {worst:.1e} ({name_of_worst}), "
        f"tolerance {FD_RTOL:g}"
    )


def _check_upsample(rg, autodiff, twin, rng):
    """The first upsampling layer matches the zero-stuff-and-roll oracle."""
    layer = next(ly for ly in twin.layers
                 if isinstance(ly, (rg.GroupUpsampleConv, rg.ConvTransposeLayer)))
    S = (layer.kernel_size,) * 3
    if isinstance(layer, rg.GroupUpsampleConv):
        mats = layer.group.matrices
        x = rng.normal(size=(1, layer.in_channels, len(mats), 4, 4, 4))
        k = layer.kernel.data.reshape((layer.out_channels, layer.in_channels) + S)
        want = oracles.group_upsample(mats, x, k)
    else:
        x = rng.normal(size=(1, layer.in_channels, 4, 4, 4))
        want = oracles.transposed_conv(x, layer.kernel.data)
    with autodiff.no_grad():
        got = layer.forward(autodiff.tensor(x)).data
    err = float(np.max(np.abs(got - want))) / float(np.max(np.abs(want)))
    return err <= ORACLE_RTOL, (
        f"{type(layer).__name__} vs offset-sum oracle: relative error {err:.1e}"
    )


def _quality(training, cfg, stats):
    """Criterion 8's first condition: validation L1 <= 0.8x trilinear."""
    data = training.load_flow_dataset(cfg)
    trilinear = training.eval_l1(
        lambda s: training.trilinear_upsample(s[-3:], 4), data.val, np.float32
    )
    net = stats.val_losses[-1]
    return net <= QUALITY_RATIO * trilinear, (
        f"validation L1 {net:.4f} vs {QUALITY_RATIO} x trilinear {trilinear:.4f}"
    )


# ---------------------------------------------------------------------------
# per-layer metrics from the spans


def layer_metrics(tr: Tracer, setup, steps, train, untraced_step_s, traced_step_s,
                  tape_mib):
    """Per-layer metrics (per training step unless named otherwise) and the
    share of the untraced step time that the traced self times account for."""
    n = len(steps)
    incl, self_t, calls, flop = (defaultdict(float) for _ in range(4))
    pull_op, pull_layer = defaultdict(float), defaultdict(float)
    covered, nodes = [], 0
    for lo, hi, new_nodes in steps:
        nodes += new_nodes
        st = tr.self_times(lo, hi)
        covered.append(sum(st[1:]))  # everything below the bench.step root
        for (name, a, b, _, tag), s in zip(tr.spans[lo + 1 : hi], st[1:]):
            if name.startswith("pull."):
                pull_op[name[5:]] += b - a
                pull_layer[tag] += b - a
                continue
            incl[name] += b - a
            self_t[name] += s
            calls[name] += 1
            if tag is not None:
                flop[name] += tag

    m = {}
    for op in ("conv_nd", "stuffed_conv_nd"):
        fwd, bwd = incl[f"convops.{op}"] / n, pull_op[op] / n
        gflop = flop[f"convops.{op}"] / n / 1e9
        m[f"convops.{op}.fwd_s"] = (fwd, "s")
        m[f"convops.{op}.bwd_s"] = (bwd, "s")
        m[f"convops.{op}.calls"] = (calls[f"convops.{op}"] / n, "count")
        m[f"convops.{op}.gflop"] = (gflop, "GFLOP")
        m[f"convops.{op}.gflops"] = (gflop / (fwd + bwd) if fwd + bwd > 0 else 0.0, "GFLOP/s")
    for op in ("take_last", "transform_group_kernel"):
        m[f"convops.{op}.fwd_s"] = (incl[f"convops.{op}"] / n, "s")
        m[f"convops.{op}.bwd_s"] = (pull_op[op] / n, "s")
    for cls in LAYER_CLASSES:
        m[f"layers.{cls}.fwd_s"] = (incl[f"layers.{cls}.fwd"] / n, "s")
        m[f"layers.{cls}.bwd_s"] = (pull_layer[cls] / n, "s")
    m["autodiff.tape_nodes"] = (nodes / n, "count")
    m["autodiff.tape_mib"] = (tape_mib, "MiB")
    m["autodiff.backward.self_s"] = (self_t["autodiff.backward"] / n, "s")
    m["autodiff.relu.fwd_s"] = (incl["autodiff.relu"] / n, "s")
    for op in ("relu", "mean", "reshape", "mul", "sum", "matmul", "abs"):
        m[f"autodiff.{op}.bwd_s"] = (pull_op[op] / n, "s")
    m["models.forward_s"] = (incl["models.forward"] / n, "s")
    m["optim.step_s"] = (incl["optim.step"] / n, "s")

    def phase_self(lo, hi, prefix):
        st = tr.self_times(lo, hi)
        return sum((s for rec, s in zip(tr.spans[lo:hi], st) if rec[0].startswith(prefix)), 0.0)

    def phase_incl(lo, hi, name):
        return sum((b - a for nm, a, b, _, _ in tr.spans[lo:hi] if nm == name), 0.0)

    m["groups.build_s"] = (phase_self(*setup, "groups."), "s")
    m["data.gen_s"] = (phase_self(*setup, "data."), "s")
    m["training.eval_l1_s"] = (phase_incl(*train, "training.eval_l1"), "s")
    m["training.train.self_s"] = (phase_self(*train, "training.train"), "s")
    m["probe.weight_report_s"] = (phase_incl(*train, "probe.weight_report"), "s")
    m["trace.overhead_s"] = (traced_step_s - untraced_step_s, "s")
    return m, statistics.median(covered) / untraced_step_s
