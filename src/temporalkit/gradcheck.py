"""Central finite-difference verification for every backward pass.

The scaled error compares analytic and numeric gradients as
|a - n| / max(|a|, |n|, atol/rtol), so a check passes when the gradient is
within 1e-4 relative error, with an absolute floor of 1e-7 for gradients
that are themselves near zero. Step size H = 1e-5 on float64 throughout.

Random inputs are drawn away from the operators' kinks: relu pre-activations
off zero, interlace offsets off integers, hinge margins off the boundary.

Every check compares through one of two helpers, or calls fd_gradient
itself, and the errors of a check fold through _worst, which keeps a NaN.
Each FD loss reads its arrays in place, where fd_gradient perturbs them,
so it ignores the array it is passed and may read it through any alias
(a ParamStore holding it, say).

- _vjp_error(f, args, grads, r) is the per-op comparison: one fd_gradient
  per argument, in argument order, on the loss sum(f(*args) * r), or on
  the scalar f(*args) itself for the losses. check_interlace gives its
  input x a batched job instead, and check_offset_net gives one to each
  of its arrays (below); both call fd_gradient on those jobs directly.
- _fd_errors(pairs) is the whole-network comparison: every parameter of
  the micro-model, as (analytic, job) pairs, each job's FD gradient from
  fd_gradients. _model_grads is the micro-model's one
  forward/loss/backward set-up.

A job is fd_gradient's arguments: (f, x) evaluates the scalar f twice per
coordinate of x, and (variant, x, losses_of) keeps variant(x) of each
perturbation instead and hands the +H variants, then the -H ones, to
losses_of at once. A variant runs only what a perturbation of x changes
up to a point where the perturbations can share one call, and losses_of
runs the rest. Where a perturbation stays in its own sample, as one of a
stage's parameters does in the stage's output, the variants stack along
the batch axis and one forward per sign serves them all. Every op on the
way works sample by sample, and the stacked outputs are cut back into
each variant's rows before its loss. So each loss, and (fp - fm) / (2 *
H), keeps the bits of the loop's as long as the BLAS gives a GEMM's rows
and columns the same bits in a larger call, as OpenBLAS does at these
shapes: a micro-model variant is N*T = 8 images, so a stacked GEMM's
image count stays a multiple of 8, clear of the kernel OpenBLAS switches
to for a last 1-3 images. tests/test_gradcheck.py checks that byte for
byte for every batched array, so a BLAS that broke it fails there. The
losses read losses.bce_scaled_loss, bce_scaled's loss without its
gradient.

The set-up forward keeps each model stage's input and each block layer's
output (see model). check_model_all_params gives each parameter a
batched job whose variant resumes where the parameter is first read.
The stem's variant is the stem conv on the clip. Block i's conv1, conv2
and skip arrays' variant is the block's output, the block resumed at the
array's own layer: conv1's on the kept interlaced or shifted output,
conv2's on the kept conv1 output, the skip's on the block's input with
the kept conv2 output; every layer but the skip reuses the kept skip
output. losses_of runs the later stages and the head on the stacked
variants. The head's variant is its logits, on the last block's kept
output, and losses_of only scores them. A perturbed parameter cannot
change what is read before it, so every variant and stacked forward runs
the same ops on the same arrays as the whole forward, and every FD value
and max_error keeps its bits; only the reruns of the earlier stages and
layers, and the per-perturbation runs of the later ones, are skipped.
The directional probe perturbs every parameter at once, so it runs the
whole forward (_model_loss).

The offset net's weights reach the rest of the network only through
their block's per-sample offsets [N,G] and frame weights [N,G,T], and a
variant is that pair. A trunk array's comes from the block's MLP on the
kept pooled frame feature; an offs or wts array's from that head alone,
on the trunk output of one unperturbed run per job, with that run's
output of the other head. losses_of stacks the variants' offsets and
weights, with as many copies of the block's kept input and skip output,
resumes the block at its interlacing, runs the later stages and the
head once per sign, and scores each variant's N rows. check_offset_net
resumes its weights' MLPs the same way and scores each variant on its
own, since the net's weights are read by every sample; its feature map
is batched like a stage parameter, since a feature perturbation stays in
its sample. check_interlace batches x for the same reason.

fd_gradients computes the jobs. When the process may use more than one
CPU (ops' lane rule) and os.fork exists, it splits them into two halves
of about equal coordinate count, largest arrays first, and a forked child
computes one half while this process computes the other. Each value is
the same evaluation of the same f on a copy-on-write copy of the same
arrays, so the results keep the bits of the serial loop. If the child
fails, this process computes its half itself. With one CPU or no fork, it
is the serial loop. The per-op checks, check_offset_net among them, call
fd_gradient directly: at 0.1-20 ms a case, a fork would not pay.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from . import losses, ops
from .model import (
    BLOCK_LAYERS,
    ModelConfig,
    _block_forward,
    _conv,
    _mlp_head,
    _offset_weight_mlp,
    backbone_backward,
    backbone_forward,
    forward_from_stage,
    init_params,
    offset_weight_net_backward,
    offset_weight_net_forward,
    stage_of,
)
from .temporal import (
    GroupSpec,
    InterlaceParams,
    ShiftSpec,
    interlace_backward,
    interlace_forward,
    segment_consensus,
    segment_consensus_backward,
    tsm_shift,
    tsm_shift_backward,
)

H = 1e-5
RTOL = 1e-4
ATOL = 1e-7


@dataclass
class CheckResult:
    name: str
    max_error: float
    cases: int

    @property
    def ok(self) -> bool:
        return self.max_error < RTOL

    def line(self) -> str:
        status = "ok  " if self.ok else "FAIL"
        return f"{status} {self.name:<18} cases={self.cases:<4} max_scaled_err={self.max_error:.3e}"


def _worst(errors) -> float:
    """The largest of `errors`, NaN when any of them is NaN. (Python's max
    keeps whichever argument it holds when it meets a NaN, so a NaN gradient
    after the first could read as a pass.)"""
    return float(np.max(list(errors)))


def scaled_error(analytic, numeric) -> float:
    a = np.asarray(analytic, dtype=np.float64)
    n = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), ATOL / RTOL)
    return float(np.max(np.abs(a - n) / denom)) if a.size else 0.0


def _float64(x) -> np.ndarray:
    """x as an array, refused unless float64: a converted copy would take the
    perturbations, and a loss reading the original would see none."""
    x = np.asarray(x)
    if x.dtype != np.float64:
        raise TypeError(f"finite differences need a float64 array, got {x.dtype}")
    return x


def fd_gradient(f, x, losses_of=list) -> np.ndarray:
    """Full central-difference gradient of scalar f w.r.t. float64 array x,
    step H.

    x is perturbed in place and restored between evaluations, so f may read
    it through any alias (e.g. a ParamStore holding the same array).

    With losses_of, f(x) of each perturbation is a variant, not a loss: it
    must return arrays of its own, not views of x. losses_of(outs) gives the
    loss of each variant, in order, in one call on the +H variants and one
    on the -H ones. The values are those of the loop on
    lambda v: losses_of([f(v)])[0] when each loss equals the one of its
    variant alone (see the module docstring).
    """
    x = _float64(x)
    plus, minus = [], []
    for idx in np.ndindex(x.shape):
        old = x[idx]
        try:
            x[idx] = old + H
            plus.append(f(x))
            x[idx] = old - H
            minus.append(f(x))
        finally:
            x[idx] = old
    fp, fm = (np.asarray(losses_of(outs), dtype=np.float64) for outs in (plus, minus))
    return ((fp - fm) / (2.0 * H)).reshape(x.shape)


def _halves(sizes) -> tuple[list[int], list[int]]:
    """Job indices split into two halves of about equal total size, the
    largest assigned first. The first half is the parent's."""
    halves, loads = ([], []), [0, 0]
    for i in sorted(range(len(sizes)), key=lambda i: -sizes[i]):
        side = 0 if loads[0] <= loads[1] else 1
        halves[side].append(i)
        loads[side] += sizes[i]
    return halves


def fd_gradients(jobs) -> list[np.ndarray]:
    """fd_gradient(*job) of each job, bit for bit as the serial loop gives
    it. When this process may use more than one CPU, a forked child
    computes the jobs of about half the coordinates (see the module
    docstring).

    The child sends its gradients back through a pipe as float64 bytes. If it
    fails or its bytes are short, this process computes its jobs too, so an
    exception in a loss surfaces here with its usual traceback. If this
    process's own half raises, the child is killed and reaped first.
    """
    jobs = [(f, _float64(x), *rest) for f, x, *rest in jobs]
    mine, theirs = _halves([job[1].size for job in jobs])
    if not theirs or not hasattr(os, "fork") or not ops._lane_cpus():
        return [fd_gradient(*job) for job in jobs]
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except OSError:  # no process to spare: the serial loop
        os.close(read_end)
        os.close(write_end)
        return [fd_gradient(*job) for job in jobs]
    if pid == 0:
        status = 1
        try:
            os.close(read_end)
            data = b"".join(fd_gradient(*jobs[i]).tobytes() for i in theirs)
            with os.fdopen(write_end, "wb") as pipe:
                pipe.write(data)
            status = 0
        finally:
            os._exit(status)
    os.close(write_end)
    out = [None] * len(jobs)
    try:
        for i in mine:
            out[i] = fd_gradient(*jobs[i])
    except BaseException:
        # imported here, so that importing this module (the set-up time of a
        # gradcheck run) loads nothing beyond numpy and the package
        import signal

        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        os.close(read_end)
        raise
    with os.fdopen(read_end, "rb") as pipe:
        data = pipe.read()
    _, status = os.waitpid(pid, 0)
    sizes = [jobs[i][1].size for i in theirs]
    if status != 0 or len(data) != 8 * sum(sizes):
        for i in theirs:
            out[i] = fd_gradient(*jobs[i])
        return out
    flat = np.frombuffer(bytearray(data), dtype=np.float64)
    for i, part in zip(theirs, np.split(flat, np.cumsum(sizes)[:-1])):
        out[i] = part.reshape(jobs[i][1].shape)
    return out


def _vjp_error(f, args, grads, r=None) -> float:
    """The worst scaled error of `grads`, the analytic gradients of
    sum(f(*args) * r) (of the scalar f(*args) when r is None) w.r.t. each
    float64 array of `args`, against one fd_gradient per argument."""
    def loss(_v):
        out = f(*args)
        return out if r is None else float((out * r).sum())

    return _worst(scaled_error(g, fd_gradient(loss, x))
                  for g, x in zip(grads, args, strict=True))


def _fd_errors(pairs) -> float:
    """The worst scaled error of each (analytic, job) pair against the job's
    FD gradient from fd_gradients."""
    nums = fd_gradients([job for _, job in pairs])
    return _worst(scaled_error(a, n) for (a, _), n in zip(pairs, nums))


def _away_from_zero(arr, eps=2e-2):
    return np.where(np.abs(arr) < eps, arr + 5 * eps, arr)


def _away_from_integers(offsets, eps=1e-2):
    frac = offsets - np.round(offsets)
    return np.where(np.abs(frac) < eps, offsets + eps * 2, offsets)


# ---------------------------------------------------------------------------
# per-op checks (each returns a scaled error for one seeded case)
# ---------------------------------------------------------------------------

def check_conv2d(seed: int) -> float:
    rng = np.random.default_rng(seed)
    n, ci, co = rng.integers(1, 3), rng.integers(1, 4), rng.integers(1, 4)
    k = int(rng.integers(1, 4))
    stride = int(rng.integers(1, 3))
    pad = int(rng.integers(0, 2))
    hw = int(rng.integers(k + 1, k + 4))
    x = rng.normal(size=(n, ci, hw, hw))
    w = rng.normal(size=(co, ci, k, k))
    b = rng.normal(size=co)
    y, cols = ops.conv2d_with_cols(x, w, b, stride, pad)
    r = rng.normal(size=y.shape)
    grads = ops.conv2d_backward(r, x, w, stride, pad, cols=cols)
    return _vjp_error(lambda x, w, b: ops.conv2d(x, w, b, stride, pad), (x, w, b), grads, r)


def check_linear(seed: int) -> float:
    rng = np.random.default_rng(seed)
    n, d, k = rng.integers(1, 5), rng.integers(1, 6), rng.integers(1, 5)
    x = rng.normal(size=(n, d))
    w = rng.normal(size=(k, d))
    b = rng.normal(size=k)
    r = rng.normal(size=(n, k))
    return _vjp_error(ops.linear, (x, w, b), ops.linear_backward(r, x, w), r)


def check_activation(seed: int) -> float:
    rng = np.random.default_rng(seed)
    kind = ("relu", "sigmoid", "tanh")[seed % 3]
    x = rng.normal(size=(3, 7))
    if kind == "relu":
        x = _away_from_zero(x)
    r = rng.normal(size=x.shape)
    ga = ops.activation_backward(r, x, ops.activation(x, kind), kind)
    return _vjp_error(lambda v: ops.activation(v, kind), (x,), (ga,), r)


def check_pool(seed: int) -> float:
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(2, 3, 2, 4, 5))
    r = rng.normal(size=(2, 3, 2))
    ga = ops.global_avg_pool_spatial_backward(r, (4, 5))
    return _vjp_error(ops.global_avg_pool_spatial, (x,), (ga,), r)


def check_dropout(seed: int) -> float:
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(4, 6))
    r = rng.normal(size=x.shape)
    mask = ops.dropout_mask(x.shape, 0.4, seed)
    return _vjp_error(lambda v: v * mask, (x,), (r * mask,), r)


def check_interlace(seed: int) -> float:
    rng = np.random.default_rng(seed)
    n, t, c = 2, int(rng.integers(3, 6)), 4
    x = rng.normal(size=(n, t, c, 2, 2))
    groups = GroupSpec.even(c, 2)
    delta = t / 2.0
    offsets = _away_from_integers(rng.uniform(-delta + 0.1, delta - 0.1, size=(n, 2)))
    weights = rng.uniform(0.1, 1.9, size=(n, 2, t))
    r = rng.normal(size=x.shape)
    g_x, *g_params = interlace_backward(r, x, groups, InterlaceParams(offsets, weights, delta))

    def f(xx, off, wts):
        return interlace_forward(xx, groups, InterlaceParams(off, wts, delta_max=delta))

    def losses_of(xs):  # a perturbation of x stays in its sample, so x's variants stack
        k = len(xs)
        out = f(np.concatenate(xs), np.concatenate([offsets] * k), np.concatenate([weights] * k))
        return [float((out[j:j + n] * r).sum()) for j in range(0, k * n, n)]

    return _worst([scaled_error(g_x, fd_gradient(np.copy, x, losses_of)),
                   _vjp_error(lambda off, wts: f(x, off, wts), (offsets, weights), g_params, r)])


def check_tsm(seed: int) -> float:
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(2, 4, 4, 2, 2))
    spec = ShiftSpec(0.25)
    r = rng.normal(size=x.shape)
    return _vjp_error(lambda v: tsm_shift(v, spec), (x,), (tsm_shift_backward(r, spec),), r)


def check_consensus(seed: int) -> float:
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(3, 4, 5))
    r = rng.normal(size=(3, 5))
    return _vjp_error(segment_consensus, (x,), (segment_consensus_backward(r, 4),), r)


def _random_targets(rng, n, c):
    # every row keeps at least one positive and one negative
    y = (rng.random((n, c)) < 0.5).astype(np.float64)
    for i in range(n):
        if y[i].sum() == 0:
            y[i, rng.integers(c)] = 1.0
        if y[i].sum() == c:
            y[i, rng.integers(c)] = 0.0
    return y


def check_bce(seed: int) -> float:
    rng = np.random.default_rng(seed)
    z = rng.normal(scale=2.0, size=(4, 6))
    y = _random_targets(rng, 4, 6)
    cfg = losses.LossConfig(scale=160.0, class_weights=rng.uniform(0.5, 2.0, 6))
    _, grad = losses.bce_scaled(z, y, cfg)
    return _vjp_error(lambda v: losses.bce_scaled_loss(v, y, cfg), (z,), (grad,))


def check_lsep(seed: int) -> float:
    rng = np.random.default_rng(seed)
    s = rng.normal(size=(4, 6))
    y = _random_targets(rng, 4, 6)
    _, grad = losses.lsep(s, y)
    return _vjp_error(lambda v: losses.lsep(v, y)[0], (s,), (grad,))


def check_warp(seed: int) -> float:
    rng = np.random.default_rng(seed)
    y = _random_targets(rng, 4, 6)
    # keep every pairwise hinge term away from its kink at margin boundary
    while True:
        s = rng.normal(size=(4, 6))
        hinges = [1.0 - s[i, y[i] == 1.0][:, None] + s[i, y[i] == 0.0][None, :] for i in range(4)]
        if min(np.min(np.abs(h)) for h in hinges) >= 1e-3:
            break
    _, grad = losses.warp(s, y)
    return _vjp_error(lambda v: losses.warp(v, y)[0], (s,), (grad,))


def check_offset_net(seed: int) -> float:
    rng = np.random.default_rng(seed)
    cfg = ModelConfig(frames=4, in_channels=3, height=3, width=3, num_classes=2,
                      temporal_mode="tin", num_groups=2, channels=(3,), dropout=0.0)
    params = init_params(cfg, seed)
    prefix = "block0.tin."
    names = [name for name in params.names() if ".tin." in name]
    # keep every trunk relu pre-activation away from its kink at zero
    while True:
        for name in names:
            params.values[name][...] = rng.normal(scale=0.4, size=params[name].shape)
        feat = rng.normal(size=(2, 4, 3, 3, 3))
        _, cache = offset_weight_net_forward(feat, params, cfg, prefix)
        if np.min(np.abs(cache["t1"])) >= 1e-3:
            break
    r_off = rng.normal(size=(2, 2))
    r_wts = rng.normal(size=(2, 2, 4))

    def scores(offsets, weights):
        """The loss of each 2-sample variant of the stacked net outputs."""
        return [float((offsets[j:j + 2] * r_off).sum() + (weights[j:j + 2] * r_wts).sum())
                for j in range(0, len(offsets), 2)]

    def feat_losses(feats):
        ip, _ = offset_weight_net_forward(np.concatenate(feats), params, cfg, prefix)
        return scores(ip.offsets, ip.weights)

    g_feat = offset_weight_net_backward(r_off, r_wts, cache, params, cfg, prefix)
    # the net's weights are read by every sample, so their variants do not
    # stack: each reruns the MLP from where its array is read, scored alone
    jobs = [(g_feat, (np.copy, feat, feat_losses))] + [
        (params.grads[name], (_mlp_variant(name, cache["m"], feat.shape, params, cfg),
                              params[name], lambda outs: [scores(*out)[0] for out in outs]))
        for name in names]
    return _worst(scaled_error(g, fd_gradient(*job)) for g, job in jobs)


# ---------------------------------------------------------------------------
# whole-model checks
# ---------------------------------------------------------------------------

def _micro_model(mode: str, seed: int, channels=(4, 6)):
    cfg = ModelConfig(frames=4, in_channels=1, height=8, width=8, num_classes=3,
                      temporal_mode=mode, num_groups=2, channels=channels, dropout=0.0)
    params = init_params(cfg, seed)
    rng = np.random.default_rng(seed + 1)
    if mode == "tin":
        for name in params.names():
            if ".tin.offs." in name or ".tin.wts." in name:
                params.values[name][...] = rng.normal(scale=0.3, size=params[name].shape)
    clip = rng.normal(size=(2, 4, 1, 8, 8))
    targets = _random_targets(rng, 2, 3)
    lcfg = losses.LossConfig(scale=2.0)
    return cfg, params, clip, targets, lcfg


def _mlp_variant(name, m, feat_shape, params, cfg):
    """The variant of offset-net array `name` for fd_gradient: its block's
    (offsets, frame weights). A trunk array reruns the MLP on the pooled
    frame feature m; a head's array reruns that head alone, on the trunk
    output of one unperturbed run, and keeps that run's other head."""
    prefix, part = name[:name.index(".tin.") + 5], name.split(".")[2]
    ip, ocache = _offset_weight_mlp(m, feat_shape, params, cfg, prefix)

    def variant(_v):
        if part == "trunk":
            out = _offset_weight_mlp(m, feat_shape, params, cfg, prefix)[0]
            return out.offsets, out.weights
        out = _mlp_head(ocache["h"], params, cfg, prefix, part)[0]
        return (out, ip.weights) if part == "offs" else (ip.offsets, out)

    return variant


def _model_loss(params, cfg, clip, targets, lcfg) -> float:
    """The micro-model's loss: the whole forward on the clip."""
    return losses.bce_scaled_loss(backbone_forward(clip, params, cfg), targets, lcfg)


def _model_grads(mode: str, seed: int, channels=(4, 6)):
    """A micro-model with its loss's analytic gradients in params.grads; that
    loss, the whole forward reading params in place; and fd_job(name), the
    batched FD job of parameter `name`, whose forwards resume from what the
    set-up forward kept (see the module docstring)."""
    cfg, params, clip, targets, lcfg = _micro_model(mode, seed, channels)
    cache, kept = {}, {}
    logits = forward_from_stage(0, clip, params, cfg, cache=cache, kept=kept)
    _, g_logits = losses.bce_scaled(logits, targets, lcfg)
    backbone_backward(g_logits, cache, params, cfg)
    n, head = len(clip), cfg.num_blocks + 1

    def scores(logits):
        """The loss of each variant's n rows of the stacked logits."""
        return [losses.bce_scaled_loss(logits[j:j + n], targets, lcfg)
                for j in range(0, len(logits), n)]

    def fd_job(name):
        stage, layer = stage_of(name, cfg)
        x, block = kept[stage], f"block{stage - 1}."
        if stage == head:  # a variant is its logits
            return (lambda _v: forward_from_stage(head, x, params, cfg), params[name],
                    lambda outs: scores(np.concatenate(outs)))
        if layer == "offsets":  # a variant is its block's offsets and frame weights
            def losses_of(outs):
                offsets, weights = map(np.concatenate, zip(*outs))
                stacked = {block + "offsets": InterlaceParams(offsets, weights, cfg.delta_max),
                           block + "skip": np.concatenate([kept[block + "skip"]] * len(outs))}
                return scores(forward_from_stage(stage, np.concatenate([x] * len(outs)), params,
                                                 cfg, kept=stacked, layer="temporal"))

            return (_mlp_variant(name, kept[block + "pool"], x.shape, params, cfg),
                    params[name], losses_of)
        k = BLOCK_LAYERS.index(layer) if stage else 0

        def variant(_v):  # its stage's output, the stage resumed at the array's layer
            return (_block_forward(x, stage - 1, params, cfg, None, kept, k) if stage
                    else _conv(x, params, "stem", 2, 1, None))

        return variant, params[name], lambda outs: scores(
            forward_from_stage(stage + 1, np.concatenate(outs), params, cfg))

    return params, lambda: _model_loss(params, cfg, clip, targets, lcfg), fd_job


def check_model_directional(seed: int, mode: str = "tin") -> float:
    """One random-direction FD probe through the whole micro-model."""
    params, loss, _ = _model_grads(mode, seed % 5)
    rng = np.random.default_rng(seed + 1000)
    direction = {n: rng.normal(size=v.shape) for n, v in params.values.items()}
    norm = np.sqrt(sum(float((d * d).sum()) for d in direction.values()))
    for d in direction.values():
        d /= norm
    analytic = sum(float((params.grads[n] * direction[n]).sum()) for n in params.names())

    def shifted(eps):
        for n in params.names():
            params.values[n] += eps * direction[n]
        return loss()

    fp, fm = shifted(H), shifted(-2 * H)
    return scaled_error(np.array([analytic]), np.array([(fp - fm) / (2 * H)]))


def check_model_all_params(mode: str = "tin", seed: int = 7) -> float:
    """Exhaustive per-parameter FD over a smaller micro-model. Each
    parameter is a batched job, resumed at the stage and layer that read
    it."""
    params, _, fd_job = _model_grads(mode, seed, channels=(2, 3))
    return _fd_errors([(params.grads[n], fd_job(n)) for n in params.names()])


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

OP_CHECKS = {
    "conv2d": check_conv2d,
    "linear": check_linear,
    "activation": check_activation,
    "pool": check_pool,
    "dropout": check_dropout,
    "interlace": check_interlace,
    "tsm_shift": check_tsm,
    "consensus": check_consensus,
    "bce": check_bce,
    "lsep": check_lsep,
    "warp": check_warp,
    "offset_net": check_offset_net,
}


def run_op_suite(cases: int = 100, base_seed: int = 0) -> list[CheckResult]:
    if cases < 1:
        raise ValueError(f"cases must be at least 1, got {cases}")
    results = []
    for name, fn in OP_CHECKS.items():
        err = _worst(fn(base_seed + i) for i in range(cases))
        results.append(CheckResult(name, err, cases))
    return results


def run_model_suite(cases: int = 100, base_seed: int = 0) -> list[CheckResult]:
    if cases < 1:
        raise ValueError(f"cases must be at least 1, got {cases}")
    results = []
    for mode in ("none", "tsm", "tin"):
        err = _worst(check_model_directional(base_seed + i, mode) for i in range(cases))
        results.append(CheckResult(f"model[{mode}]", err, cases))
    results.append(CheckResult("model[tin] full", check_model_all_params("tin"), 1))
    return results
