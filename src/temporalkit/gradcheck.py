"""Central finite-difference verification for every backward pass.

The scaled error compares analytic and numeric gradients as
|a - n| / max(|a|, |n|, atol/rtol), so a check passes when the gradient is
within 1e-4 relative error, with an absolute floor of 1e-7 for gradients
that are themselves near zero. Step size h = 1e-5 on float64 throughout.

Random inputs are drawn away from the operators' kinks: relu pre-activations
off zero, interlace offsets off integers, hinge margins off the boundary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import losses, ops
from .model import (
    ModelConfig,
    backbone_backward,
    backbone_forward,
    init_params,
    offset_weight_net_backward,
    offset_weight_net_forward,
)
from .temporal import (
    GroupSpec,
    InterlaceParams,
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


def scaled_error(analytic, numeric) -> float:
    a = np.asarray(analytic, dtype=np.float64)
    n = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), ATOL / RTOL)
    return float(np.max(np.abs(a - n) / denom)) if a.size else 0.0


def fd_gradient(f, x, h: float = H) -> np.ndarray:
    """Full central-difference gradient of scalar f w.r.t. array x.

    x is perturbed in place and restored between evaluations, so f may read
    it through any alias (e.g. a ParamStore holding the same array).
    """
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    for idx in np.ndindex(x.shape):
        old = x[idx]
        x[idx] = old + h
        fp = f(x)
        x[idx] = old - h
        fm = f(x)
        x[idx] = old
        g[idx] = (fp - fm) / (2.0 * h)
    return g


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
    r = rng.normal(size=ops.conv2d(x, w, b, stride, pad).shape)
    gx, gw, gb = ops.conv2d_backward(r, x, w, stride, pad)
    err = scaled_error(gx, fd_gradient(lambda v: float((ops.conv2d(v, w, b, stride, pad) * r).sum()), x))
    err = max(err, scaled_error(gw, fd_gradient(lambda v: float((ops.conv2d(x, v, b, stride, pad) * r).sum()), w)))
    err = max(err, scaled_error(gb, fd_gradient(lambda v: float((ops.conv2d(x, w, v, stride, pad) * r).sum()), b)))
    return err


def check_linear(seed: int) -> float:
    rng = np.random.default_rng(seed)
    n, d, k = rng.integers(1, 5), rng.integers(1, 6), rng.integers(1, 5)
    x = rng.normal(size=(n, d))
    w = rng.normal(size=(k, d))
    b = rng.normal(size=k)
    r = rng.normal(size=(n, k))
    gx, gw, gb = ops.linear_backward(r, x, w)
    err = scaled_error(gx, fd_gradient(lambda v: float((ops.linear(v, w, b) * r).sum()), x))
    err = max(err, scaled_error(gw, fd_gradient(lambda v: float((ops.linear(x, v, b) * r).sum()), w)))
    err = max(err, scaled_error(gb, fd_gradient(lambda v: float((ops.linear(x, w, v) * r).sum()), b)))
    return err


def check_activation(seed: int) -> float:
    rng = np.random.default_rng(seed)
    kind = ("relu", "sigmoid", "tanh")[seed % 3]
    x = rng.normal(size=(3, 7))
    if kind == "relu":
        x = _away_from_zero(x)
    r = rng.normal(size=x.shape)
    y = ops.activation(x, kind)
    ga = ops.activation_backward(r, x, y, kind)
    return scaled_error(ga, fd_gradient(lambda v: float((ops.activation(v, kind) * r).sum()), x))


def check_pool(seed: int) -> float:
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(2, 3, 2, 4, 5))
    r = rng.normal(size=(2, 3, 2))
    ga = ops.global_avg_pool_spatial_backward(r, (4, 5))
    return scaled_error(
        ga, fd_gradient(lambda v: float((ops.global_avg_pool_spatial(v) * r).sum()), x)
    )


def check_dropout(seed: int) -> float:
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(4, 6))
    r = rng.normal(size=x.shape)
    mask = ops.dropout_mask(x.shape, 0.4, seed)
    ga = r * mask
    return scaled_error(ga, fd_gradient(lambda v: float((v * mask * r).sum()), x))


def check_interlace(seed: int) -> float:
    rng = np.random.default_rng(seed)
    n, t, c = 2, int(rng.integers(3, 6)), 4
    x = rng.normal(size=(n, t, c, 2, 2))
    groups = GroupSpec.even(c, 2)
    delta = t / 2.0
    offsets = _away_from_integers(rng.uniform(-delta + 0.1, delta - 0.1, size=(n, 2)))
    weights = rng.uniform(0.1, 1.9, size=(n, 2, t))
    params = InterlaceParams(offsets, weights, delta_max=delta)
    r = rng.normal(size=x.shape)
    gx, go, gw = interlace_backward(r, x, groups, params)

    def loss(off, wts, xx):
        p = InterlaceParams(off, wts, delta_max=delta)
        return float((interlace_forward(xx, groups, p) * r).sum())

    err = scaled_error(gx, fd_gradient(lambda v: loss(offsets, weights, v), x))
    err = max(err, scaled_error(go, fd_gradient(lambda v: loss(v, weights, x), offsets.copy())))
    err = max(err, scaled_error(gw, fd_gradient(lambda v: loss(offsets, v, x), weights.copy())))
    return err


def check_tsm(seed: int) -> float:
    from .temporal import ShiftSpec

    rng = np.random.default_rng(seed)
    x = rng.normal(size=(2, 4, 4, 2, 2))
    spec = ShiftSpec(0.25)
    r = rng.normal(size=x.shape)
    ga = tsm_shift_backward(r, spec)
    return scaled_error(ga, fd_gradient(lambda v: float((tsm_shift(v, spec) * r).sum()), x))


def check_consensus(seed: int) -> float:
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(3, 4, 5))
    r = rng.normal(size=(3, 5))
    ga = segment_consensus_backward(r, 4)
    return scaled_error(ga, fd_gradient(lambda v: float((segment_consensus(v) * r).sum()), x))


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
    cfg = losses.LossConfig(kind="bce", scale=160.0, class_weights=rng.uniform(0.5, 2.0, 6))
    _, grad = losses.bce_scaled(z, y, cfg)
    return scaled_error(grad, fd_gradient(lambda v: losses.bce_scaled(v, y, cfg)[0], z))


def check_lsep(seed: int) -> float:
    rng = np.random.default_rng(seed)
    s = rng.normal(size=(4, 6))
    y = _random_targets(rng, 4, 6)
    _, grad = losses.lsep(s, y)
    return scaled_error(grad, fd_gradient(lambda v: losses.lsep(v, y)[0], s))


def check_warp(seed: int) -> float:
    rng = np.random.default_rng(seed)
    y = _random_targets(rng, 4, 6)
    # keep every pairwise hinge term away from its kink at margin boundary
    while True:
        s = rng.normal(size=(4, 6))
        ok = True
        for i in range(4):
            pos, neg = s[i, y[i] == 1.0], s[i, y[i] == 0.0]
            if np.any(np.abs(1.0 - pos[:, None] + neg[None, :]) < 1e-3):
                ok = False
        if ok:
            break
    _, grad = losses.warp(s, y)
    return scaled_error(grad, fd_gradient(lambda v: losses.warp(v, y)[0], s))


def check_offset_net(seed: int) -> float:
    rng = np.random.default_rng(seed)
    cfg = ModelConfig(frames=4, in_channels=3, height=3, width=3, num_classes=2,
                      temporal_mode="tin", num_groups=2, channels=(3,), dropout=0.0)
    params = init_params(cfg, seed)
    prefix = "block0.tin."
    # keep every trunk relu pre-activation away from its kink at zero
    while True:
        for name in params.names():
            if ".tin." in name:
                params.values[name][...] = rng.normal(scale=0.4, size=params[name].shape)
        feat = rng.normal(size=(2, 4, 3, 3, 3))
        _, cache = offset_weight_net_forward(feat, params, cfg, prefix)
        if np.min(np.abs(cache["t1"])) >= 1e-3:
            break
    r_off = rng.normal(size=(2, 2))
    r_wts = rng.normal(size=(2, 2, 4))

    def loss(f):
        ip, _ = offset_weight_net_forward(f, params, cfg, prefix)
        return float((ip.offsets * r_off).sum() + (ip.weights * r_wts).sum())

    params.zero_grads()
    g_feat = offset_weight_net_backward(r_off, r_wts, cache, params, cfg, prefix)
    err = scaled_error(g_feat, fd_gradient(loss, feat))
    for name in params.names():
        if ".tin." not in name:
            continue
        w = params.values[name]
        num = fd_gradient(lambda _v, nm=name: loss(feat), w)  # w mutated in place by fd
        err = max(err, scaled_error(params.grads[name], num))
    return err


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
    lcfg = losses.LossConfig(kind="bce", scale=2.0)
    return cfg, params, clip, targets, lcfg


def _model_loss(params, cfg, clip, targets, lcfg) -> float:
    logits = backbone_forward(clip, params, cfg)
    return losses.bce_scaled(logits, targets, lcfg)[0]


def check_model_directional(seed: int, mode: str = "tin") -> float:
    """One random-direction FD probe through the whole micro-model."""
    cfg, params, clip, targets, lcfg = _micro_model(mode, seed % 5)
    rng = np.random.default_rng(seed + 1000)
    direction = {n: rng.normal(size=v.shape) for n, v in params.values.items()}
    norm = np.sqrt(sum(float((d * d).sum()) for d in direction.values()))
    for d in direction.values():
        d /= norm

    logits, cache = backbone_forward(clip, params, cfg, return_cache=True)
    _, g_logits = losses.bce_scaled(logits, targets, lcfg)
    params.zero_grads()
    backbone_backward(g_logits, cache, params, cfg)
    analytic = sum(float((params.grads[n] * direction[n]).sum()) for n in params.names())

    def shift(eps):
        for n in params.names():
            params.values[n] += eps * direction[n]

    shift(+H)
    fp = _model_loss(params, cfg, clip, targets, lcfg)
    shift(-2 * H)
    fm = _model_loss(params, cfg, clip, targets, lcfg)
    shift(+H)
    return scaled_error(np.array([analytic]), np.array([(fp - fm) / (2 * H)]))


def check_model_all_params(mode: str = "tin", seed: int = 7) -> float:
    """Exhaustive per-parameter FD over a smaller micro-model."""
    cfg, params, clip, targets, lcfg = _micro_model(mode, seed, channels=(2, 3))
    logits, cache = backbone_forward(clip, params, cfg, return_cache=True)
    _, g_logits = losses.bce_scaled(logits, targets, lcfg)
    params.zero_grads()
    backbone_backward(g_logits, cache, params, cfg)
    err = 0.0
    for name in params.names():
        num = fd_gradient(lambda _v: _model_loss(params, cfg, clip, targets, lcfg),
                          params.values[name])
        err = max(err, scaled_error(params.grads[name], num))
    return err


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
    results = []
    for name, fn in OP_CHECKS.items():
        worst = max(fn(base_seed + i) for i in range(cases))
        results.append(CheckResult(name, worst, cases))
    return results


def run_model_suite(cases: int = 100, base_seed: int = 0) -> list[CheckResult]:
    results = []
    for mode in ("none", "tsm", "tin"):
        worst = max(check_model_directional(base_seed + i, mode) for i in range(cases))
        results.append(CheckResult(f"model[{mode}]", worst, cases))
    results.append(CheckResult("model[tin] full", check_model_all_params("tin"), 1))
    return results
