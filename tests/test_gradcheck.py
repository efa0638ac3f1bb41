import copy
import functools
import os
import pickle
import signal
import subprocess
import sys
import tempfile
import time
from collections import Counter
from functools import partial
from pathlib import Path

import numpy as np
import pytest

import temporalkit.gradcheck as gc
from temporalkit import model, ops
from temporalkit.cli import main
from temporalkit.model import BLOCK_LAYERS, ParamStore


def test_op_suite_passes_on_small_case_counts():
    results = gc.run_op_suite(cases=3)
    assert {r.name for r in results} >= {"conv2d", "linear", "interlace", "bce", "lsep", "warp"}
    for res in results:
        assert res.ok, res.line()


def test_scaled_error_has_absolute_floor():
    a = np.array([1e-9])
    n = np.array([5e-8])
    assert gc.scaled_error(a, n) < gc.RTOL  # tiny gradients compare under the floor
    assert gc.scaled_error(np.array([1.0]), np.array([1.001])) > gc.RTOL


def test_corrupted_interlace_backward_is_caught(monkeypatch):
    real = gc.interlace_backward

    def flipped(gy, x, groups, params):
        gx, goff, gw = real(gy, x, groups, params)
        return gx, -goff, gw  # sign error on the offset path

    monkeypatch.setattr(gc, "interlace_backward", flipped)
    err = gc.check_interlace(seed=0)
    assert err > gc.RTOL

    results = {r.name: r for r in gc.run_op_suite(cases=2)}
    assert not results["interlace"].ok
    assert results["linear"].ok


def test_cli_gradcheck_exit_codes(monkeypatch, capsys):
    assert main(["gradcheck", "--scope", "ops", "--cases", "2"]) == 0
    out = capsys.readouterr().out
    assert "interlace" in out and "ok" in out
    assert out.splitlines()[-1].startswith("wall_seconds=")

    monkeypatch.setitem(gc.OP_CHECKS, "interlace", lambda seed: 1.0)
    assert main(["gradcheck", "--scope", "ops", "--cases", "1"]) == 3
    out = capsys.readouterr().out
    assert "FAIL" in out and "interlace" in out


def test_model_directional_probes_pass():
    for mode in ("none", "tsm", "tin"):
        worst = max(gc.check_model_directional(seed, mode) for seed in range(5))
        assert worst < gc.RTOL, mode


def test_offset_net_cases_stay_off_the_relu_kink():
    # these base seeds once drew a trunk pre-activation within H of zero
    for seed in (1855, 2174, 2756):
        assert gc.check_offset_net(seed) < gc.RTOL, seed


def test_fd_gradient_restores_x_when_f_raises():
    cfg, params, clip, targets, lcfg = gc._micro_model("tin", 7, channels=(2, 3))
    w = params.values["block0.tin.offs.weight"]
    before = w.copy()
    calls = []

    def loss(_v):
        calls.append(1)
        if len(calls) == 4:  # the second coordinate's minus step
            raise RuntimeError("f failed")
        return gc._model_loss(params, cfg, clip, targets, lcfg)

    with pytest.raises(RuntimeError, match="f failed"):
        gc.fd_gradient(loss, w)
    assert params.values["block0.tin.offs.weight"].tobytes() == before.tobytes()


@pytest.fixture
def forks(monkeypatch):
    """fd_gradients takes its forked path on any host; yields the fork count."""
    count = []
    real = os.fork

    def counted():
        count.append(1)
        return real()

    monkeypatch.setattr(ops, "_lane_cpus", lambda: True)
    monkeypatch.setattr(os, "fork", counted)
    yield count
    with pytest.raises(ChildProcessError):  # every child was reaped
        os.waitpid(-1, os.WNOHANG)


def _jobs(count):
    """Seven jobs of different sizes: three read x through a ParamStore alias,
    four read only the array fd_gradient passes them."""
    cfg, params, clip, targets, lcfg = gc._micro_model("tin", 7, channels=(2, 3))
    rng = np.random.default_rng(3)

    def model_loss(_v):
        return gc._model_loss(params, cfg, clip, targets, lcfg)

    def cubic(v):
        return float((v ** 3).sum() + v.sum() ** 2)

    jobs = [(model_loss, params.values["block0.tin.offs.weight"]),
            (cubic, rng.normal(size=(3, 4))),
            (model_loss, params.values["head.bias"]),
            (cubic, rng.normal(size=5)),
            (lambda v: float(np.sin(v).sum()), rng.normal(size=(2, 2))),
            (model_loss, params.values["block1.tin.wts.bias"]),
            (lambda v: float(np.tanh(v).prod()), rng.normal(size=(2, 3, 2)))]
    return jobs[:count]


def _bytes(grads):
    return [g.tobytes() for g in grads]


@pytest.mark.parametrize("count", [1, 2, 7])
def test_fd_gradients_equal_the_serial_loop(count, forks):
    jobs = _jobs(count)
    want = _bytes(gc.fd_gradient(f, x) for f, x in jobs)
    before = _bytes(x for _, x in jobs)
    assert _bytes(gc.fd_gradients(jobs)) == want
    assert _bytes(x for _, x in jobs) == before
    assert len(forks) == (count > 1)


def _placed(fns, key, where, tmp_path):
    """fns, wrapped so that fns[key] (key >= 2) runs in `where`, "parent" or
    "child", of a _fork_map over them (or over fd_gradient jobs with them as
    losses). The other process waits in its first call until fns[key] has
    started, and `where` in each of its calls until the other has made
    one, so the other claims index 0 or 1 before then. Returns the
    wrapped fns and the flag file fns[key] writes in `where`."""
    flags = Path(tempfile.mkdtemp(dir=tmp_path))
    other_went, key_went = flags / "other", flags / "key"
    parent = os.getpid()

    def wait_for(flag):
        deadline = time.monotonic() + 30
        while not flag.exists():
            assert time.monotonic() < deadline, f"{flag.name} never written"
            time.sleep(0.001)

    def wrap(i, fn):
        def placed(*args):
            if ("parent" if os.getpid() == parent else "child") != where:
                other_went.touch()
                wait_for(key_went)
            elif i == key:
                key_went.touch()
            else:
                wait_for(other_went)
            return fn(*args)
        return placed

    assert key >= 2
    return [wrap(i, fn) for i, fn in enumerate(fns)], key_went


def test_child_failure_is_recomputed_by_the_parent(forks, tmp_path):
    jobs = _jobs(7)
    want = _bytes(gc.fd_gradient(f, x) for f, x in jobs)
    parent = os.getpid()

    def only_here(f):
        def g(v):
            if os.getpid() != parent:
                raise RuntimeError("child failed")
            return f(v)
        return g

    # the child reports the jobs it took before job 3, and the parent computes 3
    fns, key_went = _placed([only_here(f) if i == 3 else f for i, (f, _) in enumerate(jobs)], 3,
                            "child", tmp_path)
    assert _bytes(gc.fd_gradients([(f, x) for f, (_, x) in zip(fns, jobs)])) == want
    assert key_went.exists() and len(forks) == 1


def test_fd_gradients_raises_what_f_raises(forks, tmp_path):
    jobs = _jobs(7)

    def fails(v):
        raise ValueError("bad f")

    for where in ("parent", "child"):  # raised in the parent's own claim, or again for the child's
        fns, key_went = _placed([fails if i == 4 else f for i, (f, _) in enumerate(jobs)], 4,
                                where, tmp_path)
        with pytest.raises(ValueError, match="bad f"):
            gc.fd_gradients([(f, x) for f, (_, x) in zip(fns, jobs)])
        assert key_went.exists()
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
    assert len(forks) == 2


def test_one_cpu_never_forks(monkeypatch):
    def no_fork():
        raise AssertionError("forked")

    monkeypatch.setattr(ops, "_lane_cpus", lambda: False)
    monkeypatch.setattr(os, "fork", no_fork)
    jobs = _jobs(7)
    want = _bytes(gc.fd_gradient(f, x) for f, x in jobs)
    assert _bytes(gc.fd_gradients(jobs)) == want
    assert gc._fork_map([os.getpid] * 3) == [os.getpid()] * 3
    results = gc.run_op_suite(2, 4242) + gc.run_model_suite(2, 4242)
    assert {r.name: r.max_error.hex() for r in results} == PINNED_ERRORS[4242]


def test_sign_error_on_the_childs_half_is_caught(forks, monkeypatch, tmp_path):
    _, params, *_ = gc._micro_model("tin", 7, channels=(2, 3))
    name = "block0.tin.offs.weight"
    real_pairs, real_backward = gc._all_params_pairs, gc.backbone_backward
    placed = []

    def pairs_in_the_child(mode, seed=7):  # the job of `name` runs in the child
        pairs = real_pairs(mode, seed)
        fns, key_went = _placed([job[0] for _, job in pairs], params.names().index(name),
                                "child", tmp_path)
        placed.append(key_went)
        return [(a, (f, *job[1:])) for (a, job), f in zip(pairs, fns)]

    def flipped(g_logits, cache, params, cfg, **kwargs):
        out = real_backward(g_logits, cache, params, cfg, **kwargs)
        params.grads[name] *= -1.0
        return out

    monkeypatch.setattr(gc, "_all_params_pairs", pairs_in_the_child)
    assert gc.check_model_all_params("tin") < gc.RTOL
    monkeypatch.setattr(gc, "backbone_backward", flipped)
    assert gc.check_model_all_params("tin") > gc.RTOL
    assert len(forks) == 2 and all(flag.exists() for flag in placed)


def test_fork_map_results_equal_the_serial_loop(forks, tmp_path):
    rng = np.random.default_rng(5)
    values = [rng.normal(size=(3, 4)), np.array([np.nan, -0.0, 5e-324, np.inf]), float("nan"),
              -0.0, 0.1 + 0.2, (2.5, Path("ckpt.xtck")), 7, None, "text"]
    tasks = [partial(copy.deepcopy, v) for v in values]
    want = [pickle.dumps(task()) for task in tasks]
    fns, key_went = _placed(tasks, 4, "child", tmp_path)
    assert [pickle.dumps(r) for r in gc._fork_map(fns)] == want
    assert key_went.exists() and len(forks) == 1


def test_fork_map_computes_what_the_child_took_but_did_not_report(forks, tmp_path):
    parent = os.getpid()

    def pid_of(i):
        if i == 2 and os.getpid() != parent:
            raise RuntimeError("child failed")
        return i, os.getpid()

    fns, key_went = _placed([partial(pid_of, i) for i in range(6)], 2, "child", tmp_path)
    results = gc._fork_map(fns)
    assert [i for i, _ in results] == list(range(6)) and key_went.exists()
    # the child computed one of the first two tasks and reported it; task 2
    # failed there and was computed here
    assert results[2][1] == parent and len({pid for _, pid in results[:2]}) == 2


def test_a_process_inside_a_map_never_forks_again(forks, tmp_path):
    def outer():
        return os.getpid(), gc._fork_map([os.getpid] * 4)

    fns, key_went = _placed([outer] * 5, 2, "child", tmp_path)
    results = gc._fork_map(fns)
    assert len({pid for pid, _ in results}) == 2 and key_went.exists()
    assert all(inner == [pid] * 4 for pid, inner in results)
    assert len(forks) == 1
    gc._fork_map([os.getpid] * 4)  # after the map, this process forks again
    assert len(forks) == 2


def test_a_claim_queue_longer_than_a_pipe_buffer_does_not_block(forks):
    def blocked(*_):
        raise TimeoutError("the map blocked")

    count = 20000  # 80000 bytes of 4-byte indices, more than a 64 KiB pipe holds
    old = signal.signal(signal.SIGALRM, blocked)
    signal.alarm(60)
    try:
        assert gc._fork_map([partial(int, i) for i in range(count)]) == list(range(count))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)
    assert len(forks) == 1


@pytest.mark.parametrize("lane", [True, False], ids=["fork", "serial"])
def test_each_directional_set_up_is_built_once_per_suite_call(lane, monkeypatch, tmp_path):
    log, real = tmp_path / "set-ups", gc._model_grads

    def logged(mode, seed, channels=(4, 6)):
        with open(log, "a") as f:
            f.write(f"{os.getpid()} {mode} {seed} {channels}\n")
        return real(mode, seed, channels)

    monkeypatch.setattr(ops, "_lane_cpus", lambda: lane)
    monkeypatch.setattr(gc, "_model_grads", logged)
    results = gc.run_model_suite(100)
    # a shared set-up gives each probe the bits of a set-up of its own
    assert [r.max_error.hex() for r in results[:3]] == [
        gc._worst(gc.check_model_directional(i, mode, real) for i in range(100)).hex()
        for mode in ("none", "tsm", "tin")]
    probes = [line.split()[:3] for line in log.read_text().splitlines() if "(4, 6)" in line]
    per_process = Counter(pid for pid, _, _ in probes)
    assert len(probes) == len({tuple(p) for p in probes})  # none built twice in one process
    assert len({(mode, seed) for _, mode, seed in probes}) == 15
    assert max(per_process.values()) <= 15 and len(per_process) == (2 if lane else 1)


def test_gradcheck_import_starts_no_process_machinery():
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import temporalkit.gradcheck; "
            "print(sorted({'multiprocessing', 'concurrent.futures', 'subprocess'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code, src], capture_output=True, text=True,
                         timeout=60, check=True)
    assert out.stdout.strip() == "[]"


def _nan_last(grads):
    """A backward's gradients with NaN planted in the last one (the bias or
    frame-weight gradient, folded after every other)."""
    *head, last = grads
    return (*head, np.full_like(last, np.nan))


@pytest.mark.parametrize("check,module,attr,param", [
    ("check_conv2d", ops, "conv2d_backward", None),
    ("check_linear", ops, "linear_backward", None),
    ("check_interlace", gc, "interlace_backward", None),
    ("check_offset_net", gc, "offset_weight_net_backward", "block0.tin.wts.bias"),
    ("check_model_all_params", gc, "backbone_backward", "head.bias"),
])
def test_nan_in_one_backward_gradient_fails_the_check(check, module, attr, param, monkeypatch):
    real = getattr(module, attr)

    def planted(*a, **kw):
        out = real(*a, **kw)
        if param is None:
            return _nan_last(out)
        params = next(x for x in a if isinstance(x, ParamStore))
        params.grads[param][...] = np.nan
        return out

    monkeypatch.setattr(module, attr, planted)
    fn = getattr(gc, check)
    err = fn("tin") if check == "check_model_all_params" else fn(2)
    assert np.isnan(err)
    assert not gc.CheckResult(check, err, 1).ok


def test_nan_in_a_later_case_fails_the_suite_and_the_command(monkeypatch, capsys):
    def nan_at(bad_seed):
        return lambda seed, *_: float("nan") if seed == bad_seed else 1e-9

    monkeypatch.setattr(gc, "OP_CHECKS", {"linear": nan_at(-1), "interlace": nan_at(2)})
    results = {r.name: r for r in gc.run_op_suite(cases=3)}
    assert results["linear"].ok and results["linear"].max_error == 1e-9
    assert np.isnan(results["interlace"].max_error) and not results["interlace"].ok
    assert main(["gradcheck", "--scope", "ops", "--cases", "3"]) == 3
    assert "FAIL interlace" in capsys.readouterr().out

    monkeypatch.setattr(gc, "check_model_directional", lambda seed, mode, *_: float("nan")
                        if (seed, mode) == (1, "tsm") else 1e-9)
    monkeypatch.setattr(gc, "_all_params_pairs", lambda mode: [(np.zeros(1), (lambda _v: 0.0,
                                                                               np.zeros(1)))])
    results = {r.name: r for r in gc.run_model_suite(cases=3)}
    assert [r.ok for r in results.values()] == [True, False, True, True]
    assert main(["gradcheck", "--scope", "model", "--cases", "3"]) == 3
    assert "FAIL model[tsm]" in capsys.readouterr().out


@pytest.mark.parametrize("suite", ["run_op_suite", "run_model_suite"])
def test_suites_refuse_fewer_than_one_case(suite, capsys):
    with pytest.raises(ValueError, match="cases must be at least 1, got 0"):
        getattr(gc, suite)(0)
    scope = "ops" if suite == "run_op_suite" else "model"
    assert main(["gradcheck", "--scope", scope, "--cases", "0"]) == 1
    assert capsys.readouterr().err == "error: cases must be at least 1, got 0\n"


@pytest.mark.parametrize("dtype", [np.float32, np.int64])
def test_fd_gradient_refuses_an_array_that_is_not_float64(dtype):
    # a float64 copy would take the perturbations, and this loss, reading x
    # in place, would see none: a gradient of zeros
    x = np.arange(3, dtype=dtype)

    def loss(_v):
        return float((x.astype(np.float64) ** 2).sum())

    with pytest.raises(TypeError, match=f"float64 array, got {np.dtype(dtype).name}"):
        gc.fd_gradient(loss, x)
    with pytest.raises(TypeError, match=f"float64 array, got {np.dtype(dtype).name}"):
        gc.fd_gradients([(loss, np.zeros(4)), (loss, x)])
    x = x.astype(np.float64)
    np.testing.assert_allclose(gc.fd_gradient(loss, x), [0.0, 2.0, 4.0], atol=1e-6)


def test_each_op_check_keeps_its_fd_gradient_call_count(monkeypatch):
    # perfbench's gradcheck.fd_gradient.calls counts these calls
    calls = []
    real = gc.fd_gradient

    def counted(*job):
        calls.append(1)
        return real(*job)

    monkeypatch.setattr(ops, "_lane_cpus", lambda: False)  # offset_net's jobs all run here
    monkeypatch.setattr(gc, "fd_gradient", counted)
    params = gc.init_params(gc.ModelConfig(frames=4, in_channels=3, height=3, width=3,
                                           num_classes=2, temporal_mode="tin", num_groups=2,
                                           channels=(3,), dropout=0.0), 0)
    offset_net_jobs = 1 + sum(".tin." in name for name in params.names())
    counts = {}
    for name, check in gc.OP_CHECKS.items():
        calls.clear()
        check(0)
        counts[name] = len(calls)
    want = {name: 1 for name in gc.OP_CHECKS}
    want.update(conv2d=3, linear=3, interlace=3, offset_net=offset_net_jobs)
    assert counts == want


# ---------------------------------------------------------------------------
# whole-model FD resumed at each parameter's stage and layer
# ---------------------------------------------------------------------------

@functools.cache
def _whole_forward_reference(mode, seed):
    """check_model_all_params as a whole forward per FD evaluation: the
    same micro-model, gradients and pairs, every loss through backbone_forward."""
    cfg, params, clip, targets, lcfg = gc._micro_model(mode, seed, channels=(2, 3))
    logits, cache = gc.backbone_forward(clip, params, cfg, return_cache=True)
    gc.backbone_backward(gc.losses.bce_scaled(logits, targets, lcfg)[1], cache, params, cfg)
    pairs = [(params.grads[n], (lambda _v: gc._model_loss(params, cfg, clip, targets, lcfg),
                                params.values[n])) for n in params.names()]
    return gc._fd_errors(pairs).hex()


@pytest.mark.parametrize("lane", [True, False], ids=["fork", "serial"])
@pytest.mark.parametrize("seed", [7, 3])
@pytest.mark.parametrize("mode", ["none", "tsm", "tin"])
def test_resumed_fd_keeps_the_whole_forward_bits(mode, seed, lane, monkeypatch):
    want = _whole_forward_reference(mode, seed)
    monkeypatch.setattr(ops, "_lane_cpus", lambda: lane)
    assert gc.check_model_all_params(mode, seed).hex() == want


def _three_block_model(mode, head):
    """A three-block model with every parameter drawn non-zero, so that no
    zero head or bias hides a stage or a layer, and its clip."""
    cfg = gc.ModelConfig(frames=4, in_channels=1, height=8, width=8, num_classes=3,
                         temporal_mode=mode, channels=(4, 6, 8), head=head, dropout=0.3)
    params = gc.init_params(cfg, 5)
    rng = np.random.default_rng(5)
    for name in params.names():
        params.values[name][...] = rng.normal(scale=0.3, size=params[name].shape)
    clip = rng.normal(size=(2, 4, 1, 8, 8))
    return cfg, params, clip


@pytest.mark.parametrize("training", [False, True])
@pytest.mark.parametrize("head", ["pool", "consensus"])
@pytest.mark.parametrize("mode", ["none", "tsm", "tin"])
def test_every_stage_resumes_to_the_whole_forward_logits(mode, head, training):
    cfg, params, clip = _three_block_model(mode, head)
    want = gc.backbone_forward(clip, params, cfg, training=training, seed=9).tobytes()
    kept = {}
    got = gc.forward_from_stage(0, clip, params, cfg, training=training, seed=9, kept=kept)
    assert got.tobytes() == want and kept[0] is clip
    stages = range(cfg.num_blocks + 2)
    assert set(kept) == set(stages) | {f"block{i}.{layer}" for i in range(cfg.num_blocks)
                                       for layer in BLOCK_LAYERS}
    before = dict(kept)
    points = [(s, None) for s in stages[1:]] + [(s, layer) for s in stages[1:-1]
                                                for layer in BLOCK_LAYERS]
    for stage, layer in points:
        got = gc.forward_from_stage(stage, kept[stage], params, cfg, training=training, seed=9,
                                    kept=kept, layer=layer)
        assert got.tobytes() == want, (stage, layer)
    # a resumed run reads what the set-up kept and stores nothing
    assert kept.keys() == before.keys() and all(kept[k] is before[k] for k in kept)


@pytest.mark.parametrize("training", [False, True])
@pytest.mark.parametrize("head", ["pool", "consensus"])
@pytest.mark.parametrize("mode", ["none", "tsm", "tin"])
def test_a_parameter_changed_after_the_set_up_shows_from_its_resume_point(mode, head, training):
    cfg, params, clip = _three_block_model(mode, head)
    kept = {}
    gc.forward_from_stage(0, clip, params, cfg, training=training, seed=9, kept=kept)
    for name in params.names():
        value = params[name]
        old = value.flat[0]
        value.flat[0] = old + 0.25
        want = gc.backbone_forward(clip, params, cfg, training=training, seed=9)
        stage, layer = gc.stage_of(name, cfg)
        # the stem's resume point is the whole run, which would store its outputs
        got = gc.forward_from_stage(stage, kept[stage], params, cfg, training=training, seed=9,
                                    kept=kept if stage else None, layer=layer)
        value.flat[0] = old
        assert got.tobytes() == want.tobytes(), name


def _resume_model():
    cfg, params, clip, _, _ = gc._micro_model("tin", 7, channels=(2, 3))
    return cfg, params, clip


@pytest.mark.parametrize("stage", [9, -1, 4])
def test_a_stage_outside_the_model_fails_by_name(stage):
    cfg, params, clip = _resume_model()
    with pytest.raises(ValueError, match=rf"stage {stage} is not one of the model's stages 0\.\.3"):
        gc.forward_from_stage(stage, clip, params, cfg)


@pytest.mark.parametrize("stage, layer", [(1, "conv3"), (1, "tin"), (0, "conv1"), (3, "skip")])
def test_a_layer_outside_the_blocks_fails_by_name(stage, layer):
    cfg, params, clip = _resume_model()
    kept = {}
    gc.forward_from_stage(0, clip, params, cfg, kept=kept)
    with pytest.raises(ValueError, match=rf"layer '{layer}' at stage {stage}: a resume layer "
                                         r"is one of \('pool', .*\), in a block stage 1\.\.2"):
        gc.forward_from_stage(stage, kept[stage], params, cfg, kept=kept, layer=layer)


@pytest.mark.parametrize("name", ["block9.conv1.weight", "nope.weight", "block0.conv3.weight",
                                  "block0.weight", "stem.conv1.weight"])
def test_a_name_that_is_not_a_parameter_fails_by_name(name):
    cfg, _, _ = _resume_model()
    with pytest.raises(ValueError, match=rf"'{name}' is not a parameter of the model: stem, "
                                         r"head and block0\.\.block1's conv1, conv2, skip"):
        gc.stage_of(name, cfg)


def test_each_parameter_reruns_only_the_stages_from_its_own(monkeypatch):
    cfg, params, *_ = gc._micro_model("tin", 7, channels=(2, 3))
    coords, arrays = Counter(), Counter()
    for name in params.names():
        coords[gc.stage_of(name, cfg)] += params[name].size
        arrays[gc.stage_of(name, cfg)] += 1
    assert coords == {(0, None): 20, (1, "offsets"): 250, (1, "conv1"): 38, (1, "conv2"): 38,
                      (1, "skip"): 6, (2, "offsets"): 250, (2, "conv1"): 57, (2, "conv2"): 84,
                      (2, "skip"): 9, (3, None): 12}
    # per resume point, the (stem, conv1, conv2, skip) convs and the
    # interlacings that each variant reruns, twice per coordinate: its own
    # stage from the array's layer (a block's skip output is kept for every
    # layer but the skip, its conv2 output for the skip; an offset-net
    # array's variant is its MLP, and the head's its logits) ...
    variant = {(0, None): (1, 0, 0, 0, 0), (1, "offsets"): (0, 0, 0, 0, 0),
               (1, "conv1"): (0, 1, 1, 0, 0), (1, "conv2"): (0, 0, 1, 0, 0),
               (1, "skip"): (0, 0, 0, 1, 0), (2, "offsets"): (0, 0, 0, 0, 0),
               (2, "conv1"): (0, 1, 1, 0, 0), (2, "conv2"): (0, 0, 1, 0, 0),
               (2, "skip"): (0, 0, 0, 1, 0), (3, None): (0, 0, 0, 0, 0)}
    # ... and those of the one stacked forward per array and step sign:
    # the later stages, or for an offset-net array its block from the
    # interlacing on
    stacked = {(0, None): (0, 2, 2, 2, 2), (1, "offsets"): (0, 2, 2, 1, 2),
               (1, "conv1"): (0, 1, 1, 1, 1), (1, "conv2"): (0, 1, 1, 1, 1),
               (1, "skip"): (0, 1, 1, 1, 1), (2, "offsets"): (0, 1, 1, 0, 1),
               (2, "conv1"): (0, 0, 0, 0, 0), (2, "conv2"): (0, 0, 0, 0, 0),
               (2, "skip"): (0, 0, 0, 0, 0), (3, None): (0, 0, 0, 0, 0)}
    calls = Counter()
    real_conv, real_interlace = ops.conv2d_with_cols, model.interlace_forward

    def conv(x, kernel, bias, stride, *args, **kwargs):
        calls["stem" if kernel.shape == params["stem.weight"].shape
              else "skip" if kernel.shape[2:] == (1, 1) else "conv2" if stride == 1
              else "conv1"] += 1
        return real_conv(x, kernel, bias, stride, *args, **kwargs)

    def interlace(*args, **kwargs):
        calls["interlace"] += 1
        return real_interlace(*args, **kwargs)

    monkeypatch.setattr(ops, "_lane_cpus", lambda: False)  # every job runs here
    monkeypatch.setattr(ops, "conv2d_with_cols", conv)
    monkeypatch.setattr(model, "interlace_forward", interlace)
    gc.check_model_all_params("tin")
    setup = (1, 2, 2, 2, 2)  # the one unperturbed forward
    want = {layer: setup[j] + sum(2 * coords[point] * variant[point][j]
                                  + 2 * arrays[point] * stacked[point][j] for point in coords)
            for j, layer in enumerate(("stem", "conv1", "conv2", "skip", "interlace"))}
    assert want == {"stem": 41, "conv1": 248, "conv2": 492, "skip": 64, "interlace": 58}
    assert calls == want
    # per parameter group, its coordinates times the convs of its variant:
    # the stem's, block 0's conv1 (conv1 and conv2), conv2 and skip, and the
    # same of block 1; then per array, two stacked forwards of the later
    # convs: 6 after the stem's two arrays, 5 after block 0's six offset-net
    # arrays, 3 after its six conv arrays and 2 after block 1's offset net
    convs = sum(calls.values()) - calls["interlace"]
    assert convs == 7 + 2 * (20 * 1 + 38 * 2 + 38 + 6 + 57 * 2 + 84 + 9) + 2 * (
        2 * 6 + 6 * 5 + 6 * 3 + 6 * 2)


# ---------------------------------------------------------------------------
# batched finite differences: every parameter of the micro-model, the
# offset net's weights and feature map, and the interlacing's input
# ---------------------------------------------------------------------------

@functools.cache
def _whole_forward_fd(seed):
    """The bytes of fd_gradient of every parameter of the tin micro-model,
    one whole forward per evaluation."""
    cfg, ref, clip, targets, lcfg = gc._micro_model("tin", seed, channels=(2, 3))
    return {name: gc.fd_gradient(lambda _v: gc._model_loss(ref, cfg, clip, targets, lcfg),
                                 ref[name]).tobytes() for name in ref.names()}


@pytest.mark.parametrize("seed", [7, 3])
def test_batched_offset_net_fd_keeps_the_bits_of_fd_gradient(seed):
    params, _, fd_job = gc._model_grads("tin", seed, channels=(2, 3))
    cfg, ref, clip, targets, lcfg = gc._micro_model("tin", seed, channels=(2, 3))
    kept = {}
    gc.forward_from_stage(0, clip, ref, cfg, kept=kept)
    names = [n for n in params.names() if ".tin." in n]
    assert len(names) == 12
    for name in names:
        stage, layer = gc.stage_of(name, cfg)
        job = fd_job(name)
        assert layer == "offsets" and len(job) == 3 and job[1] is params[name]
        got = gc.fd_gradient(*job).tobytes()
        resumed = gc.fd_gradient(lambda _v: gc.losses.bce_scaled_loss(
            gc.forward_from_stage(stage, kept[stage], ref, cfg, kept=kept, layer=layer),
            targets, lcfg), ref[name])
        assert got == resumed.tobytes() == _whole_forward_fd(seed)[name], name


@pytest.mark.parametrize("lane", [True, False], ids=["fork", "serial"])
@pytest.mark.parametrize("seed", [7, 3, 11])
def test_batched_conv_and_head_fd_keeps_the_bits_of_fd_gradient(seed, lane, monkeypatch):
    params, _, fd_job = gc._model_grads("tin", seed, channels=(2, 3))
    names = [n for n in params.names() if ".tin." not in n]
    assert len(names) == 16  # the 14 stem, conv1, conv2 and skip arrays, and the head's 2
    jobs = [fd_job(n) for n in names]
    assert all(len(job) == 3 and job[1] is params[n] for n, job in zip(names, jobs))
    monkeypatch.setattr(ops, "_lane_cpus", lambda: lane)
    got = {n: g.tobytes() for n, g in zip(names, gc.fd_gradients(jobs))}
    assert got == {n: _whole_forward_fd(seed)[n] for n in names}


@pytest.mark.parametrize("seed", [0, 1855, 4242])
def test_batched_feature_fd_of_the_offset_net_keeps_the_bits_of_fd_gradient(seed, monkeypatch):
    jobs = []
    real = gc.fd_gradient
    monkeypatch.setattr(gc, "fd_gradient", lambda *job: jobs.append(job) or real(*job))
    gc.check_offset_net(seed)
    (variant, feat, losses_of), *weights = jobs
    assert feat.shape == (2, 4, 3, 3, 3) and len(weights) == 6
    want = real(lambda v: losses_of([variant(v)])[0], feat)
    assert real(variant, feat, losses_of).tobytes() == want.tobytes()
    # each weight array's MLP, resumed where the array is read, against the
    # whole net run on the feature map per evaluation
    for job in weights:
        want = real(lambda _v: losses_of([feat.copy()])[0], job[1])
        assert real(*job).tobytes() == want.tobytes()


@pytest.mark.parametrize("seed", [0, 1, 17, 1855, 4242])
def test_batched_input_fd_of_the_interlacing_keeps_the_bits_of_fd_gradient(seed, monkeypatch):
    jobs = []
    real = gc.fd_gradient
    monkeypatch.setattr(gc, "fd_gradient", lambda *job: jobs.append(job) or real(*job))
    gc.check_interlace(seed)
    (variant, x, losses_of), offsets, weights = jobs
    assert x.ndim == 5 and offsets[1].ndim == 2 and weights[1].ndim == 3
    want = real(lambda v: losses_of([variant(v)])[0], x)
    assert real(variant, x, losses_of).tobytes() == want.tobytes()


def _flipped_offsets(real):
    def flipped(gy, x, groups, params):
        gx, goff, gw = real(gy, x, groups, params)
        return gx, -goff, gw
    return flipped


@pytest.mark.parametrize("plant", ["delta_max", "offset_sign"])
def test_a_bug_on_the_offset_path_fails_the_batched_check(plant, monkeypatch):
    if plant == "delta_max":  # the tanh head's scale left out of the offsets' gradient
        real_net = model.offset_weight_net_backward
        monkeypatch.setattr(model, "offset_weight_net_backward",
                            lambda g_off, g_wts, cache, params, cfg, prefix:
                            real_net(g_off / cfg.delta_max, g_wts, cache, params, cfg, prefix))
    else:
        monkeypatch.setattr(model, "interlace_backward", _flipped_offsets(model.interlace_backward))
    batched = []
    real = gc.fd_gradient

    def counted(f, x, *losses_of):
        if losses_of:
            batched.append(x.size)
        return real(f, x, *losses_of)

    monkeypatch.setattr(ops, "_lane_cpus", lambda: False)  # every job runs here, counted
    monkeypatch.setattr(gc, "fd_gradient", counted)
    assert gc.check_model_all_params("tin") > gc.RTOL
    params, _, fd_job = gc._model_grads("tin", 7, channels=(2, 3))
    assert sorted(batched) == sorted(params[n].size for n in params.names())
    # the offset net's arrays alone catch it
    tin = [n for n in params.names() if ".tin." in n]
    assert gc._fd_errors([(params.grads[n], fd_job(n)) for n in tin]) > gc.RTOL


@pytest.mark.parametrize("layer", ["stem", "block0.conv1", "block1.conv2", "block0.skip"])
def test_a_conv_backward_bug_fails_the_batched_check(layer, monkeypatch):
    real = model._conv_backward

    def scaled(gy5, cache, params, name, *args, **kwargs):
        out = real(gy5, cache, params, name, *args, **kwargs)
        if name == layer:
            params.grads[name + ".weight"] *= 1.001
        return out

    monkeypatch.setattr(model, "_conv_backward", scaled)
    assert gc.check_model_all_params("tin") > gc.RTOL
    # the layer's own arrays catch it, and no other array does
    params, _, fd_job = gc._model_grads("tin", 7, channels=(2, 3))
    for names, fails in (([n for n in params.names() if n.startswith(layer + ".")], True),
                         ([n for n in params.names() if not n.startswith(layer + ".")], False)):
        assert (gc._fd_errors([(params.grads[n], fd_job(n)) for n in names]) > gc.RTOL) == fails


# max_error of every check as float.hex(), from run_op_suite(2, base) +
# run_model_suite(2, base) at the commit before the batched FD, whose
# values each one must keep
PINNED_ERRORS = {
    0: {
        "conv2d": "0x1.8bee66d6e4c4ep-26",
        "linear": "0x1.5c323b0648e7cp-30",
        "activation": "0x1.0e07569b305cap-32",
        "pool": "0x1.197644abd5066p-30",
        "dropout": "0x1.36254fd80c8edp-33",
        "interlace": "0x1.a538dbab80001p-27",
        "tsm_shift": "0x1.5a8f33a981d16p-27",
        "consensus": "0x1.046b9543d071cp-31",
        "bce": "0x1.a53bd671ceaddp-30",
        "lsep": "0x1.0d442f23dea93p-30",
        "warp": "0x1.c00014795947ap-33",
        "offset_net": "0x1.ac6acf2a766e1p-25",
        "model[none]": "0x1.bc45764dbceb1p-34",
        "model[tsm]": "0x1.077f654f0bebcp-30",
        "model[tin]": "0x1.b61615f605d3dp-29",
        "model[tin] full": "0x1.f63b3b8110002p-26",
    },
    4242: {
        "conv2d": "0x1.37307c3021effp-26",
        "linear": "0x1.3996c5b108fa6p-28",
        "activation": "0x1.0b1ed81ed5424p-27",
        "pool": "0x1.6e3de0f952a8bp-30",
        "dropout": "0x1.47c42e314ba96p-31",
        "interlace": "0x1.8418e34e9fc95p-27",
        "tsm_shift": "0x1.c33a5ecd70002p-24",
        "consensus": "0x1.e4c151b54a761p-30",
        "bce": "0x1.6fae5cf14b060p-25",
        "lsep": "0x1.73541c26b1742p-29",
        "warp": "0x1.9de8c8b8dfef4p-33",
        "offset_net": "0x1.1d1378121014ap-25",
        "model[none]": "0x1.7762ba760a183p-30",
        "model[tsm]": "0x1.15204e7bcafe6p-31",
        "model[tin]": "0x1.bd2ce2ad43558p-32",
        "model[tin] full": "0x1.f63b3b8110002p-26",
    },
}


@pytest.mark.parametrize("lane", [True, False], ids=["fork", "serial"])
@pytest.mark.parametrize("base", sorted(PINNED_ERRORS))
def test_every_reported_error_keeps_its_bits(base, lane, monkeypatch):
    monkeypatch.setattr(ops, "_lane_cpus", lambda: lane)
    results = gc.run_op_suite(2, base) + gc.run_model_suite(2, base)
    assert {r.name: r.max_error.hex() for r in results} == PINNED_ERRORS[base]


def test_the_pinned_errors_tool_prints_the_pinned_table():
    root = Path(__file__).resolve().parents[1]
    out = subprocess.run([sys.executable, str(root / "tools" / "pinned_errors.py"),
                          str(root / "src")], capture_output=True, text=True, timeout=120,
                         check=True)
    table = {}
    exec(out.stdout, table)
    assert table["PINNED_ERRORS"] == PINNED_ERRORS
