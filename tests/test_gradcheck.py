import numpy as np

import temporalkit.gradcheck as gc
from temporalkit.cli import main


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
