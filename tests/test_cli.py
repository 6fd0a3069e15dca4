import json
import math
import os
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import dissipforge.cli
import dissipforge.lindblad
import dissipforge.qsd
from conftest import skew_null_space
from dissipforge.algebra import complex_pairs
from dissipforge.cli import (
    _SCENARIOS,
    EXIT_CONFIG,
    EXIT_CONTRACT,
    EXIT_IO,
    EXIT_OK,
    ConfigError,
    _build_model,
    _log2_largest_array,
    emit_outputs,
    main,
    parse_config,
    run,
)
from dissipforge.compiler import GateSequence, VerificationReport
from dissipforge.dissipators import DissipatorSet
from dissipforge.lindblad import integrate, steady_states
from dissipforge.qsd import EnsembleResult
from dissipforge.states import DensityMatrix, GraphSpec, fidelity, graph_state, purity

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def _write(tmp_path, name, obj):
    """Write obj as JSON, or verbatim when it is already text or bytes."""
    path = tmp_path / name
    if isinstance(obj, bytes):
        path.write_bytes(obj)
    else:
        path.write_text(obj if isinstance(obj, str) else json.dumps(obj), encoding="utf-8")
    return path


# ---------------------------------------------------------------- parsing


def test_parse_minimal_evolve_fills_defaults(tmp_path):
    path = _write(tmp_path, "cfg.json", {
        "scenario": "evolve", "n_qubits": 2, "target": "bell", "t_max": 30,
    })
    cfg = parse_config(path)
    assert cfg.dt == 0.01 and cfg.gamma == 1.0 and cfg.seed == 0
    assert cfg.t_max == 30.0


def test_parse_rejects_unknown_key(tmp_path):
    path = _write(tmp_path, "cfg.json", {
        "scenario": "evolve", "n_qubits": 2, "target": "bell", "t_max": 30, "gama": 2,
    })
    with pytest.raises(ConfigError, match="gama"):
        parse_config(path)


def test_parse_compile_config(tmp_path):
    path = _write(tmp_path, "cfg.json", {"scenario": "compile", "pauli_word": "XXX", "theta": 0.7})
    cfg = parse_config(path)
    assert cfg.pauli_word == "XXX" and cfg.theta == 0.7


def test_parse_rejects_missing_required_key(tmp_path):
    path = _write(tmp_path, "cfg.json", {"scenario": "evolve", "target": "bell"})
    with pytest.raises(ConfigError, match="n_qubits|t_max"):
        parse_config(path)


def test_parse_rejects_malformed_json(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigError, match="JSON"):
        parse_config(path)


def test_parse_rejects_unknown_scenario(tmp_path):
    path = _write(tmp_path, "cfg.json", {"scenario": "noise"})
    with pytest.raises(ConfigError, match="scenario"):
        parse_config(path)


def test_parse_amplitude_targets(tmp_path):
    s = 1.0 / np.sqrt(2.0)
    ok = _write(tmp_path, "ok.json", {
        "scenario": "steady", "n_qubits": 1, "target": [s + 1e-8, s],
    })
    cfg = parse_config(ok)
    assert abs(np.linalg.norm(cfg.target) - 1.0) < 1e-12
    bad = _write(tmp_path, "bad.json", {
        "scenario": "steady", "n_qubits": 1, "target": [0.5, 0.5],
    })
    with pytest.raises(ConfigError, match="norm"):
        parse_config(bad)


def test_parse_rejects_bad_values(tmp_path):
    path = _write(tmp_path, "cfg.json", {
        "scenario": "evolve", "n_qubits": 2, "target": "bell", "t_max": -1,
    })
    with pytest.raises(ConfigError, match="t_max"):
        parse_config(path)
    path = _write(tmp_path, "g.json", {
        "scenario": "graph-state", "graph": {"n": 2, "edges": [[1, 1]]},
    })
    with pytest.raises(ConfigError, match="graph"):
        parse_config(path)


_EVOLVE = {"scenario": "evolve", "n_qubits": 2, "target": "bell", "t_max": 1}
_QSD = {"scenario": "qsd", "n_qubits": 2, "target": "bell", "t_max": 0.1, "n_traj": 2}
_STEADY = {"scenario": "steady", "n_qubits": 2, "target": "bell"}
_COMPILE = {"scenario": "compile", "pauli_word": "XXX", "theta": 0.7}


@pytest.mark.parametrize("probe", [
    pytest.param({**_EVOLVE, "t_max": math.inf}, id="t_max-infinity"),
    pytest.param({**_EVOLVE, "t_max": math.nan}, id="t_max-nan"),
    pytest.param({**_STEADY, "gamma": math.nan}, id="gamma-nan"),
    pytest.param({**_COMPILE, "theta": math.nan}, id="theta-nan"),
    pytest.param({**_STEADY, "seed": "abc"}, id="seed-string"),
    pytest.param({**_QSD, "seed": -1}, id="seed-negative"),
    pytest.param({**_QSD, "n_traj": 1.7}, id="n_traj-fractional"),
    pytest.param({**_STEADY, "gamma": True}, id="gamma-boolean"),
    pytest.param({**_STEADY, "n_qubits": 1, "target": [math.nan, 1.0]}, id="amplitude-nan"),
    pytest.param({**_STEADY, "target": "cluster-abc"}, id="cluster-size-not-a-number"),
    pytest.param({**_STEADY, "target": "cluster-0"}, id="cluster-size-zero"),
    pytest.param({**_EVOLVE, "t_max": 0.01, "dt": 0.1}, id="evolve-dt-above-t_max"),
    pytest.param({**_QSD, "t_max": 0.01, "dt": 0.1}, id="qsd-dt-above-t_max"),
    pytest.param({**_COMPILE, "pauli_word": "II"}, id="pauli_word-identity"),
    # compile runs on the path graph, where a gap in the support disconnects it
    pytest.param({**_COMPILE, "pauli_word": "XIX"}, id="pauli_word-XIX"),
    pytest.param({**_COMPILE, "pauli_word": "XIIZ"}, id="pauli_word-XIIZ"),
    pytest.param({**_COMPILE, "pauli_word": "IXIY"}, id="pauli_word-IXIY"),
    pytest.param({"scenario": "graph-state", "graph": {"n": 2, "edges": [[1]]}},
                 id="graph-edge-one-vertex"),
    pytest.param({"scenario": "graph-state", "graph": {"n": math.inf}}, id="graph-n-infinity"),
    pytest.param({**_STEADY, "target": "cluster-" + "9" * 5000}, id="cluster-size-5000-digits"),
    pytest.param('{"scenario": "steady", "n_qubits": 1%s, "target": "bell"}' % ("0" * 5000),
                 id="integer-literal-5001-digits"),
    pytest.param(b'{"scenario": "steady", "n_qubits": 2, "target": "\xff"}', id="not-utf-8"),
    pytest.param({**_STEADY, "n_qubits": 1, "target": [0.5, 0.5]}, id="amplitude-norm-off"),
    # |1e200|^2 overflows inside the norm, which must read inf without a warning
    pytest.param({**_EVOLVE, "n_qubits": 1, "target": [1e200, 1e200], "t_max": 0.02},
                 id="amplitude-norm-overflows"),
    pytest.param({**_STEADY, "n_qubits": 1, "target": [0.6, 0.8, 0.0]},
                 id="amplitude-count-3"),
    pytest.param({**_STEADY, "n_qubits": 1, "target": [1.0]}, id="amplitude-count-1"),
    pytest.param({**_STEADY, "n_qubits": 3}, id="bell-on-3-qubits"),
    pytest.param({**_STEADY, "gamma": [1.0, 2.0]}, id="bell-gamma-list-of-2"),
    pytest.param({**_QSD, "gamma": [1.0, 1.0, 1.0]}, id="qsd-gamma-list"),
    pytest.param({"scenario": "graph-state", "graph": {"n": 3.7, "edges": [[1, 3]]}},
                 id="graph-n-fraction"),
    pytest.param({"scenario": "graph-state", "graph": {"n": 3, "edges": [[1.9, 3]]}},
                 id="graph-edge-fraction"),
    pytest.param({"scenario": "graph-state", "graph": {"n": 3, "edges": [[True, 3]]}},
                 id="graph-edge-bool"),
    pytest.param({**_STEADY, "output_path": {"a": 1}}, id="output_path-object"),
    pytest.param({**_STEADY, "output_path": ""}, id="output_path-empty"),
])
def test_main_rejects_bad_values_before_running(tmp_path, capsys, probe):
    path = _write(tmp_path, "cfg.json", probe)
    out = tmp_path / "out"
    assert main([str(path), "--output", str(out), "--quiet"]) == EXIT_CONFIG
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("[dissipforge] config error:") and err.count("\n") == 1
    assert "np.float64(" not in err


@pytest.mark.parametrize("probe, message", [
    pytest.param({**_STEADY, "gamma": True},
                 "key 'gamma': gamma must be positive and finite, got True", id="gamma-boolean"),
    pytest.param({**_STEADY, "gamma": [1.0, "2", 1.0]},
                 "key 'gamma': gamma[1] must be positive and finite, got '2'", id="gamma-entry"),
    pytest.param({**_COMPILE, "theta": 10**400},
                 "key 'theta': theta must be a finite real number, got 1000", id="theta-10^400"),
    # every word is verified on one 4 x 4 bath, which no key sizes
    pytest.param({**_COMPILE, "bath_dim": 1}, "unknown key 'bath_dim' for scenario 'compile'",
                 id="bath_dim-1"),
    pytest.param({**_QSD, "seed": True}, "key 'seed': seed must be an integer, got True",
                 id="seed-boolean"),
    pytest.param({**_EVOLVE, "t_max": 1.0, "dt": 2.0},
                 "key 't_max': t_max = 1.0 is below one step dt = 2.0", id="t_max-below-dt"),
    pytest.param({**_EVOLVE, "t_max": 1e300, "dt": 1e-300},
                 "key 't_max': t_max / dt = 1e+300 / 1e-300 is beyond the float range",
                 id="step-count-overflows"),
    pytest.param({"scenario": "graph-state", "graph": {"edges": []}},
                 'key \'graph\': a graph must be {"n": ..., "edges": [[a, b], ...]}',
                 id="graph-without-n"),
    pytest.param({"scenario": "graph-state", "graph": [1]},
                 'key \'graph\': a graph must be {"n": ..., "edges": [[a, b], ...]}',
                 id="graph-list"),
    # the graph's own vertex count is the qubit count, so no key repeats it
    pytest.param({"scenario": "graph-state", "n_qubits": 3, "graph": {"n": 3, "edges": []}},
                 "unknown key 'n_qubits' for scenario 'graph-state'", id="graph-state-n_qubits"),
])
def test_config_error_repeats_the_library_message_after_the_key(tmp_path, capsys, probe,
                                                                 message):
    path = _write(tmp_path, "cfg.json", probe)
    out = tmp_path / "out"
    assert main([str(path), "--output", str(out), "--quiet"]) == EXIT_CONFIG
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith(f"[dissipforge] config error: {message}") and err.count("\n") == 1


@pytest.mark.parametrize("probe", [
    pytest.param({"scenario": "graph-state", "graph": {"n": 30, "edges": [[1, 2]]}},
                 id="graph-state-30-qubits"),
    pytest.param({**_EVOLVE, "n_qubits": 4, "target": "cluster-4", "t_max": 30, "dt": 1e-7},
                 id="evolve-dt-1e-7"),
    # the model's 28 arrays of 2048 x 2048, 1.75 GiB
    pytest.param({**_STEADY, "n_qubits": 11, "target": "cluster"}, id="steady-11-qubits"),
    pytest.param({**_EVOLVE, "n_qubits": 10**400, "target": "cluster"},
                 id="evolve-10^400-qubits"),
    # the model's 1.75 GiB, not the 128 MiB record or qsd's 512 MiB ensemble arrays
    pytest.param({**_EVOLVE, "n_qubits": 11, "target": "cluster", "t_max": 0.01, "dt": 0.01},
                 id="evolve-11-qubits-one-step"),
    pytest.param({**_QSD, "n_qubits": 11, "target": "cluster", "t_max": 0.01, "dt": 0.01,
                  "n_traj": 1}, id="qsd-11-qubits-one-step"),
    # the 65 samples of 1024 x 1024 that evolve records, 1.02 GiB, above the model's 448 MiB
    pytest.param({**_EVOLVE, "n_qubits": 10, "target": "cluster", "t_max": 0.64},
                 id="evolve-10-qubits-65-samples"),
    # the JSON lists at 512 B per [re, im] pair: 2^22 amplitudes, 2 GiB
    pytest.param({"scenario": "graph-state", "graph": GraphSpec.path(22).to_obj()},
                 id="graph-state-22-qubits"),
    # and 255 jumps of 256 x 256 entries, 7.97 GiB
    pytest.param({"scenario": "synth", "n_qubits": 8, "target": "cluster-8"},
                 id="synth-8-qubits"),
    # the ensemble's arrays at 64 B per (sample, i, j) entry: 1001 x 256^2 of them, 3.9 GiB
    pytest.param({**_QSD, "n_qubits": 8, "target": "cluster", "t_max": 1, "n_traj": 64},
                 id="qsd-8-qubits-t_max-1"),
    # the rank-one moments beside one noise path, 2064 B per sample: 4000001 of them,
    # 7.69 GiB, where the 2 x 2 arrays and the path alone were charged 0.95 GiB
    pytest.param({**_QSD, "n_qubits": 1, "target": "plus", "t_max": 4000, "n_traj": 1},
                 id="qsd-1-qubit-t_max-4000"),
])
def test_main_rejects_oversized_runs_before_allocating(tmp_path, capsys, probe):
    path = _write(tmp_path, "cfg.json", probe)
    out = tmp_path / "out"
    tracemalloc.start()
    try:
        code = main([str(path), "--output", str(out), "--quiet"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == EXIT_CONFIG and not out.exists()
    err = capsys.readouterr().err
    assert "GiB for its largest array" in err and err.count("\n") == 1
    assert peak < 1 << 20


def test_size_guard_boundary_for_steady(tmp_path):
    # steady holds its jumps as factor pairs and is charged the model's 28 arrays of
    # d x d: 448 MiB at 10 qubits, 1.75 GiB at 11
    probe = {"scenario": "steady", "target": "cluster"}
    cfg = parse_config(_write(tmp_path, "fits.json", {**probe, "n_qubits": 10}))
    assert cfg.n_qubits == 10
    with pytest.raises(ConfigError, match=" 1.75 GiB"):
        parse_config(_write(tmp_path, "refused.json", {**probe, "n_qubits": 11}))


_ONE_STEP = {"target": "cluster", "t_max": 0.01, "dt": 0.01}


@pytest.mark.parametrize("probe, key, fits, refused, gib", [
    # evolve and qsd are charged at least the model's 28 arrays of d x d whatever
    # their record: 448 MiB at 10 qubits, 1.75 GiB at 11
    pytest.param({**_EVOLVE, **_ONE_STEP}, "n_qubits", 10, 11, " 1.75 GiB", id="evolve"),
    pytest.param({**_QSD, **_ONE_STEP, "n_traj": 1}, "n_qubits", 10, 11, " 1.75 GiB",
                 id="qsd"),
    # compile refuses words above MAX_WORD_LETTERS = 1024
    pytest.param(_COMPILE, "pauli_word", "XYZ" * 341 + "X", "XYZ" * 341 + "XY",
                 "1025 letters, above the 1024-letter limit", id="compile"),
    # synth and graph-state write 512 B per [re, im] pair of their JSON lists:
    # 0.99 GiB for the 127 jumps of 128 x 128 at 7 qubits, 7.97 GiB at 8; 1 GiB
    # for the 2^21 amplitudes on 21 vertices, 2 GiB on 22
    pytest.param({"scenario": "synth", "target": "cluster"}, "n_qubits", 7, 8, " 7.97 GiB",
                 id="synth"),
    pytest.param({"scenario": "graph-state"}, "graph", GraphSpec.path(21).to_obj(),
                 GraphSpec.path(22).to_obj(), " 2 GiB", id="graph-state"),
    # qsd's ensemble arrays, 64 B per (sample, i, j) entry: 1 GiB at 1024 samples
    # of 128 x 128 (t_max = 1.023 at dt = 1e-3), above the 256 MiB record
    pytest.param({**_QSD, "n_qubits": 7, "target": "cluster"}, "t_max", 1.023, 1.024, " 1 GiB",
                 id="qsd-ensemble-arrays"),
])
def test_size_guard_boundary_for_the_other_scenarios(tmp_path, probe, key, fits, refused, gib):
    cfg = parse_config(_write(tmp_path, "fits.json", {**probe, key: fits}))
    assert getattr(cfg, key) == (GraphSpec.from_obj(fits) if key == "graph" else fits)
    with pytest.raises(ConfigError, match=gib):
        parse_config(_write(tmp_path, "refused.json", {**probe, key: refused}))


def test_a_gamma_list_is_checked_against_the_jump_count_at_parse_time(tmp_path):
    for target, n, count in (("bell", 2, 3), ("plus", 1, 1), ("cluster", 3, 7)):
        probe = {**_STEADY, "n_qubits": n, "target": target}
        cfg = parse_config(_write(tmp_path, "ok.json", {**probe, "gamma": [1.0] * count}))
        assert _build_model(cfg)[0].dissipators.rates == (1.0,) * count
        with pytest.raises(ConfigError, match=f"gamma list has {count + 1} entries, need "
                                              rf"2\^n_qubits - 1 = {count}"):
            parse_config(_write(tmp_path, "bad.json", {**probe, "gamma": [1.0] * (count + 1)}))


def test_build_model_holds_no_jump_stack(tmp_path):
    # the synthesized jumps are factor pairs, 2 (d - 1) d entries, shared by the rated
    # set; their (d - 1, d, d) stack would be 4.1 MB
    cfg = parse_config(_write(tmp_path, "cfg.json", {**_STEADY, "n_qubits": 6,
                                                     "target": "cluster", "gamma": 2.0}))
    d = 64
    tracemalloc.start()
    try:
        model, _ = _build_model(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert model.dissipators.rates == (2.0,) * (d - 1)
    assert all(len(item) == 3 for item in model.dissipators.items)
    assert peak < 1 << 20


def test_build_model_scans_the_operators_once(tmp_path, monkeypatch):
    # the configured rates carry the synthesized set's peaks over
    scans = []
    scan = DissipatorSet.__post_init__
    monkeypatch.setattr(DissipatorSet, "__post_init__", lambda ds: scans.append(scan(ds)))
    cfg = parse_config(_write(tmp_path, "cfg.json", {**_STEADY, "n_qubits": 3,
                                                     "target": "cluster", "gamma": 2.0}))
    model, _ = _build_model(cfg)
    assert len(scans) == 1 and model.dissipators.rates == (2.0,) * 7


def test_steady_fallback_above_the_size_limit_exits_3(tmp_path, capsys):
    # one rate at 1e-12 defeats the certificate, and the 4 GiB Liouvillian of
    # the dense fallback at 7 qubits is refused before it is allocated; the
    # peak is the model's working set, a few arrays of 256 KiB
    gamma = [1e-12] + [1.0] * 126
    path = _write(tmp_path, "cfg.json", {**_STEADY, "n_qubits": 7, "target": "cluster",
                                         "gamma": gamma})
    out = tmp_path / "out"
    tracemalloc.start()
    try:
        code = main([str(path), "--output", str(out), "--quiet"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == EXIT_CONTRACT and not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("[dissipforge] numerical contract failure:") and err.count("\n") == 1
    assert "GiB" in err and peak < 128 << 20


@pytest.mark.parametrize("probe, reason, skew", [
    # the certificate fails on its margin and the fallback's null space is
    # skewed off the state cone (conftest.skew_null_space)
    pytest.param({**_STEADY, "target": "cluster", "gamma": [7e-9, 1, 1]}, "minimum eigenvalue",
                 True, id="steady-representative-negative"),
    pytest.param({**_STEADY, "target": "cluster", "gamma": [1e-300, 1e300, 1]},
                 "too wide to rescale", False, id="steady-rates-beyond-one-scale"),
    # the first RK4 stages overflow; numpy's warning must not escape as a traceback
    pytest.param({"scenario": "evolve", "n_qubits": 1, "target": "plus", "t_max": 1e300,
                  "dt": 1e299}, "non-finite", False, id="evolve-step-overflows"),
    # the qsd noise scale sqrt(gamma / 2 dt) is beyond the float range
    pytest.param({"scenario": "qsd", "n_qubits": 2, "target": "cluster", "t_max": 0.01,
                  "n_traj": 3, "gamma": 1e308}, "diverged", False, id="qsd-noise-scale-gamma"),
    pytest.param({"scenario": "qsd", "n_qubits": 1, "target": "plus", "t_max": 1e-300,
                  "dt": 1e-300, "n_traj": 3, "gamma": 1e10}, "diverged", False,
                 id="qsd-noise-scale-dt"),
])
def test_main_reports_numerical_failures_with_exit_3(tmp_path, capsys, monkeypatch,
                                                     probe, reason, skew):
    if skew:
        skew_null_space(monkeypatch)
    path = _write(tmp_path, "cfg.json", probe)
    assert main([str(path), "--output", str(tmp_path / "out"), "--quiet"]) == EXIT_CONTRACT
    err = capsys.readouterr().err
    assert err.startswith("[dissipforge] numerical contract failure:") and err.count("\n") == 1
    assert reason in err


def test_synth_exits_3_when_the_target_is_not_dark(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(dissipforge.cli, "is_dark", lambda ds, phi: False)
    out = tmp_path / "out"
    assert main([str(CONFIG_DIR / "synth_cluster4.json"), "--output", str(out), "--quiet"]) \
        == EXIT_CONTRACT
    err = capsys.readouterr().err
    assert err == ("[dissipforge] numerical contract failure: "
                   "synthesized operators do not annihilate the target\n")
    assert (out / "dissipators.json").exists() and not (out / "summary.json").exists()


def test_compile_exits_3_when_verification_fails(tmp_path, capsys, monkeypatch):
    def failing(seq, bath, thetas):
        deviations = tuple(0.25 * (k + 1) for k in range(len(thetas)))
        return VerificationReport(False, max(deviations), deviations, tuple(thetas))

    monkeypatch.setattr(dissipforge.cli, "verify_sequence", failing)
    out = tmp_path / "out"
    assert main([str(CONFIG_DIR / "compile_xxx.json"), "--output", str(out), "--quiet"]) \
        == EXIT_CONTRACT
    err = capsys.readouterr().err
    assert err == ("[dissipforge] numerical contract failure: compiled sequence failed "
                   "verification (max relative deviation 7.500e-01)\n")
    verification = json.loads((out / "verification.json").read_text())
    assert verification["passed"] is False and verification["max_deviation"] == 0.75
    assert verification["deviations"] == [[0.25, 0.5, 0.75]]
    assert not (out / "summary.json").exists()


def test_every_numerical_failure_is_one_contract_error():
    assert dissipforge.cli.ContractError is dissipforge.lindblad.ContractError
    for error in (dissipforge.lindblad.IntegrationError, dissipforge.lindblad.SizeLimitError,
                  dissipforge.lindblad.SteadyStateError, dissipforge.qsd.EnsembleError):
        assert issubclass(error, dissipforge.cli.ContractError)


@pytest.mark.parametrize("target, n, gamma", [
    pytest.param(target, n, gamma, id=f"{target}-{n}-{gamma:g}")
    for target, n in (("bell", 2), ("cluster", 2), ("cluster", 3))
    for gamma in (1e-300, 1e200, 1e307, 1e308)
] + [pytest.param("cluster", 7, 1e200, id="cluster-7-1e+200")])
def test_steady_states_do_not_depend_on_the_rate_scale(tmp_path, target, n, gamma):
    cfg = parse_config(_write(tmp_path, "cfg.json", {**_STEADY, "n_qubits": n,
                                                     "target": target, "gamma": gamma}))
    model, state = _build_model(cfg)
    result = steady_states(model)
    assert (result.route, result.dimension) == ("certificate", 1)
    assert fidelity(result.state, state) > 1 - 1e-12


def test_main_runs_steady_at_the_largest_rate(tmp_path, capsys):
    path = _write(tmp_path, "cfg.json", {**_STEADY, "gamma": 1e308})
    assert main([str(path), "--output", str(tmp_path / "out"), "--quiet"]) == EXIT_OK
    steady = json.loads((tmp_path / "out" / "steady.json").read_text())
    assert steady["null_space_dim"] == 1 and steady["fidelity"] > 1 - 1e-12
    assert capsys.readouterr().err == ""


def test_main_checks_the_seed_override_at_parse_time(tmp_path, capsys):
    path = _write(tmp_path, "cfg.json", _STEADY)
    out = tmp_path / "out"
    assert main([str(path), "--output", str(out), "--quiet", "--seed", "-1"]) == EXIT_CONFIG
    assert not out.exists() and "'seed'" in capsys.readouterr().err
    assert parse_config(path, seed=5).seed == 5


_JUNK = st.sampled_from([None, True, "1", -1, 0, 0.5, 1e300, 10**30, 10**400, -math.inf,
                         math.nan, [], [1], {}])


@st.composite
def _configs(draw):
    """A small valid config of any scenario, then at most one fault: a key
    dropped, a value replaced by junk, an unknown key added, or n_qubits off
    by one."""
    scenario = draw(st.sampled_from(sorted(_SCENARIOS)))
    n = draw(st.integers(1, 3))
    presets = {1: ["plus"], 2: ["bell"], 3: []}[n] + ["cluster", f"cluster-{n}"]
    amps = draw(st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=5))
    norm = math.hypot(*amps)
    # a list of 2^n entries is a valid target; other lengths must be refused
    amps = [a / norm for a in amps] if norm > 0 else amps
    cfg = {"scenario": scenario, "n_qubits": n, "seed": draw(st.integers(0, 3)),
           "target": draw(st.one_of(st.sampled_from(presets), st.just(amps)))}
    rate = st.floats(0.1, 3.0)
    jumps = 3 if cfg["target"] == "bell" else 2**n - 1
    cfg["gamma"] = draw(st.one_of(rate, st.lists(rate, min_size=jumps, max_size=jumps)))
    if scenario in {"evolve", "qsd"}:
        cfg["t_max"] = draw(st.sampled_from([0.05, 0.5, 2.0]))
        cfg["dt"] = draw(st.sampled_from([1e-3, 0.01, 0.1, 1.0]))
    if scenario == "qsd":
        cfg["n_traj"] = draw(st.integers(1, 4))
    if scenario == "compile":
        cfg = {"scenario": scenario, "pauli_word": draw(st.text("IXYZ", min_size=1, max_size=3)),
               "theta": draw(st.floats(-4.0, 4.0))}
    if scenario == "graph-state":
        vertex = st.integers(1, n + 1)
        edges = draw(st.lists(st.lists(vertex, min_size=1, max_size=3), max_size=3))
        cfg = {"scenario": scenario, "graph": {"n": n + 1, "edges": edges}}
    fault = draw(st.sampled_from(["none", "none", "junk", "drop", "typo", "qubits"]))
    key = draw(st.sampled_from(sorted(cfg)))
    if fault == "junk":
        cfg[key] = draw(_JUNK)
    elif fault == "drop":
        del cfg[key]
    elif fault == "typo":
        cfg[key + "s"] = cfg[key]
    elif fault == "qubits" and "n_qubits" in cfg:
        cfg["n_qubits"] += draw(st.sampled_from([-1, 1]))
    return cfg


@settings(max_examples=200, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_configs())
def test_main_exit_code_contract_holds_for_generated_configs(config):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        out = Path(tmp) / "out"
        code = main([str(path), "--output", str(out), "--quiet"])
        assert code in {EXIT_OK, EXIT_CONFIG, EXIT_CONTRACT, EXIT_IO}
        assert code != EXIT_CONFIG or not out.exists()


def test_main_reports_an_output_path_that_is_a_file(tmp_path, capsys):
    path = _write(tmp_path, "cfg.json", _STEADY)
    taken = _write(tmp_path, "taken", "not a directory")
    assert main([str(path), "--output", str(taken), "--quiet"]) == EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith("[dissipforge] I/O error:") and err.count("\n") == 1
    assert taken.read_text() == "not a directory"


# ---------------------------------------------------------------- scenarios


def test_steady_scenario_on_bell_preset(tmp_path):
    path = _write(tmp_path, "cfg.json", {"scenario": "steady", "n_qubits": 2, "target": "bell"})
    summary = run(parse_config(path), output_dir=tmp_path / "out", quiet=True)
    assert summary.metrics["null_space_dim"] == 1
    assert summary.metrics["fidelity"] >= 1.0 - 1e-10
    data = json.loads((tmp_path / "out" / "steady.json").read_text())
    assert isinstance(data["null_space_dim"], int)


def test_steady_scenario_on_six_qubits(tmp_path):
    # certified without the 4096 x 4096 Liouvillian, with random rates in [0.5, 2]
    gamma = np.random.default_rng(8).uniform(0.5, 2.0, 63).tolist()
    path = _write(tmp_path, "cfg.json", {**_STEADY, "n_qubits": 6, "target": "cluster-6",
                                         "gamma": gamma})
    summary = run(parse_config(path), output_dir=tmp_path / "out", quiet=True)
    assert summary.metrics["null_space_dim"] == 1
    assert summary.metrics["fidelity"] >= 1.0 - 1e-12


def test_importing_the_cli_leaves_scipy_linalg_unloaded(tmp_path):
    # and so does the compile scenario, whose matexp is numpy alone
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(Path(__file__).resolve().parent.parent / "src"), os.environ.get("PYTHONPATH", "")])}
    code = "import sys, dissipforge.cli; print('scipy.linalg' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True, timeout=60)
    assert out.stdout.strip() == "False"
    path = _write(tmp_path, "cfg.json", _COMPILE)
    code = ("import sys; from dissipforge.cli import main; "
            "code = main([sys.argv[1], '--output', sys.argv[2], '--quiet']); "
            "print(code, 'scipy' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code, str(path), str(tmp_path / "out")],
                         capture_output=True, text=True, env=env, check=True, timeout=60)
    assert out.stdout.strip() == f"{EXIT_OK} False"
    assert json.loads((tmp_path / "out" / "verification.json").read_text())["passed"] is True


def test_evolve_scenario_writes_csv(tmp_path):
    path = _write(tmp_path, "cfg.json", {
        "scenario": "evolve", "n_qubits": 2, "target": "bell", "t_max": 5,
    })
    summary = run(parse_config(path), output_dir=tmp_path / "out", quiet=True)
    lines = (tmp_path / "out" / "evolution.csv").read_text().splitlines()
    assert lines[0] == "t,fidelity,trace_error,purity,min_eig"
    assert len(lines) == 502  # header + 501 samples at dt = 0.01
    assert summary.metrics["final_fidelity"] > 0.999
    for artifact in summary.artifacts:
        assert Path(artifact).exists()


def test_evolve_scenario_on_synthesized_cluster(tmp_path):
    path = _write(tmp_path, "cfg.json", {
        "scenario": "evolve", "n_qubits": 3, "target": "cluster", "t_max": 20,
    })
    summary = run(parse_config(path), output_dir=tmp_path / "out", quiet=True)
    assert summary.metrics["final_fidelity"] > 0.999999


def test_synth_scenario_emits_dissipators(tmp_path):
    path = _write(tmp_path, "cfg.json", {
        "scenario": "synth", "n_qubits": 3, "target": "cluster-3",
    })
    summary = run(parse_config(path), output_dir=tmp_path / "out", quiet=True)
    assert summary.metrics["target_is_dark"] is True
    assert summary.metrics["null_space_dim"] == 1
    ds = DissipatorSet.from_json_obj(
        json.loads((tmp_path / "out" / "dissipators.json").read_text())
    )
    assert len(ds) == 7 and ds.dim == 8  # one operator per complement level


def test_graph_state_scenario(tmp_path):
    path = _write(tmp_path, "cfg.json", {
        "scenario": "graph-state", "graph": {"n": 4, "edges": [[1, 2], [2, 3], [3, 4]]},
    })
    run(parse_config(path), output_dir=tmp_path / "out", quiet=True)
    data = json.loads((tmp_path / "out" / "state.json").read_text())
    amps = np.array([complex(re, im) for re, im in data["amplitudes"]])
    assert np.max(np.abs(np.abs(amps) - 0.25)) < 1e-12


def test_compile_scenario_roundtrip_and_verification(tmp_path):
    path = _write(tmp_path, "cfg.json", _COMPILE)
    summary = run(parse_config(path), output_dir=tmp_path / "out", quiet=True)
    assert summary.metrics["max_verification_deviation"] <= 1e-10
    gates_obj = json.loads((tmp_path / "out" / "gates.json").read_text())
    seq = GateSequence.from_json_obj(gates_obj)
    # emit . parse is the identity: the floats are written exactly
    assert seq.to_json_obj() == gates_obj
    verification = json.loads((tmp_path / "out" / "verification.json").read_text())
    assert verification["passed"] is True
    assert (tmp_path / "out" / "circuit.txt").read_text().count("\n") >= len(seq.gates)


@pytest.mark.parametrize("letters", ["IXI", "IXYI"])
def test_compile_accepts_identity_letters_around_a_contiguous_support(tmp_path, letters):
    path = _write(tmp_path, "cfg.json", {**_COMPILE, "pauli_word": letters})
    out = tmp_path / "out"
    assert main([str(path), "--output", str(out), "--quiet"]) == EXIT_OK
    assert json.loads((out / "gates.json").read_text())["target"] == letters
    assert json.loads((out / "verification.json").read_text())["passed"] is True


def test_compile_passes_a_40_letter_word_without_a_word_sized_array(tmp_path):
    # decided on the words' tableaux: nothing of size 2^40 is built, and the
    # artifacts of 40 letters and the 4 x 4 bath stay far below a MiB
    path = _write(tmp_path, "cfg.json", {**_COMPILE, "pauli_word": ("XYZ" * 14)[:40]})
    cfg = parse_config(path)
    tracemalloc.start()
    try:
        run(cfg, output_dir=tmp_path / "out", quiet=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    verification = json.loads((tmp_path / "out" / "verification.json").read_text())
    assert verification["passed"] is True and verification["max_deviation"] == 0.0
    assert peak < 1 << 20


def test_compile_exits_3_when_the_compiled_word_fails_its_tableau(tmp_path, capsys,
                                                                   monkeypatch):
    # a sequence with its last gate dropped realizes another word, and its report
    # reads the deviations off the 4 x 4 bath drawn from the seed
    compile_coupling = dissipforge.cli.compile_coupling

    def drop_last_gate(word, theta, graph):
        seq = compile_coupling(word, theta, graph)
        return GateSequence(seq.gates[:-1], seq.target, seq.theta)

    monkeypatch.setattr(dissipforge.cli, "compile_coupling", drop_last_gate)
    path = _write(tmp_path, "cfg.json", {**_COMPILE, "pauli_word": "XYZ"})
    out = tmp_path / "out"
    assert main([str(path), "--output", str(out), "--quiet"]) == EXIT_CONTRACT
    assert "failed verification" in capsys.readouterr().err
    verification = json.loads((out / "verification.json").read_text())
    assert verification["passed"] is False and verification["max_deviation"] > 0.5
    assert not (out / "summary.json").exists()


def test_qsd_scenario_deterministic_outputs(tmp_path):
    cfg_obj = {
        "scenario": "qsd", "n_qubits": 2, "target": "bell",
        "t_max": 0.2, "n_traj": 1, "seed": 7,
    }
    path = _write(tmp_path, "cfg.json", cfg_obj)
    run(parse_config(path), output_dir=tmp_path / "a", quiet=True)
    run(parse_config(path), output_dir=tmp_path / "b", quiet=True)
    for name in ("ensemble.csv", "ensemble.json", "summary.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_qsd_final_fidelity_is_the_target_overlap_of_the_final_mean(tmp_path):
    cfg_obj = {
        "scenario": "qsd", "n_qubits": 2, "target": "bell",
        "t_max": 0.2, "dt": 0.01, "n_traj": 20, "seed": 3,
    }
    path = _write(tmp_path, "cfg.json", cfg_obj)
    run(parse_config(path), output_dir=tmp_path, quiet=True)
    summary = json.loads((tmp_path / "summary.json").read_text())
    ensemble = json.loads((tmp_path / "ensemble.json").read_text())
    assert ensemble["t"] == 0.2
    pairs = np.array(ensemble["rho_mean"])
    rho = (pairs[:, 0] + 1j * pairs[:, 1]).reshape(4, 4)
    t = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)
    expected = np.vdot(t, rho @ t).real
    assert abs(summary["metrics"]["final_fidelity"] - expected) <= 1e-12


def _csv_rows(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    return lines[0], np.array([[float(x) for x in line.split(",")] for line in lines[1:]])


def test_qsd_ensemble_csv_has_the_evolution_csv_columns(tmp_path):
    # qsd writes its history through the record evolve writes
    qsd = _write(tmp_path, "qsd.json", {**_QSD, "n_qubits": 3, "target": "cluster",
                                        "t_max": 0.3, "dt": 0.01, "n_traj": 16})
    evolve = _write(tmp_path, "evolve.json", {**_EVOLVE, "t_max": 0.03})
    cfg = parse_config(qsd)
    summary = run(cfg, output_dir=tmp_path / "qsd", quiet=True)
    run(parse_config(evolve), output_dir=tmp_path / "evolve", quiet=True)
    header, rows = _csv_rows(tmp_path / "qsd" / "ensemble.csv")
    assert header == _csv_rows(tmp_path / "evolve" / "evolution.csv")[0]
    assert rows.shape == (31, 5)
    assert rows[:, 0].tolist() == [k * 0.01 for k in range(31)]
    # both the same float, written exactly
    metrics = json.loads((tmp_path / "qsd" / "summary.json").read_text())["metrics"]
    assert rows[-1, 1] == metrics["final_fidelity"]
    assert [Path(p).name for p in summary.artifacts] == \
        ["ensemble.csv", "ensemble.json", "summary.json"]


def _qsd_run_and_library_ensemble(tmp_path):
    """Run a Bell qsd config into tmp_path; return the library's ensemble of it and the target."""
    cfg = parse_config(_write(tmp_path, "cfg.json", {**_QSD, "t_max": 0.2, "dt": 0.01,
                                                     "n_traj": 20, "seed": 11}))
    run(cfg, output_dir=tmp_path, quiet=True)
    L, gamma, target = dissipforge.cli._combined_operator(cfg)
    psi0 = np.zeros(4, dtype=complex)
    psi0[0] = 1.0
    result = dissipforge.qsd.ensemble_average(
        L, dissipforge.qsd.TrajectoryConfig(20, 0.01, 0.2, master_seed=11, gamma=gamma), psi0)
    return result, target


def test_qsd_ensemble_csv_columns_are_read_off_the_library_ensemble(tmp_path):
    result, target = _qsd_run_and_library_ensemble(tmp_path)
    _, rows = _csv_rows(tmp_path / "ensemble.csv")
    assert np.array_equal(rows[:, 1], [fidelity(rho, target) for rho in result.rho_mean])
    # qsd's trace error is the sampling error of the mean's trace
    traces = np.trace(result.rho_mean, axis1=1, axis2=2).real
    assert np.array_equal(rows[:, 2], np.abs(traces - 1))
    assert np.max(rows[:, 2]) > 0


def _synth_arrays(tmp_path):
    cfg = parse_config(_write(tmp_path, "cfg.json",
                              {"scenario": "synth", "n_qubits": 3, "target": "cluster-3"}))
    run(cfg, output_dir=tmp_path, quiet=True)
    written = DissipatorSet.from_json_obj(json.loads((tmp_path / "dissipators.json").read_text()))
    expected = _build_model(cfg)[0].dissipators
    assert len(written) == len(expected) == 7
    return [pair for (ga, a), (gb, b) in zip(written, expected) for pair in ((ga, gb), (a, b))]


def _graph_state_arrays(tmp_path):
    # three vertices, so every amplitude is +-2^(-3/2), which 15 digits do not hold
    graph = GraphSpec.path(3)
    run(parse_config(_write(tmp_path, "cfg.json", {"scenario": "graph-state",
                                                   "graph": graph.to_obj()})),
        output_dir=tmp_path, quiet=True)
    pairs = np.array(json.loads((tmp_path / "state.json").read_text())["amplitudes"])
    return [(pairs[:, 0] + 1j * pairs[:, 1], graph_state(graph).amplitudes)]


def _qsd_arrays(tmp_path):
    result, _ = _qsd_run_and_library_ensemble(tmp_path)
    data = json.loads((tmp_path / "ensemble.json").read_text())
    pairs = np.array(data["rho_mean"])
    return [((pairs[:, 0] + 1j * pairs[:, 1]).reshape(4, 4), result.rho_mean[-1]),
            (np.reshape(data["rho_se"], (4, 4)), result.rho_se[-1])]


def _evolve_arrays(tmp_path):
    cfg = parse_config(_write(tmp_path, "cfg.json", {**_EVOLVE, "n_qubits": 3,
                                                     "target": "cluster", "t_max": 0.5}))
    run(cfg, output_dir=tmp_path, quiet=True)
    model, target = _build_model(cfg)
    record = integrate(model, DensityMatrix.maximally_mixed(3), cfg.t_max, dt=cfg.dt,
                       target=target)
    _, rows = _csv_rows(tmp_path / "evolution.csv")
    expected = (record.times, record.fidelities, record.trace_errors, purity(record.states),
                record.min_eigs)
    return list(zip(rows.T, expected))


@pytest.mark.parametrize("arrays", [_synth_arrays, _graph_state_arrays, _qsd_arrays,
                                    _evolve_arrays],
                         ids=["synth", "graph-state", "qsd", "evolve"])
def test_array_artifacts_read_back_bit_for_bit(tmp_path, arrays):
    # every float is written as the float the run computed, not rounded
    for written, expected in arrays(tmp_path):
        assert np.shape(written) == np.shape(expected)
        assert np.array_equal(written, expected)


def test_qsd_charge_covers_the_traced_working_set(tmp_path):
    # the ensemble's (T, d, d) mean and standard error and their temporaries, about
    # 34 B per (sample, i, j) entry, against the 64 B charged; the mean alone is 16 B
    cfg = parse_config(_write(tmp_path, "cfg.json", {**_QSD, "n_qubits": 5, "target": "cluster",
                                                     "t_max": 0.5, "n_traj": 64}))
    tracemalloc.start()
    try:
        run(cfg, output_dir=tmp_path / "out", quiet=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 16 * 501 * 32 ** 2 < peak < 2 ** _log2_largest_array(cfg)


@pytest.mark.parametrize("n_qubits, target", [(1, "plus"), (2, "bell")])
def test_qsd_charge_covers_the_traced_moments(tmp_path, n_qubits, target):
    # on one trajectory of one or two qubits the rank-one moments, 720 B per sample
    # for the (T, 9) and (T, 9, 9) totals alone, outweigh the noise path and the
    # (T, d, d) arrays; 1196 and 1569 B per sample traced, against 2064 charged
    cfg = parse_config(_write(tmp_path, "cfg.json", {**_QSD, "n_qubits": n_qubits,
                                                     "target": target, "t_max": 10,
                                                     "n_traj": 1}))
    tracemalloc.start()
    try:
        run(cfg, output_dir=tmp_path / "out", quiet=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 720 * 10001 < peak < 2 ** _log2_largest_array(cfg)


@pytest.mark.parametrize("probe, pairs", [
    pytest.param({"scenario": "graph-state", "graph": GraphSpec.path(16).to_obj()}, 2 ** 16,
                 id="graph-state-16"),
    pytest.param({"scenario": "synth", "n_qubits": 5, "target": "cluster-5"}, 31 * 32 ** 2,
                 id="synth-cluster-5"),
])
def test_pair_charge_covers_the_traced_working_set(tmp_path, probe, pairs):
    # the [re, im] lists and the text json.dumps makes of them, 185-263 B per pair,
    # against the 512 B charged; the lists' own objects are above 128 B per pair
    cfg = parse_config(_write(tmp_path, "cfg.json", probe))
    tracemalloc.start()
    try:
        run(cfg, output_dir=tmp_path / "out", quiet=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 128 * pairs < peak < 2 ** _log2_largest_array(cfg)


def test_emit_outputs_dispatch(tmp_path):
    from dissipforge.lindblad import EvolutionRecord

    record = EvolutionRecord(
        times=np.array([0.0, 0.1, 0.2]),
        states=np.tile(np.eye(2, dtype=complex) / 2, (3, 1, 1)),
        trace_errors=np.zeros(3),
        fidelities=np.ones(3),
    )
    csv_path = emit_outputs(record, tmp_path / "record.csv")
    lines = csv_path.read_text().splitlines()
    assert len(lines) == 4  # header plus three samples
    assert lines[0] == "t,fidelity,trace_error,purity,min_eig"

    json_path = emit_outputs({"null_space_dim": 1, "value": 1 / 3}, tmp_path / "out.json")
    data = json.loads(json_path.read_text())
    assert data["null_space_dim"] == 1
    assert abs(data["value"] - 1 / 3) < 1e-14

    txt_path = emit_outputs("one line\n", tmp_path / "out.txt")
    assert txt_path.read_text() == "one line\n"


def test_emit_outputs_writes_exact_sorted_json_on_one_line(tmp_path):
    pairs = complex_pairs(np.array([[1 / 3 + 2j / 7, -0.0], [0.1 + 0.2, 1e-17 - 1j]]))
    obj = {"pairs": pairs, "n": 3, "ok": True, "none": None, "x": 0.1 + 0.2,
           "nested": {"b": [1.0000000000000002, 2], "a": (False, 7.5)}}
    text = emit_outputs(obj, tmp_path / "out.json").read_text(encoding="utf-8")
    assert text == json.dumps(obj, sort_keys=True) + "\n"
    assert text.count("\n") == 1 and json.loads(text)["x"] == 0.30000000000000004
    assert json.loads(text)["nested"]["b"][0] == 1.0000000000000002


def test_emit_outputs_memory_of_a_large_ensemble_record(tmp_path):
    # ensemble.json holds the final sample alone, whatever the number of samples
    rng = np.random.default_rng(0)
    shape = (1001, 8, 8)  # a qsd record at d = 8: 1.5 MB of arrays
    result = EnsembleResult(np.arange(shape[0]) * 1e-3,
                            rng.standard_normal(shape) + 1j * rng.standard_normal(shape),
                            rng.random(shape), 500, ())
    tracemalloc.start()
    try:
        path = emit_outputs(result.to_json_obj(), tmp_path / "ensemble.json")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 << 10 and path.stat().st_size < 16 << 10
    data = json.loads(path.read_text())
    assert data["t"] == 1.0 and len(data["rho_mean"]) == len(data["rho_se"]) == 64


def test_summary_json_has_no_wall_time(tmp_path):
    path = _write(tmp_path, "cfg.json", {"scenario": "steady", "n_qubits": 2, "target": "bell"})
    run(parse_config(path), output_dir=tmp_path / "out", quiet=True)
    data = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert set(data) == {"scenario", "metrics", "artifacts"}


# ---------------------------------------------------------------- entry point


def test_main_success_and_exit_codes(tmp_path, capsys):
    good = _write(tmp_path, "good.json", {
        "scenario": "steady", "n_qubits": 2, "target": "bell",
    })
    assert main([str(good), "--output", str(tmp_path / "out"), "--quiet"]) == EXIT_OK

    bad_key = _write(tmp_path, "bad.json", {
        "scenario": "steady", "n_qubits": 2, "target": "bell", "gama": 1,
    })
    assert main([str(bad_key), "--quiet"]) == EXIT_CONFIG
    assert "gama" in capsys.readouterr().err

    assert main([str(tmp_path / "missing.json")]) == EXIT_IO

    unstable = _write(tmp_path, "unstable.json", {
        "scenario": "evolve", "n_qubits": 2, "target": "bell", "t_max": 100, "dt": 10,
    })
    assert main([str(unstable), "--output", str(tmp_path / "out2"), "--quiet"]) == EXIT_CONTRACT


def test_main_seed_override_changes_qsd_output(tmp_path):
    cfg = _write(tmp_path, "cfg.json", {
        "scenario": "qsd", "n_qubits": 2, "target": "bell",
        "t_max": 0.1, "n_traj": 2, "seed": 0,
    })
    assert main([str(cfg), "--output", str(tmp_path / "a"), "--quiet"]) == EXIT_OK
    assert main([str(cfg), "--output", str(tmp_path / "b"), "--quiet", "--seed", "123"]) == EXIT_OK
    for name in ("ensemble.csv", "ensemble.json"):
        assert (tmp_path / "a" / name).read_bytes() != (tmp_path / "b" / name).read_bytes()


def test_main_reads_the_seed_override_as_the_config_reads_seed(tmp_path, monkeypatch):
    cfg = _write(tmp_path, "cfg.json", {**_QSD, "seed": 0})
    for seed in ("2", "2.0"):
        assert main([str(cfg), "--output", str(tmp_path / seed), "--quiet", "--seed", seed]) \
            == EXIT_OK
    names = sorted(p.name for p in (tmp_path / "2").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "2.0").iterdir())
    for name in names:
        assert (tmp_path / "2" / name).read_bytes() == (tmp_path / "2.0" / name).read_bytes()
    seeds = []
    monkeypatch.setattr(dissipforge.cli, "run", lambda cfg, **kwargs: seeds.append(cfg.seed))
    assert main([str(cfg), "--seed", "12345678901234567890"]) == EXIT_OK
    assert seeds == [12345678901234567890]


@pytest.mark.parametrize("seed, message", [
    ("1.5", "seed must be an integer, got 1.5"),
    ("x", "seed must be an integer, got 'x'"),
    ("null", "seed must be an integer, got 'null'"),
    ("true", "seed must be an integer, got True"),
    ("-1e3", "seed must be an integer of at least 0, got -1000"),
], ids=["fractional", "not-json", "null", "boolean", "negative-exponent"])
def test_main_refuses_a_seed_override_in_the_configs_words(tmp_path, capsys, seed, message):
    cfg = _write(tmp_path, "cfg.json", _QSD)
    out = tmp_path / "out"
    assert main([str(cfg), "--output", str(out), "--quiet", "--seed", seed]) == EXIT_CONFIG
    assert not out.exists()
    assert capsys.readouterr().err == f"[dissipforge] config error: key 'seed': {message}\n"


def test_bundled_configs_complete_quickly(tmp_path):
    configs = sorted(CONFIG_DIR.glob("*.json"))
    assert configs, "bundled example configs are missing"
    for cfg_path in configs:
        start = time.perf_counter()
        code = main([str(cfg_path), "--output", str(tmp_path / cfg_path.stem), "--quiet"])
        elapsed = time.perf_counter() - start
        assert code == EXIT_OK, f"{cfg_path.name} exited with {code}"
        assert elapsed < 60.0, f"{cfg_path.name} took {elapsed:.1f}s"
