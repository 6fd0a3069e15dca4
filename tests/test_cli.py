import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from dissipforge.cli import (
    EXIT_CONFIG,
    EXIT_CONTRACT,
    EXIT_IO,
    EXIT_OK,
    ConfigError,
    emit_outputs,
    main,
    parse_config,
    run,
)
from dissipforge.compiler import GateSequence
from dissipforge.dissipators import DissipatorSet

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def _write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj), encoding="utf-8")
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
    path = _write(tmp_path, "cfg.json", {
        "scenario": "compile", "pauli_word": "XXX", "theta": 0.7, "bath_dim": 4,
    })
    cfg = parse_config(path)
    assert cfg.pauli_word == "XXX" and cfg.theta == 0.7 and cfg.bath_dim == 4


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
])
def test_main_rejects_bad_values_before_running(tmp_path, capsys, probe):
    path = _write(tmp_path, "cfg.json", probe)
    out = tmp_path / "out"
    assert main([str(path), "--output", str(out), "--quiet"]) == EXIT_CONFIG
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("[dissipforge] config error:") and err.count("\n") == 1


# ---------------------------------------------------------------- scenarios


def test_steady_scenario_on_bell_preset(tmp_path):
    path = _write(tmp_path, "cfg.json", {"scenario": "steady", "n_qubits": 2, "target": "bell"})
    summary = run(parse_config(path), output_dir=tmp_path / "out", quiet=True)
    assert summary.metrics["null_space_dim"] == 1
    assert summary.metrics["fidelity"] >= 1.0 - 1e-10
    data = json.loads((tmp_path / "out" / "steady.json").read_text())
    assert isinstance(data["null_space_dim"], int)


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
    path = _write(tmp_path, "cfg.json", {
        "scenario": "compile", "pauli_word": "XXX", "theta": 0.7, "bath_dim": 4,
    })
    summary = run(parse_config(path), output_dir=tmp_path / "out", quiet=True)
    assert summary.metrics["max_verification_deviation"] <= 1e-10
    gates_obj = json.loads((tmp_path / "out" / "gates.json").read_text())
    seq = GateSequence.from_json_obj(gates_obj)
    # emit . parse is the identity at the emitted 15-digit precision
    from dissipforge.cli import _round_floats

    assert _round_floats(seq.to_json_obj()) == gates_obj
    verification = json.loads((tmp_path / "out" / "verification.json").read_text())
    assert verification["passed"] is True
    assert (tmp_path / "out" / "circuit.txt").read_text().count("\n") >= len(seq.gates)


def test_qsd_scenario_deterministic_outputs(tmp_path):
    cfg_obj = {
        "scenario": "qsd", "n_qubits": 2, "target": "bell",
        "t_max": 0.2, "n_traj": 1, "seed": 7,
    }
    path = _write(tmp_path, "cfg.json", cfg_obj)
    run(parse_config(path), output_dir=tmp_path / "a", quiet=True)
    run(parse_config(path), output_dir=tmp_path / "b", quiet=True)
    for name in ("ensemble.json", "summary.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_emit_outputs_dispatch(tmp_path):
    from dissipforge.lindblad import EvolutionRecord

    record = EvolutionRecord(
        times=np.array([0.0, 0.1, 0.2]),
        states=np.tile(np.eye(2, dtype=complex) / 2, (3, 1, 1)),
        trace_errors=np.zeros(3),
        min_eigs=np.full(3, 0.5),
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
    a = (tmp_path / "a" / "ensemble.json").read_bytes()
    b = (tmp_path / "b" / "ensemble.json").read_bytes()
    assert a != b


def test_bundled_configs_complete_quickly(tmp_path):
    configs = sorted(CONFIG_DIR.glob("*.json"))
    assert configs, "bundled example configs are missing"
    for cfg_path in configs:
        start = time.perf_counter()
        code = main([str(cfg_path), "--output", str(tmp_path / cfg_path.stem), "--quiet"])
        elapsed = time.perf_counter() - start
        assert code == EXIT_OK, f"{cfg_path.name} exited with {code}"
        assert elapsed < 60.0, f"{cfg_path.name} took {elapsed:.1f}s"
