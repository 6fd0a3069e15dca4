"""Batch front end: JSON scenario configs in, CSV/JSON artifacts out.

Scenarios: synth, evolve, steady, qsd, compile, graph-state. Configs are
flat JSON objects; unknown keys are rejected to catch typos. Runs are
deterministic given the seed, and output files never embed wall-clock data.

Exit codes: 0 success, 2 config error, 3 numerical-contract failure,
4 I/O error.
"""

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .algebra import PauliString
from .compiler import BathTestSpec, compile_coupling, verify_sequence
from .dissipators import (
    DissipatorSet,
    SynthesisSpec,
    is_dark,
    orthonormal_frame,
    preset_lfor2,
    synth_subspace,
)
from .lindblad import (
    EvolutionRecord,
    IntegrationError,
    LindbladModel,
    integrate,
    steady_states,
)
from .qsd import EnsembleError, TrajectoryConfig, ensemble_average
from .states import (
    DensityMatrix,
    GraphSpec,
    PureState,
    bell_state,
    fidelity,
    graph_state,
    plus_state,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CONTRACT = 3
EXIT_IO = 4

VERIFY_THETAS = (0.3, 1.1, 2.7)


class ConfigError(ValueError):
    """Malformed or inconsistent scenario configuration."""


class ContractError(RuntimeError):
    """A numerical contract failed during the run."""


_SCENARIO_KEYS = {
    "synth": {"n_qubits", "target", "gamma"},
    "evolve": {"n_qubits", "target", "gamma", "t_max", "dt"},
    "steady": {"n_qubits", "target", "gamma"},
    "qsd": {"n_qubits", "target", "gamma", "t_max", "dt", "n_traj"},
    "compile": {"pauli_word", "theta", "bath_dim"},
    "graph-state": {"graph", "n_qubits"},
}
_REQUIRED_KEYS = {
    "synth": {"n_qubits", "target"},
    "evolve": {"n_qubits", "target", "t_max"},
    "steady": {"n_qubits", "target"},
    "qsd": {"n_qubits", "target", "t_max", "n_traj"},
    "compile": {"pauli_word", "theta"},
    "graph-state": {"graph"},
}
_COMMON_KEYS = {"scenario", "seed", "output_path"}


@dataclass
class ScenarioConfig:
    """Validated scenario parameters with defaults filled in."""

    scenario: str
    n_qubits: int | None = None
    graph: GraphSpec | None = None
    target: object = None  # preset name or complex amplitude array
    gamma: object = 1.0  # rate or list of rates
    t_max: float | None = None
    dt: float | None = None
    n_traj: int | None = None
    pauli_word: str | None = None
    theta: float | None = None
    bath_dim: int = 4
    seed: int = 0
    output_path: str | None = None


@dataclass
class RunSummary:
    """Headline metrics and artifact paths for one completed run."""

    scenario: str
    wall_time_s: float
    metrics: dict = field(default_factory=dict)
    artifacts: list = field(default_factory=list)


def _number(value, key, integral=False):
    """A finite JSON number (an int when integral); booleans and strings are rejected."""
    ok = isinstance(value, (int, float)) and not isinstance(value, bool)
    if ok and isinstance(value, float):
        ok = math.isfinite(value) and (value.is_integer() or not integral)
    elif ok and not integral:
        ok = abs(value) <= sys.float_info.max
    if not ok:
        kind = "an integer" if integral else "a finite number"
        raise ConfigError(f"key '{key}' must be {kind}, got {value!r}")
    return int(value) if integral else float(value)


def _positive(value, key, integral=False):
    out = _number(value, key, integral)
    if out <= 0:
        raise ConfigError(f"key '{key}' must be positive, got {out}")
    return out


def _seed(value):
    seed = _number(value, "seed", integral=True)
    if seed < 0:
        raise ConfigError(f"key 'seed' must be non-negative, got {seed}")
    return seed


def _parse_target(raw, key="target"):
    if isinstance(raw, str):
        name = raw.strip().lower()
        size = name[len("cluster-"):] if name.startswith("cluster-") else ""
        if name in {"bell", "plus", "cluster"} or (size.isdecimal() and int(size) > 0):
            return name
        raise ConfigError(f"key '{key}': unknown preset {raw!r}")
    if isinstance(raw, list):
        amps = []
        for i, entry in enumerate(raw):
            pair = entry if isinstance(entry, list) else [entry, 0]
            if len(pair) != 2:
                raise ConfigError(f"key '{key}[{i}]': expected number or [re, im] pair")
            amps.append(complex(_number(pair[0], f"{key}[{i}]"), _number(pair[1], f"{key}[{i}]")))
        amps = np.array(amps, dtype=complex)
        norm = np.linalg.norm(amps)
        if abs(norm - 1.0) > 1e-6:
            raise ConfigError(f"key '{key}': amplitudes have norm {norm!r}, too far from 1")
        if abs(norm - 1.0) > 1e-12:
            print(f"[dissipforge] warning: renormalizing target (norm {norm!r})", file=sys.stderr)
        return amps / norm
    raise ConfigError(f"key '{key}' must be a preset name or amplitude list")


def parse_config(path) -> ScenarioConfig:
    """Load and validate a scenario config, filling defaults."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError:
        raise
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    scenario = data.get("scenario")
    if scenario is None:
        raise ConfigError("missing required key 'scenario'")
    if not isinstance(scenario, str) or scenario not in _SCENARIO_KEYS:
        raise ConfigError(
            f"unknown scenario {scenario!r}; expected one of {sorted(_SCENARIO_KEYS)}"
        )
    allowed = _SCENARIO_KEYS[scenario] | _COMMON_KEYS
    unknown = sorted(set(data) - allowed)
    if unknown:
        raise ConfigError(f"unknown key '{unknown[0]}' for scenario '{scenario}'")
    missing = sorted(_REQUIRED_KEYS[scenario] - set(data))
    if missing:
        raise ConfigError(f"scenario '{scenario}' requires key '{missing[0]}'")

    cfg = ScenarioConfig(scenario=scenario)
    if "seed" in data:
        cfg.seed = _seed(data["seed"])
    if "output_path" in data:
        cfg.output_path = str(data["output_path"])
    if "n_qubits" in data:
        cfg.n_qubits = _positive(data["n_qubits"], "n_qubits", integral=True)
    if "gamma" in data:
        raw = data["gamma"]
        if isinstance(raw, list):
            cfg.gamma = [_positive(g, f"gamma[{i}]") for i, g in enumerate(raw)]
        else:
            cfg.gamma = _positive(raw, "gamma")
    if "t_max" in data:
        cfg.t_max = _positive(data["t_max"], "t_max")
    if "dt" in data:
        cfg.dt = _positive(data["dt"], "dt")
    elif scenario == "evolve":
        cfg.dt = 0.01
    elif scenario == "qsd":
        cfg.dt = 1e-3
    if "n_traj" in data:
        cfg.n_traj = _positive(data["n_traj"], "n_traj", integral=True)
    if "target" in data:
        cfg.target = _parse_target(data["target"])
    if "pauli_word" in data:
        try:
            word = PauliString(str(data["pauli_word"]))
        except ValueError as exc:
            raise ConfigError(f"key 'pauli_word': {exc}") from None
        if word.weight == 0:
            raise ConfigError("key 'pauli_word' needs at least one non-identity letter")
        cfg.pauli_word = word.letters
    if "theta" in data:
        cfg.theta = _number(data["theta"], "theta")
    if "bath_dim" in data:
        cfg.bath_dim = _positive(data["bath_dim"], "bath_dim", integral=True)
        if cfg.bath_dim < 2:
            raise ConfigError("key 'bath_dim' must be at least 2")
    if "graph" in data:
        try:
            cfg.graph = GraphSpec.from_obj(data["graph"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"key 'graph': {exc}") from None
    if scenario in {"evolve", "qsd"} and cfg.t_max < cfg.dt:
        raise ConfigError(f"key 't_max' = {cfg.t_max} is below one step dt = {cfg.dt}")
    return cfg


def _target_state(cfg: ScenarioConfig) -> PureState:
    tgt = cfg.target
    if isinstance(tgt, str):
        if tgt == "bell":
            state = bell_state()
        elif tgt == "plus":
            state = plus_state(1)
        else:
            if tgt == "cluster":
                if cfg.n_qubits is None:
                    raise ConfigError("preset 'cluster' needs n_qubits")
                n = cfg.n_qubits
            else:
                n = int(tgt.split("-", 1)[1])
            state = graph_state(GraphSpec.path(n))
    else:
        state = PureState(tgt)
    if cfg.n_qubits is not None and state.n != cfg.n_qubits:
        raise ConfigError(f"target acts on {state.n} qubits but n_qubits = {cfg.n_qubits}")
    return state


def _rates(cfg: ScenarioConfig, count: int) -> list[float]:
    if isinstance(cfg.gamma, list):
        if len(cfg.gamma) != count:
            raise ConfigError(f"gamma list has {len(cfg.gamma)} entries, need {count}")
        return list(cfg.gamma)
    return [float(cfg.gamma)] * count


def _build_model(cfg: ScenarioConfig):
    """Dissipators for the configured target: the stock Bell set on two
    qubits, otherwise one operator per complement level of a completed
    frame (which pins the target as the unique steady state)."""
    target = _target_state(cfg)
    if isinstance(cfg.target, str) and cfg.target == "bell":
        base = preset_lfor2()
    else:
        frame = orthonormal_frame(target)
        spec = SynthesisSpec(
            dim=target.dim, k=1, coeffs=np.ones((target.dim - 1, 1)), basis=frame
        )
        base = synth_subspace(spec)
    rates = _rates(cfg, len(base))
    ds = DissipatorSet(tuple((r, op) for r, (_, op) in zip(rates, base)))
    return LindbladModel(ds), target


def _combined_operator(cfg: ScenarioConfig):
    """Single jump operator for trajectory runs, scaled to unit spectral norm
    (the scale belongs to gamma, and a tame norm keeps the O(dt) bias small)."""
    if isinstance(cfg.gamma, list):
        raise ConfigError("qsd scenarios take a single gamma rate, not a list")
    model, target = _build_model(cfg)
    L = np.zeros((model.dim, model.dim), dtype=complex)
    for _, op in model.dissipators:
        L = L + op
    L = L / np.linalg.norm(L, 2)
    return L, float(cfg.gamma), target


def _r15(x):
    return float(f"{float(x):.15g}")


def _round_floats(obj):
    if isinstance(obj, bool) or obj is None or isinstance(obj, (int, str)):
        return obj
    if isinstance(obj, float):
        return _r15(obj)
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    raise TypeError(f"cannot serialize {type(obj)}")


def _write_json(path: Path, obj) -> None:
    path.write_text(
        json.dumps(_round_floats(obj), indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def emit_outputs(obj, path) -> Path:
    """Write one artifact deterministically, returning its path.

    Evolution records become CSV (t, fidelity, trace_error, purity, min_eig);
    strings are written verbatim; everything else becomes sorted-key JSON.
    Numbers carry 15 significant digits.
    """
    path = Path(path)
    if isinstance(obj, EvolutionRecord):
        obj.to_csv(path)
    elif isinstance(obj, str):
        path.write_text(obj, encoding="utf-8")
    else:
        _write_json(path, obj)
    return path


def run(cfg: ScenarioConfig, output_dir=None, quiet: bool = False) -> RunSummary:
    """Dispatch one scenario, writing artifacts and returning headline metrics."""
    start = time.perf_counter()
    out_dir = Path(output_dir or cfg.output_path or ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    metrics: dict = {}
    artifacts: list[Path] = []

    def emit(name, obj):
        artifacts.append(emit_outputs(obj, out_dir / name))

    if cfg.scenario == "graph-state":
        state = graph_state(cfg.graph)
        if cfg.n_qubits is not None and state.n != cfg.n_qubits:
            raise ConfigError(f"graph has {state.n} vertices but n_qubits = {cfg.n_qubits}")
        emit("state.json", {
            "n": state.n,
            "edges": [list(e) for e in cfg.graph.edges],
            "amplitudes": [[z.real, z.imag] for z in state.amplitudes],
        })
        metrics["n_qubits"] = state.n
        metrics["edge_count"] = len(cfg.graph.edges)

    elif cfg.scenario == "synth":
        model, target = _build_model(cfg)
        result = steady_states(model)
        dark = is_dark(model.dissipators, target)
        emit("dissipators.json", model.dissipators.to_json_obj())
        metrics["null_space_dim"] = result.dimension
        metrics["steady_fidelity"] = fidelity(result.state, target)
        metrics["target_is_dark"] = dark
        if not dark:
            raise ContractError("synthesized operators do not annihilate the target")

    elif cfg.scenario == "steady":
        model, target = _build_model(cfg)
        result = steady_states(model)
        metrics["null_space_dim"] = result.dimension
        metrics["fidelity"] = fidelity(result.state, target)
        emit("steady.json", {
            "null_space_dim": result.dimension,
            "fidelity": metrics["fidelity"],
        })

    elif cfg.scenario == "evolve":
        model, target = _build_model(cfg)
        rho0 = DensityMatrix.maximally_mixed(target.n)
        try:
            record = integrate(model, rho0, cfg.t_max, dt=cfg.dt, target=target)
        except IntegrationError as exc:
            raise ContractError(str(exc)) from None
        emit("evolution.csv", record)
        metrics["final_fidelity"] = float(record.fidelities[-1])
        metrics["max_trace_error"] = float(np.max(record.trace_errors))
        metrics["min_eigenvalue"] = float(np.min(record.min_eigs))

    elif cfg.scenario == "qsd":
        L, gamma, target = _combined_operator(cfg)
        traj_cfg = TrajectoryConfig(
            n_traj=cfg.n_traj, dt=cfg.dt, t_max=cfg.t_max,
            master_seed=cfg.seed, gamma=gamma,
        )
        psi0 = np.zeros(target.dim, dtype=complex)
        psi0[0] = 1.0
        try:
            result = ensemble_average(L, traj_cfg, psi0)
        except EnsembleError as exc:
            raise ContractError(str(exc)) from None
        emit("ensemble.json", result.to_json_obj())
        metrics["n_traj"] = result.n_traj
        metrics["excluded"] = result.n_excluded
        metrics["final_fidelity"] = float(result.record(target).fidelities[-1])

    elif cfg.scenario == "compile":
        word = PauliString(cfg.pauli_word)
        seq = compile_coupling(word, cfg.theta, GraphSpec.path(word.n))
        reports = [
            verify_sequence(seq, BathTestSpec.random(cfg.bath_dim, seed=cfg.seed + shift),
                            VERIFY_THETAS)
            for shift in (0, 1)
        ]
        max_dev = max(r.max_deviation for r in reports)
        emit("gates.json", seq.to_json_obj())
        emit("circuit.txt", seq.render_text())
        emit("verification.json", {
            "passed": all(r.passed for r in reports),
            "max_deviation": max_dev,
            "tolerance": reports[0].tolerance,
            "thetas": list(VERIFY_THETAS),
            "deviations": [list(r.deviations) for r in reports],
        })
        metrics["gate_count"] = len(seq.gates)
        metrics["max_verification_deviation"] = max_dev
        if not all(r.passed for r in reports):
            raise ContractError(
                f"compiled sequence failed verification (max deviation {max_dev:.3e})"
            )

    else:  # pragma: no cover - parse_config guards this
        raise ConfigError(f"unknown scenario {cfg.scenario!r}")

    artifact_names = [p.name for p in artifacts]
    emit("summary.json", {
        "scenario": cfg.scenario,
        "metrics": metrics,
        "artifacts": artifact_names,
    })
    summary = RunSummary(cfg.scenario, time.perf_counter() - start, metrics,
                         [str(p) for p in artifacts])
    if not quiet:
        parts = ", ".join(f"{k}={v}" for k, v in metrics.items())
        print(f"[dissipforge] {cfg.scenario} finished in {summary.wall_time_s:.2f}s: {parts}")
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="dissipforge",
        description="Run a dissipator-engineering scenario from a JSON config.",
    )
    parser.add_argument("config", help="path to a scenario config (JSON)")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--output", default=None, help="override the output directory")
    parser.add_argument("--quiet", action="store_true", help="suppress the summary line")
    args = parser.parse_args(argv)

    try:
        cfg = parse_config(args.config)
        if args.seed is not None:
            cfg.seed = _seed(args.seed)
    except ConfigError as exc:
        print(f"[dissipforge] config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"[dissipforge] cannot read config: {exc}", file=sys.stderr)
        return EXIT_IO
    try:
        run(cfg, output_dir=args.output, quiet=args.quiet)
    except ConfigError as exc:
        print(f"[dissipforge] config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ContractError as exc:
        print(f"[dissipforge] numerical contract failure: {exc}", file=sys.stderr)
        return EXIT_CONTRACT
    except OSError as exc:
        print(f"[dissipforge] I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
