"""Batch front end: JSON scenario configs in, CSV/JSON artifacts out.

Scenarios: synth, evolve, steady, qsd, compile, graph-state. Configs are
flat JSON objects; unknown keys are rejected to catch typos. Runs are
deterministic given the seed, and output files never embed wall-clock data.
Every float an artifact holds is the float the run computed, written as its
shortest round-trip repr, so each array reads back bit for bit.

Exit codes: 0 success, 2 config error, 3 numerical-contract failure,
4 I/O error. Exit 2 comes only from parse_config, which makes every check
that needs only the config, the size estimate against MAX_DENSE_BYTES among
them, before anything is built or written. Exit 3 is a ContractError, raised
by the run itself or by the numerical routines it calls.
Every number goes through the library's own checks (algebra._integer, _real,
_positive, lindblad.step_count), so booleans and strings are refused, and a
config error repeats the library's message after the key.
"""

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .algebra import PauliString, _integer, _positive, _real, complex_pairs
from .compiler import BathTestSpec, compile_coupling, verify_sequence
from .dissipators import (
    SynthesisSpec,
    is_dark,
    orthonormal_frame,
    preset_lfor2,
    synth_subspace,
)
from .lindblad import (
    MAX_DENSE_BYTES,
    ContractError,
    EvolutionRecord,
    LindbladModel,
    integrate,
    steady_states,
    step_count,
)
from .qsd import CHUNK_SIZE, TrajectoryConfig, ensemble_average
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
# gates.json and circuit.txt write one n-letter axis per gate, about 3n gates,
# so the artifacts grow as n^2: about 4 MB at 1024 letters and 66 MB at 4096;
# compiling and certifying cost O(n) per gate
MAX_WORD_LETTERS = 1024
# bytes charged per [re, im] pair of the lists synth and graph-state pass to
# json.dumps, the lists and the text together: 185-263 traced for graph-state on
# 16 to 20 qubits and synth cluster-5 and 6 (359 at cluster-4, where the fixed
# cost shows), and 215-252 of RSS growth for graph-state on 18 to 21 qubits and
# synth cluster-6 and 7, so half this would not cover the largest of them
_PAIR_BYTES = 512


class ConfigError(ValueError):
    """Malformed or inconsistent scenario configuration."""


# scenario -> (required keys, optional keys); every scenario also takes
# seed and output_path
_SCENARIOS = {
    "synth": ({"n_qubits", "target"}, {"gamma"}),
    "evolve": ({"n_qubits", "target", "t_max"}, {"gamma", "dt"}),
    "steady": ({"n_qubits", "target"}, {"gamma"}),
    "qsd": ({"n_qubits", "target", "t_max", "n_traj"}, {"gamma", "dt"}),
    "compile": ({"pauli_word", "theta"}, set()),
    "graph-state": ({"graph"}, set()),
}
_DEFAULT_DT = {"evolve": 0.01, "qsd": 1e-3}


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
    seed: int = 0
    output_path: str | None = None


@dataclass
class RunSummary:
    """Headline metrics and artifact paths for one completed run."""

    scenario: str
    wall_time_s: float
    metrics: dict = field(default_factory=dict)
    artifacts: list = field(default_factory=list)


def _parse_target(raw, cfg):
    """The target on cfg.n_qubits qubits: "bell", "plus", "cluster" (the path
    graph state; "cluster-N" is checked against n_qubits and becomes "cluster")
    or a unit amplitude array of 2^n entries."""
    if isinstance(raw, list):
        n = len(raw).bit_length() - 1
        if n < 1 or len(raw) != 1 << n:
            raise ValueError(f"amplitude count {len(raw)} is not 2^n for n >= 1")
    elif isinstance(raw, str):
        name = raw.strip().lower()
        size = name.removeprefix("cluster-")
        # float, not int: int() refuses strings of more than 4300 digits
        if name.startswith("cluster-") and size.isdecimal() and float(size) > 0:
            name, n = "cluster", float(size)
        else:
            n = {"bell": 2, "plus": 1, "cluster": cfg.n_qubits}.get(name)
        if n is None:
            raise ValueError(f"unknown preset {raw!r}")
    else:
        raise ValueError("target must be a preset name or amplitude list")
    if n != cfg.n_qubits:
        raise ValueError(f"target acts on {n:g} qubits but n_qubits = {cfg.n_qubits}")
    return name if isinstance(raw, str) else _amplitudes(raw)


def _amplitudes(raw):
    amps = []
    for i, entry in enumerate(raw):
        pair = entry if isinstance(entry, list) else [entry, 0]
        if len(pair) != 2:
            raise ValueError(f"target[{i}] must be a number or an [re, im] pair")
        amps.append(complex(*(_real(part, f"target[{i}]") for part in pair)))
    amps = np.array(amps, dtype=complex)
    with np.errstate(over="ignore"):  # an inf norm is refused below
        norm = float(np.linalg.norm(amps))
    if abs(norm - 1.0) > 1e-6:
        raise ValueError(f"amplitudes have norm {norm!r}, too far from 1")
    if abs(norm - 1.0) > 1e-12:
        print(f"[dissipforge] warning: renormalizing target (norm {norm!r})", file=sys.stderr)
    return amps / norm


def _jump_count(n):
    """Jumps of the model on n qubits, 2^n - 1 (3 for "bell"); inf above 64."""
    return (1 << n) - 1 if n <= 64 else math.inf


def _parse_gamma(raw, cfg):
    if not isinstance(raw, list):
        return _positive(raw, "gamma")
    if cfg.scenario == "qsd":
        raise ValueError("qsd scenarios take a single gamma rate, not a list")
    need = _jump_count(cfg.n_qubits)
    if len(raw) != need:
        raise ValueError(f"gamma list has {len(raw)} entries, need 2^n_qubits - 1 = {need}")
    return [_positive(g, f"gamma[{i}]") for i, g in enumerate(raw)]


def _parse_pauli_word(raw, cfg):
    letters = str(raw)
    if len(letters) > MAX_WORD_LETTERS:
        raise ValueError(f"word has {len(letters)} letters, above the "
                         f"{MAX_WORD_LETTERS}-letter limit")
    word = PauliString(letters)
    if word.weight == 0:
        raise ValueError("word needs at least one non-identity letter")
    if "I" in letters.strip("I"):  # compile runs on the path graph
        raise ValueError(f"word support {word.support} is not contiguous, "
                         "so it is not connected on the path graph")
    return word.letters


def _parse_t_max(raw, cfg):
    """t_max, which evolve and qsd take, checked as the library's runs check it."""
    t_max = _positive(raw, "t_max")
    step_count(t_max, cfg.dt)
    return t_max


def _parse_output_path(raw, cfg):
    if not isinstance(raw, str) or not raw:
        raise ValueError(f"output_path must be a non-empty string, got {raw!r}")
    return raw


# key -> parser(raw value, config so far), whose ValueError parse_config names
# the key in. It walks this table, not the file, so n_qubits is set before target
# is checked against it, dt before t_max, and the first error reported does not
# depend on the key order in the file.
_FIELDS = {
    "seed": lambda raw, cfg: _integer(raw, "seed", 0),
    "output_path": _parse_output_path,
    "n_qubits": lambda raw, cfg: _integer(raw, "n_qubits", 1),
    "target": _parse_target,
    "gamma": _parse_gamma,
    "dt": lambda raw, cfg: _positive(raw, "dt"),
    "t_max": _parse_t_max,
    "n_traj": lambda raw, cfg: _integer(raw, "n_traj", 1),
    "pauli_word": _parse_pauli_word,
    "theta": lambda raw, cfg: _real(raw, "theta"),
    "graph": lambda raw, cfg: GraphSpec.from_obj(raw),
}


def parse_config(path, seed=None) -> ScenarioConfig:
    """Load and validate a scenario config, filling defaults; a seed given here
    replaces the config's. Every check that needs only the config happens
    here, so no other step raises ConfigError.
    """
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # not UTF-8, not JSON, or an integer beyond int's digit limit
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    if seed is not None:
        data["seed"] = seed
    scenario = data.get("scenario")
    if scenario is None:
        raise ConfigError("missing required key 'scenario'")
    if not isinstance(scenario, str) or scenario not in _SCENARIOS:
        raise ConfigError(
            f"unknown scenario {scenario!r}; expected one of {sorted(_SCENARIOS)}"
        )
    required, optional = _SCENARIOS[scenario]
    unknown = sorted(set(data) - required - optional - {"scenario", "seed", "output_path"})
    if unknown:
        raise ConfigError(f"unknown key '{unknown[0]}' for scenario '{scenario}'")
    missing = sorted(required - set(data))
    if missing:
        raise ConfigError(f"scenario '{scenario}' requires key '{missing[0]}'")

    cfg = ScenarioConfig(scenario=scenario, dt=_DEFAULT_DT.get(scenario))
    for key, parse in _FIELDS.items():
        if key in data:
            try:
                setattr(cfg, key, parse(data[key], cfg))
            except ValueError as exc:
                raise ConfigError(f"key '{key}': {exc}") from None
    log2_bytes = _log2_largest_array(cfg)
    if log2_bytes > math.log2(MAX_DENSE_BYTES):
        gib = 2.0 ** (log2_bytes - 30) if log2_bytes < 1000 else math.inf
        raise ConfigError(
            f"scenario '{scenario}' needs an estimated {gib:.3g} GiB for its largest "
            f"array, above the {MAX_DENSE_BYTES / 2**30:g} GiB limit"
        )
    return cfg


def _log2_largest_array(cfg: ScenarioConfig):
    """log2 of the bytes of the run's largest dense array, from the config alone.

    Every model builds the (d - 1, d, d) complex jump stack, which is all of
    steady's estimate, since the certificate of `steady_states` needs no
    Liouvillian; synth and graph-state: _PAIR_BYTES per [re, im] pair of the
    lists their JSON is written from and of the text json.dumps makes of them,
    the (d - 1) d^2 jump entries of dissipators.json (32 times the stack) and
    the 2^n amplitudes of state.json;
    evolve: the larger of the stack and the (T, d, d) complex record of
    T = t_max/dt + 1 samples; qsd: the largest of the stack, the (chunk, T)
    complex noise block and the ensemble's (T, d, d) arrays, 64 bytes per
    (sample, i, j) entry, over the 34-37 traced for cluster-4 to cluster-6
    (the mean, the standard error and their temporaries; ensemble.json keeps
    only the final sample); compile: none, since nothing it builds grows with
    the config but the word, which parse_config caps at MAX_WORD_LETTERS.
    """
    if cfg.scenario == "compile":
        return -math.inf
    # the target's qubit count was checked against n_qubits at parse time
    n = cfg.graph.n if cfg.scenario == "graph-state" else cfg.n_qubits
    if n > 64:  # far above the limit, and a count this large can overflow a float
        return math.inf
    if cfg.scenario == "graph-state":
        return math.log2(_PAIR_BYTES) + n
    stack = 2 * n + math.log2(_jump_count(n))
    if cfg.scenario == "steady":
        return 4 + stack
    if cfg.scenario == "synth":
        return math.log2(_PAIR_BYTES) + stack
    samples = math.log2(cfg.t_max / cfg.dt + 1)
    if cfg.scenario == "qsd":
        noise = 4 + math.log2(min(cfg.n_traj, CHUNK_SIZE)) + samples
        return max(4 + stack, noise, 6 + 2 * n + samples)
    return 4 + max(stack, 2 * n + samples)


def _build_model(cfg: ScenarioConfig):
    """Dissipators for the configured target: the stock Bell set on two
    qubits, otherwise one operator per complement level of a completed
    frame (which pins the target as the unique steady state)."""
    base = None
    if not isinstance(cfg.target, str):
        target = PureState(cfg.target)
    elif cfg.target == "bell":
        target, base = bell_state(), preset_lfor2()
    elif cfg.target == "plus":
        target = plus_state(1)
    else:  # "cluster": parse_config checked that a "cluster-N" has N = n_qubits
        target = graph_state(GraphSpec.path(cfg.n_qubits))
    if base is None:
        frame = orthonormal_frame(target)
        spec = SynthesisSpec(
            dim=target.dim, k=1, coeffs=np.ones((target.dim - 1, 1)), basis=frame
        )
        base = synth_subspace(spec)
    rates = cfg.gamma if isinstance(cfg.gamma, list) else [cfg.gamma] * len(base)
    return LindbladModel(base._with_rates(rates)), target


def _combined_operator(cfg: ScenarioConfig):
    """Single jump operator for trajectory runs, scaled to unit spectral norm
    (the scale belongs to gamma, and a tame norm keeps the O(dt) bias small)."""
    model, target = _build_model(cfg)
    L = sum(model.dissipators.operators)
    return L / np.linalg.norm(L, 2), float(cfg.gamma), target


def emit_outputs(obj, path) -> Path:
    """Write one artifact deterministically, returning its path.

    Evolution records become CSV (t, fidelity, trace_error, purity, min_eig);
    strings are written verbatim; everything else becomes sorted-key JSON on
    one line. Floats are written exactly, as their shortest round-trip repr.
    """
    path = Path(path)
    if isinstance(obj, EvolutionRecord):
        obj.to_csv(path)
    elif isinstance(obj, str):
        path.write_text(obj, encoding="utf-8")
    else:
        path.write_text(json.dumps(obj, sort_keys=True) + "\n", encoding="utf-8")
    return path


def run(cfg: ScenarioConfig, output_dir=None, quiet: bool = False) -> RunSummary:
    """Dispatch one scenario, writing artifacts and returning headline metrics."""
    start = time.perf_counter()
    out_dir = Path(output_dir or cfg.output_path or ".")
    metrics: dict = {}
    artifacts: list[Path] = []

    def emit(name, obj):
        if not artifacts:  # made on the first write, so a run that fails early leaves nothing
            out_dir.mkdir(parents=True, exist_ok=True)
        artifacts.append(emit_outputs(obj, out_dir / name))

    if cfg.scenario == "graph-state":
        state = graph_state(cfg.graph)
        emit("state.json", {**cfg.graph.to_obj(), "amplitudes": complex_pairs(state.amplitudes)})
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
        emit("steady.json", dict(metrics))

    elif cfg.scenario == "evolve":
        model, target = _build_model(cfg)
        rho0 = DensityMatrix.maximally_mixed(target.n)
        record = integrate(model, rho0, cfg.t_max, dt=cfg.dt, target=target)
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
        result = ensemble_average(L, traj_cfg, psi0)
        rho = result.rho_mean
        record = EvolutionRecord(result.times, rho, np.abs(rho.trace(axis1=1, axis2=2).real - 1),
                                 np.array([fidelity(r, target) for r in rho]))
        emit("ensemble.csv", record)
        emit("ensemble.json", result.to_json_obj())
        metrics["n_traj"] = result.n_traj
        metrics["excluded"] = result.n_excluded
        metrics["final_fidelity"] = float(record.fidelities[-1])

    elif cfg.scenario == "compile":
        word = PauliString(cfg.pauli_word)
        seq = compile_coupling(word, cfg.theta, GraphSpec.path(word.n))
        # a passing word is decided on its tableau; the bath is read only by a
        # failing word's report, so one 4 x 4 bath serves every word
        report = verify_sequence(seq, BathTestSpec.random(4, seed=cfg.seed), VERIFY_THETAS)
        max_dev = report.max_deviation
        emit("gates.json", seq.to_json_obj())
        emit("circuit.txt", seq.render_text())
        emit("verification.json", {
            "passed": report.passed,
            "max_deviation": max_dev,
            "measure": "relative Frobenius deviation ||V - T||_F / ||T||_F",
            "thetas": list(VERIFY_THETAS),
            "deviations": [list(report.deviations)],
        })
        metrics["gate_count"] = len(seq.gates)
        metrics["max_verification_deviation"] = max_dev
        if not report.passed:
            raise ContractError(
                f"compiled sequence failed verification (max relative deviation {max_dev:.3e})"
            )

    else:  # pragma: no cover - parse_config guards this
        raise ValueError(f"unknown scenario {cfg.scenario!r}")

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


def _json_number(text):
    """A command-line value as a config file holds it: the JSON value the text
    spells, or the text itself, so that the key's own check refuses what is not
    a number (null included, which parse_config would read as no value)."""
    try:
        value = json.loads(text)
    except ValueError:
        return text
    return text if value is None else value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="dissipforge",
        description="Run a dissipator-engineering scenario from a JSON config.",
    )
    parser.add_argument("config", help="path to a scenario config (JSON)")
    parser.add_argument("--seed", type=_json_number, default=None,
                        help="override the config seed (a JSON number, checked as the config's)")
    parser.add_argument("--output", default=None, help="override the output directory")
    parser.add_argument("--quiet", action="store_true", help="suppress the summary line")
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse takes the -1e3 of "--seed -1e3" for an option, and "--seed=-1e3" as a value
    for i in reversed(range(len(argv) - 1)):
        if argv[i] == "--seed":
            argv[i:i + 2] = ["--seed=" + argv[i + 1]]
    args = parser.parse_args(argv)

    cfg = None
    try:
        cfg = parse_config(args.config, seed=args.seed)
        run(cfg, output_dir=args.output, quiet=args.quiet)
    except ConfigError as exc:
        print(f"[dissipforge] config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ContractError as exc:
        print(f"[dissipforge] numerical contract failure: {exc}", file=sys.stderr)
        return EXIT_CONTRACT
    except OSError as exc:
        prefix = "cannot read config" if cfg is None else "I/O error"
        print(f"[dissipforge] {prefix}: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
