"""The benchmark's workloads: inputs from the seed, one checked item per task.

Every workload is a closed loop with one client: `run.py` asks a workload
for the items of round r and runs them one after another. A round is one
pass over the workload's fixed item list: a single item for relax, steady
and qsd, one word per (length, bath dimension) class for compile-words,
one process per shipped config for cli-configs. Items of one round can
differ in cost, so `run.py` times rounds, not single items.

An item returns an Outcome:
  ok      the program succeeded and its result passed the benchmark's check;
  failed  the program reported a failure itself (an exception, a non-zero
          exit, a certificate that rejects);
  wrong   the program reported success but its result failed the check.
Both failed and wrong items count as failed tasks; only a wrong item makes
the run incorrect.

Importing this module imports numpy and dissipforge, so `run.py` imports
it inside the timed set-up.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from statistics import median

import numpy as np

import dissipforge
import dissipforge.cli
import dissipforge.compiler
import dissipforge.lindblad
import dissipforge.qsd
from dissipforge import (
    BathTestSpec,
    DensityMatrix,
    DissipatorSet,
    GraphSpec,
    LindbladModel,
    PauliString,
    SynthesisSpec,
    TrajectoryConfig,
    compile_coupling,
    ensemble_average,
    fidelity,
    graph_state,
    integrate,
    is_dark,
    orthonormal_frame,
    rhs,
    steady_states,
    synth_subspace,
    verify_sequence,
)
from dissipforge.cli import VERIFY_THETAS, parse_config
from dissipforge.cli import run as cli_run
from dissipforge.lindblad import default_step

COMPLEX_BYTES = 16
MB = 1e6

# per_layer metric name -> unit; the set BENCHMARK.json lists.
LAYER_UNITS = {
    "states.graph_state_ms": "ms",
    "dissipators.synth_ms": "ms",
    "lindblad.rhs_ms": "ms",
    "lindblad.step_ms": "ms",
    "lindblad.integrate_s": "s",
    "lindblad.steps": "count",
    "lindblad.rhs_evals": "count",
    "lindblad.record_mb": "MB",
    "lindblad.liouvillian_s": "s",
    "algebra.null_space_s": "s",
    "lindblad.steady_s": "s",
    "lindblad.liouvillian_mb": "MB",
    "qsd.sample_noise_ms": "ms",
    "qsd.ensemble_s": "s",
    "qsd.traj_steps_per_s": "1/s",
    "qsd.excluded": "count",
    "compiler.compile_ms": "ms",
    "compiler.verify_s": "s",
    "compiler.verify_s_tail": "s",
    "algebra.matexp_ms": "ms",
    "compiler.expm_calls": "count",
    "compiler.verify_failed": "count",
    "cli.parse_ms": "ms",
    "cli.run_s": "s",
    "cli.startup_s": "s",
    "trace.overhead_s": "s",
}


@dataclass
class Outcome:
    status: str  # "ok", "failed" or "wrong"
    note: str = ""


OK = Outcome("ok")


def _median_self(tracer, name, scale=1.0):
    times = tracer.self_times(name)
    return median(times) * scale if times else 0.0


def tail_percentile(values):
    """(percentile, value): the highest percentile with >= 10 samples above it.

    With fewer than 11 samples no percentile qualifies and the maximum is
    returned as the 100th percentile.
    """
    xs = sorted(values)
    n = len(xs)
    if n <= 10:
        return 100.0, xs[-1]
    k = n - 11  # index with exactly 10 samples beyond it
    return 100.0 * (k + 1) / n, xs[k]


def _path_model(n, order, tracer):
    """The CLI's model for a path-graph target: one rank-one jump per level
    outside the target, all rates 1; `order` labels the path's vertices."""
    with tracer.span("states.graph_state"):
        target = graph_state(GraphSpec(n, tuple(zip(order, order[1:]))))
    with tracer.span("dissipators.synth"):
        frame = orthonormal_frame(target)
        spec = SynthesisSpec(
            dim=target.dim, k=1, coeffs=np.ones((target.dim - 1, 1)), basis=frame
        )
        dissipators = synth_subspace(spec)
    return LindbladModel(dissipators), target


def _setup_layer_metrics(tracer):
    return {
        "states.graph_state_ms": _median_self(tracer, "states.graph_state", 1e3),
        "dissipators.synth_ms": _median_self(tracer, "dissipators.synth", 1e3),
    }


def _verify_attrs(report, seq, bath, thetas):
    return {"expm": len(seq.conjugations) + 2 * len(thetas), "passed": bool(report.passed)}


def _patch_matexp(tracer):
    tracer.patch(dissipforge.compiler, "matexp", "algebra.matexp",
                 attrs_of=lambda result, A: {"size": int(np.shape(A)[0])})


def _compiler_layer_metrics(tracer, notes):
    """compiler.* and algebra.matexp_ms from the compiler.compile,
    compiler.verify and algebra.matexp spans."""
    verify_spans = tracer.named("compiler.verify")
    verify = tracer.self_times("compiler.verify")
    matexp = tracer.named("algebra.matexp")
    largest = max((s.attrs["size"] for s in matexp), default=0)
    big = [t for s, t in zip(matexp, tracer.self_times("algebra.matexp"))
           if s.attrs["size"] == largest]
    expm_calls = [s.attrs["expm"] for s in verify_spans]
    if verify:
        percentile, tail = tail_percentile(verify)
        notes["compiler.verify_s_tail_percentile"] = percentile
        notes["compiler.verify_samples"] = len(verify)
    notes["algebra.matexp_largest_operand"] = largest
    return {
        "compiler.compile_ms": _median_self(tracer, "compiler.compile", 1e3),
        "compiler.verify_s": median(verify) if verify else 0.0,
        "compiler.verify_s_tail": tail if verify else 0.0,
        "algebra.matexp_ms": 1e3 * median(big) if big else 0.0,
        "compiler.expm_calls": float(np.mean(expm_calls)) if expm_calls else 0.0,
        "compiler.verify_failed": sum(not s.attrs["passed"] for s in verify_spans),
    }


class Workload:
    name = ""

    def __init__(self, seed: int, size: str, tracer, root: Path, scratch: Path):
        self.seed = seed % 2**64  # SeedSequence takes non-negative entropy only
        self.size = size
        self.tracer = tracer
        self.root = root
        self.scratch = scratch
        self.rng = np.random.default_rng(np.random.SeedSequence(self.seed))
        self.layer_notes = {}  # context for the per-layer metrics, printed with them

    def setup(self) -> None:
        """Build inputs and references; timed as set-up."""

    def patch_layers(self) -> None:
        """Register the package functions to wrap in spans while tracing."""

    def round_items(self, r: int) -> list:
        return [r]

    def run_item(self, item) -> Outcome:
        raise NotImplementedError

    def after_traced_item(self, item) -> None:
        """Extra traced work kept outside the timed item."""

    def probe(self) -> None:
        """Traced single-call measurements made after the loop."""

    def layer_metrics(self) -> dict:
        return {}

    def largest_array_bytes(self) -> int:
        raise NotImplementedError


class RelaxCluster6(Workload):
    """integrate from the maximally mixed state at the default dt.

    Every level outside the target decays into it at rate 1, so the target
    fidelity is 1 - (1 - 1/d) e^{-t} exactly; RK4 at dt = 0.01 meets that to
    about 1e-11.
    """

    name = "relax-cluster6"
    TOL = 1e-9

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.n = 6 if self.size == "full" else 3
        self.t_max = 0.1

    def setup(self):
        order = [int(v) for v in self.rng.permutation(self.n) + 1]
        self.model, self.target = _path_model(self.n, order, self.tracer)
        self.rho0 = DensityMatrix.maximally_mixed(self.n)
        self.dt = default_step(self.model)
        self.steps = int(math.ceil(self.t_max / self.dt - 1e-12))
        times = np.arange(self.steps + 1) * self.dt
        self.reference = 1.0 - (1.0 - 1.0 / self.target.dim) * np.exp(-times)

    def run_item(self, item):
        with self.tracer.span("lindblad.integrate"):
            record = integrate(self.model, self.rho0, self.t_max, target=self.target)
        self.tracer.count("lindblad.steps", len(record.times) - 1)
        if record.fidelities.shape != self.reference.shape:
            return Outcome("wrong", f"{record.fidelities.size} samples, expected "
                                    f"{self.reference.size}")
        err = float(np.max(np.abs(record.fidelities - self.reference)))
        if not err <= self.TOL:
            return Outcome("wrong", f"fidelity off the closed form by {err:.3e}")
        return OK

    def probe(self):
        for _ in range(5):
            with self.tracer.span("lindblad.rhs"):
                rhs(self.model, self.rho0)

    def layer_metrics(self):
        d = self.target.dim
        integrate_s = _median_self(self.tracer, "lindblad.integrate")
        calls = self.tracer.counts["lindblad.integrate"]
        steps = self.tracer.counts["lindblad.steps"] / calls if calls else 0.0
        return {
            **_setup_layer_metrics(self.tracer),
            "lindblad.rhs_ms": _median_self(self.tracer, "lindblad.rhs", 1e3),
            "lindblad.integrate_s": integrate_s,
            "lindblad.step_ms": 1e3 * integrate_s / steps if steps else 0.0,
            "lindblad.steps": steps,
            "lindblad.rhs_evals": 4 * steps,
            "lindblad.record_mb": (steps + 1) * d * d * COMPLEX_BYTES / MB,
        }

    def largest_array_bytes(self):
        # the batched jump stacks (m, d, d) or the stored states (T, d, d)
        d = self.target.dim
        return max(len(self.model.dissipators), self.steps + 1) * d * d * COMPLEX_BYTES


class SteadyCluster5(Workload):
    """is_dark plus steady_states: Liouvillian assembly and its null space."""

    name = "steady-cluster5"
    TOL = 1e-9

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.n = 5 if self.size == "full" else 3

    def setup(self):
        order = [int(v) for v in self.rng.permutation(self.n) + 1]
        self.model, self.target = _path_model(self.n, order, self.tracer)

    def patch_layers(self):
        self.tracer.patch(dissipforge.lindblad, "liouvillian_matrix", "lindblad.liouvillian")
        self.tracer.patch(dissipforge.lindblad, "null_space", "algebra.null_space")

    def run_item(self, item):
        with self.tracer.span("dissipators.is_dark"):
            dark = is_dark(self.model.dissipators, self.target)
        with self.tracer.span("lindblad.steady"):
            result = steady_states(self.model)
        if not dark:
            return Outcome("wrong", "target is not dark")
        if result.dimension != 1:
            return Outcome("wrong", f"null-space dimension {result.dimension}")
        infidelity = 1.0 - fidelity(result.state, self.target)
        if not infidelity <= self.TOL:
            return Outcome("wrong", f"steady infidelity {infidelity:.3e}")
        return OK

    def layer_metrics(self):
        d = self.target.dim
        return {
            **_setup_layer_metrics(self.tracer),
            "lindblad.liouvillian_s": _median_self(self.tracer, "lindblad.liouvillian"),
            "algebra.null_space_s": _median_self(self.tracer, "algebra.null_space"),
            "lindblad.steady_s": _median_self(self.tracer, "lindblad.steady"),
            "lindblad.liouvillian_mb": d**4 * COMPLEX_BYTES / MB,
        }

    def largest_array_bytes(self):
        return self.target.dim**4 * COMPLEX_BYTES


class QsdCluster4(Workload):
    """The CLI's combined operator for a path-graph target, from |0...0>.

    The check is acceptance criterion 11's: every element of the ensemble
    mean at t_max/4, t_max/2 and t_max lies within 5 standard errors plus
    5 dt of the master-equation reference, allowing 1% of elements outside,
    and at most 1% of trajectories are excluded (ensemble_average raises
    beyond that).
    """

    name = "qsd-cluster4"
    DT = 1e-3
    BIAS_PER_DT = 5.0
    MIN_AGREEMENT = 0.99

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        full = self.size == "full"
        self.n = 4 if full else 2
        self.n_traj = 1024 if full else 64
        self.t_max = 2.0 if full else 0.2

    def setup(self):
        model, self.target = _path_model(self.n, list(range(1, self.n + 1)), self.tracer)
        L = sum(op for _, op in model.dissipators)
        self.L = L / np.linalg.norm(L, 2)
        d = self.target.dim
        self.psi0 = np.zeros(d, dtype=complex)
        self.psi0[0] = 1.0
        one_operator = LindbladModel(DissipatorSet(((1.0, self.L),)))
        with self.tracer.span("lindblad.integrate"):
            record = integrate(one_operator, np.outer(self.psi0, self.psi0.conj()),
                               self.t_max, dt=self.DT)
        self.sample_idx = [int(round(f * self.t_max / self.DT)) for f in (0.25, 0.5, 1.0)]
        self.reference = record.states[self.sample_idx]
        self.n_steps = TrajectoryConfig(self.n_traj, self.DT, self.t_max).n_steps

    def patch_layers(self):
        self.tracer.patch(dissipforge.qsd, "sample_noise", "qsd.sample_noise")

    def run_item(self, r):
        master_seed = int(np.random.SeedSequence(self.seed, spawn_key=(r,)).generate_state(1)[0])
        cfg = TrajectoryConfig(n_traj=self.n_traj, dt=self.DT, t_max=self.t_max,
                               master_seed=master_seed, gamma=1.0)
        with self.tracer.span("qsd.ensemble"):
            result = ensemble_average(self.L, cfg, self.psi0)
        self.tracer.count("qsd.excluded", result.n_excluded)
        diff = np.abs(result.rho_mean[self.sample_idx] - self.reference)
        allow = 5.0 * result.rho_se[self.sample_idx] + self.BIAS_PER_DT * self.DT
        agreement = float(np.mean(diff <= allow))
        if not agreement >= self.MIN_AGREEMENT:
            return Outcome("wrong", f"only {agreement:.4f} of elements agree with integrate")
        return OK

    def layer_metrics(self):
        ensembles = self.tracer.named("qsd.ensemble")
        whole = median(s.duration for s in ensembles) if ensembles else math.inf
        return {
            **_setup_layer_metrics(self.tracer),
            "lindblad.integrate_s": _median_self(self.tracer, "lindblad.integrate"),
            "qsd.sample_noise_ms": _median_self(self.tracer, "qsd.sample_noise", 1e3),
            "qsd.ensemble_s": _median_self(self.tracer, "qsd.ensemble"),
            "qsd.traj_steps_per_s": self.n_traj * self.n_steps / whole,
            "qsd.excluded": self.tracer.counts["qsd.excluded"],
        }

    def largest_array_bytes(self):
        d = self.target.dim
        chunk = min(256, self.n_traj)  # ensemble_average's default chunk size
        return max((self.n_steps + 1) * d * d, chunk * self.n_steps) * COMPLEX_BYTES


class CompileWords(Workload):
    """compile_coupling plus verify_sequence against two random baths.

    Runs by hand only (see run.LISTED_WORKLOADS): at this version of the
    package the certificate rejects about a third of the correct sequences,
    and those rejections count as failed items here.

    One round is one word per (length, bath dimension) class. Classes whose
    dense operand 2^n * bath_dim exceeds MAX_OPERAND are left out, which
    leaves lengths 3-5: a word at operand 256 takes about 1 s (n = 6, d = 4)
    and at n = 6, d = 16 about 50 s, and the certificate rejects words at
    random (d = 8 and some d = 4 baths, as well as every d = 16), so the
    pass ratio is steady only over a few hundred words per run.
    """

    name = "compile-words"
    MAX_OPERAND = 128

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        if self.size == "full":
            self.classes = [(n, d) for n in range(3, 6) for d in (4, 8, 16)
                            if (1 << n) * d <= self.MAX_OPERAND]
        else:
            self.classes = [(3, 4), (3, 16)]

    def patch_layers(self):
        _patch_matexp(self.tracer)

    def round_items(self, r):
        rng = np.random.default_rng(np.random.SeedSequence(self.seed, spawn_key=(r,)))
        items = []
        for n, d in self.classes:
            word = "".join(rng.choice(list("XYZ"), size=n))
            theta = float(rng.uniform(0.1, math.pi))
            bath_seed = int(rng.integers(2**31))
            items.append((word, theta, d, bath_seed))
        return items

    def run_item(self, item):
        word, theta, d, bath_seed = item
        W = PauliString(word)
        with self.tracer.span("compiler.compile"):
            seq = compile_coupling(W, theta, GraphSpec.path(W.n))
        passed = True
        for shift in (0, 1):  # the CLI's two baths
            bath = BathTestSpec.random(d, seed=bath_seed + shift)
            with self.tracer.span("compiler.verify") as attrs:
                report = verify_sequence(seq, bath, VERIFY_THETAS)
                attrs.update(_verify_attrs(report, seq, bath, VERIFY_THETAS))
            passed = passed and report.passed
        if not passed:
            return Outcome("failed", f"{word} at bath_dim {d} rejected")
        return OK

    def layer_metrics(self):
        return _compiler_layer_metrics(self.tracer, self.layer_notes)

    def largest_array_bytes(self):
        size = max((1 << n) * d for n, d in self.classes)
        return size * size * COMPLEX_BYTES


class CliConfigs(Workload):
    """Every shipped configs/*.json as a fresh `python -m dissipforge.cli`.

    Each item checks the exit code and the summary metrics, and compares
    summary.json byte for byte with the first round's, since the same config
    and seed must write the same summary.
    """

    name = "cli-configs"
    TIMEOUT_S = 150
    TINY = ("graph_state_path4.json", "steady_bell.json")

    def setup(self):
        paths = sorted((self.root / "configs").glob("*.json"))
        if self.size != "full":
            paths = [p for p in paths if p.name in self.TINY]
        if not paths:
            raise FileNotFoundError(f"no configs under {self.root / 'configs'}")
        self.configs = {p: json.loads(p.read_text(encoding="utf-8")) for p in paths}
        self.cli_seed = int(np.random.SeedSequence(self.seed).generate_state(1)[0] >> 1)
        self.first_summary = {}
        self.startup = []
        self.env = dict(os.environ, PYTHONPATH=str(self.root / "src"))

    def round_items(self, r):
        return list(self.configs)

    def run_item(self, path):
        out = Path(tempfile.mkdtemp(prefix="cli-", dir=self.scratch))
        try:
            cmd = [sys.executable, "-m", "dissipforge.cli", str(path), "--output", str(out),
                   "--quiet", "--seed", str(self.cli_seed)]
            with self.tracer.span("cli.process", config=path.name):
                proc = subprocess.run(cmd, env=self.env, capture_output=True, text=True,
                                      timeout=self.TIMEOUT_S)
            if proc.returncode != 0:
                return Outcome("failed", f"{path.name} exited {proc.returncode}: "
                                         f"{proc.stderr.strip()[-200:]}")
            raw = (out / "summary.json").read_bytes()
            note = self._check(path, json.loads(raw), out)
            if note:
                return Outcome("wrong", f"{path.name}: {note}")
            first = self.first_summary.setdefault(path, raw)
            if raw != first:
                return Outcome("wrong", f"{path.name}: summary.json differs between runs")
            return OK
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def _check(self, path, summary, out):
        """Empty string when the summary metrics meet the scenario's check."""
        cfg = self.configs[path]
        m = summary.get("metrics", {})
        scenario = cfg["scenario"]
        if summary.get("scenario") != scenario:
            return f"summary scenario {summary.get('scenario')!r}"
        if scenario == "evolve":
            # every shipped target relaxes at least as fast as e^{-t}
            tail = math.exp(-float(cfg["t_max"]))
            if not m.get("final_fidelity", 0.0) >= 1.0 - max(tail, 1e-9):
                return f"final_fidelity {m.get('final_fidelity')}"
        elif scenario in ("steady", "synth"):
            if m.get("null_space_dim") != 1:
                return f"null_space_dim {m.get('null_space_dim')}"
        elif scenario == "compile":
            verification = json.loads((out / "verification.json").read_text(encoding="utf-8"))
            if verification.get("passed") is not True:
                return "verification did not pass"
        elif scenario == "qsd":
            if m.get("excluded") != 0:
                return f"{m.get('excluded')} trajectories excluded"
        elif scenario == "graph-state":
            if m.get("n_qubits") != cfg["graph"]["n"]:
                return f"n_qubits {m.get('n_qubits')}"
        return ""

    def patch_layers(self):
        # the compiler layer's spans come from the in-process run of the
        # compile config
        self.tracer.patch(dissipforge.cli, "compile_coupling", "compiler.compile")
        self.tracer.patch(dissipforge.cli, "verify_sequence", "compiler.verify",
                          attrs_of=_verify_attrs)
        _patch_matexp(self.tracer)

    def after_traced_item(self, path):
        out = Path(tempfile.mkdtemp(prefix="cli-inproc-", dir=self.scratch))
        try:
            with self.tracer.span("cli.run"):
                with self.tracer.span("cli.parse"):
                    cfg = parse_config(path)
                cfg.seed = self.cli_seed
                cli_run(cfg, output_dir=out, quiet=True)
        except (dissipforge.cli.ConfigError, dissipforge.cli.ContractError, OSError):
            return  # the process run of the same config already counted the failure
        finally:
            shutil.rmtree(out, ignore_errors=True)
        runs = self.tracer.named("cli.run")
        procs = self.tracer.named("cli.process")
        if runs and procs:
            self.startup.append(procs[-1].duration - runs[-1].duration)

    def layer_metrics(self):
        runs = self.tracer.named("cli.run")
        return {
            **_compiler_layer_metrics(self.tracer, self.layer_notes),
            "cli.parse_ms": _median_self(self.tracer, "cli.parse", 1e3),
            "cli.run_s": median(s.duration for s in runs) if runs else 0.0,
            "cli.startup_s": median(self.startup) if self.startup else 0.0,
        }

    def largest_array_bytes(self):
        sizes = []
        for cfg in self.configs.values():
            scenario = cfg["scenario"]
            n = cfg.get("n_qubits") or cfg.get("graph", {}).get("n") or len(
                cfg.get("pauli_word", "X"))
            d = 1 << int(n)
            if scenario in ("evolve", "qsd"):
                default_dt = 0.01 if scenario == "evolve" else 1e-3
                samples = int(round(float(cfg["t_max"]) / float(cfg.get("dt", default_dt)))) + 1
                sizes.append(samples * d * d)
            elif scenario in ("steady", "synth"):
                sizes.append(d**4)
            elif scenario == "compile":
                sizes.append((d * int(cfg.get("bath_dim", 4))) ** 2)
            else:
                sizes.append(d)
        return max(sizes) * COMPLEX_BYTES


WORKLOADS = {w.name: w for w in (RelaxCluster6, SteadyCluster5, QsdCluster4, CompileWords,
                                  CliConfigs)}
