"""Per-layer CPU timings of dissipforge, written to BENCH_<pr>.json.

    python3 tools/bench_layers.py --pr 22            # writes BENCH_22.json at the repo root
    PYTHONPATH=../other/src python3 tools/bench_layers.py --pr 21 --out BENCH_21.json

Each layer is one call timed alone, its inputs built outside the timing; it
records the least CPU time (time.process_time) of up to REPEATS calls, cut
short once a layer has spent BUDGET_S. The whole list runs PASSES times,
each pass in a fresh interpreter (a spawned worker, one at a time), because
a sub-millisecond layer's minimum moves by up to 1.8x between processes.
Each layer keeps every pass's minimum, the least of them, and their spread,
the gap between the two lowest relative to the lowest: how far the least
would move if its pass were dropped, so a difference smaller than the
spread is noise.
Each pass also runs every configs/*.json through the CLI in a fresh process
(python -m dissipforge.cli CONFIG --quiet), one at a time, and records the
CPU seconds and the peak resident set of that process alone, from os.wait4:
start-up and imports included, since every CLI run pays them. Without --tiny
the GENERATED configs, sizes no shipped config reaches, run the same way.
BLAS runs on one thread, set through the environment before numpy is
imported. The package is imported from PYTHONPATH when it holds one, else
from this checkout's src/; the file records its path relative to this
checkout and that checkout's git revision. --tiny shrinks every size and
runs TINY_PASSES passes (a schema check, not a measurement).
"""

import argparse
import json
import math
import multiprocessing
import os
import platform
import resource
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
ROOT = Path(__file__).resolve().parents[1]
sys.path.append(str(ROOT / "src"))  # after PYTHONPATH, which may name another checkout

import numpy as np  # noqa: E402

import dissipforge  # noqa: E402
from dissipforge import (  # noqa: E402
    BathTestSpec,
    GraphSpec,
    LindbladModel,
    PauliString,
    SynthesisSpec,
    TrajectoryConfig,
    cluster_formula,
    compile_coupling,
    ensemble_average,
    graph_state,
    integrate,
    matexp,
    orthonormal_frame,
    steady_states,
    synth_single,
    verify_sequence,
)
from dissipforge.cli import (  # noqa: E402
    VERIFY_THETAS,
    ScenarioConfig,
    _build_model,
    _combined_operator,
)
from dissipforge.lindblad import _hermitian_rhs  # noqa: E402
from dissipforge.states import max_local_overlap  # noqa: E402

SCHEMA = 3
REPEATS = 5
PASSES = 5
BUDGET_S = 2.0  # CPU seconds a layer may spend per pass beyond its first call
TINY_PASSES = 2  # the fewest that give a spread; --tiny checks the schema only
# CLI rows past the shipped configs' sizes, written to a temporary directory
GENERATED = {
    "evolve_cluster7_t5": {"scenario": "evolve", "n_qubits": 7, "target": "cluster-7",
                           "t_max": 5},
    "steady_cluster8": {"scenario": "steady", "n_qubits": 8, "target": "cluster-8"},
    "synth_cluster6": {"scenario": "synth", "n_qubits": 6, "target": "cluster-6"},
    "qsd_cluster4_t5_256": {"scenario": "qsd", "n_qubits": 4, "target": "cluster-4",
                            "t_max": 5, "n_traj": 256},
    "graph_state_path20": {"scenario": "graph-state", "graph": GraphSpec.path(20).to_obj()},
}


def _spec(n):
    target = graph_state(GraphSpec.path(n))
    frame = orthonormal_frame(target)
    return target, SynthesisSpec(dim=target.dim, k=1, coeffs=np.ones((target.dim - 1, 1)),
                                 basis=frame)


def _cluster_model(n):
    """The CLI's cluster-n model, as `cli._build_model` builds it, with its drift built."""
    model, target = _build_model(ScenarioConfig("steady", n_qubits=n, target="cluster"))
    model.drift
    return model, target


def _cluster_layers(n):
    model, target = _cluster_model(n)
    rng = np.random.default_rng(n)
    a = rng.standard_normal((target.dim,) * 2) + 1j * rng.standard_normal((target.dim,) * 2)
    rho = a @ a.conj().T
    rho /= np.trace(rho).real
    assert steady_states(model).route == "certificate"
    return {
        f"model_build[cluster-{n}]": (lambda: _cluster_model(n), 1),
        f"hermitian_rhs[cluster-{n}]": (lambda: _hermitian_rhs(model, rho), 1),
        f"rk4_step[cluster-{n}]":
            (lambda: integrate(model, rho, 0.01, dt=0.01, target=target), 1),
        f"steady_certificate[cluster-{n}]": (lambda: steady_states(model), 1),
    }


def _svd_layer(n):
    _, spec = _spec(n)
    model = LindbladModel(synth_single(spec))
    assert steady_states(model).route == "svd"
    return {f"steady_svd[single-{n}]": (lambda: steady_states(model), 1)}


def _compile_layers(verify_letters, bath_dim, lengths):
    word = PauliString(("XYZ" * verify_letters)[:verify_letters])
    seq = compile_coupling(word, 0.7, GraphSpec.path(word.n))
    bath = BathTestSpec.random(bath_dim, seed=0)
    layers = {f"verify_sequence[D={bath_dim << word.n}]":
              (lambda: verify_sequence(seq, bath, VERIFY_THETAS), 1)}
    for n in lengths:
        w, g = PauliString(("XYZ" * n)[:n]), GraphSpec.path(n)
        layers[f"compile_coupling[{n}]"] = (lambda w=w, g=g: compile_coupling(w, 0.7, g), 1)
    # the certificate's tableau on the longest word, at the smallest bath
    n = lengths[-1]
    long_seq = compile_coupling(PauliString(("XYZ" * n)[:n]), 0.7, GraphSpec.path(n))
    small_bath = BathTestSpec.random(2, seed=0)
    layers[f"verify_sequence[L={n}]"] = \
        (lambda: verify_sequence(long_seq, small_bath, VERIFY_THETAS), 1)
    return layers


def _matexp_layers(bath_dims):
    """One exponential of a failing word's report at the CLI's largest theta, the most
    squarings."""
    layers = {}
    for d in bath_dims:
        A = 1j * VERIFY_THETAS[-1] * BathTestSpec.random(d, seed=0).operator
        layers[f"matexp[bath_dim={d}]"] = (lambda A=A: matexp(A), 1)
    return layers


def _trajectory_layer(n, n_traj):
    """One ensemble_average of the CLI's combined operator, per trajectory step."""
    L, _, target = _combined_operator(ScenarioConfig("qsd", n_qubits=n, target="cluster"))
    psi0 = np.zeros(target.dim, dtype=complex)
    psi0[0] = 1.0
    cfg = TrajectoryConfig(n_traj=n_traj, dt=1e-3, t_max=0.1)
    return {f"trajectory_step[cluster-{n}]":
            (lambda: ensemble_average(L, cfg, psi0), n_traj * cfg.n_steps)}


def _state_layers():
    """The graph state on the 20-vertex path, and the local-equivalence search of the
    5-qubit cluster state against the 5-vertex path over all 8^5 gate choices."""
    path20 = GraphSpec.path(20)
    psi, phi = cluster_formula(5), graph_state(GraphSpec.path(5))
    return {"graph_state[path-20]": (lambda: graph_state(path20), 1),
            "max_local_overlap[5]": (lambda: max_local_overlap(psi, phi), 1)}


def layers(tiny):
    out = {}
    for n in (2, 3) if tiny else (5, 6, 7, 8):
        out.update(_cluster_layers(n))
    out.update(_svd_layer(2 if tiny else 4))
    out.update(_compile_layers(3, 2, (16, 32)) if tiny else _compile_layers(9, 4, (256, 1024)))
    out.update(_matexp_layers((2, 4) if tiny else (4, 16, 128)))
    out.update(_trajectory_layer(2, 8) if tiny else _trajectory_layer(4, 256))
    out.update({} if tiny else _state_layers())
    return out


def cli_run(config, package_parent):
    """(CPU seconds, peak RSS in MB) of one fresh CLI process on config."""
    env = {**os.environ, "PYTHONPATH": str(package_parent)}
    with tempfile.TemporaryDirectory() as out:
        pid = os.posix_spawn(sys.executable, [sys.executable, "-m", "dissipforge.cli",
                                              str(config), "--quiet", "--output", out], env)
        _, status, usage = os.wait4(pid, 0)
    code = os.waitstatus_to_exitcode(status)
    if code:
        raise RuntimeError(f"the CLI exited {code} on {config}")
    return usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024


def least_cpu(op, repeats):
    """(least CPU seconds of one call, calls made)."""
    best, spent, runs = math.inf, 0.0, 0
    while runs < repeats and (runs == 0 or spent < BUDGET_S):
        start = time.process_time()
        op()
        took = time.process_time() - start
        best, spent, runs = min(best, took), spent + took, runs + 1
    return best, runs


def _revision(path):
    def git(*args):
        return subprocess.run(["git", "-C", str(path), *args], capture_output=True,
                              text=True, timeout=30).stdout.strip()
    try:
        rev = git("rev-parse", "HEAD")
        return (rev or None), bool(rev and git("status", "--porcelain", "--untracked-files=no"))
    except (OSError, subprocess.TimeoutExpired):
        return None, False


def _blas():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        return "unknown"


def one_pass(tiny, repeats):
    """(package path, {layer: (least CPU s of one call, calls made, calls per op)})."""
    return dissipforge.__file__, {name: (*least_cpu(op, repeats), per)
                                  for name, (op, per) in layers(tiny).items()}


def _least(cpu_s):
    """The least of the passes' CPU seconds and its spread."""
    least, second = sorted(cpu_s)[:2]
    return {"cpu_s": least, "passes_cpu_s": cpu_s,
            "spread": (second - least) / least if least > 0 else 0.0}


def measure(pr, repeats, tiny):
    package = Path(dissipforge.__file__).resolve().parent
    configs = sorted((ROOT / "configs").glob("*.json"))
    n_passes = TINY_PASSES if tiny else PASSES
    passes, cli_passes = [], []
    with tempfile.TemporaryDirectory() as generated:
        for name, config in ({} if tiny else GENERATED).items():
            configs.append(Path(generated) / f"{name}.json")
            configs[-1].write_text(json.dumps(config), encoding="utf-8")
        for _ in range(n_passes):
            with ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("spawn")) as worker:
                path, timings = worker.submit(one_pass, tiny, repeats).result()
            assert path == dissipforge.__file__, \
                f"the worker timed {path}, not {dissipforge.__file__}"
            passes.append(timings)
            cli_passes.append({c.stem: cli_run(c, package.parent) for c in configs})
    result = {}
    for name, (_, _, per) in passes[0].items():
        result[name] = {**_least([p[name][0] / per for p in passes]),
                        "runs": [p[name][1] for p in passes], "per_call": per}
    cli = {}
    for name in cli_passes[0]:
        rss = [p[name][1] for p in cli_passes]
        cli[name] = {**_least([p[name][0] for p in cli_passes]),
                     "max_rss_mb": max(rss), "passes_max_rss_mb": rss}
    revision, dirty = _revision(package)
    return {
        "schema": SCHEMA, "pr": pr, "tiny": tiny, "repeats": repeats, "passes": n_passes,
        "budget_s": BUDGET_S,
        "revision": revision, "dirty": dirty, "package": os.path.relpath(package, ROOT),
        "python": platform.python_version(), "numpy": np.__version__, "blas": _blas(),
        "blas_threads": 1, "nproc": len(os.sched_getaffinity(0)),
        "max_rss_mb": max(resource.getrusage(who).ru_maxrss
                          for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024,
        "max_spread": max(r["spread"] for r in result.values()),
        "layers": result, "cli": cli,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pr", type=int, required=True,
                        help="number in the output name BENCH_<pr>.json")
    parser.add_argument("--out", help="output path (default: BENCH_<pr>.json at the repo root)")
    parser.add_argument("--tiny", action="store_true",
                        help="tiny sizes, one call per layer, TINY_PASSES passes")
    args = parser.parse_args(argv)
    out = Path(args.out) if args.out else ROOT / f"BENCH_{args.pr}.json"
    result = measure(args.pr, 1 if args.tiny else REPEATS, args.tiny)
    out.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
