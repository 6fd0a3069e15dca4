"""Per-layer CPU timings of dissipforge, written to BENCH_<pr>.json.

    python3 tools/bench_layers.py --pr 22            # writes BENCH_22.json at the repo root
    PYTHONPATH=../other/src python3 tools/bench_layers.py --pr 21 --out BENCH_21.json

Each layer is one call timed alone, its inputs built outside the timing; it
records the least CPU time (time.process_time) of up to REPEATS calls, cut
short once a layer has spent BUDGET_S. The whole list runs twice, once in
this process and once in a fresh interpreter (a spawned worker), and each
layer keeps both passes' minima and their relative spread, so a difference
smaller than the spread is noise, including the noise between processes.
BLAS runs on one thread, set through the environment before numpy is
imported. The package is imported from PYTHONPATH when it holds one, else
from this checkout's src/; the file records its path relative to this
checkout and that checkout's git revision. --tiny shrinks every size (a
schema check, not a measurement).
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
    compile_coupling,
    ensemble_average,
    graph_state,
    integrate,
    orthonormal_frame,
    steady_states,
    synth_single,
    synth_subspace,
    verify_sequence,
)
from dissipforge.lindblad import _hermitian_rhs  # noqa: E402

SCHEMA = 1
REPEATS = 5
BUDGET_S = 2.0  # CPU seconds a layer may spend per pass beyond its first call
VERIFY_THETAS = (0.3, 1.1, 2.7)  # the CLI's


def _spec(n):
    target = graph_state(GraphSpec.path(n))
    frame = orthonormal_frame(target)
    return target, SynthesisSpec(dim=target.dim, k=1, coeffs=np.ones((target.dim - 1, 1)),
                                 basis=frame)


def _cluster_model(n):
    """The CLI's cluster-n model, factored, with its drift built."""
    target, spec = _spec(n)
    model = LindbladModel(synth_subspace(spec))
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


def _trajectory_layer(n, n_traj):
    """One ensemble_average of the CLI's combined operator, per trajectory step."""
    model, target = _cluster_model(n)
    L = sum(op for _, op in model.dissipators)
    L = L / np.linalg.norm(L, 2)
    psi0 = np.zeros(target.dim, dtype=complex)
    psi0[0] = 1.0
    cfg = TrajectoryConfig(n_traj=n_traj, dt=1e-3, t_max=0.1)
    return {f"trajectory_step[cluster-{n}]":
            (lambda: ensemble_average(L, cfg, psi0), n_traj * cfg.n_steps)}


def layers(tiny):
    out = {}
    for n in (2, 3) if tiny else (5, 6, 7, 8):
        out.update(_cluster_layers(n))
    out.update(_svd_layer(2 if tiny else 4))
    out.update(_compile_layers(3, 2, (16, 32)) if tiny else _compile_layers(9, 4, (256, 1024)))
    out.update(_trajectory_layer(2, 8) if tiny else _trajectory_layer(4, 256))
    return out


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


def measure(pr, repeats, tiny):
    path, first = one_pass(tiny, repeats)
    with ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("spawn")) as worker:
        worker_path, second = worker.submit(one_pass, tiny, repeats).result()
    assert worker_path == path, f"the worker timed {worker_path}, not {path}"
    result = {}
    for name, (a, runs_a, per) in first.items():
        b, runs_b, _ = second[name]
        result[name] = {"cpu_s": min(a, b) / per, "passes_cpu_s": [a / per, b / per],
                        "spread": abs(a - b) / min(a, b) if min(a, b) > 0 else 0.0,
                        "runs": [runs_a, runs_b], "per_call": per}
    package = Path(dissipforge.__file__).resolve().parent
    revision, dirty = _revision(package)
    return {
        "schema": SCHEMA, "pr": pr, "tiny": tiny, "repeats": repeats, "budget_s": BUDGET_S,
        "revision": revision, "dirty": dirty, "package": os.path.relpath(package, ROOT),
        "python": platform.python_version(), "numpy": np.__version__, "blas": _blas(),
        "blas_threads": 1, "nproc": len(os.sched_getaffinity(0)),
        "max_rss_mb": max(resource.getrusage(who).ru_maxrss
                          for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024,
        "max_spread": max(r["spread"] for r in result.values()),
        "layers": result,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pr", type=int, required=True,
                        help="number in the output name BENCH_<pr>.json")
    parser.add_argument("--out", help="output path (default: BENCH_<pr>.json at the repo root)")
    parser.add_argument("--tiny", action="store_true", help="tiny sizes, one call per layer")
    args = parser.parse_args(argv)
    out = Path(args.out) if args.out else ROOT / f"BENCH_{args.pr}.json"
    result = measure(args.pr, 1 if args.tiny else REPEATS, args.tiny)
    out.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
