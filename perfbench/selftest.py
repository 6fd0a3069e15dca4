"""Self-test of the benchmark; run from a source checkout:

    python3 perfbench/selftest.py

It checks that
  * BENCHMARK.json names the workloads and metrics that run.py emits;
  * every workload runs at its tiny size, untraced and traced, and prints a
    result line with every named metric and its unit;
  * a deliberately wrong reference turns a task into a failure, for every
    workload;
  * without the package sources, run.py exits non-zero and prints no result.
Exits 1 if any check fails.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}

os.environ["OPENBLAS_NUM_THREADS"] = "1"
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from dissipforge.compiler import GateSequence  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

failures = []


def check(ok, what):
    print(("PASS " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def run_cli(workload, trace, cwd=ROOT, script=HERE / "run.py"):
    cmd = [sys.executable, str(script), "--workload", workload, "--seed", "11",
           "--seconds", "0.5", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def check_manifest():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check([w["name"] for w in spec["workloads"]] == list(run.LISTED_WORKLOADS),
          "BENCHMARK.json workloads match run.py")
    check({m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS,
          "BENCHMARK.json end_to_end metrics match run.py")
    check({m["name"]: m["unit"] for m in spec["per_layer"]} == workloads.LAYER_UNITS,
          "BENCHMARK.json per_layer metrics match workloads.py")


def check_runs():
    for name in run.WORKLOAD_NAMES:
        for trace, units in ((0, run.END_TO_END_UNITS), (1, workloads.LAYER_UNITS)):
            proc = run_cli(name, trace)
            what = f"{name} --trace {trace} runs at tiny size"
            if proc.returncode != 0:
                check(False, f"{what} (exit {proc.returncode}: {proc.stderr[-300:]})")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            metrics = result["metrics"]
            ok = (set(result) == RESULT_KEYS and result["attempted"] >= 1
                  and {k: v["unit"] for k, v in metrics.items()} == units
                  and all(isinstance(v["value"], float) for v in metrics.values()))
            check(ok, f"{what} and emits every metric with its unit")
            if trace == 0:
                check(metrics["solve_rel"]["value"] > 0 and metrics["setup_s"]["value"] > 0,
                      f"{name} times are positive")


def tiny(cls, scratch):
    wl = cls(5, "tiny", Tracer("selftest"), ROOT, scratch)
    wl.setup()
    return wl


def check_wrong_references(scratch):
    wl = tiny(workloads.RelaxCluster6, scratch)
    check(wl.run_item(0).status == "ok", "relax: correct reference passes")
    wl.reference = wl.reference * (1 + 1e-6)
    check(wl.run_item(0).status == "wrong", "relax: perturbed closed-form fidelity fails")

    wl = tiny(workloads.SteadyCluster5, scratch)
    check(wl.run_item(0).status == "ok", "steady: correct target passes")
    wl.target = workloads.graph_state(workloads.GraphSpec(wl.n, ()))
    check(wl.run_item(0).status == "wrong", "steady: wrong target fails")

    wl = tiny(workloads.QsdCluster4, scratch)
    check(wl.run_item(0).status == "ok", "qsd: integrate reference passes")
    wl.reference = wl.reference + 0.05
    check(wl.run_item(0).status == "wrong", "qsd: shifted reference fails")

    wl = tiny(workloads.CompileWords, scratch)
    word, theta, _, bath_seed = wl.round_items(0)[0]
    check(wl.run_item((word, theta, 4, bath_seed)).status == "ok", "compile: bath_dim 4 passes")
    real = workloads.compile_coupling
    other = "".join("X" if c != "X" else "Z" for c in word)
    workloads.compile_coupling = lambda W, th, g: GateSequence(
        real(workloads.PauliString(other), th, g).gates, W, th)
    try:
        check(wl.run_item((word, theta, 4, bath_seed)).status == "failed",
              "compile: sequence for the wrong word is rejected")
    finally:
        workloads.compile_coupling = real
    check(wl.run_item((word, theta, 16, bath_seed)).status == "failed",
          "compile: bath_dim 16 certificate failure counts as failed")

    wl = tiny(workloads.CliConfigs, scratch)
    path = next(iter(wl.configs))
    check(wl.run_item(path).status == "ok", "cli: first run passes")
    check(wl.run_item(path).status == "ok", "cli: second run writes the same summary.json")
    wl.first_summary[path] = wl.first_summary[path] + b" "
    check(wl.run_item(path).status == "wrong", "cli: differing summary.json fails")


def check_without_sources():
    with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(HERE, Path(tmp) / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_cli("relax-cluster6", 0, cwd=tmp, script=Path(tmp) / HERE.name / "run.py")
        check(proc.returncode != 0 and not proc.stdout.strip(),
              "without src/ the benchmark exits non-zero and prints no result")


def main():
    run.OUT_DIR.mkdir(parents=True, exist_ok=True)
    check_manifest()
    with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as scratch:
        check_wrong_references(Path(scratch))
    check_without_sources()
    check_runs()
    print(f"{len(failures)} failed" if failures else "all passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
