"""Schema of tools/bench_layers.py's BENCH_<pr>.json; no timing bound."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "tools" / "bench_layers.py"

_TINY_LAYERS = {
    *(f"{layer}[cluster-{n}]" for n in (2, 3)
      for layer in ("model_build", "hermitian_rhs", "rk4_step", "steady_certificate")),
    "steady_svd[single-2]", "verify_sequence[D=16]", "compile_coupling[16]",
    "compile_coupling[32]", "verify_sequence[L=32]", "matexp[bath_dim=2]",
    "matexp[bath_dim=4]", "trajectory_step[cluster-2]",
}


def test_tiny_run_writes_the_schema(tmp_path):
    out = tmp_path / "BENCH_0.json"
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}  # time this checkout
    subprocess.run([sys.executable, str(SCRIPT), "--pr", "0", "--tiny", "--out", str(out)],
                   cwd=ROOT, env=env, capture_output=True, timeout=300, check=True)
    data = json.loads(out.read_text())
    assert set(data) == {"schema", "pr", "tiny", "repeats", "passes", "budget_s", "revision",
                         "dirty", "package", "python", "numpy", "blas", "blas_threads", "nproc",
                         "max_rss_mb", "max_spread", "layers", "cli"}
    assert (data["schema"], data["pr"], data["tiny"], data["repeats"]) == (3, 0, True, 1)
    passes = data["passes"]
    assert passes == 2
    assert data["package"] == os.path.join("src", "dissipforge")
    assert data["revision"] is None or len(data["revision"]) == 40
    assert data["blas_threads"] == 1 and data["nproc"] >= 1 and data["max_rss_mb"] > 0
    assert set(data["layers"]) == _TINY_LAYERS
    for name, layer in data["layers"].items():
        assert set(layer) == {"cpu_s", "passes_cpu_s", "spread", "runs", "per_call"}, name
        assert math.isfinite(layer["cpu_s"]) and layer["cpu_s"] >= 0, name
        cpu_s = layer["passes_cpu_s"]
        assert len(cpu_s) == passes and layer["cpu_s"] == min(cpu_s), name
        least, second = sorted(cpu_s)[:2]
        assert layer["spread"] == ((second - least) / least if least > 0 else 0.0), name
        assert layer["runs"] == [1] * passes and layer["per_call"] >= 1
    assert data["max_spread"] == max(layer["spread"] for layer in data["layers"].values())
    # one fresh CLI process per shipped config and pass
    assert set(data["cli"]) == {p.stem for p in (ROOT / "configs").glob("*.json")}
    for name, row in data["cli"].items():
        assert set(row) == {"cpu_s", "passes_cpu_s", "spread", "max_rss_mb",
                            "passes_max_rss_mb"}, name
        assert len(row["passes_cpu_s"]) == passes and row["cpu_s"] == min(row["passes_cpu_s"])
        assert row["cpu_s"] > 0, name
        rss = row["passes_max_rss_mb"]
        assert len(rss) == passes and row["max_rss_mb"] == max(rss) > 0, name
