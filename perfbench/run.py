"""dissipforge benchmark: time to a checked result, one workload per process.

    python3 perfbench/run.py --workload relax-cluster6 --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from
`src/` and the CLI workload runs `configs/*.json`. Without them the script
exits with code 2 and prints no result.

An untraced run sets up the workload five times, one after another: in four
fresh `--setup-only` processes, then in this process (a traced run only in
this process). Then it runs rounds of checked items in a closed loop with
one client, starting a new round while fewer than `--seconds` seconds have
passed. The last line of standard output is the result: {"correct",
"attempted", "failed", "metrics"}; the line before it records the
environment and the sample counts.

End-to-end metrics (--trace 0):
  solve_rel    median over rounds of (mean CPU seconds per item) divided by
               (mean CPU seconds of the round's reference, run just before
               the round and just after each of its items); CPU seconds
               count this process and the child processes it waited for.
               The reference is ReferenceKernel, and for cli-configs, whose
               work runs in child processes, ProcessStartReference
  setup_s      median of the five set-ups (importing numpy, scipy and
               dissipforge plus building the inputs and references), each
               as CPU seconds scaled to the reference speed:
               REFERENCE_S * set-up CPU / ReferenceKernel CPU timed right
               after it in the same process
  peak_rss_mb  peak resident memory of this process; for cli-configs the
               peak over its child processes
  pass_ratio   1 - fail_ratio, where fail_ratio = failed / attempted items
               (fail_ratio is printed on the environment line)

Time to a solution is reported relative to a fixed reference kernel, in
CPU seconds, because on the 2-vCPU virtual machine this was built on the
host's CPU speed drifts: the same task's CPU time moved by up to 35% over
seconds to minutes, and 10-run spreads of the raw median reached 27%.
Wall time adds the time the host gives the vCPU to other guests on top of
that. Every workload runs on one thread (BLAS and the package's trajectory
pool alike), so CPU time is the time the solution took on the processor,
and the reference, timed next to each item, slows with it. The raw
medians are printed on the environment line as solve_cpu_s and
solve_wall_s, with the reference's reference_cpu_s, and so are the raw
set-up times. A change that adds parallelism has to be judged by
solve_wall_s.

Per-layer metrics (--trace 1) come from spans recorded by tracing.Tracer.
Even rounds are traced, odd rounds are not, and trace.overhead_s is the
traced minus the untraced median CPU seconds per item. Span metrics are
the median wall self time per call, except cli.run_s, which includes its
cli.parse child, and qsd.traj_steps_per_s, which uses the whole
ensemble_average call. A metric of a layer the workload does not run
reads 0. The spans are written to
.perfbench-out/trace-<workload>-<seed>.json.

BLAS runs single-threaded (OPENBLAS_NUM_THREADS=1 and OMP_NUM_THREADS=1,
set before numpy loads): on a 2-vCPU machine, four repeats of the
steady-state task spread by about 15% with OpenBLAS's default two threads
and by 3-5% single-threaded, at the same speed.
DISSIPFORGE_THREADS is removed so the package runs at its defaults.
"""

import os

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS
os.environ.pop("DISSIPFORGE_THREADS", None)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
import uuid  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench-out"
# The workloads BENCHMARK.json lists. compile-words also runs, by hand: the
# package's certificate rejects about a third of its correct sequences
# (ROADMAP item 4), and a listed workload must be one on which no operation
# fails. The compiler layer's per-layer metrics come from cli-configs'
# compile config until the certificate is fixed and compile-words is listed.
LISTED_WORKLOADS = ("relax-cluster6", "steady-cluster5", "qsd-cluster4", "cli-configs")
WORKLOAD_NAMES = LISTED_WORKLOADS + ("compile-words",)
END_TO_END_UNITS = {"solve_rel": "ref", "setup_s": "s", "peak_rss_mb": "MB", "pass_ratio": "ratio"}
SETUP_SAMPLES = 5
REFERENCE_S = 0.035  # about ReferenceKernel's CPU seconds on the 2-vCPU build machine
MIN_ROUNDS = 2  # one traced and one untraced round; cli-configs compares two
SETUP_TIMEOUT_S = 120


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny shrinks every workload for the self-test")
    p.add_argument("--setup-only", action="store_true",
                   help="set up once, print the set-up seconds and exit")
    return p.parse_args(argv)


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def setup_in_child(args) -> tuple:
    """(wall, CPU, reference-kernel CPU) seconds of one set-up in a fresh process."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--size", args.size, "--setup-only"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up process exited {proc.returncode}: {proc.stderr[-500:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    return out["setup_wall_s"], out["setup_cpu_s"], out["reference_cpu_s"]


def blas_info():
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        return "unknown"


def last_level_cache_bytes():
    for level in ("LEVEL4_CACHE_SIZE", "LEVEL3_CACHE_SIZE", "LEVEL2_CACHE_SIZE"):
        try:
            out = subprocess.run(["getconf", level], capture_output=True, text=True,
                                 timeout=10).stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            return None
        if out.isdigit() and int(out) > 0:
            return int(out)
    return None


def environment(args, wl):
    import numpy as np
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_info(),
        "blas_threads": int(BLAS_THREADS),
        "nproc": len(os.sched_getaffinity(0)),
        "llc_bytes": last_level_cache_bytes(),
        "largest_array_bytes_computed": wl.largest_array_bytes(),
    }


def peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli-configs" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss * 1024 / 1e6  # ru_maxrss is KiB on Linux


def cpu_seconds() -> float:
    """CPU seconds used by this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


class ReferenceKernel:
    """A fixed computation that does not touch dissipforge: a Python loop,
    64 small complex matrix products and one 128 x 128 complex product,
    repeated, the mix of interpreter and BLAS work the workloads do."""

    REPS = 15

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.small = rng.standard_normal((64, 16, 16)) + 1j * rng.standard_normal((64, 16, 16))
        self.big = rng.standard_normal((128, 128)) + 1j * rng.standard_normal((128, 128))

    def cpu_seconds(self) -> float:
        start = time.process_time()
        for _ in range(self.REPS):
            total = 0
            for i in range(20000):
                total += i * i
            for m in self.small:
                m @ m
            self.big @ self.big
        return time.process_time() - start


class ProcessStartReference:
    """A fixed computation for cli-configs, whose work is in child processes:
    start an empty Python interpreter. The in-process kernel does not track
    the cost of starting a process on a shared 2-vCPU virtual machine: the
    quartile spread of cli-configs' solve_rel over 5 seeds was 15% with it
    and 6.5% with this one."""

    def cpu_seconds(self) -> float:
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        subprocess.run([sys.executable, "-c", "pass"], check=True, timeout=60)
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        return (after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime)


def run_loop(wl, args, tracer, reference):
    """Closed loop of rounds. Returns (rounds, attempted, failed, wrong).

    Each round is (traced, mean wall seconds per item, mean CPU seconds per
    item, reference CPU seconds: the mean of the reference runs just before
    the round and just after each of its items). Items run one at a time; an
    exception from an item is a failed item, reported on stderr.
    """
    from workloads import Outcome

    ref_samples = [reference.cpu_seconds()]
    rounds = []
    attempted = failed = wrong = 0
    start = time.perf_counter()
    r = 0
    while r < MIN_ROUNDS or time.perf_counter() - start < args.seconds:
        traced = bool(args.trace) and r % 2 == 0
        if traced:
            tracer.enable()
        items = wl.round_items(r)
        seconds = cpu = 0.0
        for i, item in enumerate(items):
            tracer.task = f"{r}.{i}"
            t = time.perf_counter()
            c = cpu_seconds()
            try:
                outcome = wl.run_item(item)
            except Exception:  # the loop must go on; the item counts as failed
                outcome = Outcome("failed", traceback.format_exc())
            seconds += time.perf_counter() - t
            cpu += cpu_seconds() - c
            attempted += 1
            if outcome.status != "ok":
                failed += 1
                wrong += outcome.status == "wrong"
                print(f"perfbench: {outcome.status}: {outcome.note}", file=sys.stderr)
            ref_samples.append(reference.cpu_seconds())
            if traced:
                wl.after_traced_item(item)
        tracer.disable()
        rounds.append((traced, seconds / len(items), cpu / len(items),
                       sum(ref_samples) / len(ref_samples)))
        ref_samples = ref_samples[-1:]
        r += 1
    return rounds, attempted, failed, wrong


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "dissipforge" / "__init__.py").is_file():
        return fail(f"no dissipforge sources under {ROOT / 'src'}")
    if args.workload == "cli-configs" and not any((ROOT / "configs").glob("*.json")):
        return fail(f"no configs under {ROOT / 'configs'}")
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))

    from tracing import Tracer

    run_id = uuid.uuid4().hex
    tracer = Tracer(run_id)
    scratch = OUT_DIR / f"tmp-{run_id}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        return measure(args, tracer, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def measure(args, tracer, scratch) -> int:
    # the traced run reports no setup_s, so it sets up only once
    setups = [] if args.setup_only or args.trace else [
        setup_in_child(args) for _ in range(SETUP_SAMPLES - 1)]
    start, start_cpu = time.perf_counter(), time.process_time()
    tracer.enabled = bool(args.trace)  # set-up spans; patches come with enable()
    from workloads import LAYER_UNITS, WORKLOADS

    wl = WORKLOADS[args.workload](args.seed, args.size, tracer, ROOT, scratch)
    wl.setup()
    wall, cpu = time.perf_counter() - start, time.process_time() - start_cpu
    tracer.enabled = False
    reference = ReferenceKernel()
    setups.append((wall, cpu, reference.cpu_seconds()))
    if args.setup_only:
        print(json.dumps(dict(zip(("setup_wall_s", "setup_cpu_s", "reference_cpu_s"),
                                  setups[0]))))
        return 0

    if args.trace:
        wl.patch_layers()
    round_reference = (ProcessStartReference() if args.workload == "cli-configs"
                       else reference)
    rounds, attempted, failed, wrong = run_loop(wl, args, tracer, round_reference)
    plain = [(wall, cpu, ref) for traced, wall, cpu, ref in rounds if not traced]
    solve_cpu_s = median(cpu for _, cpu, _ in plain)
    info = {
        "env": environment(args, wl),
        "rounds": len(rounds),
        "solve_samples": len(plain),
        "solve_cpu_s": solve_cpu_s,
        "solve_wall_s": median(wall for wall, _, _ in plain),
        "reference_cpu_s": median(ref for _, _, ref in plain),
        "round_cpu_s": [cpu for _, _, cpu, _ in rounds],
        "round_reference_cpu_s": [ref for _, _, _, ref in rounds],
        "setup_wall_s": [w for w, _, _ in setups],
        "setup_cpu_s": [c for _, c, _ in setups],
        "setup_reference_cpu_s": [ref for _, _, ref in setups],
        "fail_ratio": failed / attempted,
    }
    if args.trace:
        tracer.task = "probe"
        tracer.enable()
        wl.probe()
        tracer.disable()
        traced = [(wall, cpu) for t, wall, cpu, _ in rounds if t]
        metrics = {name: 0.0 for name in LAYER_UNITS}
        metrics.update(wl.layer_metrics())
        metrics["trace.overhead_s"] = median(cpu for _, cpu in traced) - solve_cpu_s
        info["traced_samples"] = len(traced)
        info["layer_notes"] = wl.layer_notes
        info["trace_overhead_wall_s"] = median(w for w, _ in traced) - info["solve_wall_s"]
        tracer.write(OUT_DIR / f"trace-{args.workload}-{args.seed}.json",
                     {**info, "metrics": metrics})
        units = LAYER_UNITS
    else:
        metrics = {
            "solve_rel": median(cpu / ref for _, cpu, ref in plain),
            "setup_s": REFERENCE_S * median(cpu / ref for _, cpu, ref in setups),
            "peak_rss_mb": peak_rss_mb(args.workload),
            "pass_ratio": (attempted - failed) / attempted,
        }
        units = END_TO_END_UNITS
    print(json.dumps(info))
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
