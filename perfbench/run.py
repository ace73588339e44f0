"""rsd-market benchmark: one workload, closed loop, one client.

Run from the repository root:

    python3 perfbench/run.py --workload housing-large --seed 1 --seconds 15 --trace 0

With ``--trace 0`` the ops run untraced for ``--seconds`` of op time and the
end-to-end metrics are reported. With ``--trace 1`` a fixed number of ops
(set by ``--seconds``, so per-layer counts repeat exactly for a seed) each run
once untraced and once traced, and the per-layer metrics are reported; the
spans are written to ``perfbench/out/``. Every op's output is checked outside
the timed interval. The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 3  # this process plus two fresh ones: set-up is reported as their median
WORKLOAD_NAMES = ("housing-large", "housing-ladder", "ce-dense", "two-agent")


def seed_arg(text: str) -> int:
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError("seed must be nonnegative")
    return seed


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=seed_arg, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true", help="small inputs, for the benchmark's own test")
    ap.add_argument("--setup-only", action="store_true", help="set up, print setup_s and exit")
    return ap.parse_args(argv)


def import_program() -> None:
    """Import rsd_market from this checkout's sources, never from elsewhere."""
    if not (SRC / "rsd_market" / "__init__.py").is_file():
        sys.exit(f"perfbench: no rsd_market sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import rsd_market

    if Path(rsd_market.__file__).resolve().parent != SRC / "rsd_market":
        sys.exit(f"perfbench: imported rsd_market from {rsd_market.__file__}, not {SRC}")


def machine_facts() -> dict:
    import numpy
    import scipy

    facts = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": platform.machine(),
        "caches": {},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                facts["cpu_model"] = line.split(":", 1)[1].strip()
                break
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            facts["caches"][f"L{level}-{kind}"] = (index / "size").read_text().strip()
    except OSError:
        pass
    return facts


def attempt(fn, *args):
    """(result, problems): a raised exception is a failed op, never a crash."""
    try:
        return fn(*args), []
    except Exception:
        return None, [traceback.format_exc()]


def passes(wl, i: int, inp, out, problems: list[str]) -> bool:
    """Check an op's output unless it already failed; report any failure."""
    if not problems:
        checked, problems = attempt(wl.check, inp, out)
        problems = problems or checked
    if problems:
        print(f"op {i} failed:\n" + "\n".join(problems), file=sys.stderr)
    return not problems


def digest_of(wl, inp, out) -> str:
    h = hashlib.sha256()
    wl.digest(h, inp, out)
    return h.hexdigest()


def child_setup_s(args: argparse.Namespace) -> float:
    """Set-up time of a fresh process: import, input generation, warm-up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0", "--setup-only"]
    if args.tiny:
        cmd.append("--tiny")
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])


def report(metrics: dict[str, tuple[float, str, int]]) -> dict:
    """Print one line per metric with its unit and sample count; return the JSON form."""
    for name, (value, unit, samples) in metrics.items():
        print(f"metric {name} = {value!r} {unit} (samples={samples})")
    return {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()}


def run_untraced(args, wl, first_input, setup_s: float) -> tuple[dict, int, int, bool]:
    latencies: list[float] = []
    failed = 0
    timed = 0.0
    h = hashlib.sha256()
    i, inp = 0, first_input
    while True:
        t = time.perf_counter()
        out, problems = attempt(wl.run, inp)
        dt = time.perf_counter() - t
        timed += dt
        if passes(wl, i, inp, out, problems):
            latencies.append(dt)
            if i < wl.digest_ops:
                wl.digest(h, inp, out)
        else:
            failed += 1
        i += 1
        if timed >= args.seconds and i >= wl.digest_ops and i % wl.mix == 0:
            break
        inp = wl.make_input(i)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"digest {wl.name} seed={args.seed} ops=0..{wl.digest_ops - 1} sha256={h.hexdigest()}")

    setups = [setup_s] + [child_setup_s(args) for _ in range(SETUP_SAMPLES - 1)]
    metrics = report({
        "ops_per_s": (len(latencies) / timed, "1/s", i),
        "op_p50_s": (statistics.median(latencies) if latencies else float("nan"), "s", len(latencies)),
        "peak_rss_mb": (peak_rss_mb, "MB", 1),
        "setup_s": (statistics.median(setups), "s", len(setups)),
    })
    print(f"metric failed_ops_frac = {failed / i!r} ratio (samples={i})")
    return metrics, i, failed, failed == 0


def run_traced(args, wl, first_input) -> tuple[dict, int, int, bool]:
    from spans import Tracer, descendants_named, layer_metrics, op_counts

    tracer = Tracer()
    n_ops = wl.traced_ops(args.seconds)
    untraced: list[tuple[int, float, float]] = []
    failed = 0
    trades = 0
    h = hashlib.sha256()
    op0_digest = None
    for i in range(n_ops):
        inp = first_input if i == 0 else wl.make_input(i)
        outs = {}
        # Alternate which run goes first, so neither always runs warm.
        for traced in (False, True) if i % 2 == 0 else (True, False):
            if traced:
                with tracer.op(i, wl.family(i)):
                    outs[True], problems_t = attempt(wl.run, inp)
            else:
                t = time.perf_counter()
                outs[False], problems_u = attempt(wl.run, inp)
                untraced.append((i, t - tracer.t0, time.perf_counter() - tracer.t0))
        problems = problems_t + problems_u
        if not problems and digest_of(wl, inp, outs[True]) != digest_of(wl, inp, outs[False]):
            problems = ["tracing changed the op's output"]
        if not passes(wl, i, inp, outs[True], problems):
            failed += 1
            continue
        if i < wl.digest_ops:
            wl.digest(h, inp, outs[True])
        if i == 0:
            op0_digest = digest_of(wl, inp, outs[True])
        trades += sum(r.trade_count for r in wl.reports(outs[True]))
    print(f"digest {wl.name} seed={args.seed} ops=0..{wl.digest_ops - 1} sha256={h.hexdigest()}")

    trace_problems = []
    # Op 0 once more under a fresh tracer: counts and output must repeat exactly.
    again = Tracer()
    with again.op(0, wl.family(0)):
        out0, problems = attempt(wl.run_repeat, first_input)
    if problems or digest_of(wl, first_input, out0) != op0_digest:
        trace_problems.append("op 0 run again does not reproduce its output")
    if op_counts(again.spans)[0] != op_counts([s for s in tracer.spans if s.op == 0])[0]:
        trace_problems.append("op 0 run again does not reproduce its per-layer counts")

    layer = layer_metrics(tracer, untraced)
    rows = descendants_named(tracer.spans, "housing.run_housing_sim", "market.row")
    if rows and any(r != 4 * wl.config.n_agents for r in rows):
        trace_problems.append(f"replications built {rows} rows, not 4*n each")
    if layer["mechanisms.trades"][0] != trades:
        trace_problems.append(f"traced trades {layer['mechanisms.trades'][0]} != trade_count sum {trades}")
    for problem in trace_problems:
        print(f"trace check failed: {problem}", file=sys.stderr)

    tracer.write(HERE / "out" / f"spans-{wl.name}-seed{args.seed}.jsonl", untraced)
    metrics = report({name: (value, unit, n_ops) for name, (value, unit) in layer.items()})
    print(f"metric failed_ops_frac = {failed / n_ops!r} ratio (samples={n_ops})")
    return metrics, n_ops, failed, failed == 0 and not trace_problems


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.seed, args.tiny)
    wl.warm_up()
    first_input = wl.make_input(0)
    setup_s = time.perf_counter() - PROCESS_START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    print("machine " + json.dumps(machine_facts(), sort_keys=True))
    if args.trace:
        metrics, attempted, failed, correct = run_traced(args, wl, first_input)
    else:
        metrics, attempted, failed, correct = run_untraced(args, wl, first_input, setup_s)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
