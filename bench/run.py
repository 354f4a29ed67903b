"""hanoilang benchmark: times the CLI end to end and its modules per layer.

    python3 bench/run.py --workload solve --seed 1 --seconds 25 --trace 0

Run from a checkout of the repository (it needs src/ and the golden word
in tests/data/). With --trace 0 it times CLI calls from outside, one after
another, and prints the end-to-end metrics. With --trace 1 it prints the
per-layer metrics of a separate in-process traced run. The last line of
stdout is one JSON object; a full run record, with every call and span,
is written to .bench_out/. See bench/README.md for the metrics.
"""

import argparse
import gc
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference
import workloads
from runner import Launcher, child_env
from traced import LAYER_SPANS, LayerRun

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_EVERY = 4  # one setup call before every fourth operation
IMPORT_REPS = 5
TAIL_BEYOND = 10  # samples that must lie above the tail percentile
HARD_STOP_S = 100.0  # no new call starts after this, whatever --seconds says


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class Tally:
    """Every checked CLI call of the run: attempted, failed, and why."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def add(self, op, result):
        self.attempted += 1
        if not result.ok:
            self.fail(op, result.reason)
        return result

    def fail(self, op, reason):
        self.failed += 1
        self.reasons.append(f"{' '.join(op.argv)}: {reason}")


def quantile(values, q):
    """Linear interpolation between closest ranks, q in [0, 1]."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def timed_run(launcher, plan, setup, seconds, tally):
    """Repeat the round while the next one is expected to fit in seconds.
    Returns the calls and the setup calls' wall times, which are spread
    over the run so that their median sees the same machine as the calls."""
    results, setups = [], []
    started = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        for i, op in enumerate(plan):
            if time.perf_counter() - started > HARD_STOP_S:
                return results, setups
            if i % SETUP_EVERY == 0:
                setups.append(tally.add(setup, launcher.run(setup)).wall_s)
            results.append((op, tally.add(op, launcher.run(op))))
        now = time.perf_counter()
        if now - started + (now - round_start) > seconds:
            return results, setups


def end_to_end(results, setup_s, round_size):
    walls = [r.wall_s for _, r in results]
    q = (round_size - TAIL_BEYOND) / round_size
    metrics = {
        "moves_per_s": (sum(op.moves for op, _ in results) / sum(walls), "1/s"),
        "op_p50_s": (statistics.median(walls), "s"),
        "op_tail_s": (quantile(walls, q), "s"),
        "peak_rss_mb": (max(r.peak_rss_kb for _, r in results) / 1024.0, "MB"),
        "setup_s": (setup_s, "s"),
    }
    reported = [r.reported_s for _, r in results if r.reported_s is not None]
    notes = [
        f"ops={len(walls)} round={round_size} wall_sum_s={sum(walls):.4f}",
        f"op_tail_s is p{100 * q:.1f} over {len(walls)} samples "
        f"({sum(w > metrics['op_tail_s'][0] for w in walls)} beyond it)",
    ]
    if reported:
        walls_with_report = [r.wall_s for _, r in results if r.reported_s is not None]
        notes.append(
            f"cli reported elapsed {sum(reported):.4f} s against {sum(walls_with_report):.4f} s "
            f"measured wall over the {len(reported)} calls that report one")
    return metrics, notes


def traced_run(launcher, plan, setup, seconds, tally):
    """Each op: the CLI call from outside, untraced, then the layer spans
    and cli.main in-process. Returns the calls, the setup wall times and
    the traced layers."""
    layers = LayerRun(ROOT)
    results, setups = [], []
    started = time.perf_counter()
    try:
        for op_id, op in enumerate(plan * 2):
            if time.perf_counter() - started > min(seconds, HARD_STOP_S):
                break
            gc.collect()
            if op_id % SETUP_EVERY == 0:
                setups.append(tally.add(setup, launcher.run(setup)).wall_s)
            result = tally.add(op, launcher.run(op))
            code = layers.run(op_id, op)
            if code != op.exit_code and result.ok:
                tally.fail(op, f"in-process exit {code}")
            results.append((op, result))
    finally:
        layers.close()
    return results, setups, layers


def per_layer(results, layers, setup_s, import_s):
    k = len(results)
    sums = layers.totals()
    counts = layers.counts
    layer_sum = sum(sums.get(name, 0.0) for name in LAYER_SPANS)
    main_s = sums.get("cli.main", 0.0) / k
    untraced_s = sum(r.wall_s for _, r in results) / k
    metrics = {f"{name}_s": (sums.get(name, 0.0) / k, "s") for name in LAYER_SPANS}
    metrics.update({
        "hanoi.moves_checked": (counts["moves_checked"] / k, "count"),
        "hanoi.checked_ratio": (_ratio(counts["moves_checked"], counts["moves_supplied"]), "ratio"),
        "grammar.rewrite_steps": (counts["rewrite_steps"] / k, "count"),
        "pda.transitions": (counts["transitions"] / k, "count"),
        "pda.emit_ratio": (_ratio(counts["emitted"], counts["transitions"]), "ratio"),
        "cli.import_s": (import_s, "s"),
        "cli.main_s": (main_s, "s"),
        "cli.self_s": (main_s - layer_sum / k, "s"),
        "cli.reported_elapsed_s": (sum(r.reported_s or 0.0 for _, r in results) / k, "s"),
        "trace.setup_s": (setup_s, "s"),
        "trace.untraced_op_s": (untraced_s, "s"),
        "trace.overhead_s": (untraced_s - setup_s - main_s, "s"),
        "trace.ops": (k, "count"),
    })
    notes = [
        f"traced ops={k}; per-op means: untraced wall {untraced_s:.4f} s = setup {setup_s:.4f}"
        f" + layers {layer_sum / k:.4f} + cli.self {main_s - layer_sum / k:.4f}"
        f" + tracing overhead {untraced_s - setup_s - main_s:.4f}",
    ]
    return metrics, notes


def _ratio(part, whole):
    return part / whole if whole else 0.0


def measure_import():
    code = "import time; t = time.perf_counter(); import hanoilang.cli; print(time.perf_counter() - t)"
    samples = []
    for _ in range(IMPORT_REPS):
        done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=child_env(ROOT),
                              capture_output=True, text=True, check=True)
        samples.append(float(done.stdout))
    return statistics.median(samples)


def git_sha():
    """HEAD of the checkout when it is a git work tree, else 'unknown'."""
    head = ROOT / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
        if text.startswith("ref: "):
            return (ROOT / ".git" / text[5:]).read_text().strip()
        return text
    except OSError:
        return "unknown"


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = [p for p in ("src/hanoilang/cli.py", str(reference.GOLDEN_FILE))
               if not (ROOT / p).is_file()]
    if missing:
        print(f"bench: not a hanoilang checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    launcher = Launcher(ROOT)  # started while this process is still small
    try:
        reference.self_check(ROOT)
        meta = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)), "git_sha": git_sha(),
            "loadavg_start": os.getloadavg(),
        }
        rng = random.Random(args.seed)
        plan = workloads.round_ops(args.workload, rng)  # inputs exist before timing
        tally = Tally()
        setup = workloads.setup_op(args.workload)
        tally.add(setup, launcher.run(setup))  # warm-up: fills bytecode caches
        if args.trace:
            import_s = measure_import()
            results, setups, layers = traced_run(launcher, plan, setup, args.seconds, tally)
            metrics, notes = per_layer(results, layers, statistics.median(setups), import_s)
            spans = layers.tracer.spans
        else:
            results, setups = timed_run(launcher, plan, setup, args.seconds, tally)
            metrics, notes = end_to_end(results, statistics.median(setups), len(plan))
            metrics["ok_ratio"] = ((tally.attempted - tally.failed) / tally.attempted, "ratio")
            spans = []
    finally:
        launcher.close()
    meta["loadavg_end"] = os.getloadavg()
    notes.append(f"attempted={tally.attempted} failed={tally.failed} "
                 f"fail_ratio={tally.failed / tally.attempted}")
    notes += tally.reasons[:20]

    OUT_DIR.mkdir(exist_ok=True)
    record_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record = {
        "meta": meta,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        "calls": [{"argv": op.argv, "wall_s": r.wall_s, "peak_rss_kb": r.peak_rss_kb,
                   "ok": r.ok, "reason": r.reason, "reported_s": r.reported_s}
                  for op, r in results],
        "spans": [dict(zip(("id", "parent", "op", "name", "start", "end"), s)) for s in spans],
    }
    record_path.write_text(json.dumps(record, indent=1))

    print(" ".join(f"{key}={value}" for key, value in meta.items()))
    for note in notes:
        print(note)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"record: {record_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
