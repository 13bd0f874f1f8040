#!/usr/bin/env python3
"""Host-time benchmark of the time-protection workspace.

    python3 perfbench/run.py --workload channels|splash|fleet|all \
        [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout. The script builds the benchmark's worker
(`perfbench/`, which compiles the program's crates from source), then runs
passes of the workload, each in a fresh process, back to back for about
`--seconds` seconds. Every unit's simulated result is checked against the
reference digests in `perfbench/reference.json` and, on the campaign's own
input set, every verdict against `goldens/verdicts.json`.

With `--trace 0` it prints the end-to-end metrics; with `--trace 1` it runs
the layer probes and alternates untraced and traced passes, and prints the
per-layer ledger plus the tracing overhead. The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}.

`--write-reference` regenerates `perfbench/reference.json` (one pass per
workload and input set); only do that when a change is meant to move
simulated results.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
GOLDENS = ROOT / "goldens" / "verdicts.json"
SPANS_DIR = HERE / "out"

WORKLOADS = ["channels", "splash", "fleet"]
# The campaign's VOTE_SEED_BASE: the default seed reproduces the goldens.
DEFAULT_SEED = 0x5EED
# The worker picks input set `seed % INPUT_SETS` (see src/units.rs); the
# default seed's set is the campaign itself.
INPUT_SETS = 8
CAMPAIGN_SET = DEFAULT_SEED % INPUT_SETS
# Passes per run at least, so that medians and set-up times are taken
# over several fresh processes.
MIN_PASSES = 3
# Pooled units needed before the p90 has ten samples beyond it.
MIN_UNITS = 100
# No pass starts after this many seconds, whatever --seconds says.
HARD_STOP_S = 120.0

# (name, unit, meaning) of the end-to-end metrics, per workload.
END_TO_END = [
    ("wall_s", "s", "host seconds of one pass, median over passes"),
    ("cpu_s", "s", "user+sys CPU seconds of one pass process, median"),
    ("setup_s", "s", "host seconds booting simulated systems per pass, median"),
    ("unit_p50_ms", "ms", "host ms of one unit, median per pass, median over passes"),
    ("unit_p90_ms", "ms", "host ms of one unit, p90 pooled over passes"),
    ("peak_rss_mb", "MB", "peak resident set of one pass process, median"),
]

# (name, unit, better, the end-to-end metric and workload it should move).
PER_LAYER = [
    ("sim.access_l1_hit_ns", "ns", "lower", "wall_s on channels and fleet; none on splash"),
    ("sim.sweep_4k_ns", "ns", "lower", "wall_s on channels and fleet; none on splash"),
    ("sim.access_stream_ns", "ns", "lower", "wall_s on splash"),
    ("sim.translate_ns", "ns", "lower", "wall_s on splash"),
] + [
    (f"sim.flush_full_us.{p}", "us", "lower", "wall_s on channels and protected fleet")
    for p in ("haswell", "sabre", "skylake", "hikey")
] + [
    (f"kernel.tick_{k}_us.{p}", "us", "lower", "wall_s on channels and fleet; little on splash")
    for k in ("raw", "protected")
    for p in ("haswell", "sabre", "skylake", "hikey")
] + [
    ("kernel.syscall_signal_ns", "ns", "lower", "wall_s on channels (kernel-image cells)"),
    ("kernel.clone_destroy_us", "us", "lower", "setup_s on fleet"),
    ("boot.cold_ms", "ms", "lower", "setup_s on all three"),
    ("boot.warm_ms", "ms", "lower", "setup_s on all three"),
    ("boot.cold_count", "count", "lower", "setup_s on all three"),
    ("boot.warm_count", "count", "higher", "setup_s on all three"),
    ("boot.warm_ratio", "ratio", "higher", "setup_s on all three"),
    ("exec.resume_suspend_ns.stack", "ns", "lower", "wall_s on fleet"),
    ("exec.resume_suspend_ns.thread", "ns", "lower", "wall_s on fleet"),
    ("engine.preempt_us.2env", "us", "lower", "wall_s on channels"),
    ("engine.preempt_us.104env", "us", "lower", "wall_s on fleet"),
    ("analysis.leakage_test_ms", "ms", "lower", "wall_s on channels; small on fleet; none on splash"),
    ("analysis.leakage_test_count", "count", "lower", "wall_s on channels; small on fleet; none on splash"),
    ("analysis.share", "ratio", "lower", "wall_s on channels; small on fleet; none on splash"),
    ("analysis.mi_1k_us", "us", "lower", "wall_s on channels"),
    ("analysis.kde_256_us", "us", "lower", "wall_s on channels"),
] + [
    (f"attacks.measure_ms.{e}", "ms", "lower", "wall_s and unit_p90_ms on channels")
    for e in ("l1d", "l1i", "tlb", "btb", "bhb", "l2", "kernel-image",
              "flush-latency", "interrupt", "bus", "llc")
] + [
    ("workloads.run_ms", "ms", "lower", "wall_s on splash"),
    ("workloads.host_ns_per_op", "ns", "lower", "wall_s on splash"),
    ("workloads.sim_cycles_per_host_us", "1/us", "higher", "wall_s on splash"),
    ("cloud.run_ms", "ms", "lower", "wall_s on fleet"),
    ("cloud.host_us_per_request", "us", "lower", "wall_s on fleet"),
    ("cloud.sim_ms_per_host_s", "ms/s", "higher", "wall_s on fleet"),
    ("host.calib_ns", "ns", "lower", "nothing; normalises figures across hosts"),
    ("trace.overhead_s", "s", "lower", "nothing; traced minus untraced wall_s"),
]


# ---------------------------------------------------------------- statistics

def median(xs):
    return statistics.median(xs)


def quartiles(xs):
    """(q1, median, q3) as `statistics.quantiles(xs, n=4)` gives them."""
    if len(xs) < 2:
        return (xs[0], xs[0], xs[0])
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return (q1, q2, q3)


def rank(n, p):
    """1-based nearest rank of the whole p-th percentile of n samples."""
    return max(1, -(-p * n // 100))


def percentile(sorted_xs, p):
    """Nearest-rank p-th percentile of an ascending list."""
    return sorted_xs[rank(len(sorted_xs), p) - 1]


def beyond(n, p):
    """Samples ranked above the nearest-rank p-th percentile of n."""
    return n - rank(n, p)


def tail_percentile(n, cap=90):
    """The highest whole percentile up to `cap` with at least ten samples
    beyond it, or None when there is none."""
    for p in range(cap, 0, -1):
        if beyond(n, p) >= 10:
            return p
    return None


# ---------------------------------------------------------------- the worker

def build():
    """Build the worker; return its path, or None when the build fails."""
    env = dict(os.environ)
    target = Path(env.setdefault("CARGO_TARGET_DIR", str(ROOT / ".bench_build")))
    if not target.is_absolute():
        target = ROOT / target
        env["CARGO_TARGET_DIR"] = str(target)
    cmd = ["cargo", "build", "--release", "--offline", "-q",
           "--manifest-path", str(HERE / "Cargo.toml")]
    try:
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, timeout=840)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return None
    if r.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return None
    return target / "release" / "perfbench"


def worker_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("TP_")}
    # The scale the goldens are pinned at, on one host thread.
    env.update(TP_SAMPLES="0.25", TP_THREADS="1")
    return env


def run_worker(args):
    """Run the worker to completion: (record or None, wall s, rusage)."""
    t0 = time.perf_counter()
    p = subprocess.Popen(args, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE)
    out = p.stdout.read()
    p.stdout.close()
    _, status, ru = os.wait4(p.pid, 0)
    wall = time.perf_counter() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    record = None
    if p.returncode == 0:
        try:
            record = json.loads(out.decode().strip().splitlines()[-1])
        except (ValueError, IndexError):
            record = None
    return record, wall, ru


# ---------------------------------------------------------------- checking

def load_goldens():
    text = GOLDENS.read_text()
    # The store appends a checksum trailer line after the JSON document.
    doc, _ = json.JSONDecoder().raw_decode(text)
    return {(v["experiment"], v["platform"], v["channel"], v["mechanism"]): v["verdict"]
            for v in doc["verdicts"]}


def verdict(leaks):
    return "leak" if leaks else "closed"


def golden_mismatches(units, goldens):
    """Names of units whose verdict differs from the pinned one. Cloud
    units are voted per (platform, mechanism) as the campaign votes."""
    bad = set()
    votes = {}
    for u in units:
        key = (u["experiment"], u["platform"], u["channel"], u["mechanism"])
        if u["experiment"] == "cloud":
            votes.setdefault(key, []).append(u)
        elif goldens.get(key) != verdict(u["leaks"]):
            bad.add(u["name"])
    for key, group in votes.items():
        leaks = sum(1 for u in group if u["leaks"]) * 2 > len(group)
        if len(group) != 3 or goldens.get(key) != verdict(leaks):
            bad.update(u["name"] for u in group)
    return bad


def check_pass(record, ref_sets, goldens):
    """(attempted, failed, messages) for one pass record, against the
    reference of its input set and, on the campaign's set, the goldens."""
    if record is None:
        n = len(ref_sets[str(CAMPAIGN_SET)])
        return n, n, ["pass process failed"]
    k = record["seed"] % INPUT_SETS
    expected = ref_sets[str(k)]
    if k != CAMPAIGN_SET:
        goldens = None
    units = record["units"]
    msgs = []
    failed = set()
    if len(units) != len(expected):
        msgs.append(f"{len(units)} units, reference has {len(expected)}")
        failed.update(u["name"] for u in units)
    for u, ref in zip(units, expected):
        if u["error"]:
            failed.add(u["name"])
            msgs.append(f"{u['name']}: {u['error']}")
        elif u["digest"] != ref:
            failed.add(u["name"])
            msgs.append(f"{u['name']}: digest {u['digest']} != reference {ref}")
    if goldens is not None:
        for name in sorted(golden_mismatches(units, goldens)):
            failed.add(name)
            msgs.append(f"{name}: verdict differs from goldens/verdicts.json")
    attempted = max(len(units), len(expected))
    return attempted, len(failed), msgs


# ---------------------------------------------------------------- a run

def run_passes(bin_path, workload, seed, t0, seconds, traced):
    """Passes back to back until `seconds` after `t0`. Pass i runs seed
    `seed + i`, so a run cycles through the input sets and its figures do
    not hang on the cost of one set. Untraced: every pass plain. Traced:
    pairs of an untraced then a traced pass on the same seed. Returns
    (plain, traced) lists of (record, wall, rusage)."""
    plain, with_spans = [], []
    if traced:
        SPANS_DIR.mkdir(exist_ok=True)
    while True:
        pass_seed = str(seed + len(plain))
        plain.append(run_worker([str(bin_path), "pass", workload, pass_seed]))
        if traced:
            spans = SPANS_DIR / f"spans-{workload}-{pass_seed}.json"
            with_spans.append(run_worker([str(bin_path), "pass", workload, pass_seed,
                                          "--spans", str(spans)]))
        if any(r is None for r, _, _ in plain + with_spans):
            return plain, with_spans  # a failed pass fails the run; stop early
        step = median([w for _, w, _ in plain]) + median([w for _, w, _ in with_spans] or [0])
        elapsed = time.perf_counter() - t0
        units = sum(len(r["units"]) for r, _, _ in plain)
        done = traced or (len(plain) >= MIN_PASSES and units >= MIN_UNITS)
        if elapsed + step > HARD_STOP_S or (done and elapsed + step > seconds):
            return plain, with_spans


def end_to_end(passes):
    """The end-to-end metrics of a run, with their spread, as
    {name: (value, detail)}."""
    walls = [w for _, w, _ in passes]
    cpus = [ru.ru_utime + ru.ru_stime for _, _, ru in passes]
    rss = [ru.ru_maxrss / 1024.0 for _, _, ru in passes]
    setup = [r["boot_s"] for r, _, _ in passes if r]
    lat = sorted(u["ms"] for r, _, _ in passes if r for u in r["units"])
    n = len(passes)
    out = {}
    for name, xs in (("wall_s", walls), ("cpu_s", cpus), ("setup_s", setup),
                     ("peak_rss_mb", rss)):
        if not xs:
            xs = [float("nan")]
        q1, q2, q3 = quartiles(xs)
        out[name] = (q2, f"q1 {q1:.4f} q3 {q3:.4f}, {n} passes")
    if not lat:
        lat = [float("nan")]
    # The median of each pass's units, then over passes. Pooled units of
    # `fleet` fall in two equal clusters (raw and protected runs), where a
    # pooled order statistic at 50% jumps between the clusters' extremes.
    medians = [median([u["ms"] for u in r["units"]]) for r, _, _ in passes if r and r["units"]]
    out["unit_p50_ms"] = (median(medians or [float("nan")]),
                          f"median of {len(medians)} pass medians, {len(lat)} units pooled")
    p = tail_percentile(len(lat))
    if p == 90:
        out["unit_p90_ms"] = (percentile(lat, 90), f"{len(lat)} units pooled")
    else:
        # Fewer than ten units beyond p90: unresolved. The largest unit
        # stands in, an upper bound on the true p90.
        note = f"p{p} = {percentile(lat, p):.4f}" if p else "no tail percentile"
        out["unit_p90_ms"] = (lat[-1], f"UNRESOLVED with {len(lat)} units ({note}); max shown")
    return out


def per_layer(probes, traced, plain):
    """Probe values, overridden by the traced passes' ledger medians."""
    ledgers = [r["ledger"] for r, _, _ in traced if r and r.get("ledger")]
    out = dict(probes or {})
    if ledgers:
        for k in ledgers[0]:
            out[k] = median([lg[k] for lg in ledgers])
    if traced and plain:
        out["trace.overhead_s"] = (median([w for _, w, _ in traced])
                                   - median([w for _, w, _ in plain]))
    return out


def run_workload(bin_path, workload, seed, seconds, traced, reference, goldens):
    ref_sets = reference["workloads"][workload]
    gold = goldens if workload in ("channels", "fleet") else None
    t0 = time.perf_counter()
    probes = run_worker([str(bin_path), "probes"])[0] if traced else None
    plain, with_spans = run_passes(bin_path, workload, seed, t0, seconds, traced)
    attempted = failed = 0
    msgs = []
    for rec, _, _ in plain + with_spans:
        a, f, m = check_pass(rec, ref_sets, gold)
        attempted += a
        failed += f
        msgs.extend(m)
    correct = failed == 0 and (not traced or probes is not None)
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "messages": msgs,
        "e2e": end_to_end(plain),
        "layers": per_layer(probes, with_spans, plain) if traced else None,
        "passes": (len(plain), len(with_spans)),
    }


def report(workload, seed, res, traced):
    print(f"== {workload} (seed {seed}, first input set {seed % INPUT_SETS}): "
          f"{res['passes'][0]} untraced passes" +
          (f", {res['passes'][1]} traced" if traced else ""))
    for m in res["messages"][:20]:
        print(f"  FAIL {m}")
    frac = res["failed"] / max(res["attempted"], 1)
    print(f"  {'fail_frac':<34} {frac:>14.6f} {'ratio':<6} "
          f"{res['failed']} of {res['attempted']} units")
    for name, unit, _ in END_TO_END:
        v, detail = res["e2e"][name]
        print(f"  {name:<34} {v:>14.4f} {unit:<6} {detail}")
    if traced:
        layers = res["layers"]
        for name, unit, _, moves in PER_LAYER:
            v = layers.get(name)
            shown = f"{v:>14.4f}" if v is not None else f"{'missing':>14}"
            print(f"  {name:<34} {shown} {unit:<6} -> {moves}")


def write_reference(bin_path):
    goldens = load_goldens()
    ref = {"input_sets": INPUT_SETS, "workloads": {}}
    for w in WORKLOADS:
        ref["workloads"][w] = {}
        for k in range(INPUT_SETS):
            seed = DEFAULT_SEED if k == CAMPAIGN_SET else k
            rec, wall, _ = run_worker([str(bin_path), "pass", w, str(seed)])
            if rec is None or any(u["error"] for u in rec["units"]):
                print(f"perfbench: {w} set {k} failed", file=sys.stderr)
                return 1
            if seed == DEFAULT_SEED and w != "splash" and golden_mismatches(rec["units"], goldens):
                print(f"perfbench: {w} differs from goldens", file=sys.stderr)
                return 1
            ref["workloads"][w][str(k)] = [u["digest"] for u in rec["units"]]
            print(f"{w} set {k}: {len(rec['units'])} units, {wall:.2f} s", file=sys.stderr)
    REFERENCE.write_text(json.dumps(ref, indent=1) + "\n")
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=60.0)
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    ap.add_argument("--write-reference", action="store_true")
    args = ap.parse_args(argv)
    if not 0 <= args.seed < 2**63:
        ap.error("--seed must be in [0, 2^63)")

    bin_path = build()
    if bin_path is None:
        return 1
    if args.write_reference:
        return write_reference(bin_path)
    try:
        reference = json.loads(REFERENCE.read_text())
        goldens = load_goldens()
    except (OSError, ValueError, KeyError) as e:
        print(f"perfbench: cannot read reference or goldens: {e}", file=sys.stderr)
        return 1

    traced = args.trace == 1
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in workloads:
        res = run_workload(bin_path, w, args.seed, args.seconds, traced, reference, goldens)
        report(w, args.seed, res, traced)
        total["correct"] = total["correct"] and res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        prefix = "" if len(workloads) == 1 else f"{w}."
        if traced:
            for name, unit, _, _ in PER_LAYER:
                v = res["layers"].get(name)
                if v is None:
                    total["correct"] = False
                    v = 0.0
                total["metrics"][prefix + name] = {"value": v, "unit": unit}
        else:
            for name, unit, _ in END_TO_END:
                total["metrics"][prefix + name] = {"value": res["e2e"][name][0], "unit": unit}
    for m in total["metrics"].values():
        if not math.isfinite(m["value"]):
            total["correct"] = False
            m["value"] = 0.0
    print(json.dumps(total))
    return 0 if total["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
