#!/usr/bin/env python3
"""Whole-flow benchmark of pvtol.

Run from the root of a checkout:

    python3 perfbench/run.py --workload flow-wafer --seed 1 --seconds 15 --trace 0

It builds perfbench/pvbench.exe with dune, runs repetitions of the
workload (each in a fresh process, beside a probe of the host's speed
that scales its CPU times) for --seconds, checks every report,
prints a table and, as its last line, one JSON object:
{"correct", "attempted", "failed", "metrics"}.  With --trace 1 it then
makes one traced repetition and reports the per-layer metrics instead of
the end-to-end ones, writing the spans to perfbench/out/.  See
perfbench/README.md.
"""

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXE = ROOT / "_build" / "default" / "perfbench" / "pvbench.exe"
PINS = HERE / "pins.json"
OUT = HERE / "out"

# Dies each fixed-budget workload must report (yield-ci stops on its CI).
# These are also the workloads whose seed-1 reports are pinned: yield-ci
# is held to the brute-force reference instead, so a variance-reduction
# change that alters its sample path still passes when it is accurate.
FIXED_DIES = {"flow-wafer": 32, "ssta-scenarios": 1600, "compare-quick": 768}
WORKLOADS = ["flow-wafer", "ssta-scenarios", "compare-quick", "yield-ci"]
PINNED_SEED = 1
CHILD_TIMEOUT_S = 170.0
# No repetition starts after this much of the run has gone, so a run
# ends well inside the 180 s a run may take.
LAST_START_S = 100.0
# A probe round's CPU time on the 2-vCPU VM the benchmark was written
# on, when it was idle.  A repetition's set-up and run CPU times are each
# scaled by PROBE_REF_S over the median probe round that ended while they
# ran, so the metrics read as CPU seconds at that host's speed.
PROBE_REF_S = 0.02
PROBE_INTERVAL_S = 0.2

E2E = [("run_cpu_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
       ("dies_per_cpu_s", "dies/s"), ("dies_to_ci", "count")]
LAYERS = [
    ("vex.design_s", "s"), ("place.initial_s", "s"), ("timing.sizing_s", "s"),
    ("timing.sizing_alloc_mw", "Mwords"), ("timing.sizing_rounds", "count"),
    ("timing.sta_build_s", "s"), ("core.stage_memo_hits", "count"),
    ("power.activity_s", "s"), ("power.activity_alloc_mw", "Mwords"),
    ("power.power_s", "s"), ("core.islands_s", "s"), ("core.shifters_s", "s"),
    ("core.shifters_alloc_mw", "Mwords"), ("ssta.mc_s", "s"),
    ("ssta.mc_samples_per_s", "1/s"), ("core.sweep_s", "s"),
    ("core.sweep_dies_per_s", "dies/s"), ("timing.sta_analyze_calls", "count"),
    ("timing.sta_full_fallback_ratio", "ratio"), ("ssta.is_ess_ratio", "ratio"),
    ("util.pool_chunks", "count"),
    ("util.cpu_s", "s"), ("unattributed_s", "s"), ("trace_overhead_s", "s"),
]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Build the benchmark program; False if the checkout cannot."""
    # No shared dune cache: it lives outside the checkout.
    try:
        r = subprocess.run(["dune", "build", "--root", ".", "--cache=disabled",
                            "./perfbench/pvbench.exe"],
                           cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    except FileNotFoundError:
        log("perfbench: dune not found")
        return False
    return r.returncode == 0 and EXE.is_file()


def child_env():
    env = dict(os.environ)
    for var in ("PVTOL_METRICS", "PVTOL_MC_ENGINE", "PVTOL_SLOW_TESTS", "OCAMLRUNPARAM"):
        env.pop(var, None)
    # One domain: with two, an OCaml 5 stop-the-world minor collection
    # spins one domain while the host has the other descheduled, and
    # that spin is counted as CPU time.
    env["PVTOL_DOMAINS"] = "1"
    return env


def pin():
    """Pin the calling process to the highest CPU it may use."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def run_child(args, timeout):
    """One repetition in a fresh process: its JSON result, or None.

    The probe runs beside it on the same CPU; the result gets the
    probe's rounds, (end time, CPU time) pairs, as "probe"."""
    probe = subprocess.Popen([str(EXE), "--probe", str(PROBE_INTERVAL_S)],
                             cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL, text=True, preexec_fn=pin)
    try:
        p = subprocess.run([str(EXE)] + args, cwd=ROOT, env=child_env(),
                           capture_output=True, text=True, timeout=timeout,
                           preexec_fn=pin)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {' '.join(args)} timed out after {timeout:.0f} s")
        return None
    finally:
        probe.terminate()
        rounds = probe.communicate()[0].split()
    if p.returncode != 0:
        log(f"perfbench: {' '.join(args)} exited {p.returncode}:\n{p.stderr[-2000:]}")
        return None
    if not rounds:
        log(f"perfbench: {' '.join(args)} ended before a probe round")
        return None
    try:
        rep = json.loads(p.stdout)
    except ValueError:
        log(f"perfbench: {' '.join(args)} printed no JSON result")
        return None
    rep["probe"] = [(float(t), float(c)) for t, c in zip(rounds[::2], rounds[1::2])]
    return rep


def probe_scale(rep, window):
    """PROBE_REF_S over the median probe round that ended inside window;
    over every round when fewer than three did."""
    inside = [c for t, c in rep["probe"] if window[0] <= t <= window[1]]
    if len(inside) < 3:
        inside = [c for _, c in rep["probe"]]
    return PROBE_REF_S / statistics.median(inside)


def digests(rep):
    return {r["name"]: r["md5"] for r in rep["reports"]}


def check(workload, seed, rep, first, pins):
    """Correctness problems of one repetition (empty when correct)."""
    problems = []
    if workload in FIXED_DIES and rep["dies"] != FIXED_DIES[workload]:
        problems.append(f"simulated {rep['dies']} dies, expected {FIXED_DIES[workload]}")
    if seed == PINNED_SEED and workload in FIXED_DIES \
            and digests(rep) != pins["digests"][workload]:
        problems.append(f"reports {digests(rep)} differ from the pinned {pins['digests'][workload]}")
    if first is not None and digests(rep) != digests(first):
        problems.append("reports differ from the first repetition's")
    ref = pins["yield_ci_reference"]
    for est in rep["estimates"]:
        tol = 3.0 * math.hypot(est["rare_hw"], ref["rare_hw"])
        if not est["converged"]:
            problems.append("the stopping rule did not reach its CI target")
        if abs(est["rare"] - ref["rare"]) > tol:
            problems.append(f"rare estimate {est['rare']:.5f} is more than {tol:.5f} "
                            f"from the brute-force reference {ref['rare']:.5f}")
    return problems


def measure(workload, seed, seconds, trace, pins):
    """Run one workload; returns (attempted, failed, metrics, table)."""
    base = ["--workload", workload, "--seed", str(seed)]
    reps, attempted, failed = [], 0, 0
    t0 = time.monotonic()

    def attempt(extra):
        nonlocal attempted, failed
        attempted += 1
        left = CHILD_TIMEOUT_S - (time.monotonic() - t0)
        rep = run_child(base + extra, max(1.0, left))
        problems = (["the repetition failed"] if rep is None
                    else check(workload, seed, rep, reps[0] if reps else None, pins))
        for p in problems:
            log(f"perfbench: {workload} seed {seed}: {p}")
        failed += bool(problems)
        if rep is not None:
            rep["scale"] = probe_scale(rep, rep["run_window"])
            rep["setup_scale"] = probe_scale(rep, rep["setup_window"])
            rep["cpu_s"] *= rep["scale"]
            rep["setup_s"] = [s * rep["setup_scale"] for s in rep["setup_s"]]
        return rep

    while True:
        rep = attempt([])
        if rep is not None:
            reps.append(rep)
        elapsed = time.monotonic() - t0
        if elapsed + elapsed / attempted > seconds or elapsed > LAST_START_S:
            break
    if not reps:
        return attempted, failed, None, []
    cpu_s = statistics.median(r["cpu_s"] for r in reps)
    if not trace:
        metrics = {
            "run_cpu_s": cpu_s,
            "setup_s": statistics.median(s for r in reps for s in r["setup_s"]),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
            "dies_per_cpu_s": statistics.median(r["dies"] / r["cpu_s"] for r in reps),
            "dies_to_ci": float(statistics.median(r["dies"] for r in reps)),
        }
        units = dict(E2E)
        table = [f"{workload}: seed {seed}, {len(reps)} repetitions, scaled CPU s / wall s: "
                 + " ".join(f"{r['cpu_s']:.3f}/{r['run_s']:.3f}" for r in reps),
                 "  run scale / set-up scale: "
                 + " ".join(f"{r['scale']:.4f}/{r['setup_scale']:.4f}" for r in reps)]
        table += [f"  {k:<14} {v:>14.6g} {units[k]}" for k, v in metrics.items()]
        table.append(f"  {'failed_frac':<14} {failed / attempted:>14.6g} failed/attempted")
        return attempted, failed, metrics, table
    traced = attempt(["--trace"])
    if traced is None:
        return attempted, failed, None, []
    metrics = dict(traced["layers"])
    metrics["trace_overhead_s"] = traced["cpu_s"] - cpu_s
    OUT.mkdir(exist_ok=True)
    out = OUT / f"trace-{workload}-s{seed}.json"
    out.write_text(json.dumps({"workload": workload, "seed": seed,
                               "untraced_run_s": [r["run_s"] for r in reps],
                               "untraced_cpu_s": [r["cpu_s"] for r in reps],
                               "traced_run_s": traced["run_s"],
                               "traced_cpu_s": traced["cpu_s"],
                               "spans": traced["spans"], "layers": metrics}, indent=1))
    table = [f"{workload}: traced run {traced['cpu_s']:.3f} CPU s vs untraced median "
             f"{cpu_s:.3f} CPU s ({len(reps)} repetitions), seed {seed}",
             f"  {'span':<18} {'parent':<14} {'self s':>9} {'minor MW':>9}"]
    for s in traced["spans"]:
        table.append(f"  {s['name']:<18} {s['parent'] or '-':<14} "
                     f"{s['self_s']:>9.3f} {s['minor_words'] / 1e6:>9.1f}")
    units = dict(LAYERS)
    table += [f"  {k:<32} {v:>14.6g} {units[k]}" for k, v in metrics.items()]
    table.append(f"  spans written to {out.relative_to(ROOT)}")
    return attempted, failed, metrics, table


def record():
    """Regenerate pins.json: the seed-1 digests and the yield-ci reference."""
    pins = {"seed": PINNED_SEED, "digests": {}}
    for w in FIXED_DIES:
        rep = run_child(["--workload", w, "--seed", str(PINNED_SEED)], 1800)
        if rep is None:
            return 1
        pins["digests"][w] = digests(rep)
        log(f"perfbench: {w}: {pins['digests'][w]}")
    ref = run_child(["--reference"], 3600)
    if ref is None:
        return 1
    pins["yield_ci_reference"] = ref
    PINS.write_text(json.dumps(pins, indent=1) + "\n")
    log(f"perfbench: wrote {PINS.relative_to(ROOT)}")
    return 0


def main():
    # A terminated run raises SystemExit inside subprocess.run, which
    # kills and reaps the running repetition before exiting.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=PINNED_SEED)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--record", action="store_true",
                    help="regenerate perfbench/pins.json and exit")
    a = ap.parse_args()
    if not build():
        log("perfbench: build failed")
        return 1
    if a.record:
        return record()
    if a.workload is None:
        ap.error("--workload is required")
    try:
        pins = json.loads(PINS.read_text())
    except (OSError, ValueError) as e:
        log(f"perfbench: cannot read {PINS}: {e}")
        return 1
    names = WORKLOADS if a.workload == "all" else [a.workload]
    attempted = failed = 0
    metrics = {}
    for w in names:
        n, f, m, table = measure(w, a.seed, a.seconds, bool(a.trace), pins)
        if m is None:
            log(f"perfbench: {w}: no repetition succeeded")
            return 1
        attempted, failed = attempted + n, failed + f
        units = dict(LAYERS if a.trace else E2E)
        prefix = f"{w}/" if len(names) > 1 else ""
        metrics.update({prefix + k: {"value": v, "unit": units[k]} for k, v in m.items()})
        print("\n".join(table), flush=True)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
