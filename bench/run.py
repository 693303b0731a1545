"""The grpeq benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Drives the grpeq CLI in-process (grpeq.cli.main) on seeded inputs, in a
closed loop with one client: one worker process, no threads, instances one
after another.  Every output is checked by oracles.py, which shares no code
with the library.  The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics; --trace 1 runs an untraced and a
traced worker for half the time each and reports the per-layer metrics.
The exit code is 0 when every instance passed its checks, 1 when one did
not, and 2 when the benchmark could not run (no grpeq sources here).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import oracles  # noqa: E402
from workloads import MANIFEST, WORKLOADS  # noqa: E402

ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_work")
GOLDEN_SEED = 0
# Set-up is timed in this many fresh workers besides the measuring one.
SETUP_REPS = 4
# Slack beyond --seconds for a worker's set-up, its last pass and exit.
WORKER_SLACK_S = 90
# Largest allowed difference between an instance's traced time and the sum
# of its spans' self times and its timed leaves.
SPAN_SUM_TOLERANCE_S = 1e-6
EXIT_FAILED = 1
EXIT_CANNOT_RUN = 2


class CannotRun(Exception):
    pass


def run_worker(workload, seed, workdir, tag, mode, seconds=0.0):
    """Run worker.py in mode "setup", "plain" or "traced" and return its
    result, with "dir" set to its working directory."""
    result = os.path.join(workdir, f"result-{tag}.json")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), workload, str(seed),
           str(seconds), os.path.join(workdir, tag), result, mode]
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=seconds + WORKER_SLACK_S)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        raise CannotRun(f"worker {tag} did not finish in {exc.timeout} s") from exc
    if proc.returncode != 0:
        raise CannotRun(f"worker {tag} exited with {proc.returncode}: {proc.stderr.strip()}")
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    with open(result) as fh:
        out = json.load(fh)
    out["dir"] = os.path.join(workdir, tag)
    return out


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def check_worker(res: dict, golden: dict | None, notes: list[str]) -> tuple[int, int, bool]:
    """Check every instance a worker ran.  Returns (attempted, failed,
    self-test passed).  At the golden seed the first pass's reports must
    hash to the recorded digests."""
    manifests: dict[int, list] = {}
    failed = 0
    self_test_ok = True
    for p, i, _seconds, _ref_seconds, codes, error, _gap in res["records"]:
        pass_dir = os.path.join(res["dir"], f"pass-{p:03d}")
        if p not in manifests:
            with open(os.path.join(pass_dir, MANIFEST)) as fh:
                manifests[p] = json.load(fh)
        inst = manifests[p][i]
        problems = []
        if error is not None:
            problems.append(error)
        elif codes != [0] * len(inst["calls"]):
            problems.append(f"exit codes {codes}")
        else:
            paths = [os.path.join(pass_dir, f) for f in inst["outputs"]]
            reports = []
            try:
                for path in paths:
                    with open(path) as fh:
                        reports.append(json.load(fh))
                problems = oracles.check_instance(inst, reports, pass_dir)
                if golden is not None and p == 0:
                    for name, path in zip(inst["outputs"], paths):
                        if golden.get(name) != _sha256(path):
                            problems.append(f"{name}: sha256 differs from the recorded report")
            except (OSError, ValueError, LookupError, TypeError) as exc:
                problems = [f"malformed output: {type(exc).__name__}: {exc}"]
            if p == 0 and i == 0 and not problems:
                for case, flagged in oracles.self_test(inst, reports, pass_dir).items():
                    notes.append(f"self-test: {case}: {'flagged' if flagged else 'NOT FLAGGED'}")
                    self_test_ok &= flagged
        if problems:
            failed += 1
            if failed <= 5:
                notes.append(f"FAILED pass {p} instance {i}: {'; '.join(problems[:3])}")
    if not any(r[0] == 0 and r[1] == 0 for r in res["records"]):
        self_test_ok = False
    return len(res["records"]), failed, self_test_ok


def tail(values: list[float], pct: int) -> float:
    """The pct-th percentile, interpolated between neighbouring samples."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(workload: str, setups: list[dict], plain: dict, ok: float,
               notes: list[str]) -> dict:
    times = [r[3] for r in plain["records"]]
    pass_s: dict[int, float] = {}  # reference-speed time of each pass
    for r in plain["records"]:
        pass_s[r[0]] = pass_s.get(r[0], 0.0) + r[3]
    pct = WORKLOADS[workload]["tail_pct"]
    tail_s = tail(times, pct)
    notes.append(f"instance_tail_s is p{pct} of {len(times)} instances, "
                 f"{sum(t > tail_s for t in times)} beyond it; run_s is the median of "
                 f"{len(pass_s)} passes of {WORKLOADS[workload]['instances']} instances; "
                 f"setup_s is the median of {len(setups)} workers")
    notes.append("times are at reference speed (see worker.py); wall-clock medians: "
                 f"instance {statistics.median(r[2] for r in plain['records']):.4g} s, "
                 f"set-up {statistics.median(w['setup_s'] for w in setups):.4g} s")
    return {
        "setup_s": metric(statistics.median(w["setup_ref_s"] for w in setups), "s"),
        "run_s": metric(statistics.median(pass_s.values()), "s"),
        "instance_p50_s": metric(statistics.median(times), "s"),
        "instance_tail_s": metric(tail_s, "s"),
        "peak_rss_mib": metric(plain["peak_rss_mib"], "MiB"),
        "ok_frac": metric(ok, "ratio"),
    }


def per_layer(plain: dict, traced: dict, notes: list[str]) -> tuple[dict, bool]:
    """The traced worker's layer metrics plus the tracing overhead, and
    whether every instance's self times add up to its traced time."""
    base = {(r[0], r[1]): r[3] for r in plain["records"]}
    common = [r for r in traced["records"] if (r[0], r[1]) in base]
    overhead = sum(r[3] for r in common) / sum(base[(r[0], r[1])] for r in common)
    gap = max(r[6] for r in traced["records"])
    spans_ok = gap <= SPAN_SUM_TOLERANCE_S
    notes.append(f"span accounting: largest |instance time - sum of self times| = {gap:.2e} s "
                 f"over {len(traced['records'])} instances" + ("" if spans_ok else " (TOO LARGE)"))
    layers = dict(traced["layers"], **{"trace.overhead_ratio": (overhead, "ratio")})
    ranked = sorted(((v, k) for k, (v, unit) in layers.items() if unit == "s/inst"), reverse=True)
    notes.append("largest layer self times: " + ", ".join(f"{k} {v:.4g}" for v, k in ranked[:3]))
    return {k: metric(v, unit) for k, (v, unit) in layers.items()}, spans_ok


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=GOLDEN_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "grpeq", "cli.py")):
        print(f"error: no grpeq sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return EXIT_CANNOT_RUN

    golden = None
    if args.seed == GOLDEN_SEED:
        with open(os.path.join(HERE, "golden.json")) as fh:
            golden = json.load(fh)[args.workload]
    workdir = os.path.join(WORK, f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    notes: list[str] = []

    def worker(tag, mode, seconds=0.0):
        return run_worker(args.workload, args.seed, workdir, tag, mode, seconds)

    try:
        if args.trace:
            workers = [worker("plain", "plain", args.seconds / 2),
                       worker("traced", "traced", args.seconds / 2)]
        else:
            setups = [worker(f"setup-{k}", "setup") for k in range(SETUP_REPS)]
            workers = [worker("plain", "plain", args.seconds)]
        attempted = failed = 0
        self_test_ok = True
        for res in workers:
            a, f, s = check_worker(res, golden, notes)
            attempted, failed, self_test_ok = attempted + a, failed + f, self_test_ok and s
        spans_ok = True
        if args.trace:
            metrics, spans_ok = per_layer(workers[0], workers[1], notes)
            shutil.copy(os.path.join(workdir, "traced", "spans.jsonl"),
                        os.path.join(WORK, f"spans-{args.workload}-{args.seed}.jsonl"))
        else:
            metrics = end_to_end(args.workload, setups + workers, workers[0],
                                 (attempted - failed) / attempted, notes)
    except CannotRun as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CANNOT_RUN
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    correct = failed == 0 and self_test_ok and spans_ok
    if golden is not None:
        notes.append("golden: first-pass reports compared with recorded sha256 digests")
    for line in notes:
        print(line)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else EXIT_FAILED


if __name__ == "__main__":
    sys.exit(main())
