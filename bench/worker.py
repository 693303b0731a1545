"""One benchmark worker: a fresh process that imports grpeq, writes the
first pass's inputs, then runs passes over fresh inputs until SECONDS of
reference-speed time (below) are measured; a pass that has begun runs to
its end.  Closed loop, one client, no threads.

    python3 bench/worker.py WORKLOAD SEED SECONDS WORKDIR RESULT MODE

MODE is "setup" (set-up only), "plain" or "traced".  Timings and the peak
resident memory are written to RESULT as JSON; outputs stay in WORKDIR for
run.py to check.  The traced mode installs the wrappers of tracing.py
first and writes its spans to WORKDIR/spans.jsonl.

Set-up time runs from before the first import of the library (and of
workloads.py) to the last input file written.  The worker imports only
os, sys and time before that, so the library's own imports are all timed.

Reference speed.  Shared hosts change speed by half or more within
seconds, and the change hits every interpreted loop alike.  So a fixed
pure-Python reference loop runs before set-up, after set-up and after every
instance, and each measured time t is also reported as
t * REF_NOMINAL_S / r, where r is the mean of the reference times on either
side of it: seconds at a fixed reference speed.  REF_NOMINAL_S is the
loop's 5th-percentile time on a 2-vCPU cloud VM running CPython 3.11, so
the scaled figures read as seconds on that VM when it is not contended.
The factor does not depend on the program, so a program that gets faster
reads faster in both.
"""

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXIT_NO_LIBRARY = 2
REF_ROUNDS = 400
REF_NOMINAL_S = 0.0022
SETUP_REFS = 5


class _RefPerm:
    __slots__ = ("moves",)

    def __init__(self, moves):
        self.moves = moves


_REF_BASE = [_RefPerm({k: (7 * k + j) % 24 for k in range(24)}) for j in range(4)]


def reference_time() -> float:
    """Time a fixed loop of the operations the library spends its time on:
    composing small permutations stored as dicts in slotted objects."""
    start = time.perf_counter()
    cur = _REF_BASE[0]
    for i in range(REF_ROUNDS):
        f, g = cur.moves, _REF_BASE[i & 3].moves
        cur = _RefPerm({m: f.get(g.get(m, m), g.get(m, m)) for m in set(f) | set(g)})
    return time.perf_counter() - start


def import_grpeq():
    """Import grpeq from this checkout's src/, and nowhere else."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import grpeq.cli

    if not os.path.abspath(grpeq.cli.__file__).startswith(src + os.sep):
        raise ImportError(f"grpeq was imported from {grpeq.cli.__file__}, not {src}")
    return grpeq.cli


def _median(xs):
    xs = sorted(xs)
    return (xs[(len(xs) - 1) // 2] + xs[len(xs) // 2]) / 2


def main() -> int:
    workload, seed, seconds, workdir, result_path, mode = sys.argv[1:]
    seed, seconds = int(seed), float(seconds)
    workdir, result_path = os.path.abspath(workdir), os.path.abspath(result_path)

    def pass_dir(p: int) -> str:
        return os.path.join(workdir, f"pass-{p:03d}")

    # Set-up: import the library and write the first pass's inputs.  A fresh
    # process runs its first loops slowly, so set-up, which is short, is
    # scaled by the median of several reference times on each side.
    ref = _median([reference_time() for _ in range(SETUP_REFS)])
    start = time.perf_counter()
    try:
        cli = import_grpeq()
    except ImportError as exc:
        print(f"worker: cannot import grpeq: {exc}", file=sys.stderr)
        return EXIT_NO_LIBRARY
    from workloads import generate_pass

    manifest = generate_pass(workload, seed, 0, pass_dir(0))
    setup_s = time.perf_counter() - start
    ref_after = _median([reference_time() for _ in range(SETUP_REFS)])

    import json
    import resource

    result = {"setup_s": setup_s, "setup_ref_s": setup_s * 2 * REF_NOMINAL_S / (ref + ref_after)}
    ref = ref_after
    if mode == "setup":
        with open(result_path, "w") as fh:
            json.dump(result, fh)
        return 0

    tracer = None
    run_main = cli.main
    if mode == "traced":
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
        run_main = tracer.span("cli.main", cli.main)

    # records: [pass, index, seconds, reference-speed seconds, exit codes,
    #           error, span accounting gap]
    records: list[list] = []
    measured = 0.0  # reference-speed seconds
    p = 0
    while True:
        if p > 0:
            manifest = generate_pass(workload, seed, p, pass_dir(p))
            ref = reference_time()
        os.chdir(pass_dir(p))
        for i, inst in enumerate(manifest):
            codes: list[int] = []
            error = None
            gap = 0.0

            def body():
                for argv in inst["calls"]:
                    codes.append(run_main(argv))

            t0 = time.perf_counter()
            try:
                if tracer is None:
                    body()
                else:
                    gap = tracer.run_instance(len(records), body)
            except Exception as exc:  # an instance failure is counted, not fatal
                error = f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - t0
            ref_after = reference_time()
            factor = 2 * REF_NOMINAL_S / (ref + ref_after)
            ref = ref_after
            if tracer is not None:
                tracer.commit(factor)
            records.append([p, i, elapsed, elapsed * factor, codes, error, gap])
            measured += elapsed * factor
        # Whole passes only, so every run times the same mix of sizes; and
        # the time limit is in reference-speed seconds, so the number of
        # passes does not follow the host's speed.
        if measured >= seconds:
            break
        p += 1

    result.update(
        records=records,
        peak_rss_mib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer, len(records))
        tracer.write(os.path.join(workdir, "spans.jsonl"))
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
