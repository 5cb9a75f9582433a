"""Closed-loop worker: one client, one thread, calling eae_sat.cli.main in-process.

Run as ``python3 worker.py SPEC.json``.  The spec names the program's
source directory, the operations (argument lists for cli.main), how long
to run and where to write results.  The worker prints ``ready`` once the
warm-up call has returned, so the parent can time interpreter start,
import and first-call work as set-up.
"""

import io
import json
import os
import resource
import sys
import time


def _import_cli(src):
    sys.path.insert(0, src)
    from eae_sat import cli
    if not os.path.realpath(cli.__file__).startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"eae_sat was imported from {cli.__file__}, not {src}")
    return cli


def _call(main, argv):
    """One timed CLI call: (exit code, stdout, seconds)."""
    out = io.StringIO()
    t0 = time.perf_counter()
    code = main(argv, stdout=out, stderr=io.StringIO())
    return code, out.getvalue(), time.perf_counter() - t0


def run_loop(cli, spec, tracer):
    """Run the ops in order, cycling, and return the loop's measurements.

    The first pass is always completed; its outputs go to a file for the
    parent to check.  Later passes only compare their output with the
    first pass.  The loop ends once `seconds` have elapsed, at the end of
    a pass if `whole_passes`.

    With a tracer, every op runs twice, traced and untraced, in
    alternating order, so that the tracing overhead is measured on
    identical work at nearly the same moment.
    """
    ops = spec["ops"]
    seconds = spec["seconds"]
    whole_passes = spec["whole_passes"]
    latencies, untraced = [], []
    first = []
    mismatches = 0
    main = cli.main

    def traced_main(argv, stdout, stderr):
        tracer.install()
        try:
            return tracer.run_op(i, main, argv, stdout=stdout, stderr=stderr)
        finally:
            tracer.uninstall()

    with open(spec["outputs"], "w", encoding="utf-8") as fh:
        start = time.perf_counter()
        i = 0
        while True:
            k = i % len(ops)
            if tracer is None:
                code, text, seconds_taken = _call(main, ops[k])
            else:
                pair = [traced_main, main] if i % 2 else [main, traced_main]
                results = {fn: _call(fn, ops[k]) for fn in pair}
                code, text, seconds_taken = results[traced_main]
                plain_code, plain_text, plain_seconds = results[main]
                untraced.append(plain_seconds)
                mismatches += (plain_code, plain_text) != (code, text)
            latencies.append(seconds_taken)
            if i < len(ops):
                fh.write(f"{k}\t{code}\t{len(text)}\n")
                fh.write(text)
                first.append((code, hash(text)))
            elif first[k] != (code, hash(text)):
                mismatches += 1
            i += 1
            if (i >= len(ops) and time.perf_counter() - start >= seconds
                    and (i % len(ops) == 0 or not whole_passes)):
                break
        wall = time.perf_counter() - start
    return {"latencies": latencies, "untraced_latencies": untraced,
            "wall_s": wall, "ops": i, "mismatches": mismatches,
            "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}


def main(spec_path):
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    cli = _import_cli(spec["src"])
    code, _, _ = _call(cli.main, spec["warmup"])
    if code != 10:
        raise SystemExit(f"warm-up check exited with {code}, expected 10")
    print("ready", flush=True)
    if spec["mode"] == "setup":
        return
    tracer = None
    if spec["trace"]:
        from spans import Tracer
        tracer = Tracer()
    result = run_loop(cli, spec, tracer)
    if tracer is not None:
        tracer.dump(spec["spans"])
        result["trace"] = tracer.summary()
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1])
