"""eae-sat benchmark: seeded CLI workloads, verdict checks, optional tracing.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload check-small --seed 1 --seconds 25 --trace 0

The benchmark generates its inputs from the seed, checks them with its
own reference model search, and runs them through ``eae_sat.cli.main``
in a worker process (one client, one thread, closed loop, default
flags).  With ``--trace 0`` it cycles through the inputs for
``--seconds`` (at least one full pass) and reports the end-to-end
metrics.  With ``--trace 1`` it runs each op once traced and once
untraced, in whole passes for about half that time, and reports the
per-layer metrics and the tracing overhead.  The last line of standard
output is one JSON object.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gen  # noqa: E402
import reference  # noqa: E402
from layers import layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

WARMUP = "exists z. forall x. exists y. (x = y)\n"
SETUP_LAUNCHES = 7
DEADLINE_S = 170.0
EXPECTED_CODES = {"check": {10, 20}, "model": {0, 3, 20}, "diff": {0}}
_METHOD_LINES = ("gfp", "game", "extended")


class BenchError(Exception):
    pass


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

def make_pool(name, seed, workdir):
    """Write the workload's .fo files.

    Returns the ops (cli.main argument lists) and, per op, the size of the
    smallest model the reference found for its sentence, or None.
    """
    wl = WORKLOADS[name]
    rng = gen.rng_for(name, seed)
    ops, models = [], []
    index = 0
    while index < wl["pool"]:
        s = gen.random_sentence(rng, wl["shape"])
        model = reference.smallest_model(s, wl["ref_bound"])
        if wl.get("only_without_model") and model is not None:
            continue
        path = os.path.join(workdir, f"s{index:05d}.fo")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(gen.format_sentence(s))
        for command in wl["commands"]:
            ops.append([command[0], path, *command[1:]])
            models.append(model)
        index += 1
    return ops, models


# ---------------------------------------------------------------------------
# Workers
# ---------------------------------------------------------------------------

def _launch(spec, spec_path, deadline):
    """Start a worker; return (process, seconds until it reported ready)."""
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py"), spec_path],
        stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    ready = time.perf_counter() - t0
    if line.strip() != "ready":
        _finish(proc, deadline)
        raise BenchError(f"worker did not start (exit {proc.returncode})")
    return proc, ready


def _finish(proc, deadline):
    try:
        proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError("worker ran past the benchmark's deadline") from None
    finally:
        proc.stdout.close()
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}")


def run_worker(base_spec, workdir, tag, deadline, **overrides):
    spec = dict(base_spec, **overrides)
    spec["result"] = os.path.join(workdir, f"{tag}.result.json")
    spec["outputs"] = os.path.join(workdir, f"{tag}.outputs.txt")
    spec["spans"] = os.path.join(workdir, f"{tag}.spans.tsv")
    proc, ready = _launch(spec, os.path.join(workdir, f"{tag}.spec.json"),
                          deadline)
    _finish(proc, deadline)
    with open(spec["result"], encoding="utf-8") as fh:
        result = json.load(fh)
    result["setup_s"] = ready
    result["outputs"] = read_outputs(spec["outputs"])
    result["spans_path"] = spec["spans"]
    return result


def read_outputs(path):
    """First-pass (exit code, stdout) per op, in op order."""
    out = []
    with open(path, encoding="utf-8", newline="") as fh:
        while True:
            header = fh.readline()
            if not header:
                return out
            _, code, size = header.split("\t")
            out.append((int(code), fh.read(int(size))))


# ---------------------------------------------------------------------------
# Checking outputs against the reference
# ---------------------------------------------------------------------------

def check_op(command, code, stdout, model, bound):
    """Judge one operation.

    Returns (failure reason or None, verdicts, notes): verdicts are the
    SAT/UNSAT answers the op gave; notes carry the JSON-derived counters.
    """
    notes = {}
    if code not in EXPECTED_CODES[command]:
        return f"{command} exited with {code}", [], notes
    verdicts = []
    if command == "check":
        try:
            obj = json.loads(stdout)
        except ValueError:
            return "check --json printed no JSON", [], notes
        verdict = obj.get("verdict")
        if verdict != ("SAT" if code == 10 else "UNSAT"):
            return f"exit {code} but verdict {verdict!r}", [], notes
        verdicts.append(verdict)
        stats = obj.get("stats") or {}
        notes["searches"] = stats.get("witness_searches", 0)
        notes["cache_hits"] = stats.get("cache_hits", 0)
        if obj.get("refutation"):
            cands = obj["refutation"]["candidates"]
            notes["candidates"] = len(cands)
            notes["rounds"] = sum(len(c["rounds"]) for c in cands)
    elif command == "model":
        if code == 0 and '"stages"' not in stdout:
            return "model exited 0 without a staged model", [], notes
        if code == 3:
            try:
                conflict = json.loads(stdout)
            except ValueError:
                return "model exited 3 without a conflict report", [], notes
            if "relation" not in conflict:
                return "model exited 3 without a conflict report", [], notes
        elif code == 20 and model is not None:
            return "UNSAT although the reference found a model", [], notes
    else:  # diff
        lines = stdout.splitlines()
        if len(lines) <= len(_METHOD_LINES):
            return "diff printed too few lines", [], notes
        for method, line in zip(_METHOD_LINES, lines):
            parts = line.split()
            if parts[:1] != [method] or parts[1:] not in (["SAT"], ["UNSAT"]):
                return f"diff printed {line!r} for {method}", [], notes
            verdicts.append(parts[1])
        oracle = lines[len(_METHOD_LINES)]
        found = (int(oracle.split()[-1]) if "model of size" in oracle
                 else None)
        # both searches stop at the smallest model, so sizes must agree
        if (found if found is not None and found <= bound else None) != model:
            return (f"oracle reported {oracle!r}, reference model size "
                    f"{model}"), verdicts, notes
    if model is not None and "UNSAT" in verdicts:
        return "UNSAT although the reference found a model", verdicts, notes
    return None, verdicts, notes


def check_outputs(name, outputs, ops, models):
    bound = WORKLOADS[name]["ref_bound"]
    failures, failed_ops = [], []
    verdicts = agree = sat = unconfirmed = 0
    notes = []
    digest = hashlib.sha256()
    for k, (op, (code, stdout), model) in enumerate(zip(ops, outputs, models)):
        digest.update(f"{code}\t{len(stdout)}\n{stdout}".encode())
        failure, said, note = check_op(op[0], code, stdout, model, bound)
        notes.append(note)
        if failure:
            failed_ops.append(k)
            failures.append(f"{os.path.basename(op[1])} {op[0]}: {failure}")
        has_model = model is not None
        for v in said:
            verdicts += 1
            agree += (v == "SAT") == has_model
            if v == "SAT":
                sat += 1
                unconfirmed += not has_model
    return {"failures": failures, "failed_ops": failed_ops,
            "verdicts": verdicts, "agree": agree, "sat": sat,
            "unconfirmed": unconfirmed, "notes": notes,
            "sha256": digest.hexdigest(),
            "stdout_bytes": sum(len(o[1].encode()) for o in outputs)}


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(result, setups, checked):
    lat = sorted(result["latencies"])
    attempted = result["ops"]
    failed = _failed_ops(result, checked)
    return attempted, failed, {
        "setup_s": _metric(statistics.median(setups), "s"),
        "ops_per_s": _metric(attempted / result["wall_s"], "ops/s"),
        "latency_p50_ms": _metric(statistics.median(lat) * 1e3, "ms"),
        "latency_p90_ms": _metric(
            statistics.quantiles(lat, n=10)[8] * 1e3, "ms"),
        "ok_ratio": _metric(1.0 - failed / attempted, "ratio"),
        "agree_ratio": _metric(
            checked["agree"] / max(1, checked["verdicts"]), "ratio"),
        "peak_rss_mb": _metric(result["peak_rss_kb"] / 1024.0, "MB"),
    }


def _failed_ops(result, checked):
    """Each failing op fails again on every pass that reaches it."""
    full, rest = divmod(result["ops"], len(result["outputs"]))
    return (sum(full + (k < rest) for k in checked["failed_ops"])
            + result["mismatches"])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    root = os.path.dirname(HERE)
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "eae_sat", "cli.py")):
        print(f"error: no eae_sat sources under {src}", file=sys.stderr)
        return 2

    # one directory per workload and mode, so repeated runs reuse the space
    workdir = os.path.join(root, ".perfbench_work",
                           f"{args.workload}-trace{args.trace}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    ops, models = make_pool(args.workload, args.seed, workdir)
    warmup = os.path.join(workdir, "warmup.fo")
    with open(warmup, "w", encoding="utf-8") as fh:
        fh.write(WARMUP)
    spec = {"src": src, "ops": ops, "seconds": args.seconds,
            "whole_passes": False, "warmup": ["check", warmup],
            "mode": "loop", "trace": False}

    try:
        if args.trace:
            metrics, attempted, failed, checked = traced_run(
                args, spec, workdir, deadline, ops, models)
        else:
            setups = []
            for k in range(SETUP_LAUNCHES - 1):
                proc, ready = _launch(dict(spec, mode="setup"), os.path.join(
                    workdir, f"setup{k}.spec.json"), deadline)
                _finish(proc, deadline)
                setups.append(ready)
            result = run_worker(spec, workdir, "run", deadline)
            setups.append(result["setup_s"])
            checked = check_outputs(args.workload, result["outputs"], ops,
                                    models)
            attempted, failed, metrics = end_to_end(result, setups, checked)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    for f in checked["failures"][:20]:
        print(f"FAILED {f}")
    print(f"workload {args.workload} seed {args.seed}: {len(ops)} ops per "
          f"pass, {attempted} attempted, {failed} failed "
          f"(failed_ratio {failed / attempted:.4g})")
    print(f"verdicts {checked['verdicts']}, SAT {checked['sat']}, "
          f"unconfirmed SAT {checked['unconfirmed']} (unconfirmed_sat_ratio "
          f"{checked['unconfirmed'] / max(1, checked['sat']):.4g}, reference "
          f"bound {WORKLOADS[args.workload]['ref_bound']})")
    # informational, not a metric: lets a change show identical output bytes
    print(f"stdout_sha256 {checked['sha256']} (first pass)")
    for key, m in metrics.items():
        print(f"{key} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def traced_run(args, spec, workdir, deadline, ops, models):
    """Whole passes, each op once traced and once not, for `seconds`/2.

    Whole passes make every per-op count repeat exactly for a seed; the
    first pass may run past `seconds`/2, as each op runs twice.
    """
    traced = run_worker(spec, workdir, "traced", deadline, trace=True,
                        seconds=args.seconds / 2, whole_passes=True)
    passes = traced["ops"] // len(ops)
    checked = check_outputs(args.workload, traced["outputs"], ops, models)
    metrics = layer_metrics(traced, checked)
    failed = _failed_ops(traced, checked)
    t = traced["trace"]
    op_time = t["total"]["cli"]
    print(f"traced {traced['ops']} ops ({passes} passes); spans kept "
          f"{t['kept_spans']}, dropped {t['dropped_spans']}, written to "
          f"{os.path.relpath(traced['spans_path'])}")
    print("span              calls/op  self ms/op  self share  incl share")
    for name in sorted(t["self"], key=t["self"].get, reverse=True):
        print(f"{name:<18}{t['calls'][name] / traced['ops']:>8.4g}"
              f"{t['self'][name] * 1e3 / traced['ops']:>12.4g}"
              f"{t['self'][name] / op_time:>12.3f}"
              f"{t['top_total'][name] / op_time:>12.3f}")
    return metrics, traced["ops"], failed, checked


if __name__ == "__main__":
    sys.exit(main())
