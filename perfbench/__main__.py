"""``python -m perfbench run|repeat|compare`` (from the repository root).

``run --workload W --seed N --seconds S --trace 0|1`` is the form
``BENCHMARK.json``'s command takes: one workload in this (fresh)
process, every metric printed by name with its unit, and as the last
line of stdout one JSON object ``{"correct", "attempted", "failed",
"metrics"}`` — the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  Without ``--workload`` it runs all four,
each in its own subprocess.
"""

from __future__ import annotations

import os
import sys

from . import spec as S

# the program under test is the checkout's own source tree; children
# (store build, server, launcher) find it and perfbench the same way
sys.path.insert(0, os.path.join(S.ROOT, "src"))
os.environ["PYTHONPATH"] = os.pathsep.join(
    [os.path.join(S.ROOT, "src"), S.ROOT] + os.environ.get("PYTHONPATH", "").split(os.pathsep)
).rstrip(os.pathsep)
for _name in S.BLAS_ENV:
    os.environ[_name] = "1"  # before numpy loads, and inherited by children

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
from time import perf_counter  # noqa: E402

from . import compare as C  # noqa: E402
from .measure import host_block, latency_summary, samples_beyond, slo_miss_share  # noqa: E402

TMP_ROOT = ".perfbench_tmp"


def run_one(workload: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    """One workload in this process; returns the full result record."""
    from . import inputs as I
    from . import library, serving
    from .layers import fill_declared

    bench = S.load_benchmark()
    host = host_block()
    started = perf_counter()
    data = I.generate(workload, seed, seconds)
    pinned = S.FINGERPRINTS.get(workload, {}).get(seed)
    if pinned and seconds == S.REFERENCE_SECONDS and pinned != data.fingerprint:
        raise SystemExit(
            f"{workload}: input fingerprint {data.fingerprint} differs from the one "
            f"pinned for seed {seed} ({pinned}); this run would measure a different load"
        )
    setup_reps = 1 if smoke else S.SETUP_REPS
    if S.WORKLOADS[workload]["kind"] == "library":
        raw = library.run(data, seed, seconds, trace, setup_reps)
    else:
        os.makedirs(TMP_ROOT, exist_ok=True)
        workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=TMP_ROOT)
        try:
            raw = serving.run(data, seed, seconds, trace, setup_reps, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
            if not os.listdir(TMP_ROOT):
                os.rmdir(TMP_ROOT)

    declared = bench["per_layer" if trace else "end_to_end"]
    names = [m["name"] for m in declared]
    values = dict(raw["values"])
    values.update(latency_summary(names, raw["latencies"]))
    speed = raw["calibrator"].factor()
    measured = dict(values)
    if trace:
        values["bench.host_speed_factor"] = speed
    else:
        # timing metrics as they would read on the quiet reference host
        # (see calibrate.py); an open loop's achieved rate is set by its
        # schedule, not by the host's speed, and stays as measured
        open_loop = S.WORKLOADS[workload].get("loop") == "open"
        for name in values:
            if name.endswith(("_ms", "_s")) and name != "throughput_ops_s":
                values[name] /= speed
            elif name == "throughput_ops_s" and not open_loop:
                values[name] *= speed
    values = fill_declared(values, names)
    samples = {op: len(v) for op, v in raw["latencies"].items()}
    extra_names = [n for n in S.EXTRA_LATENCIES if n not in names]
    extra = latency_summary(extra_names, raw["latencies"])
    extra["slo_miss_share"] = slo_miss_share(
        raw["latencies"], S.WORKLOADS[workload]["slo_ms"], raw["attempted"]
    )
    extra["failed_share"] = raw["failed"] / raw["attempted"]
    beyond = {
        name: samples_beyond(samples[op], p)
        for name, op, p in S.latency_metrics(names + extra_names)
        if p > 50  # a tail needs samples beyond it; a median does not
    }
    notes = list(raw["notes"])
    if not smoke:
        notes += [
            f"{name}: only {n} samples beyond the percentile (<10)"
            for name, n in beyond.items()
            if n < 10
        ]
    host["loadavg_1m_after"] = os.getloadavg()[0]
    if max(host["loadavg_1m"], host["loadavg_1m_after"]) > host["nproc"]:
        notes.append("noisy host: 1-min load average above the core count")
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "fingerprint": data.fingerprint,
        "host": host,
        "correct": raw["failed"] == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared
        },
        "extra": extra,
        "host_speed_factor": speed,
        "measured": measured,
        "samples": samples,
        "samples_beyond": beyond,
        "checked": raw["checked"],
        "missing_symbols": raw["missing_symbols"],
        "notes": notes,
        "wall_s": perf_counter() - started,
    }


def print_record(record: dict) -> None:
    print(
        f"== {record['workload']}  seed={record['seed']}  seconds={record['seconds']}  "
        f"trace={record['trace']}  fingerprint={record['fingerprint'][:16]}"
    )
    host = record["host"]
    print(
        f"   host: nproc={host['nproc']}  load={host['loadavg_1m']:.2f}->"
        f"{host['loadavg_1m_after']:.2f}  python={host['python']}  numpy={host['numpy']}  "
        f"bench_version={host['bench_version']}"
    )
    print(f"   samples: {record['samples']}  checked: {record['checked']}")
    if not record["trace"]:
        print(
            f"   host speed factor {record['host_speed_factor']:.3f} (kernel time / reference): "
            "times below are divided by it, closed-loop throughput multiplied; "
            "'measured' is the value before that"
        )
    rows = [(name, name, m["value"], m["unit"]) for name, m in record["metrics"].items()]
    rows += [
        (f"(unbounded) {name}", name, value, "ms" if name.endswith("_ms") else "share")
        for name, value in record["extra"].items()
    ]
    for label, name, value, unit in rows:
        beyond = record["samples_beyond"].get(name)
        tail = f"   ({beyond} samples beyond)" if beyond is not None else ""
        if not record["trace"] and name in record["measured"]:
            tail += f"   measured {record['measured'][name]:.6g}"
        print(f"   {label:40s} {value:14.6g} {unit}{tail}")
    print(
        f"   attempted={record['attempted']}  failed={record['failed']}  "
        f"correct={record['correct']}  wall={record['wall_s']:.1f}s"
    )
    for symbol in record["missing_symbols"]:
        print(f"   missing symbol (its metrics read 0): {symbol}")
    for note in record["notes"]:
        print(f"   note: {note}")


def run_set(seed: int, seconds: float, traces, smoke: bool, workloads=None) -> list:
    """Every workload (x every trace mode asked for), each in a fresh
    subprocess so no workload warms or fragments another's process."""
    records = []
    for workload in workloads or list(S.WORKLOADS):
        for trace in traces:
            with tempfile.NamedTemporaryFile(suffix=".json", dir=".", prefix=".perfbench_rec") as tmp:
                argv = [sys.executable, "-m", "perfbench", "run", "--workload", workload,
                        "--seed", str(seed), "--seconds", repr(seconds), "--trace", str(trace),
                        "--out", tmp.name]
                if smoke:
                    argv.append("--smoke")
                proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
                # the child's report, minus its machine-readable last line
                sys.stdout.write("\n".join(proc.stdout.splitlines()[:-1]) + "\n")
                sys.stdout.flush()
                if os.path.getsize(tmp.name) == 0:
                    raise SystemExit(f"{workload} (trace={trace}) produced no result")
                records.append(json.load(tmp))
    return records


def cmd_run(args) -> int:
    seconds = S.REFERENCE_SECONDS / 20 if args.smoke else args.seconds
    if args.workload:
        record = run_one(args.workload, args.seed, seconds, bool(args.trace), args.smoke)
        print_record(record)
        if args.out:
            with open(args.out, "w") as fh:
                json.dump(record, fh)
        print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))
        return 0 if record["correct"] else 1
    traces = (0, 1) if args.traced else (args.trace,)
    records = run_set(args.seed, seconds, traces, args.smoke)
    if args.out:
        C.save(args.out, [records])
    return 0 if all(r["correct"] for r in records) else 1


def cmd_repeat(args) -> int:
    seconds = S.REFERENCE_SECONDS / 20 if args.smoke else args.seconds
    traces = (0, 1) if args.traced else (0,)
    sets = [run_set(args.seed, seconds, traces, args.smoke) for _ in range(2)]
    if args.out:
        C.save(args.out, sets)
    problems = C.check_repeat(sets, S.load_benchmark())
    for line in problems:
        print(f"REPEAT FAIL  {line}")
    if not problems:
        print("repeat: every end-to-end metric of the two sets agrees within its bound")
    return 1 if problems else 0


def cmd_compare(args) -> int:
    return C.compare_files(args.a, args.b, S.load_benchmark())


def main(argv=None) -> int:
    bench_seconds = float(S.load_benchmark()["run_seconds"])
    parser = argparse.ArgumentParser(prog="python -m perfbench")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=S.DEFAULT_SEED)
        p.add_argument("--seconds", type=float, default=bench_seconds)
        p.add_argument("--smoke", action="store_true",
                       help="1/20 of the op counts, one set-up repetition")
        p.add_argument("--traced", action="store_true",
                       help="also make the traced run of every workload")
        p.add_argument("--out", help="write the full result record(s) here as JSON")

    run = sub.add_parser("run", help="run one workload, or all four")
    common(run)
    run.add_argument("--workload", choices=list(S.WORKLOADS))
    run.add_argument("--trace", type=int, choices=(0, 1), default=0)
    run.set_defaults(func=cmd_run)
    repeat = sub.add_parser("repeat", help="run the full set twice and compare")
    common(repeat)
    repeat.set_defaults(func=cmd_repeat)
    compare = sub.add_parser("compare", help="compare two result files")
    compare.add_argument("a")
    compare.add_argument("b")
    compare.set_defaults(func=cmd_compare)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
