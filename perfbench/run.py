"""matroid_workbench benchmark: real CLI invocations, outputs checked byte for byte.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout. One closed-loop client runs the
workload's tasks one after another; each task is a fresh
`python -S -m matroid_workbench.cli ...` process with its descriptor on
stdin, at --jobs 1 unless the task says otherwise. Passes over the task
list repeat until --seconds have elapsed (at least one whole pass). Times
are rescaled to a reference machine speed (see run_child).

Every stdout is compared with the expected bytes: golden files recorded at
the default seed, or for seeded inputs at any other seed a reference
computed untimed by an independent route (reference.py) before the timed
passes. A wrong exit code, wrong bytes or a timeout is a failed task.

--trace 0 prints the end-to-end metrics. --trace 1 runs one untraced pass
and one traced pass (tracer.py wrappers installed in each child) and prints
the per-layer metrics. The last stdout line is one JSON object with keys
correct, attempted, failed and metrics; a fuller record (machine, seed,
descriptors, per-task times, quartiles) goes to .perfbench_out/results/.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
GOLDEN = os.path.join(HERE, "golden")

sys.path.insert(0, HERE)
import workloads  # noqa: E402

SETUP_REPEATS = 7
DEADLINE_S = 170  # a run must end within 180 s
TRACE_TIMEOUT_FACTOR = 3


# -- child processes ----------------------------------------------------------


def child_env(extra=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update(extra or {})
    return env


class ChildResult:
    __slots__ = ("rc", "raw_s", "raw_cpu_s", "scale", "rss_mb", "timed_out", "stdout", "stderr")

    @property
    def wall_s(self):
        """Wall time rescaled to the reference speed."""
        return self.raw_s * self.scale

    @property
    def cpu_s(self):
        """User + system CPU time, rescaled by the same factor as wall_s."""
        return self.raw_cpu_s * self.scale


# The machine's speed drifts by up to 2x within seconds (shared host), so
# each child's wall time is rescaled to a reference speed. The child runs in
# slices of SLICE_S; between slices it is stopped (SIGSTOP) while the
# calibration kernel below runs on the same CPU, and each slice is scaled by
# CAL_REF_S over the kernel time measured around it. Raw times are kept too.
# Runs made mostly of interpreter start-up (probes, set-up) follow the speed
# of a bare interpreter start better than the kernel's: they are scaled by
# NULL_REF_S over the time of NULL_ARGV run right after them instead.
SLICE_S = 0.15
CAL_REF_S = 0.0013  # kernel time at the reference speed (median on a 2-core VM)
NULL_REF_S = 0.013  # bare interpreter start at the reference speed
NULL_ARGV = [sys.executable, "-S", "-c", "pass"]
CPUS = sorted(os.sched_getaffinity(0))
TASK_CPU = CPUS[-1]  # single-threaded tasks and the benchmark itself run here


def _kernel():
    s = Fraction(0)
    d = {}
    for i in range(1, 400):
        s += Fraction(1, i % 97 + 1)
        d[frozenset((i & 63, i % 7))] = s.numerator & 1023
    return len(d)


def calibrate(cpus):
    """Kernel time now, as the median of three runs on each CPU in `cpus`."""
    times = []
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        runs = []
        for _ in range(3):
            t0 = time.perf_counter()
            _kernel()
            runs.append(time.perf_counter() - t0)
        times.append(statistics.median(runs))
    os.sched_setaffinity(0, {TASK_CPU})
    return statistics.fmean(times)


def run_child(argv, stdin_path, env, timeout, scratch, cpus=(TASK_CPU,), sliced=True):
    """Run one process to completion; exit code, output, rusage, and its
    wall time both raw and rescaled to the reference speed.

    The child may run on `cpus` only. It is killed once it has run for
    `timeout` seconds. stdout and stderr go to files under `scratch`, so a
    large output never blocks it. With sliced=False the child runs
    uninterrupted and only the kernel times before and after it scale it.
    """
    out_path = os.path.join(scratch, "stdout.bin")
    err_path = os.path.join(scratch, "stderr.bin")
    res = ChildResult()
    res.timed_out = False
    raw = norm = 0.0
    cal = calibrate(cpus)
    with contextlib.ExitStack() as stack:
        fin = stack.enter_context(open(stdin_path, "rb")) if stdin_path else subprocess.DEVNULL
        fout = stack.enter_context(open(out_path, "wb"))
        ferr = stack.enter_context(open(err_path, "wb"))
        os.sched_setaffinity(0, set(cpus))
        t0 = time.perf_counter()
        try:
            proc = subprocess.Popen(argv, stdin=fin, stdout=fout, stderr=ferr, env=env, cwd=ROOT)
        finally:
            os.sched_setaffinity(0, {TASK_CPU})
        pidfd = os.pidfd_open(proc.pid)
        reaped = False
        try:
            while True:
                left = max(timeout - raw, 0.0)
                ready = select.select([pidfd], [], [], min(SLICE_S, left) if sliced else left)[0]
                if ready:
                    _, status, usage = os.wait4(proc.pid, 0)
                elif sliced and raw + time.perf_counter() - t0 < timeout:
                    os.kill(proc.pid, signal.SIGSTOP)
                    _, status, usage = os.wait4(proc.pid, os.WUNTRACED)
                else:
                    os.kill(proc.pid, signal.SIGKILL)
                    _, status, usage = os.wait4(proc.pid, 0)
                    res.timed_out = True
                reaped = not os.WIFSTOPPED(status)
                dt = time.perf_counter() - t0
                raw += dt
                after = calibrate(cpus)
                norm += dt * CAL_REF_S / ((cal + after) / 2)
                cal = after
                if reaped:
                    break
                os.kill(proc.pid, signal.SIGCONT)
                t0 = time.perf_counter()
        except BaseException:
            if not reaped:
                os.kill(proc.pid, signal.SIGKILL)
                os.wait4(proc.pid, 0)
            raise
        finally:
            os.close(pidfd)
        proc.returncode = res.rc = os.waitstatus_to_exitcode(status)
    res.raw_s = raw
    res.scale = norm / raw if raw else 1.0
    res.raw_cpu_s = usage.ru_utime + usage.ru_stime
    res.rss_mb = usage.ru_maxrss / 1024.0
    with open(out_path, "rb") as fh:
        res.stdout = fh.read()
    with open(err_path, "rb") as fh:
        res.stderr = fh.read()
    return res


def scale_by_startup(res, scratch):
    """Rescale a start-up-bound run by a bare interpreter start made now."""
    null = run_child(NULL_ARGV, None, child_env(), 10, scratch, sliced=False)
    res.scale = NULL_REF_S / null.raw_s
    return res


# -- expected outputs ---------------------------------------------------------


def load_manifest():
    with open(os.path.join(GOLDEN, "manifest.json"), encoding="utf-8") as fh:
        return json.load(fh)


def golden_bytes(manifest, expect):
    with open(os.path.join(GOLDEN, manifest["outputs"][expect]["file"]), "rb") as fh:
        return fh.read()


def expected_outputs(tasks, descriptors, seed):
    """{expect key: (exit code, stdout bytes)} for the tasks at this seed."""
    manifest = load_manifest()
    if seed == manifest["seed"]:
        for name in workloads.SEEDED:
            if name in descriptors and descriptors[name] != manifest["descriptors"][name]:
                raise SystemExit(f"seeded input {name} no longer matches the golden record")
    import reference
    from matroid_workbench import from_descriptor, tutte

    # One corank-nullity Tutte polynomial per seeded input that `tutte` runs
    # on serves every reference on that input: the `tutte` task checks the
    # CLI's deletion-contraction result against it in the same pass.
    shared = {
        t.input: tutte.tutte_sum(from_descriptor(descriptors[t.input]))
        for t in tasks
        if t.command == "tutte" and t.input in workloads.SEEDED and seed != manifest["seed"]
    }
    out = {}
    for t in tasks:
        if t.expect in out:
            continue
        if t.input in workloads.SEEDED and seed != manifest["seed"]:
            want = reference.expected_stdout(t.command, list(t.args), descriptors[t.input], shared.get(t.input))
            if want is None:
                raise SystemExit(f"no independent route gives the output of {t.expect}")
            out[t.expect] = (0, want)
        else:
            out[t.expect] = (manifest["outputs"][t.expect]["exit"], golden_bytes(manifest, t.expect))
    return out


# -- one pass -------------------------------------------------------------------


class Pass:
    def __init__(self, traced):
        self.traced = traced
        self.records = []  # (task, ChildResult, ok)
        self.wall_s = 0.0  # sum of the tasks' rescaled wall times
        self.raw_s = 0.0  # elapsed time of the whole pass


def task_argv(task, work, traced):
    args = [task.command, *task.args]
    if task.cache is not None:
        kind, name = task.cache
        cache_dir = os.path.join(work, "cache", name)
        if kind == "cold":
            shutil.rmtree(cache_dir, ignore_errors=True)
        args += ["--cache", cache_dir]
    if traced:
        return [sys.executable, "-S", os.path.join(HERE, "traced_cli.py"), *args]
    return [sys.executable, "-S", "-m", "matroid_workbench.cli", *args]


def task_cpus(task):
    jobs = int(task.args[task.args.index("--jobs") + 1]) if "--jobs" in task.args else 1
    return tuple(CPUS[-jobs:])


def run_pass(tasks, work, expected, deadline, traced=False, sliced=True):
    p = Pass(traced)
    trace_dir = os.path.join(work, "trace")
    if traced:
        shutil.rmtree(trace_dir, ignore_errors=True)
        os.makedirs(trace_dir)
    t0 = time.perf_counter()
    for task in tasks:
        argv = task_argv(task, work, traced)
        extra = None
        if traced:
            extra = {"PERFBENCH_TRACE_OUT": os.path.join(trace_dir, task.id), "PERFBENCH_TASK": task.id}
        timeout = task.timeout * (TRACE_TIMEOUT_FACTOR if traced else 1)
        timeout = min(timeout, deadline - time.monotonic())
        stdin_path = os.path.join(work, "inputs", task.input + ".json")
        res = run_child(argv, stdin_path, child_env(extra), timeout, work, task_cpus(task), sliced)
        if task.id.startswith("probe.") and not traced:
            scale_by_startup(res, work)
        want_rc, want_out = expected[task.expect]
        ok = not res.timed_out and res.rc == want_rc and res.stdout == want_out
        if not ok:
            why = "timeout" if res.timed_out else f"exit {res.rc}" if res.rc != want_rc else "stdout differs"
            print(f"FAILED {task.id}: {why}; stderr: {res.stderr[-300:].decode(errors='replace')}", file=sys.stderr)
        p.records.append((task, res, ok))
    p.raw_s = time.perf_counter() - t0
    p.wall_s = sum(r.wall_s for _, r, _ in p.records)
    shutil.rmtree(os.path.join(work, "cache"), ignore_errors=True)
    return p


def pass_metrics(p):
    m = {
        "wall_s": p.wall_s,
        "cpu_s": sum(r.cpu_s for _, r, _ in p.records),
        "peak_rss_mb": max(r.rss_mb for _, r, _ in p.records),
        "ok_ratio": sum(ok for _, _, ok in p.records) / len(p.records),
    }
    for g in workloads.GROUPS:
        times = [r.wall_s for t, r, _ in p.records if t.group == g]
        probes = all(t.id.startswith("probe.") for t, _, _ in p.records if t.group == g)
        m[g + ".s"] = statistics.median(times) if times and probes else sum(times)
    return m


E2E_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "ok_ratio": "ratio"}
E2E_UNITS.update({g + ".s": "s" for g in workloads.GROUPS})


# -- set-up ------------------------------------------------------------------


def measure_setup(descriptor_paths, scratch):
    """Wall times of fresh interpreters that import the CLI and parse every
    descriptor of the workload, with no computation."""
    argv = [sys.executable, "-S", os.path.join(HERE, "setup_probe.py"), *descriptor_paths]
    times, failures = [], 0
    for _ in range(SETUP_REPEATS):
        res = scale_by_startup(run_child(argv, None, child_env(), 60, scratch), scratch)
        if res.rc != 0:
            failures += 1
            print(f"FAILED setup probe: exit {res.rc}: {res.stderr[-300:].decode(errors='replace')}", file=sys.stderr)
        times.append(res.wall_s)
    return times, failures


# -- per-layer metrics from a traced pass -------------------------------------


def trace_summary(p, work):
    """Span summaries and counters summed over every task of a traced pass."""
    import tracer

    spans_by_name, counters = {}, {}
    for task, _, _ in p.records:
        prefix = os.path.join(work, "trace", task.id)
        if not os.path.exists(prefix + ".json"):
            continue
        header, spans = tracer.read_spans(prefix)
        for name, s in tracer.summarize(header["names"], spans).items():
            acc = spans_by_name.setdefault(name, {"calls": 0, "self_ns": 0, "total_ns": 0})
            for k in acc:
                acc[k] += s[k]
        for k, v in header["counters"].items():
            counters[k] = counters.get(k, 0) + v
    return spans_by_name, counters


def _ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(spans, counters, untraced, traced):
    """Per-layer metrics: {name: (value, unit)}."""

    def pick(base, ctx=None):
        for name, s in spans.items():
            b, _, c = name.partition("|")
            if b == base and (ctx is None or c == ctx):
                yield s

    def calls(base, ctx=None):
        return sum(s["calls"] for s in pick(base, ctx))

    def self_s(*bases, ctx=None):
        return sum(s["self_ns"] for b in bases for s in pick(b, ctx)) / 1e9

    def layer_self_s(layer):
        return sum(s["self_ns"] for n, s in spans.items() if n.startswith(layer + ".")) / 1e9

    def count(key):
        return counters.get(key, 0)

    m = {
        "cli.parse.s": (sum(s["total_ns"] for s in pick("cli.parse")) / 1e9, "s"),
        "cli.cache.get.calls": (calls("cli.cache.get"), "count"),
        "cli.cache.get.hits": (count("cli.cache.get.hits"), "count"),
        "cli.cache.put.calls": (calls("cli.cache.put"), "count"),
        "cli.cache.put.bytes": (count("cli.cache.put.bytes"), "bytes"),
        "cli.cache.self_s": (self_s("cli.cache.get", "cli.cache.put"), "s"),
        "matroids.rank.calls": (calls("matroids.rank"), "count"),
        "matroids.rank.miss_ratio": (_ratio(count("matroids.backing_rank"), calls("matroids.rank")), "ratio"),
        "matroids.rank.self_s": (self_s("matroids.rank"), "s"),
        "matroids.push.calls": (count("matroids.push"), "count"),
        "matroids.minor.calls": (calls("matroids.minor"), "count"),
        "matroids.minor.self_s": (self_s("matroids.minor"), "s"),
        "matroids.bases.self_s": (self_s("matroids.bases"), "s"),
        "matroids.circuits.self_s": (self_s("matroids.circuits"), "s"),
        "matroids.canonical_key.calls": (calls("matroids.canonical_key"), "count"),
        "matroids.canonical_key.self_s": (self_s("matroids.canonical_key"), "s"),
    }
    for suffix, ctx in (("", None), (".in_os_space", "os_space"), (".in_minor", "minor")):
        key = f"|{ctx}" if ctx else ""
        rows_in = sum(v for k, v in counters.items() if k.startswith("linalg.rref.rows_in") and (ctx is None or k.endswith(key)))
        rank_out = sum(v for k, v in counters.items() if k.startswith("linalg.rref.rank_out") and (ctx is None or k.endswith(key)))
        m.update({
            "linalg.push.calls" + suffix: (calls("linalg.push", ctx), "count"),
            "linalg.push.self_s" + suffix: (self_s("linalg.push", ctx=ctx), "s"),
            "linalg.rref.calls" + suffix: (calls("linalg.rref", ctx), "count"),
            "linalg.rref.rows_in" + suffix: (rows_in, "count"),
            "linalg.rref.rank_out" + suffix: (rank_out, "count"),
            "linalg.rref.self_s" + suffix: (self_s("linalg.rref", ctx=ctx), "s"),
        })
    rows_os = count("linalg.rref.rows_in|os_space")
    m.update({
        "tutte.subsets": (count("tutte.subsets"), "count"),
        "tutte.rank_size_counts.self_s": (self_s("tutte.rank_size_counts"), "s"),
        "tutte.dc.nodes": (count("tutte.dc.get"), "count"),
        "tutte.dc.memo_hit_ratio": (_ratio(count("tutte.dc.hits"), count("tutte.dc.get")), "ratio"),
        "tutte.dc.self_s": (self_s("tutte.dc"), "s"),
        "tutte.h.self_s": (self_s("tutte.h"), "s"),
        "polynomials.add.calls": (calls("polynomials.add"), "count"),
        "polynomials.self_s": (layer_self_s("polynomials"), "s"),
        "series.mul.calls": (calls("series.mul"), "count"),
        "series.mul.self_s": (self_s("series.mul"), "s"),
        "series.inverse.calls": (calls("series.inverse"), "count"),
        "series.inverse.self_s": (self_s("series.inverse"), "s"),
        "series.power.calls": (calls("series.power"), "count"),
        "localization.points": (count("localization.points"), "count"),
        "localization.self_s": (layer_self_s("localization"), "s"),
        "localization.calibrate.s": (sum(s["total_ns"] for s in pick("localization.calibrate")) / 1e9, "s"),
        "localization.jobs2_speedup": (jobs2_speedup(untraced), "ratio"),
        "orlik_solomon.os_space.calls": (calls("orlik_solomon.os_space"), "count"),
        "orlik_solomon.relation_rows": (rows_os, "count"),
        "orlik_solomon.row_yield": (_ratio(count("linalg.rref.rank_out|os_space"), rows_os), "ratio"),
        "orlik_solomon.self_s": (layer_self_s("orlik_solomon"), "s"),
        "orlik_solomon.reduce.calls": (calls("orlik_solomon.reduce"), "count"),
        "orlik_solomon.reduce.self_s": (self_s("orlik_solomon.reduce"), "s"),
        "orlik_solomon.nbc_sets.self_s": (self_s("orlik_solomon.nbc_sets"), "s"),
        "white.monomials": (count("white.monomials"), "count"),
        "white.fibers": (count("white.fibers"), "count"),
        "white.edges": (count("white.edges"), "count"),
        "white.toric_fibers.self_s": (self_s("white.toric_fibers"), "s"),
        "trace.overhead_ratio": (_ratio(traced.wall_s, untraced.wall_s), "ratio"),
    })
    return m


def jobs2_speedup(p):
    """Time of the --jobs 1 runs over time of their --jobs 2 twins (same output)."""
    single = {}
    for t, r, _ in p.records:
        if t.group == "euler-table":
            single.setdefault(t.expect, []).append(r.wall_s)
    num = den = 0.0
    for t, r, _ in p.records:
        if t.group == "euler-table.jobs2" and t.expect in single:
            num += statistics.fmean(single[t.expect])
            den += r.wall_s
    return _ratio(num, den)


# -- machine record --------------------------------------------------------------


def machine_record():
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "nproc": os.cpu_count(),
        "python": sys.version,
        "platform": platform.platform(),
        "git_commit": commit,
    }


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


# -- main --------------------------------------------------------------------------


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "matroid_workbench", "cli.py")):
        print(f"error: no matroid_workbench sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.sched_setaffinity(0, {TASK_CPU})

    start = time.monotonic()
    deadline = start + DEADLINE_S
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace}
    record["machine"] = machine_record()
    record["loadavg_start"] = os.getloadavg()

    work = os.path.join(OUT, args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(os.path.join(work, "inputs"))
    tasks, descriptors = workloads.build(args.workload, args.seed)
    record["descriptors"] = descriptors
    paths = []
    for name, desc in descriptors.items():
        path = os.path.join(work, "inputs", name + ".json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(desc, fh)
        paths.append(path)

    expected = expected_outputs(tasks, descriptors, args.seed)
    # setup_s is an end-to-end metric, so the traced run does not measure it
    setup_times, setup_failures = ([], 0) if args.trace else measure_setup(paths, work)

    passes = []
    if args.trace:
        # Stopping a traced child would count the pause inside its spans.
        passes.append(run_pass(tasks, work, expected, deadline, sliced=False))
        passes.append(run_pass(tasks, work, expected, deadline, traced=True, sliced=False))
    else:
        t_measure = time.monotonic()
        while True:
            passes.append(run_pass(tasks, work, expected, deadline))
            now = time.monotonic()
            if now - t_measure >= args.seconds or deadline - now < 1.5 * passes[-1].raw_s:
                break

    attempted = sum(len(p.records) for p in passes) + len(setup_times)
    failed = sum(not ok for p in passes for _, _, ok in p.records) + setup_failures

    summary = {}
    if args.trace:
        spans, counters = trace_summary(passes[1], work)
        metrics = layer_metrics(spans, counters, passes[0], passes[1])
        record["spans"] = spans
        record["counters"] = counters
        for name, (value, unit) in metrics.items():
            summary[name] = {"value": value, "unit": unit}
    else:
        per_pass = [pass_metrics(p) for p in passes]
        per_pass_names = list(per_pass[0])
        series = {"setup_s": setup_times}
        series.update({name: [pm[name] for pm in per_pass] for name in per_pass_names})
        for name, values in series.items():
            q1, med, q3 = quartiles(values)
            summary[name] = {"value": med, "unit": E2E_UNITS[name], "q1": q1, "q3": q3, "n": len(values)}

    record["loadavg_end"] = os.getloadavg()
    record["passes"] = [
        {
            "traced": p.traced,
            "wall_s": p.wall_s,
            "raw_s": p.raw_s,
            "tasks": [
                {"id": t.id, "group": t.group, "rc": r.rc, "ok": ok, "wall_s": r.wall_s, "raw_s": r.raw_s,
                 "cpu_s": r.cpu_s, "rss_mb": r.rss_mb, "timed_out": r.timed_out}
                for t, r, ok in p.records
            ],
        }
        for p in passes
    ]
    record["setup_s"] = setup_times
    record["metrics"] = summary
    record["correct"] = failed == 0
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    result_path = os.path.join(
        OUT, "results", f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    )
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    for name, s in summary.items():
        extra = f"  (median of {s['n']}, q1 {s['q1']:.4g}, q3 {s['q3']:.4g})" if "n" in s else ""
        print(f"{name:40s} {s['value']:.6g} {s['unit']}{extra}")
    print(f"results: {os.path.relpath(result_path, ROOT)}")
    metrics = {name: {"value": s["value"], "unit": s["unit"]} for name, s in summary.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
