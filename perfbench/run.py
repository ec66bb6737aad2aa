"""liecontract benchmark: one workload per invocation, closed loop, one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
Workloads are defined in workloads.py; BENCHMARK.json lists them with the
reason each was chosen.  A run makes its inputs from the seed, times the set-up
(import plus input generation: the median of fresh-interpreter samples taken
before and after the measurement), repeats the workload's job list until S
seconds have passed and its minimum number of passes is done, and checks
every job's output.  Times are reported at a reference speed (speed.py).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced rounds with rounds in which every public layer function is wrapped
in a span (spans.py), CLI invocations running in this process, and prints
the per-layer metrics; the spans are written to ``.bench_out/``.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  ``correct`` is false when any job other than a ROADMAP
item 4 probe fails its check; the probes reproduce defects known at the seed
commit and count in ``failed`` (and so in ``ok_frac``) until they are fixed.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import traceback
from contextlib import contextmanager, nullcontext, redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"
# fresh-interpreter set-up samples taken before and after the measurement,
# so that one slow phase of the machine does not set the median
SETUP_SAMPLES = (3, 2)
SETUP_KERNEL_SAMPLES = 60
# CLI jobs per calibration child (speed.child_kernel) started after them
CLI_SAMPLE_EVERY = 4
JOB_TIMEOUT_S = 150
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

SELF_TIMES = (
    "exterior.wedge", "exterior.wedge_power", "exterior.volume_dual",
    "exterior.differential", "exterior.pfaffian",
    "invariants.char_invariants", "invariants.t_degree_reduction",
    "invariants.membership_linear", "linalg.solve_exact", "linalg.rational_rank",
    "linalg.poly_matrix_rank", "linalg.poly_det_cofactor",
    "builders.builtin_algebra", "builders.symmetric_pair",
    "lie.from_matrices", "lie.jacobi_check", "lie.algebra_index",
    "lie.algebra_from_text", "polyring.multivariate_gcd", "polyring.poly_div_exact",
    "polyring.t_expand", "polyring.parse_polynomial",
    "contract.contract_algebra", "contract.t_degree",
    "analysis.algebraic_independence", "analysis.proportionality",
    "analysis.fundamental_semiinvariant", "analysis.kostant_check",
    "analysis.contr_deg_report", "analysis.feigin_suite", "analysis.z2_suite",
    "cli.main")
CALL_COUNTS = (
    "exterior.wedge", "invariants.membership_linear", "linalg.solve_exact",
    "lie.jacobi_check", "lie.algebra_index", "polyring.multivariate_gcd",
    "contract.contract_algebra")


def bootstrap():
    if not (SRC / "liecontract" / "__init__.py").is_file():
        print(f"error: no liecontract package under {SRC}; run from a checkout",
              file=sys.stderr)
        sys.exit(2)
    os.chdir(ROOT)
    sys.path[:0] = [str(SRC), str(HERE)]


@contextmanager
def workdir():
    path = WORK / str(os.getpid())
    path.mkdir(parents=True, exist_ok=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass


# ---------------------------------------------------------------------------
# set-up time: fresh interpreters, median
# ---------------------------------------------------------------------------

def setup_sample(workload, seed):
    """Body of one fresh-interpreter set-up sample; prints its timings and
    the speed factor of this interpreter, measured right after them."""
    t0 = perf_counter()
    importlib.import_module("liecontract.cli")
    t1 = perf_counter()
    import speed
    import workloads
    with workdir() as wd:
        t2 = perf_counter()
        workloads.WORKLOADS[workload].prepare(seed, wd)
        t3 = perf_counter()
    sp = speed.Speed()
    for _ in range(SETUP_KERNEL_SAMPLES):
        sp.sample()
    print(json.dumps({"import_s": t1 - t0, "gen_s": t3 - t2, "factor": sp.factor()}))


def setup_samples(workload, seed, count):
    samples = []
    for _ in range(count):
        out = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                              "--setup-sample", "--workload", workload,
                              "--seed", str(seed)],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=JOB_TIMEOUT_S, check=True)
        samples.append(json.loads(out.stdout.strip().splitlines()[-1]))
    return samples


# ---------------------------------------------------------------------------
# running CLI invocations
# ---------------------------------------------------------------------------

class SubprocessCli:
    """Each invocation in a fresh interpreter; records the child's peak RSS."""

    def __init__(self, wd, speed):
        self.out, self.err = wd / "stdout", wd / "stderr"
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.peak_rss_mib = 0.0
        self.speed = speed
        self.calls = 0

    def __call__(self, argv):
        with open(self.out, "wb") as fo, open(self.err, "wb") as fe:
            p = subprocess.Popen([sys.executable, "-m", "liecontract.cli", *argv],
                                 stdin=subprocess.DEVNULL, stdout=fo, stderr=fe,
                                 cwd=ROOT, env=self.env)
            timer = threading.Timer(JOB_TIMEOUT_S, p.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(p.pid, 0)
            finally:
                timer.cancel()
            p.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_mib = max(self.peak_rss_mib, usage.ru_maxrss / 1024)
        self.calls += 1
        if self.calls % CLI_SAMPLE_EVERY == 0:
            self.speed.sample()
        return (p.returncode, self.out.read_text(errors="replace"),
                self.err.read_text(errors="replace"))


def inprocess_cli(argv):
    """The same invocation through cli.main in this process (traced runs)."""
    cli = sys.modules["liecontract.cli"]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            traceback.print_exc()
            code = 1
    return code, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------------------
# the measurement loop
# ---------------------------------------------------------------------------

class Stats:
    """Job latencies and pass times at the reference speed (speed.py), the
    speed factor of each pass, and the pass times as measured."""

    def __init__(self):
        self.latencies = []
        self.rounds = []
        self.raw_rounds = []
        self.factors = []
        self.per_round = 0
        self.failures = []     # (label, message, probe)

    @property
    def attempted(self):
        return len(self.latencies)

    @property
    def unexpected(self):
        return [f for f in self.failures if f[2] is None]


def time_job(job, rec=None):
    """Run one job, inside a "bench.job" span when a recorder is given.
    Returns (result, error message or None, seconds)."""
    sid = rec.open("bench.job") if rec else None
    t0 = perf_counter()
    try:
        result, msg = job.run(), None
    except Exception:
        result, msg = None, f"{job.label}: {traceback.format_exc(limit=4)}"
    t1 = perf_counter()
    if rec:
        rec.close(sid, t0, t1)
        rec.labels[sid] = job.label
    return result, msg, t1 - t0


def run_round(wl, inputs, runner, stats, sp, rec=None):
    """One pass over the job list.  A round's time is the sum of its job
    latencies; checks run between jobs, untimed and with the recorder paused.
    The time of the Speed `sp`'s kernel samples is taken out of each latency,
    and the latencies are scaled by the speed factor of the pass."""
    jobs = wl.round(inputs, runner)
    stats.per_round = len(jobs)
    gc.collect()
    mark = len(sp.samples)
    raw = []
    for job in jobs:
        spent = sp.spent
        result, msg, seconds = time_job(job, rec)
        seconds -= sp.spent - spent
        if rec:
            rec.enabled = False
        try:
            msg = msg or job.check(result)
        except Exception:
            msg = f"{job.label}: check raised {traceback.format_exc(limit=4)}"
        if rec:
            rec.enabled = True
        raw.append(seconds)
        if msg:
            stats.failures.append((job.label, msg, job.probe))
    factor = sp.factor(mark)
    stats.factors.append(factor)
    stats.latencies += [x * factor for x in raw]
    stats.raw_rounds.append(sum(raw))
    stats.rounds.append(sum(raw) * factor)


def measure(wl, inputs, seconds, runner, sp):
    """Repeat the job list until `seconds` have passed and the workload's
    minimum number of rounds is done.  In-process jobs are interrupted every
    few milliseconds for a kernel sample; CLI children are sampled between."""
    stats = Stats()
    start = perf_counter()
    with nullcontext() if wl.runs_cli else sp.sampling():
        while True:
            run_round(wl, inputs, runner, stats, sp)
            if perf_counter() - start >= seconds and len(stats.rounds) >= wl.min_rounds:
                return stats


def measure_traced(wl, inputs, seconds):
    """Alternate untraced and traced rounds, both at the reference speed, so
    that drift in machine speed falls on both sides of trace_overhead_frac
    alike.  Kernel samples taken inside a span are charged to it as
    recorder overhead, so they stay out of the layers' self times."""
    import counters
    import spans
    import speed
    untraced, traced = Stats(), Stats()
    rec = spans.Recorder()
    cnt = counters.Counters(rec)
    sp = speed.Speed(charge=rec.charge)
    start = perf_counter()
    with sp.sampling():
        while True:
            run_round(wl, inputs, inprocess_cli, untraced, sp)
            undo = spans.install(rec, cnt.hooks())
            try:
                run_round(wl, inputs, inprocess_cli, traced, sp, rec)
            finally:
                spans.uninstall(undo)
            if perf_counter() - start >= seconds and len(traced.rounds) >= wl.min_rounds:
                return untraced, traced, rec, cnt


def tail(latencies, count):
    """Highest ladder percentile with at least ten samples beyond it among
    `count` samples.  Fixing `count` by the workload's minimum number of
    rounds, not by how many rounds a run managed, keeps the same percentile
    on every run of a workload."""
    xs = sorted(latencies)
    p = next((p for p in TAIL_LADDER if count * (100 - p) / 100 >= 10), 100.0)
    return p, xs[min(len(xs) - 1, math.ceil(p / 100 * len(xs)) - 1)]


def end_to_end(stats, setup_s, peak_rss_mib, min_rounds):
    p, t = tail(stats.latencies, stats.per_round * min_rounds)
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(stats.rounds), "s"),
        "job_s.p50": (statistics.median(stats.latencies), "s"),
        "job_s.tail": (t, "s"),
        "ok_frac": (1 - len(stats.failures) / stats.attempted, "frac"),
        "peak_rss_mib": (peak_rss_mib, "MiB"),
    }
    notes = [f"jobs: {stats.attempted} in {len(stats.rounds)} round(s); "
             f"job_s.tail is p{p:g} ({stats.per_round} jobs per round, "
             f"at least {min_rounds} round(s)) of {stats.attempted} samples",
             f"speed factor per round: {' '.join(f'{f:.3f}' for f in stats.factors)}; "
             f"as measured, wall_s would read {statistics.median(stats.raw_rounds):.6g} s"]
    return metrics, notes


def per_layer(rec, cnt, traced, untraced, import_s):
    import spans
    agg = spans.aggregate(rec.spans)
    job_self = [slf / (s[spans.END] - s[spans.START])
                for s, slf in zip(rec.spans, spans.self_times(rec.spans))
                if s[spans.NAME] == "bench.job" and s[spans.END] > s[spans.START]]

    # a run makes as many traced passes as fit in its time; sums are per pass
    passes = len(traced.rounds)

    def get(name, field):
        return agg.get(name, {}).get(field, 0)

    metrics = {f"{n}.s": (get(n, "self_s") / passes, "s") for n in SELF_TIMES}
    metrics.update({f"{n}.calls": (get(n, "calls") / passes, "count")
                    for n in CALL_COUNTS})
    wedge_s = get("exterior.wedge", "self_s")
    job_s = get("bench.job", "incl_s")
    metrics.update({
        "exterior.wedge.term_products": (cnt.term_products / passes, "count"),
        "exterior.wedge.terms_out": (cnt.terms_out / passes, "count"),
        "exterior.wedge.products_per_s": (cnt.term_products / wedge_s if wedge_s else 0.0,
                                          "1/s"),
        "exterior.wedge.repeat_frac": (cnt.repeats / cnt.wedge_calls if cnt.wedge_calls else 0.0,
                                       "frac"),
        "exterior.chain_starts_max": (cnt.chain_starts_max, "count"),
        "invariants.char_invariants.wedge_s": (
            spans.time_under(rec.spans, "exterior.wedge", "invariants.char_invariants")
            / passes, "s"),
        "invariants.char_invariants.incl_frac": (
            get("invariants.char_invariants", "incl_s") / job_s if job_s else 0.0, "frac"),
        "invariants.membership_linear.hit_frac": (
            cnt.membership_hits / cnt.membership_calls if cnt.membership_calls else 0.0, "frac"),
        "polyring.max_coeff_bits": (cnt.max_coeff_bits, "bits"),
        "cli.import_s": (import_s, "s"),
        "bench.job.self_frac": (max(job_self, default=0.0), "frac"),
        "trace_overhead_frac": (statistics.median(traced.rounds)
                                / statistics.median(untraced.rounds) - 1, "frac"),
    })
    return metrics


def run(args):
    import speed
    import workloads
    wl = workloads.WORKLOADS[args.workload]
    samples = setup_samples(args.workload, args.seed, SETUP_SAMPLES[0])
    notes = [f"workload {args.workload}, seed {args.seed}, {args.seconds} s, "
             f"trace {args.trace}; Python {platform.python_version()}, "
             f"nproc {os.cpu_count()}"]
    with workdir() as wd:
        inputs = wl.prepare(args.seed, wd)
        if not args.trace:
            sp = speed.Speed.for_children() if wl.runs_cli else speed.Speed()
            cli = SubprocessCli(wd, sp)
            stats = measure(wl, inputs, args.seconds, cli, sp)
            samples += setup_samples(args.workload, args.seed, SETUP_SAMPLES[1])
            setup_s = statistics.median((s["import_s"] + s["gen_s"]) * s["factor"]
                                        for s in samples)
            # jobs ran in CLI children if any were started, else in this process
            rss = (cli.peak_rss_mib
                   or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
            metrics, more = end_to_end(stats, setup_s, rss, wl.min_rounds)
            notes += more
            checked = [stats]
        else:
            untraced, traced, rec, cnt = measure_traced(wl, inputs, args.seconds)
            samples += setup_samples(args.workload, args.seed, SETUP_SAMPLES[1])
            import_s = statistics.median(s["import_s"] for s in samples)
            metrics = per_layer(rec, cnt, traced, untraced, import_s)
            OUT.mkdir(exist_ok=True)
            path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
            rec.write(path)
            notes.append(f"spans: {len(rec.spans)} written to {path.relative_to(ROOT)}")
            checked = [untraced, traced]
    attempted = sum(s.attempted for s in checked)
    failures = [f for s in checked for f in s.failures]
    for label, msg, probe in failures:
        print(f"FAILED{' (probe ' + probe + ')' if probe else ''}: {msg.strip()}")
    for note in notes:
        print(note)
    for name, (value, unit) in metrics.items():
        print(f"{name:<42} {value:>16.6g} {unit}")
    print(json.dumps({"correct": not any(s.unexpected for s in checked),
                      "attempted": attempted, "failed": len(failures),
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-sample", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    bootstrap()
    if args.setup_sample:
        # nothing of the program may be imported before the sample times it
        setup_sample(args.workload, args.seed)
        return
    import workloads
    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; "
                 f"choose from {', '.join(workloads.WORKLOADS)}")
    run(args)


if __name__ == "__main__":
    main()
