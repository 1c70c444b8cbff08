"""End-to-end benchmark of fusionaudit audits, with a traced per-layer run.

    python3 perfbench/run.py --workload {s4,ladder,cli} [--seed 1]
                             [--seconds 30] [--trace 0|1]

Run it from the root of a checkout: it imports the package from ./src and
writes scratch files under ./.perfbench_work, which it removes at exit.

A pass audits every input of the workload once, at one audit seed.  On
ladder and cli each pass draws a new audit seed from a generator seeded
with --seed.  On s4, --seed draws the order of the group's elements and
every pass audits at run_audit's default seed 1, so its passes do the same
work.  A set-up precedes every pass, and a pass starts while at least
half of one is left of --seconds.  Every output is checked (see
verify.py); a failed check counts the operation as failed instead of
stopping the run.

With --trace 0 the run times untraced passes and prints the end-to-end
metrics.  Pass and operation times are corrected for the host's speed
drift (see speed.py); the uncorrected pass times and the factors are
printed before the result.  Reports of passes at the same
audit seed must be byte-identical; if no timed pass repeated another's
seed, one more, untimed pass repeats the first pass's seed.  With --trace
1 the run alternates untraced and traced passes at the same audit seed,
whose reports must match, and prints the per-layer metrics (see
spans.py).  Lines before the last describe the environment, the sample
counts and the sha256 of every report; the last line is one JSON object
with the keys correct, attempted, failed and metrics.

Workloads (single process, closed loop, at most one child process):
  s4      run_audit on the symmetric group S4 (24 grades) at corpus 2 and
          samples 6.  The dense Grothendieck ring checks dominate.
  ladder  run_audit on the six bundled fixtures at corpus 2 and samples 12.
          Tensor products and the functor checks dominate.
  cli     for each fixture, ``python -m fusionaudit audit --report``, then
          ``gr``, then ``check-algebra`` on each distinct algebra witness,
          at the default corpus 2 and samples 6.  Interpreter start and
          import weigh most.
"""

import argparse
import hashlib
import itertools
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import threading
from time import perf_counter

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

SETUP_REPS = 3   # set-ups before the first pass, besides one per pass
COMMAND_TIMEOUT_S = 60

# name -> (corpus size, samples, whether each pass draws a new audit seed).
# An S4 pass takes about 10 s, so a run holds two or three; at one audit
# seed they do the same work, while the corpus, and with it the pass time,
# varies by up to half between audit seeds.  The ladder's pass time has a
# standard deviation of about a fifth of its mean over audit seeds at these
# settings, and a long tail at larger corpora (4.0-11.9 s over three seeds
# at corpus 8), so a run draws as many audit seeds as fit and reports the
# median.
SETTINGS = {"s4": (2, 6, False), "ladder": (2, 12, True),
            "cli": (2, 6, True)}


def s4_spec(seed):
    """Group spec of S4.  Its elements are the permutations of 0..3, the
    identity first as make_group needs, the rest in an order drawn from
    seed; entry [p][q] is "p then q"."""
    perms = sorted(itertools.permutations(range(4)))
    rest = perms[1:]
    random.Random(seed).shuffle(rest)
    perms = perms[:1] + rest
    index = {p: i for i, p in enumerate(perms)}
    table = [[index[tuple(q[p[x]] for x in range(4))] for q in perms]
             for p in perms]
    return {"kind": "group", "table": table}


def serialise(report):
    """The two forms the CLI writes: the table and the JSON report."""
    from fusionaudit.audit import render_report
    render_report(report)
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


class Run:
    """State of one benchmark run: inputs, the operations attempted and
    failed, and the report digests that later passes must reproduce."""

    def __init__(self, workload, seed):
        self.workload = workload
        self.seed = seed
        self.corpus, self.samples, self.reseed = SETTINGS[workload]
        self.rng = random.Random(seed)
        self.audit_seeds = []
        self.inputs = []          # (label, spec, groupoid, spec path)
        self.digests = {}         # (label, command, audit seed) -> sha256
        self.attempted = 0
        self.failed = 0
        self.clock = perf_counter  # times in-process operations
        self.reference = None      # runs before each input of a cli pass
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = SRC + (
            os.pathsep + self.env["PYTHONPATH"]
            if self.env.get("PYTHONPATH") else "")

    # -- bookkeeping ------------------------------------------------------

    def record(self, key, check, data=None):
        """Count one operation.  check() returns the problems with its
        output; data is the output whose sha256 must repeat for the same
        key."""
        self.attempted += 1
        try:
            problems = check()
        except Exception as exc:  # a malformed output fails the operation
            problems = ["check raised %s: %s" % (type(exc).__name__, exc)]
        if data is not None:
            digest = hashlib.sha256(data).hexdigest()
            first = self.digests.setdefault(key, digest)
            if first != digest:
                problems = problems + ["output differs from an earlier pass"]
        if problems:
            self.failed += 1
            for p in problems:
                print("FAILED %s: %s" % (" ".join(map(str, key)), p),
                      file=sys.stderr)

    def spawn(self, argv):
        """Run one child process; returns (exit code, stdout, seconds).

        A timer kills a child that hangs.  Passing a timeout to subprocess
        instead would make it poll for the exit in sleeps of up to 50 ms,
        which would show in every timing."""
        start = perf_counter()
        with subprocess.Popen(argv, cwd=ROOT, env=self.env,
                              stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE) as proc:
            timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                out, err = proc.communicate()
            finally:
                timer.cancel()
        seconds = perf_counter() - start
        if proc.returncode != 0:
            print(err.decode(errors="replace")[-2000:], file=sys.stderr)
        return proc.returncode, out, seconds

    def command(self, args, spans_path=None):
        """Run one CLI command; returns (exit code, stdout, seconds)."""
        if spans_path is None:
            return self.spawn([sys.executable, "-m", "fusionaudit"] + args)
        return self.spawn([sys.executable, os.path.join(HERE, "child.py"),
                           spans_path] + args)

    # -- set-up -----------------------------------------------------------

    def import_seconds(self):
        """Wall time of a fresh interpreter that only imports the CLI."""
        code, _, seconds = self.spawn(
            [sys.executable, "-c", "import fusionaudit.cli"])
        if code != 0:
            raise RuntimeError("importing fusionaudit.cli exited with %d"
                               % code)
        return seconds

    def setup(self):
        """Import the program in a fresh interpreter, generate the inputs
        and build their groupoids.  Returns (total, import) seconds."""
        from fusionaudit.fixtures import FIXTURE_NAMES, fixture_spec
        from fusionaudit.groupoid import groupoid_from_spec
        start = perf_counter()
        imported = self.import_seconds()
        if self.workload == "s4":
            specs = [("s4", s4_spec(self.seed))]
        else:
            specs = [(n, fixture_spec(n)) for n in FIXTURE_NAMES]
        os.makedirs(WORK, exist_ok=True)
        inputs = []
        for label, spec in specs:
            path = os.path.join(WORK, label + ".json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(spec, fh)
            inputs.append((label, spec, groupoid_from_spec(spec), path))
        self.inputs = inputs
        return perf_counter() - start, imported

    # -- passes -----------------------------------------------------------

    def audit_pass(self, audit_seed, tracer=None):
        """Audit every input in process.  Returns (op seconds, summary)."""
        from fusionaudit.audit import run_audit
        from spans import SERIALISE
        import verify
        to_text = serialise
        if tracer is not None:
            to_text = tracer.span(SERIALISE, serialise)
            tracer.install()
        times, outputs = [], []
        try:
            for label, spec, _, _ in self.inputs:
                start = self.clock()
                try:
                    report = run_audit(spec, seed=audit_seed,
                                       corpus_size=self.corpus,
                                       samples=self.samples)
                    out = (report, to_text(report))
                except Exception as exc:  # counted, and the run goes on
                    out = exc
                times.append(self.clock() - start)
                outputs.append(out)
        finally:
            if tracer is not None:
                tracer.uninstall()
        summary = None
        if tracer is not None:
            summary = tracer.summary()
            summary["counts"]["audit.report_bytes"] = sum(
                len(o[1].encode()) for o in outputs
                if not isinstance(o, Exception))
        for (label, _, cat, _), out in zip(self.inputs, outputs):
            key = (label, "audit", audit_seed)
            if isinstance(out, Exception):
                self.record(key, lambda: ["%s: %s"
                                          % (type(out).__name__, out)])
                continue
            report, text = out
            self.record(key, lambda: verify.audit_problems(cat, report),
                        text.encode())
        return times, summary

    def cli_pass(self, audit_seed, traced=False):
        """Run the CLI commands for every input.  Returns (op seconds,
        summary of the children's spans when traced)."""
        from spans import merge
        import verify
        times, summaries = [], []

        def run(key, args, check, report_path=None):
            """Run one command; returns its JSON document, or None when it
            failed.  The document is the report file when there is one."""
            spans_path = os.path.join(WORK, "spans.json") if traced else None
            code, out, seconds = self.command(args, spans_path)
            times.append(seconds)
            doc, data = None, out
            if code == 0:
                try:
                    if report_path is None:
                        doc = json.loads(out)
                    else:
                        with open(report_path, "rb") as fh:
                            data = out + b"\0" + fh.read()
                        doc = json.loads(data[len(out) + 1:])
                except (OSError, ValueError) as exc:
                    print("unreadable output of %s: %s" % (key, exc),
                          file=sys.stderr)
            self.record(key, lambda: ["exit code %d" % code] if code
                        else ["unreadable output"] if doc is None
                        else check(doc), data)
            if traced and os.path.exists(spans_path):
                with open(spans_path, encoding="utf-8") as fh:
                    summaries.append(json.load(fh))
                os.remove(spans_path)
            return doc

        for label, _, cat, path in self.inputs:
            if self.reference is not None:
                self.reference()
            report_path = os.path.join(WORK, label + ".report.json")
            report = run((label, "audit", audit_seed),
                         ["audit", "--category", path, "--seed",
                          str(audit_seed), "--report", report_path],
                         lambda doc: verify.audit_problems(cat, doc),
                         report_path)
            run((label, "gr", audit_seed),
                ["gr", "--category", path, "--seed", str(audit_seed)],
                lambda doc: verify.gr_problems(cat, doc))
            if report is None:
                continue
            for i, alg in enumerate(verify.algebra_witnesses(report)):
                alg_path = os.path.join(WORK, "%s.w%d.json" % (label, i))
                with open(alg_path, "w", encoding="utf-8") as fh:
                    json.dump(alg, fh)
                run((label, "check-algebra %d" % i, audit_seed),
                    ["check-algebra", "--category", path,
                     "--algebra", alg_path], verify.check_algebra_problems)
        summary = None
        if traced:
            summary = merge(summaries)
            summary["counts"]["audit.report_bytes"] = sum(
                os.path.getsize(os.path.join(WORK, label + ".report.json"))
                for label, _, _, _ in self.inputs)
        return times, summary

    def one_pass(self, audit_seed, traced=False):
        if self.workload == "cli":
            return self.cli_pass(audit_seed, traced)
        from spans import Tracer
        return self.audit_pass(audit_seed, Tracer() if traced else None)

    def probe_commands(self):
        """One ``check-algebra`` command per input, on the unit summand of
        object 0: the CLI layer's cost on the workload's own inputs."""
        import verify
        path = os.path.join(WORK, "probe.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"gen": "unit_summand", "i": 0}, fh)
        times = []
        for label, _, _, spec_path in self.inputs:
            code, out, seconds = self.command(
                ["check-algebra", "--category", spec_path, "--algebra", path])
            times.append(seconds)
            self.record((label, "probe", 0),
                        lambda: ["exit code %d" % code] if code else
                        verify.check_algebra_problems(json.loads(out)), out)
        return times


def tail(values):
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it; the maximum when there are ten samples or fewer."""
    xs = sorted(values)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def peak_rss_mb(workload):
    who = resource.RUSAGE_CHILDREN if workload == "cli" \
        else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def environment(args, run):
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    from fusionaudit.exactlin import BACKEND
    return {"python": platform.python_version(), "backend": BACKEND,
            "nproc": os.cpu_count(), "cpu": cpu, "seed": args.seed,
            "workload": args.workload, "seconds": args.seconds,
            "trace": args.trace, "corpus": run.corpus,
            "samples": run.samples}


def measure(args, run):
    """The timed part of a run; returns the metrics as name -> value."""
    setups = [run.setup() for _ in range(SETUP_REPS)]
    deadline = perf_counter() + args.seconds
    passes, ops, pairs, raw = [], [], [], []
    summaries, traced_walls = [], []
    sampler = None
    if args.trace:
        pass
    elif args.workload == "cli":
        sampler = speed.Sampler(speed.CHILD_NOMINAL_S)
        child = [sys.executable, speed.__file__]
        run.reference = lambda: sampler.samples.append(run.spawn(child)[2])
    else:
        sampler = speed.Ticker()
        run.clock = sampler.clock
    step = 0.0
    while not passes or perf_counter() + step / 2 <= deadline:
        start = perf_counter()
        setups.append(run.setup())
        audit_seed = run.rng.randrange(1, 2 ** 31) if run.reseed else 1
        run.audit_seeds.append(audit_seed)
        if sampler is None:
            times, _ = run.one_pass(audit_seed)
        else:
            with sampler:
                times, _ = run.one_pass(audit_seed)
            raw.append(sum(times))
            times = [t * sampler.factor() for t in times]
        passes.append(sum(times))
        ops.extend(times)
        if args.trace:
            traced_times, summary = run.one_pass(audit_seed, traced=True)
            traced_walls.append(sum(traced_times))
            summaries.append(summary)
            pairs.append(traced_walls[-1] - passes[-1])
        step = perf_counter() - start
    if not args.trace and len(set(run.audit_seeds)) == len(passes):
        run.one_pass(run.audit_seeds[0])
    print("# audit seeds: %s" % " ".join(map(str, run.audit_seeds)))
    print("# samples: %d set-ups, %d untraced passes, %d operations, %d "
          "traced passes" % (len(setups), len(passes), len(ops),
                             len(summaries)))
    if not args.trace:
        tail_value, tail_pct = tail(ops)
        print("# wall_s_tail is the %.1fth percentile of %d operation times"
              % (tail_pct, len(ops)))
        print("# uncorrected pass times (median %.4f s): %s"
              % (statistics.median(raw), " ".join("%.4f" % r for r in raw)))
        print("# speed factors: %s" % " ".join(
            "%.4f" % (p / r) for p, r in zip(passes, raw)))
        return {"setup_s": statistics.median(s[0] for s in setups),
                "wall_s": statistics.median(passes),
                "wall_s_tail": tail_value,
                "peak_rss_mb": peak_rss_mb(args.workload)}
    return layer_metrics(run, setups, summaries, traced_walls, pairs, ops)


def layer_metrics(run, setups, summaries, traced_walls, pairs, ops):
    """Per-layer metrics: self seconds are medians over traced passes;
    counts are those of the first traced pass, which the seed fixes."""
    from spans import layer_times
    per_pass = [layer_times(s["functions"]) for s in summaries]
    out = {}
    for layer in per_pass[0]:
        out[layer + "_s"] = statistics.median(p[layer] for p in per_pass)
    first = summaries[0]
    calls = {name: c for name, (c, _) in first["functions"].items()}

    def count(*names):
        return sum(calls.get(n, 0) for n in names)

    counts = first["counts"]
    kernels = "fusionaudit.exactlin._kernels."
    out.update({
        "corpus.algebras": counts["corpus.algebras"],
        "corpus.carrier_total": counts["corpus.carrier_total"],
        "corpus.max_grade_mult": counts["corpus.max_grade_mult"],
        "grothendieck.ring_checks": count(
            *("fusionaudit.grothendieck.is_%s_ring" % k
              for k in ("zplus", "based", "fusion"))),
        "gvec.tensor_mor_calls": count("fusionaudit.gvec.tensor_mor"),
        "gvec.tensor_obj_calls": count("fusionaudit.gvec.tensor_obj"),
        "gvec.compose_calls": count("fusionaudit.gvec.compose"),
        "exactlin.rref_calls": count(kernels + "rref"),
        "exactlin.matmul_calls": count(kernels + "matmul"),
        "exactlin.kron_calls": count(kernels + "kron"),
        "internal.restriction_calls": count(
            "fusionaudit.internal.restriction_data"),
        "morphcalc.solve_calls": counts["morphcalc.searched"],
        "morphcalc.found_frac": counts["morphcalc.found"]
        / max(counts["morphcalc.searched"], 1),
        "audit.report_bytes": counts["audit.report_bytes"],
        "cli.startup_s": statistics.median(s[1] for s in setups),
        "cli.command_s": statistics.median(
            ops if run.workload == "cli" else run.probe_commands()),
        "trace.overhead_s": statistics.median(pairs),
        "trace.uncovered_frac": statistics.median(
            1.0 - s["covered_s"] / wall
            for s, wall in zip(summaries, traced_walls)),
    })
    return out


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(SETTINGS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "fusionaudit", "__init__.py")):
        print("perfbench: no fusionaudit package under %s; run from the "
              "root of a checkout" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    run = Run(args.workload, args.seed)
    try:
        print("# env " + json.dumps(environment(args, run), sort_keys=True))
        values = measure(args, run)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    for (label, command, audit_seed), digest in sorted(run.digests.items()):
        print("# sha256 %s %s seed=%d %s"
              % (label, command, audit_seed, digest))
    print("# failed_frac %d/%d" % (run.failed, run.attempted))
    if set(values) != set(units):
        raise RuntimeError("measured %s but BENCHMARK.json declares %s"
                           % (sorted(values), sorted(units)))
    metrics = {name: {"value": values[name], "unit": units[name]}
               for name in units}
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
