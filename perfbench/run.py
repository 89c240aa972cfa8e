"""termrank benchmark: check, solve and fuzz at the ground cap.

Usage (from the repository root):

    python3 perfbench/run.py --workload check_cap --seed 1 --seconds 30 --trace 0

One process, one thread, a closed loop with one client: each op is a
``termrank`` CLI call made in-process through ``termrank.cli.main`` on one
generated instance, and the next op starts when the previous one returns.
The loop runs whole rounds (one instance per cell of the workload) until
``--seconds`` of op time have passed.  Before the loop, an untraced run
runs the known gaps (``gen.GAPS``), one draw per family at the op budget,
outside the timed ops.  After the loop every answer goes through the
correctness gate.  The last line of standard output is one
JSON object with the end-to-end metrics (``--trace 0``) or the per-layer
metrics (``--trace 1``).  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

import gate
import gen
import ops
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
WORKLOADS = ("check_cap", "solve_cap", "fuzz_cap")
SETUP_SPAWNS = 5  # cold starts before the timed loop
SETUP_SLICES = 16  # and one after the first round to end in each sixteenth of it
# Median time of probe() on the reference machine: a 2-vCPU shared Linux
# container running CPython 3.11.7.
PROBE_REFERENCE_MS = 0.36
TINY = {"mode": "ore", "S": ["s1"], "T": ["t1"], "m_S": {"s1": 1}, "m_T": {"t1": 1}}

# Per-op means over the traced ops.  Only layers that every workload reaches
# report a time here; cover and harness times, which are zero on some
# workloads, are printed with the full per-layer table and kept in the spans
# file.
PER_LAYER = (
    [(f"{m}.self_ms", "ms/op") for m in ("cli", "jsonio", "matroid", "setfun", "feasibility")]
    + [("matroid.build.ms", "ms/op"), ("matroid.build.count", "count/op"),
       ("matroid.rank_entries", "count/op"), ("setfun.classify.ms", "ms/op"),
       ("setfun.classify.pairs", "count/op"), ("setfun.lift.positive_sets", "count/op"),
       ("feasibility.calls", "count/op"), ("feasibility.ineq_evals", "count/op")]
    + [(f"feasibility.{c}.calls", "count/op") for c in tracer.CLI_CHECKERS]
    + [("cover.brute_nodes", "count/op")]
)


def load_termrank():
    """Import the package from ``src``; exit 2 when the checkout has no program."""
    if not (SRC / "termrank" / "cli.py").is_file():
        print(f"error: no termrank sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("termrank")
    for name in tracer.ALL_MODULES:
        importlib.import_module(f"termrank.{name}")
    return pkg


def probe() -> float:
    """Milliseconds a fixed pure-Python workload takes: the machine's speed now."""
    start = time.perf_counter()
    total = 0
    seen = {}
    for i in range(3000):
        total += (i * i) % 7
        seen[i & 127] = total
    return (time.perf_counter() - start) * 1e3


def cold_start_seconds(workdir: Path) -> float:
    """Wall time of a fresh ``termrank check`` process on a 1x1 instance."""
    path = workdir / "tiny.json"
    path.write_text(json.dumps(TINY))
    extra = [os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC)] + extra))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "termrank.cli", "check", str(path)],
                          env=env, cwd=ROOT, capture_output=True, timeout=60)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit(f"cold start failed: {proc.stderr.decode()[-400:]}")
    return elapsed


def argv_for(case, path: Path) -> list[str]:
    if case.cmd == "fuzz":
        bound = str(gen.FUZZ_BOUND)
        return ["fuzz", "--seed", str(case.data["seed"]), "--count", "1",
                "--max-s", bound, "--max-t", bound, "--modes", case.data["mode"]]
    argv = [case.cmd, str(path)]
    if case.cmd == "solve":
        argv += ["--route", "cover"]
    return argv


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolated (statistics' inclusive method)."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class Run:
    def __init__(self, args, termrank):
        self.args = args
        self.main = termrank.cli.main
        self.termrank = termrank
        self.workdir = WORK / f"{args.workload}-s{args.seed}-t{args.trace}-p{os.getpid()}"
        self.cases: list = []
        self.ops: list = []  # untraced executions
        self.gap_ops: list = []  # the known-gaps probe, not among the measured ops
        self.traced_ops: list = []
        self.span_log: list = []
        self.layer = defaultdict(float)
        self.probes: list[float] = []
        self.unaccounted: list[float] = []  # per traced op: wall time minus summed self times
        self.timed = 0.0
        self.rounds = 0
        self.round_size = 0  # cases per timed round
        self.setup_times: list[float] = []

    def add_case(self, case) -> tuple[int, list[str]]:
        """Register ``case`` and write its instance file; its index and argv."""
        idx = len(self.cases)
        self.cases.append(case)
        path = self.workdir / f"case{idx}.json"
        if case.cmd != "fuzz":
            path.write_text(json.dumps(case.data))
        return idx, argv_for(case, path)

    def run_round(self, spans: tracer.Tracer | None) -> None:
        todo = []
        for case in gen.ROUNDS[self.args.workload](self.args.seed, self.rounds):
            idx, argv = self.add_case(case)
            todo.append((idx, case.cmd, argv))
        start = time.perf_counter()
        probed = 0.0
        for k, (idx, cmd, argv) in enumerate(todo):
            self.probes.append(probe())
            probed += self.probes[-1] / 1e3
            if spans is None:
                self.ops.append(ops.run_op(self.main, argv, cmd, idx))
                self.ops[-1].probe_ms = self.probes[-1]
                continue
            # Paired executions, alternating which goes first, give the
            # overhead; the untraced one runs the program without wrappers.
            for traced in ((False, True) if k % 2 == 0 else (True, False)):
                if not traced:
                    self.ops.append(ops.run_op(self.main, argv, cmd, idx))
                    continue
                spans.install()
                try:
                    op = ops.run_op(functools.partial(spans.root, self.main), argv, cmd, idx)
                finally:
                    spans.uninstall()
                self.record_spans(spans.take(), op)
                self.traced_ops.append(op)
        self.timed += time.perf_counter() - start - probed
        self.rounds += 1
        self.round_size = len(todo)

    def run_gaps(self) -> None:
        """One draw of each known gap, stopped at the op budget (ops.py)."""
        for case in gen.ROUNDS[self.args.workload](self.args.seed, gen.GAP_ROUND, gaps=True):
            idx, argv = self.add_case(case)
            self.gap_ops.append(ops.run_op(self.main, argv, case.cmd, idx, ops.BUDGET_S[case.cmd]))

    def record_spans(self, spans: list[list], op) -> None:
        tracer.summarize(spans, self.layer)
        root = spans[0]
        self.unaccounted.append(op.elapsed - sum(tracer.self_times(spans)))
        self.span_log.append([[s[0], s[1], round((s[2] - root[2]) * 1e6, 1),
                               round((s[3] - s[2]) * 1e6, 1), s[4]] for s in spans])

    def execute(self) -> dict:
        self.workdir.mkdir(parents=True, exist_ok=True)
        try:
            spans = tracer.Tracer() if self.args.trace else None
            untraced = not self.args.trace
            if untraced:
                # Outside the timed loop, the known gaps also warm the process up.
                self.run_gaps()
                self.setup_times += [cold_start_seconds(self.workdir) for _ in range(SETUP_SPAWNS)]
            next_spawn = slice_s = self.args.seconds / SETUP_SLICES
            while self.timed < self.args.seconds:
                self.run_round(spans)
                if untraced and self.timed >= next_spawn:
                    # Cold starts spread over the run make setup_s a median
                    # over its whole length, not over one moment of the host.
                    self.setup_times.append(cold_start_seconds(self.workdir))
                    next_spawn = self.timed + slice_s
            setup_s = statistics.median(self.setup_times) if untraced else None
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            checker = gate.Gate(self.termrank)
            for op in self.ops + self.traced_ops + self.gap_ops:
                checker.check_op(op, self.cases[op.case])
        finally:
            shutil.rmtree(self.workdir, ignore_errors=True)
        return self.report(setup_s, peak_rss_mb, checker)

    # -- reporting -------------------------------------------------------------

    def report(self, setup_s, peak_rss_mb, checker) -> dict:
        args = self.args
        measured = self.traced_ops if args.trace else self.ops
        attempted = len(measured)
        failed = [op for op in measured if op.cause is not None]
        wrong = [op for op in self.ops + self.traced_ops + self.gap_ops if op.wrong]
        over = [op for op in measured if op.elapsed > ops.BUDGET_S[op.cmd]]
        self.write_records()
        print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
              f"{self.rounds} rounds, {attempted} ops in {self.timed:.3f} s of op time")
        print(f"failed {len(failed)} of {attempted} (failed_frac {len(failed) / attempted:.4f}); "
              f"causes {dict(Counter(op.cause for op in failed))}")
        print(f"over budget {len(over)} of {attempted} (budgets {ops.BUDGET_S} s; not failed)")
        for op in self.gap_ops:
            print(f"known gap {self.cases[op.case].family}: {op.cause or op.verdict or 'answered'} after "
                  f"{op.elapsed * 1e3:.0f} ms (budget {ops.BUDGET_S[op.cmd]:g} s; not timed, "
                  f"not counted in attempted)")
        print(f"wrong answers {len(wrong)}; gate {dict(sorted(checker.tally.items()))}")
        loc = {f.stem: len(f.read_text().splitlines()) for f in sorted((SRC / "termrank").glob("*.py"))}
        print(f"loc (not gated) total {sum(loc.values())}: "
              + " ".join(f"{name}.loc={n}" for name, n in loc.items()))
        digests = self.round_digests()
        print(f"work counters of the first {min(len(digests), 10)} of {len(digests)} rounds "
              f"(sha1/8): {' '.join(digests[:10])}")
        if args.trace:
            metrics = self.layer_metrics()
        else:
            metrics = self.end_to_end(setup_s, peak_rss_mb)
        for name, m in metrics.items():
            count = f" (n={m.pop('n')})" if "n" in m else ""
            print(f"  {name} = {m['value']:.6g} {m['unit']}{count}")
        return {"correct": not wrong, "attempted": attempted, "failed": len(failed),
                "metrics": metrics}

    def end_to_end(self, setup_s, peak_rss_mb) -> dict:
        """The end-to-end metrics; ``n`` is each one's sample count.

        Op times and ``setup_s`` are scaled to the reference machine's
        speed.  The shared host this benchmark was built on ran the same op
        stream up to 1.5x slower for minutes at a time, which moved every op
        time together, and the cold starts with them.  A fixed probe, timed
        before every op, measures the speed of the run; dividing by its
        median over the reference median removes that drift (README.md gives
        the measurement).  What the machine does not set stays as measured:
        the deadlines in failed ops' latencies (``OpResult.latency``).  The
        raw figures are printed above the JSON.

        Central latencies are geometric means: a round mixes cells whose
        latencies differ by 100x, and the median of such a mix falls in the
        gap between clusters, where it jumps with the draw.
        """
        speed = statistics.median(self.probes) / PROBE_REFERENCE_MS
        raw = self.figures(setup_s, 1.0)
        print(f"speed factor {speed:.4f} (probe median {statistics.median(self.probes):.4f} ms "
              f"over {len(self.probes)} probes); raw: "
              + ", ".join(f"{k} {m['value']:.5g}" for k, m in raw.items()))
        lat = sorted(op.latency() * 1e3 for op in self.ops)
        print(f"raw medians: op {quantile(lat, 50):.4g} ms; peak RSS {peak_rss_mb:.4g} MB "
              f"(not gated)")
        return self.figures(setup_s, speed)

    def figures(self, setup_s, speed) -> dict:
        """The end-to-end metrics, with op times and ``setup_s`` divided by ``speed``."""
        lat = sorted(op.latency(speed) * 1e3 for op in self.ops)
        ok = [op for op in self.ops if op.cause is None]
        by_verdict = {v: [op.latency(speed) * 1e3 for op in self.ops if op.verdict == v]
                      for v in ("feasible", "infeasible")}
        if not all(by_verdict.values()):
            raise SystemExit("a verdict class has no ops; the workload is mis-specified")
        feas, infeas = by_verdict["feasible"], by_verdict["infeasible"]
        metrics = {
            "setup_s": (setup_s / speed, "s", len(self.setup_times)),
            "ops_per_s": (len(ok) / sum(op.own_time(speed) for op in self.ops), "1/s", len(lat)),
            "op_gmean_ms": (statistics.geometric_mean(lat), "ms", len(lat)),
            "op_p95_ms": (quantile(lat, 95), "ms", len(lat)),
            "feasible_gmean_ms": (statistics.geometric_mean(feas), "ms", len(feas)),
            "infeasible_gmean_ms": (statistics.geometric_mean(infeas), "ms", len(infeas)),
        }
        return {name: {"value": value, "unit": unit, "n": n}
                for name, (value, unit, n) in metrics.items()}

    def layer_metrics(self) -> dict:
        n = len(self.traced_ops)
        totals = self.layer
        covers = [op.counters for op in self.traced_ops if "cover_size" in op.counters]
        for op in self.traced_ops:
            totals["feasibility.ineq_evals"] += op.counters.get("ineq_evals", 0)
            totals["cover.brute_nodes"] += op.counters.get("brute_nodes", 0)
        pairs = [(u, t) for u, t in zip(self.ops, self.traced_ops)
                 if u.cause is None and t.cause is None]
        untraced = sum(u.elapsed for u, _ in pairs)
        traced = sum(t.elapsed for _, t in pairs)
        overhead = traced / untraced - 1
        # Summed self times against each traced op's own wall time, measured
        # around the whole in-process call.  The tolerance is the size of the
        # overhead: on a few slow ops the paired difference can come out
        # negative.
        gaps = [abs(gap) / op.elapsed for gap, op in zip(self.unaccounted, self.traced_ops)]
        beyond = sum(g > abs(overhead) for g in gaps)
        unaccounted = sum(map(abs, self.unaccounted)) / sum(op.elapsed for op in self.traced_ops)
        print(f"tracing: ops_per_s traced {len(pairs) / traced:.4g}, untraced "
              f"{len(pairs) / untraced:.4g} over {len(pairs)} paired ops "
              f"(overhead {overhead:.4f})")
        print(f"self times: summed per op, they miss the op's wall time by {unaccounted:.4f} "
              f"of all traced op time (worst op {max(gaps):.4f}); {beyond} of {len(gaps)} ops "
              f"miss it by more than the tracing overhead"
              + (" -- WARNING: spans do not account for those ops" if beyond else ""))
        if covers:
            optimal = sum(c["cover_greedy"] == c["cover_size"] for c in covers)
            print(f"cover.greedy_optimal_frac = {optimal / len(covers):.4g} (n={len(covers)})")
        print("per-layer totals per traced op:")
        for key in sorted(totals):
            print(f"  {key} = {totals[key] / n:.6g}")
        metrics = {name: {"value": totals.get(name, 0.0) / n, "unit": unit}
                   for name, unit in PER_LAYER}
        metrics["trace.overhead_frac"] = {"value": overhead, "unit": "frac"}
        metrics["trace.unaccounted_frac"] = {"value": unaccounted, "unit": "frac"}
        return metrics

    def round_digests(self) -> list[str]:
        """Hash of each round's work counters; the same seed gives the same hashes."""
        rounds: list[list] = [[] for _ in range(self.rounds)]
        for k, op in enumerate(self.ops):
            rounds[k // self.round_size].append([op.case, op.counters])
        return [hashlib.sha1(json.dumps(r, sort_keys=True).encode()).hexdigest()[:8]
                for r in rounds]

    def write_records(self) -> None:
        """Per-op timings with work counters, and the spans of a traced run."""
        out = WORK / "results"
        out.mkdir(parents=True, exist_ok=True)
        stem = f"{self.args.workload}-s{self.args.seed}-t{self.args.trace}"
        with open(out / f"{stem}.ops.jsonl", "w") as fh:
            gaps = {op.case for op in self.gap_ops}
            for op in self.gap_ops + self.ops + self.traced_ops:
                fh.write(json.dumps({
                    "case": op.case, "family": self.cases[op.case].family, "cmd": op.cmd,
                    "gap": op.case in gaps,
                    "ms": op.elapsed * 1e3, "probe_ms": op.probe_ms, "rc": op.rc, "verdict": op.verdict,
                    "cause": op.cause, "counters": op.counters,
                }) + "\n")
        if self.span_log:
            with open(out / f"{stem}.spans.jsonl", "w") as fh:
                for op, spans in zip(self.traced_ops, self.span_log):
                    fh.write(json.dumps({"case": op.case, "spans": spans}) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = Run(args, load_termrank()).execute()
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
