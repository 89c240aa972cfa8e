"""Correctness gate, run after the timed region.

Every instance's verdict is known by construction (see gen.py), and every
answer is checked against evidence that does not come from the checker that
produced it:

- the verdict must equal the constructed one, and the exit code must match
  the verdict;
- an infeasible answer must carry a certificate whose left-hand side,
  recomputed from scratch with ``recompute_lhs``, equals the reported value
  and exceeds the right-hand side;
- a ``solve`` witness must pass ``validate_witness`` and, for the term-rank
  modes, ``validate_matching``;
- the planted graph of a feasible instance must pass ``validate_witness``
  (for ``brualdi``: its planted matching must pass ``validate_matching``),
  which checks the construction itself;
- ``brualdi`` verdicts are also compared with the harness's naive
  basis-matching oracle;
- a fuzz report must exit 0 with ``discrepancy_count == 0``; the harness
  compares each fuzz verdict with ``construct_brute`` and its other oracles.
"""

from __future__ import annotations

import contextlib
from collections import Counter

from ops import EXIT_FEASIBLE, EXIT_INFEASIBLE

# causes that mean a wrong answer, not just a failed op
WRONG = ("wrong_verdict", "wrong_exit_code", "bad_certificate", "bad_witness", "discrepancy")


class Gate:
    def __init__(self, termrank):
        self.t = termrank
        self.instances: dict[int, tuple] = {}
        self.answers: dict[tuple[int, str], str | None] = {}
        self.tally = Counter()

    def check_op(self, op, case) -> None:
        """Set ``op.cause``, ``op.wrong`` and ``op.verdict``."""
        if op.error is not None:
            op.cause = "timeout" if op.error == "timeout" else f"exception:{op.error}"
            op.verdict = case.expect if case.cmd != "fuzz" else None
            return
        report = op.payload
        if report is None:
            # No report: exit 1 with nothing on stdout is the CLI's bare
            # "infeasible" answer (an InfeasibleError); any other code is a
            # refusal of a valid instance.
            op.verdict = {EXIT_FEASIBLE: "feasible", EXIT_INFEASIBLE: "infeasible"}.get(op.rc)
            if op.verdict is not None and case.cmd != "fuzz" and op.verdict != case.expect:
                op.cause, op.wrong = "wrong_verdict", True
            else:
                op.cause = f"exit_code:{op.rc}"
            return
        if case.cmd == "fuzz":
            if op.rc != EXIT_FEASIBLE or report["discrepancy_count"] != 0:
                op.cause, op.wrong = "discrepancy", True
            op.counters = report["counters"]
            op.verdict = fuzz_verdict(op.counters)
            return
        stats = report.get("stats", {})
        op.counters = {k: stats[k] for k in ("ineq_evals", "brute_nodes", "cover_greedy", "cover_size")
                       if k in stats}
        op.verdict = report["verdict"]
        key = (op.case, op.stdout)
        if key not in self.answers:
            self.answers[key] = self._judge(op.case, case, op.rc, report)
        op.cause = self.answers[key]
        op.wrong = op.cause in WRONG

    # -- instances -------------------------------------------------------------

    def _instance(self, idx: int, case):
        """(mode, instance as loaded, instance the solver works on)."""
        if idx not in self.instances:
            with self._tables_trusted():
                mode, inst = self.t.jsonio.load_instance(case.data)
                work = inst
                if mode == "ryser":
                    # the classic mode is solved as ryser_gen with uniform matroids
                    m = self.t.matroid.Matroid
                    work = self.t.feasibility.Instance.make(
                        inst.grounds, initial=inst.initial, degrees=inst.degrees,
                        matroid_s=m.uniform(inst.grounds.s_ids, inst.target_rank),
                        matroid_t=m.uniform(inst.grounds.t_ids, inst.target_rank),
                        target_rank=inst.target_rank,
                    )
            self.instances[idx] = (mode, inst, work)
        return self.instances[idx]

    @contextlib.contextmanager
    def _tables_trusted(self):
        """Skip rank-axiom validation while the gate re-parses instances.

        The tables are valid by construction and the op already validated
        every one it loaded; the gate parses the same files again only to
        get instance objects.
        """
        module = self.t.matroid
        original = module.validate_rank_table
        module.validate_rank_table = lambda n, rank: None
        try:
            yield
        finally:
            module.validate_rank_table = original

    def _pairs(self, grounds, names):
        return [(grounds.s_index[a], grounds.t_index[b]) for a, b in names]

    def _cert(self, data: dict, grounds):
        s_mask, t_mask = grounds.s_mask_of, grounds.t_mask_of
        return self.t.feasibility.ViolationCert(
            which=data["which"],
            x=s_mask(data["X"]),
            y=t_mask(data["Y"]),
            parts=tuple(t_mask(p) for p in data["parts"]),
            xp=None if data["Xp"] is None else s_mask(data["Xp"]),
            yp=None if data["Yp"] is None else t_mask(data["Yp"]),
            lhs=data["lhs"],
            rhs=data["rhs"],
        )

    # -- the checks ------------------------------------------------------------

    def _judge(self, idx, case, rc, report) -> str | None:
        verdict = report["verdict"]
        expected_rc = {"feasible": EXIT_FEASIBLE, "infeasible": EXIT_INFEASIBLE}.get(verdict)
        if expected_rc != rc:
            return "wrong_exit_code"
        mode, inst, work = self._instance(idx, case)
        subject = work if mode == "ryser" else inst
        h = self.t.harness
        if case.expect == "feasible":
            self._check_plant(case, mode, inst, subject)
        if mode == "brualdi":
            oracle = h._naive_basis_matching(inst.initial, inst.matroid_s, inst.matroid_t)
            if oracle != (verdict == "feasible"):
                return "wrong_verdict"
            self.tally["naive_oracle_agreed"] += 1
        if verdict != case.expect:
            return "wrong_verdict"
        if verdict == "infeasible":
            cert = report["certificate"]
            if cert is None:
                return "bad_certificate"
            try:
                lhs = self.t.feasibility.recompute_lhs(self._cert(cert, inst.grounds), subject)
            except self.t.errors.TermrankError:
                return "bad_certificate"
            if lhs != cert["lhs"] or lhs <= cert["rhs"]:
                return "bad_certificate"
            self.tally["certificates_recomputed"] += 1
            return None
        if case.cmd != "solve":
            return None
        witness = report["witness"] or {}
        graph = None
        problems = []
        if "edges" in witness:
            graph = self.t.bigraph.Bigraph.from_names(inst.grounds, witness["edges"])
            problems += h.validate_witness(subject, graph)
        if "matching" in witness:
            host = inst.initial if graph is None else self.t.bigraph.graph_union(graph, inst.initial)
            problems += h.validate_matching(host, subject.matroid_s, subject.matroid_t,
                                            self._pairs(inst.grounds, witness["matching"]))
        elif mode in ("ryser", "ryser_gen"):
            problems.append("no matching in a term-rank witness")
        if graph is None:
            problems.append("no edges in the witness")
        if problems:
            return "bad_witness"
        self.tally["witnesses_validated"] += 1
        return None

    def _check_plant(self, case, mode, inst, subject) -> None:
        """A feasible instance's construction must hold up; otherwise the bench is wrong."""
        h = self.t.harness
        if mode == "brualdi":
            problems = h.validate_matching(inst.initial, inst.matroid_s, inst.matroid_t,
                                           self._pairs(inst.grounds, case.matching))
        else:
            graph = self.t.bigraph.Bigraph.from_names(inst.grounds, case.planted)
            problems = h.validate_witness(subject, graph)
        if problems:
            raise SystemExit(f"generator error: {case.family} plant fails: {problems[:3]}")
        self.tally["plants_validated"] += 1


def fuzz_verdict(counters: dict) -> str | None:
    """The verdict of a one-instance fuzz report, read off its counters."""
    if any(k.endswith("_infeasible") for k in counters):
        return "infeasible"
    if any(k.endswith("_feasible") for k in counters):
        return "feasible"
    if counters.get("certs_rechecked"):
        return "infeasible"
    if counters.get("witnesses_validated"):
        return "feasible"
    return None
