"""The three benchmark workloads: inputs, operations and exact answer checks.

Each workload builds its inputs from the seed once, then exposes ``ops``,
a fixed list of zero-argument calls into the package's public entry
points. The runner times every call; everything else here (parsing CLI
output, recomputing bounds, tampering with answers) runs outside the
timed region.

``check(outputs)`` returns, per operation, ``(error, extra)``: ``error``
is None for a correct answer, ``extra`` a tuple of deterministic
counters derived from the answer. ``tamper_check(outputs)`` feeds the
checker a deliberately wrong answer and returns a problem string when
the checker fails to catch it. ``layer_counters(counters)`` turns the
runner's per-operation ``(nodes, witness checks, extra)`` counters into
the ``adversary`` per-layer counts.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from functools import partial
from pathlib import Path

from mmsvote import cli, model, rules, shares, verify


def _matrix_text(rows) -> str:
    return f"{len(rows)} {len(rows[0])}\n" + "".join("".join(map(str, r)) + "\n" for r in rows)


def _floor_rds(rows) -> list[int]:
    """floor of each agent's random dictator share, recomputed here from the bits."""
    n = len(rows)
    columns = list(zip(*rows))
    return [sum(sum(1 for b in col if b == col[i]) for col in columns) // n for i in range(n)]


def _call_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _cli_field(text: str, name: str) -> tuple[int, ...]:
    for line in text.splitlines():
        if line.startswith(name + ": "):
            return tuple(int(v) for v in line[len(name) + 2:].split())
    raise ValueError(f"no {name!r} line in CLI output")


class Workload:
    """Inputs built from a seed, a fixed list of operations, and their checks."""

    name: str
    ops: list

    def layer_counters(self, counters) -> dict[str, int]:
        return {"adversary.columns_fed": 0, "adversary.witness_checks": 0}


# ---------------------------------------------------------------------------
# sweep: many tiny instances through run_rule + audit

SWEEP_OPS = 3000


def _sweep_op(rule: str, text: str):
    matrix = model.parse_matrix(text)
    transcript = rules.run_rule(rule, matrix)
    report = verify.audit(matrix, transcript.outcome)
    return transcript.outcome, report.utilities, report.mms_adapt, report.alpha_adapt


class Sweep(Workload):
    """Random ptrr3 (3 agents, 1-10 decisions) and deferred4 (4 agents,
    1-8 decisions) instances, about half each; both rules guarantee the
    full adaptive share, so every audit must reach alpha >= 1."""

    name = "sweep"

    def __init__(self, seed: int, workdir: Path):
        rng = random.Random(seed)
        self.cases = []
        for _ in range(SWEEP_OPS):
            if rng.random() < 0.5:
                rule, n, m = "ptrr3", 3, rng.randint(1, 10)
            else:
                rule, n, m = "deferred4", 4, rng.randint(1, 8)
            rows = tuple(tuple(rng.randint(0, 1) for _ in range(m)) for _ in range(n))
            self.cases.append((rule, rows))
        self.ops = [partial(_sweep_op, rule, _matrix_text(rows)) for rule, rows in self.cases]

    def _check_one(self, rows, output) -> str | None:
        outcome, utilities, mms, alpha = output
        if len(mms) != len(rows):
            return f"{len(mms)} shares for {len(rows)} agents"
        expected = tuple(sum(1 for b, o in zip(row, outcome) if b == o) for row in rows)
        if utilities != expected:
            return f"utilities {utilities} != recomputed {expected}"
        if alpha is not None and alpha < 1:
            return f"alpha_adapt {alpha} < 1"
        bound = _floor_rds(rows)
        for i, share in enumerate(mms):
            if share > bound[i]:
                return f"agent {i + 1}: share {share} > floor(RDS) {bound[i]}"
            if utilities[i] < share:
                return f"agent {i + 1}: utility {utilities[i]} < share {share}"
        return None

    def check(self, outputs):
        return [
            (repr(out) if isinstance(out, Exception) else self._check_one(rows, out), ())
            for (_, rows), out in zip(self.cases, outputs)
        ]

    def tamper_check(self, outputs) -> str | None:
        rows = self.cases[0][1]
        outcome, utilities, mms, alpha = outputs[0]
        raised = (_floor_rds(rows)[0] + 1,) + tuple(mms[1:])
        if self._check_one(rows, (outcome, utilities, raised, alpha)) is None:
            return "a share above floor(RDS) passed the sweep check"
        return None


# ---------------------------------------------------------------------------
# shares: a few instances where the partition search is expensive

# 7 agents; each type has a pair of agents in the minority, 4 columns each
STRUCTURED_PAIRS = ((1, 2), (3, 4), (5, 6))
RANDOM_SHAPES = ((6, 12), (7, 10), (8, 10))
# The random instances are drawn once from this fixed seed; the run's seed
# reorders their decisions. The search works on the type census, which the
# order does not change, so every seed does the same kernel work and the
# run-to-run spread is timing noise, not instance difficulty.
CORPUS_SEED = 20240817


def _shares_instances():
    structured = [
        tuple(0 if a in pair else 1 for a in range(1, 8)) for pair in STRUCTURED_PAIRS for _ in range(4)
    ]
    instances = [tuple(zip(*structured))]
    rng = random.Random(CORPUS_SEED)
    for n, m in RANDOM_SHAPES:
        instances.append(tuple(tuple(rng.randint(0, 1) for _ in range(m)) for _ in range(n)))
    return instances


class Shares(Workload):
    """``mmsvote shares --input <file>`` in-process on search-heavy instances."""

    name = "shares"

    def __init__(self, seed: int, workdir: Path):
        rng = random.Random(seed)
        self.instances = []
        self.ops = []
        for k, rows in enumerate(_shares_instances()):
            order = list(range(len(rows[0])))
            rng.shuffle(order)
            rows = tuple(tuple(row[j] for j in order) for row in rows)
            path = workdir / f"shares-{k}.txt"
            path.write_text(_matrix_text(rows))
            self.instances.append(rows)
            self.ops.append(partial(_call_cli, ["shares", "--input", str(path)]))

    def _check_one(self, rows, code, mms, bound) -> str | None:
        if code != 0:
            return f"exit code {code}"
        if len(mms) != len(rows):
            return f"{len(mms)} shares for {len(rows)} agents"
        matrix = model.PreferenceMatrix.from_rows(rows)
        if bound != tuple(_floor_rds(rows)):
            return f"uniform_bound {bound} != recomputed {_floor_rds(rows)}"
        for i, share in enumerate(mms):
            witness = shares.partition_guarantee(matrix, i, shares.mms_partition(matrix, i))
            if share != witness:
                return f"agent {i + 1}: share {share} != witness guarantee {witness}"
            if share > bound[i]:
                return f"agent {i + 1}: share {share} > uniform_bound {bound[i]}"
        return None

    def _parse(self, output):
        code, text = output
        if code != 0:
            return code, (), ()
        return code, _cli_field(text, "mms_adapt"), _cli_field(text, "uniform_bound")

    def check(self, outputs):
        results = []
        for rows, out in zip(self.instances, outputs):
            if isinstance(out, Exception):
                results.append((repr(out), ()))
                continue
            try:
                results.append((self._check_one(rows, *self._parse(out)), ()))
            except ValueError as exc:
                results.append((f"unreadable output: {exc}", ()))
        return results

    def tamper_check(self, outputs) -> str | None:
        code, mms, bound = self._parse(outputs[0])
        off_by_one = (mms[0] + 1,) + mms[1:]
        if self._check_one(self.instances[0], code, off_by_one, bound) is None:
            return "a share off by one passed the shares check"
        return None


# ---------------------------------------------------------------------------
# attack: staged adversary, then certificate verification

ATTACK_RULES = ("majority", "ptrr-generalized")
ATTACK_AGENTS = (7, 8, 9, 10)


class Attack(Workload):
    """``mmsvote attack`` writes a certificate, ``mmsvote verify`` checks it.
    The attack is deterministic; the seed changes nothing here."""

    name = "attack"

    def __init__(self, seed: int, workdir: Path):
        self.workdir = workdir
        self.plan = []  # (kind, rule, n, certificate path), one per op
        self.ops = []
        for rule in ATTACK_RULES:
            for n in ATTACK_AGENTS:
                cert = workdir / f"{rule}-{n}.json"
                self.plan.append(("attack", rule, n, cert))
                self.ops.append(partial(
                    _call_cli, ["attack", "--rule", rule, "--agents", str(n), "--out", str(cert)]
                ))
                self.plan.append(("verify", rule, n, cert))
                self.ops.append(partial(_call_cli, ["verify", "--certificate", str(cert)]))

    def check(self, outputs):
        results = []
        for (kind, rule, n, cert), out in zip(self.plan, outputs):
            if isinstance(out, Exception):
                results.append((repr(out), (0,)))
                continue
            code, text = out
            if code != 0:
                results.append((f"{kind} {rule} n={n}: exit code {code}", (0,)))
            elif kind == "verify":
                ok = text.strip() == "valid"
                results.append((None if ok else f"verify {rule} n={n}: {text.strip()!r}", (0,)))
            else:
                try:
                    blob = json.loads(cert.read_text())
                    header = blob["instance"].split("\n", 1)[0].split()
                    ok = int(header[0]) == n and blob["achieved"] < blob["guarantee"]
                    # columns fed: the certificate is cut right after the column that broke the rule
                    fed = int(header[1])
                except (ValueError, KeyError, IndexError, TypeError):
                    ok, fed = False, 0
                results.append((None if ok else f"attack {rule} n={n}: bad certificate", (fed,)))
        return results

    def tamper_check(self, outputs) -> str | None:
        blob = json.loads(self.plan[0][3].read_text())
        blob["achieved"] += 1
        tampered = self.workdir / "tampered.json"
        tampered.write_text(json.dumps(blob))
        code, text = _call_cli(["verify", "--certificate", str(tampered)])
        if code != 1 or text.strip() != "invalid":
            return f"a certificate with achieved raised gave exit {code}, {text.strip()!r}"
        return None

    def layer_counters(self, counters) -> dict[str, int]:
        attacks = [c for step, c in zip(self.plan, counters) if step[0] == "attack"]
        return {
            "adversary.columns_fed": sum(extra[0] for _, _, extra in attacks),
            "adversary.witness_checks": sum(checks for _, checks, _ in attacks),
        }


WORKLOADS = {w.name: w for w in (Sweep, Shares, Attack)}
