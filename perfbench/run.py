#!/usr/bin/env python3
"""mmsvote benchmark: closed-loop, single-process, single-thread.

Run from the root of a checkout:

    python3 perfbench/run.py --workload {sweep,shares,attack} --seed N \
        --seconds S --trace {0,1}

Each repetition runs the workload's fixed operation list once, one call
after another, starting from empty solver caches as a fresh ``mmsvote``
process would. Repetitions fill ``--seconds``; at least two are run.
Every answer is checked exactly; deterministic counters (search nodes,
witness checks, columns fed) must repeat exactly across repetitions.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` spends half
the time untraced and half with every public function of the package's
layer modules wrapped in spans, and prints the per-layer metrics plus
``trace.overhead_s``. The last stdout line is the JSON result; the line
before it holds ungated context (seed, Python, nproc, backend, ``src/``
line count, counters digest). The exit code is 1 when a check fails,
2 when the package source or BENCHMARK.json is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from array import array
from pathlib import Path
from time import perf_counter

from tracer import LAYERS, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

MIN_REPS = 2
SETUP_BATCH = 4
# stop starting repetitions past this point so that a run ends within 180 s
HARD_DEADLINE_S = 140.0


def _fail_setup(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def _import_package():
    if not (SRC / "mmsvote" / "__init__.py").is_file():
        _fail_setup(f"no package source at {SRC / 'mmsvote'}; run from a checkout root")
    sys.path.insert(0, str(SRC))
    import mmsvote

    if Path(mmsvote.__file__).resolve().parent != SRC / "mmsvote":
        _fail_setup(f"imported mmsvote from {mmsvote.__file__}, not from {SRC}")
    for layer in LAYERS:
        importlib.import_module(f"mmsvote.{layer}")


def _clear_caches() -> None:
    """Empty every functools cache in the package: a fresh process starts cold."""
    for name, module in list(sys.modules.items()):
        if name.startswith("mmsvote") and module is not None:
            for value in list(vars(module).values()):
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def _cache_stats(module) -> tuple[int, int]:
    hits = misses = 0
    for value in vars(module).values():
        info = getattr(value, "cache_info", None)
        if callable(info):
            stats = info()
            hits, misses = hits + stats.hits, misses + stats.misses
    return hits, misses


class ColdStarts:
    """Cold starts of a fresh interpreter running ``import mmsvote.cli``.

    They are taken in batches spread over the run, one before each
    repetition and one after the last, and reported as their lower
    quartile: a burst of contention on the shared host slows the batches
    it overlaps, not the fastest quarter of the run's cold starts.
    """

    def __init__(self):
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), self.env.get("PYTHONPATH")]))
        self.command = [sys.executable, "-c", "import mmsvote.cli"]
        self.samples: list[float] = []
        # writes bytecode caches; not counted
        subprocess.run(self.command, env=self.env, cwd=ROOT, check=True, timeout=60)

    def take_batch(self) -> None:
        for _ in range(SETUP_BATCH):
            # No timeout here: with one, subprocess polls for the child's exit
            # with sleeps of up to 50 ms, which rounds every time up to a step.
            start = perf_counter()
            subprocess.run(self.command, env=self.env, cwd=ROOT, check=True)
            self.samples.append(perf_counter() - start)

    def lower_quartile(self) -> float:
        return statistics.quantiles(self.samples, n=4, method="inclusive")[0]


class Rep:
    """One timed pass over the operation list.

    Answers and counters are checked against the first repetition
    (``reference``) and then dropped, so memory does not grow with the
    number of repetitions.
    """

    def __init__(self, workload, tracer, reference: "Rep | None"):
        from mmsvote import shares

        ops = workload.ops
        self.op_s = array("d", bytes(8 * len(ops)))
        outputs: list = [None] * len(ops)
        nodes = [0] * len(ops)
        checks = [0] * len(ops)
        _clear_caches()
        tracer.reset()
        with tracer.record():
            start = perf_counter()
            for k, op in enumerate(ops):
                n0, c0 = tracer.nodes, tracer.calls["shares.partition_guarantee"]
                t0 = perf_counter()
                try:
                    outputs[k] = op()
                except Exception as exc:  # a failed operation; counted, not fatal
                    outputs[k] = exc
                self.op_s[k] = perf_counter() - t0
                nodes[k] = tracer.nodes - n0
                checks[k] = tracer.calls["shares.partition_guarantee"] - c0
            self.wall_s = perf_counter() - start
        self.cache_hits, self.cache_misses = _cache_stats(shares)
        self.trace = tracer.snapshot() if tracer.timing else None
        results = workload.check(outputs)
        counters = [(n, c, extra) for n, c, (_, extra) in zip(nodes, checks, results)]
        self.layer_counts = workload.layer_counters(counters)
        self.errors = []
        for k, (err, _) in enumerate(results):
            if err is None and reference is not None:
                if counters[k] != reference.counters[k]:
                    err = f"counters {counters[k]} differ from the first repetition's {reference.counters[k]}"
                elif repr(outputs[k]) != reference.answers[k]:
                    err = "answer differs from the first repetition's"
            if err is not None:
                self.errors.append(f"op {k}: {err}")
        first = reference is None
        self.counters = counters if first else None
        self.outputs = outputs if first else None
        self.answers = [repr(out) for out in outputs] if first else None


def _run_reps(workload, tracer, seconds: float, started: float,
              reference: Rep | None = None, cold_starts: ColdStarts | None = None) -> list[Rep]:
    """At least MIN_REPS repetitions; past that, only those expected to end within ``seconds``.

    With ``cold_starts``, a batch of cold starts is taken before each
    repetition and after the last one.
    """
    reps: list[Rep] = []
    with tracer.installed():
        begin = perf_counter()
        while True:
            if len(reps) >= MIN_REPS:
                expected_end = perf_counter() + statistics.median(rep.wall_s for rep in reps)
                if expected_end - begin > seconds or expected_end - started > HARD_DEADLINE_S:
                    break
            if cold_starts is not None:
                cold_starts.take_batch()
            reps.append(Rep(workload, tracer, reference))
            reference = reference or reps[0]
    if cold_starts is not None:
        cold_starts.take_batch()
    return reps


def _src_lines() -> int:
    return sum(
        len(path.read_bytes().splitlines())
        for pattern in ("*.py", "*.pyx")
        for path in SRC.rglob(pattern)
    )


def _op_medians(reps: list[Rep]) -> list[float]:
    """Each operation's median time across repetitions.

    Medians are taken per operation, not per repetition, so a burst of
    contention on the shared host that slows part of one repetition is
    filtered out of every operation it touched.
    """
    return [statistics.median(times) for times in zip(*(rep.op_s for rep in reps))]


def _percentiles(values: list[float]) -> tuple[float, float]:
    if len(values) == 1:
        return values[0], values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[49], cuts[98]


def _parity(compiled, search_args, problems: list[str]) -> dict[str, float]:
    """Time both kernel twins on the recorded solver inputs; they must agree exactly."""
    from mmsvote import _kernels_py

    cases = list(dict.fromkeys(search_args)) if compiled is not None else []
    pure_s = compiled_s = 0.0
    for args in cases:
        t0 = perf_counter()
        expected = _kernels_py.search_max_partition(*args)
        t1 = perf_counter()
        got = compiled.search_max_partition(*args)
        t2 = perf_counter()
        pure_s, compiled_s = pure_s + t1 - t0, compiled_s + t2 - t1
        if got[:3] != expected[:3]:
            problems.append(f"kernel twins disagree on {args}: {got[:3]} vs {expected[:3]}")
    return {"kernels.parity_cases": len(cases), "kernels.parity_pure_s": pure_s,
            "kernels.parity_compiled_s": compiled_s}


def _layer_metrics(rep: Rep) -> dict[str, float]:
    calls, total, self_time, rules_self, nodes, budget, routed = rep.trace
    search_s = total["kernels.search_max_partition"]
    hits, misses = rep.cache_hits, rep.cache_misses
    metrics = {
        "model.type_census_calls": calls["model.type_census"],
        "model.type_census_s": total["model.type_census"],
        "model.canonicalize_calls": calls["model.canonicalize"],
        "model.canonicalize_s": total["model.canonicalize"],
        "model.parse_matrix_calls": calls["model.parse_matrix"],
        "model.parse_matrix_s": total["model.parse_matrix"],
        "shares.mms_adapt_calls": calls["shares.mms_adapt"],
        "shares.mms_adapt_self_s": self_time["shares.mms_adapt"],
        "shares.search_cache_hits": hits,
        "shares.search_cache_misses": misses,
        "shares.search_cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "shares.partition_guarantee_calls": calls["shares.partition_guarantee"],
        "shares.partition_guarantee_self_s": self_time["shares.partition_guarantee"],
        "kernels.search_calls": calls["kernels.search_max_partition"],
        "kernels.search_nodes": nodes,
        "kernels.search_s": search_s,
        "kernels.nodes_per_s": nodes / search_s if search_s else 0.0,
        "kernels.budget_exceeded": budget,
        "kernels.min_assignment_calls": calls["kernels.min_assignment"],
        "kernels.min_assignment_s": total["kernels.min_assignment"],
        "kernels.pure_routed_calls": routed,
        "rules.run_calls": calls["rules.run_rule"],
        "rules.run_self_s.ptrr3": rules_self["ptrr3"],
        "rules.run_self_s.deferred4": rules_self["deferred4"],
        "verify.audit_calls": calls["verify.audit"],
        "verify.audit_self_s": self_time["verify.audit"],
        "verify.check_certificate_s": total["verify.check_certificate"],
        "adversary.attack_self_s": self_time["adversary.adaptive_attack"],
        "cli.main_calls": calls["cli.main"],
        "cli.main_self_s": self_time["cli.main"],
    }
    # cli.main is cli's only public function, so cli.self_s would repeat cli.main_self_s
    for layer in LAYERS:
        if layer != "cli":
            metrics[f"{layer}.self_s"] = sum(v for k, v in self_time.items() if k.startswith(layer + "."))
    metrics.update(rep.layer_counts)
    return metrics


def _declared_units() -> dict[str, str]:
    """Each metric's unit, as BENCHMARK.json declares it."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        _fail_setup(f"no {path}; run from a checkout root")
    spec = json.loads(path.read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "shares", "attack"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    started = perf_counter()
    units = _declared_units()
    _import_package()
    from mmsvote import kernels
    from workloads import WORKLOADS

    workdir = ROOT / "perfbench" / ".work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        try:
            compiled = importlib.import_module("mmsvote._kernels")
        except ImportError:
            compiled = None
        limits = (compiled.MAX_AGENTS, compiled.MAX_TYPES) if compiled is not None else None

        metrics: dict[str, float] = {}
        problems: list[str] = []
        if args.trace == 0:
            cold_starts = ColdStarts()
            reps = _run_reps(workload, Tracer(timing=False), args.seconds, started,
                             cold_starts=cold_starts)
            op_s = _op_medians(reps)
            wall_s = sum(op_s)
            p50, p99 = _percentiles(op_s)
            metrics = {
                "setup_s": cold_starts.lower_quartile(),
                "wall_s": wall_s,
                "ops_per_s": len(workload.ops) / wall_s,
                "op_p50_ms": p50 * 1000,
                "op_p99_ms": p99 * 1000,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
        else:
            half = args.seconds / 2
            plain = _run_reps(workload, Tracer(timing=False), half, started)
            tracer = Tracer(timing=True, compiled_limits=limits, record_search=args.workload == "shares")
            traced = _run_reps(workload, tracer, half, started, plain[0])
            reps = plain + traced
            per_rep = [_layer_metrics(rep) for rep in traced]
            for name in per_rep[0]:
                metrics[name] = statistics.median(m[name] for m in per_rep)
            metrics["trace.overhead_s"] = sum(_op_medians(traced)) - sum(_op_medians(plain))
            metrics.update(_parity(compiled, tracer.search_args, problems))

        attempted = len(reps) * len(workload.ops)
        failed = sum(len(rep.errors) for rep in reps)
        problems = [err for rep in reps for err in rep.errors][:10] + problems
        if failed == 0:
            tamper = workload.tamper_check(reps[0].outputs)
            if tamper is not None:
                problems.append(f"self-check: {tamper}")
        for line in problems:
            print(f"perfbench: {line}", file=sys.stderr)

        digest = hashlib.sha256(json.dumps([list(c[:2]) + list(c[2]) for c in reps[0].counters]).encode())
        context = {
            "workload": args.workload,
            "seed": args.seed,
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "backend": kernels.ACTIVE_BACKEND,
            "src_lines": _src_lines(),
            "reps": len(reps),
            "rep_wall_s": [round(rep.wall_s, 4) for rep in reps],
            "ops_per_rep": len(workload.ops),
            "fail_ratio": failed / attempted,
            "search_nodes_per_rep": sum(c[0] for c in reps[0].counters),
            "counters_sha256": digest.hexdigest()[:16],
        }
        print(json.dumps({"context": context}))
        correct = failed == 0 and not problems
        result = {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
        }
        print(json.dumps(result))
        return 0 if correct else 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
