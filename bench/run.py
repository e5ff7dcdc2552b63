#!/usr/bin/env python3
"""Benchmark of the ghzlocal package: end-to-end metrics, or per-layer ones from a traced run.

Usage, from the root of a checkout:

    python3 bench/run.py --workload {reproduce,verify_mixed,search_stream,cli_cold}
                         --seed N --seconds S --trace {0,1}

The package is imported from ``src/`` of the checkout and is measured only
from outside, through the public functions of its modules.  One run:

1. set-up: a fresh interpreter imports ``ghzlocal`` and fills its lazy caches
   (microstates, partition, 63 contexts, ``qm_probability`` over all 342
   outcome assignments), several times; ``setup_s`` is the median time;
2. the workload builds its seeded inputs and its references, untimed;
3. ``--trace 0``: the closed loop runs for ``--seconds`` and the end-to-end
   metrics are reported.  ``--trace 1``: the loop runs untraced and traced in
   turn, half the time each, and the per-layer metrics are reported, tracing
   overhead among them.

End-to-end metrics:

* ``setup_s``: the median set-up above;
* ``ops_per_s``: completed ops over the time spent in them;
* ``op_ms.p50``, ``op_ms.tail``: the median op time, and the highest
  percentile with at least ten samples beyond it (named in the output);
* ``first_model_ms.p50``: the median time from the start of an op to the
  first model it delivers: on ``search_stream`` from the ``search_models``
  call to the first model of a draw; on ``reproduce`` the first model's three
  outputs; on ``verify_mixed`` the model parsed from its document; on
  ``cli_cold`` the first byte of the child's stdout;
* ``peak_rss_mb``: peak RSS of this process, or on ``cli_cold`` of the
  largest child.

``failed_ratio`` is ``failed / attempted``: an op fails when it raises or
its output differs from the reference.  Every time is scaled to a reference
host, to take out the drift of the host's CPU speed (see the comment on
``REFERENCE_KERNEL_S`` in ``workloads.py``); the raw times are kept too.

Human-readable lines come first; the last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The whole result,
with the environment, the sample counts, the raw times and (traced) the
spans, is also written to ``.bench_out/``.  Exits 1 without a result when the
package or ``scripts/reproduce_all.py`` is not there.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

from tracing import LAYERS, MODEL_BUILDERS, TARGETS, Tracer, aggregate
from workloads import (
    REFERENCE_INTERPRETER_S, WORKLOADS, Context, HostSpeed, Recorder, child_speed, cli_commands,
    run_child, run_in_process,
)

ROOT = Path(__file__).resolve().parents[1]
SETUP_RUNS = 9
PROBE_RUNS = 3
TRACE_SEGMENTS = 4  # untraced and traced in turn, so that drift and warm-up fall on both

SETUP_CHILD = """\
import json, time
t0 = time.perf_counter()
import ghzlocal
from ghzlocal import qm, state_space
t1 = time.perf_counter()
state_space.enumerate_ghz_microstates()
state_space.partition_classes()
contexts = state_space.enumerate_contexts()
t2 = time.perf_counter()
n = 0
for context in contexts:
    for assign in qm.outcome_assignments(context):
        qm.qm_probability(assign)
        n += 1
t3 = time.perf_counter()
print(json.dumps({"contexts": len(contexts), "assignments": n,
                  "import_s": t1 - t0, "state_space_s": t2 - t1, "qm_s": t3 - t2}))
"""


def load_package() -> Context:
    """Import ghzlocal from ``src/`` of this checkout; exit if it is not there."""
    src = ROOT / "src"
    if not (src / "ghzlocal" / "__init__.py").is_file():
        raise SystemExit(f"error: no ghzlocal package under {src}")
    if not (ROOT / "scripts" / "reproduce_all.py").is_file():
        raise SystemExit(f"error: no scripts/reproduce_all.py under {ROOT}")
    sys.path.insert(0, str(src))
    import ghzlocal
    import ghzlocal.cli  # not imported by the package itself

    if Path(ghzlocal.__file__).resolve().parent != src / "ghzlocal":
        raise SystemExit(f"error: imported ghzlocal from {ghzlocal.__file__}, not from {src}")
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(src))
    return Context(root=ROOT, out=out, python=sys.executable, env=env, gz=ghzlocal)


def measure_setup(ctx: Context) -> dict:
    """Fresh-interpreter costs: set-up, import and cold caches scaled to the
    reference host; the bare interpreter start, which is the reference, raw."""
    warm = run_child([ctx.python, "-c", "import ghzlocal"], ctx)  # writes the bytecode caches
    if warm.code != 0:
        raise RuntimeError(f"importing ghzlocal in a fresh interpreter exited {warm.code}")
    speed = child_speed(ctx)
    runs = []
    for _ in range(SETUP_RUNS):
        speed.before()
        run = run_child([ctx.python, "-c", SETUP_CHILD], ctx)
        runs.append((run, speed.after()))
    phases = []
    for run, scale in runs:
        report = json.loads(run.stdout) if run.code == 0 else {}
        if (report.get("contexts"), report.get("assignments")) != (63, 342):
            raise RuntimeError(f"set-up child exited {run.code} with {run.stdout[-300:]!r}")
        phases.append({key: value * scale for key, value in report.items() if key.endswith("_s")})
    return {
        "setup_s": [run.seconds * scale for run, scale in runs],
        "raw_setup_s": [run.seconds for run, _ in runs],
        "interpreter_ms": 1000 * statistics.median(speed.kernel_s),
        "interpreter_runs": len(speed.kernel_s),
        "import_ms": 1000 * statistics.median(p["import_s"] for p in phases),
        "state_space_ms": 1000 * statistics.median(p["state_space_s"] for p in phases),
        "qm_ms": 1000 * statistics.median(p["qm_s"] for p in phases),
    }


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, but not below
    the median when there are fewer than 21 samples: (value, percentile)."""
    ordered = sorted(samples)
    k = max(len(ordered) - 11, (len(ordered) - 1) // 2)
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def end_to_end(rec: Recorder, setup: dict) -> tuple[dict, dict]:
    """End-to-end metrics: (value, unit, sample count) by name; and notes by name."""
    if not rec.op_s:
        raise RuntimeError(f"no op completed; first errors: {rec.errors}")
    n = len(rec.op_s)
    tail_s, tail_pct = tail(rec.op_s)
    if rec.child_rss_kb:  # the children did the work
        rss_kb, rss_n = max(rec.child_rss_kb), len(rec.child_rss_kb)
    else:
        rss_kb, rss_n = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, 1
    metrics = {
        "setup_s": (statistics.median(setup["setup_s"]), "s", len(setup["setup_s"])),
        "ops_per_s": (n / sum(rec.op_s), "1/s", n),
        "op_ms.p50": (1000 * statistics.median(rec.op_s), "ms", n),
        "op_ms.tail": (1000 * tail_s, "ms", n),
        "first_model_ms.p50": (1000 * statistics.median(rec.first_s), "ms", len(rec.first_s)),
        "peak_rss_mb": (rss_kb / 1024, "MB", rss_n),
    }
    return metrics, {"op_ms.tail": f"p{tail_pct:.1f}"}


def cli_probes(ctx: Context) -> dict:
    """In-process ``cli.main(argv)`` per command, stdout captured: median ms of
    a few runs, scaled to the reference host."""
    speed = HostSpeed()
    times = {}
    for command, argv in cli_commands(ctx).items():
        samples = []
        for _ in range(PROBE_RUNS):
            speed.before()
            code, _, seconds = run_in_process(ctx, argv)
            samples.append(seconds * speed.after())
            if code != 0:
                raise RuntimeError(f"cli.main({argv!r}) exited {code} in process")
        times[command] = 1000 * statistics.median(samples)
    return times


def per_layer(
    tracer: Tracer, traced: Recorder, untraced: Recorder, setup: dict, probes: dict,
    qm_hits: int, qm_misses: int, n_contexts: int,
) -> dict:
    """Per-layer metrics of a traced run: (value, unit, sample count) by name.

    Counts and times are per traced op; set-up and probe figures come from
    their own samples.
    """
    if not traced.op_s or not untraced.op_s:
        raise RuntimeError(f"no op completed; first errors: {untraced.errors + traced.errors}")
    agg = aggregate(tracer.spans, traced.op_scale)
    calls, self_ns, incl_ns, extra = agg["calls"], agg["self_ns"], agg["incl_ns"], agg["extra"]
    n = len(traced.op_s)
    op_ns = 1e9 * sum(traced.op_s)
    n_setup, n_interpreter = len(setup["setup_s"]), setup["interpreter_runs"]

    def per_op(value: float) -> float:
        return value / n

    def self_ms(*names: str) -> float:
        return sum(self_ns[name] for name in names) / n / 1e6

    m: dict[str, tuple] = {
        "state_space.cold_ms": (setup["state_space_ms"], "ms", n_setup),
        "state_space.calls": (per_op(sum(calls[f"state_space.{f}"] for f in TARGETS["state_space"])), "count"),
        "qm.cold_ms": (setup["qm_ms"], "ms", n_setup),
        "qm.calls": (per_op(calls["qm.qm_probability"]), "count"),
        "qm.cache_hit_ratio": (qm_hits / (qm_hits + qm_misses) if qm_hits + qm_misses else 0.0, "ratio"),
    }
    ac = "models.verify_ac"
    m[f"{ac}.calls"] = (per_op(calls[ac]), "count")
    m[f"{ac}.self_ms"] = (self_ms(ac), "ms")
    m[f"{ac}.share"] = (incl_ns[ac] / op_ns, "ratio")
    m[f"{ac}.contexts_checked"] = (per_op(calls[ac] * n_contexts - extra[ac]), "count")
    m[f"{ac}.contexts_skipped"] = (per_op(extra[ac]), "count")
    for name in ("verify_dm", "satisfies_ac", "census", "combination_distribution",
                 "detection_probability", "conditional_probability"):
        m[f"models.{name}.calls"] = (per_op(calls[f"models.{name}"]), "count")
        m[f"models.{name}.self_ms"] = (self_ms(f"models.{name}"), "ms")
    m["models.model_build.calls"] = (per_op(agg["model_builds"]), "count")
    m["models.model_build.self_ms"] = (self_ms(*MODEL_BUILDERS), "ms")
    m["builtin.reproduce_section4.self_ms"] = (self_ms("builtin.reproduce_section4"), "ms")
    m["builtin.model_build.self_ms"] = (self_ms("builtin.builtin_model"), "ms")
    search, candidates = "search.search_models", agg["candidates"]
    m["search.candidates"] = (per_op(candidates), "count")
    m["search.emitted"] = (per_op(extra[search]), "count")
    m["search.useful_ratio"] = (extra[search] / candidates if candidates else 0.0, "ratio")
    m["search.check_share"] = (
        agg["search_checks_ns"] / incl_ns[search] if incl_ns[search] else 0.0, "ratio")
    for name in TARGETS["serialize"]:
        m[f"serialize.{name}.self_ms"] = (self_ms(f"serialize.{name}"), "ms")
    m["serialize.bytes_in"] = (per_op(traced.bytes_in), "B")
    m["serialize.bytes_out"] = (per_op(traced.bytes_out), "B")
    m["cli.interpreter_ms"] = (setup["interpreter_ms"], "ms", n_interpreter)
    m["cli.import_ms"] = (setup["import_ms"], "ms", n_setup)
    for command, ms in probes.items():
        m[f"cli.main.{command}.ms"] = (ms, "ms", PROBE_RUNS)
    # On the reference host a bare interpreter starts in REFERENCE_INTERPRETER_S.
    children = traced.op_s + untraced.op_s if traced.child_rss_kb else []
    startup_ms = 1000 * REFERENCE_INTERPRETER_S + setup["import_ms"]
    m["cli.startup_share"] = (startup_ms / (1000 * statistics.mean(children)) if children else 0.0, "ratio")
    shares = 0.0
    for layer in LAYERS:
        share = sum(ns for name, ns in self_ns.items() if name.startswith(layer + ".")) / op_ns
        m[f"{layer}.self_share"] = (share, "ratio")
        shares += share
    m["other.self_share"] = (1.0 - shares, "ratio")
    untraced_rate = len(untraced.op_s) / sum(untraced.op_s)
    traced_rate = n / sum(traced.op_s)
    m["trace.ops_per_s_untraced"] = (untraced_rate, "1/s")
    m["trace.ops_per_s_traced"] = (traced_rate, "1/s")
    m["trace.overhead"] = (untraced_rate / traced_rate, "ratio")
    m["trace.spans_per_op"] = (per_op(sum(calls.values())), "count")
    return {name: entry if len(entry) == 3 else entry + (n,) for name, entry in m.items()}


def git_sha(root: Path) -> str | None:
    """HEAD of the checkout when it is a git work tree; None otherwise."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_sha256(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")) + [root / "scripts" / "reproduce_all.py"]:
        digest.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    ctx = load_package()
    started = time.perf_counter()
    setup = measure_setup(ctx)
    prepared = time.perf_counter()
    workload = WORKLOADS[args.workload](ctx, args.seed)
    workload.prepare()
    prepare_s = time.perf_counter() - prepared

    if args.trace:
        tracer = Tracer()
        untraced = Recorder(speed=workload.host_speed())
        traced = Recorder(tracer=tracer, speed=workload.host_speed())
        qm_hits = qm_misses = 0
        for segment in range(TRACE_SEGMENTS):
            if segment % 2 == 0:
                workload.run(untraced, args.seconds / TRACE_SEGMENTS)
                continue
            tracer.install()
            hits, misses = tracer.qm_cache()
            try:
                workload.run(traced, args.seconds / TRACE_SEGMENTS)
            finally:
                tracer.uninstall()
            qm_hits += tracer.qm_cache()[0] - hits
            qm_misses += tracer.qm_cache()[1] - misses
        probes = cli_probes(ctx)
        n_contexts = len(ctx.gz.state_space.enumerate_contexts())
        metrics = per_layer(tracer, traced, untraced, setup, probes, qm_hits, qm_misses, n_contexts)
        attempted = untraced.attempted + traced.attempted
        failed = untraced.failed + traced.failed
        errors = untraced.errors + traced.errors
        notes: dict = {}
    else:
        rec = Recorder(speed=workload.host_speed())
        workload.run(rec, args.seconds)
        metrics, notes = end_to_end(rec, setup)
        attempted, failed, errors = rec.attempted, rec.failed, rec.errors

    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(ctx.root), "source_sha256": source_sha256(ctx.root),
        "ghzlocal_version": ctx.gz.__version__,
        "cli.interpreter_ms": setup["interpreter_ms"],
        "attempted": attempted, "failed": failed, "failed_ratio": failed / attempted if attempted else 0.0,
        "samples": {name: count for name, (_, _, count) in metrics.items()},
        "notes": notes, "errors": errors,
        "prepare_s": prepare_s, "wall_s": time.perf_counter() - started,
    }
    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }
    record = {"meta": meta, "result": result, "setup_s": setup["setup_s"], "raw_setup_s": setup["raw_setup_s"]}
    if args.trace:
        record["spans"] = {"fields": ["name", "start_ns", "end_ns", "parent", "op", "extra"],
                           "rows": tracer.spans}
    else:
        record["op_s"], record["raw_op_s"] = rec.op_s, rec.raw_op_s
    path = ctx.out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record) + "\n")

    for name, (value, unit, count) in metrics.items():
        note = f" {notes[name]}" if name in notes else ""
        print(f"{name:<44} {value:>14.6g} {unit:<6} n={count}{note}")
    print(f"failed_ratio {meta['failed_ratio']:.6g} ({failed}/{attempted})"
          + (f"; first errors: {errors}" if errors else ""))
    print("meta " + json.dumps({k: v for k, v in meta.items() if k not in ("samples", "errors")}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
