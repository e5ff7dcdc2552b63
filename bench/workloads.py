"""The four benchmark workloads, their seeded inputs and their output checks.

Every workload is a closed loop with one client: the next op starts when the
previous one returns.  A workload builds its inputs from the seed alone, and
its references outside any timed region, before the loop starts.  It calls
the package only through module attributes (``models.verify_ac(...)``), so
the tracer's patches see every call.

* ``reproduce``: one op is one pass over M3, M1 and M2, each taken through the
  work of ``scripts/reproduce_all.py``; the bytes must equal what that script
  writes.  A few models queried many times.
* ``verify_mixed``: one op parses a model document and verifies it; a new
  ``Model`` every op, three kinds of models in equal shares.
* ``search_stream``: one op is one model emitted by ``search_models``.
* ``cli_cold``: one op is one fresh ``python -m ghzlocal`` process.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import itertools
import json
import math
import os
import random
import select
import subprocess
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, Optional


# --------------------------------------------------------------------------- harness

# On a shared virtual machine the CPU speed can drift by up to 2x for seconds
# at a time (seen on a 2-vCPU Xeon VM, where the raw medians of ten runs spread
# by 13-28%).  Every reported time is therefore scaled to a reference host: a
# fixed kernel runs just before and just after each measurement, never inside
# it, and the measurement is multiplied by the kernel's reference time over its
# mean time around it.  In-process work is scaled by a pure-Python kernel.  A
# child process is scaled by the start of a bare interpreter, which, like the
# child, has a large part (exec, page faults) that does not slow down with the
# host.  The raw wall times are kept in the result file.
REFERENCE_KERNEL_S = 1.2e-3
REFERENCE_INTERPRETER_S = 0.05


def kernel_seconds() -> float:
    """Wall time of a fixed pure-Python loop of Fraction, tuple and dict work.

    The collector is paused inside it, so that a collection of the
    program's objects is never charged to the kernel.
    """
    gc.disable()
    try:
        start = time.perf_counter()
        acc, counts = Fraction(0), {}
        for i in range(400):
            key = (i & 7, i % 3)
            counts[key] = counts.get(key, 0) + 1
            acc += Fraction(i % 5 + 1, 64)
        return time.perf_counter() - start
    finally:
        gc.enable()


class HostSpeed:
    """Scale factors that put measurements on the reference host."""

    def __init__(
        self, kernel: Callable[[], float] = kernel_seconds, reference_s: float = REFERENCE_KERNEL_S,
    ) -> None:
        self.kernel = kernel
        self.reference_s = reference_s
        self.kernel_s: list[float] = []  # every kernel time, raw

    def _run_kernel(self) -> float:
        self.kernel_s.append(self.kernel())
        return self.kernel_s[-1]

    def before(self) -> None:
        if not self.kernel_s:
            self._run_kernel()

    def after(self) -> float:
        """The factor for the measurement that just ended."""
        last = self.kernel_s[-1]
        return 2 * self.reference_s / (last + self._run_kernel())


def child_speed(ctx: "Context") -> HostSpeed:
    """Scale factors for child processes, from bare interpreter starts."""
    return HostSpeed(lambda: run_child([ctx.python, "-c", "pass"], ctx).seconds, REFERENCE_INTERPRETER_S)


@dataclass
class Context:
    """Where the package lives and how to start a fresh interpreter on it."""

    root: Path
    out: Path
    python: str
    env: dict[str, str]
    gz: Any  # the imported ghzlocal package


@dataclass
class Recorder:
    """Samples of one measured loop, scaled to the reference host; tells the
    tracer which op is running."""

    tracer: Any = None
    op_s: list[float] = field(default_factory=list)
    raw_op_s: list[float] = field(default_factory=list)
    first_s: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    bytes_in: int = 0
    bytes_out: int = 0
    child_rss_kb: list[int] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    op_scale: dict[int, float] = field(default_factory=dict)  # op id -> its scale factor
    current: int = 0
    scale: float = 1.0  # of the op that ended last
    speed: HostSpeed = field(default_factory=HostSpeed)

    def begin(self) -> float:
        """Start a new op; its id is ``current`` until the next ``begin``."""
        self.speed.before()
        self.current += 1
        if self.tracer is not None:
            self.tracer.op = self.current
        return time.perf_counter()

    def end(self) -> float:
        now = time.perf_counter()
        if self.tracer is not None:
            self.tracer.op = None
        self.scale = self.speed.after()
        return now

    def record(
        self, seconds: Optional[float], first: Optional[float], ok: bool, why: str = "",
        op: Optional[int] = None, scale: Optional[float] = None,
    ) -> None:
        """One attempted op, by default the one that ended last; ``seconds``
        (raw wall time) is None when it raised."""
        scale = self.scale if scale is None else scale
        self.attempted += 1
        if seconds is not None:
            self.op_s.append(seconds * scale)
            self.raw_op_s.append(seconds)
            self.op_scale[self.current if op is None else op] = scale
        if first is not None:
            self.first_s.append(first * scale)
        if not ok:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(why)


@dataclass
class ChildRun:
    code: int
    stdout: bytes
    seconds: float
    first_byte_s: float
    maxrss_kb: int


def run_child(argv: list[str], ctx: Context, timeout: float = 60.0) -> ChildRun:
    """Run one child to completion, timing it from spawn to reap.

    Reads stdout as it arrives to time the first byte; reaps with ``wait4`` to
    get the child's own peak RSS.  The child is killed if it overruns.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(
        argv, cwd=ctx.root, env=ctx.env,
        stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
    )
    chunks: list[bytes] = []
    first = None
    fd = proc.stdout.fileno()
    try:
        while True:
            remaining = start + timeout - time.perf_counter()
            if remaining <= 0 or not select.select([fd], [], [], remaining)[0]:
                raise TimeoutError(f"{argv!r} ran longer than {timeout} s")
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                break
            if first is None:
                first = time.perf_counter()
            chunks.append(chunk)
        _, status, usage = os.wait4(proc.pid, 0)
        end = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        proc.stdout.close()
    return ChildRun(proc.returncode, b"".join(chunks), end - start, (first or end) - start, usage.ru_maxrss)


class Workload:
    """Inputs drawn from the seed, references built untimed by ``prepare``,
    and a closed loop, ``run``, that records every op."""

    name = ""

    def __init__(self, ctx: Context, seed: int, corrupt: bool = False) -> None:
        self.ctx = ctx
        self.corrupt = corrupt  # spoil the references, to test the checks
        self.rng = random.Random(f"{self.name}/{seed}")

    def host_speed(self) -> HostSpeed:
        """How the loop's times are put on the reference host."""
        return HostSpeed()

    def prepare(self) -> None:
        pass


# --------------------------------------------------------------------------- reproduce

SELECTORS = ("M3", "M1", "M2")


class Reproduce(Workload):
    name = "reproduce"

    def __init__(self, ctx: Context, seed: int, corrupt: bool = False) -> None:
        super().__init__(ctx, seed, corrupt)
        self._block: list[tuple[str, ...]] = []
        self.reference: dict[str, tuple[bytes, ...]] = {}

    def inputs(self, ops: int) -> list[tuple[str, ...]]:
        return [self._next_order() for _ in range(ops)]

    def _next_order(self) -> tuple[str, ...]:
        # Blocks of the six orders, shuffled, so that each model comes first
        # in a third of the ops whatever the seed.
        if not self._block:
            self._block = list(itertools.permutations(SELECTORS))
            self.rng.shuffle(self._block)
        return self._block.pop()

    def prepare(self) -> None:
        """Run ``scripts/reproduce_all.py`` once and keep the bytes it writes."""
        out = self.ctx.out / "reproduce_all"
        script = self.ctx.root / "scripts" / "reproduce_all.py"
        result = subprocess.run(
            [self.ctx.python, str(script), "--out", str(out)],
            cwd=self.ctx.root, env=self.ctx.env, capture_output=True, timeout=120,
        )
        if result.returncode != 0:
            raise RuntimeError(f"reproduce_all.py exited {result.returncode}: {result.stderr[-500:]!r}")
        for sel in SELECTORS:
            stem = sel.lower()
            self.reference[sel] = tuple(
                (out / f"{stem}_{kind}").read_bytes()
                for kind in ("report.json", "model.json", "combinations.csv")
            )
        if self.corrupt:
            report, model, csv = self.reference["M1"]
            self.reference["M1"] = (report, model, csv.replace(b"1/96", b"1/97", 1))

    def run(self, rec: Recorder, seconds: float) -> None:
        gz = self.ctx.gz
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            order = self._next_order()
            outputs = {}
            first = None
            try:
                start = rec.begin()
                for sel in order:
                    report = gz.builtin.reproduce_section4(sel)
                    model = gz.builtin.builtin_model(sel)
                    outputs[sel] = (
                        (json.dumps(gz.serialize.repro_report_to_json(report), indent=2, sort_keys=True) + "\n").encode(),
                        (json.dumps(gz.serialize.model_to_json(model), indent=2, sort_keys=True) + "\n").encode(),
                        gz.serialize.combinations_to_csv(gz.models.combination_distribution(model)).encode(),
                    )
                    if first is None:
                        first = time.perf_counter() - start
                end = rec.end()
            except Exception as exc:  # an op that raises is a failed op; keep measuring
                rec.end()
                rec.record(None, None, False, f"{order}: {exc!r}")
                continue
            rec.bytes_out += sum(len(b) for files in outputs.values() for b in files)
            bad = [sel for sel in order if outputs[sel] != self.reference[sel]]
            rec.record(end - start, first, not bad, f"bytes differ from reproduce_all.py for {bad}")


# --------------------------------------------------------------------------- verify_mixed

# Canonical site order x1 y1 z1 x2 y2 z2 x3 y3 z3; the benchmark's own copy of
# the triad table, so that corpus generation does not depend on the package.
XY = (0, 1, 3, 4, 6, 7)
TRIADS = (("I", (0, 4, 7), 1), ("II", (1, 3, 7), 1), ("III", (1, 4, 6), 1), ("IV", (0, 3, 6), -1))
GHZ_STATES = tuple(
    (i1, j1, k, i2, j2, k, i3, j3, k)
    for i1, j1, k, i2, j2, i3, j3 in itertools.product((1, -1), repeat=7)
)
ALL_DETECTED = ("D",) * 9
KINDS = ("uniform", "per_state", "injected")
FAILURE_COUNTS = (2, 3)
FAMILY_SIZES = (1, 2, 3, 4)
INJECTED_STATES = 8
# (AC passes, DM passes) for each kind of document
EXPECTED_VERDICTS = {"uniform": (True, True), "per_state": (False, True), "injected": (False, False)}


def violated(values: tuple[int, ...]) -> tuple[str, ...]:
    return tuple(
        name for name, (a, b, c), sign in TRIADS if values[a] * values[b] * values[c] != sign
    )


def _feasible(bad: tuple[str, ...], fc: int) -> list[tuple[str, ...]]:
    """Flag tuples with ``fc`` undetected x/y sites, hitting every violated triad."""
    sites = [s for name, s, _ in TRIADS if name in bad]
    return [
        tuple("U" if i in mask else "D" for i in range(9))
        for mask in itertools.combinations(XY, fc)
        if all(any(i in triad for i in mask) for triad in sites)
    ]


def make_document(rng: random.Random, name: str, kind: str, fc: int, size: int) -> dict:
    """A model document of one kind.

    ``uniform``: one family per partition class (DM-feasible, so AC holds too);
    ``per_state``: every state draws its own DM-feasible family (fails AC);
    ``injected``: as ``per_state``, with the all-detected d-distribution put in
    the families of a few states (fails AC and DM).
    """
    shared: dict[tuple[str, ...], list] = {}
    families = []
    for values in GHZ_STATES:
        bad = violated(values)
        pool = _feasible(bad, fc)
        if kind == "uniform":
            if bad not in shared:
                shared[bad] = rng.sample(pool, min(size, len(pool)))
            families.append(list(shared[bad]))
        else:
            families.append(rng.sample(pool, min(size, len(pool))))
    if kind == "injected":
        for i in rng.sample(range(len(GHZ_STATES)), INJECTED_STATES):
            families[i][0] = ALL_DETECTED
    return {
        "schema_version": 1,
        "name": name,
        "states": [
            {"values": list(values), "ddists": [list(flags) for flags in family]}
            for values, family in zip(GHZ_STATES, families)
        ],
    }


def reference_outcome(gz: Any, model: Any) -> tuple:
    """What verify_ac, verify_dm, census and combination_distribution must return.

    A plain loop over ``Model.pairs()`` with integer weights, against the
    quantum oracle; shares no counting code with ``models.py``.
    """
    pairs = list(model.pairs())
    scale = math.lcm(*(w.denominator for _, _, w in pairs))
    weighted = [(s.values, d.flags, int(w * scale)) for s, d, w in pairs]

    ac_failures, skipped = [], []
    for context in gz.state_space.enumerate_contexts():
        idx = [site.index for site in context.sites]
        detected = 0
        buckets: dict[tuple[int, ...], int] = {}
        for values, flags, w in weighted:
            if all(flags[i] == "D" for i in idx):
                detected += w
                key = tuple(values[i] for i in idx)
                buckets[key] = buckets.get(key, 0) + w
        if not detected:
            skipped.append(context.label)
            continue
        for assign in gz.qm.outcome_assignments(context):
            actual = Fraction(buckets.get(assign.outcomes, 0), detected)
            expected = gz.qm.qm_probability(assign)
            if actual != expected:
                ac_failures.append((context.label, assign.outcomes, expected, actual))

    dm_failures = []
    for state, family in model.assignment:
        for name, sites, _ in TRIADS:
            if name in violated(state.values):
                for ddist in family:
                    if all(ddist.flags[i] == "D" for i in sites):
                        dm_failures.append((state.values, ddist.flags, name))

    ddists, mspecs, combos = set(), set(), {}
    undetected = Fraction(0)
    for state, ddist, weight in pairs:
        ddists.add(ddist.flags)
        mspec = tuple(v if f == "D" else 0 for v, f in zip(state.values, ddist.flags))
        mspecs.add(mspec)
        if not any(mspec):
            undetected += weight
            continue
        slots = tuple("D" if mspec[i] == 0 else f"{mspec[i]:+d}" for i in XY)
        combos[slots] = combos.get(slots, Fraction(0)) + weight
    census = (len(ddists), len(mspecs), len(combos))
    return (tuple(ac_failures), tuple(skipped), tuple(dm_failures), census, combos, undetected)


def program_outcome(ac: Any, dm: Any, census: Any, dist: Any) -> tuple:
    return (
        tuple((f.context.label, f.assignment.outcomes, f.expected, f.actual) for f in ac.failures),
        tuple(ac.skipped),
        tuple((f.state.values, f.ddist.flags, f.triad.value) for f in dm.failures),
        tuple(census),
        {combo.slots: mass for combo, mass in dist.masses.items()},
        dist.undetected,
    )


class VerifyMixed(Workload):
    name = "verify_mixed"

    def __init__(self, ctx: Context, seed: int, corrupt: bool = False) -> None:
        super().__init__(ctx, seed, corrupt)
        # One document per (kind, failure count, family size): the same mix,
        # and so nearly the same cost per pass, whatever the seed.
        self.documents: list[tuple[str, str]] = []  # (kind, JSON text)
        for kind, fc, size in itertools.product(KINDS, FAILURE_COUNTS, FAMILY_SIZES):
            doc = make_document(self.rng, f"{kind}-fc{fc}-s{size}", kind, fc, size)
            self.documents.append((kind, json.dumps(doc)))
        self.references: list[tuple] = []

    def inputs(self, passes: int) -> list:
        return [self.documents] + [self._pass_order() for _ in range(passes)]

    def _pass_order(self) -> list[int]:
        order = list(range(len(self.documents)))
        self.rng.shuffle(order)
        return order

    def prepare(self) -> None:
        """Compute each document's reference outcome."""
        gz = self.ctx.gz
        for _, text in self.documents:
            ref = reference_outcome(gz, gz.serialize.model_from_json(json.loads(text)))
            if self.corrupt:
                ref = ref[:3] + ((ref[3][0] + 1,) + ref[3][1:],) + ref[4:]
            self.references.append(ref)

    def run(self, rec: Recorder, seconds: float) -> None:
        # Whole passes over the corpus, so that every run verifies the same
        # mix of kinds, failure counts and family sizes.
        gz = self.ctx.gz
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            for i in self._pass_order():
                text = self.documents[i][1]
                try:
                    start = rec.begin()
                    model = gz.serialize.model_from_json(json.loads(text))
                    first = time.perf_counter() - start
                    ac = gz.models.verify_ac(model)
                    dm = gz.models.verify_dm(model)
                    census = gz.models.census(model)
                    dist = gz.models.combination_distribution(model)
                    end = rec.end()
                except Exception as exc:
                    rec.end()
                    rec.record(None, None, False, f"document {i}: {exc!r}")
                    continue
                rec.bytes_in += len(text)
                ok = program_outcome(ac, dm, census, dist) == self.references[i]
                rec.record(end - start, first, ok, f"document {i} ({model.name}) differs from the reference")


# --------------------------------------------------------------------------- search_stream

SEARCH_PROFILES: dict[str, dict] = {
    "fc3_deterministic": {"failure_count": 3, "ddists_per_state": (1, 1)},
    "fc2_families_1_2": {"failure_count": 2, "ddists_per_state": (1, 2)},
    "fc1_starred_undetected": {"failure_count": 1, "star_elements_all_undetected": True},
}
SEARCH_LIMITS = (2, 8)

# Digest (``model_digest``) of the first models each profile streams, in
# order: the stream order is part of the package's observable behaviour.
SEARCH_REFERENCE: dict[str, tuple[str, ...]] = {
    "fc3_deterministic": (
        "74bb2c54de6d3ed7", "38e9500b268ec9eb", "201aaa05d0789c98", "6762f8d39b5e38f9",
        "fd351c21a6e28852", "7b421fe29ac8f0e7", "c4a97767d7f795b0", "b14af8d441eff4b0",
    ),
    "fc2_families_1_2": (
        "fff330b1ae40bbab", "dff994b07bc30baa", "b1d426de6cb05347", "745001c3c0f9a3d1",
        "ebdb0f84baea2dab", "90e9e8c6b0f58504", "c86ec56437fc10db", "de9aff8968a690f7",
    ),
    "fc1_starred_undetected": (
        "76d8585fe55bf530", "ec5da1b0fd25b0c0", "10cdb2334a1451a2", "6ef36e0b5329faac",
        "821389cf5c85bf22", "4a13cc0b87b1ee08", "c9330276f1ad7b50", "13005ed604d22d73",
    ),
}


def model_digest(model: Any) -> str:
    text = "\n".join(
        [model.name] + [
            ",".join(map(str, state.values)) + "|" + " ".join("".join(d.flags) for d in family)
            for state, family in model.assignment
        ]
    )
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class SearchStream(Workload):
    name = "search_stream"

    def __init__(self, ctx: Context, seed: int, corrupt: bool = False) -> None:
        super().__init__(ctx, seed, corrupt)
        self._round: list[tuple[str, int]] = []
        self.reference = dict(SEARCH_REFERENCE)
        if corrupt:
            self.reference = {p: ("0" * 16,) + d[1:] for p, d in self.reference.items()}
        self._sound: dict[str, bool] = {}

    def inputs(self, draws: int) -> list[tuple[str, int]]:
        return [self._next_draw() for _ in range(draws)]

    def _next_draw(self) -> tuple[str, int]:
        # Rounds visit every profile once, in seeded order, with seeded limits.
        if not self._round:
            self._round = [(p, self.rng.randint(*SEARCH_LIMITS)) for p in SEARCH_PROFILES]
            self.rng.shuffle(self._round)
        return self._round.pop()

    def _sound_model(self, model: Any, digest: str) -> bool:
        """Full verify_ac/verify_dm of an emitted model, once per distinct model."""
        if digest not in self._sound:
            models = self.ctx.gz.models
            self._sound[digest] = models.verify_ac(model).passed and models.verify_dm(model).passed
        return self._sound[digest]

    def run(self, rec: Recorder, seconds: float) -> None:
        gz = self.ctx.gz
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            profile, limit = self._next_draw()
            spec = gz.search.SearchSpec(**SEARCH_PROFILES[profile], limit=limit)
            # (model, op id, seconds since the previous model or since the call, scale)
            emitted: list[tuple[Any, int, float, float]] = []
            error = ""
            rec.speed.before()
            last = time.perf_counter()  # the first op runs from the call
            try:
                stream = gz.search.search_models(spec)
                while True:
                    rec.begin()
                    try:
                        model = next(stream)
                    finally:
                        end = rec.end()
                    emitted.append((model, rec.current, end - last, rec.scale))
                    last = time.perf_counter()
            except StopIteration:
                pass
            except Exception as exc:  # the rest of the draw counts as failed ops
                error = f": {exc!r}"
            expected = self.reference[profile][:limit]
            for position, (model, op, seconds_, scale) in enumerate(emitted):
                digest = model_digest(model)
                ok = (
                    position < len(expected)
                    and digest == expected[position]
                    and self._sound_model(model, digest)
                )
                rec.record(seconds_, seconds_ if position == 0 else None, ok,
                           f"{profile} model {position} ({digest}) is out of order or unsound", op, scale)
            for _ in range(len(emitted), limit):
                rec.record(None, None, False, f"{profile} stream ended after {len(emitted)} of {limit}{error}")


# --------------------------------------------------------------------------- cli_cold


def cli_commands(ctx: Context) -> dict[str, list[str]]:
    """The command mix, keyed by subcommand; writes the search spec it needs."""
    spec = ctx.out / "search_spec.json"
    spec.write_text(json.dumps({"failure_count": 3, "ddists_per_state": 1}) + "\n")
    return {
        "states": ["states", "--partition"],
        "verify": ["verify", "M2"],
        "probs": ["probs", "M1", "x1"],
        "combinations": ["combinations", "M2", "--format", "csv"],
        "reproduce": ["reproduce", "M3", "--format", "json"],
        "search": ["search", str(spec.relative_to(ctx.root)), "--limit", "3", "--format", "json"],
        "export": ["export", "M1"],
    }


def run_in_process(ctx: Context, argv: list[str]) -> tuple[int, bytes, float]:
    """``cli.main(argv)`` with stdout captured: exit code, stdout bytes, seconds."""
    buffer = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(buffer):
        code = ctx.gz.cli.main(argv)
    return code, buffer.getvalue().encode(), time.perf_counter() - start


class CliCold(Workload):
    name = "cli_cold"

    def __init__(self, ctx: Context, seed: int, corrupt: bool = False) -> None:
        super().__init__(ctx, seed, corrupt)
        self.commands = cli_commands(ctx)
        self._round: list[str] = []
        self.reference: dict[str, tuple[int, bytes]] = {}

    def inputs(self, ops: int) -> list[str]:
        return [self._next_command() for _ in range(ops)]

    def _next_command(self) -> str:
        # Rounds run every command once, in seeded order.
        if not self._round:
            self._round = list(self.commands)
            self.rng.shuffle(self._round)
        return self._round.pop()

    def host_speed(self) -> HostSpeed:
        return child_speed(self.ctx)

    def prepare(self) -> None:
        """Reference capture: every command once through ``cli.main`` in this process."""
        for command, argv in self.commands.items():
            code, stdout, _ = run_in_process(self.ctx, argv)
            if code != 0:
                raise RuntimeError(f"reference capture of {argv!r} exited {code}")
            self.reference[command] = (code, stdout + (b"corrupted" if self.corrupt else b""))

    def run(self, rec: Recorder, seconds: float) -> None:
        base = [self.ctx.python, "-m", "ghzlocal"]
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            command = self._next_command()
            rec.begin()
            try:
                child = run_child(base + self.commands[command], self.ctx)
            except (OSError, TimeoutError) as exc:
                rec.end()
                rec.record(None, None, False, f"{command}: {exc!r}")
                continue
            rec.end()
            rec.bytes_out += len(child.stdout)
            rec.child_rss_kb.append(child.maxrss_kb)
            ok = (child.code, child.stdout) == self.reference[command]
            rec.record(child.seconds, child.first_byte_s, ok, f"{command}: exit {child.code} or stdout differs")


WORKLOADS = {w.name: w for w in (Reproduce, VerifyMixed, SearchStream, CliCold)}
