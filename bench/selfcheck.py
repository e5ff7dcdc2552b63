#!/usr/bin/env python3
"""Checks of the benchmark itself, for every workload:

* the same seed gives byte-identical inputs (corpus, orders, draws, command mix);
* a different seed gives different inputs;
* every verify_mixed document gets the AC/DM verdicts of its kind, for
  several seeds;
* with its true reference a short run has failed_ratio 0, and with a
  deliberately corrupted reference failed_ratio > 0.

Usage, from the root of a checkout:  python3 bench/selfcheck.py
Prints one PASS/FAIL line per check; exits 1 if any check fails.
"""

from __future__ import annotations

import hashlib
import json
import sys

from run import load_package
from workloads import EXPECTED_VERDICTS, WORKLOADS, Context, Recorder, VerifyMixed

DRAWS = 200  # ops, passes or draws of input taken into the digest
SECONDS = 1.0
VERDICT_SEEDS = range(1, 11)


def inputs_digest(ctx: Context, name: str, seed: int) -> str:
    inputs = WORKLOADS[name](ctx, seed).inputs(DRAWS)
    return hashlib.sha256(repr(inputs).encode()).hexdigest()


def failed_ratio(ctx: Context, name: str, seed: int, corrupt: bool) -> float:
    workload = WORKLOADS[name](ctx, seed, corrupt=corrupt)
    workload.prepare()
    rec = Recorder(speed=workload.host_speed())
    workload.run(rec, SECONDS)
    return rec.failed / rec.attempted


def misfit_documents(ctx: Context, seed: int) -> list[str]:
    """verify_mixed documents whose reference verdicts do not fit their kind."""
    workload = VerifyMixed(ctx, seed)
    workload.prepare()
    return [
        json.loads(text)["name"]
        for (kind, text), ref in zip(workload.documents, workload.references)
        if (not ref[0], not ref[2]) != EXPECTED_VERDICTS[kind]
    ]


def main() -> int:
    ctx = load_package()
    results = []
    for seed in VERDICT_SEEDS:
        misfits = misfit_documents(ctx, seed)
        results.append((not misfits, f"verify_mixed seed {seed}: verdicts fit the kinds {misfits}"))
    for name in WORKLOADS:
        first, again, other = (inputs_digest(ctx, name, seed) for seed in (1, 1, 2))
        results.append((first == again, f"{name}: seed 1 twice gives identical inputs"))
        results.append((first != other, f"{name}: seeds 1 and 2 give different inputs"))
        clean = failed_ratio(ctx, name, 1, corrupt=False)
        results.append((clean == 0, f"{name}: failed_ratio {clean:.3g} with the true reference"))
        corrupted = failed_ratio(ctx, name, 1, corrupt=True)
        results.append((corrupted > 0, f"{name}: failed_ratio {corrupted:.3g} with a corrupted reference"))
    for ok, line in results:
        print(("PASS  " if ok else "FAIL  ") + line)
    return 0 if all(ok for ok, _ in results) else 1


if __name__ == "__main__":
    sys.exit(main())
