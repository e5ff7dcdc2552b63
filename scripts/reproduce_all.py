#!/usr/bin/env python3
"""Regenerate every published number for the three models and export the data.

Writes, per model, the reproduction report (JSON), the model itself (JSON),
and its combination distribution (CSV) into an output directory, and prints
one PASS/FAIL line per check.

Usage:
    python scripts/reproduce_all.py [--out DIR]
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from ghzlocal import BUILTIN_SELECTORS, builtin_model, combination_distribution, reproduce_section4
from ghzlocal.serialize import combinations_to_csv, document_to_text, model_to_json, repro_report_to_json


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="out", help="output directory (default: out/)")
    args = parser.parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    all_ok = True
    for selector in BUILTIN_SELECTORS:
        report = reproduce_section4(selector)
        model = builtin_model(selector)
        print(f"== {selector} ==")
        for check in report.checks:
            print(check.line)
        all_ok = all_ok and report.passed

        (out / f"{selector.lower()}_report.json").write_text(document_to_text(repro_report_to_json(report)) + "\n")
        (out / f"{selector.lower()}_model.json").write_text(document_to_text(model_to_json(model)) + "\n")
        (out / f"{selector.lower()}_combinations.csv").write_text(
            combinations_to_csv(combination_distribution(model))
        )

    print(f"\nreports and exports written to {out}/")
    print("overall:", "PASS" if all_ok else "FAIL")
    return 0 if all_ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
