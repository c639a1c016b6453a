"""Regenerate perfbench/golden.json, the reference digits for `extract-deep`.

For every extractable catalog record (kinds bbp_ready and printed_formula)
the formula that `bbp digits` extracts from is evaluated once with the
evaluator oracle `extractor.digit_window` over the bit window that
holds every `extract-deep` request (`workloads.DEEP_POS`).  Each request is then
checked against a slice of that window, so the oracle, which is several
times slower than extraction at these depths, never runs inside a benchmark
run.  The digits are those of the mathematical constant, so the file stays
valid whatever later changes do to the library.

Run from the repository root (takes a few minutes):

    PYTHONPATH=src python3 perfbench/make_golden.py
"""
from __future__ import annotations

import json
import sys
import time


def main() -> int:
    from bbpkit.catalog import default_catalog
    from bbpkit.extractor import digit_window
    from workloads import DEEP_POS, EXTRACTABLE_KINDS, GOLDEN_PATH, record_formula

    lo, hi = DEEP_POS[0], DEEP_POS[1] + 32
    count = (hi - lo) // 4
    windows: dict[str, str] = {}
    by_lhs: dict[str, str] = {}
    for record in default_catalog():
        if record.kind not in EXTRACTABLE_KINDS:
            continue
        t0 = time.perf_counter()
        window = digit_window(record_formula(record), lo, count, hi + 128)
        windows[record.id] = window
        # records with the same left side must agree digit for digit
        lhs = str(record.lhs)
        if by_lhs.setdefault(lhs, window) != window:
            raise SystemExit(f"{record.id}: window disagrees with another record for {lhs}")
        print(f"{record.id:32s} {time.perf_counter() - t0:6.2f} s", file=sys.stderr)
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump({"lo": lo, "hi": hi, "windows": windows}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
