"""Certify the whole identity catalog numerically.

Every shipped record -- functional-equation evaluations, solved BBP-ready
combinations, printed coefficient tables and zero relations -- is checked by
evaluating both sides with certified fixed-point arithmetic and comparing the
residual against 10^-digits.  Exits 1 when any record fails.
"""
import sys
import time
from collections import Counter

from bbpkit import default_catalog, verify

DIGITS = 100

catalog = default_catalog()
kinds = Counter(rec.kind for rec in catalog)
print(f"catalog: {len(catalog)} records", dict(kinds))
print()

t0 = time.time()
width = max(len(rec.id) for rec in catalog)
failures = 0
for rec in sorted(catalog, key=lambda r: r.id):
    report = verify(rec, DIGITS)
    status = "PASS" if report.passed else "FAIL"
    failures += not report.passed
    print(f"  {status}  {rec.id:<{width}}  {rec.kind}")

print()
print(f"{len(catalog) - failures}/{len(catalog)} records certified "
      f"at {DIGITS} digits in {time.time() - t0:.2f}s")
sys.exit(1 if failures else 0)
