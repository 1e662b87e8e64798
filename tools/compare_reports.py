"""Compare two hypcert reports record by record.

    python3 tools/compare_reports.py OLD NEW

Records are matched on (check_id, params).  The output lists the records
found in only one report, the records whose ``passed`` or ``status``
differ, per check id the number of records whose ``worst_margin`` moved,
the largest |delta worst_margin| and, in each report, the smallest
``worst_margin`` of its records that were not skipped, and per check id
the records whose ``witnesses`` changed, each with the first few
examples.  ``meta`` is not compared.

Exit status: 1 when the record sets, ``passed`` or ``status`` differ,
else 0; moved margins and witnesses are reported without failing.
"""

from __future__ import annotations

import argparse
import json
import sys

EXAMPLES = 3


def _key(record):
    return record["check_id"], json.dumps(record["params"], sort_keys=True)


def _records(path):
    with open(path, encoding="utf-8") as fh:
        records = json.load(fh)["checks"]
    by_key = {}
    for record in records:
        if _key(record) in by_key:
            raise SystemExit(f"{path}: record {_key(record)} appears twice")
        by_key[_key(record)] = record
    return by_key


def _same(a, b):
    """Equal, or both NaN."""
    return a == b or (a != a and b != b)


def _smallest(records, check_id):
    """The least worst_margin of check_id's records that were not skipped
    (a skipped record's 0.0 says nothing), NaN if any is or none is left."""
    margins = [r["worst_margin"] for k, r in records.items()
               if k[0] == check_id and not r["status"].startswith("skipped")]
    return float("nan") if not margins or any(m != m for m in margins) else min(margins)


def compare(old, new):
    """(lines of the report, whether record sets, passed or status differ)
    for two {key: record} maps."""
    only_old = [k for k in old if k not in new]
    only_new = [k for k in new if k not in old]
    both = [k for k in old if k in new]
    verdicts = [k for k in both
                if (old[k]["passed"], old[k]["status"]) != (new[k]["passed"], new[k]["status"])]
    margins, witnesses = {}, {}
    for k in both:
        a, b = old[k]["worst_margin"], new[k]["worst_margin"]
        if not _same(a, b):
            count, largest = margins.get(k[0], (0, 0.0))
            margins[k[0]] = (count + 1, max(largest, abs(b - a)) if a == a and b == b
                             else float("nan"))
        if old[k]["witnesses"] != new[k]["witnesses"]:
            witnesses.setdefault(k[0], []).append(k)

    lines = [f"records: {len(old)} old, {len(new)} new, {len(only_old)} only in old, "
             f"{len(only_new)} only in new"]
    for label, keys in (("only in old", only_old), ("only in new", only_new)):
        lines += [f"  {label}: {k[0]} {k[1]}" for k in keys[:EXAMPLES]]
    lines.append(f"passed/status differences: {len(verdicts)}")
    for k in verdicts[:EXAMPLES]:
        lines.append(f"  {k[0]} {k[1]}: passed {old[k]['passed']} -> {new[k]['passed']}, "
                     f"status {old[k]['status']!r} -> {new[k]['status']!r}")
    lines.append(f"worst_margin moves: {sum(c for c, _ in margins.values())} records")
    for check_id in sorted(margins):
        count, largest = margins[check_id]
        lines.append(f"  {check_id}: {count} records, largest |delta| {largest:.3g}, smallest "
                     f"{_smallest(old, check_id):.6g} -> {_smallest(new, check_id):.6g}")
    lines.append(f"witness changes: {sum(map(len, witnesses.values()))} records")
    for check_id in sorted(witnesses):
        keys = witnesses[check_id]
        lines.append(f"  {check_id}: {len(keys)} records")
        for k in keys[:EXAMPLES]:
            lines.append(f"    {k[1]}: {json.dumps(old[k]['witnesses'])} -> "
                         f"{json.dumps(new[k]['witnesses'])}")
    return lines, bool(only_old or only_new or verdicts)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="compare two hypcert reports record by record")
    parser.add_argument("old")
    parser.add_argument("new")
    args = parser.parse_args(argv)
    lines, differs = compare(_records(args.old), _records(args.new))
    print("\n".join(lines))
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main())
