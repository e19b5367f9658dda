#!/usr/bin/env python3
"""Compare the count fields of two Table-1 benchmark files.

Usage: python3 bench/compare_table1.py COMMITTED.json FRESH.json

Every row and flow (partitioned, monolithic) that completed in COMMITTED
must complete in FRESH with the same fields and the same integer values:
peak nodes, image calls, cache lookups and hits, subset states, GC runs
and so on. These depend only on the sequence of BDD operations, so they
repeat exactly. Times and the ratios derived from them are left out, and
so are flows that stopped at a budget in COMMITTED: a time limit does not
stop at the same place twice. Exits 1 and lists the differences if any
field differs.
"""

import json
import sys


def flows(path):
    with open(path) as f:
        doc = json.load(f)
    out = {}
    for row in doc["circuits"]:
        mono = row.pop("monolithic")
        out[(row["name"], "partitioned")] = row
        out[(row["name"], "monolithic")] = mono
    return out


def counts(stats):
    return {
        k: v
        for k, v in stats.items()
        if isinstance(v, int) and not isinstance(v, bool)
    }


def main(committed_path, fresh_path):
    committed, fresh = flows(committed_path), flows(fresh_path)
    diffs, compared = [], 0
    for key, old in sorted(committed.items()):
        if not old["completed"]:
            continue
        new = fresh.get(key)
        if new is None or not new["completed"]:
            diffs.append(f"{key[0]} {key[1]}: completed before, not now")
            continue
        for field in sorted(set(old) - set(new)):
            diffs.append(f"{key[0]} {key[1]} {field}: missing")
        for field, value in sorted(counts(old).items()):
            if field in new and new[field] != value:
                diffs.append(
                    f"{key[0]} {key[1]} {field}: {value} -> {new[field]}"
                )
        compared += 1
    for d in diffs:
        print(d)
    print(f"{compared} completed flows compared, {len(diffs)} differences")
    return 1 if diffs else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1], sys.argv[2]))
