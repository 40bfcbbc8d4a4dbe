"""Rebuild the expected values that bench/workloads.py holds as copies.

    python3 bench/expected.py

Recomputes G(2..10) and the lemma-range exceptional genera for r = 2, 3, 4
from reference.py alone, prints them, and exits 1 if they differ from
G_TABLE and LEMMA_TABLES in workloads.py.  Takes a few seconds.
"""

import sys

import reference as ref
import workloads as wl


def main() -> int:
    g_table = {}
    for r in range(2, 11):
        genera = ref.exceptional(r, "maximal")
        g_table[r] = genera[-1] + 1 if genera else ref.scan_range(r).start
    lemma = {r: ref.exceptional(r, "lemma") for r in range(2, 5)}
    print(f"G_TABLE = {g_table}")
    print(f"LEMMA_TABLES = {lemma}")
    same = g_table == wl.G_TABLE and lemma == wl.LEMMA_TABLES
    print("matches workloads.py" if same else "DIFFERS from workloads.py")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
