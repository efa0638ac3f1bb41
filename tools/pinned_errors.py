"""Print every gradcheck max_error as float.hex(), in the layout of
PINNED_ERRORS in tests/test_gradcheck.py.

Usage: python tools/pinned_errors.py SRC  (SRC is the directory holding the
temporalkit package, e.g. the src of a `git archive` copy of another commit).
For each base seed it runs run_op_suite + run_model_suite at the test's case
count and prints each check's error. Two trees print the same table exactly
when every error keeps its bits, so a diff of the two outputs shows it.
"""

from __future__ import annotations

import sys
from pathlib import Path

BASES = (0, 4242)
CASES = 2


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1 or not (Path(args[0]) / "temporalkit").is_dir():
        print(__doc__, file=sys.stderr)
        return 2
    src = Path(args[0]).resolve()
    sys.path.insert(0, str(src))
    import temporalkit.gradcheck as gc

    if Path(gc.__file__).resolve().parents[1] != src:
        print(f"error: temporalkit was imported from {gc.__file__}, not from {src}",
              file=sys.stderr)
        return 2
    print("PINNED_ERRORS = {")
    for base in BASES:
        print(f"    {base}: {{")
        for r in gc.run_op_suite(CASES, base) + gc.run_model_suite(CASES, base):
            print(f'        "{r.name}": "{r.max_error.hex()}",')
        print("    },")
    print("}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
