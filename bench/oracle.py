#!/usr/bin/env python3
"""External objective for the `oracle` workload: the exact sum of squared entries.

Speaks the shapedparts line protocol: one JSON matrix per input line, one
rational per output line. It never writes to stderr, because the caller
does not drain that pipe while a solve runs. The value equals the built-in
`sum_column_norm_pow` objective with q = 2, which the benchmark uses as the
in-process reference.
"""

import json
import sys
from fractions import Fraction


def main() -> None:
    for line in sys.stdin:
        if not line.strip():
            continue
        total = sum(Fraction(x) ** 2 for row in json.loads(line) for x in row)
        sys.stdout.write(f'"{total.numerator}/{total.denominator}"\n')
        sys.stdout.flush()


if __name__ == "__main__":
    main()
