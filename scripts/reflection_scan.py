#!/usr/bin/env python3
"""Scan |R|^2 of the sech^2 well against the depth parameter.

Writes plot-ready CSV with the numerically integrated reflection probability
and the closed-form value side by side; the dips to zero at integer depths
are the reflectionless points.

Usage:
    python scripts/reflection_scan.py [--k 1.0] [--step 0.125] [--out reflection_scan.csv]

Exit status follows the susyqm CLI: 0 on success, 2 for a bad argument or a
scan of more than ROW_CAP rows (both checked before the output file is
opened) or an output file that cannot be written, 3 for a numerical failure.
A failure of the scan gets its exit code and its one stderr line from
susyqm.cli.failure_status, as a failure of a susyqm command does.
"""

import argparse
import csv
import math
import sys
from decimal import Decimal
from fractions import Fraction

import numpy as np
from susyqm import PoschlTeller, scattering_amplitudes, sech_well_reflection_exact
from susyqm.cli import failure_status

ROW_CAP = 10_000  # one scattering run per row, about 3 ms each on a 2-vCPU host


@np.errstate(all="ignore")  # the guards report an overflow in one line, as susyqm.cli.main
def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--k", type=float, default=1.0)
    ap.add_argument("--l-min", type=str, default="1/4")
    ap.add_argument("--l-max", type=str, default="7/2")
    ap.add_argument("--step", type=str, default="1/8")
    ap.add_argument("--out", default="reflection_scan.csv")
    args = ap.parse_args(argv)

    try:
        lo, hi, step = Fraction(args.l_min), Fraction(args.l_max), Fraction(args.step)
    except (ValueError, ZeroDivisionError):
        ap.error("--l-min, --l-max and --step must be rational numbers, got "
                 f"{args.l_min!r}, {args.l_max!r} and {args.step!r}")
    # a step <= 0 would never pass --l-max and scan forever
    if step <= 0:
        ap.error(f"--step must be positive, got {args.step}")
    if lo < 0:
        ap.error(f"--l-min must be nonnegative, got {args.l_min}")
    if not 0.0 < args.k < math.inf:
        ap.error(f"--k must be positive and finite, got {args.k!r}")
    rows = math.floor((hi - lo) / step) + 1 if lo <= hi else 0
    if rows > ROW_CAP:
        # Decimal formats an int of any size, also past the double range
        print(f"error: {Decimal(rows):.4g} scan rows requested, above the size cap of {ROW_CAP}",
              file=sys.stderr)
        return 2
    try:
        with open(args.out, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["depth", "k", "R2_numeric", "R2_closed_form", "flux_defect"])
            depth = lo
            while depth <= hi:
                res = scattering_amplitudes(PoschlTeller(depth).tanh_poly(), args.k)
                writer.writerow([float(depth), args.k, repr(res.r2),
                                 repr(sech_well_reflection_exact(float(depth), args.k)),
                                 repr(res.flux_defect)])
                depth += step
    except Exception as exc:
        code, line = failure_status(exc, "reflection_scan.py")
        print(line, file=sys.stderr)
        return code
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
