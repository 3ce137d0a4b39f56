#!/usr/bin/env python3
"""Run every functional-identity check at its acceptance order, with timings."""

import argparse
import json
import sys
import time

from surfcount.identities import IDENTITIES, run_identity


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--json", action="store_true", help="emit one JSON report per line")
    ap.add_argument("--order", type=int, default=None, help="override every order")
    args = ap.parse_args()

    failures = 0
    for name in IDENTITIES:
        order = args.order or IDENTITIES[name][1]
        t0 = time.time()
        report = run_identity(name, order)
        elapsed = time.time() - t0
        if args.json:
            print(json.dumps(report.as_dict()))
        else:
            print(f"{report.status.upper():4}  {name:24} order {order:3}  "
                  f"window {report.window}  {elapsed:6.2f}s")
        failures += report.status != "pass"
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
