#!/usr/bin/env python3
"""Regenerate every table and figure of the paper's evaluation.

Writes the rendered artifacts under ``results/`` at the root of the
checkout; the roster itself (which artifact, which scale, which seeds) is
:func:`repro.eval.paper_artifacts`, the same one ``repro experiments``
runs.

Run:  python examples/paper_experiments.py [--scale tiny|small|default]
"""

import argparse
import pathlib
import sys

from repro.eval import write_paper_artifacts

RESULTS = pathlib.Path(__file__).resolve().parent.parent / "results"


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--scale", choices=("tiny", "small", "default"), default="default",
        help="workload input scale (smaller = faster)",
    )
    args = parser.parse_args(argv)
    write_paper_artifacts(RESULTS, scale=args.scale)
    print("all experiments regenerated under results/")


if __name__ == "__main__":
    sys.exit(main())
