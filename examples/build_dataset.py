"""Build a slice of the QDockBank dataset and write it in the published layout.

Run with:  python examples/build_dataset.py [output_dir] [--groups S,M,L] [--per-group N]

Building all 55 fragments at paper fidelity takes a long time; by default this
example builds two fragments per group with the fast preset (a couple of
minutes) and writes the S/M/L folder structure, per-entry PDB files, quantum
metadata JSON and docking JSON plus the index used by the analysis layer.
"""

from __future__ import annotations

import argparse

from repro import DatasetBuilder, PipelineConfig
from repro.analysis.comparison import compare_methods
from repro.analysis.report import format_table, winrate_report
from repro.cli import configure_logging


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("output", nargs="?", default="qdockbank_out")
    parser.add_argument("--groups", default="S,M,L", help="comma-separated length groups")
    parser.add_argument("--per-group", type=int, default=2, help="fragments per group")
    parser.add_argument("--processes", type=int, default=0, help="worker processes (0 = serial)")
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="persistent result cache; re-runs skip already-computed folds, baselines and docking searches",
    )
    args = parser.parse_args()
    configure_logging()  # the engine's per-phase progress lines, on stderr

    builder = DatasetBuilder(
        config=PipelineConfig.fast(), processes=args.processes, cache_dir=args.cache_dir
    )
    fragments = builder.select_fragments(groups=args.groups.split(","), limit_per_group=args.per_group)
    print(f"Building {len(fragments)} fragments: {[f.pdb_id for f in fragments]}")

    bank = builder.build(fragments)
    bank.save(args.output)
    print(f"Dataset written to {args.output}/")
    print(f"Engine stats: {builder.engine.stats()}")

    comparisons = {m: compare_methods(bank, m) for m in ("AF2", "AF3")}
    print("\nWin rates on this slice (measured vs paper):")
    print(format_table(winrate_report(comparisons)))


if __name__ == "__main__":
    main()
