"""High-level dataset builder: fragments in, QDockBank (and files) out."""

from __future__ import annotations

import logging
from pathlib import Path

from repro.config import PipelineConfig
from repro.dataset.bank import QDockBank
from repro.dataset.batch import BatchProcessor
from repro.dataset.fragments import PAPER_FRAGMENTS, Fragment, fragments_by_group
from repro.engine.core import Engine
from repro.exceptions import DatasetError

logger = logging.getLogger(__name__)


class DatasetBuilder:
    """Builds the QDockBank dataset with the full fold → dock → evaluate pipeline.

    Parameters
    ----------
    config:
        Pipeline configuration (use :meth:`PipelineConfig.paper` for
        full-fidelity runs, :meth:`PipelineConfig.fast` for CI-scale runs).
    processes:
        Worker processes of the engine, which runs every stage of the build;
        ``None`` uses ``config.engine_workers``, ``0``/``1`` runs serially
        (results are bit-identical either way).
    cache_dir:
        Directory of the engine's persistent result cache (folds, baseline
        folds and docking searches alike); repeated builds over the same
        fragments and configuration skip the VQE *and* every docking search
        entirely.  ``None`` falls back to ``config.cache_dir``; the cache is
        bounded by ``config.cache_max_bytes`` / ``config.cache_eviction``.
    """

    def __init__(
        self,
        config: PipelineConfig | None = None,
        processes: int | None = None,
        cache_dir: str | Path | None = None,
    ):
        self.config = config or PipelineConfig()
        self.engine = Engine(config=self.config, cache=cache_dir, processes=processes)
        self.processor = BatchProcessor(config=self.config, engine=self.engine)

    # -- fragment selection ----------------------------------------------------------

    @staticmethod
    def select_fragments(
        groups: list[str] | None = None,
        pdb_ids: list[str] | None = None,
        limit_per_group: int | None = None,
    ) -> list[Fragment]:
        """Select fragments from the paper's 55 by group and/or PDB ID."""
        if pdb_ids:
            wanted = {p.lower() for p in pdb_ids}
            selected = [f for f in PAPER_FRAGMENTS if f.pdb_id in wanted]
            missing = wanted - {f.pdb_id for f in selected}
            if missing:
                raise DatasetError(f"unknown PDB IDs requested: {sorted(missing)}")
            return selected
        if groups:
            selected = []
            for group in groups:
                members = fragments_by_group(group)
                if limit_per_group is not None:
                    members = members[:limit_per_group]
                selected.extend(members)
            return selected
        fragments = list(PAPER_FRAGMENTS)
        if limit_per_group is not None:
            fragments = [
                f
                for group in ("L", "M", "S")
                for f in fragments_by_group(group)[:limit_per_group]
            ]
        return fragments

    # -- building ------------------------------------------------------------------------

    def build(
        self,
        fragments: list[Fragment] | None = None,
        include_baselines: bool = True,
        keep_structures: bool = True,
        progress=None,
    ) -> QDockBank:
        """Run the pipeline over ``fragments`` (default: all 55) and return the bank.

        ``progress`` is an optional callback receiving one
        :class:`~repro.engine.session.SessionProgress` event per completed
        engine job (fold, baseline fold or docking search) — the long-sweep
        progress signal for CLIs and notebooks.
        """
        fragments = list(fragments) if fragments is not None else list(PAPER_FRAGMENTS)
        if not fragments:
            raise DatasetError("no fragments selected for dataset construction")
        logger.info("building QDockBank for %d fragments", len(fragments))
        entries = self.processor.build_entries(
            fragments,
            keep_structures=keep_structures,
            include_baselines=include_baselines,
            progress=progress,
        )
        bank = QDockBank(entries=entries)
        logger.info("finished %d entries; engine stats: %s", len(bank), self.engine.stats())
        return bank
