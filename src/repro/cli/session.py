"""``repro-session`` — inspect and resume the engine's streaming-session journals.

Subcommands
-----------
* ``repro-session ls DIR`` — list session journals (created, completed /
  failed / pending counts, resumes);
* ``repro-session status DIR SESSION_ID`` — one journal in detail, including
  how many completed jobs still have their cached payload (i.e. resume cost)
  and the recorded failures;
* ``repro-session resume DIR SESSION_ID`` — re-open the journal, rebuild the
  engine from the journalled job specs, and execute **only** the jobs that
  never completed (failed jobs re-run; completed jobs replay from the result
  cache);
* ``repro-session compact DIR SESSION_ID`` — rewrite the journal keeping
  only the latest record per job (atomic tmp+replace), shrinking journals of
  long-lived sweeps that were resumed many times.

Exit status: 0 on success; 1 when ``resume`` leaves failed jobs behind (or
``status`` finds recorded failures); 2 on usage errors (missing directory or
journal).

Journals are written by ``Engine.submit`` whenever
``PipelineConfig.session_dir`` is set — one append-only ``<id>.jsonl`` status
file plus one ``<id>.specs.pkl`` spec pickle per session (see
:mod:`repro.engine.session` for the format).  Spec pickles are trusted local
state: only resume journals from directories you wrote.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.cli import configure_logging
from repro.config import PipelineConfig
from repro.engine.core import Engine
from repro.engine.session import ON_ERROR_POLICIES, SessionJournal, SessionProgress
from repro.exceptions import EngineError


def _session_root(session_dir: str) -> Path:
    path = Path(session_dir).expanduser()
    if not path.is_dir():
        print(f"repro-session: session directory {session_dir!r} does not exist", file=sys.stderr)
        raise SystemExit(2)
    return path


def _open_journal(root: Path, session_id: str) -> SessionJournal:
    try:
        return SessionJournal.open(root, session_id)
    except EngineError as exc:
        print(f"repro-session: {exc}", file=sys.stderr)
        raise SystemExit(2) from exc


def _print_progress(event: SessionProgress) -> None:
    """One line per outcome, to stderr (stdout stays clean for ``--json``)."""
    print(
        f"[{event.done}/{event.total}] {event.status:<9} {event.kind:<13} "
        f"{event.spec_hash[:16]}",
        file=sys.stderr,
        flush=True,
    )


def cmd_ls(args: argparse.Namespace) -> int:
    """List every session journal in the directory, oldest first."""
    root = _session_root(args.session_dir)
    summaries = [j.summary() for j in SessionJournal.list_sessions(root)]
    if args.json:
        print(json.dumps(summaries, indent=2))
        return 0
    print(f"{'session':<28} {'created (UTC)':<26} {'jobs':>5} {'done':>5} {'fail':>5} {'pend':>5}  resumes")
    for s in summaries:
        print(
            f"{s['session_id']:<28} {s['created_at'] or '?':<26} {s['total_unique']:>5} "
            f"{s['completed']:>5} {s['failed']:>5} {s['pending']:>5}  {s['resumes']}"
        )
    print(f"{len(summaries)} sessions")
    return 0


def cmd_status(args: argparse.Namespace) -> int:
    """Show one journal in detail (resume cost and recorded failures)."""
    root = _session_root(args.session_dir)
    journal = _open_journal(root, args.session_id)
    summary = journal.summary()

    # Journal-aware cache lookup: which completed jobs can actually replay
    # from the cache (stat-neutral peek — status must not skew hit rates or
    # LRU order), and which would re-execute on resume.
    replayable = None
    cache_dir = args.cache_dir
    if cache_dir is None:
        try:
            specs = journal.load_specs()
            config = getattr(specs[0], "config", None) if specs else None
            cache_dir = config.cache_dir if config is not None else None
        except EngineError:
            cache_dir = None
    if cache_dir and Path(cache_dir).expanduser().is_dir():
        from repro.engine.cache import ResultCache

        cache = ResultCache(cache_dir)
        replayable = sum(1 for key in journal.completed if cache.peek(key) is not None)
    summary["replayable_from_cache"] = replayable
    summary["failures"] = [
        {
            "spec_hash": key,
            "kind": record.get("kind"),
            "error_type": record.get("error_type"),
            "error_message": record.get("error_message"),
        }
        for key, record in sorted(journal.failed.items())
    ]

    if args.json:
        print(json.dumps(summary, indent=2))
    else:
        print(f"session    : {summary['session_id']}")
        print(f"created    : {summary['created_at']}")
        print(f"jobs       : {summary['total_unique']} unique ({summary['total_submitted']} submitted)")
        print(f"completed  : {summary['completed']}")
        print(f"failed     : {summary['failed']}")
        print(f"pending    : {summary['pending']}")
        print(f"resumes    : {summary['resumes']}")
        if replayable is not None:
            print(f"replayable : {replayable}/{summary['completed']} completed jobs still cached")
        for failure in summary["failures"]:
            print(f"  failed {failure['spec_hash'][:16]} ({failure['error_type']}: {failure['error_message']})")
    return 1 if summary["failures"] else 0


def cmd_resume(args: argparse.Namespace) -> int:
    """Resume a journalled session: execute only its unfinished jobs."""
    root = _session_root(args.session_dir)
    if not SessionJournal.exists(root, args.session_id):
        print(
            f"repro-session: no session journal for {args.session_id!r} under {root}",
            file=sys.stderr,
        )
        return 2
    try:
        # Load the spec pickle once; submit() gets the loaded specs (and does
        # the single full journal parse) instead of unpickling them again.
        specs = SessionJournal(root, args.session_id).load_specs()
    except EngineError as exc:
        print(f"repro-session: {exc}", file=sys.stderr)
        return 2

    config = getattr(specs[0], "config", None) if specs else None
    config = config if config is not None else PipelineConfig()
    config = config.with_updates(session_dir=str(root))
    if args.cache_dir is not None:
        config = config.with_updates(cache_dir=args.cache_dir)
    engine = Engine(config=config, processes=args.processes)

    try:
        session = engine.submit(
            specs,
            session_id=args.session_id,
            on_error=args.on_error,
            progress=None if args.quiet else _print_progress,
        )
    except EngineError as exc:
        print(f"repro-session: {exc}", file=sys.stderr)
        return 2
    session.results()

    summary = session.summary()
    summary["engine"] = engine.stats()
    if args.json:
        print(json.dumps(summary, indent=2))
    else:
        print(
            f"session {summary['session_id']}: {summary['done']}/{summary['total']} jobs "
            f"({summary['cached']} from cache, {summary['executed']} executed, "
            f"{summary['failed']} failed)"
        )
        for failure in summary["failures"]:
            print(f"  failed {failure['spec_hash'][:16]} ({failure['error_type']}: {failure['error_message']})")
    return 1 if summary["failures"] else 0


def cmd_compact(args: argparse.Namespace) -> int:
    """Rewrite a journal keeping only the latest record per job."""
    root = _session_root(args.session_dir)
    journal = _open_journal(root, args.session_id)
    try:
        result = journal.compact()
    except EngineError as exc:
        print(f"repro-session: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps({"session_id": journal.session_id, **result}, indent=2))
    else:
        print(
            f"session {journal.session_id}: compacted "
            f"{result['records_before']} -> {result['records_after']} records "
            f"({result['bytes_before']} -> {result['bytes_after']} bytes)"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The ``repro-session`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-session",
        description="Inspect and resume the QDockBank engine's streaming-session journals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ls = sub.add_parser("ls", help="list session journals")
    ls.add_argument("session_dir", help="session journal directory")
    ls.add_argument("--json", action="store_true", help="emit machine-readable JSON")
    ls.set_defaults(func=cmd_ls)

    status = sub.add_parser("status", help="show one session journal in detail")
    status.add_argument("session_dir", help="session journal directory")
    status.add_argument("session_id", help="session identifier (journal file stem)")
    status.add_argument("--cache-dir", default=None, help="result cache to audit replayability against")
    status.add_argument("--json", action="store_true", help="emit machine-readable JSON")
    status.set_defaults(func=cmd_status)

    resume = sub.add_parser("resume", help="execute only a session's unfinished jobs")
    resume.add_argument("session_dir", help="session journal directory")
    resume.add_argument("session_id", help="session identifier (journal file stem)")
    resume.add_argument("--processes", type=int, default=None, help="engine worker processes")
    resume.add_argument("--cache-dir", default=None, help="override the journalled cache directory")
    resume.add_argument(
        "--on-error", choices=ON_ERROR_POLICIES, default=None,
        help="failure policy (default: the journalled configuration's)",
    )
    resume.add_argument("--quiet", action="store_true", help="suppress per-job progress lines")
    resume.add_argument("--json", action="store_true", help="emit a machine-readable summary")
    resume.set_defaults(func=cmd_resume)

    compact = sub.add_parser(
        "compact", help="rewrite a journal keeping only the latest record per job"
    )
    compact.add_argument("session_dir", help="session journal directory")
    compact.add_argument("session_id", help="session identifier (journal file stem)")
    compact.add_argument("--json", action="store_true", help="emit machine-readable JSON")
    compact.set_defaults(func=cmd_compact)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Console entry point (``repro-session``)."""
    args = build_parser().parse_args(argv)
    configure_logging()
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
