"""The seed serving loop, kept as the kernel's equivalence oracle.

Before the event kernel, :meth:`VodServer.serve` stepped each admitted
session to completion before touching the next. The kernel path at
session granularity must produce byte-identical observability exports
and an equal :class:`ServerReport`; ``test_kernel_equivalence`` holds
``serve`` to this loop. It lives with the tests because production never
runs it.
"""

from __future__ import annotations

from repro.engine.vod import ServeOptions, ServerReport, Session, VodServer


def serve_stepping(server: VodServer, requests,
                   options: ServeOptions | None = None) -> ServerReport:
    """Serve ``requests`` on ``server`` with the seed stepping loop."""
    opts = ServeOptions() if options is None else options
    admitted, rejected = server._admit_batch(requests, opts)
    sessions: list[Session] = []
    failed: list[tuple[str, str, str]] = []
    share = 0
    if admitted:
        share = max(1, server.bandwidth // len(admitted))
        player = server._build_player(
            share, opts.fault_plan, opts.retry_policy, opts.adaptation,
        )
        for position, request in enumerate(admitted):
            server.crash.point("vod.serve.session")
            session = server._serve_one(
                server._player_for(request, player, share, opts),
                request.client, request.title, share, opts.fault_plan,
                request.retry_policy or opts.retry_policy,
                request.adaptation or opts.adaptation,
                failed, request=request,
            )
            if session is not None:
                sessions.append(session)
            if opts.checkpoint_to is not None:
                server._batch_progress = server._progress_payload(
                    admitted, rejected, sessions, failed,
                    admitted[position + 1:], share,
                )
                server.checkpoint_to(
                    opts.checkpoint_to, fs=opts.checkpoint_fs,
                )
    return server._file_report(ServerReport(
        admitted=sessions,
        rejected=rejected,
        bandwidth=server.bandwidth,
        per_client_bandwidth=share,
        failed=failed,
    ))
