"""One CLI invocation in a fresh interpreter, measured from the inside.

Run by ``perfbench/run.py``, never by hand::

    python3 perfbench/invoke.py --mode run --out result.json -- evaluate ...

``PERFBENCH_SPAWN_T`` carries the parent's ``time.monotonic()`` taken just
before the spawn (the clock is system-wide), so ``setup_s`` spans
interpreter start, ``import repro.cli`` and argument parsing.  ``wall_s``
times ``repro.cli.main(argv)``: the verb call, report writing included.

Modes: ``setup`` stops after parsing; ``run`` also runs the verb;
``trace`` runs it with the benchmark's span wrappers and an ambient
:class:`repro.obs.MetricsRegistry` installed, then writes the spans and
the registry.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans")
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    opts = parser.parse_args()
    argv = opts.argv[1:] if opts.argv[:1] == ["--"] else opts.argv
    spawned = float(os.environ["PERFBENCH_SPAWN_T"])

    import repro.cli

    repro.cli.build_parser().parse_args(argv)
    doc: dict = {"setup_s": time.monotonic() - spawned}
    if opts.mode in ("run", "trace"):
        doc.update(_run_verb(argv, opts.mode == "trace", opts.spans))
    with open(opts.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return 0


def _run_verb(argv: list[str], traced: bool, spans_path: str | None) -> dict:
    from repro.cli import main as cli_main

    if traced:
        from spans import ROOT_LAYER, Tracer, instrument

        from repro.obs import MetricsRegistry, use_registry

        tracer, registry = Tracer(), MetricsRegistry()
        instrument(tracer)
        root = tracer.new_span("repro.cli.main", ROOT_LAYER)
    start = time.perf_counter()
    try:
        if traced:
            tracer.enter(root)
            try:
                with use_registry(registry):
                    code = cli_main(argv)
            finally:
                tracer.exit()
        else:
            code = cli_main(argv)
    except SystemExit as exc:  # the CLI reports bad input this way
        code = exc.code if isinstance(exc.code, int) else 1
        print(exc, file=sys.stderr)
    wall = time.perf_counter() - start
    out = {
        "exit_code": code or 0,
        "wall_s": wall,
        # ru_maxrss is KiB on Linux; this process only, not pool workers
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if traced:
        tracer.write_jsonl(spans_path)
        out["registry"] = registry.to_dict()
    return out


if __name__ == "__main__":
    raise SystemExit(main())
