"""Run one tidmine CLI job in this process with timing spans around each layer.

Usage: python3 traced_job.py SPANS_JSON JOB_ID -- CLI_ARGS...

The wrappers are installed from outside the program, on module attributes,
before ``tidmine.cli.main`` runs. The CLI's standard output is captured in
memory and written to the real standard output after the job, so the caller
can check it. Spans stay in memory and are written to SPANS_JSON at the end;
run.py turns them into per-layer metrics.
"""

import functools
import io
import json
import sys
import time

_T0 = time.perf_counter()


class Tracer:
    """In-memory spans: name, start, end, parent span, job id, attributes."""

    def __init__(self, job: str):
        self.job = job
        self.spans: list[dict] = []
        self._open: list[int] = []

    def start(self, name: str, **attrs) -> dict:
        span = {
            "id": len(self.spans),
            "name": name,
            "job": self.job,
            "parent": self._open[-1] if self._open else None,
            "start": time.perf_counter() - _T0,
            "end": None,
            "attrs": attrs,
        }
        self.spans.append(span)
        self._open.append(span["id"])
        return span

    def end(self, span: dict) -> None:
        span["end"] = time.perf_counter() - _T0
        self._open.pop()

    def wrap(self, module, attr: str, name: str, describe=None) -> None:
        """Replace ``module.attr`` with a version that records a span.

        ``describe(args, kwargs, result)`` returns the span's attributes; it
        runs after the span has ended, so its cost is not in the span.
        """
        fn = getattr(module, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.start(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(span)
            if describe is not None:
                span["attrs"].update(describe(args, kwargs, result))
            return result

        setattr(module, attr, traced)


def _arg(args, kwargs, pos, key, default=None):
    if key in kwargs:
        return kwargs[key]
    return args[pos] if len(args) > pos else default


def install(tracer: Tracer) -> None:
    import tidmine.cli as cli
    import tidmine.metrics as metrics
    import tidmine.mining as mining
    import tidmine.rules as rules

    def run_attrs(args, kwargs, result):
        return {
            "variant": _arg(args, kwargs, 2, "variant", "improved"),
            "ledger": {str(k): v for k, v in result.ledger.per_level.items()},
            "frequent": {str(k): len(v) for k, v in result.levels.items()},
        }

    def full_attrs(args, kwargs, result):
        cands = args[0]
        level = getattr(cands, "level", None)
        if level is None:
            level = len(next(iter(result), ()))
        return {"variant": "classic", "level": level, "candidates": len(result)}

    def restricted_attrs(args, kwargs, result):
        return {"variant": "improved", "level": len(tuple(args[0])), "candidates": 1}

    def gen_attrs(args, kwargs, result):
        return {"level": result.level, "generated": len(result)}

    def load_attrs(args, kwargs, result):
        return {"transactions": len(result), "items": result.num_items}

    def rules_attrs(args, kwargs, result):
        return {"emitted": len(result)}

    # cli binds load_transactions and run_apriori by name at import, so they
    # are wrapped on the cli module; mining and rules resolve their callees
    # through module globals, so those are wrapped where they are defined.
    tracer.wrap(cli, "load_transactions", "dataset.load_transactions", load_attrs)
    tracer.wrap(cli, "run_apriori", "mining.run_apriori", run_attrs)
    tracer.wrap(mining, "compute_l1", "mining.compute_l1")
    tracer.wrap(mining, "generate_candidates_join", "mining.generate_candidates", gen_attrs)
    tracer.wrap(
        mining, "generate_candidates_combinations", "mining.generate_candidates", gen_attrs
    )
    tracer.wrap(mining, "count_support_full", "mining.count_support", full_attrs)
    tracer.wrap(mining, "count_support_restricted", "mining.count_support", restricted_attrs)
    tracer.wrap(rules, "generate_rules", "rules.generate_rules", rules_attrs)
    tracer.wrap(metrics, "render_report", "metrics.render_report")


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print("usage: traced_job.py SPANS_JSON JOB_ID -- CLI_ARGS...", file=sys.stderr)
        return 2
    spans_path, job, cli_args = argv[0], argv[1], argv[3:]
    tracer = Tracer(job)
    span = tracer.start("cli.import")
    import tidmine.cli

    tracer.end(span)
    install(tracer)
    captured = io.StringIO()
    real_stdout, sys.stdout = sys.stdout, captured
    span = tracer.start("cli.main")
    try:
        code = tidmine.cli.main(cli_args)
    finally:
        tracer.end(span)
        sys.stdout = real_stdout
    text = captured.getvalue()
    span["attrs"]["out_bytes"] = len(text.encode("utf-8"))
    sys.stdout.write(text)
    sys.stdout.flush()
    with open(spans_path, "w", encoding="utf-8") as handle:
        json.dump(tracer.spans, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
