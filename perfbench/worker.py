"""In-process worker: one fresh interpreter per set-up sample.

Usage: ``python3 worker.py SPEC.json``. The spec names the workload
kind, its input files and flags, the mode, and where to write.

The worker imports ``hierdp``, parses and validates the inputs the way
the CLI does, and prints ``{"event": "ready", "t": <monotonic>}``; the
parent, which noted the monotonic clock just before spawning, takes the
difference as the set-up time. Then, by mode:

* ``setup``: stop.
* ``time``: run the command bodies once, untraced, or twice when the
  first run took under ``SHORT_BODY_S``, and report the seconds and the
  sha256 of every output of each run.
* ``trace``: the parse above already ran under the tracer; run the
  bodies untraced once to warm up, once untraced and once traced, timed,
  and report the traced layer aggregates with the overhead of tracing.

Every report is one JSON line on stdout.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
from pathlib import Path

T_START = time.perf_counter()
import hierdp  # noqa: E402
import hierdp.cli as cli  # noqa: E402
IMPORT_S = time.perf_counter() - T_START

import spans  # noqa: E402

SHORT_BODY_S = 2.0


def emit(**record) -> None:
    print(json.dumps(record), flush=True)


def maxrss_bytes() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def parse(path: str):
    # looked up on the module at call time, so the tracer sees it
    return cli.parse_hierarchy(Path(path).read_text(encoding="utf-8"))


def load(spec: dict):
    """Parse and validate the inputs; return a function that runs the
    workload's command bodies and returns ``{output name: text}``."""
    kind = spec["kind"]
    if kind == "release":
        h = parse(spec["tree"])
        config = cli.RunConfig(hierarchy=h, eps_total=spec["eps_total"],
                               weights=(1.0,) * h.depth, hier=spec["hier"])

        def body():
            csv_text, sidecar = cli.cmd_release(config)
            return {"release.csv": csv_text, "release.json": sidecar}

    elif kind == "evaluate":
        h = parse(spec["tree"])
        config = cli.RunConfig(hierarchy=h, eps_total=spec["eps_total"],
                               weights=(1.0,) * h.depth,
                               replicates=spec["replicates"])
        grid = tuple(float(x) for x in spec["eps_grid"].split(","))

        def body():
            return cli.cmd_evaluate(config, grid)

    elif kind == "allocate":
        h = parse(spec["tree"])
        prior = parse(spec["prior"])
        common = dict(hierarchy=h, weights=(1.0,) * h.depth, prior=prior,
                      prior_given=True)
        fixed = cli.RunConfig(eps_total=spec["eps_total"], **common)
        target = cli.RunConfig(tau=spec["tau"], **common)

        def body():
            return {"fixed.json": cli.cmd_allocate(fixed),
                    "target.json": cli.cmd_allocate(target)}

    elif kind == "downstream":
        config = cli.RunConfig(
            blocks=tuple(float(x) for x in spec["blocks"].split(",")),
            eps_total=spec["eps_total"],
            replicates=spec["replicates"],
            weight_fns=tuple(cli.WeightFunction.parse(n)
                             for n in spec["weight_fns"].split(",")),
        )

        def body():
            return {"downstream.json": cli.cmd_downstream(config)}

    else:
        raise ValueError(f"unknown workload kind {kind!r}")
    return body


def timed(body) -> tuple[float, dict[str, str]]:
    t0 = time.perf_counter()
    texts = body()
    elapsed = time.perf_counter() - t0
    return elapsed, {
        name: hashlib.sha256(text.encode("utf-8")).hexdigest()
        for name, text in sorted(texts.items())
    }


def main(spec_path: str) -> None:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    expected = Path(spec["src"]).resolve()
    if expected not in Path(hierdp.__file__).resolve().parents:
        raise SystemExit(f"imported {hierdp.__file__}, not the package under {expected}")

    tracer = None
    if spec["mode"] == "trace":
        tracer = spans.Tracer(spec["run_id"])
        tracer.install()
    rss_before = maxrss_bytes()
    body = load(spec)
    rss_growth = maxrss_bytes() - rss_before
    emit(event="ready", t=time.monotonic(), import_s=IMPORT_S)
    if spec["mode"] == "setup":
        return
    if tracer is None:
        runs = [timed(body)]
        # a body shorter than this is noisy on its own; time it once more
        if runs[0][0] < SHORT_BODY_S:
            runs.append(timed(body))
        emit(event="body", s=[s for s, _ in runs], digests=[d for _, d in runs])
        return

    tracer.uninstall()
    parse_spans = len(tracer)
    _, warm_digests = timed(body)
    untraced_s, untraced_digests = timed(body)
    tracer.install()
    traced_s, traced_digests = timed(body)
    tracer.uninstall()
    tracer.write(Path(spec["spans_out"]))
    layers = spans.layer_metrics(tracer.aggregate(), rss_growth, IMPORT_S)
    layers["trace.overhead_frac"] = traced_s / untraced_s - 1.0
    emit(event="trace", untraced_s=untraced_s, traced_s=traced_s,
         digests=untraced_digests,
         digests_agree=warm_digests == untraced_digests == traced_digests,
         layers=layers, absent=tracer.absent, spans=len(tracer),
         parse_spans=parse_spans)


if __name__ == "__main__":
    main(sys.argv[1])
