"""Runs one round of a workload's timed CLI commands in a fresh process.

Usage: python3 bench/worker.py PLAN.json ROUND RESULT.json

The plan names the scenario, the run directory and the command lines; the
worker runs them in order, in this one thread, into `round-<ROUND>/` under
the run directory. RESULT.json receives each command's exit code and wall
time, the digests of the artifacts, this process's peak resident memory,
the causality operation's outcome where the plan has one, and, when
tracing, the round's per-layer metrics. A traced worker writes its spans to
`spans-<ROUND>.json` in the run directory when the round ends.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os
import resource
import statistics
import sys
from time import perf_counter


def digests(directory) -> dict[str, str]:
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def run_command(cli, argv) -> tuple[int, float]:
    """Exit code and wall time of one `tagmerge` command; its stdout is dropped."""
    sink = io.StringIO()
    started = perf_counter()
    with contextlib.redirect_stdout(sink):
        code = cli.main([str(arg) for arg in argv])
    return code, perf_counter() - started


def speed_probe(repeats: int = 3) -> float:
    """Median time of a fixed piece of pure-Python work, about 10 ms.

    It runs right before each timed command and is recorded next to the
    command's time, so a reader can tell a slower program from a slower
    machine.
    """
    words = [f"w{i}" for i in range(500)]
    times = []
    for _ in range(repeats):
        started = perf_counter()
        counts: dict[str, int] = {}
        for i in range(100_000):
            word = words[i % 500]
            counts[word] = counts.get(word, 0) + 1
        json.loads(json.dumps(counts))
        times.append(perf_counter() - started)
    return statistics.median(times)


def read_rows(path) -> list[dict[str, str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def causality_check(cli, probe: dict, out_dir: str) -> dict:
    """Featurize only the earliest compounding month and compare with the full run.

    The program promises that a candidate's vector depends on nothing at or
    after its compounding instant, so growing the corpus with later
    candidates must leave these rows unchanged. The POS and NE slot columns
    are bound from the whole featurized set by design and are not compared.
    """
    code, _ = run_command(cli, [arg.replace("{out}", out_dir) for arg in probe["argv"]])
    if code != 0:
        return {"ok": False, "exit_code": code}
    early = read_rows(os.path.join(out_dir, "causality-early.csv"))
    full = read_rows(probe["full_features"])
    positions = probe["early_positions"]
    if len(early) != len(positions):
        return {"ok": False, "rows": len(early), "expected_rows": len(positions)}
    differing: dict[str, int] = {}
    for row, pos in zip(early, positions):
        for column, value in row.items():
            if column.startswith(("pos_combo_", "ne_combo_")):
                continue
            if value != full[pos][column]:
                differing[column] = differing.get(column, 0) + 1
    return {"ok": not differing, "rows": len(early), "differing_rows_by_column": differing}


def main(plan_path: str, round_index: int, result_path: str) -> int:
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    from tagmerge import cli

    tracer = None
    if plan["trace"]:
        import tracing

        tracer = tracing.Tracer()
        tracing.install_pipeline(tracer)

    out_dir = os.path.join(plan["run_dir"], f"round-{round_index}")
    os.makedirs(out_dir)
    steps = []
    for step in plan["steps"]:
        argv = [arg.replace("{out}", out_dir) for arg in step["argv"]]
        probe_s = speed_probe()
        if tracer:
            with tracer.span("cli.main"):
                code, seconds = run_command(cli, argv)
        else:
            code, seconds = run_command(cli, argv)
        steps.append({"command": argv[0], "stage": step["stage"], "exit_code": code,
                      "seconds": seconds, "speed_probe_s": probe_s})
    record = {
        "steps": steps,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "digests": digests(out_dir),
        "out_dir": out_dir,
    }
    if tracer:
        record["layers"] = tracing.round_metrics(tracer.spans, 0, len(tracer.spans))
        tracer.restore()
        tracer.write(os.path.join(plan["run_dir"], f"spans-{round_index}.json"))
    if plan["probe"]:
        record["causality"] = causality_check(cli, plan["probe"], out_dir)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], int(sys.argv[2]), sys.argv[3]))
