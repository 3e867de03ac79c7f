"""Pipeline benchmark for tagmerge.

Usage (from the repository root):

    python3 bench/run.py --workload model-grid --seed 1 --seconds 55 --trace 0

Set-up generates the workload's scenario from --seed with `tagmerge synth`,
several times, and reports the median as `setup_s`. Then whole rounds of the
timed command sequence `ingest -> detect -> label -> featurize -> evaluate /
rank-features / ablate` run within --seconds seconds, each round in a fresh
single-threaded worker process. Every command is one operation; a non-zero
exit code counts as a failure. The last round's artifacts are checked
against the synth manifest and a plain-Python re-reading of the corpus, and
every round must produce the same artifact bytes.

With --trace 0 the metrics are end-to-end times (each command's slowest
round, summed) and the worker's peak memory; with --trace 1 they are
per-layer times and counts from spans around each module's public
functions. The last line of stdout is one JSON object with `correct`,
`attempted`, `failed` and `metrics`. A fuller record, with the git SHA and
machine facts, is written under .bench_runs/results/; --compare FILE prints
the change against an earlier record.
"""

from __future__ import annotations

import os

# one thread per process: the measured machine has two cores, and numpy's
# BLAS would otherwise start a thread per core in the worker
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import worker

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RUNS = ROOT / ".bench_runs"

SETUP_REPEATS = 3
# a run must end within 180 s; no round starts once less time than the
# longest round so far is left before this limit
TIME_LIMIT_S = 170.0

STAGES = ("ingest", "detect_label", "featurize", "evaluate")
END_TO_END_UNITS = {
    "setup_s": "s",
    "pipeline_s": "s",
    "ingest_s": "s",
    "detect_label_s": "s",
    "featurize_s": "s",
    "evaluate_s": "s",
    "peak_rss_mb": "MB",
}


def git_sha(root: Path) -> str | None:
    """HEAD commit of the checkout, read without running git; None outside a clone."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return None


def machine_facts() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def call_cli(cli, argv) -> None:
    """Run a set-up command; set-up must succeed for the run to mean anything."""
    code, _ = worker.run_command(cli, argv)
    if code != 0:
        raise RuntimeError(f"set-up command failed with exit code {code}: {' '.join(map(str, argv))}")


# ---------------------------------------------------------------------------
# set-up

def set_up_scenario(cli, workloads, workload, seed: int, run_dir: Path, tracer):
    """Generate the scenario SETUP_REPEATS times; keep the first copy.

    Returns the scenario directory, the set-up times, the per-repeat layer
    metrics when tracing, and whether every copy had the same bytes.
    """
    times, layers, digests = [], [], []
    for rep in range(SETUP_REPEATS):
        scen = run_dir / f"scenario-{rep}"
        argv = workloads.synth_argv(workload, seed, str(scen))
        first = len(tracer.spans) if tracer else 0
        started = time.perf_counter()
        call_cli(cli, argv)
        times.append(time.perf_counter() - started)
        if tracer:
            import tracing

            layers.append(tracing.setup_metrics(tracer.spans, first, len(tracer.spans)))
        digests.append(worker.digests(scen))
        if rep:
            shutil.rmtree(scen)
    return run_dir / "scenario-0", times, layers, all(d == digests[0] for d in digests)


def set_up_probe(cli, workloads, workload, run_dir: Path) -> dict:
    """A fixed-seed wide-vocabulary scenario for the causality operation.

    The full pipeline up to `featurize` runs once here. The timed rounds
    then featurize only the candidates of the earliest compounding month and
    compare their rows with the rows of this full run.
    """
    probe = run_dir / "probe"
    scen = probe / "scenario"
    config = workloads.wide_vocab_config(workloads.PROBE_CANDIDATES, workloads.PROBE_SEED)
    scen.mkdir(parents=True)
    config.save(scen / "scenario-config.json")
    call_cli(cli, ["synth", "--scenario-config", scen / "scenario-config.json", "--out-dir", scen])
    index, labeled, full = probe / "index.json", probe / "labeled.tsv", probe / "full.csv"
    call_cli(cli, ["ingest", "--corpus", scen / "corpus.jsonl", "--out", index])
    call_cli(cli, ["detect", "--index", index, "--out", probe / "candidates.tsv"])
    call_cli(cli, ["label", "--index", index, "--candidates", probe / "candidates.tsv",
                   "--out", labeled])
    call_cli(cli, workloads.featurize_argv(workload, str(scen), str(index), str(labeled), str(full)))

    eligible = checks.eligible_rows(
        checks.read_manifest(scen / "manifest.tsv"), workloads.MIN_SUPPORT
    )
    first_t0 = min(row["t0"] for row in eligible)
    positions = [i for i, row in enumerate(eligible) if row["t0"] == first_t0]
    early_names = {eligible[i]["compound"] for i in positions}
    lines = labeled.read_text(encoding="utf-8").splitlines(keepends=True)
    early = probe / "early.tsv"
    early.write_text(
        lines[0] + "".join(l for l in lines[1:] if l.split("\t", 1)[0] in early_names),
        encoding="utf-8",
    )
    argv = workloads.featurize_argv(
        workload, str(scen), str(index), str(early), "{out}/causality-early.csv"
    )
    return {"argv": argv, "full_features": str(full), "early_positions": positions}


# ---------------------------------------------------------------------------
# results

def end_to_end(rounds: list[dict], setup_times: list[float]) -> dict:
    """`setup_s` is the median set-up; the times add up slowest commands.

    Each command's time is its slowest over the rounds; a stage is the sum
    of its commands and `pipeline_s` the sum of all of them. A shared
    virtual machine can run at a steady slow speed with bursts up to twice
    as fast that come and go over seconds to minutes. A median moves with
    the share of bursts in a run; a command's slowest time lands on the
    steady speed whenever one of its rounds missed the bursts.
    """
    slowest = [max(r["steps"][i]["seconds"] for r in rounds)
               for i in range(len(rounds[0]["steps"]))]
    values = {"setup_s": statistics.median(setup_times), "pipeline_s": sum(slowest)}
    for stage in STAGES:
        values[f"{stage}_s"] = sum(
            t for step, t in zip(rounds[0]["steps"], slowest) if step["stage"] == stage
        )
    values["peak_rss_mb"] = statistics.median(r["peak_rss_mb"] for r in rounds)
    return values


def print_comparison(previous_path: str, metrics: dict) -> None:
    with open(previous_path, encoding="utf-8") as fh:
        previous = json.load(fh)
    old = previous.get("metrics", {})
    print(f"compared with {previous_path} (git {previous.get('git_sha')}, "
          f"seed {previous.get('seed')})")
    for name, entry in metrics.items():
        if name not in old:
            print(f"  {name:36s} {entry['value']:>14.6g}  (new)")
            continue
        before = old[name]["value"]
        change = (entry["value"] - before) / before * 100.0 if before else float("nan")
        print(f"  {name:36s} {before:>14.6g} -> {entry['value']:<14.6g} {change:+7.2f}%")


def run_rounds(plan_path: Path, run_dir: Path, seconds: float, deadline: float) -> list[dict]:
    """Whole rounds, one worker process each, within `seconds`.

    The first round always runs; another starts only while the longest
    round so far still fits in what is left of `seconds`.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(BENCH_DIR)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    rounds: list[dict] = []
    started = time.perf_counter()
    longest = 0.0
    while not rounds or (time.perf_counter() - started + longest <= seconds
                         and time.perf_counter() + longest < deadline):
        k = len(rounds)
        out = run_dir / f"round-{k}.json"
        round_started = time.perf_counter()
        subprocess.run(
            [sys.executable, str(BENCH_DIR / "worker.py"), str(plan_path), str(k), str(out)],
            env=env, stdout=subprocess.DEVNULL, check=True,
            timeout=max(10.0, deadline - time.perf_counter()),
        )
        longest = max(longest, time.perf_counter() - round_started)
        rounds.append(json.loads(out.read_text(encoding="utf-8")))
        if k:
            # only the last round's artifacts are checked; digests cover the rest
            shutil.rmtree(run_dir / f"round-{k - 1}")
    return rounds


def main(argv=None) -> int:
    if not (SRC / "tagmerge" / "cli.py").is_file():
        print(f"error: no tagmerge sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    deadline = time.perf_counter() + TIME_LIMIT_S

    import workloads
    from tagmerge import cli

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", help="earlier result file to print the change against")
    args = parser.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload]
    run_dir = RUNS / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    results_dir = RUNS / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    if run_dir.exists():
        shutil.rmtree(run_dir)
    run_dir.mkdir()
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        tracer = None
        if args.trace:
            import tracing

            tracer = tracing.Tracer()
            tracing.install_setup(tracer)
        try:
            scen, setup_times, setup_layers, setup_same = set_up_scenario(
                cli, workloads, workload, args.seed, run_dir, tracer
            )
        finally:
            if tracer:
                tracer.restore()
        plan = {
            "run_dir": str(run_dir),
            "trace": bool(args.trace),
            "steps": [{"stage": s.stage, "argv": list(s.argv)}
                      for s in workloads.pipeline_steps(workload, str(scen), "{out}")],
            "probe": set_up_probe(cli, workloads, workload, run_dir)
            if workload.causality_probe else None,
        }
        plan_path = run_dir / "plan.json"
        plan_path.write_text(json.dumps(plan, indent=1), encoding="utf-8")
        rounds = run_rounds(plan_path, run_dir, args.seconds, deadline)

        attempted = failed = 0
        for record in rounds:
            attempted += len(record["steps"])
            failed += sum(1 for step in record["steps"] if step["exit_code"] != 0)
            if "causality" in record:
                attempted += 1
                failed += 0 if record["causality"]["ok"] else 1

        failures = []
        if not setup_same:
            failures.append("set-up: repeated scenario generation wrote different bytes")
        if any(r["digests"] != rounds[0]["digests"] for r in rounds):
            failures.append("artifacts: rounds of one run wrote different bytes")
        try:
            failures += checks.check_workload(
                workload, str(scen), rounds[-1]["out_dir"],
                workloads.MIN_SUPPORT, workloads.OBS_MONTHS,
            )
        except (OSError, KeyError, ValueError) as exc:
            failures.append(f"artifacts unreadable: {type(exc).__name__}: {exc}")

        e2e = end_to_end(rounds, setup_times)
        if args.trace:
            values = tracing.median_metrics([r["layers"] for r in rounds])
            values.update(tracing.median_metrics(setup_layers))
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit in tracing.LAYER_UNITS.items()}
            spans = [json.loads((run_dir / f"spans-{k}.json").read_text(encoding="utf-8"))
                     for k in range(len(rounds))]
            (results_dir / f"{stem}-spans.json").write_text(
                json.dumps({"rounds": spans}, separators=(",", ":")) + "\n", encoding="utf-8"
            )
        else:
            metrics = {name: {"value": v, "unit": END_TO_END_UNITS[name]} for name, v in e2e.items()}

        record = {
            "workload": workload.name,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "git_sha": git_sha(ROOT),
            "machine": machine_facts(),
            "correct": not failures,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
            "end_to_end": e2e,
            "setup_s_samples": setup_times,
            "failures": failures,
            "rounds": [
                {key: r.get(key) for key in ("steps", "peak_rss_mb", "causality")}
                for r in rounds
            ],
            "digests": rounds[0]["digests"],
        }
        result_path = results_dir / f"{stem}.json"
        result_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

        print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}  "
              f"rounds {len(rounds)}  git {record['git_sha']}")
        for failure in failures:
            print(f"CHECK FAILED: {failure}")
        causality = next((r["causality"] for r in rounds if r.get("causality")), None)
        if causality and not causality["ok"]:
            print(f"causality operation failed: {json.dumps(causality, sort_keys=True)}")
        if args.trace:
            print(f"traced pipeline_s {e2e['pipeline_s']:.4f}; an untraced run of the same "
                  f"workload gives the tracing overhead")
        for name, entry in metrics.items():
            print(f"  {name:36s} {entry['value']:>14.6g} {entry['unit']}")
        if args.compare:
            print_comparison(args.compare, metrics)
        print(f"record -> {result_path}")
        print(json.dumps({"correct": not failures, "attempted": attempted, "failed": failed,
                          "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
