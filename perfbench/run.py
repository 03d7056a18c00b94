"""End-to-end benchmark of the tidmine command line.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0

Each run times real ``python3 -m tidmine`` jobs, one subprocess at a time: a
closed loop with one client and the default ``--threads 1``. ``launch.py``
starts and measures each job. Every job's output is checked against
``reference.py``, after the timing. The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it name each metric with its unit and sample
count.

With ``--trace 0`` the metrics are end to end:

- ``job_s``: median wall seconds of one job, from spawn to exit, with its
  standard output drained by the benchmark;
- ``peak_rss_mb``: median peak resident memory of the job process, from
  ``os.wait4`` in ``launch.py``;
- ``setup_s``: median, over SETUPS set-ups, of generating and writing the
  input with ``generate_synthetic`` plus one untimed warm-up job.

Each set-up is followed by timed jobs for a SETUPS-th of ``--seconds``, at
least one job each.

With ``--trace 1`` each job runs through ``traced_job.py``, which wraps the
public functions of ``dataset``, ``mining``, ``rules``, ``metrics`` and
``cli`` from outside; the metrics are per layer, and untraced jobs alternate
with traced ones so that ``trace.overhead_pct`` compares the two.

Inputs: ``generate_synthetic(GeneratorConfig(rows, 50, 8, seed=1))`` for every
workload, its SHA-256 checked against ``inputs.json``, with the transaction
lines shuffled by ``--seed``. Shuffling changes the item interning order and
so the output order and candidate ids, but not the amount of work, so runs
with different seeds stay comparable; fresh generator seeds change the number
of frequent itemsets by a fifth or more.
"""

import argparse
import hashlib
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

ITEMS = 50
AVG_LEN = 8
GENERATOR_SEED = 1
SETUPS = 3
JOB_TIMEOUT_S = 30
MB = 1 << 20


@dataclass(frozen=True)
class Workload:
    name: str
    rows: int
    command: str
    min_support: str
    extra: tuple[str, ...] = ()
    min_confidence: str | None = None

    def cli_args(self, input_path: str) -> list[str]:
        args = [self.command, "--min-support", self.min_support, *self.extra]
        if self.min_confidence is not None:
            args += ["--min-confidence", self.min_confidence]
        return args + ["--format", "machine", "--input", input_path]


# Each workload makes a different layer dominate, so a change to one layer
# has a workload that exercises it and one that barely runs it. Row counts
# keep one run, with its set-ups, near half a minute on two cores.
WORKLOADS = {
    w.name: w
    for w in (
        # Counting is ~90% of the job and both paper kernels run in it.
        # --reps 0 keeps the output deterministic.
        Workload(
            "deep-compare", 1500, "compare", "0.05",
            ("--candidates", "join", "--reps", "0"),
        ),
        # Rule generation and output rendering dominate; counting is small.
        Workload("many-rules", 500, "rules", "0.05", min_confidence="0.5"),
        # Ingest and the L1 pass, and few candidates over long TID lists. Not
        # in BENCHMARK.json: its memory-bound job time swings by up to half
        # with the load of a shared machine, so ten runs spread by a third.
        Workload("wide-shallow", 50000, "mine", "0.25", ("--variant", "improved")),
    )
}

# The README's worked example: its ledgers prove the checker before timing.
SELF_TEST_TEXT = (
    "I1 I2 I5\nI2 I4\nI2 I4\nI1 I2 I4\nI1 I3\nI2 I3\nI1 I3\nI1 I2 I3 I5\nI1 I2 I3\n"
)
SELF_TEST_LEDGERS = {"classic": {1: 45, 2: 54, 3: 36}, "improved": {1: 45, 2: 25, 3: 14}}
SELF_TEST_SCAN_REDUCTION = 37.78


class SetupError(Exception):
    """The benchmark cannot produce trustworthy numbers; no result is printed."""


@dataclass
class Job:
    wall_s: float
    rss_mb: float
    exit_code: int
    timed_out: bool
    out: bytes
    digest: str
    stderr_tail: str


def run_job(cmd: list[str], env: dict, stderr_path: Path) -> Job:
    """Run one job through launch.py, draining its stdout here."""
    report = stderr_path.with_suffix(".report.json")
    report.unlink(missing_ok=True)
    launcher = [sys.executable, "-S", str(HERE / "launch.py"), str(report), str(JOB_TIMEOUT_S)]
    with open(stderr_path, "wb") as err:
        proc = subprocess.Popen(
            launcher + cmd, stdout=subprocess.PIPE, stderr=err, env=env, cwd=ROOT,
            start_new_session=True,
        )
    # Backstop in case the launcher itself hangs: end its whole session.
    timer = threading.Timer(JOB_TIMEOUT_S + 10, os.killpg, (proc.pid, signal.SIGKILL))
    timer.start()
    try:
        with proc.stdout:
            out = proc.stdout.read()
        proc.wait()
    finally:
        timer.cancel()
    stats = json.loads(report.read_text()) if report.exists() else {
        "wall_s": JOB_TIMEOUT_S, "maxrss_kb": 0, "exit_code": proc.returncode, "timed_out": True,
    }
    return Job(
        wall_s=stats["wall_s"],
        rss_mb=stats["maxrss_kb"] * 1024 / MB,
        exit_code=stats["exit_code"],
        timed_out=stats["timed_out"],
        out=out,
        digest=hashlib.sha256(out).hexdigest(),
        stderr_tail=stderr_path.read_text(errors="replace")[-300:].strip(),
    )


def job_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def cli_cmd(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "tidmine", *args]


# ---------------------------------------------------------------- checking


def check_output(out: bytes, ref, workload: Workload) -> str | None:
    """None when ``out`` is the correct machine output, else the first reason."""
    try:
        payload = json.loads(out)
    except ValueError as exc:
        return f"stdout is not JSON: {exc}"
    try:
        if workload.command == "compare":
            return check_compare(payload, ref, "join")
        problem = check_mine(payload, ref)
        if problem is None and workload.command == "rules":
            problem = check_rules(payload, ref, workload.min_confidence)
        return problem
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        return f"malformed output: {exc!r}"


def _ledger(per_level: dict) -> dict[int, int]:
    return {int(k): v for k, v in per_level.items()}


def check_compare(payload: dict, ref, strategy: str) -> str | None:
    want = ref.ledgers(strategy)
    got = {v["variant"]: v for v in payload["variants"]}
    for variant, ledger in want.items():
        if variant not in got:
            return f"variant {variant} missing"
        if _ledger(got[variant]["per_level_scans"]) != ledger:
            return f"{variant} ledger {got[variant]['per_level_scans']} != {ledger}"
        if got[variant]["total_scans"] != sum(ledger.values()):
            return f"{variant} total_scans disagrees with its ledger"
    if payload["min_support_count"] != ref.min_support_count:
        return "min_support_count disagrees"
    classic, improved = (sum(want[v].values()) for v in ("classic", "improved"))
    if not math.isclose(
        payload["scan_reduction_percent"], (classic - improved) / classic * 100, rel_tol=1e-12
    ):
        return f"scan_reduction_percent {payload['scan_reduction_percent']} disagrees"
    return None


def check_mine(payload: dict, ref) -> str | None:
    variant = payload["variant"]
    want_levels = {
        k: [(ref.names(s), n) for s, n in level.items()] for k, level in ref.levels.items()
    }
    got_levels = {
        lv["k"]: [(it["items"], it["support"]) for it in lv["itemsets"]]
        for lv in payload["levels"]
    }
    if got_levels != want_levels:
        for k in sorted(set(want_levels) | set(got_levels)):
            if got_levels.get(k) != want_levels.get(k):
                return f"frequent {k}-itemsets disagree with the reference"
    if payload["min_support_count"] != ref.min_support_count:
        return "min_support_count disagrees"
    if payload["num_transactions"] != ref.num_transactions:
        return "num_transactions disagrees"
    ledger = ref.ledgers("join")[variant]
    if _ledger(payload["per_level_scans"]) != ledger:
        return f"{variant} ledger {payload['per_level_scans']} != {ledger}"
    if payload["total_scans"] != sum(ledger.values()):
        return "total_scans disagrees with the ledger"
    if payload["total_frequent_itemsets"] != sum(len(v) for v in ref.levels.values()):
        return "total_frequent_itemsets disagrees"
    return None


def check_rules(payload: dict, ref, min_confidence: str) -> str | None:
    want = [
        (ref.names(a), ref.names(c), s, s / a_s)
        for a, c, s, a_s in ref.rules(min_confidence)
    ]
    got = [
        (r["antecedent"], r["consequent"], r["support"], r["confidence"])
        for r in payload["rules"]
    ]
    if len(got) != len(want):
        return f"{len(got)} rules, reference has {len(want)}"
    for i, (g, w) in enumerate(zip(got, want)):
        if g != w:
            return f"rule {i} is {g}, reference has {w}"
    return None


def self_test(work: Path, env: dict) -> None:
    """Push the README example through the same job and check path."""
    from reference import Reference

    path = work / "self-test.txt"
    path.write_text(SELF_TEST_TEXT, encoding="utf-8")
    ref = Reference(SELF_TEST_TEXT, "3")
    if ref.ledgers("combinations") != SELF_TEST_LEDGERS:
        raise SetupError(f"reference ledgers {ref.ledgers('combinations')} on the README example")
    args = ["compare", "--input", str(path), "--min-support", "3",
            "--candidates", "combinations", "--reps", "0", "--format", "machine"]
    job = run_job(cli_cmd(args), env, work / "self-test.err")
    if job.exit_code != 0:
        raise SetupError(f"self-test job exited {job.exit_code}: {job.stderr_tail}")
    try:
        payload = json.loads(job.out)
    except ValueError as exc:
        raise SetupError(f"self-test output is not JSON: {exc}") from None
    problem = check_compare(payload, ref, "combinations")
    if problem is None and round(payload["scan_reduction_percent"], 2) != SELF_TEST_SCAN_REDUCTION:
        problem = f"scan reduction {payload['scan_reduction_percent']}"
    if problem is not None:
        raise SetupError(f"self-test on the README example failed: {problem}")


# ----------------------------------------------------------------- set-up


def generate_input(workload: Workload, seed: int, recorded: dict) -> tuple[str, float]:
    """The workload's input text for ``seed``, and the generate_synthetic time."""
    from tidmine import GeneratorConfig, generate_synthetic

    start = time.perf_counter()
    text = generate_synthetic(
        GeneratorConfig(workload.rows, ITEMS, AVG_LEN, GENERATOR_SEED)
    ).to_text()
    generate_s = time.perf_counter() - start
    data = text.encode("utf-8")
    want = recorded[workload.name]
    got = {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}
    if got != {k: want[k] for k in got}:
        raise SetupError(
            f"generate_synthetic output for {workload.name} changed: {got} != recorded "
            f"{want}; the sample stream moved, so the workload did too"
        )
    lines = text.splitlines(keepends=True)
    random.Random(seed).shuffle(lines)
    return "".join(lines), generate_s


@dataclass
class Setup:
    seconds: float
    generate_s: float
    input_path: Path
    text: str


def set_up(workload: Workload, seed: int, work: Path, env: dict, recorded: dict) -> Setup:
    start = time.perf_counter()
    text, generate_s = generate_input(workload, seed, recorded)
    path = work / "input.txt"
    path.write_text(text, encoding="utf-8")
    run_job(cli_cmd(workload.cli_args(str(path))), env, work / "warm-up.err")
    return Setup(time.perf_counter() - start, generate_s, path, text)


# ---------------------------------------------------------------- running


def verify(jobs: list[Job], setup: Setup, workload: Workload) -> list[str | None]:
    """Per job, None when it succeeded, else why it failed. Each distinct
    output is checked once: outputs are deterministic."""
    from reference import Reference

    ref = Reference(setup.text, workload.min_support)
    verdict: dict[str, str | None] = {}
    problems = []
    for job in jobs:
        if job.timed_out:
            problems.append(f"timed out after {JOB_TIMEOUT_S} s")
        elif job.exit_code != 0:
            problems.append(f"exit code {job.exit_code}: {job.stderr_tail}")
        else:
            if job.digest not in verdict:
                verdict[job.digest] = check_output(job.out, ref, workload)
            problems.append(verdict[job.digest])
    return problems


def measure(workload: Workload, seed: int, seconds: int, work: Path, recorded: dict) -> dict:
    env = job_env()
    self_test(work, env)
    setups, jobs = [], []
    # One slot of timed jobs after each set-up spreads the samples over the
    # whole run, so that a slow spell of the machine weighs less.
    for _ in range(SETUPS):
        setup = set_up(workload, seed, work, env, recorded)
        setups.append(setup)
        cmd = cli_cmd(workload.cli_args(str(setup.input_path)))
        start = time.perf_counter()
        slot = []
        while not slot or time.perf_counter() - start < seconds / SETUPS:
            slot.append(run_job(cmd, env, work / "job.err"))
        jobs += slot
    problems = verify(jobs, setup, workload)
    for problem in dict.fromkeys(p for p in problems if p):
        print(f"FAILED {workload.name}: {problem}")
    report = [
        ("job_s", statistics.median(j.wall_s for j in jobs), "s", f"median of {len(jobs)} jobs"),
        ("peak_rss_mb", statistics.median(j.rss_mb for j in jobs), "MB", f"median of {len(jobs)} jobs"),
        ("setup_s", statistics.median(s.seconds for s in setups), "s", f"median of {SETUPS} set-ups"),
    ]
    failed = sum(1 for p in problems if p)
    print(f"{workload.name} seed {seed}: fail_ratio {failed}/{len(jobs)}")
    return result(report, len(jobs), failed)


def measure_traced(workload: Workload, seed: int, seconds: int, work: Path, recorded: dict) -> dict:
    env = job_env()
    self_test(work, env)
    setup = set_up(workload, seed, work, env, recorded)
    args = workload.cli_args(str(setup.input_path))
    plain, traced, span_sets = [], [], []
    start = time.perf_counter()
    while not plain or time.perf_counter() - start < seconds:
        plain.append(run_job(cli_cmd(args), env, work / "job.err"))
        spans_path = work / f"spans-{len(traced)}.json"
        cmd = [sys.executable, str(HERE / "traced_job.py"), str(spans_path), str(len(traced)), "--", *args]
        traced.append(run_job(cmd, env, work / "traced.err"))
        if traced[-1].exit_code == 0:
            span_sets.append(json.loads(spans_path.read_text()))
    problems = verify(plain + traced, setup, workload)
    for problem in dict.fromkeys(p for p in problems if p):
        print(f"FAILED {workload.name}: {problem}")
    failed = sum(1 for p in problems if p)
    layers = [layer_metrics(spans, len(setup.text.encode("utf-8"))) for spans in span_sets]
    names = list(layers[0]) if layers else []
    report = [
        (name, statistics.median(m[name][0] for m in layers), layers[0][name][1],
         f"median of {len(layers)} traced jobs")
        for name in names
    ]
    report.append(("dataset.generate_s", setup.generate_s, "s", "one set-up"))
    plain_s = statistics.median(j.wall_s for j in plain)
    traced_s = statistics.median(j.wall_s for j in traced)
    report.append((
        "trace.overhead_pct", (traced_s - plain_s) / plain_s * 100, "%",
        f"traced {traced_s:.4f} s vs untraced {plain_s:.4f} s, medians of {len(plain)} jobs each",
    ))
    if span_sets:
        for line in layer_notes(span_sets[0]):
            print(line)
        trace_path = WORK / f"trace-{workload.name}-seed{seed}.json"
        trace_path.write_text(json.dumps(span_sets))
        print(f"spans written to {trace_path.relative_to(ROOT)}")
    print(f"{workload.name} seed {seed}: fail_ratio {failed}/{len(plain) + len(traced)}")
    return result(report, len(plain) + len(traced), failed)


def result(report: list, attempted: int, failed: int) -> dict:
    for name, value, unit, basis in report:
        print(f"{name} = {value:.6g} {unit} ({basis})")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, value, unit, _ in report},
    }


# ------------------------------------------------------------ per layer


def _durations(spans: list[dict]) -> tuple[dict[int, float], dict[int, float]]:
    """Duration and self time of every span; self time is the duration minus
    the part of it that child spans cover (children never overlap here)."""
    total = {s["id"]: s["end"] - s["start"] for s in spans}
    self_time = dict(total)
    for s in spans:
        if s["parent"] is not None:
            self_time[s["parent"]] -= total[s["id"]]
    return total, self_time


def layer_metrics(spans: list[dict], input_bytes: int) -> dict:
    """Per-layer metrics of one traced job that every workload produces.

    Counting, generation and L1 times sum over every run_apriori call in the
    job. Candidate, frequent and examination counts are those of the
    ``improved`` run, which every workload makes; examinations are the ledger
    entries of levels 2 and up, the ones counting makes.
    """
    total, self_time = _durations(spans)

    def seconds(name, **match):
        return sum(
            total[s["id"]] for s in spans
            if s["name"] == name and all(s["attrs"].get(k) == v for k, v in match.items())
        )

    def only(name):
        return next(s for s in spans if s["name"] == name)

    improved_run = next(
        s for s in spans if s["name"] == "mining.run_apriori" and s["attrs"]["variant"] == "improved"
    )
    inside = [s for s in spans if improved_run["start"] <= s["start"] <= improved_run["end"]]
    candidates = {}
    for s in inside:
        if s["name"] == "mining.count_support":
            level = s["attrs"]["level"]
            candidates[level] = candidates.get(level, 0) + s["attrs"]["candidates"]
    ledger = {int(k): v for k, v in improved_run["attrs"]["ledger"].items()}
    frequent = {int(k): v for k, v in improved_run["attrs"]["frequent"].items()}
    improved_count_s = seconds("mining.count_support", variant="improved")
    exams = sum(v for k, v in ledger.items() if k >= 2)
    cli_main = only("cli.main")
    out = {
        "cli.import_s": (total[only("cli.import")["id"]], "s"),
        "cli.self_s": (self_time[cli_main["id"]], "s"),
        "cli.out_mb": (cli_main["attrs"]["out_bytes"] / MB, "MB"),
        "dataset.load_s": (seconds("dataset.load_transactions"), "s"),
        "dataset.input_mb": (input_bytes / MB, "MB"),
        "mining.run_s": (seconds("mining.run_apriori"), "s"),
        "mining.self_s": (
            sum(self_time[s["id"]] for s in spans if s["name"] == "mining.run_apriori"), "s"
        ),
        "mining.l1_s": (seconds("mining.compute_l1"), "s"),
        "mining.gen_s": (seconds("mining.generate_candidates"), "s"),
        "mining.count_s": (seconds("mining.count_support"), "s"),
        "mining.count_s.improved": (improved_count_s, "s"),
        "mining.exams.improved": (exams, "count"),
        "mining.exams_per_s.improved": (exams / improved_count_s, "1/s"),
        "mining.candidates": (sum(candidates.values()), "count"),
        "mining.frequent": (sum(frequent.values()), "count"),
        "mining.frequent_k2": (sum(v for k, v in frequent.items() if k >= 2), "count"),
    }
    out["mining.candidate_yield"] = (
        out["mining.frequent_k2"][0] / out["mining.candidates"][0], "ratio"
    )
    for k in PER_LEVEL:
        out[f"mining.gen_s.L{k}"] = (seconds("mining.generate_candidates", level=k), "s")
        out[f"mining.count_s.L{k}"] = (seconds("mining.count_support", level=k), "s")
        out[f"mining.exams.improved.L{k}"] = (ledger.get(k, 0), "count")
        out[f"mining.candidates.L{k}"] = (candidates.get(k, 0), "count")
    return out


# Levels that every workload counts; deeper levels exist only on some.
PER_LEVEL = (2, 3)


def layer_notes(spans: list[dict]) -> list[str]:
    """Layers that run on some workloads only, with the bases of the paper's
    two rates. They are printed and kept in the span file, not reported as
    metrics, because a layer that does not run would read zero."""
    total, _ = _durations(spans)
    runs = {s["attrs"]["variant"]: s for s in spans if s["name"] == "mining.run_apriori"}
    notes = []
    for variant, run in runs.items():
        count_s = sum(
            total[s["id"]] for s in spans
            if s["name"] == "mining.count_support" and s["attrs"]["variant"] == variant
        )
        exams = sum(v for k, v in run["attrs"]["ledger"].items() if int(k) >= 2)
        notes.append(
            f"mining.run_s.{variant} = {total[run['id']]:.6g} s; "
            f"mining.count_s.{variant} = {count_s:.6g} s; mining.exams.{variant} = {exams}"
        )
    if {"classic", "improved"} <= set(runs):
        c_ledger = sum(runs["classic"]["attrs"]["ledger"].values())
        i_ledger = sum(runs["improved"]["attrs"]["ledger"].values())
        c_s, i_s = total[runs["classic"]["id"]], total[runs["improved"]["id"]]
        notes.append(
            f"metrics.scan_reduction_pct = {(c_ledger - i_ledger) / c_ledger * 100:.4f} % "
            f"(ledger totals classic {c_ledger}, improved {i_ledger})"
        )
        notes.append(
            f"metrics.time_reduction_pct = {(c_s - i_s) / c_s * 100:.4f} % "
            f"(run_apriori classic {c_s:.4f} s, improved {i_s:.4f} s)"
        )
    for s in spans:
        if s["name"] == "rules.generate_rules":
            emitted = s["attrs"]["emitted"]
            notes.append(
                f"rules.gen_s = {total[s['id']]:.6g} s; rules.emitted = {emitted}; "
                f"rules.per_s = {emitted / total[s['id']]:.6g} 1/s"
            )
        elif s["name"] == "metrics.render_report":
            notes.append(f"metrics.render_s = {total[s['id']]:.6g} s")
    return notes


# ------------------------------------------------------------------ main


def run_one(name: str, seed: int, seconds: int, trace: bool) -> dict:
    recorded = json.loads((HERE / "inputs.json").read_text())["inputs"]
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-seed{seed}-", dir=WORK))
    try:
        fn = measure_traced if trace else measure
        return fn(WORKLOADS[name], seed, seconds, work, recorded)
    finally:
        shutil.rmtree(work)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "tidmine" / "__init__.py").is_file():
        print(f"error: no tidmine sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {n: run_one(n, args.seed, args.seconds, bool(args.trace)) for n in names}
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
