"""The benchmark's tracer still finds the functions it times.

`perfbench/traced_job.py` wraps module attributes from outside the program,
so a refactor that stops calling them through those attributes would leave
their time unattributed without failing any other test.
"""

import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _traced_job(tmp_path, env, *cli_args):
    """Run one CLI job through the tracer; return the process and its spans."""
    spans_path = tmp_path / "spans.json"
    proc = subprocess.run(
        [
            sys.executable, str(ROOT / "perfbench" / "traced_job.py"),
            str(spans_path), "job-0", "--", *cli_args,
        ],
        capture_output=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc, json.loads(spans_path.read_text())


def test_traced_compare_records_every_hooked_layer(golden_path, tmp_path, src_env):
    proc, spans = _traced_job(
        tmp_path,
        src_env,
        "compare",
        "--input", str(golden_path),
        "--min-support", "3",
        "--candidates", "combinations",
        "--reps", "0",
        "--format", "machine",
    )
    assert json.loads(proc.stdout)["command"] == "compare"
    names = Counter(span["name"] for span in spans)
    assert names["mining.run_apriori"] == 2
    assert names["metrics.render_report"] == 1
    counted = {
        span["attrs"]["variant"] for span in spans if span["name"] == "mining.count_support"
    }
    assert counted == {"classic", "improved"}


def test_traced_rules_records_every_hooked_layer(golden_path, tmp_path, src_env):
    proc, spans = _traced_job(
        tmp_path,
        src_env,
        "rules",
        "--input", str(golden_path),
        "--min-support", "2",
        "--min-confidence", "0.5",
        "--format", "machine",
    )
    assert json.loads(proc.stdout)["command"] == "rules"
    names = Counter(span["name"] for span in spans)
    assert names["dataset.load_transactions"] == 1
    assert names["mining.run_apriori"] == 1
    assert names["rules.generate_rules"] == 1
    (main_span,) = [span for span in spans if span["name"] == "cli.main"]
    assert main_span["attrs"]["out_bytes"] == len(proc.stdout)


def test_traced_compare_join_records_every_candidate_level(golden_path, tmp_path, src_env):
    # A join that stops going through the hooked name would leave the
    # benchmark's mining.gen_s empty without failing anything else.
    proc, spans = _traced_job(
        tmp_path,
        src_env,
        "compare",
        "--input", str(golden_path),
        "--min-support", "2",
        "--candidates", "join",
        "--reps", "0",
        "--format", "machine",
    )
    assert json.loads(proc.stdout)["command"] == "compare"
    runs = {span["id"]: span["attrs"] for span in spans if span["name"] == "mining.run_apriori"}
    generated = {run: [] for run in runs}
    for span in spans:
        if span["name"] == "mining.generate_candidates":
            generated[span["parent"]].append(span["attrs"]["level"])
    assert sorted(run["variant"] for run in runs.values()) == ["classic", "improved"]
    for run, levels in generated.items():
        # One candidate level past each frequent level, the last one empty.
        assert runs[run]["frequent"] == {"1": 5, "2": 6, "3": 2}
        assert levels == [2, 3, 4]


def test_traced_compare_records_one_l1_pass_per_run(golden_path, tmp_path, src_env):
    # A run that built its index without calling compute_l1 would leave the
    # benchmark's mining.l1_s empty without failing anything else.
    _, spans = _traced_job(
        tmp_path,
        src_env,
        "compare",
        "--input", str(golden_path),
        "--min-support", "3",
        "--reps", "0",
        "--format", "machine",
    )
    runs = [span["id"] for span in spans if span["name"] == "mining.run_apriori"]
    passes = [span["parent"] for span in spans if span["name"] == "mining.compute_l1"]
    assert len(runs) == 2 and sorted(passes) == sorted(runs)
