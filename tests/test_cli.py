import ast
import doctest
import hashlib
import importlib.util
import itertools
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import tidmine
from tidmine import cli, dataset, metrics, mining, rules
from tidmine.cli import main
from tidmine.dataset import GeneratorConfig, generate_synthetic
from tidmine.errors import ContractViolationError


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# The default batch, and one chunk (one line) per write.
BATCH_SIZES = (cli.JSON_BATCH_CHUNKS, 1)


def test_mine_golden_human(golden_path, capsys, monkeypatch):
    outputs = []
    for batch in BATCH_SIZES:
        monkeypatch.setattr(cli, "JSON_BATCH_CHUNKS", batch)
        code, out, err = run_cli(
            capsys,
            "mine",
            "--input", str(golden_path),
            "--min-support", "3",
            "--variant", "improved",
            "--candidates", "combinations",
        )
        assert code == 0
        assert "8 frequent itemsets" in out
        assert "I1, I2  (support 4)" in out
        assert "1-itemset 45, 2-itemset 25, 3-itemset 14, total 84" in out
        outputs.append(out)
    assert outputs[0] == outputs[1]


def test_mine_golden_machine(golden_path, capsys):
    code, out, _ = run_cli(
        capsys,
        "mine",
        "--input", str(golden_path),
        "--min-support", "3",
        "--variant", "classic",
        "--candidates", "combinations",
        "--format", "machine",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["per_level_scans"] == {"1": 45, "2": 54, "3": 36}
    assert payload["total_scans"] == 135
    assert payload["min_support_count"] == 3
    level2 = next(level for level in payload["levels"] if level["k"] == 2)
    got = {tuple(e["items"]): e["support"] for e in level2["itemsets"]}
    assert got == {
        ("I1", "I2"): 4,
        ("I1", "I3"): 4,
        ("I2", "I4"): 3,
        ("I2", "I3"): 3,
    }


def test_mine_empty_file(tmp_path, capsys):
    empty = tmp_path / "empty.txt"
    empty.write_text("", encoding="utf-8")
    code, out, _ = run_cli(capsys, "mine", "--input", str(empty), "--min-support", "1")
    assert code == 0
    assert "0 frequent itemsets" in out


def test_mine_min_support_zero_is_usage_error(golden_path, capsys):
    code, _, err = run_cli(
        capsys, "mine", "--input", str(golden_path), "--min-support", "0"
    )
    assert code == 2
    assert "min_support" in err


def test_mine_missing_input_is_runtime_error(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "mine", "--input", str(tmp_path / "nope.txt"), "--min-support", "3"
    )
    assert code == 1
    assert "error" in err


def test_mine_requires_exactly_one_source(golden_path, capsys):
    code, _, _ = run_cli(
        capsys,
        "mine",
        "--input", str(golden_path),
        "--generate", "10,5,2",
        "--min-support", "2",
    )
    assert code == 2
    code, _, _ = run_cli(capsys, "mine", "--min-support", "2")
    assert code == 2


@pytest.mark.parametrize("command", ["mine", "rules", "compare"])
@pytest.mark.parametrize("flag, value", [("--input", None), ("--generate", "10,5,2")])
def test_single_source_commands_reject_a_second_source(
    command, flag, value, golden_path, capsys
):
    value = value or str(golden_path)
    extra = ["--min-confidence", "0.5"] if command == "rules" else []
    code, out, err = run_cli(
        capsys, command, flag, value, flag, value, "--min-support", "2", *extra
    )
    assert (code, out) == (2, "")
    assert "exactly one of --input or --generate is required" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["mine", "--generate", "20000,50,8", "--min-support", "abc"],
        ["mine", "--generate", "20000,50,8", "--min-support", "1.5"],
        ["rules", "--generate", "20000,50,8", "--min-support", "0.05", "--min-confidence", "2"],
        ["rules", "--generate", "20000,50,8", "--min-support", "0.05", "--min-confidence", "x"],
        ["compare", "--generate", "20000,50,8", "--min-support", "0.05", "--reps", "-1"],
        [
            "bench", "--generate", "20000,50,8", "--generate", "20000,50,8",
            "--min-support", "x",
        ],
        ["bench", "--generate", "20000,50,8", "--min-support", "0.05", "--reps", "0"],
        ["bench", "--generate", "20000,50,8", "--generate", "20000,50", "--min-support", "0.05"],
        ["mine", "--input", "/nonexistent", "--min-support", "abc"],
        [
            "compare", "--generate", "20000,50,8", "--min-support", "0.05",
            "--candidates", "join-unpruned",
        ],
    ],
)
def test_bad_flags_stop_the_run_before_any_input(argv, capsys, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("input was read before every flag was checked")

    monkeypatch.setattr(cli, "load_transactions", never)
    monkeypatch.setattr(cli, "generate_synthetic", never)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert "error: argument --" in err


def test_unknown_flag_is_usage_error(capsys):
    assert run_cli(capsys, "mine", "--bogus")[0] == 2


def test_fractional_min_support_flag(golden_path, capsys):
    code, out, _ = run_cli(
        capsys,
        "mine",
        "--input", str(golden_path),
        "--min-support", "0.34",
        "--format", "machine",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["min_support"] == 0.34
    assert payload["min_support_count"] == 4


def test_generate_source(capsys):
    code, out, _ = run_cli(
        capsys,
        "mine",
        "--generate", "200,20,5",
        "--min-support", "0.2",
        "--seed", "3",
        "--format", "machine",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["num_transactions"] == 200
    assert payload["dataset"] == "generated(n=200,items=20,avg_len=5,seed=3)"


def test_rules_golden(golden_path, capsys, monkeypatch):
    outputs = []
    for batch in BATCH_SIZES:
        monkeypatch.setattr(cli, "JSON_BATCH_CHUNKS", batch)
        code, out, _ = run_cli(
            capsys,
            "rules",
            "--input", str(golden_path),
            "--min-support", "3",
            "--min-confidence", "0.6",
        )
        assert code == 0
        assert "I4 => I2 (support 3, confidence 1.00)" in out
        assert "5 rules" in out
        outputs.append(out)
    assert outputs[0] == outputs[1]


def test_rules_header_prints_exact_min_confidence(golden_path, capsys):
    code, out, _ = run_cli(
        capsys,
        "rules",
        "--input", str(golden_path),
        "--min-support", "3",
        "--min-confidence", "0.66666666",
    )
    assert code == 0
    assert out.splitlines()[1] == "min_support: 3 (count 3)  min_confidence: 0.66666666"


def test_rules_machine(golden_path, capsys):
    code, out, _ = run_cli(
        capsys,
        "rules",
        "--input", str(golden_path),
        "--min-support", "3",
        "--min-confidence", "1.0",
        "--format", "machine",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["command"] == "rules"
    assert payload["rules"] == [
        {"antecedent": ["I4"], "consequent": ["I2"], "support": 3, "confidence": 1.0}
    ]


def test_rules_confidence_above_one_is_usage_error(golden_path, capsys):
    code, _, _ = run_cli(
        capsys,
        "rules",
        "--input", str(golden_path),
        "--min-support", "3",
        "--min-confidence", "1.01",
    )
    assert code == 2


def test_compare_golden_sum_row(golden_path, capsys):
    code, out, _ = run_cli(
        capsys,
        "compare",
        "--input", str(golden_path),
        "--min-support", "3",
        "--candidates", "combinations",
        "--reps", "1",
    )
    assert code == 0
    (sum_line,) = [ln for ln in out.splitlines() if ln.startswith("sum")]
    assert "135" in sum_line and "84" in sum_line
    assert "time reduction rate:" in out


def test_compare_machine_untimed(golden_path, capsys):
    code, out, _ = run_cli(
        capsys,
        "compare",
        "--input", str(golden_path),
        "--min-support", "3",
        "--candidates", "combinations",
        "--format", "machine",
        "--reps", "0",
    )
    assert code == 0
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"
    payload = json.loads(out)
    classic, improved = payload["variants"]
    assert classic["total_scans"] == 135
    assert improved["total_scans"] == 84
    assert classic["wall_seconds"] is None
    assert payload["reduction_rate_percent"] is None
    assert payload["scan_reduction_percent"] == pytest.approx(51 / 135 * 100)


def _benchmark_reference():
    """`Reference` from the benchmark's own checker, which shares no code with tidmine."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "reference.py"
    spec = importlib.util.spec_from_file_location("perfbench_reference", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Reference


def test_every_strategy_has_the_benchmark_reference_ledgers(golden_path, capsys):
    # 200 rows keep `combinations` under its budget at 10%.
    reference = _benchmark_reference()
    synthetic = generate_synthetic(GeneratorConfig(200, 20, 5, seed=1))
    for strategy, (source, text, min_support) in itertools.product(
        mining.CANDIDATE_STRATEGIES,
        [
            (["--input", str(golden_path)], golden_path.read_text(encoding="utf-8"), "3"),
            (["--generate", "200,20,5", "--seed", "1"], synthetic.to_text(), "0.1"),
        ],
    ):
        code, out, err = run_cli(
            capsys, "compare", *source, "--min-support", min_support,
            "--candidates", strategy, "--reps", "0", "--format", "machine",
        )
        assert code == 0, err
        want = reference(text, min_support).ledgers(strategy)
        runs = json.loads(out)["variants"]
        assert [run["variant"] for run in runs] == list(mining.VARIANTS)
        for run in runs:
            assert run["per_level_scans"] == {
                str(k): v for k, v in want[run["variant"]].items()
            }


def test_compare_degenerate_db_reduces_zero(tmp_path, capsys):
    # Every transaction holds every item, so restricted scans save nothing.
    path = tmp_path / "dense.txt"
    path.write_text("A B\nA B\nA B\n", encoding="utf-8")
    code, out, _ = run_cli(
        capsys,
        "compare",
        "--input", str(path),
        "--min-support", "1",
        "--format", "machine",
        "--reps", "0",
    )
    assert code == 0
    assert json.loads(out)["scan_reduction_percent"] == 0.0


def test_compare_on_blank_lines_has_no_scan_rate(tmp_path, capsys):
    # Neither variant examines a transaction, so there is no rate to print.
    path = tmp_path / "blank.txt"
    path.write_text("\n  \n", encoding="utf-8")
    argv = ("compare", "--input", str(path), "--min-support", "1", "--reps", "0")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and "scan reduction rate: n/a\n" in out
    code, out, _ = run_cli(capsys, *argv, "--format", "machine")
    assert code == 0 and json.loads(out)["scan_reduction_percent"] is None


def test_machine_output_deterministic_across_runs(golden_path, capsys):
    base_args = (
        "mine",
        "--input", str(golden_path),
        "--min-support", "3",
        "--candidates", "combinations",
        "--format", "machine",
    )
    outputs = [run_cli(capsys, *base_args)[1] for _ in range(3)]
    assert outputs[0] == outputs[1] == outputs[2]


# 74 frequent items: more than one lane page at any page width up to 63. The
# digests were recorded with 63-item pages of 64-bit lanes; the machine output
# must not depend on how the lanes are laid out.
MANY_PAGES = ("--generate", "400,300,8", "--seed", "1", "--min-support", "8")


@pytest.mark.parametrize(
    "argv, digest",
    [
        (
            ("mine", "--variant", "classic"),
            "9a020e416d73e9811e21800f4a2962745a0937eb16186820d63f3326a0beb46c",
        ),
        (
            ("mine", "--variant", "improved"),
            "f4b7dcda1e3f590ea2002a42c44a3636cd988da8f8c1c2a89dd30569d2936c26",
        ),
        (
            ("compare", "--reps", "0"),
            "2cb3182ba02683941561fc2ee331f30107fe2e324770c799b20b8e92da651d6e",
        ),
    ],
    ids=["mine-classic", "mine-improved", "compare"],
)
def test_machine_output_over_many_lane_pages_is_pinned(capsys, argv, digest):
    argv = (*argv, *MANY_PAGES, "--candidates", "join", "--format", "machine")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    if argv[0] == "mine":
        assert len(json.loads(out)["levels"][0]["itemsets"]) == 74
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


# The `many-rules` benchmark job: 87,240 rules.
MANY_RULES = (
    "rules", "--generate", "500,50,8", "--seed", "1",
    "--min-support", "0.05", "--min-confidence", "0.5",
)


@pytest.mark.parametrize(
    "fmt, digest",
    [
        ("machine", "ecd48a51b14f04b6b2be720c761155e611ccaa59afafafb006ea6694161f7eb3"),
        ("human", "dd3cc0c01403f7192dcfc98419c1488d3297f936c5c8f8fedb855b55ada50906"),
    ],
    ids=["machine", "human"],
)
def test_many_rules_output_is_pinned(capsys, fmt, digest):
    code, out, _ = run_cli(capsys, *MANY_RULES, "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_writing_many_rules_holds_little_beyond_the_rules(monkeypatch):
    # The report's side texts, one per frequent itemset in a list indexed by
    # the table's rows, hold about 0.6 MB for the whole write, and the cache
    # of its 2,144 confidence texts about 0.2 MB; each batch of 512 machine
    # entries holds about 0.4 MB more: its chunk list, its joined text and the
    # encoded bytes. Batches of 4,096 entries raised the peak by 3.9 MB.
    db = generate_synthetic(GeneratorConfig(500, 50, 8, seed=1))
    tracemalloc.start()
    try:
        result = mining.run_apriori(db, 0.05)
        found = rules.generate_rules(result, 0.5)
        held, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        with open(os.devnull, "w", encoding="utf-8") as sink:
            monkeypatch.setattr(sys, "stdout", sink)
            cli._write(metrics.rules_report(db, "g", found, "machine"))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(found) == 87_240
    assert peak - held < 1.5 * 2**20


@pytest.mark.parametrize("argv", [("compare", "--reps", "0"), ("bench", "--reps", "1")])
def test_compare_refuses_variants_that_find_other_itemsets(golden_path, capsys, monkeypatch, argv):
    # compare and bench print only ledgers and times, so a kernel that
    # miscounts must stop the run rather than pass unseen.
    counted = mining.count_support_restricted
    monkeypatch.setattr(
        mining,
        "count_support_restricted",
        lambda cand, l1: counted(cand, l1) + 1,
    )
    with pytest.raises(ContractViolationError, match="'improved' found other itemsets"):
        main([*argv, "--input", str(golden_path), "--min-support", "2"])
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("command", [None, "mine", "rules", "compare", "bench"])
def test_help_exits_0_and_lists_each_choice(capsys, command):
    code, out, err = run_cli(capsys, *filter(None, [command]), "--help")
    assert (code, err) == (0, "")
    if command is None:
        assert "{mine,rules,compare,bench}" in out
        return
    choices = [mining.CANDIDATE_STRATEGIES, metrics.FORMATS, dataset.DELIMITER_POLICIES]
    if command in ("mine", "rules"):
        choices.append(mining.VARIANTS)
    for values in choices:
        assert "{%s}" % ",".join(values) in out


def test_combinations_budget_exits_1(golden_path, capsys, monkeypatch):
    # The golden L1 holds 4 items, so level 2 alone has C(4, 2) = 6 candidates.
    monkeypatch.setattr(mining, "MAX_CANDIDATES", 5)
    code, out, err = run_cli(
        capsys,
        "mine",
        "--input", str(golden_path),
        "--min-support", "3",
        "--candidates", "combinations",
    )
    assert code == 1
    assert out == ""
    assert "C(4, 2) = 6" in err and "budget of 5" in err


def test_join_budget_exits_1_within_a_memory_cap(src_env):
    # 300 rows that hold a 50-item transaction: at support 1, 2**50 itemsets
    # are frequent. The real budget stops the join at level 5 after about 5 s
    # and 173 MB. The child's address space is capped, so a join without a
    # budget fails with MemoryError well within the timeout instead of
    # exhausting the machine. One BLAS thread keeps numpy's reserved address
    # space the same on any core count.
    pytest.importorskip("resource")
    script = (
        "import resource, runpy, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (768 << 20, 768 << 20))\n"
        "sys.argv = ['tidmine', 'mine', '--generate', '300,50,8', '--seed', '1',"
        " '--min-support', '1']\n"
        "runpy.run_module('tidmine', run_name='__main__')\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**src_env, "OPENBLAS_NUM_THREADS": "1"},
        timeout=120,
    )
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == (
        "error: the join strategy passed the budget of 1000000 level-5 candidates;"
        " use a higher min_support\n"
    )


def test_rule_budget_exits_1_within_a_memory_cap(src_env):
    # At 2% support these 1,500 rows give 28,929,290 rules at confidence 0.5,
    # about 2.3 GB as records and about 350 MB as rule-table rows. The real
    # budget stops the run after 5 to 7 s at about 127 MB peak RSS and 200 MB
    # of address space. The child's address space is capped, so a run
    # without a budget fails with MemoryError instead of exhausting the
    # machine or writing gigabytes of rules into this process's capture:
    # under a 768 MB cap such a run held all the rows and wrote them, at
    # 465 MB peak RSS, and under 448 MB it fails.
    pytest.importorskip("resource")
    script = (
        "import resource, runpy, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (448 << 20, 448 << 20))\n"
        "sys.argv = ['tidmine', 'rules', '--generate', '1500,50,8', '--seed', '1',"
        " '--min-support', '0.02', '--min-confidence', '0.5']\n"
        "runpy.run_module('tidmine', run_name='__main__')\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**src_env, "OPENBLAS_NUM_THREADS": "1"},
        timeout=120,
    )
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == (
        "error: rule generation passed the budget of 1000000 rules;"
        " use a higher min_confidence or min_support\n"
    )


def test_impossible_generate_size_exits_1(capsys):
    # 10**16 items ask numpy for a 71 PiB array, past any 47-bit address
    # space, so the request is refused before anything is allocated.
    code, out, err = run_cli(
        capsys, "mine", "--generate", "10,10000000000000000,8", "--min-support", "1"
    )
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("spec", ["100000000000000000000,50,8", "10,100000000000000000000,8"])
def test_generate_size_past_numpy_range_exits_1(capsys, spec):
    # numpy refuses 10**20 elements before allocating anything: no array of
    # that length has a byte size its index type can hold.
    code, out, err = run_cli(capsys, "mine", "--generate", spec, "--min-support", "1")
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "numpy" in err


@pytest.mark.parametrize("fmt", ["human", "machine"])
def test_failed_write_exits_1(golden_path, capsys, monkeypatch, fmt):
    class ClosedPipe:
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    code = main(
        ["rules", "--input", str(golden_path), "--min-support", "3",
         "--min-confidence", "0.6", "--format", fmt]
    )
    assert code == 1
    assert capsys.readouterr().err == "error: [Errno 32] Broken pipe\n"


def test_bench_two_datasets(capsys):
    code, out, _ = run_cli(
        capsys,
        "bench",
        "--generate", "60,12,4",
        "--generate", "90,12,4",
        "--min-support", "0.2",
        "--reps", "1",
        "--seed", "5",
        "--format", "machine",
    )
    assert code == 0
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"
    payload = json.loads(out)
    assert payload["command"] == "bench"
    assert len(payload["datasets"]) == 2
    rates = [row["reduction_rate_percent"] for row in payload["datasets"]]
    assert payload["mean_reduction_rate_percent"] == pytest.approx(sum(rates) / 2)
    for row in payload["datasets"]:
        classic, improved = row["variants"]
        assert [classic["variant"], improved["variant"]] == ["classic", "improved"]
        assert classic["wall_seconds"] >= 0
        assert improved["total_scans"] <= classic["total_scans"]


def test_bench_single_dataset_mean_is_row(capsys):
    code, out, _ = run_cli(
        capsys,
        "bench",
        "--generate", "60,12,4",
        "--min-support", "0.2",
        "--reps", "1",
        "--format", "machine",
    )
    assert code == 0
    payload = json.loads(out)
    (row,) = payload["datasets"]
    assert payload["mean_reduction_rate_percent"] == pytest.approx(
        row["reduction_rate_percent"]
    )


def test_bench_ledgers_independent_of_reps(capsys):
    def ledgers(reps):
        code, out, _ = run_cli(
            capsys,
            "bench",
            "--generate", "80,12,4",
            "--min-support", "0.2",
            "--reps", reps,
            "--seed", "2",
            "--format", "machine",
        )
        assert code == 0
        payload = json.loads(out)
        return [
            [variant["per_level_scans"] for variant in row["variants"]]
            for row in payload["datasets"]
        ]

    assert ledgers("1") == ledgers("3")


def test_bench_human_table(capsys, monkeypatch):
    for batch in BATCH_SIZES:
        monkeypatch.setattr(cli, "JSON_BATCH_CHUNKS", batch)
        code, out, _ = run_cli(
            capsys,
            "bench",
            "--generate", "60,12,4",
            "--min-support", "0.2",
            "--reps", "1",
        )
        assert code == 0
        assert "mean reduction rate:" in out
        header, row = out.splitlines()[2:4]
        assert header.split() == [
            "dataset", "classic", "(s)", "improved", "(s)", "reduction", "(%)"
        ]
        assert header.endswith("classic (s)  improved (s)  reduction (%)")
        assert len(row) == len(header)


def test_bench_untimeable_rates_are_null(golden_path, capsys, monkeypatch):
    # A classic median of 0.0 s leaves the time reduction rate undefined.
    monkeypatch.setattr(cli.metrics, "median_seconds", lambda fn, reps: (fn(), 0.0))
    argv = [
        "bench",
        "--input", str(golden_path),
        "--input", str(golden_path),
        "--min-support", "3",
        "--candidates", "combinations",
        "--reps", "1",
    ]
    code, out, err = run_cli(capsys, *argv, "--format", "machine")
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert [row["reduction_rate_percent"] for row in payload["datasets"]] == [None, None]
    assert payload["mean_reduction_rate_percent"] is None
    assert payload["mean_scan_reduction_percent"] == pytest.approx(37.78, abs=0.01)

    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    lines = out.splitlines()
    header, row = lines[2:4]
    assert row.endswith(" n/a") and len(row) == len(header)
    assert "mean reduction rate: n/a" in lines
    assert "mean scan reduction rate: 37.78%" in lines


def test_bench_mean_skips_missing_rates(golden_path, capsys, monkeypatch):
    # Only the first dataset's classic run is measurable, so the mean is its rate.
    laps = iter([0.004, 0.001, 0.0, 0.0])
    monkeypatch.setattr(cli.metrics, "median_seconds", lambda fn, reps: (fn(), next(laps)))
    code, out, _ = run_cli(
        capsys,
        "bench",
        "--input", str(golden_path),
        "--input", str(golden_path),
        "--min-support", "3",
        "--reps", "1",
        "--format", "machine",
    )
    assert code == 0
    payload = json.loads(out)
    assert [row["reduction_rate_percent"] for row in payload["datasets"]] == [75.0, None]
    assert payload["mean_reduction_rate_percent"] == 75.0


def test_bench_rejects_mixed_sources(golden_path, capsys):
    code, _, _ = run_cli(
        capsys,
        "bench",
        "--input", str(golden_path),
        "--generate", "60,12,4",
        "--min-support", "2",
    )
    assert code == 2


def test_bench_rejects_zero_reps(golden_path, capsys):
    code, _, _ = run_cli(
        capsys,
        "bench",
        "--input", str(golden_path),
        "--min-support", "2",
        "--reps", "0",
    )
    assert code == 2


def test_bench_input_files(golden_path, capsys):
    code, out, _ = run_cli(
        capsys,
        "bench",
        "--input", str(golden_path),
        "--input", str(golden_path),
        "--min-support", "3",
        "--candidates", "combinations",
        "--reps", "1",
        "--format", "machine",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["schema_version"] == 2
    assert [row["variants"][0]["total_scans"] for row in payload["datasets"]] == [135, 135]
    # Each row is the payload `compare` emits, without its two envelope keys.
    _, compared, _ = run_cli(
        capsys,
        "compare",
        "--input", str(golden_path),
        "--min-support", "3",
        "--candidates", "combinations",
        "--reps", "1",
        "--format", "machine",
    )
    compare_keys = set(json.loads(compared)) - {"schema_version", "command"}
    assert all(set(row) == compare_keys for row in payload["datasets"])


def test_compare_min_support_sweep(capsys):
    # One report per threshold over the same generated dataset.
    totals = {}
    for fraction in ("0.2", "0.3", "0.5"):
        code, out, _ = run_cli(
            capsys,
            "compare",
            "--generate", "80,12,4",
            "--seed", "6",
            "--min-support", fraction,
            "--reps", "0",
            "--format", "machine",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["min_support"] == float(fraction)
        totals[fraction] = payload["variants"][0]["total_scans"]
    # Lower thresholds admit more candidates, so classic scans grow.
    assert totals["0.2"] >= totals["0.3"] >= totals["0.5"]


def test_module_entry_point(golden_path, src_env):
    proc = subprocess.run(
        [
            sys.executable, "-m", "tidmine",
            "mine",
            "--input", str(golden_path),
            "--min-support", "3",
            "--candidates", "combinations",
        ],
        capture_output=True,
        text=True,
        env=src_env,
    )
    assert proc.returncode == 0
    assert "8 frequent itemsets" in proc.stdout


def _input_job_modules(
    golden_path, src_env, *flags: str, job="mine --min-support 3", shows="8 frequent itemsets"
) -> set[str]:
    """The modules loaded by the `--input` job `job`, a subcommand and its
    options, run in a child interpreter started with the interpreter options
    `flags`; its output must hold `shows`."""
    command, *options = job.split()
    script = (
        "import runpy, sys\n"
        "sys.argv = ['tidmine', *sys.argv[1:]]\n"
        "try:\n"
        "    runpy.run_module('tidmine', run_name='__main__')\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 0, exc.code\n"
        "print(' '.join(sorted(sys.modules)))\n"
    )
    proc = subprocess.run(
        [sys.executable, *flags, "-c", script, command, "--input", str(golden_path), *options],
        capture_output=True,
        text=True,
        env=src_env,
    )
    assert proc.returncode == 0, proc.stderr
    assert shows in proc.stdout
    return set(proc.stdout.splitlines()[-1].split())


def test_input_jobs_never_import_numpy(golden_path, src_env):
    # numpy is only for --generate; file jobs should not pay for importing it.
    assert "numpy" not in _input_job_modules(golden_path, src_env)


@pytest.mark.parametrize("flags", [(), ("-S",)], ids=["site", "no-site"])
def test_input_jobs_import_pathlib_only_when_start_up_does(flags, golden_path, src_env):
    # The loader's one path test is `os.PathLike`: importing pathlib for it
    # cost every job about 5 ms under -S. Start-up alone may import pathlib
    # (a `.pth` file of `site` can); the job must add it only then.
    proc = subprocess.run(
        [sys.executable, *flags, "-c", "import sys; print(' '.join(sys.modules))"],
        capture_output=True,
        text=True,
        env=src_env,
    )
    assert proc.returncode == 0, proc.stderr
    at_start_up = "pathlib" in proc.stdout.split()
    assert "pathlib" not in _input_job_modules(golden_path, src_env, *flags) or at_start_up


def test_input_jobs_never_import_dataclasses(golden_path, src_env):
    # The records are plain __slots__ classes: `dataclasses` would load
    # `inspect`, `ast`, `dis` and `tokenize` that nothing else in a job needs.
    loaded = _input_job_modules(golden_path, src_env)
    assert loaded.isdisjoint({"dataclasses", "inspect"})


def test_untimed_jobs_never_import_statistics_or_array(golden_path, src_env):
    # Only timed runs take a median and only rule tables need `array`; at
    # import, `statistics` alone held about 100 KB of heap.
    assert _input_job_modules(golden_path, src_env).isdisjoint({"statistics", "array"})


@pytest.mark.parametrize(
    "job, shows",
    [
        ("mine --min-support 0.3", "8 frequent itemsets"),
        ("rules --min-support 0.3 --min-confidence 0.5", "6 rules"),
        ("compare --min-support 0.3 --reps 0", "scan reduction rate: 30.56%"),
    ],
)
def test_input_jobs_never_import_fractions_or_decimal(job, shows, golden_path, src_env):
    # The fractional support floor, the confidence threshold and the printed
    # rates are exact decimals in integer arithmetic (errors.decimal_ratio);
    # `fractions` and `decimal` held about 0.4 MB resident in every job.
    loaded = _input_job_modules(golden_path, src_env, job=job, shows=shows)
    assert loaded.isdisjoint({"fractions", "decimal", "_decimal", "_pydecimal"})


@pytest.mark.parametrize("spec", ["100000000000000000000,50,8", "10,100000000000000000000,8"])
def test_refused_generate_sizes_never_import_numpy(spec, src_env):
    # GeneratorConfig refuses a size numpy cannot address before numpy loads.
    script = (
        "import runpy, sys\n"
        "sys.argv = ['tidmine', 'mine', '--generate', sys.argv[1], '--min-support', '1']\n"
        "try:\n"
        "    runpy.run_module('tidmine', run_name='__main__')\n"
        "except SystemExit as exc:\n"
        "    print(exc.code, 'numpy' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, spec],
        capture_output=True,
        text=True,
        env=src_env,
    )
    assert proc.stdout == "1 False\n"
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


# Each module imports only modules before it here; errors sits below them all.
LAYERS = ("dataset", "lanes", "mining", "rules", "metrics", "cli")
PACKAGE = Path(__file__).resolve().parent.parent / "src" / "tidmine"


def _package_imports(source: str) -> set[str]:
    """The tidmine modules `source` imports anywhere, under TYPE_CHECKING too."""
    named = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            named += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            # The package is flat, so a relative import names tidmine[.module].
            base = ".".join(filter(None, ["tidmine" if node.level else "", node.module]))
            named += [f"{base}.{a.name}" for a in node.names] if base == "tidmine" else [base]
    return {name.split(".")[1] for name in named if name.startswith("tidmine.")}


@pytest.mark.parametrize("module", LAYERS)
def test_modules_import_no_later_layer(module, src_env):
    # Read statically, so that an import made only for type checking counts.
    later = LAYERS[LAYERS.index(module) + 1 :]
    source = (PACKAGE / f"{module}.py").read_text(encoding="utf-8")
    assert _package_imports(source).isdisjoint(later)
    # The package's __init__ re-exports every layer, so the module is imported
    # under a bare package object to see its own imports only.
    script = (
        "import importlib, importlib.util, sys, types\n"
        "package = types.ModuleType('tidmine')\n"
        "package.__path__ = importlib.util.find_spec('tidmine').submodule_search_locations\n"
        "sys.modules['tidmine'] = package\n"
        "importlib.import_module('tidmine.' + sys.argv[1])\n"
        "print(' '.join(sorted(sys.modules)))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, module],
        capture_output=True,
        text=True,
        env=src_env,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert f"tidmine.{module}" in loaded
    assert loaded.isdisjoint(f"tidmine.{name}" for name in later)


@pytest.mark.parametrize(
    "source, named",
    [
        ("from .errors import plain_ids\n", {"errors"}),
        ("from . import lanes, mining\n", {"lanes", "mining"}),
        ("if TYPE_CHECKING:\n    from .mining import L1Index\n", {"mining"}),
        ("from tidmine.rules import x\nimport tidmine.metrics.sub\n", {"rules", "metrics"}),
        ("from tidmine import cli\nimport sys\nfrom array import array\n", {"cli"}),
    ],
)
def test_package_import_check_reads_every_import(source, named):
    assert _package_imports(source) == named


def _unused_imports(source: str) -> set[str]:
    """Names `source` imports but never reads. A name listed in `__all__` is
    re-exported, and a name inside a string annotation (as for an import made
    under TYPE_CHECKING) is read."""
    imported, read = set(), set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported |= {alias.asname or alias.name.partition(".")[0] for alias in node.names}
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == ["__all__"]:
            read |= set(ast.literal_eval(node.value))
        hints = (getattr(node, "annotation", None), getattr(node, "returns", None))
        for part in (part for hint in filter(None, hints) for part in ast.walk(hint)):
            if isinstance(part, ast.Constant) and isinstance(part.value, str):
                quoted = ast.walk(ast.parse(part.value, mode="eval"))
                read |= {name.id for name in quoted if isinstance(name, ast.Name)}
    return imported - read


def test_modules_have_no_unused_import():
    unused = {
        path.name: sorted(names)
        for path in sorted(PACKAGE.glob("*.py"))
        if (names := _unused_imports(path.read_text(encoding="utf-8")))
    }
    assert unused == {}


@pytest.mark.parametrize(
    "source, unused",
    [
        ("import operator\n", {"operator"}),
        ("import os.path\nos.sep\n", set()),
        ("from a import b as c\nc()\n", set()),
        ("from a import b\n__all__ = ['b']\n", set()),
        ("from a import B, C\ndef f(x: 'B') -> 'list[C]': pass\n", set()),
        ("from a import B\ndef f(x): return 'B'\n", {"B"}),
    ],
)
def test_unused_import_check_reads_what_the_package_uses(source, unused):
    assert _unused_imports(source) == unused


def _private_reads(source: str) -> set[str]:
    """Underscore attributes `source` reads on an object other than `self` or
    `cls`, as written; dunder names are exempt."""
    return {
        ast.unparse(node)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute)
        and node.attr.startswith("_")
        and not (node.attr.startswith("__") and node.attr.endswith("__"))
        and not (isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"))
    }


def test_modules_read_no_private_attribute_of_another_object():
    private = {
        path.name: sorted(names)
        for path in sorted(PACKAGE.glob("*.py"))
        if (names := _private_reads(path.read_text(encoding="utf-8")))
    }
    assert private == {}


@pytest.mark.parametrize(
    "source, read",
    [
        ("min(c, key=l1._rank.__getitem__)\n", {"l1._rank"}),
        ("other._per_level == 1\n", {"other._per_level"}),
        ("self._slot[x]\ncls._cache\n", set()),
        ("f(x).__class__\nx.__getitem__\n", set()),
        ("self.l1._tids\n", {"self.l1._tids"}),
        ("from ._x import y\nx._\n", {"x._"}),
    ],
)
def test_private_read_check_reads_every_attribute(source, read):
    assert _private_reads(source) == read


def _class_builders(source: str, name: str) -> set[str]:
    """The top-level definitions of `source` that call the class `name`, by
    name or as an attribute; "<module>" for a call outside any definition."""
    return {
        getattr(top, "name", "<module>")
        for top in ast.parse(source).body
        for node in ast.walk(top)
        if isinstance(node, ast.Call)
        and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    }


def _package_builders(name: str) -> dict[str, list[str]]:
    """`_class_builders` of every module of the package that calls `name`."""
    return {
        path.name: sorted(names)
        for path in sorted(PACKAGE.glob("*.py"))
        if (names := _class_builders(path.read_text(encoding="utf-8"), name))
    }


def test_only_the_generators_build_candidate_sets():
    # A CandidateSet stores its candidates unchecked, so its only producers
    # are the two generators, which test_properties holds to its invariant.
    assert _package_builders("CandidateSet") == {
        "mining.py": ["generate_candidates_combinations", "generate_candidates_join"]
    }


def test_only_run_apriori_builds_levels():
    # The join and MiningResult take a Level as built, unchecked, so its only
    # producer is the run, from its own index and counts.
    assert _package_builders("Level") == {"mining.py": ["run_apriori"]}


def test_only_the_loader_and_the_generator_build_rows():
    # TransactionDb takes Rows as built, unchecked, so its only producers are
    # the loader and the generator, which test_properties holds to every check.
    assert _package_builders("Rows") == {
        "dataset.py": ["_db_from_token_lines", "generate_synthetic"]
    }


@pytest.mark.parametrize(
    "source, builders",
    [
        ("def f():\n    return CandidateSet(2, ())\n", {"CandidateSet": {"f"}, "Level": set()}),
        ("x = mining.CandidateSet(2, ())\n", {"CandidateSet": {"<module>"}, "Level": set()}),
        (
            "class C:\n    def m(self):\n        CandidateSet(2, ())\n",
            {"CandidateSet": {"C"}, "Level": set()},
        ),
        (
            "def f():\n    def g():\n        return CandidateSet(2, ())\n",
            {"CandidateSet": {"f"}, "Level": set()},
        ),
        (
            "def f(c: CandidateSet) -> CandidateSet:\n    return c\n",
            {"CandidateSet": set(), "Level": set()},
        ),
        (
            "def run():\n    return Level({})\nx = mining.Level()\nclass Level(dict):\n    pass\n",
            {"CandidateSet": set(), "Level": {"run", "<module>"}},
        ),
    ],
)
def test_candidate_set_check_reads_every_call(source, builders):
    assert {name: _class_builders(source, name) for name in builders} == builders


README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_examples_print_what_the_readme_shows(tmp_path, capsys, monkeypatch):
    # Every `$ tidmine ...` block that shows its output, run on the README's
    # own baskets.txt, must print exactly that output.
    text = README.read_text(encoding="utf-8")
    baskets = re.search(r"cat > baskets.txt <<'EOF'\n(.*?\n)EOF\n", text, re.S).group(1)
    (tmp_path / "baskets.txt").write_text(baskets, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    examples = []
    for block in re.findall(r"```sh\n\$ tidmine (.*?)```", text, re.S):
        command, _, shown = block.partition("\n")
        if not command.endswith("\\"):  # a continued command shows no output
            examples.append((command.split(), shown))
    assert [argv[0] for argv, _ in examples] == ["mine", "rules", "compare"]
    for argv, shown in examples:
        assert run_cli(capsys, *argv) == (0, shown, "")


def test_readme_names_every_export_and_no_hook_point():
    # The benchmark's hook points stay in tidmine.mining, unexported: the
    # library's kernels are l1.count_all and l1.count.
    text = README.read_text(encoding="utf-8")
    assert [name for name in tidmine.__all__ if not re.search(rf"\b{name}\b", text)] == []
    hooks = {"CandidateSet", "compute_l1", "count_support_full", "count_support_restricted"}
    assert hooks.isdisjoint(tidmine.__all__) and all(hasattr(mining, name) for name in hooks)


def test_readme_library_examples_run_as_doctests(golden_path, monkeypatch):
    # Both `>>>` examples of "Library use", in the README's order, on the
    # golden baskets.txt in the working directory.
    assert golden_path.read_text(encoding="utf-8") in README.read_text(encoding="utf-8")
    monkeypatch.chdir(golden_path.parent)
    failed, attempted = doctest.testfile(str(README), module_relative=False, report=False)
    assert (failed, attempted) == (0, 17)
