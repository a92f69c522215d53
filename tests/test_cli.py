import os
import re
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

import beckettgray
from beckettgray import cli
from beckettgray.core import read_sequence_file
from beckettgray.search import enumerate_beckett
from beckettgray.stacks import brgc, two_stack_trace

# the command runs the package these tests import, wherever it was found
PACKAGE_ROOT = str(Path(beckettgray.__file__).parents[1])
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    filter(None, [PACKAGE_ROOT, os.environ.get("PYTHONPATH")]))}


def run_cli(*args, stdin=None, module="beckettgray.cli"):
    return subprocess.run(
        [sys.executable, "-m", module, *args],
        capture_output=True,
        text=True,
        input=stdin,
        env=ENV,
    )


class TestVerify:
    def test_positive(self):
        r = run_cli("verify", "-n", "3", "0102101")
        assert r.returncode == 0
        assert "open-beckett" in r.stdout

    def test_negative_diagnostic(self):
        r = run_cli("verify", "-n", "3", "0112010")
        assert r.returncode == 1
        assert "not-" in r.stdout

    def test_trace_flag(self):
        r = run_cli("verify", "-n", "3", "--trace", "0102101")
        assert "step 7" in r.stdout

    def test_json(self):
        r = run_cli("verify", "-n", "3", "--json", "0102101")
        assert '"classification": "open-beckett"' in r.stdout

    def test_bad_symbol_is_a_usage_error(self):
        r = run_cli("verify", "-n", "3", "01x")
        assert r.returncode == 2 and "bad symbol" in r.stderr


class TestEnumerate:
    def test_five_bit_cyclic_table(self):
        r = run_cli("enumerate", "-n", "5", "--mode", "cyclic")
        codes = [ln for ln in r.stdout.splitlines() if ln and ln[0].isdigit()]
        assert len(codes) == 8
        assert r.returncode == 0

    def test_pipe_into_verify(self):
        # shard records and the JSON report are skipped, not read as sequences
        for extra in ((), ("--depth", "2"), ("--json",)):
            out = run_cli("enumerate", "-n", "4", "--mode", "open", *extra).stdout
            r = run_cli("verify", "-n", "4", stdin=out)
            assert r.returncode == 0, r.stderr
            assert r.stdout.count("\topen-beckett\n") == 4

    def test_out_file_reads_back_the_printed_codes(self, tmp_path):
        out = tmp_path / "run.txt"
        args = ("enumerate", "-n", "4", "--depth", "3", "--out", str(out))
        # the cut run finishes one shard and records the other as truncated
        first = run_cli(*args, "--node-limit", "120")
        second = run_cli(*args)
        assert (first.returncode, second.returncode) == (3, 0)
        printed = [ln for r in (first, second) for ln in r.stdout.splitlines()
                   if ln[0].isdigit()]
        with out.open() as fp:
            read = list(read_sequence_file(fp))
        assert [str(seq) for _, seq in read] == printed and len(printed) == 5
        assert all(header == {"n": "4", "mode": "both"} for header, _ in read)

    def test_out_may_be_a_pipe(self):
        # the check for a last line left unfinished must not seek in a pipe
        r = run_cli("enumerate", "-n", "2", "--count-only", "--out", "/dev/stdout")
        assert r.returncode == 0 and r.stdout.splitlines().count("n=2 mode=both") == 2

    def test_truncated_exit_code(self):
        r = run_cli("enumerate", "-n", "5", "--mode", "cyclic", "--node-limit", "100",
                    "--count-only")
        assert r.returncode == 3

    def test_jobs_do_not_change_the_code_set(self):
        serial = run_cli("enumerate", "-n", "4", "--mode", "open").stdout
        parallel = run_cli(
            "enumerate", "-n", "4", "--mode", "open", "--jobs", "2", "--depth", "4"
        ).stdout

        def codes(text):
            return sorted(ln for ln in text.splitlines() if ln and ln[0].isdigit())

        assert codes(serial) == codes(parallel)

    def test_sharded_report_counts_nodes_above_the_split(self):
        for n, depth, nodes in (("2", "4", 5), ("5", "10", 537_326)):
            r = run_cli("enumerate", "-n", n, "--depth", depth, "--count-only")
            assert f"nodes_visited={nodes} " in r.stdout.splitlines()[-1]

    def test_resume_reruns_truncated_shards_and_merges_the_checkpoint(self, tmp_path):
        out = str(tmp_path / "run.txt")
        args = ("enumerate", "-n", "4", "--depth", "3", "--count-only", "--out", out)
        first = run_cli(*args, "--node-limit", "5")
        assert first.returncode == 3
        # the second run does every shard again; the third runs none and
        # reports the shards recorded in the file
        for _ in range(2):
            r = run_cli(*args)
            assert r.returncode == 0
            last = r.stdout.splitlines()[-1]
            for field in ("count_open_total=4", "count_open_strict=4",
                          "nodes_visited=263", "truncated=False"):
                assert field in last.split()

    def test_sharded_run_is_rooted_at_the_prefix(self):
        # depth 2 lies above the prefix, whose subtree is then the one shard
        for depth in ("6", "2"):
            r = run_cli("enumerate", "-n", "5", "--mode", "cyclic", "--prefix", "0102",
                        "--depth", depth, "--count-only")
            last = r.stdout.splitlines()[-1].split()
            assert "count_cyclic=6" in last and "nodes_visited=234966" in last

    def test_depth_zero_is_one_root_shard(self, tmp_path):
        # an explicit depth 0 used to count as unset: with two jobs it split
        # at depth 4, and with one it ran unsharded and recorded no shard
        def report(stdout):
            return re.sub(r" elapsed=\S+", "", stdout.splitlines()[-1])

        whole = run_cli("enumerate", "-n", "3", "--count-only")
        args = ("enumerate", "-n", "3", "--depth", "0", "--jobs", "2", "--count-only",
                "--out", str(tmp_path / "run.txt"))
        first, again = run_cli(*args), run_cli(*args)
        assert (first.returncode, again.returncode) == (0, 0)
        shards = [line for line in first.stdout.splitlines() if line.startswith("shard=")]
        assert len(shards) == 1 and shards[0].startswith("shard= ")
        assert "shard=" not in again.stdout  # the resume finds the root shard recorded
        assert report(first.stdout) == report(again.stdout) == report(whole.stdout)

    def test_resumed_report_includes_the_time_of_recorded_shards(self, tmp_path):
        out = tmp_path / "run.txt"
        args = ("enumerate", "-n", "4", "--depth", "3", "--count-only", "--out", str(out))

        def report(r):
            return dict(f.split("=", 1) for f in r.stdout.splitlines()[-1].split()[1:])

        first = report(run_cli(*args))
        # the second run runs no shard and reports the recorded ones
        second = report(run_cli(*args))
        assert float(second["elapsed"]) == float(first["elapsed"]) > 0
        # lines written without elapsed still load, with a time of 0.0
        out.write_text(re.sub(r" elapsed=\S+", "", out.read_text()))
        old = report(run_cli(*args))
        assert (old["elapsed"], old["nodes_visited"], old["count_open_total"]) == (
            "0.0", "263", "4")

    def test_time_limit_zero_and_inf_are_accepted(self):
        for limit in ("0", "inf"):
            for extra in ((), ("--depth", "2")):
                r = run_cli("enumerate", "-n", "3", "--count-only", "--time-limit", limit,
                            *extra)
                assert r.returncode in (0, 3)
                assert r.stdout.splitlines()[-1].startswith("# n=3 mode=both ")

    def test_time_limit_is_one_budget_for_the_whole_sharded_run(self):
        # each shard used to get the whole budget: 469,887 nodes here
        r = run_cli("enumerate", "-n", "5", "--depth", "8", "--time-limit", "0.01",
                    "--count-only")
        assert r.returncode == 3
        last = r.stdout.splitlines()[-1]
        assert "truncated=True" in last.split()
        assert int(re.search(r"nodes_visited=(\d+)", last).group(1)) < 100_000

    def test_time_limit_bounds_the_split_walk(self, tmp_path):
        # the split used to walk all 537,178 nodes above depth 31 first
        out = tmp_path / "run.txt"
        r = run_cli("enumerate", "-n", "5", "--depth", "31", "--time-limit", "0.01",
                    "--count-only", "--out", str(out))
        assert r.returncode == 3
        last = r.stdout.splitlines()[-1]
        assert "truncated=True" in last.split()
        assert int(re.search(r"nodes_visited=(\d+)", last).group(1)) < 100_000
        assert "shard=" not in out.read_text()  # so a resume splits again

    def test_split_depth_beyond_the_limit_is_a_usage_error(self):
        r = run_cli("enumerate", "-n", "6", "--depth", "13", "--count-only")
        assert r.returncode == 2
        assert r.stderr.startswith("error:") and "Traceback" not in r.stderr

    @pytest.mark.parametrize("shard", [[], ["--depth", "3"]])
    def test_inconsistent_prefix_is_a_usage_error(self, shard):
        # 00 clears bit 0 back to the visited word 0
        r = run_cli("enumerate", "-n", "3", "--prefix", "00", "--count-only", *shard)
        assert r.returncode == 2 and r.stdout == ""
        assert r.stderr.startswith("error:") and "Traceback" not in r.stderr

    def test_malformed_checkpoint_count_is_a_usage_error(self, tmp_path):
        # a shard line written to its last field, with a count that is not a number
        out = tmp_path / "run.txt"
        out.write_text("n=3 mode=both\nshard=01 cyclic=x open_total=0 open_strict=0 "
                       "nodes=1 elapsed=0.0 truncated=False\n")
        r = run_cli("enumerate", "-n", "3", "--depth", "2", "--count-only", "--out", str(out))
        assert r.returncode == 2 and r.stdout == ""
        assert r.stderr.startswith("error:") and "Traceback" not in r.stderr

    def test_checkpoint_line_without_a_count_is_a_usage_error(self, tmp_path):
        # truncated=False is written last, but the counts before it are missing
        out = tmp_path / "run.txt"
        out.write_text("n=3 mode=both\nshard=01 truncated=False\n")
        r = run_cli("enumerate", "-n", "3", "--depth", "2", "--count-only", "--out", str(out))
        assert r.returncode == 2 and r.stdout == ""
        assert r.stderr.startswith("error:") and "Traceback" not in r.stderr

    def test_prefix_rooting(self):
        r = run_cli("enumerate", "-n", "3", "--mode", "open", "--prefix", "01")
        assert "0102101" in r.stdout


def enumerate_report(capsys, *args):
    """Exit code and report counts of an in-process ``enumerate --count-only``."""
    code = cli.main(["enumerate", *args, "--count-only"])
    fields = dict(f.split("=", 1) for f in capsys.readouterr().out.splitlines()[-1].split()[1:])
    return code, {k: fields[k] for k in ("count_cyclic", "count_open_total",
                                         "count_open_strict", "nodes_visited", "truncated")}


class TestShardedAgreesWithUnsharded:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_every_depth(self, capsys, n):
        whole = enumerate_report(capsys, "-n", str(n))
        assert whole[0] == 0
        # depth 0 gives the root as the one shard
        for depth in range(2**n + 1) if n < 5 else (1, 4, 10, 31, 32):
            assert enumerate_report(capsys, "-n", str(n), "--depth", str(depth)) == whole, depth

    def test_run_cut_off_and_resumed(self, capsys, tmp_path):
        whole = enumerate_report(capsys, "-n", "5")
        args = ("-n", "5", "--depth", "6", "--out", str(tmp_path / "run.txt"))
        code, cut = enumerate_report(capsys, *args, "--node-limit", "20000")
        assert (code, cut["truncated"]) == (3, "True")
        assert enumerate_report(capsys, *args) == whole

    @pytest.mark.parametrize("cut", [" truncated=", "es="], ids=["no-truncated", "no-value"])
    def test_resume_after_a_torn_checkpoint_line(self, capsys, tmp_path, cut):
        # a run killed while it writes a shard line leaves the line cut
        # short: here before its last field, or inside the field "nodes="
        whole = enumerate_report(capsys, "-n", "4")
        out = tmp_path / "run.txt"
        args = ("-n", "4", "--depth", "3", "--out", str(out))
        assert enumerate_report(capsys, *args) == whole
        lines = out.read_text().splitlines(keepends=True)
        last = max(i for i, line in enumerate(lines) if line.startswith("shard="))
        out.write_text("".join(lines[:last]) + lines[last][:lines[last].index(cut)])
        # the torn shard runs again, and the resume's header starts a new line
        assert enumerate_report(capsys, *args) == whole
        assert out.read_text().splitlines().count("n=4 mode=both") == 2


class InlinePool:
    """A stand-in for ProcessPoolExecutor that runs the shards in this process."""

    def __init__(self, max_workers):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    map = staticmethod(map)


class TestShardedElapsed:
    def run(self, capsys, *args):
        start = time.perf_counter()
        code = cli.main(["enumerate", *args, "--count-only"])
        wall = time.perf_counter() - start
        lines = capsys.readouterr().out.splitlines()
        report = dict(f.split("=", 1) for f in lines[-1].split()[1:])
        shards = [float(re.search(r" elapsed=(\S+)", ln).group(1))
                  for ln in lines if ln.startswith("shard=")]
        return code, float(report["elapsed"]), shards, wall

    def test_report_is_wall_time_not_the_sum_of_shard_times(self, capsys, monkeypatch):
        def slow_shards(config, on_code):  # each shard claims 1,000 s of its own
            return replace(enumerate_beckett(config, on_code), elapsed=1000.0)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(cli, "enumerate_beckett", slow_shards)
        code, elapsed, shards, wall = self.run(capsys, "-n", "4", "--depth", "3", "--jobs", "2")
        assert code == 0 and len(shards) > 1
        assert 0 < elapsed <= wall
        assert elapsed == pytest.approx(sum(shards))

    def test_split_cut_by_the_time_limit_reports_its_time(self, capsys):
        code, elapsed, shards, wall = self.run(
            capsys, "-n", "5", "--depth", "31", "--time-limit", "0.01")
        assert code == 3 and shards == []
        assert 0.01 <= elapsed <= wall


class TestOtherCommands:
    def test_canonicalize_stdin(self):
        r = run_cli("canonicalize", "-n", "3", stdin="1012010\n")
        assert r.stdout.strip() == "0102101"

    def test_brgc(self):
        r = run_cli("brgc", "-n", "2")
        assert r.stdout.split() == ["00", "01", "11", "10"]

    def test_brgc_trace(self):
        r = run_cli("brgc", "-n", "2", "--trace")
        assert "even[0] odd[1]" in r.stdout

    @pytest.mark.parametrize("n", range(1, 7))
    def test_streamed_brgc_trace_is_the_two_stack_trace(self, capsys, n):
        assert cli.main(["brgc", "-n", str(n), "--trace"]) == 0
        path = brgc(n)
        assert capsys.readouterr().out.splitlines() == [
            f"{word:0{n}b}  {state}" for word, state in zip(path.words, two_stack_trace(path))]

    def test_selfcheck(self):
        r = run_cli("selfcheck")
        assert r.returncode == 0
        assert "# 0 failures" in r.stdout

    def test_estimate_requires_or_reports_seed(self):
        r = run_cli("estimate", "-n", "3", "--samples", "100")
        assert "seed=" in r.stdout
        r2 = run_cli("estimate", "-n", "3", "--samples", "100", "--seed", "5")
        r3 = run_cli("estimate", "-n", "3", "--samples", "100", "--seed", "5")
        assert r2.stdout == r3.stdout

    def test_auto_seeded_hunt_pipes_into_verify(self):
        r = run_cli("hunt", "-n", "4", "--mode", "open")
        assert r.returncode == 0 and r.stdout.startswith("# seed=")
        v = run_cli("verify", "-n", "4", stdin=r.stdout)
        assert v.returncode == 0, v.stderr
        assert v.stdout.count("\topen-beckett\n") == 1

    def test_hunt_small(self, tmp_path):
        out = tmp_path / "found.txt"
        r = run_cli("hunt", "-n", "5", "--mode", "cyclic", "--seed", "3",
                    "--restarts", "2000", "--out", str(out))
        assert r.returncode == 0
        assert "found=True" in r.stdout
        # the header and code as printed
        assert out.read_text().splitlines() == r.stdout.splitlines()[:2]

    def test_hunt_out_ends_an_unfinished_last_line(self, tmp_path):
        # a run killed mid-line left the code without its "\n"
        out = tmp_path / "found.txt"
        out.write_text("n=4 mode=open\n023102321320132")
        r = run_cli("hunt", "-n", "4", "--mode", "open", "--seed", "1", "--handoff", "8",
                    "--out", str(out))
        assert r.returncode == 0
        with out.open() as fp:
            codes = [str(seq) for _, seq in read_sequence_file(fp, 4)]
        assert codes == ["023102321320132", "201320121320132"]

    def test_python_m_package_runs_the_cli(self):
        r = run_cli("verify", "-n", "3", "0102101", module="beckettgray")
        assert r.returncode == 0
        assert "open-beckett" in r.stdout

    @pytest.mark.parametrize("args", [
        pytest.param(["enumerate"], id="enumerate"),
        pytest.param(["verify", "-n", "25", "0"], id="verify-n25"),
        pytest.param(["canonicalize", "-n", "0", "0"], id="canonicalize-n0"),
        pytest.param(["brgc", "-n", "25"], id="brgc-n25"),
        pytest.param(["hunt", "-n", "0", "--seed", "1"], id="hunt-n0"),
        pytest.param(["estimate", "-n", "25", "--samples", "1", "--seed", "1"], id="estimate-n25"),
        pytest.param(["enumerate", "-n", "25", "--count-only", "--node-limit", "5"],
                     id="enumerate-n25"),
        pytest.param(["enumerate", "-n", "0"], id="enumerate-n0"),
        pytest.param(["estimate", "-n", "3", "--samples", "0", "--seed", "1"], id="samples0"),
        # the stop length 16 exceeds the 15 steps of an open 4-bit code
        pytest.param(["hunt", "-n", "4", "--mode", "open", "--seed", "1", "--handoff", "16"],
                     id="handoff16"),
        pytest.param(["hunt", "-n", "4", "--mode", "open", "--seed", "1", "--handoff", "-3"],
                     id="handoff-3"),
        # counts below their least value: 1 job, restart and budget node; depth and node limit 0
        pytest.param(["enumerate", "-n", "3", "--jobs", "0", "--depth", "2", "--count-only"],
                     id="jobs0"),
        pytest.param(["enumerate", "-n", "3", "--depth", "-1", "--count-only"], id="depth-1"),
        pytest.param(["enumerate", "-n", "3", "--node-limit", "-1", "--count-only"],
                     id="node-limit-1"),
        pytest.param(["hunt", "-n", "4", "--seed", "1", "--restarts", "-5"], id="restarts-5"),
        pytest.param(["hunt", "-n", "4", "--seed", "1", "--restarts", "0"], id="restarts0"),
        pytest.param(["hunt", "-n", "4", "--seed", "1", "--budget", "-1"], id="budget-1"),
        pytest.param(["hunt", "-n", "4", "--seed", "1", "--budget", "0"], id="budget0"),
        # a time budget is a number >= 0; inf is no budget
        pytest.param(["enumerate", "-n", "5", "--depth", "3", "--count-only", "--time-limit",
                      "nan"], id="time-limit-nan"),
        pytest.param(["enumerate", "-n", "4", "--count-only", "--time-limit", "-1"],
                     id="time-limit-1"),
        pytest.param(["enumerate", "-n", "5", "--depth", "3", "--count-only", "--time-limit",
                      "-1"], id="time-limit-1-sharded"),
        # a sequence that leaves a symbol out has no canonical form
        pytest.param(["canonicalize", "-n", "3", "01"], id="canonicalize-incomplete"),
        pytest.param(["enumerate", "-n", "3", "--count-only", "--out",
                      os.path.join(os.devnull, "run.txt")], id="out-unwritable"),
        # refused before the hunt, so no code line is printed
        pytest.param(["hunt", "-n", "4", "--mode", "open", "--seed", "1", "--out",
                      os.path.join(os.devnull, "found.txt")], id="hunt-out-unwritable"),
    ])
    def test_usage_error(self, args):
        r = run_cli(*args)
        assert r.returncode == 2 and r.stdout == ""
        assert "error: " in r.stderr and "Traceback" not in r.stderr
