"""CLI workflows: spec strings in, JSON/tables out, exit codes."""

import json
import os
import subprocess
import sys

import pytest

from dbcayley import build, cayley, cli, export_graph, parse_spec
from dbcayley.cli import (
    EXIT_FAILURE,
    EXIT_OK,
    EXIT_RESOURCE,
    EXIT_USAGE,
    main,
)

REPORT_KEYS = {
    "spec", "order", "degree", "directed", "diameter",
    "claimed_diameter", "histogram", "moore_ratio", "validation",
}


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_json_schema(capsys):
    code, out, _ = run_cli(capsys, "verify", "thm4:k=2,l=2,t=2,m=1")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert set(payload) == REPORT_KEYS
    assert payload["order"] == 24
    assert payload["degree"] == 11
    assert payload["diameter"] == 2
    assert payload["claimed_diameter"] == 2
    assert payload["directed"] is False
    assert sum(payload["histogram"]) == 24
    assert payload["validation"]["ok"] is True
    num, _, den = payload["moore_ratio"].partition("/")
    assert int(num) >= 1 and int(den) >= 1


def test_verify_thm1(capsys):
    code, out, _ = run_cli(capsys, "verify", "thm1:k=4,d=3")
    assert code == EXIT_OK
    assert json.loads(out)["diameter"] == 4


def test_verify_cap_refusal(capsys):
    code, _, err = run_cli(
        capsys, "verify", "thm3:k=3,l=9,t=2,m=3", "--cap", "1000000"
    )
    assert code == EXIT_RESOURCE
    assert "44040192" in err


def test_build_reports_formulas_without_bfs(capsys):
    code, out, _ = run_cli(capsys, "build", "thm1:k=4,d=3")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["order"] == 24
    assert payload["degree"] == 3
    assert payload["diameter"] is None
    assert payload["histogram"] is None


def test_build_resolves_corollary_spec(capsys):
    code, out, _ = run_cli(capsys, "build", "cor:k=3")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["spec"] == "thm3:k=3,l=9,t=2,m=3"
    assert payload["degree"] == 671
    assert payload["order"] == 44_040_192


def test_build_large_order_emitted_as_string(capsys):
    code, out, _ = run_cli(capsys, "build", "cor:k=6")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert isinstance(payload["order"], str)
    assert int(payload["order"]) == 64 * 2**64


def test_histogram_counts_past_2_53_emitted_as_strings(capsys):
    # 1.4e17 vertices, verified from digit supports in well under a second
    code, out, _ = run_cli(capsys, "verify", "thm1:k=10,d=70", "--cap", str(10**18))
    assert code == EXIT_OK
    payload = json.loads(out)
    histogram = payload["histogram"]
    for count in histogram:
        assert ((type(count) is int and count < 2**53)
                or (isinstance(count, str) and count.isdecimal()))
    assert any(isinstance(count, str) for count in histogram)
    assert sum(map(int, histogram)) == int(payload["order"])


def test_usage_error_cites_bound(capsys):
    code, _, err = run_cli(capsys, "build", "thm3:k=2,l=2,t=2,m=2")
    assert code == EXIT_USAGE
    assert "m < l" in err


def test_parse_error_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "build", "thmX:k=4,d=3")
    assert code == EXIT_USAGE
    assert "thmX" in err


def test_repeated_spec_key_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "verify", "thm1:k=4,d=3,d=5")
    assert code == EXIT_USAGE
    assert out == ""
    assert "repeated key 'd'" in err


def test_class_overlap_is_invariant_failure(capsys):
    code, _, err = run_cli(capsys, "build", "thm4:k=2,l=3,t=2,m=2")
    assert code == EXIT_FAILURE
    assert "overlap" in err


def test_table_format(capsys):
    code, out, _ = run_cli(capsys, "verify", "thm2:k=4,d=5", "--format", "table")
    assert code == EXIT_OK
    assert "diameter" in out
    assert "ok" in out


def test_export_edge_list(tmp_path, capsys):
    target = tmp_path / "graph.txt"
    code, _, _ = run_cli(
        capsys, "export", "thm1:k=4,d=3", "edge-list", "--out", str(target)
    )
    assert code == EXIT_OK
    lines = target.read_text("ascii").splitlines()
    assert len(lines) == 72


def test_export_deterministic_bytes(tmp_path, capsys):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    for path in (a, b):
        code, _, _ = run_cli(
            capsys, "export", "thm4:k=2,l=2,t=2,m=1", "dot", "--out", str(path)
        )
        assert code == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("fmt", ["edge-list", "dot", "adjacency"])
def test_export_stdout_and_file_match_export_graph(tmp_path, capsys, fmt):
    spec = "thm2:k=4,d=9"
    expected = export_graph(build(parse_spec(spec)), fmt)
    code, out, _ = run_cli(capsys, "export", spec, fmt)
    assert code == EXIT_OK
    assert out.encode("ascii") == expected
    target = tmp_path / "graph.txt"
    code, _, _ = run_cli(capsys, "export", spec, fmt, "--out", str(target))
    assert code == EXIT_OK
    assert target.read_bytes() == expected


def test_export_cap_refusal(capsys):
    code, _, err = run_cli(
        capsys, "export", "thm3:k=3,l=9,t=2,m=3", "edge-list", "--cap", "1000"
    )
    assert code == EXIT_RESOURCE
    assert "44040192" in err


def test_export_to_a_reader_that_stops_early_exits_ok():
    # like ``dbcayley export ... | head -1``: the reader closes the pipe
    # while the export is still being written
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = dict(os.environ, PYTHONPATH=src)
    with subprocess.Popen(
        [sys.executable, "-m", "dbcayley.cli", "export", "thm2:k=5,d=21", "edge-list"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    ) as proc:
        assert proc.stdout.readline() == b"0 10000\n"
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    assert code == EXIT_OK
    assert b"Error" not in err


@pytest.mark.parametrize("argv", [
    ("build", "thm1:k=4,d=3"),
    ("verify", "thm1:k=4,d=3"),
    ("export", "thm1:k=4,d=3", "edge-list"),
    ("compare", "4", "5"),
    ("search", "3", "2", "7"),
], ids=lambda argv: argv[0])
def test_unopenable_out_path_is_usage_error(tmp_path, argv):
    # in a fresh process, so an escaping exception would show as a traceback
    target = tmp_path / "missing" / "out"
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "dbcayley.cli", *argv, "--out", str(target)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == EXIT_USAGE
    assert proc.stderr.startswith("error:")
    assert str(target) in proc.stderr
    assert "Traceback" not in proc.stderr


def test_export_cap_refusal_leaves_out_file_alone(tmp_path, capsys):
    target = tmp_path / "graph.txt"
    code, _, _ = run_cli(
        capsys, "export", "thm3:k=3,l=9,t=2,m=3", "edge-list", "--cap", "1000",
        "--out", str(target),
    )
    assert code == EXIT_RESOURCE
    assert not target.exists()


@pytest.mark.parametrize("argv", [
    ("verify", "thm3:k=2,l=30,t=2,m=1"),
    ("export", "thm3:k=2,l=30,t=2,m=1", "edge-list"),
], ids=lambda argv: argv[0])
@pytest.mark.parametrize("to_file", [True, False], ids=["out", "stdout"])
def test_cap_refuses_before_the_generators_are_listed(monkeypatch, tmp_path, capsys,
                                                      argv, to_file):
    # 31 * 2**31 vertices and 2**30 + 59 generators: listing them alone can
    # exhaust memory, so the cap must refuse from the spec, before build runs
    def no_build(spec):
        raise AssertionError("build ran")

    monkeypatch.setattr(cli, "build", no_build)
    monkeypatch.setattr(cayley, "build", no_build)
    target = tmp_path / "out"
    code, out, err = run_cli(capsys, *argv, *(("--out", str(target)) if to_file else ()))
    assert code == EXIT_RESOURCE
    assert f"{31 * 2**31} dense states" in err
    assert out == ""
    assert not target.exists()


def test_export_refuses_by_arcs_before_opening_out(tmp_path, capsys):
    # cor:k=3 has 44,040,192 vertices, under the default cap, but
    # 29,550,968,832 arcs
    target = tmp_path / "graph.txt"
    code, _, err = run_cli(capsys, "export", "cor:k=3", "edge-list", "--out", str(target))
    assert code == EXIT_RESOURCE
    assert "29550968832 arcs" in err
    assert not target.exists()


def test_compare_range_with_crossover(capsys):
    code, out, _ = run_cli(capsys, "compare", "4", "5", "10")
    assert code == EXIT_OK
    rows = json.loads(out)
    assert [row["d"] for row in rows] == list(range(5, 11))
    by_d = {row["d"]: row for row in rows}
    assert by_d[8]["thm1"] == 1029
    assert by_d[8]["vetrik"] == 1024
    assert by_d[8]["winner"] == "thm1"
    assert by_d[10]["winner"] == "vetrik"
    assert by_d[10]["crossover"] is True
    for row in rows:
        assert row["moore"] >= max(
            v for key, v in row.items()
            if key in ("thm1", "vetrik", "debruijn") and isinstance(v, int)
        )


def test_compare_undirected(capsys):
    code, out, _ = run_cli(capsys, "compare", "20", "100", "--undirected")
    assert code == EXIT_OK
    row = json.loads(out)[0]
    assert row["winner"] == "thm2"
    assert int(row["thm2"]) == 19 * 42**19
    assert int(row["mssv"]) == 20 * 33**20


def test_compare_table_format(capsys):
    code, out, _ = run_cli(capsys, "compare", "4", "7", "9", "--format", "table")
    assert code == EXIT_OK
    assert "winner" in out
    assert "1029" in out


def test_search_subcommand(capsys):
    code, out, _ = run_cli(capsys, "search", "3", "2", "21")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["ell"] == 9
    assert payload["m"] == 3
    assert payload["degree"] == 671
    assert {c["ell"]: c["degree"] for c in payload["candidates"]} == {
        8: 895, 9: 671, 10: 1063
    }


def test_search_usage_error(capsys):
    code, _, err = run_cli(capsys, "search", "6", "2", "6")
    assert code == EXIT_USAGE
    assert "ell" in err or "no admissible" in err


def test_argparse_usage_exit_code():
    with pytest.raises(SystemExit) as excinfo:
        main(["frobnicate"])
    assert excinfo.value.code == EXIT_USAGE


def test_verify_output_to_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "verify", "thm3:k=2,l=2,t=2,m=1", "--out", str(target)
    )
    assert code == EXIT_OK
    assert out == ""
    payload = json.loads(target.read_text("ascii"))
    assert payload["diameter"] == 2


def test_warn_only_downgrades_failure(capsys, monkeypatch):
    # force a diameter discrepancy by tampering with the claimed diameter
    import dbcayley.cli as cli_mod

    original = cli_mod.verify_construction

    def tampered(spec, cap):
        report = original(spec, cap=cap)
        report.discrepancies.append("synthetic discrepancy for testing")
        return report

    monkeypatch.setattr(cli_mod, "verify_construction", tampered)
    code, _, err = run_cli(capsys, "verify", "thm1:k=4,d=3")
    assert code == EXIT_FAILURE

    code, _, err = run_cli(capsys, "verify", "thm1:k=4,d=3", "--warn-only")
    assert code == EXIT_OK
    assert "synthetic discrepancy" in err


def test_parser_is_built_once_per_process(capsys, monkeypatch):
    # main runs many times in one process (a benchmark pass calls it once
    # per instance), so it must not rebuild the argparse tree each call
    import argparse

    run_cli(capsys, "build", "thm1:k=4,d=3")
    built = []
    original = argparse.ArgumentParser.__init__

    def spy(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        original(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
    code, out, _ = run_cli(capsys, "build", "thm1:k=4,d=3")
    assert code == EXIT_OK
    assert json.loads(out)["degree"] == 3
    assert built == []
