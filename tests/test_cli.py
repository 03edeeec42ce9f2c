import csv
import json
from importlib import resources

import jsonschema
import pytest

from filtropt import cli, experiment, polytable, spectral


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def validate(payload, schema_name):
    schema = json.loads(
        resources.files("filtropt").joinpath(f"schemas/{schema_name}").read_text())
    jsonschema.validate(payload, schema)


def test_cosets_json(capsys):
    payload = run_json(capsys, "cosets", "--length", "5", "--max-weight", "2")
    validate(payload, "cosets.schema.json")
    assert payload["count"] == 3
    assert [c["leader"] for c in payload["cosets"]] == [1, 3, 5]
    assert [c["period"] for c in payload["cosets"]] == [31, 31, 31]


def test_cosets_csv_matches_json(capsys):
    payload = run_json(capsys, "cosets", "--length", "4", "--max-weight", "2")
    code, out, err = run(capsys, "cosets", "--length", "4", "--max-weight", "2",
                         "--output", "csv")
    assert code == 0
    rows = list(csv.DictReader(out.splitlines()))
    assert len(rows) == payload["count"]
    for row, entry in zip(rows, payload["cosets"]):
        for key in ("leader", "cardinal", "weight", "period"):
            assert int(row[key]) == entry[key]


def test_lc_inline_and_file(capsys, tmp_path):
    payload = run_json(capsys, "lc", "--bits", "10101010")
    validate(payload, "lc.schema.json")
    assert payload["lc"] == 2
    path = tmp_path / "bits.txt"
    path.write_text("1001011 1001011\n")
    payload = run_json(capsys, "lc", "--bits", f"@{path}")
    assert payload["lc"] == 3
    # the first character is s_0: only a final lone one needs the whole register
    assert run_json(capsys, "lc", "--bits", "0001")["lc"] == 4
    assert run_json(capsys, "lc", "--bits", "1000")["lc"] == 1


def test_lc_rejects_garbage(capsys):
    code, out, err = run(capsys, "lc", "--bits", "10a1")
    assert code == 1
    assert "--bits" in err


def test_analyze_identity_filter(capsys):
    payload = run_json(capsys, "analyze", "--length", "3", "--filter", "x0")
    validate(payload, "analyze.schema.json")
    assert payload["lc_bm"] == 3
    assert payload["lc_spectral"] == 3
    assert payload["period_measured"] == 7
    assert payload["period_spectral"] == 7
    assert payload["optimal"] is True
    assert len(payload["lines"]) == 1
    assert payload["lines"][0]["leader"] == 1


def test_analyze_accepts_json_filter_and_state(capsys):
    payload = run_json(capsys, "analyze", "--length", "4",
                       "--filter", "[[0], [0, 1]]", "--state", "9")
    validate(payload, "analyze.schema.json")
    assert payload["order"] == 2
    assert payload["filter"] == "x0 + x0*x1"


def test_analyze_rejects_bad_filter(capsys):
    code, out, err = run(capsys, "analyze", "--length", "3", "--filter", "x0*x0")
    assert code == 1
    assert "--filter" in err


def test_analyze_rejects_non_primitive_poly(capsys):
    # x^4+x^3+x^2+x+1 is irreducible but has order 5
    code, out, err = run(capsys, "analyze", "--length", "4", "--poly", "1f",
                         "--filter", "x0")
    assert code == 1
    assert "--poly" in err or "primitive" in err


def test_unknown_length_rejected(capsys):
    code, out, err = run(capsys, "analyze", "--length", "40", "--filter", "x0")
    assert code == 1
    assert "--length" in err


@pytest.mark.parametrize("argv,needle", [
    (["analyze", "-L", str(experiment.DESK_MAX_L + 1), "--filter", "x0"], "capped"),
    (["analyze", "-L", "4", "--filter", "x0", "--state", "zz"], "--state"),
    (["analyze", "-L", "4", "--filter", "x0", "--poly", "1g"], "--poly"),
    (["sample", "-L", "5", "-k", "2", "--trials", "3", "--seed", str(1 << 127)], "seed"),
    (["prob", "-L", "7", "-k", "3", "--digits", "-5"], "digits"),
    (["prob", "-L", "7", "-k", "3", "--digits", "0"], "digits"),
    (["analyze", "-L", "5", "--filter", "[[0],[0],[1]]"], "duplicate monomial"),
    (["analyze", "-L", "5", "--filter", "[[0,1.5]]"], "not an integer"),
    (["analyze", "-L", "5", "--filter", '[["a"]]'], "not an integer"),
    (["analyze", "-L", "5", "--filter", "[1]"], "not a list"),
    (["analyze", "-L", "5", "--filter", "[[true],[2]]"], "not an integer"),
    (["analyze", "-L", "5", "--filter", "[" * 100_000], "recursion"),
    (["sample", "-L", "4", "-k", "2", "--trials", "5", "--jobs", "-3"], "jobs"),
    (["enumerate", "-L", "3", "-k", "2", "--jobs", "0"], "jobs"),
    (["sample", "-L", "5", "-k", "2", "--trials", "5", "--out", "/nonexistent/dir/x"],
     "/nonexistent/dir/x"),
    (["sample", "-L", "5", "-k", "2", "--trials", "5", "--csv", "/nonexistent/x.csv"],
     "/nonexistent/x.csv"),
    (["prob", "-L", "5", "-k", "2", "--digits", "100000"], "digits"),
    (["analyze", "-L", "4", "--filter", "x0", "--state", "0"], "initial state"),
    (["analyze", "-L", "4", "--filter", "x0", "--state", "10"], "initial state"),
])
def test_bad_input_exits_1_with_one_line(capsys, argv, needle):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert needle in err


def test_internal_check_failure_exits_3(capsys, monkeypatch):
    def broken_dft(z, ctx):
        raise AssertionError("conjugate sum escaped GF(2); spectrum is inconsistent")

    monkeypatch.setattr(spectral, "dft", broken_dft)
    code, out, err = run(capsys, "analyze", "-L", "5", "--filter", "x0")
    assert code == 3
    assert out == ""
    assert err.startswith("internal error:") and err.count("\n") == 1


@pytest.mark.parametrize("content", [None, "not json", '{"5": {"poly": "25"}}', "[1, 2]"])
def test_bad_poly_table_file_exits_1(capsys, monkeypatch, tmp_path, content):
    path = tmp_path / "table.json"
    if content is not None:
        path.write_text(content)
    monkeypatch.setenv(polytable.ENV_TABLE_VAR, str(path))
    code, out, err = run(capsys, "analyze", "--length", "5", "--filter", "x0")
    assert code == 1
    assert err.startswith("error:") and err.count("\n") == 1
    assert polytable.ENV_TABLE_VAR in err


def test_prob_headline(capsys):
    payload = run_json(capsys, "prob", "--length", "257", "--order", "128")
    validate(payload, "prob.schema.json")
    assert payload["mode"] == "log-domain"
    assert payload["nfm"] is None
    assert payload["pr_float"].startswith("0.998056366")
    assert payload["bound_asymptotic"].startswith("0.998056366")
    assert payload["n_cosets"] == str((2**256 - 1) // 257)


def test_prob_exact_small(capsys):
    payload = run_json(capsys, "prob", "--length", "3", "--order", "2")
    validate(payload, "prob.schema.json")
    assert payload["mode"] == "exact"
    assert payload["pr_exact"] == "7/8"
    assert payload["nfm"] == "49"
    assert payload["nfk"] == "56"


def test_prob_exact_flag_refuses_log_domain(capsys):
    code, out, err = run(capsys, "prob", "--length", "257", "--order", "128",
                         "--exact")
    assert code == 1
    assert "exact" in err


def test_enumerate_census(capsys, tmp_path):
    csv_path = tmp_path / "trials.csv"
    code, out, err = run(capsys, "enumerate", "--length", "3", "--order", "2",
                         "--csv", str(csv_path))
    assert code == 0
    payload = json.loads(out)
    validate(payload, "experiment.schema.json")
    assert payload["trials"] == 56
    assert payload["hits_max_lc"] == 49
    assert payload["verdict"]["ok"] is True
    rows = list(csv.DictReader(csv_path.read_text().splitlines()))
    assert len(rows) == 56
    assert sum(int(r["is_max"]) for r in rows) == 49


def test_sample_deterministic(capsys):
    args = ("sample", "--length", "5", "--order", "2", "--trials", "200",
            "--seed", "17")
    first = run_json(capsys, *args)
    second = run_json(capsys, *args)
    validate(first, "experiment.schema.json")
    assert first == second
    assert first["seed"] == 17
    assert first["trials"] == 200


def test_sample_csv_and_json_numeric_identity(capsys, tmp_path):
    out_json = tmp_path / "s.json"
    code, _, _ = run(capsys, "sample", "--length", "4", "--order", "2",
                     "--trials", "100", "--seed", "3", "--out", str(out_json))
    assert code == 0
    payload = json.loads(out_json.read_text())
    code, out, err = run(capsys, "sample", "--length", "4", "--order", "2",
                         "--trials", "100", "--seed", "3", "--output", "csv")
    assert code == 0
    rows = {r[0]: r[1] for r in csv.reader(out.splitlines()) if r and r[0] != "key"}
    for key in ("trials", "hits_max_lc", "hits_max_period", "empirical_pr",
                "analytic_pr", "z_score", "ci_low", "ci_high"):
        assert rows[key] == str(payload[key])


def test_comparison_failure_exits_2(capsys, monkeypatch):
    from filtropt.experiment import Verdict

    monkeypatch.setattr(
        "filtropt.cli.experiment.compare",
        lambda summary, report: Verdict(False, None, True, False))
    code, out, err = run(capsys, "enumerate", "--length", "3", "--order", "2")
    assert code == 2
    payload = json.loads(out)
    assert payload["verdict"]["ok"] is False


def test_human_output(capsys):
    code, out, err = run(capsys, "prob", "--length", "3", "--order", "2",
                         "--output", "human")
    assert code == 0
    assert "pr_exact: 7/8" in out


def test_missing_subcommand_is_usage_error(capsys):
    code, out, err = run(capsys)
    assert code == 1
    assert "error" in err
