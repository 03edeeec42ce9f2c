import contextlib
import csv
import io
import json
import tempfile
import time
from importlib import resources

import jsonschema
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from filtropt import CyclotomicCoset, cli, likelihood, limits, polytable, spectral


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
    (["analyze", "-L", str(limits.DESK_MAX_L + 1), "--filter", "x0"], "capped"),
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
    (["lc", "--bits", "@/dev/zero"], "cap"),
    (["lc", "--bits", "01" * (limits.LC_MAX_BITS // 2) + "1"], "cap"),
    (["enumerate", "-L", "17", "-k", "1"], "capped"),
    (["sample", "-L", "17", "-k", "3", "--trials", "5"], "capped"),
    (["analyze", "-L", "17", "--poly", "20009", "--filter", "x0"], "capped"),
    (["sample", "-L", "7", "-k", "3", "--trials", "16777217"], "trials"),
    (["enumerate", "-L", "7", "-k", "2"], "use sample"),
    (["cosets", "-L", "21", "-k", "1"], "use prob"),
    (["prob", "-L", "1000000", "-k", "500000"], "report cap"),
    (["prob", "-L", "1000000000000000003", "-k", "1"], "report cap"),
    (["analyze", "-L", "5", "--filter", "x0", "--state", "20"], "got 0x20"),
    (["analyze", "-L", "5", "--filter", "x\u0663"], "bad tap"),  # ARABIC-INDIC DIGIT THREE
    (["analyze", "-L", "5", "--filter", "x\uff13"], "bad tap"),  # FULLWIDTH DIGIT THREE
    (["prob", "-L", "1", "-k", "1"], "need 2 <= L and 1 <= k <= L, got L=1, k=1"),
    (["prob", "-L", "7", "-k", "8"], "got L=7, k=8"),
    (["cosets", "-L", "-4", "-k", "1"], "got L=-4, k=1"),
    (["cosets", "-L", "5", "-k", "0"], "got L=5, k=0"),
    (["enumerate", "-L", "4", "-k", "5"], "got L=4, k=5"),
    (["sample", "-L", "5", "-k", "6", "--trials", "3"], "got L=5, k=6"),
])
def test_bad_input_exits_1_with_one_line(capsys, argv, needle):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert needle in err


# Valid sizes stay tiny (L <= 5, trials <= 50), so no case does real work;
# the bad ones are huge, negative or not integers at all, and each must trip
# a check before any work starts.  None leaves the flag out.
_BAD_SIZES = [None, "-2", "0", "1", "17", "21", "1000000", "10" * 9, str(2 ** 64),
              str(-2 ** 63), "1.5", "abc", "", "0x10"]
_SCHEMAS = {"cosets": "cosets", "lc": "lc", "analyze": "analyze", "prob": "prob",
            "enumerate": "experiment", "sample": "experiment"}


@st.composite
def _argvs(draw, scratch):
    cmd = draw(st.sampled_from(sorted(_SCHEMAS)))
    argv = [cmd]

    def opt(flag, valid, bad):
        """flag and a value, a bad one one time in four."""
        value = draw(st.sampled_from(bad if draw(st.integers(0, 3)) == 0 else valid))
        if value is not None:
            argv.extend([flag, value])

    if cmd != "lc":
        opt("-L", ["2", "3", "4", "5", "\u0663"], _BAD_SIZES)
    if cmd not in ("lc", "analyze"):
        opt("-k", ["1", "2", "3", "\uff13"], _BAD_SIZES)
    if cmd == "lc":
        opt("--bits", ["0110", " 1 0\n1"],
            [None, "", "10a1", "\u0661\u0660", "@/dev/zero", f"@{scratch}",
             f"@{scratch}/missing", "1" * (limits.LC_MAX_BITS + 1)])
    if cmd == "analyze":
        opt("--filter", ["x0", "x0 + x1*x2", "[[0], [1, 2]]"],
            [None, "x\u0663", "x\uff13", "x9", "[1]", "", "[" * 100_000])
        opt("--state", [None, "1", "3"], ["0", "zz", "-1", "1" * 40])
    if cmd in ("analyze", "enumerate", "sample"):
        opt("--poly", [None, None, "25"], ["1g", "0", "-5", "1" * 40])  # 0x25: L = 5
    if cmd == "prob":
        opt("--digits", [None, "5"], ["-1", "0", "100000", "abc"])
    if cmd in ("enumerate", "sample"):
        opt("--jobs", [None, "1", "2"], ["-1", "0"])
        opt("--csv", [None, f"{scratch}/rows.csv"], [scratch, f"{scratch}/missing/rows.csv"])
    if cmd == "sample":
        opt("--trials", ["1", "50"],
            ["-1", "0", str(limits.ENUMERATION_CAP + 1), "10" * 15, "x"])
        opt("--seed", [None, "0", "-1"], [str(2 ** 127), "1.5"])
    return argv


def test_any_argv_exits_1_with_one_line_or_gives_valid_json():
    with tempfile.TemporaryDirectory() as scratch:

        @settings(max_examples=150, deadline=None, database=None,
                  suppress_health_check=[HealthCheck.too_slow])
        @given(_argvs(scratch))
        def check(argv):
            out, err = io.StringIO(), io.StringIO()
            start = time.perf_counter()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            assert time.perf_counter() - start < 10, argv
            if code == 1:
                assert out.getvalue() == "", argv
                assert err.getvalue().startswith("error:"), argv
                assert err.getvalue().count("\n") == 1, argv
            else:
                assert code in (0, 2), (argv, err.getvalue())
                validate(json.loads(out.getvalue()), f"{_SCHEMAS[argv[0]]}.schema.json")

        check()


def test_refused_census_measures_nothing(capsys, monkeypatch, tmp_path):
    from filtropt import experiment

    def measure_chunk(*args):
        raise AssertionError("a filter was measured")

    monkeypatch.setattr(experiment, "_measure_chunk", measure_chunk)
    path = tmp_path / "missing" / "x.csv"
    code, out, err = run(capsys, "enumerate", "-L", "6", "-k", "2", "--csv", str(path))
    assert code == 1 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1 and str(path) in err


def test_refused_sample_writes_no_csv(capsys, tmp_path):
    path = tmp_path / "x.csv"
    code, out, err = run(capsys, "sample", "-L", "7", "-k", "3", "--trials", "16777217",
                         "--csv", str(path))
    assert code == 1 and "trials" in err
    assert not path.exists()


def test_sample_of_too_high_an_order_writes_no_csv(capsys, tmp_path):
    path = tmp_path / "x.csv"
    code, out, err = run(capsys, "sample", "-L", "5", "-k", "6", "--trials", "3",
                         "--csv", str(path))
    assert code == 1 and "got L=5, k=6" in err
    assert not path.exists()


def test_internal_check_failure_exits_3(capsys, monkeypatch):
    def broken_dft(z, ctx):
        raise AssertionError("conjugate sum escaped GF(2); spectrum is inconsistent")

    monkeypatch.setattr(spectral, "dft", broken_dft)
    code, out, err = run(capsys, "analyze", "-L", "5", "--filter", "x0")
    assert code == 3
    assert out == ""
    assert err.startswith("internal error:") and err.count("\n") == 1


def test_analyze_refuses_a_coefficient_outside_its_subfield(capsys, monkeypatch):
    # coset {5, 10} has cardinal 2 at L = 4, and alpha does not lie in GF(4)
    def out_of_subfield_dft(z, ctx):
        return spectral.Spectrum(ctx, {5: spectral.SpectralLine(CyclotomicCoset(5, 2, 2), 0b10)})

    monkeypatch.setattr(spectral, "dft", out_of_subfield_dft)
    code, out, err = run(capsys, "analyze", "-L", "4", "--filter", "x0")
    assert code == 3
    assert out == ""
    assert err == "internal error: a spectral coefficient lies outside its coset's subfield\n"


def test_an_impossible_probability_exits_3(capsys, monkeypatch):
    # one cardinal-L coset too many puts nfm above nfk, so pr_exact exceeds 1
    # before any run is compared with it
    real = likelihood.cardinal_counts

    def one_coset_too_many(L, k):
        counts = real(L, k)
        return counts | {L: counts.get(L, 0) + 1}

    monkeypatch.setattr(likelihood, "cardinal_counts", one_coset_too_many)
    for argv in (["enumerate", "-L", "5", "-k", "2"],
                 ["sample", "-L", "10", "-k", "5", "--trials", "50"]):
        code, out, err = run(capsys, *argv)
        assert code == 3
        assert out == ""
        assert err == "internal error: probability out of (0, 1]\n"


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


@pytest.mark.parametrize("argv", [
    ["sample", "-L", "7", "-k", "1", "--trials", "50"],
    ["enumerate", "-L", "7", "-k", "1"],
])
def test_missed_certain_prediction_exits_2(capsys, monkeypatch, argv):
    # every order-1 filter reaches lc = L, so pr = 1 and a miss has no finite z
    from filtropt import experiment

    lc = experiment.periodic_lc_packed
    monkeypatch.setattr(experiment, "periodic_lc_packed", lambda *a: lc(*a) - 1)
    code, out, err = run(capsys, *argv)
    assert code == 2, err
    payload = json.loads(out)
    validate(payload, "experiment.schema.json")
    assert payload["hits_max_lc"] == 0 and payload["analytic_pr"] == 1.0
    assert payload["z_score"] is None
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


@pytest.mark.parametrize("k", [2, 3])
def test_enumerate_csv_rows_match_per_filter_oracle(capsys, tmp_path, k):
    from filtropt import anf, complexity, cosets

    ctx = polytable.context_for(4)
    csv_path = tmp_path / "census.csv"
    code, _, err = run(capsys, "enumerate", "-L", "4", "-k", str(k), "--csv", str(csv_path))
    assert code == 0, err
    rows = list(csv.reader(csv_path.read_text().splitlines()))
    assert rows[0] == ["filter_anf", "lc", "period", "is_max"]
    want = []
    for f in anf.enumerate_filters(4, k):
        z = complexity.bits_to_int(anf.filter_sequence(f, ctx))
        lc = complexity.periodic_lc_packed(z, 15)
        want.append([anf.format_anf(f), str(lc), str(complexity.min_period_packed(z, 15)),
                     str(int(lc == cosets.nk(4, k)))])
    assert rows[1:] == want
    pooled = tmp_path / "pooled.csv"
    code, _, err = run(capsys, "enumerate", "-L", "4", "-k", str(k), "--jobs", "2",
                       "--csv", str(pooled))
    assert code == 0, err
    assert pooled.read_bytes() == csv_path.read_bytes()


def test_enumerate_l6_k2_census(capsys):
    from filtropt import nfm

    payload = run_json(capsys, "enumerate", "-L", "6", "-k", "2")
    assert payload["trials"] == 2097088
    assert payload["hits_max_lc"] == nfm(6, 2) == 1750329
    # nfk - 511: 2^9 - 1 filters put their whole spectrum on cosets 3 and 9
    # (cardinals 6 and 3, periods 21 and 7), so their period stays below 63
    assert payload["hits_max_period"] == 2096577 == 2097088 - 511
    assert payload["verdict"]["ok"] is True
