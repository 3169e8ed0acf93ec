import json

import pytest

from walshlab.cli import main
from walshlab.functions import load_csv


def test_stats_json(capsys):
    assert main(["stats", "5"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out == {"n": 5, "binary": "101", "low": 0, "high": 2, "rho": 2, "V": 4}


def test_stats_power_of_two(capsys):
    assert main(["stats", "8"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["rho"] == 0 and out["V"] == 2


def test_stats_table_format(capsys):
    assert main(["stats", "6", "--format", "table"]) == 0
    text = capsys.readouterr().out
    assert "rho" in text and "V" in text


def test_stats_zero_is_usage_error(capsys):
    assert main(["stats", "0"]) == 2
    assert "undefined" in capsys.readouterr().err


def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["stats", "5", "--frobnicate"])
    assert exc.value.code == 2


def test_kernel_csv(capsys):
    assert main(["kernel", "3", "--resolution", "2"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines == ["index,value", "0,3", "1,1", "2,1", "3,-1"]
    # Every construction prints the same kernel, up to and including the
    # order 2^m, where the fast construction takes its closed-form branch.
    for n in range(1, 9):
        constructions = ("direct", "fast", "dyadic") if n & (n - 1) == 0 else ("direct", "fast")
        texts = set()
        for construction in constructions:
            assert main(["kernel", str(n), "--resolution", "3", "--construction", construction]) == 0
            texts.add(capsys.readouterr().out)
        assert len(texts) == 1, n
        csv_values = [line.split(",")[1] for line in texts.pop().strip().splitlines()[1:]]
        assert main(["kernel", str(n), "--resolution", "3", "--construction", "fast", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"order": n, "resolution": 3, "values": csv_values}


def test_kernel_closed_form_profile(capsys):
    assert main(["kernel", "4", "--resolution", "3", "--construction", "dyadic"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[1:] == [f"{i},{4 if i < 2 else 0}" for i in range(8)]


def test_kernel_exact_flag_is_gone():
    # Kernels are always exact, so the flag was removed rather than ignored.
    with pytest.raises(SystemExit) as exc:
        main(["kernel", "5", "--resolution", "3", "--exact"])
    assert exc.value.code == 2


def test_kernel_out_of_range(capsys):
    assert main(["kernel", "9", "--resolution", "2"]) == 2
    assert main(["kernel", "3", "--resolution", "30"]) == 2
    capsys.readouterr()
    assert main(["kernel", "6", "--resolution", "4", "--construction", "dyadic"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "needs a power-of-two order" in captured.err


def test_transform_roundtrip(tmp_path, capsys):
    f_csv = tmp_path / "f.csv"
    spec_csv = tmp_path / "spec.csv"
    back_csv = tmp_path / "back.csv"
    assert main(["kernel", "6", "--resolution", "3", "--output", str(f_csv)]) == 0
    assert main(["transform", "--input", str(f_csv), "--output", str(spec_csv)]) == 0
    spec = load_csv(spec_csv)
    assert spec.values.tolist() == [1, 1, 1, 1, 1, 1, 0, 0]
    assert main(["transform", "--input", str(spec_csv), "--inverse", "--output", str(back_csv)]) == 0
    assert back_csv.read_text() == f_csv.read_text()
    # A float CSV goes forward to stdout and back through --inverse.
    capsys.readouterr()
    float_csv = tmp_path / "float.csv"
    float_csv.write_text("index,value\n0,1.5\n1,-0.25\n2,3.0\n3,0.125\n")
    assert main(["transform", "--input", str(float_csv)]) == 0
    spec_csv.write_text(capsys.readouterr().out)
    assert main(["transform", "--input", str(spec_csv), "--inverse"]) == 0
    assert capsys.readouterr().out == float_csv.read_text()
    # Non-finite or undefined values are usage errors, never a silent inf.
    for bad in ("inf", "nan", "-Infinity", "1/0"):
        float_csv.write_text(f"index,value\n0,1.5\n1,{bad}\n")
        assert main(["transform", "--input", str(float_csv)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err


def test_verify_pass_and_report(tmp_path):
    out = tmp_path / "k.json"
    assert main(["verify", "kernels", "--resolution", "6", "--output", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["verdict"] is True and report["name"] == "kernel-identities"
    assert json.loads((tmp_path / "k.meta.json").read_text())["runtime_seconds"] > 0


def test_verify_resolution_cap_is_usage_error():
    assert main(["verify", "kernels", "--resolution", "30"]) == 2


def test_thm1_tiny_run_and_determinism(tmp_path):
    cfg = {"p_list": ["1/2"], "support_levels": [3, 4, 5], "trials": 6, "seed": 42}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["thm1", "--config", str(cfg_path), "--output", str(out1)]) == 0
    assert main(["thm1", "--config", str(cfg_path), "--output", str(out2)]) == 0
    assert out1.read_text() == out2.read_text()
    assert (tmp_path / "a.cases.csv").exists()
    assert (tmp_path / "a.series.tsv").exists()


def test_thm1_malformed_config(tmp_path, capsys):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps({"p_list": ["1/2"], "support_levels": [3], "oops": 1}))
    assert main(["thm1", "--config", str(cfg_path)]) == 2
    assert "oops" in capsys.readouterr().err
    cfg_path.write_text("{not json")
    assert main(["thm1", "--config", str(cfg_path)]) == 2
    cfg_path.write_text(json.dumps([{"p_list": ["1/2"], "support_levels": [3]}]))
    capsys.readouterr()
    assert main(["thm1", "--config", str(cfg_path)]) == 2
    assert "config must be a JSON object" in capsys.readouterr().err


def test_thm2_both_parts(tmp_path):
    out = tmp_path / "t2.json"
    code = main(
        ["thm2", "--part", "both", "--p", "1/2", "--resolution", "9",
         "--scales", "3..8", "--seed", "0", "--output", str(out)]
    )
    assert code == 0
    assert out.exists() and out.with_suffix(".part-b.json").exists()
    # Each part's run time goes to its sidecar and never into the data files.
    for stem in ("t2", "t2.part-b"):
        meta = json.loads((tmp_path / f"{stem}.meta.json").read_text())
        assert meta["runtime_seconds"] > 0
    data_files = [p for p in tmp_path.iterdir() if not p.name.endswith(".meta.json")]
    assert len(data_files) == 6
    assert all("runtime_seconds" not in p.read_text() for p in data_files)


def test_thm2_part_b_rho_weight(tmp_path):
    out = tmp_path / "t2b.json"
    code = main(
        ["thm2", "--part", "b", "--p", "1/2", "--resolution", "9",
         "--phi", "rho", "--scales", "4..8", "--output", str(out)]
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert report["summary"]["expectation"] == "bounded"


def test_corollaries_cli(tmp_path):
    out = tmp_path / "cor.json"
    assert main(["corollaries", "--resolution", "8", "--p", "1/2",
                 "--trials", "5", "--seed", "1", "--output", str(out)]) == 0


@pytest.mark.parametrize("p", ["1/5", "1/8"])
def test_corollaries_cli_below_a_quarter(tmp_path, p):
    # The polynomial weight's best orders reach the shells in three or more
    # Paley terms here; the run writes its report like any other.
    out = tmp_path / "cor.json"
    assert main(["corollaries", "--resolution", "8", "--p", p,
                 "--trials", "6", "--seed", "3", "--output", str(out)]) == 0
    assert json.loads(out.read_text())["verdict"]


def test_corollaries_too_few_levels_is_usage_error(tmp_path, capsys):
    assert main(["corollaries", "--resolution", "6", "--trials", "1",
                 "--output", str(tmp_path / "c.json")]) == 2
    assert "hold level 3" in capsys.readouterr().err


def test_weight_overflow_is_usage_error(tmp_path, capsys):
    # (n + 1)^99 leaves the float64 range at orders near 2^11.
    assert main(["corollaries", "--resolution", "11", "--p", "1/100", "--trials", "1",
                 "--output", str(tmp_path / "c.json")]) == 2
    err = capsys.readouterr().err
    assert "overflows float64" in err and "Traceback" not in err
    cfg = tmp_path / "poly.json"
    cfg.write_text(json.dumps({"p_list": ["1/2"], "resolution": 12, "scales": [11],
                               "scheme": {"kind": "poly", "p": "1/100"}}))
    assert main(["thm2", "--part", "b", "--config", str(cfg),
                 "--output", str(tmp_path / "b.json")]) == 2
    assert "overflows float64" in capsys.readouterr().err


def test_thm2_config_needs_one_part(tmp_path, capsys):
    cfg = tmp_path / "a.json"
    cfg.write_text(json.dumps({"p_list": ["1/2"], "resolution": 8}))
    assert main(["thm2", "--part", "both", "--config", str(cfg)]) == 2
    assert "--part a or --part b" in capsys.readouterr().err
    assert main(["thm2", "--config", str(cfg)]) == 2  # both is the default part


def test_jobs_below_one_is_usage_error(tmp_path):
    assert main(["thm1", "--p", "1/2", "--levels", "3..4", "--trials", "1", "--jobs", "0",
                 "--output", str(tmp_path / "t.json")]) == 2
    assert main(["corollaries", "--resolution", "7", "--trials", "1", "--jobs", "-1",
                 "--output", str(tmp_path / "c.json")]) == 2


def test_report_rendering(tmp_path, capsys):
    src = tmp_path / "g.json"
    assert main(["thm2", "--part", "a", "--p", "1/2", "--resolution", "8",
                 "--scales", "3..7", "--output", str(src)]) == 0
    assert main(["report", str(src), "--format", "csv",
                 "--output", str(tmp_path / "g.csv")]) == 0
    header = (tmp_path / "g.csv").read_text().splitlines()[0]
    assert "ratio" in header
    assert main(["report", str(src), "--format", "tsv", "--x", "n", "--y", "ratio",
                 "--output", str(tmp_path / "g.tsv")]) == 0
    assert (tmp_path / "g.tsv").read_text().splitlines()[0] == "n\tratio"
    assert main(["report", str(src), "--format", "tsv"]) == 2  # missing keys
    capsys.readouterr()
    typo = tmp_path / "typo.tsv"
    assert main(["report", str(src), "--format", "tsv", "--x", "n", "--y", "raito", "--output", str(typo)]) == 2
    assert "'raito'" in capsys.readouterr().err and not typo.exists()
    bad = tmp_path / "bad.json"
    for text, named in (("{}", "'name'"), ("[1]", "JSON object"),
                        ('{"name": "x", "config": {}}', "'cases', 'summary', 'verdict'"),
                        ('{"name": "x", "config": {}, "cases": [1], "summary": {}, "verdict": true}',
                         "'cases' must be")):
        bad.write_text(text)
        assert main(["report", str(bad)]) == 2
        err = capsys.readouterr().err
        assert named in err and "Traceback" not in err


_THM1_CFG = {"p_list": ["1/2"], "support_levels": [3, 4], "trials": 2, "seed": 1}
_THM2A_CFG = {"p_list": ["1/2"], "resolution": 8}
_THM2B_CFG = {"p_list": ["1/2"], "resolution": 8, "scales": [4, 5]}


@pytest.mark.parametrize(
    "config, argv, named",
    [
        (_THM1_CFG, ["thm1", "--trials", "7", "--p", "1/4"], "--p, --trials"),
        ({**_THM1_CFG, "resolution": 8}, ["thm1"], "'resolution'"),
        ({**_THM1_CFG, "probes": [[5, 0]]}, ["thm1"], "'probes'"),
        ({**_THM1_CFG, "expectation": "bounded"}, ["thm1"], "'expectation'"),
        ({**_THM1_CFG, "scheme": {"kind": "unit"}}, ["thm1"], "'scheme'"),
        ({**_THM1_CFG, "output": "x.json"}, ["thm1"], "'output'"),
        ({**_THM2A_CFG, "probes": [[5, 0]]}, ["thm2", "--part", "a"], "'probes'"),
        ({**_THM2A_CFG, "jobs": 2}, ["thm2", "--part", "a"], "'jobs'"),
        (_THM2A_CFG, ["thm2", "--part", "a", "--seed", "3"], "--seed"),
        ({**_THM2B_CFG, "trials": 5}, ["thm2", "--part", "b"], "'trials'"),
        ({**_THM2B_CFG, "scheme": {"kind": "rho"}}, ["thm2", "--part", "b"], "'scheme'"),
        (_THM2B_CFG, ["thm2", "--part", "b", "--phi", "rho"], "--phi"),
        (None, ["thm2", "--part", "a", "--phi", "rho", "--probes", "5:0", "--expectation", "bounded"],
         "--phi, --probes, --expectation"),
        (None, ["thm2", "--part", "b", "--p", "1", "--resolution", "8"], "'p_list' entry 1"),
        (None, ["thm2", "--part", "a", "--resolution", "8", "--scales", "5"], "two distinct scales"),
        (None, ["thm2", "--part", "b", "--resolution", "8", "--scales", "4..6", "--probes", "5:0"],
         "'scales' and 'probes'"),
        # Non-integer entries are rejected, never truncated.
        ({**_THM1_CFG, "support_levels": [3.7, 4.2]}, ["thm1"], "'support_levels' entries"),
        ({**_THM1_CFG, "support_levels": ["3", 4]}, ["thm1"], "'support_levels' entries"),
        ({**_THM2A_CFG, "scales": [4, 5.5]}, ["thm2", "--part", "a"], "'scales' entries"),
        ({**_THM2B_CFG, "scales": [4.9, 5]}, ["thm2", "--part", "b"], "'scales' entries"),
        ({"p_list": ["1/2"], "resolution": 8, "probes": [[5.5, 0]]}, ["thm2", "--part", "b"], "'probes'"),
        ({"p_list": ["1/2"], "resolution": 8, "probes": [[5, 0.5]]}, ["thm2", "--part", "b"], "'probes'"),
        ({"p_list": ["1/2"], "resolution": 8, "probes": [[5, 0, 1]]}, ["thm2", "--part", "b"], "'probes'"),
        ({**_THM1_CFG, "support_levels": [True, 4]}, ["thm1"], "'support_levels' entries"),
        ({**_THM1_CFG, "trials": True}, ["thm1"], "'trials' must be an integer"),
        # An empty range is rejected, never read as the default.
        (None, ["thm1", "--levels", "5..4", "--trials", "1"], "--levels"),
        (None, ["thm2", "--part", "a", "--scales", "5..4"], "--scales"),
        # A non-finite table weight (JSON NaN) fails validation, not mid-run.
        ({**_THM2B_CFG, "scheme": {"kind": "table", "values": {"1": 1.0, "2": float("nan")}}},
         ["thm2", "--part", "b"], "at n=2 is not finite"),
        # An exponent with a zero denominator is bad input on every path.
        (None, ["thm1", "--p", "1/0", "--levels", "3", "--trials", "1"], "zero denominator"),
        (None, ["thm2", "--part", "a", "--p", "1/0", "--resolution", "8"], "zero denominator"),
        (None, ["thm2", "--part", "b", "--p", "1/0", "--resolution", "8"], "zero denominator"),
        (None, ["corollaries", "--p", "1/0", "--resolution", "6", "--trials", "1"], "zero denominator"),
        ({**_THM2B_CFG, "scheme": {"kind": "rho", "p": "1/0"}}, ["thm2", "--part", "b"], "zero denominator"),
        # The float gates take finite numbers only, checked before any trial runs.
        ({**_THM1_CFG, "ratio_cap": "abc"}, ["thm1"], "'ratio_cap' must be a finite number"),
        ({**_THM1_CFG, "ratio_cap": float("nan")}, ["thm1"], "'ratio_cap' must be a finite number"),
        ({**_THM2A_CFG, "slope_fraction": None}, ["thm2", "--part", "a"], "'slope_fraction' must be"),
        ({**_THM2B_CFG, "growth_floor": "x"}, ["thm2", "--part", "b"], "'growth_floor' must be"),
        ({**_THM2B_CFG, "band_cap": True}, ["thm2", "--part", "b"], "'band_cap' must be"),
        ({**_THM2B_CFG, "band_cap": float("inf")}, ["thm2", "--part", "b"], "'band_cap' must be"),
        # Flags pass the config check a file does.
        (None, ["thm1", "--p", "abc", "--levels", "3", "--trials", "1"], "'p_list' entry 'abc'"),
        (None, ["thm2", "--part", "b", "--phi", "rho", "--p", "abc"], "'p_list' entry 'abc'"),
        # A repeated level or scale is an error, never a duplicated case.
        (None, ["thm1", "--levels", "3,3", "--trials", "1"], "'support_levels' entries must be distinct"),
        (None, ["thm2", "--part", "a", "--scales", "3,3,4"], "'scales' entries must be distinct"),
        (None, ["thm2", "--part", "b", "--scales", "4,4,5"], "'scales' entries must be distinct"),
        # So is a repeated exponent, however it is spelled.
        (None, ["thm1", "--p", "1/2", "--p", "1/2", "--levels", "3..4", "--trials", "2"],
         "'p_list' entry '1/2' repeats the exponent 1/2"),
        (None, ["thm2", "--part", "a", "--p", "1/2", "--p", "0.5", "--resolution", "8"],
         "'p_list' entry '0.5' repeats the exponent 1/2"),
        # Every scale is checked before any runs, against the group's cap too.
        (None, ["thm2", "--part", "a", "--resolution", "26", "--scales", "3,17,25"],
         "'scales' must lie within [1, 23]"),
        (None, ["thm2", "--part", "b", "--resolution", "8", "--scales", "0,4"], "'scales' must lie within [1, 7]"),
        # Trial seeds are masked to 64 bits, so a seed outside [0, 2^64) would repeat another's cases.
        (None, ["thm1", "--levels", "3", "--trials", "1", "--seed", "-1"], "'seed' must be an integer in [0, 2^64)"),
        ({**_THM2A_CFG, "seed": 2**64}, ["thm2", "--part", "a"], "'seed' must be an integer in [0, 2^64)"),
        (None, ["corollaries", "--resolution", "8", "--trials", "1", "--seed", "-1"], "seed in [0, 2^64)"),
        ({**_THM1_CFG, "extra_resolution": 0}, ["thm1"], "'extra_resolution' must be >= 1"),
    ],
)
def test_unread_fields_and_flags_exit_2(tmp_path, capsys, config, argv, named):
    # Each experiment reads only its own fields and flags; anything else is
    # a usage error that names it, never silently ignored.
    argv = [*argv, "--output", str(tmp_path / "r.json")]
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        argv += ["--config", str(cfg)]
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects a flag's value itself
        code = exc.code
    assert code == 2
    err = capsys.readouterr().err
    assert named in err and "Traceback" not in err
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("name", ["sub/../../escape", "a\\b", ["x"], None])
def test_config_name_cannot_steer_the_output_path(tmp_path, monkeypatch, capsys, name):
    # Without --output the report goes to walshlab-<name>.json in the working directory.
    work = tmp_path / "sub" / "work"
    work.mkdir(parents=True)
    monkeypatch.chdir(work)
    (work / "cfg.json").write_text(json.dumps({**_THM1_CFG, "name": name}))
    assert main(["thm1", "--config", "cfg.json"]) == 2
    err = capsys.readouterr().err
    assert "'name' must be a string" in err and "Traceback" not in err
    assert sorted(str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*")) == [
        "sub", "sub/work", "sub/work/cfg.json"]


def test_thm2_both_checks_part_b_before_running_part_a(tmp_path, capsys):
    # Part a's config is valid and part b's is not: nothing may run or be written.
    out = tmp_path / "t.json"
    assert main(["thm2", "--part", "both", "--resolution", "8", "--scales", "4..6",
                 "--probes", "5:0", "--output", str(out)]) == 2
    captured = capsys.readouterr()
    assert "'scales' and 'probes'" in captured.err and "Traceback" not in captured.err
    assert "sharpness-growth" not in captured.out
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv",
    [
        ["thm1", "--p", "1/2", "--levels", "3..4", "--trials", "3", "--seed", "5", "--jobs", "2"],
        ["thm2", "--part", "a", "--p", "1/2", "--p", "1/3", "--resolution", "8"],
        ["thm2", "--part", "b", "--resolution", "9", "--phi", "unit"],
        ["thm2", "--part", "b", "--resolution", "9", "--phi", "rho", "--seed", "2"],
    ],
)
def test_report_config_replays(tmp_path, argv):
    # A report's config, fed back through --config, reproduces every data file.
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    code = main([*argv, "--output", str(first)])
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(json.loads(first.read_text())["config"]))
    part = argv[1:3] if argv[0] == "thm2" else []
    assert main([argv[0], *part, "--config", str(cfg), "--output", str(second)]) == code
    for suffix in (".json", ".cases.csv", ".series.tsv"):
        assert first.with_suffix(suffix).read_bytes() == second.with_suffix(suffix).read_bytes()


def test_jobs_is_a_run_setting(tmp_path):
    # --jobs overrides the config, even back to 1, and goes to the sidecar only.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**_THM1_CFG, "jobs": 2}))
    out = tmp_path / "t.json"
    assert main(["thm1", "--config", str(cfg), "--jobs", "1", "--output", str(out)]) == 0
    assert json.loads((tmp_path / "t.meta.json").read_text())["jobs"] == 1
    assert "jobs" not in json.loads(out.read_text())["config"]
    cor = tmp_path / "cor.json"
    assert main(["corollaries", "--resolution", "8", "--trials", "5", "--seed", "1",
                 "--jobs", "1", "--output", str(cor)]) == 0
    assert json.loads((tmp_path / "cor.meta.json").read_text())["jobs"] == 1
    data_files = [p for p in tmp_path.iterdir() if p.name.startswith("cor") and ".meta" not in p.name]
    assert sorted(p.name for p in data_files) == ["cor.cases.csv", "cor.json"]
    assert all("jobs" not in p.read_text() for p in data_files)
