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


def test_report_rendering(tmp_path):
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
