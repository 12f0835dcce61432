import csv
import json
import os

import pytest

from mdaccel.cli import ConfigError, load_config, main

BASE_CONFIG = """
[surface]
name = double_well_1d

[dynamics]
beta = 2.0
dt = 5e-3

[state]
kind = basin-of-attraction
scan_box = -2 2
start = -1.0

[method]
name = direct

[run]
horizon = 200
seed = 7
"""


def write_config(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def read_bytes(d, name):
    with open(os.path.join(d, name), "rb") as f:
        return f.read()


def test_rerun_is_byte_identical(tmp_path):
    cfg = write_config(tmp_path, BASE_CONFIG)
    out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["run", cfg, "--out", out_a]) == 0
    assert main(["run", cfg, "--out", out_b]) == 0
    for name in ("events.csv", "trajectory.csv", "summary.json", "manifest.json"):
        assert read_bytes(out_a, name) == read_bytes(out_b, name)
    summary = json.loads(read_bytes(out_a, "summary.json"))
    assert summary["n_events"] >= 5
    assert summary["clock"] >= 200.0
    manifest = json.loads(read_bytes(out_a, "manifest.json"))
    assert manifest["seed"] == 7
    assert len(manifest["config_sha256"]) == 64


def test_seed_override_changes_events(tmp_path):
    cfg = write_config(tmp_path, BASE_CONFIG)
    out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["run", cfg, "--out", out_a]) == 0
    assert main(["run", cfg, "--out", out_b, "--seed", "8"]) == 0
    assert read_bytes(out_a, "events.csv") != read_bytes(out_b, "events.csv")


def test_unknown_key_rejected_without_outputs(tmp_path, capsys):
    bad = BASE_CONFIG.replace("name = double_well_1d",
                              "name = double_well_1d\nwarp_factor = 9")
    cfg = write_config(tmp_path, bad, name="bad.ini")
    out = str(tmp_path / "never")
    assert main(["run", cfg, "--out", out]) == 2
    assert "warp_factor" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_missing_section_rejected(tmp_path):
    cfg = write_config(tmp_path, BASE_CONFIG.replace("[run]", "[rum]"), name="c.ini")
    with pytest.raises(ConfigError):
        load_config(cfg)


def test_compare_run_with_itself_passes(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE_CONFIG)
    out = str(tmp_path / "a")
    assert main(["run", cfg, "--out", out]) == 0
    assert main(["compare", out, out]) == 0
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["pass"] is True
    assert verdict["ks_residence_pvalue"] == pytest.approx(1.0)


@pytest.mark.slow
def test_compare_direct_vs_parrep_passes(tmp_path, capsys):
    cfg_d = write_config(tmp_path, BASE_CONFIG, name="direct.ini")
    parrep = BASE_CONFIG.replace(
        "name = direct",
        "name = parrep\nn_replicas = 4\ntau_corr = 0.05").replace(
        "seed = 7", "seed = 11")
    cfg_p = write_config(tmp_path, parrep, name="parrep.ini")
    out_d, out_p = str(tmp_path / "d"), str(tmp_path / "p")
    assert main(["run", cfg_d, "--out", out_d]) == 0
    assert main(["run", cfg_p, "--out", out_p]) == 0
    assert main(["compare", out_d, out_p]) == 0
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["pass"] is True


def test_compare_detects_broken_clock(tmp_path, capsys):
    # negative control: dividing every residence time by 8 must fail
    cfg = write_config(tmp_path, BASE_CONFIG)
    out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["run", cfg, "--out", out_a]) == 0
    assert main(["run", cfg, "--out", out_b]) == 0
    events = os.path.join(out_b, "events.csv")
    with open(events, newline="") as f:
        rows = list(csv.reader(f))
    i = rows[0].index("residence_time")
    for row in rows[1:]:
        row[i] = repr(float(row[i]) / 8.0)
    with open(events, "w", newline="") as f:
        csv.writer(f).writerows(rows)
    assert main(["compare", out_a, out_b]) == 1
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["pass"] is False
    assert verdict["ks_residence_pvalue"] < 0.01


@pytest.mark.parametrize("old, new, key", [
    ("horizon = 200", "horizon = 2e3x", "[run] horizon"),
    ("name = direct", "name = parrep\nn_replicas = eight", "[method] n_replicas"),
    ("name = direct", "name = parrep\ntau_corr = adaptive", "[method] tau_corr"),
    ("kind = basin-of-attraction\nscan_box = -2 2",
     "kind = core-set\nregions = -1.5 -0.5; -0.8 1.0", "[state] regions"),
    ("kind = basin-of-attraction\nscan_box = -2 2",
     "kind = core-set\nregions = -0.7 -1.3; 0.7 1.3", "[state] regions"),
], ids=["horizon", "n_replicas", "tau_corr", "overlapping_regions", "empty_region"])
def test_malformed_value_is_a_config_error(tmp_path, capsys, old, new, key):
    cfg = write_config(tmp_path, BASE_CONFIG.replace(old, new), name="bad.ini")
    out = str(tmp_path / "never")
    assert main(["run", cfg, "--out", out]) == 2
    err = capsys.readouterr().err
    assert key in err
    if "adaptive" in new:
        assert "command line" in err
    assert not os.path.exists(out)


def test_fleming_viot_reuse_dephasing_runs_and_reruns_byte_identical(tmp_path):
    fv = BASE_CONFIG.replace(
        "name = direct",
        "name = parrep\nn_replicas = 4\ntau_corr = 0.05\ndephasing = fleming-viot-reuse").replace(
        "horizon = 200", "horizon = 50")
    cfg = write_config(tmp_path, fv, name="fv.ini")
    out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["run", cfg, "--out", out_a]) == 0
    assert main(["run", cfg, "--out", out_b]) == 0
    for name in ("events.csv", "trajectory.csv", "summary.json", "manifest.json"):
        assert read_bytes(out_a, name) == read_bytes(out_b, name)
    assert json.loads(read_bytes(out_a, "summary.json"))["n_events"] >= 2


def test_tad_run_scans_critical_points_once(tmp_path, monkeypatch):
    from mdaccel import cli, potentials, statemap

    calls = []
    scan = potentials.find_critical_points

    def counting(*args, **kwargs):
        calls.append(args)
        return scan(*args, **kwargs)

    for module in (potentials, statemap, cli):
        monkeypatch.setattr(module, "find_critical_points", counting)
    tad = BASE_CONFIG.replace("double_well_1d", "triple_well_1d").replace(
        "scan_box = -2 2\nstart = -1.0", "scan_box = -2 2\nstart = 0.0").replace(
        "name = direct", "name = tad\nbeta_hi = 1.5\nmin_prefactor = 1.0").replace(
        "horizon = 200", "horizon = 5")
    cfg = write_config(tmp_path, tad, name="tad.ini")
    assert main(["run", cfg, "--out", str(tmp_path / "t")]) == 0
    assert len(calls) == 1
