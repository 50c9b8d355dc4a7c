import json
import shutil

import pytest

from concm.cli import main
from concm.metrics import report_from_json


GEN_CFG = dict(base_classes=6, sessions=2, way=3, shot=5, d_f=24, d_s=8,
               pool_size=8, attrs_per_class=3, base_samples=40,
               test_samples=12, seed=5)


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli-data")
    gen_path = root / "gen.json"
    gen_path.write_text(json.dumps(GEN_CFG))
    assert main(["gen", "--config", str(gen_path), "--out", str(root / "data")]) == 0
    # fast run config for tests
    cfg = json.loads((root / "data" / "config.json").read_text())
    cfg.update(epochs_base=8, epochs_incremental=4, meta_episodes=20,
               batch_size=48)
    (root / "run_cfg.json").write_text(json.dumps(cfg))
    return root


def test_gen_writes_manifest_and_config(dataset, capsys):
    data = dataset / "data"
    manifest = json.loads((data / "manifest.json").read_text())
    assert manifest["base"] == "base.csv"
    assert len(manifest["sessions"]) == 2
    assert len(manifest["tests"]) == 3
    assert (data / "config.json").exists()


def test_gen_same_seed_byte_identical(dataset, tmp_path):
    gen_path = dataset / "gen.json"
    assert main(["gen", "--config", str(gen_path), "--out", str(tmp_path / "again")]) == 0
    for f in sorted((dataset / "data").iterdir()):
        assert f.read_bytes() == (tmp_path / "again" / f.name).read_bytes(), f.name


def test_gen_rejects_infeasible_before_writing(tmp_path):
    bad = dict(GEN_CFG, pool_size=4, attrs_per_class=2)
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(bad))
    out = tmp_path / "never"
    assert main(["gen", "--config", str(p), "--out", str(out)]) == 1
    assert not out.exists()


def test_gen_unknown_key_rejected(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(dict(GEN_CFG, zap=1)))
    assert main(["gen", "--config", str(p), "--out", str(tmp_path / "x")]) == 1


def test_run_and_report(dataset, capsys):
    out = dataset / "run"
    rc = main(["run", "--manifest", str(dataset / "data" / "manifest.json"),
               "--config", str(dataset / "run_cfg.json"), "--out", str(out)])
    assert rc == 0
    assert (out / "report.json").exists()
    assert (out / "report.csv").exists()
    assert (out / "run.log").exists()
    report = report_from_json((out / "report.json").read_text())
    assert len(report.sessions) == 3
    assert report.strategy == "concm"
    capsys.readouterr()

    assert main(["report", str(out / "report.json")]) == 0
    table = capsys.readouterr().out
    assert "AHM" in table and "session" in table


def test_run_deterministic_bytes(dataset):
    args = ["run", "--manifest", str(dataset / "data" / "manifest.json"),
            "--config", str(dataset / "run_cfg.json")]
    assert main(args + ["--out", str(dataset / "r1")]) == 0
    assert main(args + ["--out", str(dataset / "r2")]) == 0
    a = (dataset / "r1" / "report.json").read_bytes()
    b = (dataset / "r2" / "report.json").read_bytes()
    assert a == b


def test_run_seed_flag_overrides(dataset):
    args = ["run", "--manifest", str(dataset / "data" / "manifest.json"),
            "--config", str(dataset / "run_cfg.json")]
    assert main(args + ["--seed", "123", "--out", str(dataset / "rs")]) == 0
    report = report_from_json((dataset / "rs" / "report.json").read_text())
    assert report.seed == 123


def test_run_strategy_flag(dataset):
    args = ["run", "--manifest", str(dataset / "data" / "manifest.json"),
            "--config", str(dataset / "run_cfg.json"), "--strategy", "frozen",
            "--out", str(dataset / "rf")]
    assert main(args) == 0
    report = report_from_json((dataset / "rf" / "report.json").read_text())
    assert report.strategy == "frozen"


def test_exit_codes(dataset, tmp_path, capsys):
    # missing file -> IO error (3)
    assert main(["report", str(tmp_path / "nope.json")]) == 3
    # invalid strategy -> usage error (1)
    assert main(["run", "--manifest", "x", "--strategy", "zzz",
                 "--out", str(tmp_path / "o")]) == 1
    # malformed report -> validation (1): missing required field
    p = tmp_path / "r.json"
    p.write_text("{}")
    assert main(["report", str(p)]) == 1
    # config/manifest session count mismatch -> validation (1)
    cfg = json.loads((dataset / "run_cfg.json").read_text())
    cfg["sessions"] = 7
    p2 = tmp_path / "c.json"
    p2.write_text(json.dumps(cfg))
    rc = main(["run", "--manifest", str(dataset / "data" / "manifest.json"),
               "--config", str(p2), "--out", str(tmp_path / "o2")])
    assert rc == 1
    capsys.readouterr()


@pytest.mark.parametrize("kind", ["base", "sessions", "tests"])
def test_run_all_zero_feature_row_is_validation_error(dataset, tmp_path, kind,
                                                      capsys):
    # rejected at load with file:line, before any training
    data = tmp_path / "data"
    shutil.copytree(dataset / "data", data)
    manifest = json.loads((data / "manifest.json").read_text())
    target = data / (manifest[kind] if kind == "base" else manifest[kind][-1])
    lines = target.read_text().splitlines()
    fields = lines[3].split(",")
    lines[3] = ",".join(fields[:2] + ["0.0"] * (len(fields) - 2))
    target.write_text("\n".join(lines) + "\n")
    rc = main(["run", "--manifest", str(data / "manifest.json"),
               "--config", str(dataset / "run_cfg.json"),
               "--out", str(tmp_path / "o")])
    assert rc == 1
    assert f"{target.name}:4: all-zero feature row" in capsys.readouterr().err


def test_report_missing_field_names_it(tmp_path, capsys):
    p = tmp_path / "r.json"
    p.write_text(json.dumps({"sessions": [], "ahm": 1, "fa": 2, "pd": 3}))
    assert main(["report", str(p)]) == 1
    err = capsys.readouterr().err
    assert "base_acc" in err


def test_run_protocol_violation_is_runtime_error(dataset, tmp_path, capsys):
    # config declares 4 shots but the session files carry 5: detected while
    # executing, so the exit code is the runtime one
    cfg = json.loads((dataset / "run_cfg.json").read_text())
    cfg.update(shot=4, epochs_base=2, meta_episodes=3)
    p = tmp_path / "c.json"
    p.write_text(json.dumps(cfg))
    rc = main(["run", "--manifest", str(dataset / "data" / "manifest.json"),
               "--config", str(p), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "ProtocolViolation" in capsys.readouterr().err


def test_gen_with_default_config(tmp_path, capsys):
    assert main(["gen", "--out", str(tmp_path / "d")]) == 0
    manifest = json.loads((tmp_path / "d" / "manifest.json").read_text())
    assert len(manifest["sessions"]) == 4  # default benchmark layout
    run_cfg = json.loads((tmp_path / "d" / "config.json").read_text())
    assert run_cfg["d_g"] == 64 and run_cfg["base_classes"] == 10
    capsys.readouterr()
