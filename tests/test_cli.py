import contextlib
import dataclasses
import gc
import io
import json
import math
import re
import shutil
import tempfile
import time
import tracemalloc
import warnings
from pathlib import Path
from typing import Optional, get_type_hints
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from concm.attributes import load_semantic_embeddings
from concm.autodiff import zero_norm_rows
from concm.cli import _setup_logging, main
from concm.data import load_config, load_features, load_manifest
from concm.errors import SchemaError, ValidationError
from concm.metrics import RunReport, SessionRecord, report_from_json
from concm.calibration import meta_train
from concm.session import SessionConfig, load_inputs, run_pipeline
from concm.synth import GenConfig


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


FEATURE_FILES = ("base.csv", "session_01.csv", "session_02.csv",
                 "test_00.csv", "test_01.csv", "test_02.csv")


@settings(max_examples=50, deadline=None)
@given(target=st.sampled_from(FEATURE_FILES), line=st.integers(0, 10 ** 6),
       mantissa=st.floats(1.0, 9.99), exponent=st.integers(-330, 308),
       one_entry=st.booleans())
@example(target="test_00.csv", line=0, mantissa=1.0, exponent=-13,
         one_entry=True)
@example(target="session_01.csv", line=0, mantissa=1.0, exponent=-170,
         one_entry=False)
@example(target="test_00.csv", line=0, mantissa=1.0, exponent=154,
         one_entry=False)
@example(target="session_01.csv", line=0, mantissa=1.0, exponent=200,
         one_entry=False)
@example(target="session_01.csv", line=0, mantissa=2.0, exponent=308,
         one_entry=False)
@example(target="base.csv", line=0, mantissa=1.0, exponent=30, one_entry=False)
@example(target="base.csv", line=0, mantissa=1.0, exponent=100, one_entry=False)
@example(target="base.csv", line=0, mantissa=1.0, exponent=150, one_entry=False)
@example(target="base.csv", line=0, mantissa=1.0, exponent=30, one_entry=True)
@example(target="base.csv", line=0, mantissa=1.0, exponent=100, one_entry=True)
@example(target="base.csv", line=0, mantissa=1.0, exponent=150, one_entry=True)
def test_tiny_feature_row_runs_or_is_rejected_at_load(dataset, target, line,
                                                      mantissa, exponent,
                                                      one_entry):
    # a feature row scaled toward zero or toward overflow, in any feature
    # file and line: either the loader rejects it at path:line, as zero-norm
    # or, where the scaling itself overflows to inf, as non-finite, or the
    # whole run completes; no session fails on it later
    lines = (dataset / "data" / target).read_text().splitlines()
    at = 1 + line % (len(lines) - 1)
    fields = lines[at].split(",")
    scale = float(f"{mantissa!r}e{exponent}")
    row = [scale] + [0.0] * (len(fields) - 3) if one_entry \
        else [float(v) * scale for v in fields[2:]]
    lines[at] = ",".join(fields[:2] + [repr(v) for v in row])
    config = load_config(SessionConfig, dataset / "run_cfg.json")
    config = dataclasses.replace(config, epochs_base=1, epochs_incremental=1,
                                 meta_episodes=2, n_aug_base=8, n_aug_novel=4)
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "data"
        shutil.copytree(dataset / "data", root)
        path = root / target
        path.write_text("\n".join(lines) + "\n")
        zero = zero_norm_rows(np.array([row])).size == 1
        try:
            inputs = load_inputs(load_manifest(root / "manifest.json"), config)
        except SchemaError as exc:
            assert zero
            assert re.match(re.escape(f"{path}:{at + 1}: ") +
                            "((all-zero|zero-norm) feature row"
                            "|feature row norm overflows|non-finite value)",
                            str(exc))
            return
        assert not zero
        assert len(run_pipeline(inputs).report.sessions) == 3


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


# entries near sqrt(DBL_MAX / 8): np.einsum's sum of their squares stays
# finite while (x * x).sum's overflows to +inf
DRIFTED_ROW = [4.740375954054591e+153, 4.7403759540545835e+153,
               4.740375954054593e+153, 4.740375954054574e+153,
               4.740375954054573e+153, 4.740375954054599e+153,
               4.7403759540546e+153, 4.740375954054591e+153]


def test_row_at_the_edge_of_overflow_exits_1_at_load(tmp_path, capsys):
    # the loader and the projector take one row norm, so a base row whose
    # sum of squares overflows fails at load, before any meta-training
    # episode, rather than as a zero-norm projected row after it
    gen = tmp_path / "gen.json"
    gen.write_text(json.dumps(dict(
        base_classes=4, sessions=1, way=2, shot=2, d_f=8, d_s=6, pool_size=6,
        attrs_per_class=2, base_samples=6, test_samples=3)))
    data = tmp_path / "data"
    assert main(["gen", "--config", str(gen), "--out", str(data)]) == 0
    base = data / "base.csv"
    lines = base.read_text().splitlines()
    lines[1:] = [",".join(line.split(",")[:2] + [repr(v) for v in DRIFTED_ROW])
                 if line.startswith("0,") else line for line in lines[1:]]
    base.write_text("\n".join(lines) + "\n")
    config = tmp_path / "run.json"
    config.write_text(json.dumps(dict(
        base_classes=4, sessions=1, way=2, shot=2, d_g=8, batch_size=8,
        epochs_base=1, epochs_incremental=1, meta_episodes=2, meta_shots=2,
        n_aug_base=4, n_aug_novel=3)))
    episodes = []
    with patch("concm.session.meta_train",
               lambda *a, **k: episodes.append(k["episodes"]) or
               meta_train(*a, **k)):
        rc = main(["run", "--manifest", str(data / "manifest.json"),
                   "--config", str(config), "--out", str(tmp_path / "o")])
    assert episodes == []
    assert rc == 1
    assert _error_message(capsys.readouterr().err).startswith(
        f"{base}:2: feature row norm overflows")


@pytest.mark.parametrize("target", ["test_02.csv", "semantic.csv"])
def test_run_non_utf8_input_is_validation_error_with_line(dataset, tmp_path,
                                                          target, capsys):
    data = tmp_path / "data"
    shutil.copytree(dataset / "data", data)
    path = data / target
    lines = path.read_bytes().split(b"\n")
    lines[2] = lines[2][:5] + b"\xff" + lines[2][5:]
    path.write_bytes(b"\n".join(lines))
    rc = main(["run", "--manifest", str(data / "manifest.json"),
               "--config", str(dataset / "run_cfg.json"),
               "--out", str(tmp_path / "o")])
    assert rc == 1
    assert _error_message(capsys.readouterr().err).startswith(
        f"{path}:3: not UTF-8")


def test_repeated_in_process_runs_close_their_logs(dataset, tmp_path):
    cfg = json.loads((dataset / "run_cfg.json").read_text())
    cfg.update(epochs_base=1, epochs_incremental=1, meta_episodes=2)
    p = tmp_path / "c.json"
    p.write_text(json.dumps(cfg))
    args = ["run", "--manifest", str(dataset / "data" / "manifest.json"),
            "--config", str(p)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        assert main(args + ["--out", str(tmp_path / "a")]) == 0
        assert main(args + ["--out", str(tmp_path / "b")]) == 0
        _setup_logging()  # replaces the second run's log handler
        gc.collect()
    assert [w for w in caught if w.category is ResourceWarning] == []


def test_gen_huge_pool_rejected_at_once(tmp_path):
    p = tmp_path / "g.json"
    p.write_text(json.dumps({"pool_size": 4000000, "attrs_per_class": 2000000}))
    start = time.perf_counter()
    assert main(["gen", "--config", str(p), "--out", str(tmp_path / "g")]) == 1
    assert time.perf_counter() - start < 1.0
    assert not (tmp_path / "g").exists()


@pytest.mark.parametrize("field,value", [("d_f", 10_000_000_000_000),
                                         ("base_samples", 100_000_000_000)])
def test_gen_huge_size_rejected_at_once(tmp_path, capsys, field, value):
    p = tmp_path / "g.json"
    p.write_text(json.dumps({field: value}))
    tracemalloc.start()
    start = time.perf_counter()
    try:
        assert main(["gen", "--config", str(p), "--out", str(tmp_path / "g")]) == 1
        elapsed = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert elapsed < 1.0
    assert peak < 1 << 20
    assert not (tmp_path / "g").exists()
    assert _error_message(capsys.readouterr().err).startswith(
        f"{p}: {field} = {value} ")


def test_memory_error_is_a_json_error_record(tmp_path, capsys, monkeypatch):
    def exhausted(cfg):
        raise MemoryError("Unable to allocate 437. TiB")

    monkeypatch.setattr("concm.cli.generate_benchmark", exhausted)
    assert main(["gen", "--out", str(tmp_path / "g")]) == 2
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record == {"error": "MemoryError",
                      "message": "Unable to allocate 437. TiB"}


def test_report_missing_field_names_it(tmp_path, capsys):
    p = tmp_path / "r.json"
    p.write_text(json.dumps({"sessions": [], "ahm": 1, "fa": 2, "pd": 3}))
    assert main(["report", str(p)]) == 1
    err = capsys.readouterr().err
    assert "base_acc" in err


def report_obj():
    """A well-formed report object of a base and one incremental session."""
    rec = dict(t=0, top1=80.0, bacc=80.0, nacc=None, hm=None, ber=None,
               smr=1.0, sim_cls=0.1, sim_in=0.9)
    return {"sessions": [rec, dict(rec, t=1, nacc=60.0, hm=68.5, ber=20.0)],
            "ahm": 68.5, "fa": 70.0, "pd": 10.0, "base_acc": 80.0,
            "strategy": "concm", "seed": 0}


@pytest.mark.parametrize("record,field,value", [
    (1, "top1", "x"), (None, "ahm", "12"), (0, "bacc", [1, 2]),
    (None, "fa", True), (1, "t", 1.0), (0, "smr", math.nan)])
def test_report_figures_checked_at_load(tmp_path, capsys, record, field, value):
    # a figure of the wrong type is a validation error naming the file,
    # the record and the field, not a crash or a printed table
    obj = report_obj()
    (obj if record is None else obj["sessions"][record])[field] = value
    p = tmp_path / "r.json"
    p.write_text(json.dumps(obj))
    assert main(["report", str(p)]) == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    where = "report" if record is None else f"session record {record}"
    assert err["error"] == "SchemaError"
    assert err["message"].startswith(f"{p}: {where} field {field!r} must be")


@pytest.fixture(scope="module")
def run_outputs(dataset):
    """A run's report.json object, report.csv text and printed table."""
    out = dataset / "figures"
    table = io.StringIO()
    with contextlib.redirect_stdout(table):
        assert main(["run", "--manifest",
                     str(dataset / "data" / "manifest.json"), "--config",
                     str(dataset / "run_cfg.json"), "--out", str(out)]) == 0
    return (json.loads((out / "report.json").read_text()),
            (out / "report.csv").read_text(), table.getvalue())


# what each figure annotation asks for, and a value besides a string that
# breaks it
_RULE_AND_MISS = {int: ("an int", 1.0), float: ("a finite number", None),
                  Optional[float]: ("a finite number or null", math.inf)}
_SESSION_FIGURES = [f.name for f in dataclasses.fields(SessionRecord)]


@pytest.mark.parametrize("cls,name", [
    *((SessionRecord, name) for name in _SESSION_FIGURES),
    *((RunReport, name) for name in ("ahm", "fa", "pd", "base_acc"))])
def test_every_report_figure_is_written_and_checked(run_outputs, tmp_path,
                                                    capsys, cls, name):
    # a figure's field puts it in report.json and, for a session figure, in
    # its place among the CSV and table columns; its annotation is the rule
    # that `concm report` checks, and the rejection says that rule in full
    obj, csv, table = run_outputs
    if cls is RunReport:
        assert name in obj
    else:
        assert all(name in rec for rec in obj["sessions"])
        column = _SESSION_FIGURES.index(name)
        assert csv.splitlines()[0].split(",")[column] == name
        assert table.splitlines()[0].split()[column] == \
            ("session" if name == "t" else name)
    want, miss = _RULE_AND_MISS[get_type_hints(cls)[name]]
    where = "report" if cls is RunReport else "session record 1"
    p = tmp_path / "r.json"
    for value in ("x", miss):
        bad = report_obj()
        (bad if cls is RunReport else bad["sessions"][1])[name] = value
        p.write_text(json.dumps(bad))
        assert main(["report", str(p)]) == 1
        assert _error_message(capsys.readouterr().err) == \
            f"{p}: {where} field {name!r} must be {want}, got {value!r}"


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


def _drop_lines(path: Path, prefix: str) -> None:
    lines = path.read_text().splitlines()
    path.write_text("\n".join(l for l in lines if not l.startswith(prefix)) + "\n")


def _drop_class(path: Path, name: str) -> None:
    obj = json.loads(path.read_text())
    del obj["classes"][name]
    path.write_text(json.dumps(obj))


def _empty_class(path: Path, name: str) -> None:
    obj = json.loads(path.read_text())
    obj["classes"][name] = []
    path.write_text(json.dumps(obj))


def _sixth_shot(path: Path, name: str) -> None:
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines + [lines[1]]) + "\n")


def _five_rows(path: Path, name: str) -> None:
    lines = path.read_text().splitlines()
    rows = [i for i, line in enumerate(lines) if f",{name}," in line]
    path.write_text("\n".join(line for i, line in enumerate(lines)
                              if i not in rows[5:]) + "\n")


def _unseen_test_class(path: Path, name: str) -> None:
    path.write_text(path.read_text().replace(",class_08,", f",{name},"))


def _cut_column(path: Path, name: str) -> None:
    lines = path.read_text().splitlines()
    path.write_text("\n".join(line.rsplit(",", 1)[0] for line in lines) + "\n")


# (file, edit, argument, exit code, error message); the CLI data
# set has base classes class_00..05, then class_06..08 and class_09..11
INPUT_FAULTS = {
    "class embedding": ("semantic.csv", _drop_lines, "class_07,", 1,
                        "{path}: no embedding for the classes or base-class "
                        "attributes ['class_07']"),
    "base attribute embedding": ("semantic.csv", _drop_lines, "attr_00,", 1,
                                 "{path}: no embedding for the classes or "
                                 "base-class attributes ['attr_00']"),
    "attribute list": ("attributes.json", _drop_class, "class_10", 1,
                       "{path}: no attribute list for classes ['class_10']"),
    # a novel class may have none, a base class may not: no pool attribute
    # could calibrate it
    "empty base attribute list": ("attributes.json", _empty_class, "class_01",
                                  1, "{path}: empty attribute list for base "
                                  "classes ['class_01']"),
    "sixth shot": ("session_02.csv", _sixth_shot, None, 2,
                   "session 2 must have exactly 5 shots per class, "
                   "got [6, 5, 5]"),
    "unseen test class": ("test_01.csv", _unseen_test_class, "class_10", 2,
                          "evaluation classes never seen: ['class_10']"),
    # meta-training draws meta_shots = 5 rows of a base class and needs
    # one more than that
    "five base rows": ("base.csv", _five_rows, "class_02", 1,
                       "meta_shots = 5 needs more base samples per class; "
                       "class 'class_02' has 5"),
    # every feature file has base's width, d_f = 24
    "narrow session file": ("session_01.csv", _cut_column, None, 1,
                            "{path}:1: 23 features per row, {base} has 24"),
    "narrow test file": ("test_01.csv", _cut_column, None, 1,
                         "{path}:1: 23 features per row, {base} has 24"),
}


@pytest.mark.parametrize("fault", sorted(INPUT_FAULTS))
def test_input_faults_stop_the_run_before_training(dataset, tmp_path, fault,
                                                   capsys):
    # a gap between the feature files and the semantic inputs is a
    # validation error naming the semantic or attributes file, and so is a
    # base class too small for meta_shots; a protocol fault in any session
    # is a runtime error; all before any training
    target, edit, arg, code, message = INPUT_FAULTS[fault]
    data = tmp_path / "data"
    shutil.copytree(dataset / "data", data)
    edit(data / target, arg)
    trained = []
    with patch("concm.session.meta_train",
               lambda *a, **k: trained.append("meta_train")), \
            patch("concm.session.train_projector",
                  lambda *a, **k: trained.append("train_projector")):
        rc = main(["run", "--manifest", str(data / "manifest.json"),
                   "--config", str(dataset / "run_cfg.json"),
                   "--out", str(tmp_path / "o")])
    assert trained == []
    assert rc == code
    assert _error_message(capsys.readouterr().err) == \
        message.format(path=data / target, base=data / "base.csv")


def test_one_class_base_test_file_runs_with_null_sim_cls(dataset, tmp_path):
    # one evaluated class has no between-class similarity: the record says
    # null, and the run goes on
    data = tmp_path / "data"
    shutil.copytree(dataset / "data", data)
    test_00 = data / "test_00.csv"
    lines = test_00.read_text().splitlines()
    test_00.write_text("\n".join(line for line in lines
                                 if line.startswith(("label,", "0,"))) + "\n")
    rc = main(["run", "--manifest", str(data / "manifest.json"),
               "--config", str(dataset / "run_cfg.json"),
               "--out", str(tmp_path / "o")])
    assert rc == 0
    report = report_from_json((tmp_path / "o" / "report.json").read_text())
    assert report.sessions[0].sim_cls is None
    assert all(r.sim_cls is not None for r in report.sessions[1:])


def test_gen_with_default_config(tmp_path, capsys):
    assert main(["gen", "--out", str(tmp_path / "d")]) == 0
    manifest = json.loads((tmp_path / "d" / "manifest.json").read_text())
    assert len(manifest["sessions"]) == 4  # default benchmark layout
    run_cfg = json.loads((tmp_path / "d" / "config.json").read_text())
    assert run_cfg["d_g"] == 64 and run_cfg["base_classes"] == 10
    capsys.readouterr()


def _error_message(err: str) -> str:
    return json.loads(err.strip().splitlines()[-1])["message"]


@pytest.mark.parametrize("command", ["run", "gen", "report"])
def test_truncated_json_exits_1_with_path_line_col(dataset, tmp_path, command,
                                                   capsys):
    source = dataset / ("run_cfg.json" if command != "gen" else "gen.json")
    bad = tmp_path / "trunc.json"
    bad.write_text(source.read_text()[:25])
    args = {"run": ["run", "--manifest", str(dataset / "data" / "manifest.json"),
                    "--config", str(bad), "--out", str(tmp_path / "o")],
            "gen": ["gen", "--config", str(bad), "--out", str(tmp_path / "g")],
            "report": ["report", str(bad)]}[command]
    assert main(args) == 1
    message = _error_message(capsys.readouterr().err)
    assert re.match(re.escape(str(bad)) + r":\d+:\d+: ", message), message


@pytest.mark.parametrize("key,value", [
    ("epochs_base", "30"), ("batch_size", 1), ("epochs_base", -1),
    ("n_aug_novel", 0), ("meta_shots", 0), ("warmup_steps", -1),
    ("lr_projector", float("nan")), ("d_g", 64.5), ("seed", 1.5),
    ("lr_projector", -0.5), ("lr_calibration", -1.0),
    # no longer a config field: the projector's hidden width is d_f
    ("d_hidden", True),
    # an int beyond the float range in a float field
    pytest.param("tau", 10 ** 400, id="tau-10**400"),
    pytest.param("lr_projector", 10 ** 400, id="lr_projector-10**400"),
    # past the limits table's bounds: each would fail in the first steps
    ("tau", 6e-309), ("tau", 1e-300), ("lr_projector", 1e300),
    ("lr_calibration", 1e300)])
def test_bad_run_config_value_exits_1_before_loading(dataset, tmp_path, key,
                                                     value, capsys):
    cfg = json.loads((dataset / "run_cfg.json").read_text())
    cfg[key] = value
    p = tmp_path / "c.json"
    p.write_text(json.dumps(cfg))
    trained = []
    with patch("concm.session.meta_train",
               lambda *a, **k: trained.append("meta_train")), \
            patch("concm.session.train_projector",
                  lambda *a, **k: trained.append("train_projector")):
        rc = main(["run", "--manifest", str(dataset / "data" / "manifest.json"),
                   "--config", str(p), "--out", str(tmp_path / "o")])
    assert trained == []
    assert rc == 1
    message = _error_message(capsys.readouterr().err)
    assert message.startswith(f"{p}: ") and key in message


def test_tau_whose_reciprocal_overflows_exits_1_before_training(dataset,
                                                                tmp_path,
                                                                capsys):
    # 1 / 1e-310 is inf, so the projector's contrastive loss would be nan
    # at its first step: the config file is rejected before any training,
    # with the limits table's bound
    cfg = json.loads((dataset / "run_cfg.json").read_text())
    cfg["tau"] = 1e-310
    p = tmp_path / "c.json"
    p.write_text(json.dumps(cfg))
    trained = []
    with patch("concm.session.meta_train",
               lambda *a, **k: trained.append("meta_train")), \
            patch("concm.session.train_projector",
                  lambda *a, **k: trained.append("train_projector")):
        rc = main(["run", "--manifest", str(dataset / "data" / "manifest.json"),
                   "--config", str(p), "--out", str(tmp_path / "o")])
    assert trained == []
    assert rc == 1
    assert _error_message(capsys.readouterr().err) == \
        f"{p}: tau = 1e-310 must be >= 1e-30"


def test_gen_float_field_beyond_float_range_exits_1_before_writing(tmp_path,
                                                                   capsys):
    p = tmp_path / "g.json"
    p.write_text(json.dumps(dict(GEN_CFG, noise=10 ** 400)))
    assert main(["gen", "--config", str(p), "--out", str(tmp_path / "g")]) == 1
    assert not (tmp_path / "g").exists()
    assert _error_message(capsys.readouterr().err).startswith(
        f"{p}: noise must be a finite number, got 1000")


# Replacement tokens for one CSV field: malformed numbers, non-finite
# values, a huge label, an embedded separator, an empty field.
_TOKENS = ["nan", "inf", "-Infinity", "1e999", "", "x", "0x1f", "1,2", "-1",
           "9" * 24, "1.5", "0"]


@st.composite
def _mutated_csv(draw, text: str) -> str:
    kind = draw(st.sampled_from(["replace", "drop", "truncate"]))
    if kind == "truncate":
        return text[:draw(st.integers(0, len(text)))]
    lines = text.split("\n")
    i = draw(st.one_of(st.just(0), st.integers(1, len(lines) - 2)))
    fields = lines[i].split(",")
    j = draw(st.one_of(st.sampled_from([0, 1]),
                       st.integers(0, len(fields) - 1)))
    if kind == "drop":
        del fields[j]
    else:
        fields[j] = draw(st.sampled_from(_TOKENS))
    lines[i] = ",".join(fields)
    return "\n".join(lines)


@st.composite
def _mutated_config(draw, obj: dict) -> str:
    kind = draw(st.sampled_from(["set", "delete", "truncate"]))
    obj = dict(obj)
    if kind == "delete":
        del obj[draw(st.sampled_from(sorted(obj)))]
    elif kind == "set":
        key = draw(st.sampled_from(sorted(obj) + ["zzz"]))
        obj[key] = draw(st.one_of(
            st.integers(-3, 3), st.integers(-10 ** 400, 10 ** 400), st.floats(),
            st.text(max_size=3), st.none(), st.booleans(), st.just([1])))
    text = json.dumps(obj)
    if kind == "truncate":
        text = text[:draw(st.integers(0, len(text) - 1))]
    return text


def _check_rejection(load, path: Path, cli_args: list[str]) -> None:
    """A rejection by ``load`` is a ValidationError naming ``path`` first,
    and the CLI given ``cli_args`` exits 1 with the same message."""
    try:
        load(path)
    except ValidationError as exc:
        assert str(exc).startswith(str(path)), str(exc)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert main(cli_args) == 1
        assert _error_message(err.getvalue()) == str(exc)


@pytest.mark.parametrize("target", ["base.csv", "session_02.csv",
                                    "test_01.csv", "semantic.csv"])
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_csv_rejected_at_load_with_path(dataset, target, data):
    text = (dataset / "data" / target).read_text()
    mutated = data.draw(_mutated_csv(text))
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "data"
        shutil.copytree(dataset / "data", root)
        path = root / target
        path.write_text(mutated)
        load = load_semantic_embeddings if target == "semantic.csv" \
            else load_features
        _check_rejection(load, path, [
            "run", "--manifest", str(root / "manifest.json"),
            "--config", str(dataset / "run_cfg.json"),
            "--out", str(Path(tmp) / "o")])


@pytest.mark.parametrize("command", ["run", "gen"])
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_config_rejected_at_load_with_path(dataset, command, data):
    source = dataset / ("run_cfg.json" if command == "run" else "gen.json")
    mutated = data.draw(_mutated_config(json.loads(source.read_text())))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.json"
        path.write_text(mutated)
        out = Path(tmp) / "o"
        if command == "run":
            _check_rejection(lambda p: load_config(SessionConfig, p), path, [
                "run", "--manifest", str(dataset / "data" / "manifest.json"),
                "--config", str(path), "--out", str(out)])
        else:
            _check_rejection(lambda p: load_config(GenConfig, p), path,
                             ["gen", "--config", str(path), "--out", str(out)])
            assert not (out / "manifest.json").exists()


ZERO_SPELLINGS = ("0", "0.0", "-0.0", "0e7", "0.000")


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_all_zero_row_in_any_spelling_exits_1_before_training(dataset, data):
    # whichever feature CSV and data line holds it, and however its zeros
    # are written, an all-zero row is a SchemaError at path:line from the
    # loader, and `concm run` exits 1 with it before any training step
    manifest = json.loads((dataset / "data" / "manifest.json").read_text())
    target = data.draw(st.sampled_from(
        [manifest["base"], *manifest["sessions"], *manifest["tests"]]))
    lines = (dataset / "data" / target).read_text().splitlines()
    at = data.draw(st.integers(1, len(lines) - 1))
    fields = lines[at].split(",")
    zeros = data.draw(st.lists(st.sampled_from(ZERO_SPELLINGS),
                               min_size=len(fields) - 2,
                               max_size=len(fields) - 2))
    lines[at] = ",".join(fields[:2] + zeros)
    trained = []
    with tempfile.TemporaryDirectory() as tmp, \
            patch("concm.session.meta_train",
                  lambda *a, **k: trained.append("meta_train")), \
            patch("concm.session.train_projector",
                  lambda *a, **k: trained.append("train_projector")):
        root = Path(tmp) / "data"
        shutil.copytree(dataset / "data", root)
        path = root / target
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(SchemaError,
                           match=re.escape(f"{path}:{at + 1}: all-zero feature row")):
            load_features(path)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert main(["run", "--manifest", str(root / "manifest.json"),
                         "--config", str(dataset / "run_cfg.json"),
                         "--out", str(Path(tmp) / "o")]) == 1
        assert f"{path}:{at + 1}: all-zero feature row" in err.getvalue()
    assert trained == []
