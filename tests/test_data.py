import numpy as np
import pytest

from concm.data import FeatureSet, load_features, load_manifest, save_features
from concm.errors import ParseError, SchemaError


def test_two_row_fixture(tmp_path):
    p = tmp_path / "f.csv"
    p.write_text("label,class_name,f0,f1\n0,cat,1.5,-2.0\n1,dog,0.25,3.0\n")
    fs = load_features(p)
    assert fs.n_samples == 2
    assert fs.class_names == ("cat", "dog")
    np.testing.assert_array_equal(fs.features, [[1.5, -2.0], [0.25, 3.0]])


def test_round_trip_preserves_floats_exactly(tmp_path):
    gen = np.random.default_rng(0)
    fs = FeatureSet(features=gen.standard_normal((7, 5)) * 1e3,
                    labels=np.array([0, 0, 1, 1, 2, 2, 2]),
                    class_names=("a", "b", "c"))
    path = tmp_path / "rt.csv"
    save_features(fs, path)
    back = load_features(path)
    assert np.array_equal(back.features, fs.features)
    assert np.array_equal(back.labels, fs.labels)
    assert back.class_names == fs.class_names


def test_truncated_row_is_rejected_atomically(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("label,class_name,f0,f1\n0,cat,1.0,2.0\n1,dog,3.0\n")
    with pytest.raises(SchemaError):
        load_features(p)


def test_bad_header(tmp_path):
    p = tmp_path / "h.csv"
    p.write_text("label,name,f0\n0,x,1.0\n")
    with pytest.raises(ParseError):
        load_features(p)


def test_non_numeric_value_reports_line(tmp_path):
    p = tmp_path / "n.csv"
    p.write_text("label,class_name,f0\n0,x,1.0\n1,y,oops\n")
    with pytest.raises(ParseError, match=":3:"):
        load_features(p)


def test_labels_must_be_contiguous(tmp_path):
    p = tmp_path / "g.csv"
    p.write_text("label,class_name,f0\n0,x,1.0\n2,z,2.0\n")
    with pytest.raises(SchemaError):
        load_features(p)


def test_label_name_conflict(tmp_path):
    p = tmp_path / "c.csv"
    p.write_text("label,class_name,f0\n0,x,1.0\n0,y,2.0\n")
    with pytest.raises(SchemaError):
        load_features(p)


def test_manifest_resolves_relative_paths(tmp_path):
    (tmp_path / "m.json").write_text(
        '{"base": "b.csv", "sessions": ["s1.csv"], "attributes": "a.json",'
        ' "semantic": "s.csv", "tests": ["t0.csv", "t1.csv"]}')
    m = load_manifest(tmp_path / "m.json")
    assert m.base == tmp_path / "b.csv"
    assert m.sessions == [tmp_path / "s1.csv"]
    assert m.tests == [tmp_path / "t0.csv", tmp_path / "t1.csv"]
    assert m.truth is None


def test_manifest_missing_key(tmp_path):
    (tmp_path / "m.json").write_text('{"base": "b.csv", "sessions": []}')
    with pytest.raises(SchemaError, match="attributes"):
        load_manifest(tmp_path / "m.json")


def test_manifest_bad_json_reports_location(tmp_path):
    (tmp_path / "m.json").write_text('{"base": ')
    with pytest.raises(ParseError):
        load_manifest(tmp_path / "m.json")


@pytest.mark.parametrize("row", ["0.0,0.0", "-0.0,0.0"])
def test_all_zero_row_rejected_with_line(tmp_path, row):
    p = tmp_path / "z.csv"
    p.write_text(f"label,class_name,f0,f1\n0,x,1.0,0.0\n1,y,{row}\n")
    with pytest.raises(SchemaError, match=r"z\.csv:3: all-zero feature row"):
        load_features(p)
