import csv
import re
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from concm.data import (FeatureSet, load_features, load_manifest, read_json,
                        save_features)
from concm.autodiff import zero_norm_rows
from concm.errors import InvalidInput, ParseError, SchemaError, ValidationError


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
        ' "semantic": "s.csv", "tests": ["t0.csv", "t1.csv"],'
        ' "truth": "truth.json"}')
    m = load_manifest(tmp_path / "m.json")
    assert m.base == tmp_path / "b.csv"
    assert m.sessions == [tmp_path / "s1.csv"]
    assert m.tests == [tmp_path / "t0.csv", tmp_path / "t1.csv"]
    # other keys are ignored
    assert not hasattr(m, "truth")


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


@settings(max_examples=100, deadline=None)
@given(data=st.data(), n_rows=st.integers(1, 8), dim=st.integers(1, 5))
def test_all_zero_row_in_any_spelling_rejected_at_its_line(data, n_rows, dim):
    # rows with some zero fields load; the row whose every field is a zero,
    # in any spelling, is named by its file line, blank lines counted
    spelling = st.sampled_from(["0", "0.0", "-0.0", "0e7", "0.000"])
    bad = data.draw(st.integers(0, n_rows - 1))
    lines = ["label,class_name," + ",".join(f"f{i}" for i in range(dim))]
    for r in range(n_rows):
        lines += [""] * data.draw(st.integers(0, 2))
        values = data.draw(st.lists(spelling, min_size=dim, max_size=dim))
        if r != bad:
            values[data.draw(st.integers(0, dim - 1))] = "1.5"
        lines.append(f"{r % 2},c{r % 2}," + ",".join(values))
        if r == bad:
            line = len(lines)
    with tempfile.TemporaryDirectory() as tmp:
        p = Path(tmp) / "z.csv"
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(SchemaError,
                           match=re.escape(f"{p}:{line}: all-zero feature row")):
            load_features(p)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), n_rows=st.integers(1, 12), dim=st.integers(1, 5))
def test_feature_set_built_in_code_rejects_first_all_zero_row(data, n_rows, dim):
    # a zero row reaching the pipeline without a CSV fails when the set is
    # built, so no training can start on it; later zero rows are not named
    feats = data.draw(hnp.arrays(np.float64, (n_rows, dim),
                                 elements=st.floats(-1e3, 1e3)))
    feats[zero_norm_rows(feats), 0] = 1.0
    zero_rows = sorted(data.draw(st.sets(st.integers(0, n_rows - 1), min_size=1)))
    signs = data.draw(hnp.arrays(np.bool_, (len(zero_rows), dim)))
    feats[zero_rows] = np.where(signs, -0.0, 0.0)
    with pytest.raises(InvalidInput,
                       match=f"^feature row {zero_rows[0]}: all-zero feature row$"):
        FeatureSet(features=feats, labels=np.zeros(n_rows, dtype=np.int64),
                   class_names=("c",))


@pytest.mark.parametrize("scale", [1e154, 1e200, 1e300])
def test_row_whose_norm_overflows_rejected_with_line(tmp_path, scale):
    # every value is finite, but the sum of squares is +inf: the row has no
    # finite direction, so it fails at load like a zero-norm row
    row = [1.0 * scale, 2.0 * scale]
    p = tmp_path / "o.csv"
    p.write_text("label,class_name,f0,f1\n0,x,1.0,2.0\n"
                 f"1,y,{row[0]!r},{row[1]!r}\n")
    with pytest.raises(SchemaError,
                       match=r"o\.csv:3: feature row norm overflows"):
        load_features(p)
    with pytest.raises(InvalidInput,
                       match="^feature row 1: feature row norm overflows"):
        FeatureSet(features=np.vstack([[1.0, 2.0], row]),
                   labels=np.array([0, 1]), class_names=("x", "y"))


@pytest.mark.parametrize("row", [
    [0.0, -0.0],     # all zero
    [1e-170, 0.0],   # zero-norm: the square underflows to 0
    [1e200, 1.0],    # the norm overflows
    [1.0, np.inf],   # non-finite
    [np.nan, 1.0]])
def test_feature_set_and_loader_name_one_reason_per_bad_row(tmp_path, row):
    # a row built in code and the same row read from a file fail for the
    # same reason, named by row index and by path:line respectively
    with pytest.raises(InvalidInput, match="^feature row 1: ") as built:
        FeatureSet(features=np.array([[1.0, 2.0], row]), labels=np.array([0, 1]),
                   class_names=("x", "y"))
    reason = str(built.value).removeprefix("feature row 1: ")
    p = tmp_path / "r.csv"
    p.write_text("label,class_name,f0,f1\n0,x,1.0,2.0\n"
                 f"1,y,{row[0]!r},{row[1]!r}\n")
    with pytest.raises(SchemaError) as loaded:
        load_features(p)
    assert str(loaded.value) == f"{p}:3: {reason}"


@pytest.mark.parametrize("token", ["nan", "inf", "-inf", "1e999", "NaN"])
def test_non_finite_value_rejected_with_line(tmp_path, token):
    p = tmp_path / "v.csv"
    p.write_text(f"label,class_name,f0,f1\n0,x,1.0,2.0\n1,y,0.5,{token}\n")
    with pytest.raises(SchemaError, match=r"v\.csv:3: non-finite value"):
        load_features(p)


@pytest.mark.parametrize("label", ["999999999999", "9" * 24])
def test_huge_label_rejected_before_allocating(tmp_path, label):
    p = tmp_path / "l.csv"
    p.write_text(f"label,class_name,f0\n0,x,1.0\n{label},y,2.0\n")
    with pytest.raises(SchemaError, match="not contiguous"):
        load_features(p)


def test_json_syntax_error_names_path_line_col(tmp_path):
    p = tmp_path / "j.json"
    p.write_text('{\n  "a": 1,\n  "b": ')
    with pytest.raises(ParseError, match=r"j\.json:3:\d+: "):
        read_json(p)


@st.composite
def feature_sets(draw):
    n_classes = draw(st.integers(1, 4))
    labels = draw(st.lists(st.integers(0, n_classes - 1), min_size=0,
                           max_size=12))
    labels = np.array(list(range(n_classes)) + labels, dtype=np.int64)
    labels = labels[draw(st.permutations(range(labels.size)))]
    dim = draw(st.integers(1, 5))
    # |x| <= 1e150 keeps a row's sum of squares finite, as a valid row needs
    feats = draw(hnp.arrays(np.float64, (labels.size, dim),
                            elements=st.floats(-1e150, 1e150,
                                               allow_subnormal=True)))
    feats[zero_norm_rows(feats), 0] = 1.0
    names = draw(st.lists(st.from_regex(r"[A-Za-z0-9_ .-]{1,8}", fullmatch=True),
                          min_size=n_classes, max_size=n_classes, unique=True))
    return FeatureSet(features=feats, labels=labels, class_names=tuple(names))


@settings(max_examples=60, deadline=None)
@given(fs=feature_sets())
def test_save_load_round_trip_is_exact(tmp_path_factory, fs):
    path = tmp_path_factory.mktemp("rt") / "f.csv"
    save_features(fs, path)
    back = load_features(path)
    assert back.features.tobytes() == fs.features.tobytes()
    assert back.labels.tobytes() == fs.labels.tobytes()
    assert back.class_names == fs.class_names


def _reference_load(text: str):
    """The per-value parse the loader replaced: csv fields, Python floats."""
    rows = [r for r in csv.reader(text.splitlines()[1:]) if r]
    names: dict[int, str] = {}
    for r in rows:
        names.setdefault(int(r[0]), r[1])
    return (np.array([[float(x) for x in r[2:]] for r in rows], dtype=np.float64),
            np.array([int(r[0]) for r in rows], dtype=np.int64),
            tuple(names[i] for i in range(len(names))))


# (field kind, tokens) that make one field invalid wherever they land
_BAD_FIELDS = [("label", ["x", "", "1.5", '"0"', "-1"]),
               ("name", ['"a"', 'a"b', "a,b"]),
               ("value", ["x", "", "1_0", "nan", "-inf", "1e999", '"1.5"',
                          "1.5.2", "0x1f", "#1", "1\r2"])]


@settings(max_examples=80, deadline=None)
@given(fs=feature_sets(), data=st.data())
def test_error_names_file_line_through_blank_lines_and_crlf(tmp_path_factory,
                                                            fs, data):
    path = tmp_path_factory.mktemp("lines") / "f.csv"
    save_features(fs, path)
    header, *rows = path.read_text().splitlines()
    lines = [header]
    linenos = []  # file line of each data row
    for row in rows:
        lines += [""] * data.draw(st.integers(0, 2))
        lines.append(row)
        linenos.append(len(lines))
    corrupt = data.draw(st.none() | st.integers(0, len(rows) - 1))
    if corrupt is not None:
        kind, tokens = data.draw(st.sampled_from(_BAD_FIELDS))
        fields = lines[linenos[corrupt] - 1].split(",")
        j = ["label", "name"].index(kind) if kind != "value" \
            else data.draw(st.integers(2, len(fields) - 1))
        fields[j] = data.draw(st.sampled_from(tokens))
        lines[linenos[corrupt] - 1] = ",".join(fields)
    ends = data.draw(st.lists(st.sampled_from(["\n", "\r\n"]),
                              min_size=len(lines), max_size=len(lines)))
    text = "".join(line + end for line, end in zip(lines, ends))
    if data.draw(st.booleans()):
        text = text.rstrip("\r\n")
    path.write_bytes(text.encode("utf-8"))
    if corrupt is None:
        back = load_features(path)
        features, labels, names = _reference_load(text)
        assert back.features.tobytes() == features.tobytes()
        assert back.labels.tobytes() == labels.tobytes()
        assert back.class_names == names == fs.class_names
    else:
        with pytest.raises(ValidationError) as info:
            load_features(path)
        assert str(info.value).startswith(f"{path}:{linenos[corrupt]}: ")


def test_load_peak_memory_near_array_size(tmp_path):
    # the file is streamed: no per-value Python objects, no copy of the text
    gen = np.random.default_rng(0)
    fs = FeatureSet(features=gen.standard_normal((1000, 256)),
                    labels=np.arange(1000) % 10,
                    class_names=tuple(f"class_{i}" for i in range(10)))
    path = tmp_path / "big.csv"
    save_features(fs, path)
    tracemalloc.start()
    try:
        back = load_features(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert back.features.tobytes() == fs.features.tobytes()
    assert peak <= 3 * fs.features.nbytes


def test_conversion_error_names_line_and_field(tmp_path):
    p = tmp_path / "v.csv"
    p.write_text("label,class_name,f0,f1\n\n0,x,1.0,2.0\n\n1,y,0.5,oops\n")
    with pytest.raises(ParseError,
                       match=r"v\.csv:5: could not convert .*'oops'.* \(field 4\)"):
        load_features(p)


def test_non_utf8_line_is_parse_error_with_line(tmp_path):
    p = tmp_path / "u.csv"
    p.write_bytes(b"label,class_name,f0\n0,x,1.0\n1,y,2.\xff\n")
    with pytest.raises(ParseError, match=r"u\.csv:3: not UTF-8"):
        load_features(p)


def test_name_is_raw_text_and_hash_is_data(tmp_path):
    p = tmp_path / "n.csv"
    p.write_text("label,class_name,f0\n0, #cat ,1.0\n0, #cat ,2.0\n")
    assert load_features(p).class_names == (" #cat ",)
    p.write_text("label,class_name,f0\n0,cat,1.0\n0,\"cat\",2.0\n")
    with pytest.raises(ParseError, match=r"n\.csv:3: quote in class name"):
        load_features(p)


@pytest.mark.parametrize("name", ["a,b", 'a"b', "a\nb", "a\rb"])
def test_save_refuses_names_that_do_not_round_trip(tmp_path, name):
    fs = FeatureSet(features=np.ones((1, 2)), labels=np.zeros(1, dtype=int),
                    class_names=(name,))
    with pytest.raises(SchemaError, match="class names"):
        save_features(fs, tmp_path / "s.csv")
    assert not (tmp_path / "s.csv").exists()
