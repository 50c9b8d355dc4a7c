import json

import numpy as np
import pytest

from concm.attributes import (AttributeTable, attribute_visual_prototypes,
                              build_knowledge, build_pool, load_attribute_table,
                              load_semantic_embeddings)
from concm.data import FeatureSet
from concm.errors import MissingEmbedding, ParseError, SchemaError, UnknownClass


def featureset(rows, labels, names):
    return FeatureSet(features=np.asarray(rows, dtype=float),
                      labels=np.asarray(labels), class_names=tuple(names))


def test_load_single_entry_table(tmp_path):
    p = tmp_path / "a.json"
    p.write_text(json.dumps({"classes": {"house_finch": ["beak", "wing"]}}))
    table = load_attribute_table(p)
    assert table.attributes_for("house_finch") == ["beak", "wing"]
    with pytest.raises(UnknownClass):
        table.attributes_for("lion")


def test_table_schema_errors(tmp_path):
    p = tmp_path / "a.json"
    p.write_text(json.dumps({"classes": {"x": "beak"}}))
    with pytest.raises(SchemaError):
        load_attribute_table(p)
    p.write_text("{nope")
    with pytest.raises(ParseError):
        load_attribute_table(p)


def test_visual_prototype_two_point_mean():
    fs = featureset([[1.0, 0.0], [0.0, 1.0]], [0, 0], ["c"])
    table = AttributeTable({"c": ["a"]})
    names, visual = attribute_visual_prototypes(fs, table)
    assert names == ("a",)
    np.testing.assert_allclose(visual[0], [0.5, 0.5])


def test_shared_attribute_pools_raw_samples_not_class_means():
    # class A: 3 samples, class B: 1 sample; pooled mean weights samples
    fs = featureset([[1.0], [1.0], [1.0], [5.0]], [0, 0, 0, 1], ["A", "B"])
    table = AttributeTable({"A": ["s"], "B": ["s"]})
    _, visual = attribute_visual_prototypes(fs, table)
    np.testing.assert_allclose(visual[0], [2.0])  # not (1 + 5)/2 = 3


def test_disjoint_attributes_equal_class_means():
    fs = featureset([[1.0, 1.0], [3.0, 3.0], [5.0, 7.0]], [0, 0, 1], ["A", "B"])
    table = AttributeTable({"A": ["a1"], "B": ["a2"]})
    _, visual = attribute_visual_prototypes(fs, table)
    np.testing.assert_allclose(visual[0], [2.0, 2.0])
    np.testing.assert_allclose(visual[1], [5.0, 7.0])


def test_visual_prototypes_permutation_invariant():
    gen = np.random.default_rng(0)
    rows = gen.standard_normal((6, 3))
    fs = featureset(rows, [0, 0, 1, 1, 2, 2], ["A", "B", "C"])
    table = AttributeTable({"A": ["x", "y"], "B": ["y"], "C": ["x"]})
    _, v1 = attribute_visual_prototypes(fs, table)
    perm = [5, 3, 1, 0, 4, 2]
    fs2 = featureset(rows[perm], np.array([0, 0, 1, 1, 2, 2])[perm],
                     ["A", "B", "C"])
    _, v2 = attribute_visual_prototypes(fs2, table)
    np.testing.assert_allclose(v1, v2)


def embeddings_for(names, d_s=4, seed=0):
    gen = np.random.default_rng(seed)
    return {n: gen.standard_normal(d_s) for n in names}


def test_build_knowledge_shapes_and_masks():
    gen = np.random.default_rng(1)
    fs = featureset(gen.standard_normal((6, 5)), [0, 0, 1, 1, 2, 2],
                    ["A", "B", "C"])
    table = AttributeTable({"A": ["a1", "a2"], "B": ["a2", "a3"], "C": ["a4"],
                            "N": ["a2", "a4", "zzz"]})
    emb = embeddings_for(["a1", "a2", "a3", "a4", "A", "B", "C", "N"])
    kn = build_knowledge(["A", "B", "C"], emb, table,
                         build_pool(fs, table, emb))
    assert kn.assoc.r.shape == (4, 3)
    assert kn.pool.names == ("a1", "a2", "a3", "a4")
    # novel class: intersection with the pool only
    kn2 = build_knowledge(["A", "B", "C", "N"], emb, table, pool=kn.pool)
    np.testing.assert_array_equal(kn2.assoc.column("N"), [0, 1, 0, 1])
    # base columns identical across sessions (frozen pool)
    np.testing.assert_array_equal(kn2.assoc.r[:, :3], kn.assoc.r)


def test_uncovered_novel_class_flagged():
    gen = np.random.default_rng(2)
    fs = featureset(gen.standard_normal((4, 3)), [0, 0, 1, 1], ["A", "B"])
    table = AttributeTable({"A": ["a1"], "B": ["a2"], "N": []})
    emb = embeddings_for(["a1", "a2", "A", "B", "N"])
    kn = build_knowledge(["A", "B", "N"], emb, table,
                         build_pool(fs, table, emb))
    assert kn.assoc.uncovered == {"N"}


def test_missing_embedding_raises():
    gen = np.random.default_rng(3)
    fs = featureset(gen.standard_normal((4, 3)), [0, 0, 1, 1], ["A", "B"])
    table = AttributeTable({"A": ["a1"], "B": ["a2"]})
    emb = embeddings_for(["a1", "A", "B"])
    with pytest.raises(MissingEmbedding):
        build_pool(fs, table, emb)
    emb2 = embeddings_for(["a1", "a2", "A"])
    with pytest.raises(MissingEmbedding):
        build_knowledge(["A", "B"], emb2, table, build_pool(fs, table, emb2))


def test_semantic_csv_round_trip(tmp_path):
    p = tmp_path / "s.csv"
    p.write_text("name,s0,s1\nbeak,0.5,-1.25\nwing,2.0,3.5\n")
    emb = load_semantic_embeddings(p)
    np.testing.assert_array_equal(emb["beak"], [0.5, -1.25])
    np.testing.assert_array_equal(emb["wing"], [2.0, 3.5])
    p.write_text("name,s0,s1\nbeak,0.5\n")
    with pytest.raises(SchemaError):
        load_semantic_embeddings(p)
    p.write_text("wrong,s0\nx,1.0\n")
    with pytest.raises(ParseError):
        load_semantic_embeddings(p)


@pytest.mark.parametrize("token", ["nan", "inf", "-1e999"])
def test_semantic_csv_non_finite_rejected_with_line(tmp_path, token):
    p = tmp_path / "s.csv"
    p.write_text(f"name,s0,s1\nbeak,0.5,-1.25\nwing,{token},3.5\n")
    with pytest.raises(SchemaError, match=r"s\.csv:3: non-finite value"):
        load_semantic_embeddings(p)


@pytest.mark.parametrize("token", ["1_0", "\u0661\u0662", '"1.5"'])
def test_semantic_csv_takes_the_feature_csv_number_grammar(tmp_path, token):
    # Python's float() reads 1_0 as 10.0 and Arabic-Indic digits as 12.0;
    # the feature CSV's parser rejects both, and so does the embeddings CSV.
    # A quoted value is rejected too
    p = tmp_path / "s.csv"
    p.write_text(f"name,s0,s1\nbeak,0.5,-1.25\n\nwing,2.0,{token}\n",
                 encoding="utf-8")
    with pytest.raises(ParseError, match=r"s\.csv:4: "):
        load_semantic_embeddings(p)
