import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from concm import rng
from concm.errors import SchemaError, ShapeError
from concm.metrics import (ClassSums, RunReport, SessionRecord,
                           balanced_error_rate,
                           format_report_table, harmonic_mean, ncm_classify,
                           report_from_json, report_to_csv, report_to_json,
                           run_metrics, session_metrics, similarity_stats)
from concm.structure import random_optimal_structure


def test_ncm_trivial_and_tie():
    s = random_optimal_structure(4, 6, seed=0)
    np.testing.assert_array_equal(ncm_classify(s.columns.T, s), np.arange(4))
    # exact tie between columns 0 and 1: equidistant midpoint direction
    mid = s.columns[:, 0] + s.columns[:, 1]
    mid /= np.linalg.norm(mid)
    scores = mid @ s.columns
    assert scores[0] == pytest.approx(scores[1])
    assert ncm_classify(mid[None], s).tolist() == [0]  # lowest index wins


def test_ncm_matches_brute_force_distances():
    gen = rng.stream(1, "ncm")
    for trial in range(50):
        n = 3 + trial % 5
        s = random_optimal_structure(n, n + 3, seed=trial)
        z = rng.gaussian(gen, (n + 3,))
        z /= np.linalg.norm(z)
        dists = np.linalg.norm(s.columns - z[:, None], axis=0)
        assert ncm_classify(z[None], s).tolist() == [int(np.argmin(dists))]


def test_ncm_scale_invariant():
    s = random_optimal_structure(5, 8, seed=2)
    z = rng.gaussian(rng.stream(2, "scale"), (6, 8))
    np.testing.assert_array_equal(ncm_classify(z, s), ncm_classify(10.0 * z, s))


def test_harmonic_mean_value():
    assert harmonic_mean(80.0, 40.0) == pytest.approx(53.33, abs=0.01)
    assert harmonic_mean(0.0, 0.0) == 0.0


def test_hm_bounds_property():
    gen = rng.stream(3, "hm")
    for _ in range(100):
        b, n = 100.0 * gen.random((2,))
        hm = harmonic_mean(b, n)
        assert hm <= 2.0 * min(b, n) + 1e-12
        assert hm <= (b + n) / 2.0 + 1e-12


def test_balanced_error_rate_value():
    assert balanced_error_rate(10.0, 30.0) == 20.0


@st.composite
def _session_case(draw):
    """(preds, labels, base set) over classes 0..n-1 with base and novel
    test rows both present."""
    n = draw(st.integers(2, 8))
    n_base = draw(st.integers(1, n - 1))
    size = draw(st.integers(2, 40))
    labels = draw(st.lists(st.integers(0, n - 1), min_size=size, max_size=size)
                  .filter(lambda ls: min(ls) < n_base <= max(ls)))
    preds = draw(st.lists(st.integers(0, n - 1), min_size=size, max_size=size))
    return np.array(preds), np.array(labels), set(range(n_base)), n


# bacc == nacc == 700/30, where 2 b n / (b + n) rounds an ulp above b
_EQUAL_ACC = (np.array([0] * 7 + [1] * 23 + [1] * 7 + [0] * 23),
              np.array([0] * 30 + [1] * 30), {0}, 2)


@settings(max_examples=200, deadline=None)
@given(case=_session_case())
@example(case=_EQUAL_ACC)
def test_session_metrics_bounds_property(case):
    preds, labels, base, _ = case
    r = session_metrics(preds, labels, base, t=1)
    assert min(r.bacc, r.nacc) <= r.hm <= max(r.bacc, r.nacc)
    assert 0.0 <= r.ber <= 100.0


@settings(max_examples=200, deadline=None)
@given(case=_session_case(), data=st.data())
def test_session_metrics_invariant_under_class_relabeling(case, data):
    preds, labels, base, n = case
    perm = np.array(data.draw(st.permutations(range(n))))
    r = session_metrics(preds, labels, base, t=1)
    relabeled = session_metrics(perm[preds], perm[labels],
                                {int(perm[c]) for c in base}, t=1)
    assert relabeled == r


def test_session_metrics_arithmetic():
    # 10 base samples: 8 correct; 10 novel: 4 correct; no cross-predictions
    labels = np.array([0] * 10 + [1] * 10)
    preds = labels.copy()
    preds[:2] = 1   # two base samples predicted novel
    preds[10:16] = 0  # six novel samples predicted base
    rec = session_metrics(preds, labels, base_class_set={0}, t=3)
    assert rec.bacc == pytest.approx(80.0)
    assert rec.nacc == pytest.approx(40.0)
    assert rec.hm == pytest.approx(53.33, abs=0.01)
    # FNR = 20 (base predicted novel), FPR = 60 (novel predicted base)
    assert rec.ber == pytest.approx(40.0)
    assert rec.t == 3


def test_session_metrics_all_correct():
    labels = np.array([0, 0, 1, 1, 2])
    rec = session_metrics(labels, labels, base_class_set={0, 1})
    assert rec.top1 == 100.0
    assert rec.hm == 100.0
    assert rec.ber == 0.0


def test_session_metrics_empty_subset_absent():
    labels = np.zeros(5, dtype=int)
    rec = session_metrics(labels, labels, base_class_set={0})
    assert rec.bacc == 100.0
    assert rec.nacc is None and rec.hm is None and rec.ber is None


def test_session_metrics_shape_check():
    with pytest.raises(ShapeError):
        session_metrics(np.zeros(3, dtype=int), np.zeros(4, dtype=int), {0})


def records_fixture():
    hms = [70.34, 66.59, 63.38, 59.59, 57.05, 53.95, 53.49, 53.92]
    recs = [SessionRecord(t=0, top1=83.97, bacc=83.97, nacc=None, hm=None,
                          ber=None)]
    for i, hm in enumerate(hms, start=1):
        recs.append(SessionRecord(t=i, top1=60.0, bacc=70.0, nacc=50.0, hm=hm,
                                  ber=20.0))
    recs[-1].top1 = 59.92
    return recs


def test_run_metrics_reproduces_reported_aggregates():
    recs = records_fixture()
    ahm, fa, pd = run_metrics(recs, base_acc=83.97)
    assert ahm == pytest.approx(59.78, abs=0.01)
    assert fa == pytest.approx(59.92)
    assert pd == pytest.approx(24.05, abs=0.001)


def test_run_metrics_single_session():
    recs = [SessionRecord(t=0, top1=90.0, bacc=90.0, nacc=None, hm=None, ber=None),
            SessionRecord(t=1, top1=70.0, bacc=75.0, nacc=60.0, hm=66.67, ber=10.0)]
    ahm, fa, pd = run_metrics(recs, base_acc=90.0)
    assert ahm == pytest.approx(66.67)
    assert fa == 70.0 and pd == pytest.approx(20.0)


def sums_of(z, labels):
    sums = ClassSums.zeros(int(labels.max()) + 1, z.shape[1])
    sums.add(z, labels)
    return sums


def test_similarity_stats_on_etf_points():
    s = random_optimal_structure(3, 6, seed=4)
    z = np.repeat(s.columns.T, 4, axis=0)
    labels = np.repeat(np.arange(3), 4)
    sim_cls, sim_in = similarity_stats(sums_of(z, labels))
    assert sim_in == pytest.approx(1.0)
    assert sim_cls == pytest.approx(-0.5, abs=1e-10)


def test_similarity_stats_identical_classes():
    z = np.tile(np.array([1.0, 0.0, 0.0]), (6, 1))
    z[1::2, 1] = 0.01
    labels = np.array([0, 0, 0, 1, 1, 1])
    sim_cls, _ = similarity_stats(sums_of(z, labels))
    assert sim_cls == pytest.approx(1.0, abs=1e-4)


def test_similarity_stats_random_near_zero():
    gen = rng.stream(5, "simr")
    z = rng.gaussian(gen, (400, 256))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    labels = np.repeat(np.arange(8), 50)
    sim_cls, sim_in = similarity_stats(sums_of(z, labels))
    assert abs(sim_cls) < 0.1
    assert abs(sim_in) < 0.3


@pytest.mark.parametrize("z,labels", [
    # one class: no pair of class-mean directions
    (np.array([[1.0, 0.0], [0.6, 0.8], [0.8, 0.6]]), np.array([0, 0, 0])),
    # two classes, but class 1's mean is flat and skipped
    (np.array([[1.0, 0.0], [0.6, 0.8], [0.0, 1.0], [0.0, -1.0]]),
     np.array([0, 0, 1, 1])),
])
def test_similarity_stats_one_direction_has_no_between_class_term(z, labels):
    # NaN, which the session record reports as null; no mean of an empty
    # slice is taken (its RuntimeWarning is an error here)
    sim_cls, sim_in = similarity_stats(sums_of(z, labels))
    assert np.isnan(sim_cls)
    assert np.isfinite(sim_in)


def similarity_stats_per_row(z, labels):
    """The diagnostics from every row at once: cosines of class-mean
    directions, and of each unit row to its class's direction."""
    classes = np.unique(labels)
    dirs = np.array([z[labels == c].mean(axis=0) for c in classes])
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    gram = dirs @ dirs.T
    unit = z / np.linalg.norm(z, axis=1, keepdims=True)
    within = [unit[labels == c] @ dirs[k] for k, c in enumerate(classes)
              if (labels == c).sum() >= 2]
    return (gram[np.triu_indices(classes.size, k=1)].mean(),
            np.concatenate(within).mean() if within else np.nan)


@settings(max_examples=60, deadline=None)
@given(labels=st.lists(st.integers(0, 5), min_size=2, max_size=60),
       block=st.integers(1, 20), d=st.integers(2, 6), seed=st.integers(0, 2 ** 32))
def test_similarity_stats_from_block_sums_match_per_row(labels, block, d, seed):
    labels = np.asarray(labels)
    assume(np.unique(labels).size >= 2)
    z = rng.gaussian(rng.stream(seed, "sim-blocks"), (labels.size, d)) + 0.5
    sums = ClassSums.zeros(6, d)
    for start in range(0, labels.size, block):
        sums.add(z[start:start + block], labels[start:start + block])
    assert sums.count.tolist() == np.bincount(labels, minlength=6).tolist()
    got = similarity_stats(sums)
    want = similarity_stats_per_row(z, labels)
    np.testing.assert_allclose(got[0], want[0], rtol=0, atol=1e-12)
    if np.isnan(want[1]):
        assert np.isnan(got[1])
    else:
        np.testing.assert_allclose(got[1], want[1], rtol=0, atol=1e-12)


def report_fixture():
    recs = records_fixture()
    ahm, fa, pd = run_metrics(recs, 83.97)
    return RunReport(sessions=recs, ahm=ahm, fa=fa, pd=pd, base_acc=83.97,
                     strategy="concm", seed=7)


def test_report_json_round_trip():
    rep = report_fixture()
    text = report_to_json(rep)
    back = report_from_json(text)
    assert back.ahm == rep.ahm and back.fa == rep.fa and back.pd == rep.pd
    assert back.sessions[0].hm is None
    assert [r.hm for r in back.sessions[1:]] == [r.hm for r in rep.sessions[1:]]
    assert report_to_json(back) == text


def test_report_aggregates_recompute_from_session_fields():
    rep = report_fixture()
    back = report_from_json(report_to_json(rep))
    ahm, fa, pd = run_metrics(back.sessions, back.base_acc)
    assert ahm == back.ahm and fa == back.fa and pd == back.pd


def test_report_missing_field_named():
    with pytest.raises(SchemaError, match="'ahm'"):
        report_from_json('{"sessions": [], "fa": 1, "pd": 2, "base_acc": 3}')
    good = report_to_json(report_fixture())
    broken = good.replace('"smr"', '"zzz"')
    with pytest.raises(SchemaError, match="'smr'"):
        report_from_json(broken)


def test_report_cells_follow_the_annotation_not_the_value():
    # an int figure is written as the int, however large; a float figure
    # holding an int is written as a float
    big = 10 ** 400
    rec = SessionRecord(t=big, top1=80, bacc=0, nacc=None, hm=None, ber=None)
    rep = RunReport(sessions=[rec], ahm=None, fa=80, pd=0, base_acc=80)
    assert report_to_csv(rep).splitlines()[1] == \
        ",".join([str(big), "80.0", "0.0"] + [""] * 6)
    assert format_report_table(rep).splitlines()[1].split() == \
        [str(big), "80.00", "0.00"] + ["-"] * 6


def test_report_csv_and_table():
    rep = report_fixture()
    csv_text = report_to_csv(rep)
    lines = csv_text.strip().splitlines()
    assert lines[0].startswith("t,top1,")
    assert len(lines) == 1 + len(rep.sessions)
    assert lines[1].split(",")[3] == ""  # absent nacc field stays empty

    table = format_report_table(rep)
    assert "AHM 59.79" in table or "AHM 59.78" in table
    assert "FA 59.92" in table
