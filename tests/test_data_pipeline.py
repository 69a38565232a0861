import csv
import math
from dataclasses import replace
from operator import itemgetter
from pathlib import Path

import numpy as np
import pytest

from fedgtv import data_pipeline
from fedgtv.data_pipeline import (
    CsvSchema,
    FEATURE_DIM,
    FEATURE_NAMES,
    GENDER_VALUE,
    LocalDataset,
    NUMERIC_COLUMNS,
    NUMERIC_FIELDS,
    RCOUNT_SLOT,
    SyntheticSpec,
    dump_preprocessed,
    engineer_features,
    generate_synthetic,
    load_csv,
    load_preprocessed,
    normalize,
    split_dataset,
)
from fedgtv.errors import (
    ConstantFeatureError,
    DegenerateInputError,
    EmptyInputError,
    ParameterError,
    SchemaError,
    SplitError,
)
from fedgtv.model_core import least_squares_fit

FIXTURE = Path(__file__).parent / "data" / "los_fixture.csv"
HEADER = FIXTURE.read_text().split("\n", 1)[0].split(",")


def make_row(**overrides):
    """One valid CSV row under HEADER, as field texts; overrides name columns."""
    base = dict.fromkeys(HEADER, "0")
    base.update(
        eid="1",
        vdate="1/1/2012",
        rcount="0",
        gender="F",
        hematocrit="11.0",
        neutrophils="9.0",
        sodium="135.0",
        glucose="100.0",
        bloodureanitro="10.0",
        creatinine="1.0",
        bmi="25.0",
        pulse="70.0",
        respiration="6.0",
        lengthofstay="3",
        facid="X",
    )
    base.update(overrides)
    return [base[name] for name in HEADER]


def load_rows(tmp_path, *rows, header=HEADER):
    """load_csv on CSV text written from ``header`` and ``rows`` (lists of field texts)."""
    path = tmp_path / "rows.csv"
    path.write_text("\n".join(",".join(fields) for fields in [header, *rows]) + "\n", encoding="utf-8")
    return load_csv(path)


def same_float(a, b):
    """Equal as IEEE doubles, so -0.0 and 0.0 differ."""
    return np.float64(a).tobytes() == np.float64(b).tobytes()


DROPPED, SKIPPED = "dropped", "skipped"

# (case, extra header columns -> their text in the control row, case row, outcome).
# A kept row's outcome maps block columns to their exact values: 0 rcount slot,
# 1 gender, 2 hemo, 3..11 numerics (5 = sodium, 6 = glucose), 12 n_conditions,
# 13 length of stay.
DROP_RULES = [
    ("valid", {}, make_row(), {0: 0.0, 1: 0.0, 2: 0.0, 3: 11.0, 12: 0.0, 13: 3.0}),
    ("rcount_stripped", {}, make_row(rcount=" 5+ "), {0: 5.0}),
    ("rcount_unknown", {}, make_row(rcount="6"), DROPPED),
    ("rcount_empty", {}, make_row(rcount=""), DROPPED),
    ("gender_stripped_upper_cased", {}, make_row(gender=" m "), {1: 1.0}),
    ("gender_unknown", {}, make_row(gender="U"), DROPPED),
    ("numeric_underscore", {}, make_row(sodium="1_0"), {5: 10.0}),
    ("numeric_padded_exponent", {}, make_row(sodium=" 1e0 "), {5: 1.0}),
    ("numeric_str_strip_whitespace", {}, make_row(sodium="\x1f2\x1f"), {5: 2.0}),
    ("numeric_negative_zero_kept", {}, make_row(sodium="-0"), {5: -0.0}),
    ("numeric_arabic_indic_digits", {}, make_row(sodium="\u0661\u0662"), {5: 12.0}),
    ("numeric_nbsp_padded", {}, make_row(sodium="\xa01.5"), {5: 1.5}),
    ("numeric_trailing_nul", {}, make_row(sodium="1\x00"), DROPPED),
    ("numeric_hex", {}, make_row(sodium="0x10"), DROPPED),
    ("numeric_blank", {}, make_row(sodium=" "), DROPPED),
    ("numeric_text", {}, make_row(glucose="n/a"), DROPPED),
    ("numeric_nan", {}, make_row(glucose="nan"), DROPPED),
    ("numeric_infinite", {}, make_row(glucose="-inf"), DROPPED),
    ("numeric_overflow", {}, make_row(glucose="1e400"), DROPPED),
    ("hemo_written_1.0", {}, make_row(hemo="1.0"), {2: 1.0}),
    ("hemo_negative_zero", {}, make_row(hemo="-0"), {2: 0.0}),
    ("hemo_not_binary", {}, make_row(hemo="2"), DROPPED),
    ("hemo_nan", {}, make_row(hemo="nan"), DROPPED),
    ("flag_written_1e0", {}, make_row(asthma="1e0"), {12: 1.0}),
    ("flag_negative_zero", {}, make_row(asthma="-0"), {12: 0.0}),
    ("flag_not_binary", {}, make_row(asthma="0.5"), DROPPED),
    ("flags_opposite_infinities", {}, make_row(asthma="inf", irondef="-inf"), DROPPED),
    ("los_written_4.0", {}, make_row(lengthofstay=" 4.0 "), {13: 4.0}),
    ("los_fractional", {}, make_row(lengthofstay="2.5"), DROPPED),
    ("los_zero", {}, make_row(lengthofstay="0"), DROPPED),
    ("los_infinite", {}, make_row(lengthofstay="inf"), DROPPED),
    ("los_infinity_spelled_out", {}, make_row(lengthofstay="infinity"), DROPPED),
    ("facid_stripped", {}, make_row(facid=" X "), {}),
    ("facid_blank", {}, make_row(facid=" "), DROPPED),
    ("row_longer_than_header", {}, make_row() + ["extra"], {}),
    ("short_row_holding_required_columns", {"note": "n"}, make_row(), {}),
    ("short_row_missing_required_column", {}, make_row()[:-1], DROPPED),
    ("repeated_header_last_column_wins", {"gender": "F"}, make_row(gender="Q") + ["M"], {1: 1.0}),
    ("repeated_header_last_column_invalid", {"gender": "F"}, make_row(gender="M") + ["Q"], DROPPED),
    ("repeated_header_last_column_missing", {"gender": "F"}, make_row(gender="M"), DROPPED),
    ("blank_line", {}, [], SKIPPED),
    ("whitespace_only_line", {}, ["   "], DROPPED),
]


def reference_load_csv(path, schema=None):
    """Row-at-a-time oracle for load_csv: one record per row, checked in place."""
    schema = schema or CsvSchema()
    flag_value = {0.0: 0.0, 1.0: 1.0}  # a flag written -0 becomes +0.0
    records, dropped = {}, 0
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        index = {name: i for i, name in enumerate(next(reader))}
        logical = ("facid", "rcount", "gender", "hemo", "lengthofstay") + NUMERIC_FIELDS
        pick = itemgetter(
            *(index[schema.physical(f)] for f in logical),
            *(index[c] for c in schema.condition_columns),
        )
        for row in reader:
            if not row:
                continue
            try:
                facid, rcount, gender, *texts = map(str.strip, pick(row))
                hemo, los, *values = map(float, texts)  # the nine numerics, then the flags
                record = (
                    RCOUNT_SLOT[rcount],
                    GENDER_VALUE[gender.upper()],
                    flag_value[hemo],
                    *values[:9],
                    sum(map(flag_value.__getitem__, values[9:])),
                    los,
                )
            except (IndexError, KeyError, ValueError):
                dropped += 1
                continue
            if not (facid and los >= 1 and los.is_integer() and all(map(math.isfinite, values[:9]))):
                dropped += 1
                continue
            records.setdefault(facid, []).append(record)
    return {facid: np.array(records[facid]) for facid in sorted(records)}, dropped


# Field texts that replace one value of a valid row: some keep the row, most drop it.
MUTATIONS = [
    {"rcount": "9"}, {"rcount": " 5+ "}, {"gender": "U"}, {"gender": " m "},
    {"sodium": "n/a"}, {"sodium": "\x1f2\x1f"}, {"sodium": "-0"}, {"sodium": "1\x00"},
    {"sodium": "\u0661\u0662"}, {"glucose": "1e400"}, {"glucose": "nan"},
    {"hemo": "2"}, {"hemo": "-0"}, {"asthma": "0.5"}, {"asthma": "-0"}, {"asthma": "1e0"},
    {"lengthofstay": "2.5"}, {"lengthofstay": " 4.0 "}, {"lengthofstay": "0"},
    {"facid": " "}, {"facid": " B "}, {"facid": "B\x00"},
]


def chunked_csv_lines(chunk, rng):
    """Data lines of a CSV four and a third chunks long, with odd rows at every chunk boundary.

    The third chunk holds only blank and short lines; facility "late" first
    appears in the second chunk.
    """
    lines = []
    for i in range(4 * chunk + chunk // 3):
        fields = dict(
            rcount=rng.choice(["0", "1", "2", "3", "4", "5+"]),
            gender=rng.choice(["M", "F"]),
            hemo=str(rng.integers(2)),
            lengthofstay=str(rng.integers(1, 12)),
            facid=rng.choice(["A", "B", "C", "late"] if i > chunk + 3 else ["A", "B", "C"]),
            **{name: repr(float(rng.normal(10.0, 3.0))) for name in NUMERIC_FIELDS},
            **{name: str(rng.integers(2)) for name in data_pipeline.DEFAULT_CONDITION_COLUMNS},
        )
        at_boundary = i % chunk in (0, 1, chunk - 2, chunk - 1)
        if 2 * chunk <= i < 3 * chunk:
            lines.append(["", "   ", "1,2"][i % 3])
            continue
        if at_boundary and i % 5 == 0:
            lines.append("")
            continue
        if at_boundary and i % 5 == 1:
            lines.append(",".join(make_row(**fields)[:-2]))  # too short to reach facid
            continue
        if at_boundary or rng.random() < 0.05:
            fields.update(MUTATIONS[rng.integers(len(MUTATIONS))])
        lines.append(",".join(make_row(**fields)))
    return lines


class TestLoadCsv:
    def test_fixture_groups_and_dropped_count(self):
        groups, dropped = load_csv(FIXTURE)
        assert list(groups) == ["A", "B"]
        assert [len(g) for g in groups.values()] == [5, 4]
        assert dropped == 1

    def test_fixture_record_contents(self):
        groups, _ = load_csv(FIXTURE)
        assert groups["A"].shape == (5, 14)
        rcount, gender, hemo, hematocrit, *_ = groups["A"][0]
        assert (rcount, gender, hemo, hematocrit) == (0.0, 0.0, 0.0, 11.1)
        assert groups["A"][0, 13] == 3.0  # length of stay
        assert groups["A"][1, 0] == 5.0  # the "5+" slot
        assert groups["A"][1, 12] == 1.0  # its one condition flag
        assert groups["B"][:, 13].tolist() == [5.0, 2.0, 6.0, 7.0]

    def test_missing_required_column(self, tmp_path):
        text = FIXTURE.read_text()
        header, rest = text.split("\n", 1)
        broken = header.replace("facid", "site") + "\n" + rest
        p = tmp_path / "nofacid.csv"
        p.write_text(broken)
        with pytest.raises(SchemaError, match="facid"):
            load_csv(p)

    def test_oversized_field_names_file_and_line(self, tmp_path):
        header, *lines = FIXTURE.read_text().splitlines()
        row = lines[0].split(",")
        row[header.split(",").index("glucose")] = "1" * 200_000  # over csv's default field limit
        p = tmp_path / "huge.csv"
        p.write_text("\n".join([header, *lines, ",".join(row)]) + "\n")
        with pytest.raises(SchemaError, match=rf"huge\.csv, line {len(lines) + 2}: field larger than field limit"):
            load_csv(p)

    def test_header_only_file(self, tmp_path):
        header = FIXTURE.read_text().split("\n", 1)[0]
        p = tmp_path / "empty.csv"
        p.write_text(header + "\n")
        with pytest.raises(EmptyInputError):
            load_csv(p)

    def test_all_rows_malformed(self, tmp_path):
        lines = FIXTURE.read_text().strip().split("\n")
        rows = []
        for line in lines[1:]:
            fields = line.split(",")
            fields[2] = "9"  # invalid rcount category
            rows.append(",".join(fields))
        p = tmp_path / "bad.csv"
        p.write_text(lines[0] + "\n" + "\n".join(rows) + "\n")
        with pytest.raises(EmptyInputError):
            load_csv(p)

    def test_column_rename_via_schema(self, tmp_path):
        text = FIXTURE.read_text().replace("rcount", "readmissions")
        p = tmp_path / "renamed.csv"
        p.write_text(text)
        schema = CsvSchema(columns={"rcount": "readmissions"})
        groups, dropped = load_csv(p, schema)
        assert [len(g) for g in groups.values()] == [5, 4]
        assert dropped == 1

    def test_malformed_variants_are_dropped_not_fatal(self, tmp_path):
        lines = FIXTURE.read_text().strip().split("\n")
        keep = lines[:2] + [lines[2], lines[3]]
        bad_gender = lines[5].replace(",M,", ",Q,", 1)
        mangled = lines[6].split(",")
        mangled[15] = "not-a-number"  # hematocrit
        p = tmp_path / "mixed.csv"
        p.write_text("\n".join(keep + [bad_gender, ",".join(mangled)]) + "\n")
        groups, dropped = load_csv(p)
        assert dropped == 2
        assert sum(len(g) for g in groups.values()) == 3

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "extra, row, outcome", [pytest.param(*case[1:], id=case[0]) for case in DROP_RULES]
    )
    def test_drop_rules(self, tmp_path, extra, row, outcome):
        control = make_row(facid="Z") + list(extra.values())
        groups, dropped = load_rows(tmp_path, row, control, header=HEADER + list(extra))
        assert groups["Z"].shape == (1, 14)
        if outcome in (DROPPED, SKIPPED):
            assert list(groups) == ["Z"]
            assert dropped == (outcome == DROPPED)
            return
        assert list(groups) == ["X", "Z"] and dropped == 0
        kept = groups["X"]
        assert kept.shape == (1, 14)
        for column, value in outcome.items():
            assert same_float(kept[0, column], value), (column, kept[0, column], value)


    def test_multi_chunk_file_matches_row_oracle(self, tmp_path):
        chunk = data_pipeline._CHUNK_ROWS
        lines = chunked_csv_lines(chunk, np.random.default_rng(8))
        path = tmp_path / "chunks.csv"
        path.write_text("\n".join([",".join(HEADER), *lines]) + "\n", encoding="utf-8")
        assert len(lines) % chunk and len(lines) > 4 * chunk
        groups, dropped = load_csv(path)
        expected, expected_dropped = reference_load_csv(path)
        assert list(groups) == list(expected) == ["A", "B", "B\x00", "C", "late"]
        for facid, block in groups.items():
            assert block.shape == expected[facid].shape
            assert block.tobytes() == expected[facid].tobytes(), facid
        assert type(dropped) is int and dropped == expected_dropped
        assert dropped > 2 * chunk // 3  # at least the third chunk's short lines


class TestCsvSchema:
    def test_unknown_logical_field(self):
        with pytest.raises(SchemaError):
            CsvSchema(columns={"heartrate": "pulse"})

    def test_empty_condition_columns(self):
        with pytest.raises(SchemaError):
            CsvSchema(condition_columns=())

    def test_custom_condition_columns_change_n_conditions(self, tmp_path):
        schema = CsvSchema(condition_columns=("asthma",))
        groups, _ = load_csv(FIXTURE, schema)
        X, _ = engineer_features(groups["A"])
        # only the "5+" row has asthma set
        assert X[:, 17].tolist() == [0.0, 1.0, 0.0, 0.0, 0.0]


class TestEngineerFeatures:
    def test_layout(self, tmp_path):
        row = make_row(
            rcount="5+", gender="M", hemo="1", dialysisrenalendstage="1", irondef="1", pneum="1",
            lengthofstay="7",
        )
        groups, _ = load_rows(tmp_path, row)
        X, y = engineer_features(groups["X"])
        assert X.shape == (1, FEATURE_DIM)
        assert X[0, :6].tolist() == [0, 0, 0, 0, 0, 1]
        assert X[0, 6] == 1.0  # gender M
        assert X[0, 7] == 1.0  # hemo
        assert X[0, 8:17].tolist() == [11.0, 9.0, 135.0, 100.0, 10.0, 1.0, 25.0, 70.0, 6.0]
        assert X[0, 17] == 3.0  # n_conditions
        assert X[0, 18] == 1.0  # intercept
        assert y[0] == 7.0

    def test_zero_condition_flags(self, tmp_path):
        groups, _ = load_rows(tmp_path, make_row())
        X, _ = engineer_features(groups["X"])
        assert X[0, 17] == 0.0

    def test_one_hot_validity_on_fixture(self):
        groups, _ = load_csv(FIXTURE)
        for records in groups.values():
            X, _ = engineer_features(records)
            assert np.array_equal(X[:, :6].sum(axis=1), np.ones(len(records)))
            assert np.isin(X[:, :6], (0.0, 1.0)).all()

    def test_feature_names_match_layout(self):
        assert len(FEATURE_NAMES) == FEATURE_DIM == 19
        assert FEATURE_NAMES[-1] == "intercept"
        assert list(NUMERIC_COLUMNS) == list(range(8, 17))


class TestSplitDataset:
    def test_table_sizes(self):
        tr, va, te = split_dataset(30012, seed=42)
        assert (len(tr), len(va), len(te)) == (21008, 4502, 4502)

    def test_ten_rows(self):
        tr, va, te = split_dataset(10, seed=123)
        assert (len(tr), len(va), len(te)) == (7, 1, 2)

    def test_deterministic(self):
        a = split_dataset(100, seed=42)
        b = split_dataset(100, seed=42)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_accepts_sequences(self):
        rows = ["r%d" % i for i in range(10)]
        tr, va, te = split_dataset(rows, seed=42)
        assert (len(tr), len(va), len(te)) == (7, 1, 2)

    def test_partition_property(self):
        rng = np.random.default_rng(0)
        for m in [3, 4, 5] + list(rng.integers(6, 10_000, size=25)):
            m = int(m)
            tr, va, te = split_dataset(m, seed=int(rng.integers(0, 1000)))
            merged = np.concatenate([tr, va, te])
            assert len(merged) == m
            assert np.array_equal(np.sort(merged), np.arange(m))
            if m >= 4:
                assert len(tr) and len(va) and len(te)

    def test_too_few_rows(self):
        with pytest.raises(SplitError):
            split_dataset(2, seed=42)


def make_dataset(train_col, val_col=(), test_col=(), n_features=3, numeric=(0,)):
    """Tiny dataset with one interesting numeric column and an intercept."""

    def block(values):
        values = np.asarray(values, dtype=float)
        X = np.ones((len(values), n_features))
        if len(values):
            X[:, 0] = values
        return X, np.arange(len(values), dtype=float)

    return LocalDataset(
        node_id=1,
        train=block(train_col),
        val=block(val_col),
        test=block(test_col),
        numeric_columns=np.asarray(numeric),
        feature_names=tuple(f"f{j}" for j in range(n_features)),
    )


class TestNormalize:
    def test_hand_values(self):
        ds = normalize(make_dataset([1.0, 2.0, 3.0]))
        expected = np.sqrt(1.5)
        assert np.allclose(ds.train[0][:, 0], [-expected, 0.0, expected], atol=1e-12)

    def test_train_statistics_applied_to_val(self):
        ds = normalize(make_dataset([1.0, 2.0, 3.0], val_col=[2.0]))
        assert ds.val[0][0, 0] == 0.0  # val row at the train mean

    def test_idempotent_within_tolerance(self):
        once = normalize(make_dataset([1.0, 2.0, 3.0, 7.0]))
        twice = normalize(once)
        assert np.allclose(once.train[0], twice.train[0], atol=1e-12)

    def test_population_std_convention(self):
        ds = normalize(make_dataset([1.0, 2.0, 3.0, 4.0, 8.0]))
        col = ds.train[0][:, 0]
        assert abs(col.mean()) < 1e-10
        assert abs(col.std() - 1.0) < 1e-10

    def test_labels_and_other_columns_untouched(self):
        raw = make_dataset([1.0, 2.0, 3.0])
        ds = normalize(raw)
        assert np.array_equal(ds.train[1], raw.train[1])
        assert np.array_equal(ds.train[0][:, 1:], raw.train[0][:, 1:])

    def test_constant_feature_error_names_feature(self):
        with pytest.raises(ConstantFeatureError, match="f0"):
            normalize(make_dataset([5.0, 5.0, 5.0]))

    def test_empty_training_split_rejected(self):
        with pytest.raises(DegenerateInputError, match="empty training split"):
            normalize(make_dataset([], val_col=[1.0, 2.0]))

    @pytest.mark.parametrize(
        "train_col",
        [[1.0, 1e300, -1e300, 2.0], [1e308, 1e308, 1e308]],
        ids=["std_overflows", "mean_overflows"],
    )
    def test_non_finite_statistic_rejected(self, train_col):
        # finite values whose training std (or mean) overflows; without the
        # check the column would become all zeros in every split
        with pytest.raises(ConstantFeatureError) as excinfo:
            normalize(make_dataset(train_col))
        assert str(excinfo.value) == "feature 'f0' has a non-finite mean or std on the training split of node 1"

    @pytest.mark.parametrize(
        "split, column, value, fault",
        [
            ("train", None, 1e300, "labels have"),
            ("val", 0, 1e200, "feature 'f0' has"),
            ("test", 0, 1.7e308, "feature 'f0' has"),  # the rescaling itself overflows
            ("test", 1, 1e200, "feature 'f1' has"),  # a column normalize leaves as it is
        ],
        ids=["train_label", "val_feature", "test_rescaled", "test_unscaled"],
    )
    def test_overflowing_sum_of_squares_rejected(self, split, column, value, fault):
        # finite values that pass the drop rules but overflow every loss on their split
        raw = make_dataset([0.0, 0.5, 1.0], val_col=[0.5], test_col=[0.5])
        X, y = (a.copy() for a in raw.split(split))
        if column is None:
            y[0] = value
        else:
            X[0, column] = value
        with pytest.raises(ConstantFeatureError) as excinfo:
            normalize(replace(raw, **{split: (X, y)}))
        assert str(excinfo.value) == f"{fault} a non-finite sum of squares on the {split} split of node 1"

    def test_feature_stats_recorded(self):
        ds = normalize(make_dataset([1.0, 2.0, 3.0]))
        means, stds = ds.feature_stats
        assert means[0] == 2.0
        assert stds[0] == pytest.approx(np.sqrt(2.0 / 3.0), rel=1e-15)

    def test_input_not_modified(self):
        raw = make_dataset([1.0, 2.0, 3.0])
        before = raw.train[0].copy()
        normalize(raw)
        assert np.array_equal(raw.train[0], before)


def cluster_spec(noise=0.0, seed=0, rows=40):
    return SyntheticSpec(
        node_count=4,
        rows_per_node=(rows,) * 4,
        feature_dim=3,
        cluster_assignment=(0, 0, 1, 1),
        cluster_weights=((2.0, -1.0, 0.5), (-2.0, 1.0, -0.5)),
        noise_std=noise,
        seed=seed,
    )


class TestGenerateSynthetic:
    def test_deterministic(self):
        a = generate_synthetic(cluster_spec(noise=0.3))
        b = generate_synthetic(cluster_spec(noise=0.3))
        for da, db in zip(a, b):
            for split in ("train", "val", "test"):
                Xa, ya = da.split(split)
                Xb, yb = db.split(split)
                assert np.array_equal(Xa, Xb) and np.array_equal(ya, yb)

    def test_noiseless_recovery(self):
        datasets = generate_synthetic(cluster_spec())
        spec = cluster_spec()
        for i, ds in enumerate(datasets):
            w = least_squares_fit(*ds.train)
            truth = spec.cluster_weights[spec.cluster_assignment[i]]
            assert np.allclose(w, truth, atol=1e-8)

    def test_intercept_column(self):
        for ds in generate_synthetic(cluster_spec()):
            assert np.array_equal(ds.train[0][:, -1], np.ones(len(ds.train[1])))

    def test_cluster_separation(self):
        datasets = generate_synthetic(cluster_spec(noise=0.1))
        fits = np.array([least_squares_fit(*ds.train) for ds in datasets])
        intra = np.linalg.norm(fits[0] - fits[1])
        cross = np.linalg.norm(fits[0] - fits[2])
        assert cross > 10 * intra

    def test_spec_validation(self):
        with pytest.raises(ParameterError):
            SyntheticSpec(2, (2, 2), 3, (0, 0), ((1.0, 1.0, 1.0),))  # rows < dim
        with pytest.raises(ParameterError, match="node_count must be >= 1"):
            SyntheticSpec(0, (), 3, (), ((1.0, 1.0, 1.0),))
        with pytest.raises(ParameterError, match="feature_dim must be >= 1"):
            SyntheticSpec(2, (5, 5), 0, (0, 0), ((),))
        with pytest.raises(ParameterError, match="one cluster per node"):
            SyntheticSpec(2, (5, 5), 3, (0,), ((1.0, 1.0, 1.0),))
        with pytest.raises(ParameterError, match="feature_dim entries"):
            SyntheticSpec(2, (5, 5), 3, (0, 0), ((1.0, 1.0),))
        with pytest.raises(ParameterError, match="seed must be non-negative"):
            SyntheticSpec(2, (5, 5), 3, (0, 0), ((1.0, 1.0, 1.0),), seed=-1)
        with pytest.raises(ParameterError):
            SyntheticSpec(2, (5,), 3, (0, 0), ((1.0, 1.0, 1.0),))
        with pytest.raises(ParameterError):
            SyntheticSpec(2, (5, 5), 3, (0, 2), ((1.0, 1.0, 1.0),))
        with pytest.raises(ParameterError):
            SyntheticSpec(2, (5, 5), 3, (0, 0), ((1.0, 1.0, 1.0),), noise_std=-0.1)
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ParameterError, match="noise_std must be non-negative and finite"):
                SyntheticSpec(2, (5, 5), 3, (0, 0), ((1.0, 1.0, 1.0),), noise_std=bad)
            with pytest.raises(ParameterError, match="every cluster weight must be finite"):
                SyntheticSpec(2, (5, 5), 3, (0, 1), ((1.0, 1.0, 1.0), (1.0, bad, 1.0)))


class TestLoadPreprocessed:
    def test_fixture_pipeline(self):
        datasets, dropped = load_preprocessed(FIXTURE, seed=42)
        assert dropped == 1
        assert [ds.node_id for ds in datasets] == [1, 2]
        assert [ds.source_label for ds in datasets] == ["A", "B"]
        sizes = [
            tuple(ds.split(s)[0].shape[0] for s in ("train", "val", "test"))
            for ds in datasets
        ]
        assert sizes == [(3, 1, 1), (2, 1, 1)]
        with pytest.raises(ParameterError, match="unknown split 'holdout'"):
            datasets[0].split("holdout")

    def test_train_columns_standardized(self):
        datasets, _ = load_preprocessed(FIXTURE, seed=42)
        for ds in datasets:
            X = ds.train[0]
            cols = X[:, ds.numeric_columns]
            assert np.all(np.abs(cols.mean(axis=0)) < 1e-10)
            assert np.all(np.abs(cols.std(axis=0) - 1.0) < 1e-10)

    def test_deterministic(self):
        a, _ = load_preprocessed(FIXTURE, seed=42)
        b, _ = load_preprocessed(FIXTURE, seed=42)
        for da, db in zip(a, b):
            assert np.array_equal(da.train[0], db.train[0])
            assert np.array_equal(da.train[1], db.train[1])


class TestDumpPreprocessed:
    def test_writes_one_csv_per_split(self, tmp_path):
        datasets, _ = load_preprocessed(FIXTURE, seed=42)
        written = dump_preprocessed(datasets, tmp_path / "dump")
        assert len(written) == 6
        sample = (tmp_path / "dump" / "node1_train.csv").read_text().strip().split("\n")
        assert sample[0].split(",") == list(FEATURE_NAMES) + ["label"]
        assert len(sample) == 1 + 3

    def test_exact_bytes_without_feature_names(self, tmp_path):
        # unnamed features are f0, f1, ...; values at %.17g, CRLF line ends, empty splits hold the header
        X = np.array([[1e300, -0.0], [1e-300, 0.1], [2.0, -3.5]])
        y = np.array([1.0, -0.0, 7.25])
        ds = LocalDataset(4, (X, y), (X[:1], y[:1]), (X[:0], y[:0]), numeric_columns=np.arange(2))
        written = dump_preprocessed([ds], tmp_path)
        assert [p.name for p in written] == ["node4_train.csv", "node4_val.csv", "node4_test.csv"]
        header, first = b"f0,f1,label\r\n", b"1.0000000000000001e+300,-0,1\r\n"
        rest = b"1e-300,0.10000000000000001,-0\r\n2,-3.5,7.25\r\n"
        assert [p.read_bytes() for p in written] == [header + first + rest, header + first, header]
