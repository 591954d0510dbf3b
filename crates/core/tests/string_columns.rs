//! Every string operator on every string codec against a raw-row oracle:
//! a dictionary column (`DictStr`), a plain column (`PlainStr`) and a
//! hierarchical column (`HierStr`) under an integer and under a string
//! dictionary parent. Each answer is checked on the in-memory block, on
//! the block after `to_bytes` / `from_bytes`, and through a table file
//! (lazy block handles and the table's drivers). Block lengths reach
//! past two 1 024-row unpack chunks, so the Hier entry stream crosses two
//! chunk boundaries. A serialized pool whose offsets split a character is
//! `Err(Corrupt)` at `from_bytes` for every string codec.

use std::collections::BTreeMap;
use std::sync::Arc;

use corra_columnar::block::DataBlock;
use corra_columnar::column::{Column, DataType};
use corra_columnar::error::Error;
use corra_columnar::schema::{Field, Schema};
use corra_columnar::selection::SelectionVector;
use corra_core::store::{SegmentedTable, TableReader, TableWriter};
use corra_core::{
    aggregate, decompress_column, query_both, query_column, scan, AggExpr, AggFunc, AggResult,
    AggValue, BlockView, ColumnPlan, CompressedBlock, CompressionConfig, GroupKey, Predicate,
    QueryOutput,
};

/// Child strings: the empty string, and every child under every parent
/// once a block has a few rows.
const CHILD: [&str; 4] = ["", "springfield", "oak", "Elm"];

/// The string targets: a dictionary, a plain column, and a hierarchical
/// child under the integer parent `pi` and under the string parent `st`.
const TARGETS: [&str; 4] = ["ds", "ps", "hi", "hs"];

/// Probe values: present ones, the empty string, and one absent from
/// every pool.
const PROBES: [&str; 4] = ["springfield", "", "Elm", "absent-value"];

/// The raw rows of one block.
struct Raw {
    pi: Vec<i64>,
    st: Vec<String>,
    child: Vec<String>,
}

impl Raw {
    fn new(n: usize) -> Self {
        Raw {
            pi: (0..n).map(|i| [7, -3, 12][i % 3]).collect(),
            st: (0..n)
                .map(|i| ["b", "a", ""][i / 2 % 3].to_owned())
                .collect(),
            child: (0..n).map(|i| CHILD[(i + i / 5) % 4].to_owned()).collect(),
        }
    }

    fn rows(&self) -> usize {
        self.child.len()
    }

    fn block(&self) -> (DataBlock, CompressionConfig) {
        let strings = |v: &[String]| Column::Utf8(v.iter().map(String::as_str).collect());
        let mut fields = vec![
            Field::new("pi", DataType::Int64),
            Field::new("st", DataType::Utf8),
        ];
        let mut columns = vec![Column::Int64(self.pi.clone()), strings(&self.st)];
        for name in TARGETS {
            fields.push(Field::new(name, DataType::Utf8));
            columns.push(strings(&self.child));
        }
        let under = |parent: &str| ColumnPlan::Hier {
            reference: parent.into(),
        };
        let cfg = CompressionConfig::baseline()
            .with("pi", ColumnPlan::Dict)
            .with("ps", ColumnPlan::Plain)
            .with("hi", under("pi"))
            .with("hs", under("st"));
        let block = DataBlock::new(Schema::new(fields).unwrap(), columns).unwrap();
        (block, cfg)
    }

    /// `GROUP BY` keys of `column` per row.
    fn keys(&self, column: &str) -> Vec<GroupKey> {
        match column {
            "pi" => self.pi.iter().map(|&v| GroupKey::Int(v)).collect(),
            "st" => self.st.iter().map(|s| GroupKey::Str(s.clone())).collect(),
            other => panic!("no group column {other}"),
        }
    }

    fn selections(&self) -> Vec<SelectionVector> {
        let n = self.rows() as u32;
        vec![
            SelectionVector::all(n as usize),
            SelectionVector::empty(),
            SelectionVector::new((0..n).step_by(3).collect()),
            SelectionVector::new(n.checked_sub(1).into_iter().collect()),
        ]
    }

    /// Rows where `column = value` (or `!=` when `negate`); `column` is a
    /// string target or the string parent.
    fn matching(&self, column: &str, value: &str, negate: bool) -> Vec<u32> {
        let rows = if column == "st" {
            &self.st
        } else {
            &self.child
        };
        (0..rows.len() as u32)
            .filter(|&i| (rows[i as usize] == value) != negate)
            .collect()
    }

    /// `func` per key of `GROUP BY group` over the child strings at
    /// `rows`: the non-empty groups, in key order.
    fn grouped(&self, func: AggFunc, group: &str, rows: &[u32]) -> Vec<(GroupKey, AggValue)> {
        let keys = self.keys(group);
        let mut groups: BTreeMap<GroupKey, Vec<usize>> = BTreeMap::new();
        for &i in rows {
            let i = i as usize;
            groups.entry(keys[i].clone()).or_default().push(i);
        }
        let folds = groups.into_iter();
        folds
            .map(|(k, rows)| (k, self.fold(func, rows.into_iter())))
            .collect()
    }

    /// `func` over the child strings at `rows`.
    fn fold(&self, func: AggFunc, rows: impl Iterator<Item = usize>) -> AggValue {
        let values: Vec<&str> = rows.map(|i| self.child[i].as_str()).collect();
        match func {
            AggFunc::Count => AggValue::Count(values.len() as u64),
            AggFunc::Min => AggValue::Str(values.iter().min().map(|s| s.to_string())),
            AggFunc::Max => AggValue::Str(values.iter().max().map(|s| s.to_string())),
            other => panic!("{other:?} is not a string aggregate"),
        }
    }
}

/// The filters the aggregates run under: none, a string equality on the
/// parent, its negation, an integer range on the parent, and an absent
/// value (an empty selection).
fn filters(raw: &Raw) -> Vec<(Option<Predicate>, Vec<u32>)> {
    let all = (0..raw.rows() as u32).collect::<Vec<_>>();
    let int_range: Vec<u32> = all
        .iter()
        .copied()
        .filter(|&i| raw.pi[i as usize] >= 0)
        .collect();
    vec![
        (None, all),
        (
            Some(Predicate::str_eq("st", "a")),
            raw.matching("st", "a", false),
        ),
        (
            Some(Predicate::str_ne("st", "a")),
            raw.matching("st", "a", true),
        ),
        (Some(Predicate::ge("pi", 0)), int_range),
        (Some(Predicate::str_eq("hs", "absent-value")), Vec::new()),
    ]
}

/// Every operator on `view` equals the raw-row oracle.
fn check_view<B: BlockView + ?Sized>(label: &str, view: &B, raw: &Raw) {
    for target in TARGETS {
        let label = format!("{label} {target} ({} rows)", raw.rows());
        // Gather.
        for sel in raw.selections() {
            let want: Vec<String> = sel
                .positions()
                .iter()
                .map(|&p| raw.child[p as usize].clone())
                .collect();
            let got = query_column(view, target, &sel).unwrap();
            assert_eq!(got, QueryOutput::Str(want.clone()), "{label}: gather");
            let both = query_both(view, target, &sel);
            match target {
                "hi" => {
                    let parents = sel.positions().into_iter().map(|p| raw.pi[p as usize]);
                    let want_ref = QueryOutput::Int(parents.collect());
                    assert_eq!(
                        both.unwrap(),
                        (QueryOutput::Str(want), want_ref),
                        "{label}: both"
                    );
                }
                "hs" => {
                    let parents = sel
                        .positions()
                        .into_iter()
                        .map(|p| raw.st[p as usize].clone());
                    let want_ref = QueryOutput::Str(parents.collect());
                    assert_eq!(
                        both.unwrap(),
                        (QueryOutput::Str(want), want_ref),
                        "{label}: both"
                    );
                }
                _ => assert!(both.is_err(), "{label}: a vertical target has no reference"),
            }
        }
        // `=` / `!=` and the negated `=`.
        for value in PROBES {
            let eq = raw.matching(target, value, false);
            let ne = raw.matching(target, value, true);
            for (pred, want) in [
                (Predicate::str_eq(target, value), &eq),
                (Predicate::str_ne(target, value), &ne),
                (Predicate::not(Predicate::str_eq(target, value)), &ne),
            ] {
                let got = scan(view, &pred).unwrap();
                assert_eq!(got.positions(), &want[..], "{label}: {pred:?}");
            }
        }
        // Scalar and filtered COUNT / MIN / MAX, and grouped under both
        // parents.
        for (filter, rows) in filters(raw) {
            for func in [AggFunc::Count, AggFunc::Min, AggFunc::Max] {
                let with = |expr: AggExpr| match &filter {
                    Some(pred) => expr.with_filter(pred.clone()),
                    None => expr,
                };
                let expr = with(AggExpr::of(func, target));
                let want = raw.fold(func, rows.iter().map(|&i| i as usize));
                assert_eq!(
                    aggregate(view, &expr).unwrap(),
                    AggResult::Scalar(want),
                    "{label}: {expr:?}"
                );
                for group in ["pi", "st"] {
                    let expr = with(AggExpr::of(func, target).with_group_by(group));
                    assert_eq!(
                        aggregate(view, &expr).unwrap(),
                        AggResult::Grouped(raw.grouped(func, group, &rows)),
                        "{label}: {expr:?}"
                    );
                }
            }
        }
        // Decode.
        let idx = view.index_of(target).unwrap();
        let want = Column::Utf8(raw.child.iter().map(String::as_str).collect());
        assert_eq!(
            decompress_column(view, idx).unwrap(),
            want,
            "{label}: decode"
        );
    }
}

/// `block` in a table file, as the one-segment table.
fn file_of(block: &CompressedBlock) -> SegmentedTable {
    let mut writer = TableWriter::new(Vec::new()).unwrap();
    writer.write_block(block).unwrap();
    let reader = TableReader::from_bytes(writer.finish().unwrap()).unwrap();
    SegmentedTable::from_readers(vec![Arc::new(reader)])
}

#[test]
fn string_operators_match_the_row_oracle_in_memory_serialized_and_stored() {
    for n in [0, 1, 2, 37, 1_100, 2_100] {
        let raw = Raw::new(n);
        let (data, cfg) = raw.block();
        let block = CompressedBlock::compress(&data, &cfg).unwrap();
        for (name, scheme) in [
            ("ds", "dict-str"),
            ("ps", "plain-str"),
            ("hi", "corra-hier"),
            ("hs", "corra-hier"),
        ] {
            assert_eq!(block.codec(name).unwrap().scheme(), scheme, "{name}");
        }
        check_view("memory", &block, &raw);
        let back = CompressedBlock::from_bytes(&block.to_bytes().unwrap()).unwrap();
        check_view("from_bytes", &back, &raw);
        let reader = file_of(&block);
        check_view("file", &reader.block_handle(0).unwrap(), &raw);
        check_view("file block", &reader.read_block(0).unwrap(), &raw);
    }
}

#[test]
fn table_reader_drivers_match_the_row_oracle() {
    let raw = Raw::new(1_100);
    let (data, cfg) = raw.block();
    let reader = file_of(&CompressedBlock::compress(&data, &cfg).unwrap());
    for target in TARGETS {
        for value in PROBES {
            let pred = Predicate::str_eq(target, value);
            let (sels, stats) = reader.scan_blocks(&pred).unwrap();
            let want = raw.matching(target, value, false);
            assert_eq!(sels[0].positions(), &want[..], "{target} = {value:?}");
            assert_eq!(stats.rows_matched, want.len());
        }
        for (filter, rows) in filters(&raw) {
            let mut expr = AggExpr::min(target).with_group_by("st");
            if let Some(pred) = filter {
                expr = expr.with_filter(pred);
            }
            assert_eq!(
                reader.aggregate(&expr).unwrap().0,
                AggResult::Grouped(raw.grouped(AggFunc::Min, "st", &rows)),
                "{target}: {expr:?}"
            );
        }
        let want = Column::Utf8(raw.child.iter().map(String::as_str).collect());
        assert_eq!(reader.read_column(0, target).unwrap(), want, "{target}");
    }
}

/// `data` compressed under `cfg`, as three blocks the operators run on: in
/// memory, after `to_bytes` / `from_bytes`, and read back from a table
/// file.
fn views(data: &DataBlock, cfg: &CompressionConfig) -> Vec<CompressedBlock> {
    let block = CompressedBlock::compress(data, cfg).unwrap();
    let back = CompressedBlock::from_bytes(&block.to_bytes().unwrap()).unwrap();
    let stored = file_of(&block).read_block(0).unwrap();
    vec![block, back, stored]
}

#[test]
fn dict_str_filter_eq_and_gather() {
    let strings = |v: &[&str]| {
        DataBlock::new(
            Schema::new(vec![Field::new("city", DataType::Utf8)]).unwrap(),
            vec![Column::Utf8(v.iter().copied().collect())],
        )
        .unwrap()
    };
    let cfg = CompressionConfig::baseline();
    for block in views(&strings(&["NYC", "Naples", "NYC", "Cortland"]), &cfg) {
        let eq = |v: &str| scan(&block, &Predicate::str_eq("city", v)).unwrap();
        let ne = |v: &str| scan(&block, &Predicate::str_ne("city", v)).unwrap();
        assert_eq!(eq("NYC").positions(), &[0, 2]);
        assert_eq!(ne("NYC").positions(), &[1, 3]);
        assert!(eq("Miami").is_empty());
        assert_eq!(ne("Miami").positions(), &[0, 1, 2, 3]);
    }
    for block in views(&strings(&["a", "b", "c", "a"]), &cfg) {
        let got = query_column(&block, "city", &SelectionVector::new(vec![1, 3])).unwrap();
        assert_eq!(got, QueryOutput::Str(vec!["b".into(), "a".into()]));
    }
}

#[test]
fn hier_str_decode_and_gather_state_city() {
    // state -> city, the paper's DMV pair: the states' first-occurrence
    // dictionary codes are the parent codes [0, 0, 1, 1, 0, 1].
    let block = |states: &[&str], cities: &[&str]| {
        DataBlock::new(
            Schema::new(vec![
                Field::new("state", DataType::Utf8),
                Field::new("city", DataType::Utf8),
            ])
            .unwrap(),
            vec![
                Column::Utf8(states.iter().copied().collect()),
                Column::Utf8(cities.iter().copied().collect()),
            ],
        )
        .unwrap()
    };
    let cfg = CompressionConfig::baseline().with(
        "city",
        ColumnPlan::Hier {
            reference: "state".into(),
        },
    );
    let cities = ["NYC", "Albany", "Miami", "Naples", "NYC", "Miami"];
    let data = block(&["NY", "NY", "FL", "FL", "NY", "FL"], &cities);
    for view in views(&data, &cfg) {
        let want = Column::Utf8(cities.iter().copied().collect());
        assert_eq!(view.decompress("city").unwrap(), want);
        let sel = SelectionVector::new(vec![0, 3]);
        let got = query_column(&view, "city", &sel).unwrap();
        assert_eq!(got, QueryOutput::Str(vec!["NYC".into(), "Naples".into()]));
    }
    for view in views(&block(&["x", "y", "x"], &["A", "B", "C"]), &cfg) {
        let got = query_column(&view, "city", &SelectionVector::new(vec![1, 2])).unwrap();
        assert_eq!(got, QueryOutput::Str(vec!["B".into(), "C".into()]));
    }
}

#[test]
fn pools_whose_offsets_split_a_character_are_corrupt() {
    // `["日", "x"]` as every string codec, then the serialized pool's
    // offsets `[0, 3, 4]` rewritten to `[0, 1, 4]`: the heap stays UTF-8,
    // but string 0 would end inside "日".
    let data = DataBlock::new(
        Schema::new(vec![
            Field::new("p", DataType::Int64),
            Field::new("s", DataType::Utf8),
        ])
        .unwrap(),
        vec![
            Column::Int64(vec![5, 5]),
            Column::Utf8(["日", "x"].into_iter().collect()),
        ],
    )
    .unwrap();
    let pool = [
        &2u64.to_le_bytes()[..],
        &4u64.to_le_bytes(),
        &0u32.to_le_bytes(),
        &3u32.to_le_bytes(),
        &4u32.to_le_bytes(),
        "日x".as_bytes(),
    ]
    .concat();
    let hier = ColumnPlan::Hier {
        reference: "p".into(),
    };
    for (plan, scheme) in [
        (ColumnPlan::Dict, "dict-str"),
        (ColumnPlan::Plain, "plain-str"),
        (hier, "corra-hier"),
    ] {
        let cfg = CompressionConfig::baseline()
            .with("p", ColumnPlan::Dict)
            .with("s", plan);
        let block = CompressedBlock::compress(&data, &cfg).unwrap();
        assert_eq!(block.codec("s").unwrap().scheme(), scheme);
        let mut bytes = block.to_bytes().unwrap();
        let at = bytes.windows(pool.len()).position(|w| w == pool);
        let at = at.unwrap_or_else(|| panic!("{scheme}: pool not found"));
        bytes[at + 20..at + 24].copy_from_slice(&1u32.to_le_bytes());
        let back = CompressedBlock::from_bytes(&bytes);
        assert!(matches!(back, Err(Error::Corrupt(_))), "{scheme}: {back:?}");
    }
}
