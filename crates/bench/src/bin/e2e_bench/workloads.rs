//! The four workloads. Each runs the whole pipeline (encode → append →
//! compact → reopen → cold / warm / in-memory query mix → serve), so every
//! metric exists on every workload; they differ in the data, the
//! correlation plan, the batch shape and the queries, which is what puts
//! a different layer on the critical path of each.
//!
//! Sizes are fixed per workload: the `--seconds` budget scales passes and
//! cycles, never rows. `--quick` is the one exception, for smoke tests.

use crate::data::{AggFn, Pred, Query, RawTable, XorShift};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dataset {
    Lineitem,
    Taxi,
    Dmv,
    Timeseries,
}

/// A horizontal (correlation-aware) plan for one column.
#[derive(Debug, Clone, PartialEq)]
pub enum Plan {
    NonHier(&'static str),
    Hier(&'static str),
    MultiRef(Vec<Vec<&'static str>>),
}

/// A compression configuration: a default chooser plus per-column plans.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Config {
    /// Full vertical menu (Delta / RLE / Frequency too) instead of the
    /// paper's FOR / Dict baseline chooser.
    pub full_menu: bool,
    pub plans: Vec<(&'static str, Plan)>,
}

/// How a write cycle feeds the table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ingest {
    /// All batches through `append_batches`, then one compaction.
    Pipelined,
    /// One `append` per batch, compacting after every `n` appends.
    SerialCompactEvery(usize),
}

/// One per-column saving reported beside the table-level one: the
/// column's bytes under `config` against the vertical baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct Saving {
    pub column: &'static str,
    pub config: Config,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    pub name: &'static str,
    pub dataset: Dataset,
    pub rows: usize,
    /// Appends per write cycle; every batch holds `rows / batches` rows.
    pub batches: usize,
    pub block_rows: usize,
    pub ingest: Ingest,
    /// Segments at most this large are merged by compaction.
    pub merge_threshold_bytes: u64,
    pub config: Config,
    /// `compressor.saving.target` / `.target2`.
    pub savings: [Saving; 2],
    /// Column digested after every reopen.
    pub verify_column: &'static str,
    /// Requests per serve pass.
    pub serve_requests: usize,
}

pub const NAMES: [&str; 4] = ["lineitem_e2e", "taxi_mem", "dmv_serve", "ts_ingest"];

/// The query-mix slots, in pass order. Every workload binds every slot.
pub const MIX_SLOTS: [&str; 10] = [
    "scan.range",
    "scan.cmp",
    "aggregate.sum",
    "aggregate.max",
    "aggregate.filtered",
    "operator.topk",
    "operator.gather_topk",
    "store.point_read",
    "query.materialize",
    "compressor.decompress",
];

/// The serve request kinds. `serve.point` is 75 % of requests.
pub const SERVE_KINDS: [&str; 4] = ["serve.point", "serve.scan_a", "serve.scan_b", "serve.agg"];

const TOP_K: usize = 100;

fn nonhier(column: &'static str, reference: &'static str) -> (&'static str, Plan) {
    (column, Plan::NonHier(reference))
}

impl Spec {
    /// `quick` shrinks rows 64× (and the merge threshold with them),
    /// blocks, batch count and requests 4×, for smoke tests; its numbers
    /// are not comparable with a full run.
    pub fn named(name: &str, quick: bool) -> Option<Spec> {
        let mut spec = match name {
            // Integer-only, NonHier on both dependent dates, few large
            // pipelined batches: ingest is encode-bound, reads are
            // store-bound (fetch + verify + deserialize dominate a cold
            // pass over 3 narrow columns).
            "lineitem_e2e" => {
                let config = Config {
                    full_menu: false,
                    plans: vec![
                        nonhier("l_receiptdate", "l_shipdate"),
                        nonhier("l_commitdate", "l_shipdate"),
                    ],
                };
                Spec {
                    name: "lineitem_e2e",
                    dataset: Dataset::Lineitem,
                    rows: 2_097_152,
                    batches: 32,
                    block_rows: 16_384,
                    ingest: Ingest::Pipelined,
                    merge_threshold_bytes: 1 << 30,
                    savings: [
                        Saving {
                            column: "l_receiptdate",
                            config: config.clone(),
                        },
                        Saving {
                            column: "l_commitdate",
                            config: config.clone(),
                        },
                    ],
                    config,
                    verify_column: "l_receiptdate",
                    serve_requests: 240,
                }
            }
            // Eleven columns, MultiRef `total_amount` over eight
            // references plus NonHier `dropoff`: kernel-bound — the
            // MultiRef scan / aggregate / top-k and the paper's
            // materialize-at-positions query dominate every pass.
            "taxi_mem" => {
                let config = Config {
                    full_menu: false,
                    plans: vec![
                        nonhier("dropoff", "pickup"),
                        (
                            "total_amount",
                            Plan::MultiRef(vec![
                                vec![
                                    "mta_tax",
                                    "fare_amount",
                                    "improvement_surcharge",
                                    "extra",
                                    "tip_amount",
                                    "tolls_amount",
                                ],
                                vec!["congestion_surcharge"],
                                vec!["airport_fee"],
                            ]),
                        ),
                    ],
                };
                Spec {
                    name: "taxi_mem",
                    dataset: Dataset::Taxi,
                    rows: 524_288,
                    batches: 16,
                    block_rows: 16_384,
                    ingest: Ingest::Pipelined,
                    merge_threshold_bytes: 1 << 30,
                    savings: [
                        Saving {
                            column: "total_amount",
                            config: config.clone(),
                        },
                        Saving {
                            column: "dropoff",
                            config: config.clone(),
                        },
                    ],
                    config,
                    verify_column: "total_amount",
                    serve_requests: 240,
                }
            }
            // Two string columns and Hier `zip` under `city`: the
            // workload for dictionary decode, string predicates, GROUP BY
            // and, in its serve phases, cache pressure.
            "dmv_serve" => {
                let config = Config {
                    full_menu: false,
                    plans: vec![("zip", Plan::Hier("city"))],
                };
                Spec {
                    name: "dmv_serve",
                    dataset: Dataset::Dmv,
                    rows: 1_048_576,
                    batches: 16,
                    block_rows: 32_768,
                    ingest: Ingest::Pipelined,
                    merge_threshold_bytes: 1 << 30,
                    savings: [
                        Saving {
                            column: "zip",
                            config: config.clone(),
                        },
                        // The paper's second DMV pair needs its own
                        // configuration: a column cannot be a reference
                        // and diff-encoded at once.
                        Saving {
                            column: "city",
                            config: Config {
                                full_menu: false,
                                plans: vec![("city", Plan::Hier("state"))],
                            },
                        },
                    ],
                    config,
                    verify_column: "zip",
                    serve_requests: 240,
                }
            }
            // Many small serial appends under the full chooser menu with
            // bounded compaction: chooser-, commit- and namespace-bound
            // on the write side, multi-segment with zone pruning on the
            // read side.
            "ts_ingest" => {
                let config = Config {
                    full_menu: true,
                    plans: Vec::new(),
                };
                Spec {
                    name: "ts_ingest",
                    dataset: Dataset::Timeseries,
                    rows: 1_048_576,
                    batches: 64,
                    block_rows: 16_384,
                    ingest: Ingest::SerialCompactEvery(16),
                    // 16 appended segments (≈ 90 KB each) merge into one
                    // above the threshold, which later compactions leave
                    // alone: rewrite stays bounded at one pass per row.
                    merge_threshold_bytes: 1 << 20,
                    savings: [
                        Saving {
                            column: "ts",
                            config: config.clone(),
                        },
                        Saving {
                            column: "device",
                            config: config.clone(),
                        },
                    ],
                    config,
                    verify_column: "ts",
                    serve_requests: 480,
                }
            }
            _ => return None,
        };
        if quick {
            spec.rows /= 64;
            spec.merge_threshold_bytes /= 64;
            spec.block_rows /= 4;
            spec.batches /= 4;
            spec.serve_requests /= 4;
            if let Ingest::SerialCompactEvery(n) = &mut spec.ingest {
                *n /= 4;
            }
        }
        Some(spec)
    }

    pub fn batch_rows(&self) -> usize {
        self.rows / self.batches
    }

    pub fn n_blocks(&self) -> usize {
        self.rows.div_ceil(self.block_rows)
    }

    /// Columns the per-column savings and the table-level
    /// `saving_vs_vertical` are taken over: the ones the main
    /// configuration encodes differently from the vertical baseline.
    pub fn diff_columns(&self) -> Vec<&'static str> {
        if self.config.plans.is_empty() {
            self.savings.iter().map(|s| s.column).collect()
        } else {
            self.config.plans.iter().map(|(c, _)| *c).collect()
        }
    }

    /// The ten-query mix, bound to this workload's columns. Constants
    /// come from quantiles of the generated data, so selectivities hold
    /// at any size and seed.
    pub fn mix(&self, data: &RawTable) -> Vec<(&'static str, Query)> {
        let q = |column: &str, at: f64| quantile(data.ints(column), at);
        let mid_block = self.n_blocks() / 2;
        let scan = |p: Pred| Query::Scan(p);
        let agg = |func, column, filter| Query::Agg {
            func,
            column: Some(column),
            filter,
            group_by: None,
        };
        let queries: [Query; 10] = match self.dataset {
            Dataset::Lineitem => {
                let c = "l_receiptdate";
                [
                    scan(Pred::Between(c, q(c, 0.45), q(c, 0.55))),
                    scan(Pred::Ge("l_shipdate", q("l_shipdate", 0.85))),
                    agg(AggFn::Sum, c, None),
                    agg(AggFn::Max, "l_commitdate", None),
                    Query::Agg {
                        func: AggFn::Count,
                        column: None,
                        filter: Some(Pred::Lt("l_commitdate", q("l_commitdate", 0.2))),
                        group_by: None,
                    },
                    Query::TopK {
                        column: c,
                        k: TOP_K,
                    },
                    Query::GatherTopK {
                        column: c,
                        k: TOP_K,
                        others: vec!["l_shipdate", "l_commitdate"],
                    },
                    Query::Point {
                        block: mid_block,
                        column: "l_commitdate",
                    },
                    Query::Materialize {
                        column: c,
                        selectivity: 0.01,
                    },
                    Query::Decompress(c),
                ]
            }
            Dataset::Taxi => {
                let c = "total_amount";
                let rich = q(c, 0.8);
                [
                    scan(Pred::Between(
                        "dropoff",
                        q("dropoff", 0.45),
                        q("dropoff", 0.55),
                    )),
                    scan(Pred::Ge(c, rich)),
                    agg(AggFn::Sum, c, None),
                    agg(AggFn::Max, "fare_amount", None),
                    agg(AggFn::Avg, "tip_amount", Some(Pred::Ge(c, rich))),
                    Query::TopK {
                        column: c,
                        k: TOP_K,
                    },
                    Query::GatherTopK {
                        column: c,
                        k: TOP_K,
                        others: vec!["fare_amount", "dropoff"],
                    },
                    Query::Point {
                        block: mid_block,
                        column: c,
                    },
                    Query::Materialize {
                        column: c,
                        selectivity: 0.01,
                    },
                    Query::Decompress(c),
                ]
            }
            Dataset::Dmv => {
                let c = "zip";
                [
                    scan(Pred::Between(c, q(c, 0.45), q(c, 0.55))),
                    scan(Pred::StrEq("state", "NY")),
                    agg(AggFn::Sum, c, None),
                    agg(AggFn::Max, c, None),
                    Query::Agg {
                        func: AggFn::Count,
                        column: None,
                        filter: Some(Pred::StrEq("state", "NY")),
                        group_by: None,
                    },
                    Query::TopK {
                        column: c,
                        k: TOP_K,
                    },
                    Query::GatherTopK {
                        column: c,
                        k: TOP_K,
                        others: vec!["city", "state"],
                    },
                    Query::Point {
                        block: mid_block,
                        column: "city",
                    },
                    Query::Materialize {
                        column: c,
                        selectivity: 0.01,
                    },
                    Query::Decompress(c),
                ]
            }
            Dataset::Timeseries => {
                let c = "latency_us";
                [
                    scan(Pred::Between(c, q(c, 0.45), q(c, 0.55))),
                    // Monotonic column: footer zone maps prune most blocks.
                    scan(Pred::Ge("ts", q("ts", 0.9))),
                    agg(AggFn::Sum, c, None),
                    agg(AggFn::Max, "ts", None),
                    agg(AggFn::Avg, c, Some(Pred::StrEq("level", "error"))),
                    Query::TopK {
                        column: "ts",
                        k: TOP_K,
                    },
                    Query::GatherTopK {
                        column: "ts",
                        k: TOP_K,
                        others: vec!["device", "level"],
                    },
                    Query::Point {
                        block: mid_block,
                        column: "device",
                    },
                    Query::Materialize {
                        column: "ts",
                        selectivity: 0.01,
                    },
                    Query::Decompress("ts"),
                ]
            }
        };
        MIX_SLOTS.into_iter().zip(queries).collect()
    }

    /// One serve pass: 75 % point reads (80 % of them over the hottest
    /// 20 % of blocks), the rest split evenly over the three whole-table
    /// kinds, shuffled by `seed`. Returns `(kind index into
    /// SERVE_KINDS, query)`.
    pub fn serve_requests(&self, mix: &[(&'static str, Query)], seed: u64) -> Vec<(usize, Query)> {
        let slot = |name: &str| -> Query {
            mix.iter()
                .find(|(s, _)| *s == name)
                .map(|(_, q)| q.clone())
                .expect("slot is bound")
        };
        let count_by = |column| Query::Agg {
            func: AggFn::Count,
            column: None,
            filter: None,
            group_by: Some(column),
        };
        let (point_columns, agg): ([&'static str; 3], Query) = match self.dataset {
            Dataset::Lineitem => (
                ["l_receiptdate", "l_shipdate", "l_commitdate"],
                slot("aggregate.sum"),
            ),
            Dataset::Taxi => (
                ["total_amount", "dropoff", "fare_amount"],
                slot("aggregate.sum"),
            ),
            // GROUP BY needs a dictionary-encoded column; strings always
            // are, integer columns only when the chooser says so.
            Dataset::Dmv => (["zip", "city", "state"], count_by("state")),
            Dataset::Timeseries => (["ts", "device", "latency_us"], count_by("level")),
        };
        let whole_table = [slot("scan.range"), slot("scan.cmp"), agg];

        let n_blocks = self.n_blocks();
        let mut rng = XorShift::new(seed ^ 0x5e7e);
        let mut order: Vec<usize> = (0..n_blocks).collect();
        for i in (1..n_blocks).rev() {
            order.swap(i, rng.below(i + 1));
        }
        let hot = &order[..n_blocks.div_ceil(5)];
        // The composition is exact — every fourth request whole-table,
        // the kinds in turn, four point reads in five on a hot block — so
        // seeds change which blocks and what order, never how much work.
        let mut points = 0;
        let mut stream: Vec<(usize, Query)> = (0..self.serve_requests)
            .map(|i| {
                if i % 4 == 3 {
                    let kind = (i / 4) % 3;
                    (1 + kind, whole_table[kind].clone())
                } else {
                    points += 1;
                    let block = if points % 5 == 0 {
                        rng.below(n_blocks)
                    } else {
                        hot[rng.below(hot.len())]
                    };
                    let column = point_columns[points % 3];
                    (0, Query::Point { block, column })
                }
            })
            .collect();
        for i in (1..stream.len()).rev() {
            stream.swap(i, rng.below(i + 1));
        }
        stream
    }
}

/// The value at rank `at` (0..=1) of `values`.
pub fn quantile(values: &[i64], at: f64) -> i64 {
    let mut v = values.to_vec();
    let k = ((v.len() - 1) as f64 * at) as usize;
    *v.select_nth_unstable(k).1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::RawColumn;

    #[test]
    fn every_name_has_a_spec_with_whole_batches_and_blocks() {
        for quick in [false, true] {
            for name in NAMES {
                let s = Spec::named(name, quick).expect(name);
                assert_eq!(s.name, name);
                assert_eq!(s.rows % s.batches, 0, "{name}");
                assert_eq!(s.rows % s.block_rows, 0, "{name}");
                if let Ingest::SerialCompactEvery(n) = s.ingest {
                    assert!(n >= 2 && s.batches % n == 0, "{name}");
                }
            }
        }
        assert!(Spec::named("nope", false).is_none());
    }

    #[test]
    fn quantile_picks_ranks() {
        let v: Vec<i64> = (0..101).rev().collect();
        assert_eq!(quantile(&v, 0.0), 0);
        assert_eq!(quantile(&v, 0.5), 50);
        assert_eq!(quantile(&v, 1.0), 100);
    }

    #[test]
    fn serve_stream_is_seeded_and_three_quarters_points() {
        let spec = Spec::named("lineitem_e2e", true).unwrap();
        let col = || RawColumn::Int((0..spec.rows as i64).collect());
        let data = RawTable {
            names: vec!["l_shipdate", "l_commitdate", "l_receiptdate"],
            columns: vec![col(), col(), col()],
        };
        let mix = spec.mix(&data);
        let a = spec.serve_requests(&mix, 1);
        assert_eq!(a, spec.serve_requests(&mix, 1));
        assert_ne!(a, spec.serve_requests(&mix, 2));
        let of_kind = |kind| a.iter().filter(|(k, _)| *k == kind).count();
        assert_eq!(of_kind(0) * 4, a.len() * 3);
        assert_eq!((of_kind(1), of_kind(2), of_kind(3)), (5, 5, 5));
        assert!(a
            .iter()
            .all(|(k, q)| (*k == 0) == matches!(q, Query::Point { .. })));
    }
}
