//! The oracle: expected answers for every query of every mix, from plain
//! loops over the raw generated columns. It shares no code with the
//! kernels it checks. A mismatch is a failed operation, never a panic.

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::data::{selection, AggFn, Answer, Digest, Key, Pred, Query, RawColumn, RawTable};

pub struct Oracle {
    data: Arc<RawTable>,
    block_rows: usize,
    seed: u64,
    /// Answers already derived, by query. Lists stay short (one entry per
    /// distinct request), so a linear probe is enough.
    known: Vec<(Query, Answer)>,
}

impl Oracle {
    /// `block_rows` fixes the table's block layout (every block full
    /// except possibly the last); `seed` the selection vectors.
    pub fn new(data: Arc<RawTable>, block_rows: usize, seed: u64) -> Self {
        Self {
            data,
            block_rows,
            seed,
            known: Vec::new(),
        }
    }

    /// Derives and remembers the answers to `queries` ahead of the timed
    /// phases, so checking costs a comparison.
    pub fn prepare<'q>(&mut self, queries: impl IntoIterator<Item = &'q Query>) {
        for q in queries {
            self.expected(q);
        }
    }

    /// Whether the engine's normalized answer to `q` is the right one.
    pub fn check(&mut self, q: &Query, got: &Answer) -> bool {
        if let (Query::GatherTopK { column, others, .. }, Answer::Gather { .. }) = (q, got) {
            let Answer::TopK(want) = self.expected(q) else {
                return false;
            };
            return self.check_gather(column, others, &want, got);
        }
        answers_match(&self.expected(q), got)
    }

    /// Row count and digest of `column` over the whole table — what a
    /// reopened table must still hold.
    pub fn column_digest(&self, column: &str) -> Answer {
        digest_rows(self.data.column(column), 0..self.data.rows())
    }

    fn expected(&mut self, q: &Query) -> Answer {
        if let Some((_, a)) = self.known.iter().find(|(k, _)| k == q) {
            return a.clone();
        }
        let answer = self.derive(q);
        self.known.push((q.clone(), answer.clone()));
        answer
    }

    fn derive(&self, q: &Query) -> Answer {
        let rows = self.data.rows();
        match q {
            Query::Scan(pred) => {
                let mut d = Digest::new();
                let keep = self.matcher(pred);
                (0..rows).filter(|&i| keep(i)).for_each(|i| d.u64(i as u64));
                Answer::Rows {
                    count: d.count(),
                    digest: d.finish(),
                }
            }
            Query::Agg {
                func,
                column,
                filter,
                group_by,
            } => {
                let keep: Box<dyn Fn(usize) -> bool + '_> = match filter {
                    Some(pred) => self.matcher(pred),
                    None => Box::new(|_| true),
                };
                match group_by {
                    None => self.fold(*func, *column, (0..rows).filter(|&i| keep(i))),
                    Some(by) => {
                        debug_assert_eq!(*func, AggFn::Count, "mixes only group COUNT");
                        let mut groups: BTreeMap<Key, u64> = BTreeMap::new();
                        for i in (0..rows).filter(|&i| keep(i)) {
                            let key = match self.data.column(by) {
                                RawColumn::Int(v) => Key::Int(v[i]),
                                RawColumn::Str(v) => Key::Str(v[i].clone()),
                            };
                            *groups.entry(key).or_default() += 1;
                        }
                        Answer::Groups(groups.into_iter().collect())
                    }
                }
            }
            // The winners' values; which of several tied rows wins is the
            // engine's business, checked row by row in `check_gather`.
            Query::TopK { column, k } | Query::GatherTopK { column, k, .. } => {
                let mut v = self.data.ints(column).to_vec();
                v.sort_unstable_by(|a, b| b.cmp(a));
                v.truncate(*k);
                Answer::TopK(v)
            }
            Query::Point { block, column } => {
                let start = block * self.block_rows;
                let end = (start + self.block_rows).min(rows);
                digest_rows(self.data.column(column), start..end)
            }
            Query::Materialize {
                column,
                selectivity,
            } => {
                let values = self.data.ints(column);
                let mut d = Digest::new();
                for (block, start) in (0..rows).step_by(self.block_rows).enumerate() {
                    let len = self.block_rows.min(rows - start);
                    for pos in selection(self.seed, block, len, *selectivity) {
                        d.i64(values[start + pos as usize]);
                    }
                }
                Answer::Values {
                    count: d.count(),
                    digest: d.finish(),
                }
            }
            Query::Decompress(column) => self.column_digest(column),
        }
    }

    fn matcher(&self, pred: &Pred) -> Box<dyn Fn(usize) -> bool + '_> {
        match *pred {
            Pred::Between(c, lo, hi) => {
                let v = self.data.ints(c);
                Box::new(move |i| lo <= v[i] && v[i] <= hi)
            }
            Pred::Ge(c, x) => {
                let v = self.data.ints(c);
                Box::new(move |i| v[i] >= x)
            }
            Pred::Lt(c, x) => {
                let v = self.data.ints(c);
                Box::new(move |i| v[i] < x)
            }
            Pred::StrEq(c, s) => match self.data.column(c) {
                RawColumn::Str(v) => Box::new(move |i| v[i] == s),
                RawColumn::Int(_) => panic!("workload compares integer column {c} to a string"),
            },
        }
    }

    fn fold(&self, func: AggFn, column: Option<&str>, rows: impl Iterator<Item = usize>) -> Answer {
        if func == AggFn::Count {
            return Answer::Count(rows.count() as u64);
        }
        let v = self
            .data
            .ints(column.expect("only COUNT goes without a column"));
        let (mut n, mut sum, mut max) = (0u64, 0i128, i64::MIN);
        for i in rows {
            n += 1;
            sum += i128::from(v[i]);
            max = max.max(v[i]);
        }
        // SQL: an aggregate over no rows is NULL.
        let any = n > 0;
        match func {
            AggFn::Sum => Answer::Sum(any.then_some(sum)),
            AggFn::Max => Answer::Int(any.then_some(max)),
            AggFn::Avg => Answer::Avg(any.then(|| sum as f64 / n as f64)),
            AggFn::Count => unreachable!("handled above"),
        }
    }

    fn check_gather(&self, column: &str, others: &[&str], want: &[i64], got: &Answer) -> bool {
        let Answer::Gather {
            values,
            rows,
            others: got_others,
        } = got
        else {
            return false;
        };
        let n = self.data.rows() as u64;
        let target = self.data.ints(column);
        let mut distinct = rows.clone();
        distinct.sort_unstable();
        distinct.dedup();
        values == want
            && rows.len() == values.len()
            && distinct.len() == rows.len()
            && rows.iter().all(|&r| r < n)
            && rows
                .iter()
                .zip(values)
                .all(|(&r, &v)| target[r as usize] == v)
            && others.len() == got_others.len()
            && others.iter().zip(got_others).all(|(name, &got)| {
                let want = match self.data.column(name) {
                    RawColumn::Int(v) => Digest::of_ints(rows.iter().map(|&r| v[r as usize])),
                    RawColumn::Str(v) => {
                        Digest::of_strs(rows.iter().map(|&r| v[r as usize].as_str()))
                    }
                };
                want.1 == got
            })
    }
}

fn digest_rows(column: &RawColumn, rows: std::ops::Range<usize>) -> Answer {
    let (count, digest) = match column {
        RawColumn::Int(v) => Digest::of_ints(v[rows].iter().copied()),
        RawColumn::Str(v) => Digest::of_strs(v[rows].iter().map(String::as_str)),
    };
    Answer::Values { count, digest }
}

/// Equality, except that two averages may differ in the last bits: the
/// engine is free to divide its exact sum by its count in another order.
fn answers_match(want: &Answer, got: &Answer) -> bool {
    match (want, got) {
        (Answer::Avg(Some(a)), Answer::Avg(Some(b))) => (a - b).abs() <= 1e-9 * a.abs().max(1.0),
        _ => want == got,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ROWS: usize = 20_000;
    const BLOCK: usize = 4_096;

    /// `a` = row number, `b` = a mod 7, `s` cycles over three strings.
    fn table() -> Arc<RawTable> {
        Arc::new(RawTable {
            names: vec!["a", "b", "s"],
            columns: vec![
                RawColumn::Int((0..ROWS as i64).collect()),
                RawColumn::Int((0..ROWS as i64).map(|i| i % 7).collect()),
                RawColumn::Str(
                    (0..ROWS)
                        .map(|i| ["x", "y", "z"][i % 3].to_owned())
                        .collect(),
                ),
            ],
        })
    }

    fn agg(func: AggFn, column: Option<&'static str>, filter: Option<Pred>) -> Query {
        Query::Agg {
            func,
            column,
            filter,
            group_by: None,
        }
    }

    #[test]
    fn scans_count_and_digest_matching_rows() {
        let t = table();
        let mut o = Oracle::new(t.clone(), BLOCK, 1);
        let (count, digest) = Digest::of_ints(100..=199);
        let q = Query::Scan(Pred::Between("a", 100, 199));
        assert!(o.check(&q, &Answer::Rows { count, digest }));
        assert!(!o.check(
            &q,
            &Answer::Rows {
                count,
                digest: digest ^ 1
            }
        ));
        let q = Query::Scan(Pred::StrEq("s", "y"));
        let Answer::Rows { count, .. } = o.expected(&q) else {
            panic!("scan answers are row lists")
        };
        assert_eq!(count as usize, ROWS / 3 + 1);
    }

    #[test]
    fn aggregates_fold_filtered_rows() {
        let t = table();
        let mut o = Oracle::new(t.clone(), BLOCK, 1);
        let n = ROWS as i128;
        assert!(o.check(
            &agg(AggFn::Sum, Some("a"), None),
            &Answer::Sum(Some(n * (n - 1) / 2))
        ));
        assert!(o.check(
            &agg(AggFn::Max, Some("b"), Some(Pred::Lt("a", 5))),
            &Answer::Int(Some(4))
        ));
        assert!(o.check(
            &agg(AggFn::Count, None, Some(Pred::Ge("a", 19_990))),
            &Answer::Count(10)
        ));
        assert!(o.check(
            &agg(AggFn::Avg, Some("a"), Some(Pred::Lt("a", 3))),
            &Answer::Avg(Some(1.0 + 1e-13))
        ));
        assert!(!o.check(
            &agg(AggFn::Avg, Some("a"), Some(Pred::Lt("a", 3))),
            &Answer::Avg(Some(1.001))
        ));
        assert!(o.check(
            &agg(AggFn::Sum, Some("a"), Some(Pred::Lt("a", 0))),
            &Answer::Sum(None)
        ));
    }

    #[test]
    fn groups_come_back_in_key_order() {
        let t = table();
        let mut o = Oracle::new(t.clone(), BLOCK, 1);
        let q = Query::Agg {
            func: AggFn::Count,
            column: None,
            filter: None,
            group_by: Some("s"),
        };
        let key = |s: &str| Key::Str(s.to_owned());
        let want = vec![(key("x"), 6_667), (key("y"), 6_667), (key("z"), 6_666)];
        assert!(o.check(&q, &Answer::Groups(want.clone())));
        let mut swapped = want;
        swapped.swap(0, 1);
        assert!(!o.check(&q, &Answer::Groups(swapped)));
    }

    #[test]
    fn top_k_and_gather_accept_any_tied_winner_but_no_wrong_row() {
        let t = table();
        let mut o = Oracle::new(t.clone(), BLOCK, 1);
        assert!(o.check(
            &Query::TopK { column: "b", k: 3 },
            &Answer::TopK(vec![6, 6, 6])
        ));
        let q = Query::GatherTopK {
            column: "b",
            k: 2,
            others: vec!["a", "s"],
        };
        // Rows 6 and 13 both hold b = 6; so do many others.
        let gather = |rows: Vec<u64>| Answer::Gather {
            values: vec![6, 6],
            others: vec![
                Digest::of_ints(rows.iter().map(|&r| r as i64)).1,
                Digest::of_strs(rows.iter().map(|&r| ["x", "y", "z"][r as usize % 3])).1,
            ],
            rows,
        };
        assert!(o.check(&q, &gather(vec![6, 13])));
        assert!(o.check(&q, &gather(vec![20, 6])));
        assert!(!o.check(&q, &gather(vec![6, 6])), "same row twice");
        assert!(!o.check(&q, &gather(vec![6, 7])), "row 7 holds b = 0");
        let Answer::Gather { others, .. } = &mut gather(vec![6, 13]) else {
            unreachable!()
        };
        others[1] ^= 1;
        let bad = Answer::Gather {
            values: vec![6, 6],
            rows: vec![6, 13],
            others: others.clone(),
        };
        assert!(!o.check(&q, &bad), "wrong materialized string");
    }

    #[test]
    fn point_materialize_and_reopen_digests_follow_the_block_layout() {
        let t = table();
        let mut o = Oracle::new(t.clone(), BLOCK, 9);
        let last = ROWS / BLOCK;
        let (count, digest) = Digest::of_ints((last * BLOCK) as i64..ROWS as i64);
        assert!(o.check(
            &Query::Point {
                block: last,
                column: "a"
            },
            &Answer::Values { count, digest }
        ));
        let mut d = Digest::new();
        for block in 0..=last {
            let len = BLOCK.min(ROWS - block * BLOCK);
            for pos in selection(9, block, len, 0.05) {
                d.i64((block * BLOCK + pos as usize) as i64);
            }
        }
        assert!(o.check(
            &Query::Materialize {
                column: "a",
                selectivity: 0.05
            },
            &Answer::Values {
                count: d.count(),
                digest: d.finish()
            }
        ));
        let (count, digest) = Digest::of_strs((0..ROWS).map(|i| ["x", "y", "z"][i % 3]));
        assert_eq!(o.column_digest("s"), Answer::Values { count, digest });
        assert!(o.check(&Query::Decompress("s"), &Answer::Values { count, digest }));
    }
}
