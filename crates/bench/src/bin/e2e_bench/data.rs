//! Engine-neutral vocabulary shared by the workload definitions, the
//! oracle and the engine adapter: raw generated columns, the query mix,
//! and the normalized answer a query is judged by. Nothing here calls
//! the engine, so the oracle that consumes it shares no code with the
//! kernels it checks.

/// One raw generated column.
#[derive(Debug, Clone, PartialEq)]
pub enum RawColumn {
    Int(Vec<i64>),
    Str(Vec<String>),
}

impl RawColumn {
    pub fn len(&self) -> usize {
        match self {
            RawColumn::Int(v) => v.len(),
            RawColumn::Str(v) => v.len(),
        }
    }

    /// User bytes: 8 B per integer value, string bytes for strings.
    pub fn user_bytes(&self) -> u64 {
        match self {
            RawColumn::Int(v) => 8 * v.len() as u64,
            RawColumn::Str(v) => v.iter().map(|s| s.len() as u64).sum(),
        }
    }
}

/// The raw generated table: named columns of equal length, in schema
/// order. This is the only input the engine and the oracle both see.
#[derive(Debug, Clone, PartialEq)]
pub struct RawTable {
    pub names: Vec<&'static str>,
    pub columns: Vec<RawColumn>,
}

impl RawTable {
    pub fn rows(&self) -> usize {
        self.columns.first().map_or(0, RawColumn::len)
    }

    pub fn user_bytes(&self) -> u64 {
        self.columns.iter().map(RawColumn::user_bytes).sum()
    }

    pub fn column(&self, name: &str) -> &RawColumn {
        let i = self
            .names
            .iter()
            .position(|n| *n == name)
            .unwrap_or_else(|| panic!("workload names unknown column {name}"));
        &self.columns[i]
    }

    pub fn ints(&self, name: &str) -> &[i64] {
        match self.column(name) {
            RawColumn::Int(v) => v,
            RawColumn::Str(_) => panic!("workload treats string column {name} as integer"),
        }
    }
}

/// A pushdown predicate of the mix.
#[derive(Debug, Clone, PartialEq)]
pub enum Pred {
    Between(&'static str, i64, i64),
    Ge(&'static str, i64),
    Lt(&'static str, i64),
    StrEq(&'static str, &'static str),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFn {
    Count,
    Sum,
    Max,
    Avg,
}

/// One query of a mix. Row and block numbers are global (table order).
#[derive(Debug, Clone, PartialEq)]
pub enum Query {
    Scan(Pred),
    Agg {
        func: AggFn,
        column: Option<&'static str>,
        filter: Option<Pred>,
        group_by: Option<&'static str>,
    },
    /// Descending TOP-K over an integer column.
    TopK {
        column: &'static str,
        k: usize,
    },
    /// TOP-K, then late-materialize `others` for the winners.
    GatherTopK {
        column: &'static str,
        k: usize,
        others: Vec<&'static str>,
    },
    /// Decompress one column of one block.
    Point {
        block: usize,
        column: &'static str,
    },
    /// The paper's Fig. 5–8 shape: materialize `column` at a uniform
    /// random selection of `selectivity` in every block.
    Materialize {
        column: &'static str,
        selectivity: f64,
    },
    /// Decompress the whole column.
    Decompress(&'static str),
}

/// A group key of a grouped aggregate.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum Key {
    Int(i64),
    Str(String),
}

/// What a query returned, reduced to the form the oracle compares.
/// Position and value lists are carried as `(count, digest)`.
#[derive(Debug, Clone, PartialEq)]
pub enum Answer {
    /// Matching global row numbers, ascending.
    Rows {
        count: u64,
        digest: u64,
    },
    Count(u64),
    Sum(Option<i128>),
    Int(Option<i64>),
    Avg(Option<f64>),
    Groups(Vec<(Key, u64)>),
    /// Winning values, best first.
    TopK(Vec<i64>),
    /// TOP-K winners with their global rows and, per requested column,
    /// the digest of the values materialized in winner order.
    Gather {
        values: Vec<i64>,
        rows: Vec<u64>,
        others: Vec<u64>,
    },
    /// Materialized values, in row order.
    Values {
        count: u64,
        digest: u64,
    },
}

/// Order-sensitive 64-bit digest of a value sequence — the benchmark's
/// own mixer (splitmix64 finalizer), not the engine's checksum.
#[derive(Debug, Clone, Copy)]
pub struct Digest {
    state: u64,
    count: u64,
}

impl Digest {
    pub fn new() -> Self {
        Self {
            state: 0x9e37_79b9_7f4a_7c15,
            count: 0,
        }
    }

    pub fn u64(&mut self, v: u64) {
        let mut z = self.state ^ v.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        self.state = z ^ (z >> 31);
        self.count += 1;
    }

    pub fn i64(&mut self, v: i64) {
        self.u64(v as u64);
    }

    pub fn str(&mut self, s: &str) {
        let mut h = s.len() as u64;
        for chunk in s.as_bytes().chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            h = h.rotate_left(23) ^ u64::from_le_bytes(word);
        }
        self.u64(h);
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn finish(&self) -> u64 {
        self.state
    }

    pub fn of_ints(values: impl IntoIterator<Item = i64>) -> (u64, u64) {
        let mut d = Self::new();
        values.into_iter().for_each(|v| d.i64(v));
        (d.count, d.state)
    }

    pub fn of_strs<'a>(values: impl IntoIterator<Item = &'a str>) -> (u64, u64) {
        let mut d = Self::new();
        values.into_iter().for_each(|s| d.str(s));
        (d.count, d.state)
    }
}

/// xorshift64* — the benchmark's seeded generator for request streams
/// and selection vectors (the engine receives only what it generates).
#[derive(Debug, Clone)]
pub struct XorShift(u64);

impl XorShift {
    pub fn new(seed: u64) -> Self {
        // Spread small seeds over the state and avoid the all-zero state.
        Self(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1)
    }

    pub fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (((self.next() >> 11) as u128 * n as u128) >> 53) as usize
    }
}

/// The selection vector `Query::Materialize` uses in block `block`:
/// ascending distinct rows, each kept with probability `selectivity`.
/// Both the engine adapter and the oracle derive it from the seed.
pub fn selection(seed: u64, block: usize, rows: usize, selectivity: f64) -> Vec<u32> {
    let mut rng = XorShift::new(seed ^ ((block as u64 + 1) << 32));
    let threshold = (selectivity * (1u64 << 53) as f64) as u64;
    (0..rows as u32)
        .filter(|_| (rng.next() >> 11) < threshold)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_order_sensitive_and_counts() {
        let (n, a) = Digest::of_ints([1, 2, 3]);
        let (_, b) = Digest::of_ints([3, 2, 1]);
        assert_eq!(n, 3);
        assert_ne!(a, b);
        assert_eq!(Digest::of_ints([1, 2, 3]).1, a);
        assert_ne!(
            Digest::of_strs(["ab", "c"]).1,
            Digest::of_strs(["a", "bc"]).1
        );
    }

    #[test]
    fn xorshift_is_seeded_and_in_range() {
        let mut a = XorShift::new(42);
        let mut b = XorShift::new(42);
        let mut c = XorShift::new(43);
        let xs: Vec<usize> = (0..100).map(|_| a.below(10)).collect();
        assert!(xs.iter().all(|&x| x < 10));
        assert_eq!(xs, (0..100).map(|_| b.below(10)).collect::<Vec<_>>());
        assert_ne!(xs, (0..100).map(|_| c.below(10)).collect::<Vec<_>>());
    }

    #[test]
    fn selection_hits_its_selectivity() {
        let sel = selection(7, 3, 100_000, 0.01);
        assert!(sel.windows(2).all(|w| w[0] < w[1]));
        assert!((800..1_200).contains(&sel.len()), "{}", sel.len());
        assert_eq!(sel, selection(7, 3, 100_000, 0.01));
        assert_ne!(sel, selection(7, 4, 100_000, 0.01));
    }
}
