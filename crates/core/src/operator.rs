//! Compressed-domain operators: TOP-K / ORDER BY and dictionary-code hash
//! joins.
//!
//! Both operators follow the same shape as [`mod@crate::aggregate`]: a
//! per-block kernel that is one method call on the resolved column
//! (`query::int_column`) and one multi-block driver, a plain loop over the
//! blocks of any source — in memory, one file or a segmented table.
//!
//! **TOP-K** is threshold-first at every layer. The drivers visit blocks
//! best-zone-first (`topk_visit_order`), so the k-th bound is as tight
//! as one block can make it before the second block is looked at, and
//! skip every block whose zone cannot beat the heap's k-th `(rank,
//! position)` pair (`zone_skips_topk`); the kernels compare a strip of
//! rows against the hoisted k-th rank and enter the heap only on a hit
//! (`TopKHeap::offer_chunk`) — sorted int dictionaries select winners in
//! the code domain, RLE folds whole runs, FOR / Delta / plain stream
//! through the batched decode, and horizontal targets are reconstructed a
//! block at a time into one reused `DecodeScratch`. A skipped block
//! provably holds no row of the result, and the heap is a pure function
//! of the candidate multiset, so the rows do not depend on the visit
//! order, and the pruning counters repeat run to run.
//!
//! **Hash joins** build and probe on dictionary *codes*: each block's
//! distinct keys are hashed exactly once into a global key table (int
//! dictionaries directly; string dictionaries through a per-block
//! code→global-id remap, since their codes are first-occurrence-ordered),
//! after which per-row work is one
//! packed-code read and one array index. Surviving rows late-materialize
//! payload columns through the projection-pushdown [`BlockView`] reads,
//! so only touched blocks and only named columns decode.

use std::borrow::Borrow;
use std::hash::Hash;

use corra_columnar::error::{Error, Result};
use corra_columnar::selection::rows_fit;
use corra_columnar::stats::ZoneMap;
use corra_columnar::topk::{rank, TopKHeap};
use rustc_hash::FxHashMap;

use crate::compressor::{BlockSource, BlockView};
use crate::query::{
    dict_column, gather_column, int_column, CodeAccess, DecodeScratch, DictKeys, QueryOutput,
};
use crate::scan::{scan_pruned, validate_pred, Predicate, ScanStats};

/// A TOP-K (`ORDER BY <column> LIMIT k`) over one integer column, with an
/// optional pushed-down filter.
#[derive(Debug, Clone)]
pub struct TopKExpr {
    column: String,
    k: usize,
    descending: bool,
    filter: Option<Predicate>,
}

impl TopKExpr {
    /// The `k` smallest values of `column` (ascending order).
    pub fn asc(column: impl Into<String>, k: usize) -> Self {
        Self {
            column: column.into(),
            k,
            descending: false,
            filter: None,
        }
    }

    /// The `k` largest values of `column` (descending order).
    pub fn desc(column: impl Into<String>, k: usize) -> Self {
        Self {
            column: column.into(),
            k,
            descending: true,
            filter: None,
        }
    }

    /// A full ORDER BY: every row, ordered. (`k = usize::MAX`.)
    pub fn order_by(column: impl Into<String>, descending: bool) -> Self {
        Self {
            column: column.into(),
            k: usize::MAX,
            descending,
            filter: None,
        }
    }

    /// Restricts the operator to rows matching `pred`.
    pub fn with_filter(mut self, pred: Predicate) -> Self {
        self.filter = Some(pred);
        self
    }

    /// The ordered column.
    pub fn column(&self) -> &str {
        &self.column
    }

    /// The row bound.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Whether larger values rank first.
    pub fn descending(&self) -> bool {
        self.descending
    }

    /// The pushed-down filter, if any.
    pub fn filter(&self) -> Option<&Predicate> {
        self.filter.as_ref()
    }
}

/// Addresses one row of a multi-block table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RowId {
    /// Block number (global across segments for segmented drivers).
    pub block: u32,
    /// Row within the block.
    pub row: u32,
}

/// One TOP-K result row: the ordering value plus the row it came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TopKRow {
    /// The value of the ordered column at this row.
    pub value: i64,
    /// Block number the row lives in.
    pub block: u32,
    /// Row within the block.
    pub row: u32,
}

impl TopKRow {
    /// The row's address.
    pub fn id(&self) -> RowId {
        RowId {
            block: self.block,
            row: self.row,
        }
    }
}

/// The heap's rows, best-first.
fn rows_from(heap: TopKHeap) -> Vec<TopKRow> {
    heap.into_sorted()
        .into_iter()
        .map(|(value, pos)| TopKRow {
            value,
            block: (pos >> 32) as u32,
            row: pos as u32,
        })
        .collect()
}

/// The order the TOP-K drivers visit `n` blocks in, as `(block, best)`
/// pairs: `best` is the rank of the best value the block's zone admits
/// (`zone.max` descending, `zone.min` ascending), and blocks come best
/// first — un-zoned blocks last, block index breaking ties — so the first
/// block visited sets the tightest k-th bound any single block can and
/// [`zone_skips_topk`] drops the most of what follows. Without this, a
/// descending TOP-K over data laid out ascending ("the latest 100 events")
/// meets every block while its zone still beats the bound.
fn topk_visit_order(
    n: usize,
    descending: bool,
    zone_of: impl Fn(usize) -> Option<ZoneMap>,
) -> Vec<(usize, Option<u64>)> {
    let mut order: Vec<(usize, Option<u64>)> = (0..n)
        .map(|b| {
            let best = zone_of(b).map(|z| if descending { z.max } else { z.min });
            (b, best.map(|v| rank(v, descending)))
        })
        .collect();
    order.sort_unstable_by_key(|&(b, best)| (best.is_none(), best, b));
    order
}

/// Whether a zone proves no row of block `block_no` can enter a heap whose
/// k-th entry is `worst`: every row's rank is at least `best` and every
/// row's position at least `block_no << 32`, so the block is skippable
/// when `best` is strictly worse than the k-th rank, or equal to it while
/// the block's first position is already past the k-th entry's (no row can
/// win the `(rank, position)` tie-break). The k-th entry only ever moves
/// towards smaller pairs, so what loses to it now loses to the final one.
fn zone_skips_topk(best: Option<u64>, block_no: u32, worst: Option<(u64, u64)>) -> bool {
    match (best, worst) {
        (Some(best), Some(worst)) => (best, (block_no as u64) << 32) > worst,
        _ => false,
    }
}

/// Validates that `expr` names an integer column (and a well-formed
/// filter) on `block` from column metadata alone, before any exit — so a
/// malformed query fails the same way on every block and every source,
/// whether or not the block is skipped.
fn validate_topk<B: BlockView + ?Sized>(block: &B, expr: &TopKExpr) -> Result<()> {
    if block.is_string(block.index_of(&expr.column)?) {
        return Err(Error::TypeMismatch {
            expected: "integer column for TOP-K",
            found: "string column",
        });
    }
    if let Some(pred) = &expr.filter {
        validate_pred(block, pred)?;
    }
    Ok(())
}

/// Runs the TOP-K kernel over one block, offering candidates into `heap`
/// with positions based at `block_no << 32`. `best` is the rank of the
/// best value the block's zone admits ([`topk_visit_order`]).
///
/// Footer-first: an empty block, `k == 0`, a zone that cannot beat the
/// heap's k-th entry ([`zone_skips_topk`]) and a filter the zones prove
/// empty all return before any payload loads.
///
/// Returns `(pruned, rows_matched)`: whether the block was decided by an
/// exit above or its filter answered from zone maps, and how many rows
/// passed the filter.
pub(crate) fn top_k_block<B: BlockView + ?Sized>(
    block: &B,
    block_no: u32,
    best: Option<u64>,
    expr: &TopKExpr,
    heap: &mut TopKHeap,
    scratch: &DecodeScratch,
) -> Result<(bool, usize)> {
    validate_topk(block, expr)?;
    let rows = block.rows();
    if rows == 0 || expr.k == 0 || zone_skips_topk(best, block_no, heap.worst()) {
        return Ok((true, 0));
    }
    let idx = block.index_of(&expr.column)?;
    let base = (block_no as u64) << 32;
    let Some(pred) = &expr.filter else {
        int_column(block, idx, scratch, |c| c.top_k_into(base, heap))?;
        return Ok((false, rows));
    };
    let (sel, pruned) = scan_pruned(block, pred)?;
    let matched = sel.len();
    // The column loads only once some row passed the filter; a full-block
    // match takes the unfiltered kernel.
    if matched == rows {
        int_column(block, idx, scratch, |c| c.top_k_into(base, heap))?;
    } else if matched > 0 {
        int_column(block, idx, scratch, |c| c.top_k_selected(base, &sel, heap))?;
    }
    Ok((pruned, matched))
}

/// TOP-K over in-memory blocks: blocks are visited in
/// `topk_visit_order`, the ones whose zone cannot beat the heap's k-th
/// entry are skipped, and the rest fill one heap.
///
/// Result rows come back best-first with the deterministic tie-break
/// `(value, block, row)`; [`ScanStats::rows_matched`] counts rows that
/// passed the filter in non-pruned blocks.
///
/// # Errors
///
/// Unknown or non-integer target column, or an invalid filter.
pub fn top_k_blocks<B: BlockView>(
    blocks: &[B],
    expr: &TopKExpr,
) -> Result<(Vec<TopKRow>, ScanStats)> {
    top_k_source(blocks, expr)
}

/// The one multi-block TOP-K: blocks of any source are visited
/// best-zone-first ([`topk_visit_order`]) — so file reads follow zone
/// order, not file order — and each is pruned against, then fills, one
/// heap.
pub(crate) fn top_k_source<S: BlockSource + ?Sized>(
    source: &S,
    expr: &TopKExpr,
) -> Result<(Vec<TopKRow>, ScanStats)> {
    let mut heap = TopKHeap::new(expr.k, expr.descending);
    let scratch = DecodeScratch::default();
    // A block whose column does not resolve sorts last, un-zoned, and
    // reports its error when it is visited.
    let order = topk_visit_order(source.n_blocks(), expr.descending, |b| {
        source.zone(b, &expr.column)
    });
    let mut stats = ScanStats::over(source);
    for (b, best) in order {
        let view = source.open(b)?;
        let block: &S::Block = view.borrow();
        let (pruned, matched) = top_k_block(block, b as u32, best, expr, &mut heap, &scratch)?;
        stats.record_block(block.rows(), matched, pruned, S::io(block));
    }
    Ok((rows_from(heap), stats))
}

/// An inner equi-join between a build side and a probe side, keyed on
/// dictionary-encoded columns.
#[derive(Debug, Clone)]
pub struct JoinExpr {
    build_key: String,
    probe_key: String,
}

impl JoinExpr {
    /// Joins `build_key` (build side) against `probe_key` (probe side).
    pub fn on(build_key: impl Into<String>, probe_key: impl Into<String>) -> Self {
        Self {
            build_key: build_key.into(),
            probe_key: probe_key.into(),
        }
    }

    /// The build side's key column.
    pub fn build_key(&self) -> &str {
        &self.build_key
    }

    /// The probe side's key column.
    pub fn probe_key(&self) -> &str {
        &self.probe_key
    }
}

/// One matched row pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JoinPair {
    /// The build-side row.
    pub build: RowId,
    /// The probe-side row.
    pub probe: RowId,
}

/// Counters for one join execution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JoinStats {
    /// Rows on the build side.
    pub build_rows: usize,
    /// Rows on the probe side.
    pub probe_rows: usize,
    /// Distinct keys in the build table.
    pub distinct_keys: usize,
    /// Matched pairs emitted.
    pub pairs: usize,
    /// Both sides' blocks, rows and store traffic (bytes, cache,
    /// segments), as [`ScanStats`] defines them for every source.
    pub io: ScanStats,
}

const MISS: u32 = u32::MAX;

/// The global key table: one id per distinct key, in first-occurrence
/// order.
enum KeySpace {
    Int(FxHashMap<i64, u32>),
    Str(FxHashMap<String, u32>),
}

impl KeySpace {
    /// An empty table for keys of `keys`' kind.
    fn new(keys: DictKeys<'_>) -> Self {
        match keys {
            DictKeys::Int(_) => KeySpace::Int(FxHashMap::default()),
            DictKeys::Str(_) => KeySpace::Str(FxHashMap::default()),
        }
    }

    fn kind(&self) -> &'static str {
        match self {
            KeySpace::Int(_) => "int join key",
            KeySpace::Str(_) => "str join key",
        }
    }
}

/// `key`'s id in `map`. An unseen key gets the next id (one more
/// `rows_of` list) when `intern`, and [`MISS`] otherwise.
fn key_id<K, Q>(
    map: &mut FxHashMap<K, u32>,
    key: &Q,
    intern: bool,
    rows_of: &mut Vec<Vec<RowId>>,
) -> u32
where
    K: Borrow<Q> + Hash + Eq,
    Q: ToOwned<Owned = K> + Hash + Eq + ?Sized,
{
    if let Some(&id) = map.get(key) {
        return id;
    }
    if !intern {
        return MISS;
    }
    let id = rows_of.len() as u32;
    map.insert(key.to_owned(), id);
    rows_of.push(Vec::new());
    id
}

/// The dictionary view of join key column `key`.
fn join_key<'b, B: BlockView + ?Sized>(block: &'b B, key: &str) -> Result<CodeAccess<'b>> {
    dict_column(block, block.index_of(key)?, |other| {
        Error::invalid(format!(
            "join key '{key}' must be dictionary-encoded (got {})",
            other.scheme()
        ))
    })
}

/// The build side of a dict-code hash join: a global key table plus, per
/// key id, the build rows holding it (in `(block, row)` insertion order).
#[derive(Default)]
struct BuildTable {
    space: Option<KeySpace>,
    rows_of: Vec<Vec<RowId>>,
    build_rows: usize,
}

impl BuildTable {
    /// The per-block code → global-id remap: hashes each *distinct* key of
    /// `keys` once. The build (`intern`) gives unseen keys new ids; a probe
    /// maps them, and every key of an empty build, to [`MISS`].
    fn remap(&mut self, keys: DictKeys<'_>, intern: bool) -> Result<Vec<u32>> {
        if self.space.is_none() && !intern {
            return Ok(vec![MISS; keys.len()]);
        }
        let space = self.space.get_or_insert_with(|| KeySpace::new(keys));
        let rows_of = &mut self.rows_of;
        match (space, keys) {
            (KeySpace::Int(m), DictKeys::Int(d)) => {
                Ok(d.iter().map(|v| key_id(m, v, intern, rows_of)).collect())
            }
            // String codes are first-occurrence-ordered, so nothing here
            // compares codes across blocks — rows ride on the remap.
            (KeySpace::Str(m), DictKeys::Str(p)) => {
                Ok(p.iter().map(|s| key_id(m, s, intern, rows_of)).collect())
            }
            (space, _) => Err(Error::TypeMismatch {
                expected: space.kind(),
                found: KeySpace::new(keys).kind(),
            }),
        }
    }

    /// Adds one build block: remaps its distinct keys into the global
    /// table, then streams the packed codes so per-row work is an array
    /// index.
    fn add_block<B: BlockView + ?Sized>(
        &mut self,
        block: &B,
        block_no: u32,
        key: &str,
    ) -> Result<()> {
        let dict = join_key(block, key)?;
        let remap = self.remap(dict.keys, true)?;
        let mut codes = Vec::new();
        dict.codes_into(&mut codes);
        for (i, &c) in codes.iter().enumerate() {
            self.rows_of[remap[c as usize] as usize].push(RowId {
                block: block_no,
                row: i as u32,
            });
        }
        self.build_rows += codes.len();
        Ok(())
    }

    /// Probes one block: resolves each *distinct* probe key against the
    /// build table once, then streams the packed codes emitting pairs in
    /// probe-row order. Returns the block's pairs and its probe row count.
    fn probe_block<B: BlockView + ?Sized>(
        &mut self,
        block: &B,
        block_no: u32,
        key: &str,
    ) -> Result<(Vec<JoinPair>, usize)> {
        let dict = join_key(block, key)?;
        let remap = self.remap(dict.keys, false)?;
        let mut codes = Vec::new();
        dict.codes_into(&mut codes);
        let mut pairs = Vec::new();
        for (i, &c) in codes.iter().enumerate() {
            let id = remap[c as usize];
            if id != MISS {
                let probe = RowId {
                    block: block_no,
                    row: i as u32,
                };
                for &build in &self.rows_of[id as usize] {
                    pairs.push(JoinPair { build, probe });
                }
            }
        }
        Ok((pairs, codes.len()))
    }
}

/// Dict-code hash join: builds over `build`, probes over `probe` (the
/// build assigns key-table ids in first-occurrence order).
///
/// Pairs come back in probe order — probe blocks ascending, probe rows
/// ascending within a block, build rows in `(block, row)` order within a
/// key — which is exactly what a decompress-then-hash-join oracle with
/// insertion-ordered buckets produces.
///
/// # Errors
///
/// Unknown key columns, a non-dictionary key codec, or mismatched key
/// types between the two sides.
pub fn hash_join_blocks<B1: BlockView, B2: BlockView>(
    build: &[B1],
    probe: &[B2],
    expr: &JoinExpr,
) -> Result<(Vec<JoinPair>, JoinStats)> {
    hash_join_sources(build, probe, expr)
}

/// The one dict-code hash join: a build over every block of `build`, then
/// a probe of each block of `probe`, pair lists concatenating in block
/// order. `stats.io` folds both sides' blocks and traffic.
pub(crate) fn hash_join_sources<S1: BlockSource + ?Sized, S2: BlockSource + ?Sized>(
    build: &S1,
    probe: &S2,
    expr: &JoinExpr,
) -> Result<(Vec<JoinPair>, JoinStats)> {
    let mut io = ScanStats::over(build);
    io.segments_opened += probe.segments();
    let mut table = BuildTable::default();
    for b in 0..build.n_blocks() {
        let view = build.open(b)?;
        let block: &S1::Block = view.borrow();
        table.add_block(block, b as u32, &expr.build_key)?;
        io.record_block(block.rows(), 0, false, S1::io(block));
    }
    let mut pairs = Vec::new();
    let mut probe_rows = 0;
    for b in 0..probe.n_blocks() {
        let view = probe.open(b)?;
        let block: &S2::Block = view.borrow();
        let (mut block_pairs, rows) = table.probe_block(block, b as u32, &expr.probe_key)?;
        probe_rows += rows;
        io.record_block(block.rows(), 0, false, S2::io(block));
        pairs.append(&mut block_pairs);
    }
    let stats = JoinStats {
        build_rows: table.build_rows,
        probe_rows,
        distinct_keys: table.rows_of.len(),
        pairs: pairs.len(),
        io,
    };
    Ok((pairs, stats))
}

/// Late materialization for an arbitrary row-id list: `fetch` is called
/// once per *touched block* with its rows, strictly ascending, and the
/// full column list, and the per-block gathers are scattered back into
/// `ids` order. Store-backed callers hand a closure that opens one lazy
/// [`BlockView`] handle per block, so only the named columns load.
///
/// Returns one [`QueryOutput`] per requested column, each aligned with
/// `ids`. An empty `ids` yields empty integer outputs (there is no row to
/// reveal the column type).
///
/// # Errors
///
/// Whatever `fetch` reports (unknown columns, I/O, corruption), and
/// [`Error::InvalidData`] when it answers with fewer or more columns or
/// rows than it was handed.
pub fn gather_rows_with<F>(
    ids: &[RowId],
    columns: &[&str],
    mut fetch: F,
) -> Result<Vec<QueryOutput>>
where
    F: FnMut(u32, &[u32], &[&str]) -> Result<Vec<QueryOutput>>,
{
    // Walk the ids in (block, row) order: each run of one block becomes a
    // sorted, deduplicated row list, and `slot_of[n]` records where
    // `ids[n]` landed — (fetched block, index in its row list).
    let mut by_id: Vec<usize> = (0..ids.len()).collect();
    by_id.sort_unstable_by_key(|&n| ids[n]);
    let mut slot_of = vec![(0usize, 0usize); ids.len()];
    let mut fetched: Vec<Vec<QueryOutput>> = Vec::new();
    let mut run = by_id.as_slice();
    while let Some(&first) = run.first() {
        let block = ids[first].block;
        let len = run.partition_point(|&n| ids[n].block == block);
        let mut rows: Vec<u32> = Vec::with_capacity(len);
        for &n in &run[..len] {
            if rows.last() != Some(&ids[n].row) {
                rows.push(ids[n].row);
            }
            slot_of[n] = (fetched.len(), rows.len() - 1);
        }
        let outs = fetch(block, &rows, columns)?;
        if outs.len() != columns.len() || outs.iter().any(|out| out.len() != rows.len()) {
            return Err(Error::invalid(format!(
                "gather of block {block} returned a different shape than the {} columns x {} rows asked for",
                columns.len(),
                rows.len()
            )));
        }
        fetched.push(outs);
        run = &run[len..];
    }
    let mut result = Vec::with_capacity(columns.len());
    for ci in 0..columns.len() {
        if matches!(
            fetched.first().map(|outs| &outs[ci]),
            Some(QueryOutput::Str(_))
        ) {
            let per_block = fetched.iter().map(|outs| outs[ci].as_str_rows());
            let per_block = per_block.collect::<Result<Vec<_>>>()?;
            let out = slot_of.iter().map(|&(b, j)| per_block[b][j].clone());
            result.push(QueryOutput::Str(out.collect()));
        } else {
            let per_block = fetched.iter().map(|outs| outs[ci].as_int());
            let per_block = per_block.collect::<Result<Vec<_>>>()?;
            let out = slot_of.iter().map(|&(b, j)| per_block[b][j]);
            result.push(QueryOutput::Int(out.collect()));
        }
    }
    Ok(result)
}

/// [`gather_rows_with`] over in-memory blocks.
///
/// # Errors
///
/// Unknown columns, or a row id referencing a block outside `blocks`.
pub fn gather_rows<B: BlockView>(
    blocks: &[B],
    ids: &[RowId],
    columns: &[&str],
) -> Result<Vec<QueryOutput>> {
    gather_source(blocks, ids, columns)
}

/// The one late materialization: one opened view per touched block, so a
/// lazy handle loads only the named columns (plus reference chains), and
/// every column gathers the same row list.
pub(crate) fn gather_source<S: BlockSource + ?Sized>(
    source: &S,
    ids: &[RowId],
    columns: &[&str],
) -> Result<Vec<QueryOutput>> {
    gather_rows_with(ids, columns, |b, rows, cols| {
        let view = source.open(b as usize)?;
        let block: &S::Block = view.borrow();
        if !rows_fit(rows, block.rows()) {
            return Err(Error::invalid(format!("row id past the rows of block {b}")));
        }
        cols.iter()
            .map(|c| gather_column(block, block.index_of(c)?, rows))
            .collect()
    })
}
