//! Compressed-domain operators: TOP-K / ORDER BY and dictionary-code hash
//! joins.
//!
//! Both operators follow the same shape as [`mod@crate::aggregate`]: a
//! per-block kernel dispatched through the `IntColumn` visitor (so each
//! codec family contributes one fast path, not seven ladders) and one
//! multi-block driver, a plain loop over the blocks.
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

use corra_columnar::error::{Error, Result};
use corra_columnar::selection::SelectionVector;
use corra_columnar::stats::ZoneMap;
use corra_columnar::topk::{rank, TopKHeap};
use corra_encodings::{IntAccess, IntEncoding};
use rustc_hash::FxHashMap;

use crate::compressor::{decode_int_column, BlockView, ColumnCodec, DecodeScratch};
use crate::query::{eval_formula_mask, int_column, query_column, IntColumn, QueryOutput};
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
pub(crate) fn rows_from(heap: TopKHeap) -> Vec<TopKRow> {
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
pub(crate) fn topk_visit_order(
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
pub(crate) fn zone_skips_topk(best: Option<u64>, block_no: u32, worst: Option<(u64, u64)>) -> bool {
    match (best, worst) {
        (Some(best), Some(worst)) => (best, (block_no as u64) << 32) > worst,
        _ => false,
    }
}

/// Validates that `expr` names an integer column (and a well-formed
/// filter) on `block` without running any kernel — the `k == 0` path and
/// prune paths still type-check this way, so a malformed query never
/// silently succeeds.
pub(crate) fn validate_topk<B: BlockView + ?Sized>(block: &B, expr: &TopKExpr) -> Result<()> {
    let idx = block.index_of(&expr.column)?;
    int_column(block, idx)?;
    if let Some(pred) = &expr.filter {
        validate_pred(block, pred)?;
    }
    Ok(())
}

fn offer_selected<B: BlockView + ?Sized>(
    block: &B,
    idx: usize,
    base: u64,
    sel: &SelectionVector,
    heap: &mut TopKHeap,
) -> Result<()> {
    match int_column(block, idx)? {
        IntColumn::Vertical(enc) => enc.top_k_selected(base, sel, heap),
        IntColumn::NonHier { enc, refs } => {
            let mut out = Vec::new();
            enc.gather_map(sel, |i| refs.get(i), &mut out);
            for (&v, &p) in out.iter().zip(sel.positions()) {
                heap.offer(v, base + p as u64);
            }
        }
        IntColumn::Hier { enc, codes } => {
            for &p in sel.positions() {
                let i = p as usize;
                heap.offer(enc.get_unchecked_len(i, codes.code(i)), base + p as u64);
            }
        }
        IntColumn::MultiRef { enc, members } => {
            let mut out = Vec::new();
            enc.gather_masked(
                sel,
                |mask, i| eval_formula_mask(&members, mask, i),
                &mut out,
            );
            for (&v, &p) in out.iter().zip(sel.positions()) {
                heap.offer(v, base + p as u64);
            }
        }
    }
    Ok(())
}

/// Offers every row of the block's column `idx`: a vertical codec through
/// its own (possibly compressed-domain) kernel, a horizontal target
/// reconstructed whole into `scratch` and offered as one chunk.
fn offer_full<B: BlockView + ?Sized>(
    block: &B,
    idx: usize,
    base: u64,
    heap: &mut TopKHeap,
    scratch: &mut DecodeScratch,
) -> Result<()> {
    if let ColumnCodec::Int(enc) = block.view_codec(idx)? {
        enc.top_k_into(base, heap);
        return Ok(());
    }
    decode_int_column(block, idx, scratch)?;
    heap.offer_chunk(base, &scratch.values);
    Ok(())
}

/// Runs the TOP-K kernel over one block, offering candidates into `heap`
/// with positions based at `block_no << 32`.
///
/// Returns `(filter_pruned, rows_matched)`: whether the filter was
/// answered entirely from zone maps, and how many rows passed it.
pub(crate) fn top_k_block<B: BlockView + ?Sized>(
    block: &B,
    block_no: u32,
    expr: &TopKExpr,
    heap: &mut TopKHeap,
    scratch: &mut DecodeScratch,
) -> Result<(bool, usize)> {
    let rows = block.rows();
    let idx = block.index_of(&expr.column)?;
    let base = (block_no as u64) << 32;
    match &expr.filter {
        Some(pred) => {
            let (sel, pruned) = scan_pruned(block, pred)?;
            let matched = sel.len();
            if matched == 0 {
                // Still type-check the target column: a string target must
                // fail identically whether or not the filter matched.
                int_column(block, idx)?;
            } else if matched == rows {
                // Full-block match: normalize to the unfiltered fast paths.
                offer_full(block, idx, base, heap, scratch)?;
            } else {
                offer_selected(block, idx, base, &sel, heap)?;
            }
            Ok((pruned, matched))
        }
        None => {
            offer_full(block, idx, base, heap, scratch)?;
            Ok((false, rows))
        }
    }
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
    let mut heap = TopKHeap::new(expr.k, expr.descending);
    let mut scratch = DecodeScratch::default();
    // A block whose column does not resolve sorts last, un-zoned, and
    // reports its error when it is visited.
    let order = topk_visit_order(blocks.len(), expr.descending, |b| {
        blocks[b].zone(blocks[b].index_of(&expr.column).ok()?)
    });
    let mut stats = ScanStats::default();
    for (b, best) in order {
        let block = &blocks[b];
        let (pruned, matched) = if expr.k == 0 {
            validate_topk(block, expr)?;
            (false, 0)
        } else if zone_skips_topk(best, b as u32, heap.worst()) {
            (true, 0)
        } else {
            top_k_block(block, b as u32, expr, &mut heap, &mut scratch)?
        };
        stats.record_block(block.rows(), matched, pruned, None);
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
    /// Store-side accounting (bytes, cache, segments) for store-backed
    /// drivers; all-zero for in-memory joins.
    pub io: ScanStats,
}

const MISS: u32 = u32::MAX;

enum KeySpace {
    Int(FxHashMap<i64, u32>),
    Str(FxHashMap<String, u32>),
}

/// The build side of a dict-code hash join: a global key table plus, per
/// key id, the build rows holding it (in `(block, row)` insertion order).
pub(crate) struct BuildTable {
    space: Option<KeySpace>,
    rows_of: Vec<Vec<RowId>>,
    build_rows: usize,
}

impl BuildTable {
    pub(crate) fn new() -> Self {
        Self {
            space: None,
            rows_of: Vec::new(),
            build_rows: 0,
        }
    }

    pub(crate) fn build_rows(&self) -> usize {
        self.build_rows
    }

    pub(crate) fn distinct(&self) -> usize {
        self.rows_of.len()
    }

    fn intern_int(&mut self, v: i64) -> u32 {
        let space = self
            .space
            .get_or_insert_with(|| KeySpace::Int(FxHashMap::default()));
        match space {
            KeySpace::Int(m) => {
                let next = self.rows_of.len() as u32;
                let id = *m.entry(v).or_insert(next);
                if id == next && self.rows_of.len() == next as usize {
                    self.rows_of.push(Vec::new());
                }
                id
            }
            KeySpace::Str(_) => unreachable!("checked before interning"),
        }
    }

    fn intern_str(&mut self, s: &str) -> u32 {
        let space = self
            .space
            .get_or_insert_with(|| KeySpace::Str(FxHashMap::default()));
        match space {
            KeySpace::Str(m) => {
                if let Some(&id) = m.get(s) {
                    id
                } else {
                    let id = self.rows_of.len() as u32;
                    m.insert(s.to_owned(), id);
                    self.rows_of.push(Vec::new());
                    id
                }
            }
            KeySpace::Int(_) => unreachable!("checked before interning"),
        }
    }

    /// Adds one build block: hashes each *distinct* key once into the
    /// global table (the per-block code→global-id remap), then streams the
    /// packed codes so per-row work is an array index.
    pub(crate) fn add_block<B: BlockView + ?Sized>(
        &mut self,
        block: &B,
        block_no: u32,
        key: &str,
    ) -> Result<()> {
        let idx = block.index_of(key)?;
        match block.view_codec(idx)? {
            ColumnCodec::Int(IntEncoding::Dict(d)) => {
                if matches!(self.space, Some(KeySpace::Str(_))) {
                    return Err(Error::TypeMismatch {
                        expected: "int join key",
                        found: "str join key",
                    });
                }
                let remap: Vec<u32> = d.dict().iter().map(|&v| self.intern_int(v)).collect();
                let mut codes = Vec::new();
                d.codes_into(&mut codes);
                for (i, &c) in codes.iter().enumerate() {
                    self.rows_of[remap[c as usize] as usize].push(RowId {
                        block: block_no,
                        row: i as u32,
                    });
                }
                self.build_rows += codes.len();
                Ok(())
            }
            ColumnCodec::Str(d) => {
                if matches!(self.space, Some(KeySpace::Int(_))) {
                    return Err(Error::TypeMismatch {
                        expected: "str join key",
                        found: "int join key",
                    });
                }
                // String codes are first-occurrence-ordered, so nothing
                // here compares codes across blocks — each distinct string
                // is hashed once and rows ride on the remap.
                let remap: Vec<u32> = (0..d.distinct())
                    .map(|c| self.intern_str(d.pool().get(c)))
                    .collect();
                let mut codes = Vec::new();
                d.codes_into(&mut codes);
                for (i, &c) in codes.iter().enumerate() {
                    self.rows_of[remap[c as usize] as usize].push(RowId {
                        block: block_no,
                        row: i as u32,
                    });
                }
                self.build_rows += codes.len();
                Ok(())
            }
            other => Err(Error::invalid(format!(
                "join key '{key}' must be dictionary-encoded (got {})",
                other.scheme()
            ))),
        }
    }

    /// Probes one block: resolves each *distinct* probe key against the
    /// build table once (code→global-id remap), then streams the packed
    /// codes emitting pairs in probe-row order. Returns the block's pairs
    /// and its probe row count.
    pub(crate) fn probe_block<B: BlockView + ?Sized>(
        &self,
        block: &B,
        block_no: u32,
        key: &str,
    ) -> Result<(Vec<JoinPair>, usize)> {
        let idx = block.index_of(key)?;
        let (remap, codes) = match block.view_codec(idx)? {
            ColumnCodec::Int(IntEncoding::Dict(d)) => {
                let remap: Vec<u32> = match &self.space {
                    Some(KeySpace::Int(m)) => d
                        .dict()
                        .iter()
                        .map(|v| m.get(v).copied().unwrap_or(MISS))
                        .collect(),
                    Some(KeySpace::Str(_)) => {
                        return Err(Error::TypeMismatch {
                            expected: "str join key",
                            found: "int join key",
                        })
                    }
                    // Empty build side: shape-check only, nothing matches.
                    None => vec![MISS; d.dict().len()],
                };
                let mut codes = Vec::new();
                d.codes_into(&mut codes);
                (remap, codes)
            }
            ColumnCodec::Str(d) => {
                let remap: Vec<u32> = match &self.space {
                    Some(KeySpace::Str(m)) => (0..d.distinct())
                        .map(|c| m.get(d.pool().get(c)).copied().unwrap_or(MISS))
                        .collect(),
                    Some(KeySpace::Int(_)) => {
                        return Err(Error::TypeMismatch {
                            expected: "int join key",
                            found: "str join key",
                        })
                    }
                    None => vec![MISS; d.distinct()],
                };
                let mut codes = Vec::new();
                d.codes_into(&mut codes);
                (remap, codes)
            }
            other => {
                return Err(Error::invalid(format!(
                    "join key '{key}' must be dictionary-encoded (got {})",
                    other.scheme()
                )))
            }
        };
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
    let mut table = BuildTable::new();
    for (b, block) in build.iter().enumerate() {
        table.add_block(block, b as u32, &expr.build_key)?;
    }
    let mut stats = JoinStats {
        build_rows: table.build_rows(),
        distinct_keys: table.distinct(),
        ..JoinStats::default()
    };
    let mut pairs = Vec::new();
    for (b, block) in probe.iter().enumerate() {
        let (mut block_pairs, rows) = table.probe_block(block, b as u32, &expr.probe_key)?;
        stats.probe_rows += rows;
        pairs.append(&mut block_pairs);
    }
    stats.pairs = pairs.len();
    Ok((pairs, stats))
}

/// Late materialization for an arbitrary row-id list: `fetch` is called
/// once per *touched block* with a sorted deduplicated selection and the
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
/// rows than the selection it was handed.
pub fn gather_rows_with<F>(
    ids: &[RowId],
    columns: &[&str],
    mut fetch: F,
) -> Result<Vec<QueryOutput>>
where
    F: FnMut(u32, &SelectionVector, &[&str]) -> Result<Vec<QueryOutput>>,
{
    // Walk the ids in (block, row) order: each run of one block becomes a
    // sorted, deduplicated selection, and `slot_of[n]` records where
    // `ids[n]` landed — (fetched block, row within its selection).
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
        let sel = SelectionVector::from_sorted(rows)?;
        let outs = fetch(block, &sel, columns)?;
        if outs.len() != columns.len() || outs.iter().any(|out| out.len() != sel.len()) {
            return Err(Error::invalid(format!(
                "gather of block {block} returned a different shape than the {} columns x {} rows asked for",
                columns.len(),
                sel.len()
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
    gather_rows_with(ids, columns, |b, sel, cols| {
        let block = blocks
            .get(b as usize)
            .ok_or_else(|| Error::invalid(format!("row id references unknown block {b}")))?;
        cols.iter().map(|c| query_column(block, c, sel)).collect()
    })
}

/// Materializes payload `columns` for TOP-K winners, aligned with `rows`.
///
/// # Errors
///
/// See [`gather_rows`].
pub fn top_k_materialize<B: BlockView>(
    blocks: &[B],
    rows: &[TopKRow],
    columns: &[&str],
) -> Result<Vec<QueryOutput>> {
    let ids: Vec<RowId> = rows.iter().map(TopKRow::id).collect();
    gather_rows(blocks, &ids, columns)
}

/// Materializes both sides of a join result: `build_columns` gather from
/// the build blocks, `probe_columns` from the probe blocks, each aligned
/// with `pairs`.
///
/// # Errors
///
/// See [`gather_rows`].
pub fn join_materialize<B1: BlockView, B2: BlockView>(
    build_blocks: &[B1],
    probe_blocks: &[B2],
    pairs: &[JoinPair],
    build_columns: &[&str],
    probe_columns: &[&str],
) -> Result<(Vec<QueryOutput>, Vec<QueryOutput>)> {
    let build_ids: Vec<RowId> = pairs.iter().map(|p| p.build).collect();
    let probe_ids: Vec<RowId> = pairs.iter().map(|p| p.probe).collect();
    Ok((
        gather_rows(build_blocks, &build_ids, build_columns)?,
        gather_rows(probe_blocks, &probe_ids, probe_columns)?,
    ))
}
