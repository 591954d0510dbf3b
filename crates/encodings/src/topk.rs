//! Oracle tests for the TOP-K kernels of every codec: the provided
//! chunk-stream body (FOR / Plain / Delta / Frequency — offsets preserve
//! value order, so decode plus the bounded heap is already the fast path)
//! and the Dict code-domain and RLE per-run overrides.

#[cfg(test)]
mod tests {
    use corra_columnar::selection::SelectionVector;
    use corra_columnar::topk::{rank, TopKHeap};

    use crate::{
        DeltaInt, DictInt, ForInt, FrequencyInt, IntAccess, IntEncoding, PlainInt, RleInt,
    };

    fn oracle(values: &[i64], k: usize, descending: bool) -> Vec<(i64, u64)> {
        let mut rows: Vec<(i64, u64)> = values
            .iter()
            .enumerate()
            .map(|(i, &v)| (v, i as u64))
            .collect();
        rows.sort_by_key(|&(v, p)| (rank(v, descending), p));
        rows.truncate(k);
        rows
    }

    fn check<E: IntAccess>(enc: &E, values: &[i64]) {
        for k in [0usize, 1, 3, values.len(), values.len() + 7] {
            for descending in [false, true] {
                let mut heap = TopKHeap::new(k, descending);
                enc.top_k_into(0, &mut heap);
                assert_eq!(
                    heap.into_sorted(),
                    oracle(values, k, descending),
                    "k={k} descending={descending}"
                );
            }
        }
        // Selected path: every third row.
        let sel: Vec<u32> = (0..values.len() as u32).step_by(3).collect();
        let filtered: Vec<(i64, u64)> = sel
            .iter()
            .map(|&p| (values[p as usize], p as u64))
            .collect();
        let mut want: Vec<(i64, u64)> = filtered;
        want.sort_by_key(|&(v, p)| (rank(v, true), p));
        want.truncate(2);
        let mut heap = TopKHeap::new(2, true);
        enc.top_k_selected(0, &SelectionVector::new(sel), &mut heap);
        assert_eq!(heap.into_sorted(), want);
    }

    #[test]
    fn every_codec_matches_the_oracle() {
        let values: Vec<i64> = (0..500)
            .map(|i| [7, 7, 7, 3, 3, 900, -14, 7, 0, 55][i % 10] + (i as i64 / 100))
            .collect();
        check(&PlainInt::encode(&values), &values);
        check(&ForInt::encode(&values), &values);
        check(&DictInt::encode(&values), &values);
        check(&RleInt::encode(&values), &values);
        check(&DeltaInt::encode(&values), &values);
        check(&FrequencyInt::encode(&values, 4), &values);
    }

    #[test]
    fn rle_duplicate_heavy_folds_runs() {
        // One long run dominates: only its first k positions may surface.
        let mut values = vec![5i64; 10_000];
        values.extend([1, 1, 9]);
        let enc = RleInt::encode(&values);
        let mut heap = TopKHeap::new(3, false);
        enc.top_k_into(0, &mut heap);
        assert_eq!(heap.into_sorted(), vec![(1, 10_000), (1, 10_001), (5, 0)]);
        check(&enc, &values);
    }

    #[test]
    fn dict_code_domain_respects_existing_bound() {
        // A heap already holding better values from "another block" must
        // reject everything this column offers.
        let values = vec![100i64, 200, 300];
        let enc = DictInt::encode(&values);
        let mut heap = TopKHeap::new(2, false);
        heap.offer(1, 500);
        heap.offer(2, 501);
        enc.top_k_into(0, &mut heap);
        assert_eq!(heap.into_sorted(), vec![(1, 500), (2, 501)]);
    }

    #[test]
    fn dispatch_through_int_encoding() {
        let values = vec![9i64, -2, 9, 4, 4, 4, 11];
        let enc = IntEncoding::Rle(RleInt::encode(&values));
        let mut heap = TopKHeap::new(2, true);
        enc.top_k_into(1 << 32, &mut heap);
        assert_eq!(heap.into_sorted(), vec![(11, (1 << 32) + 6), (9, 1 << 32)]);
    }
}
