//! Node splitting algorithms (paper §3.2–§3.3).
//!
//! * **Data nodes** split along the dimension of maximum live extent — the
//!   EDA-optimal choice independent of query size and data distribution —
//!   at a position as close to the spatial middle as the utilization
//!   constraint allows (producing more cubic, smaller-surface BRs).
//!   [`SplitPolicy::Vam`] and [`SplitPolicy::RoundRobin`] provide the
//!   comparison policies for the Figure 5(a,b) ablation.
//! * **Index nodes** evaluate, for every candidate dimension, the best 1-d
//!   bipartition of the children's projected segments (an `O(n log n)`
//!   two-ended greedy version of the R-tree bipartitioning problem) and
//!   pick the dimension minimizing the expected-disk-access increase
//!   `E_r[(w_d + r)/(s_d + r)]`. Candidates are restricted to dimensions
//!   already used inside the node's kd-tree (Lemma 1: the restriction is
//!   lossless and yields implicit dimensionality reduction).

use crate::config::SplitPolicy;
use crate::kdtree::KdTree;
use crate::node::DataEntry;
use hyt_geom::{Coord, Rect};
use hyt_index::{IndexError, IndexResult};
use hyt_page::PageId;

/// Result of the 1-d segment bipartitioning (paper §3.3).
#[derive(Clone, Debug)]
pub struct Bipartition {
    /// Indices assigned to the left (lower) group.
    pub left: Vec<usize>,
    /// Indices assigned to the right (upper) group.
    pub right: Vec<usize>,
    /// Right boundary of the left group (max `hi` over its segments).
    pub lsp: Coord,
    /// Left boundary of the right group (min `lo` over its segments).
    pub rsp: Coord,
}

impl Bipartition {
    /// Overlap extent `w = max(0, lsp - rsp)`.
    pub fn overlap(&self) -> f64 {
        (f64::from(self.lsp) - f64::from(self.rsp)).max(0.0)
    }
}

/// Splits 1-d segments into two groups minimizing their overlap along the
/// axis, while guaranteeing at least `min_per_side` segments per group.
///
/// The algorithm is the paper's: sort by left boundary ascending and by
/// right boundary descending, draw alternately from the two sorted lists
/// into the left and right groups until both meet the utilization quota,
/// then place each remaining segment in the group needing the least
/// elongation. Runs in `O(n log n)` — the 1-d ordering is what a k-d
/// R-tree bipartition lacks.
///
/// # Panics
/// Panics if fewer than two segments are supplied.
pub fn bipartition_1d(segments: &[(Coord, Coord)], min_per_side: usize) -> Bipartition {
    let n = segments.len();
    assert!(n >= 2, "bipartition requires at least 2 segments");
    let m = min_per_side.clamp(1, n / 2);

    let mut by_lo: Vec<usize> = (0..n).collect();
    by_lo.sort_by(|&a, &b| {
        segments[a]
            .0
            .total_cmp(&segments[b].0)
            .then(segments[a].1.total_cmp(&segments[b].1))
    });
    let mut by_hi: Vec<usize> = (0..n).collect();
    by_hi.sort_by(|&a, &b| {
        segments[b]
            .1
            .total_cmp(&segments[a].1)
            .then(segments[b].0.total_cmp(&segments[a].0))
    });

    let mut side: Vec<Option<bool>> = vec![None; n]; // Some(true) = left
    let mut left = Vec::with_capacity(n);
    let mut right = Vec::with_capacity(n);
    let mut li = by_lo.iter();
    let mut ri = by_hi.iter();
    while left.len() < m || right.len() < m {
        if left.len() < m {
            for &i in li.by_ref() {
                if side[i].is_none() {
                    side[i] = Some(true);
                    left.push(i);
                    break;
                }
            }
        }
        if right.len() < m {
            for &i in ri.by_ref() {
                if side[i].is_none() {
                    side[i] = Some(false);
                    right.push(i);
                    break;
                }
            }
        }
    }

    let mut lsp = left
        .iter()
        .map(|&i| segments[i].1)
        .fold(Coord::NEG_INFINITY, Coord::max);
    let mut rsp = right
        .iter()
        .map(|&i| segments[i].0)
        .fold(Coord::INFINITY, Coord::min);

    // Remaining segments: least elongation, utilization no longer a concern.
    for &i in &by_lo {
        if side[i].is_some() {
            continue;
        }
        let elong_left = (segments[i].1 - lsp).max(0.0);
        let elong_right = (rsp - segments[i].0).max(0.0);
        if elong_left <= elong_right {
            side[i] = Some(true);
            left.push(i);
            lsp = lsp.max(segments[i].1);
        } else {
            side[i] = Some(false);
            right.push(i);
            rsp = rsp.min(segments[i].0);
        }
    }

    Bipartition {
        left,
        right,
        lsp,
        rsp,
    }
}

/// A completed data-node split: always overlap-free (`lsp == rsp == pos`).
#[derive(Debug)]
pub struct DataSplit {
    /// Split dimension.
    pub dim: u16,
    /// The single split position (left keeps `x <= pos`, right `x >= pos`).
    pub pos: Coord,
    /// Entries for the left node.
    pub left: Vec<DataEntry>,
    /// Entries for the right node.
    pub right: Vec<DataEntry>,
}

/// Splits an overflowing data node.
///
/// The max-extent dimension and the "middle" target are taken from the
/// node's **live** bounding box rather than its kd-region (`_region`):
/// a kd-region's extent along a never-split dimension reflects ancestor
/// boundaries, not this node's data, and measurements showed
/// region-based choices cost 20–50% more disk accesses on clustered
/// data. The live box is also what makes Lemma 1's implicit
/// dimensionality reduction work (a non-discriminating dimension has no
/// live extent and is never chosen). `min_count` is the utilization
/// quota per side; `rr_state` carries the round-robin cursor for
/// [`SplitPolicy::RoundRobin`].
pub(crate) fn split_data(
    mut entries: Vec<DataEntry>,
    _region: &Rect,
    dim_count: usize,
    min_count: usize,
    policy: SplitPolicy,
    rr_state: &mut usize,
) -> DataSplit {
    let n = entries.len();
    debug_assert!(n >= 2);
    let m = min_count.clamp(1, n / 2);

    let live = Rect::bounding(&entries.iter().map(|e| e.point.clone()).collect::<Vec<_>>());

    let dim = match policy {
        SplitPolicy::EdaOptimal | SplitPolicy::MaxExtentMedian => live.max_extent_dim(),
        SplitPolicy::Vam => max_variance_dim(&entries, dim_count),
        SplitPolicy::RoundRobin => {
            // Advance the cursor, skipping zero-extent dimensions.
            let mut d = *rr_state % dim_count;
            for _ in 0..dim_count {
                if live.extent(d) > 0.0 {
                    break;
                }
                d = (d + 1) % dim_count;
            }
            *rr_state = d + 1;
            d
        }
    };

    entries.sort_by(|a, b| a.point.coord(dim).total_cmp(&b.point.coord(dim)));

    // Candidate split indexes leave at least m entries on each side.
    let j = match policy {
        SplitPolicy::EdaOptimal => {
            // As close to the spatial middle as utilization permits
            // (§3.2 footnote 1).
            let target = (live.lo(dim) + live.hi(dim)) * 0.5;
            let mut best_j = m;
            let mut best_gap = f64::INFINITY;
            for cand in m..=(n - m) {
                let boundary = midpoint(
                    entries[cand - 1].point.coord(dim),
                    entries[cand].point.coord(dim),
                );
                let gap = (f64::from(boundary) - f64::from(target)).abs();
                if gap < best_gap {
                    best_gap = gap;
                    best_j = cand;
                }
            }
            best_j
        }
        // Median split for the comparison policies.
        SplitPolicy::Vam | SplitPolicy::RoundRobin | SplitPolicy::MaxExtentMedian => {
            (n / 2).clamp(m, n - m)
        }
    };

    let pos = midpoint(entries[j - 1].point.coord(dim), entries[j].point.coord(dim));
    let right = entries.split_off(j);
    DataSplit {
        dim: dim as u16,
        pos,
        left: entries,
        right,
    }
}

fn midpoint(a: Coord, b: Coord) -> Coord {
    // Midpoint that is exact when a == b and always within [a, b].
    a + (b - a) * 0.5
}

fn max_variance_dim(entries: &[DataEntry], dim_count: usize) -> usize {
    let n = entries.len() as f64;
    let mut best = 0;
    let mut best_var = f64::NEG_INFINITY;
    for d in 0..dim_count {
        let mean: f64 = entries
            .iter()
            .map(|e| f64::from(e.point.coord(d)))
            .sum::<f64>()
            / n;
        let var: f64 = entries
            .iter()
            .map(|e| {
                let x = f64::from(e.point.coord(d)) - mean;
                x * x
            })
            .sum::<f64>()
            / n;
        if var > best_var {
            best_var = var;
            best = d;
        }
    }
    best
}

/// A completed index-node split (possibly overlapping).
#[derive(Debug)]
pub struct IndexSplit {
    /// Split dimension.
    pub dim: u16,
    /// Right boundary of the left group.
    pub lsp: Coord,
    /// Left boundary of the right group.
    pub rsp: Coord,
    /// Children (with kd-regions) of the left node.
    pub left: Vec<(PageId, Rect)>,
    /// Children (with kd-regions) of the right node.
    pub right: Vec<(PageId, Rect)>,
}

/// The paper's index-split score (§3.3): the expected increase in disk
/// accesses, `E_r[(w + r)/(s + r)]`, if a split with overlap `w` happens
/// along a dimension of extent `s`, for a query side `r` uniform on
/// `[0, 1]`. The expectation has the closed form
/// `1 + (w - s) · ln((s + 1)/s)`.
///
/// Lower is better. Degenerate extents (`s <= 0`) score worst (1.0 —
/// both children always accessed together).
fn split_cost(w: f64, s: f64) -> f64 {
    debug_assert!(w >= -1e-9, "negative overlap {w}");
    let w = w.max(0.0);
    if s <= 0.0 {
        return 1.0;
    }
    1.0 + (w - s) * ((s + 1.0) / s).ln()
}

/// The dimension among `dims` whose best 1-d bipartition of `children`
/// (at least `min_per_side` per group) scores lowest under
/// [`split_cost`] against `region`'s extent; ties go to the larger
/// extent, the more discriminating dimension. `None` if `dims` is empty.
fn cheapest_bipartition(
    children: &[(PageId, Rect)],
    region: &Rect,
    dims: impl IntoIterator<Item = usize>,
    min_per_side: usize,
) -> Option<(usize, Bipartition)> {
    let mut best: Option<(f64, f64, usize, Bipartition)> = None;
    for d in dims {
        let segments: Vec<(Coord, Coord)> =
            children.iter().map(|(_, r)| (r.lo(d), r.hi(d))).collect();
        let bp = bipartition_1d(&segments, min_per_side);
        let s = region.extent(d);
        let cost = split_cost(bp.overlap(), s);
        let better = match &best {
            None => true,
            Some((c, bs, ..)) => cost < *c - 1e-12 || (cost <= *c + 1e-12 && s > *bs),
        };
        if better {
            best = Some((cost, s, d, bp));
        }
    }
    best.map(|(_, _, d, bp)| (d, bp))
}

/// Splits an overflowing index node given its children and their
/// kd-regions.
///
/// For each candidate dimension the best 1-d bipartition is computed
/// first; the dimension whose bipartition minimizes the expected
/// disk-access increase is selected (paper §3.3: "before the split
/// dimension is actually chosen, the best split positions are determined
/// for all the dimensions"). An empty `candidate_dims` means every
/// dimension.
pub(crate) fn split_index(
    children: &[(PageId, Rect)],
    region: &Rect,
    candidate_dims: &[u16],
    min_per_side: usize,
) -> IndexResult<IndexSplit> {
    debug_assert!(children.len() >= 2);
    let best = if candidate_dims.is_empty() {
        cheapest_bipartition(children, region, 0..region.dim(), min_per_side)
    } else {
        let dims = candidate_dims.iter().map(|&d| d as usize);
        cheapest_bipartition(children, region, dims, min_per_side)
    };
    let Some((dim, bp)) = best else {
        return Err(IndexError::Internal(
            "index split over a zero-dimensional region".into(),
        ));
    };
    Ok(IndexSplit {
        dim: dim as u16,
        lsp: bp.lsp,
        rsp: bp.rsp,
        left: bp.left.iter().map(|&i| children[i].clone()).collect(),
        right: bp.right.iter().map(|&i| children[i].clone()).collect(),
    })
}

/// VAMSplit-style index-node split (White & Jain): the dimension with
/// maximum variance of the children's region centers, cut at the median
/// center. Unlike the EDA-optimal split it neither searches for the
/// minimum-overlap bipartition nor scores candidate dimensions by
/// expected disk accesses — the comparison baseline of Figure 5(a,b).
pub(crate) fn split_index_vam(children: &[(PageId, Rect)], min_per_side: usize) -> IndexSplit {
    debug_assert!(children.len() >= 2);
    let dim_count = children[0].1.dim();
    let n = children.len();
    let centers: Vec<Vec<f64>> = children
        .iter()
        .map(|(_, r)| {
            (0..dim_count)
                .map(|d| (f64::from(r.lo(d)) + f64::from(r.hi(d))) * 0.5)
                .collect()
        })
        .collect();
    let mut best_dim = 0;
    let mut best_var = f64::NEG_INFINITY;
    for d in 0..dim_count {
        let mean: f64 = centers.iter().map(|c| c[d]).sum::<f64>() / n as f64;
        let var: f64 = centers
            .iter()
            .map(|c| {
                let x = c[d] - mean;
                x * x
            })
            .sum::<f64>()
            / n as f64;
        if var > best_var {
            best_var = var;
            best_dim = d;
        }
    }
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| centers[a][best_dim].total_cmp(&centers[b][best_dim]));
    let m = min_per_side.clamp(1, n / 2);
    let cut = (n / 2).clamp(m, n - m);
    let left: Vec<(PageId, Rect)> = order[..cut].iter().map(|&i| children[i].clone()).collect();
    let right: Vec<(PageId, Rect)> = order[cut..].iter().map(|&i| children[i].clone()).collect();
    let lsp = left
        .iter()
        .map(|(_, r)| r.hi(best_dim))
        .fold(Coord::NEG_INFINITY, Coord::max);
    let rsp = right
        .iter()
        .map(|(_, r)| r.lo(best_dim))
        .fold(Coord::INFINITY, Coord::min);
    IndexSplit {
        dim: best_dim as u16,
        lsp,
        rsp,
        left,
        right,
    }
}

/// Rebuilds a kd-tree over a set of children after an index-node split
/// scatters the original kd structure.
///
/// Recursively applies balanced 1-d bipartitions, choosing at each step
/// the dimension whose bipartition minimizes the same EDA score used for
/// node splits. Split positions are absolute coordinates, so the produced
/// tree composes with any enclosing region.
pub(crate) fn build_kd(children: &[(PageId, Rect)]) -> IndexResult<KdTree> {
    debug_assert!(!children.is_empty());
    if children.len() == 1 {
        return Ok(KdTree::leaf(children[0].0));
    }
    let dim_count = children[0].1.dim();
    let mut region = children[0].1.clone();
    for (_, r) in &children[1..] {
        region.extend_to_rect(r);
    }
    let m = children.len() / 2;
    let Some((dim, bp)) = cheapest_bipartition(children, &region, 0..dim_count, m) else {
        return Err(IndexError::Internal(
            "kd rebuild over zero-dimensional children".into(),
        ));
    };
    let left: Vec<(PageId, Rect)> = bp.left.iter().map(|&i| children[i].clone()).collect();
    let right: Vec<(PageId, Rect)> = bp.right.iter().map(|&i| children[i].clone()).collect();
    Ok(KdTree::split(
        dim as u16,
        bp.lsp,
        bp.rsp,
        build_kd(&left)?,
        build_kd(&right)?,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyt_geom::Point;

    /// Test helper: the entries' own bounding box as the node region
    /// (the root case, where region extent equals live extent).
    fn live_region(entries: &[DataEntry]) -> Rect {
        Rect::bounding(&entries.iter().map(|e| e.point.clone()).collect::<Vec<_>>())
    }

    fn e(coords: Vec<Coord>, oid: u64) -> DataEntry {
        DataEntry {
            point: Point::new(coords),
            oid,
        }
    }

    #[test]
    fn bipartition_disjoint_segments_has_no_overlap() {
        // Two clusters of segments.
        let segs = vec![(0.0, 0.1), (0.05, 0.15), (0.8, 0.9), (0.85, 0.95)];
        let bp = bipartition_1d(&segs, 2);
        assert_eq!(bp.overlap(), 0.0);
        assert_eq!(bp.left.len(), 2);
        assert_eq!(bp.right.len(), 2);
        let mut l = bp.left.clone();
        l.sort_unstable();
        assert_eq!(l, vec![0, 1]);
    }

    #[test]
    fn bipartition_respects_quota_even_when_overlapping() {
        // All segments nearly identical: any split overlaps fully, but the
        // quota must still hold (the hybrid tree's utilization guarantee).
        let segs = vec![(0.4, 0.6); 6];
        let bp = bipartition_1d(&segs, 3);
        assert_eq!(bp.left.len(), 3);
        assert_eq!(bp.right.len(), 3);
        assert!((bp.overlap() - 0.2).abs() < 1e-6, "full overlap expected");
    }

    #[test]
    fn bipartition_boundaries_cover_their_groups() {
        let segs = vec![(0.0, 0.3), (0.2, 0.5), (0.4, 0.7), (0.6, 1.0), (0.1, 0.35)];
        let bp = bipartition_1d(&segs, 2);
        for &i in &bp.left {
            assert!(segs[i].1 <= bp.lsp, "left segment exceeds lsp");
        }
        for &i in &bp.right {
            assert!(segs[i].0 >= bp.rsp, "right segment precedes rsp");
        }
        assert_eq!(bp.left.len() + bp.right.len(), segs.len());
    }

    #[test]
    #[should_panic(expected = "at least 2 segments")]
    fn bipartition_rejects_singleton() {
        bipartition_1d(&[(0.0, 1.0)], 1);
    }

    #[test]
    fn data_split_picks_max_extent_dim() {
        // Dim 1 has the largest spread; EDA-optimal must split it.
        let entries: Vec<DataEntry> = (0..10)
            .map(|i| e(vec![0.5 + 0.001 * i as f32, 0.1 * i as f32], i))
            .collect();
        let mut rr = 0;
        let region = live_region(&entries);
        let s = split_data(entries, &region, 2, 3, SplitPolicy::EdaOptimal, &mut rr);
        assert_eq!(s.dim, 1);
        // Overlap-free: everything left <= pos <= everything right.
        for de in &s.left {
            assert!(de.point.coord(1) <= s.pos);
        }
        for de in &s.right {
            assert!(de.point.coord(1) >= s.pos);
        }
        assert!(s.left.len() >= 3 && s.right.len() >= 3);
    }

    #[test]
    fn data_split_middle_beats_median_under_skew() {
        // 9 points near 0, 3 points near 1. The spatial middle is ~0.5;
        // the utilization quota (2) permits splitting at the big gap,
        // which the middle rule selects — the median rule would not.
        let mut entries: Vec<DataEntry> = (0..9).map(|i| e(vec![0.01 * i as f32], i)).collect();
        entries.extend((0..3).map(|i| e(vec![0.95 + 0.01 * i as f32], 100 + i)));
        let mut rr = 0;
        let region = live_region(&entries);
        let s = split_data(
            entries.clone(),
            &region,
            1,
            2,
            SplitPolicy::EdaOptimal,
            &mut rr,
        );
        assert_eq!(s.left.len(), 9, "middle split isolates the gap");
        let s_vam = split_data(entries, &region, 1, 2, SplitPolicy::Vam, &mut rr);
        assert_eq!(s_vam.left.len(), 6, "median split balances counts");
    }

    #[test]
    fn data_split_handles_duplicate_coordinates() {
        // All identical along every dim: split must still produce two
        // groups meeting the quota (rank split at the shared value).
        let entries: Vec<DataEntry> = (0..8).map(|i| e(vec![0.5, 0.5], i)).collect();
        let mut rr = 0;
        let region = live_region(&entries);
        let s = split_data(entries, &region, 2, 3, SplitPolicy::EdaOptimal, &mut rr);
        assert!(s.left.len() >= 3 && s.right.len() >= 3);
        assert_eq!(s.pos, 0.5);
    }

    #[test]
    fn vam_split_picks_max_variance_dim() {
        // Dim 0 has a huge extent caused by one outlier but small
        // variance; dim 1 has consistent spread. VAM picks dim 1 while
        // max-extent picks dim 0 — the distinction the paper discusses.
        let mut entries: Vec<DataEntry> =
            (0..20).map(|i| e(vec![0.5, 0.05 * i as f32], i)).collect();
        entries.push(e(vec![1.5, 0.5], 99)); // outlier on dim 0
        let mut rr = 0;
        let region = live_region(&entries);
        let vam = split_data(entries.clone(), &region, 2, 4, SplitPolicy::Vam, &mut rr);
        assert_eq!(vam.dim, 1);
        let eda = split_data(entries, &region, 2, 4, SplitPolicy::EdaOptimal, &mut rr);
        assert_eq!(eda.dim, 0);
    }

    #[test]
    fn round_robin_cycles_dimensions() {
        let entries: Vec<DataEntry> = (0..8)
            .map(|i| e(vec![0.1 * i as f32, 0.1 * i as f32, 0.1 * i as f32], i))
            .collect();
        let mut rr = 0;
        let region = live_region(&entries);
        let a = split_data(
            entries.clone(),
            &region,
            3,
            2,
            SplitPolicy::RoundRobin,
            &mut rr,
        );
        let b = split_data(
            entries.clone(),
            &region,
            3,
            2,
            SplitPolicy::RoundRobin,
            &mut rr,
        );
        let c = split_data(entries, &region, 3, 2, SplitPolicy::RoundRobin, &mut rr);
        assert_eq!((a.dim, b.dim, c.dim), (0, 1, 2));
    }

    fn child(pid: u32, lo: Vec<Coord>, hi: Vec<Coord>) -> (PageId, Rect) {
        (PageId(pid), Rect::new(lo, hi))
    }

    #[test]
    fn split_cost_properties() {
        // Full overlap costs 1 regardless of s.
        assert!((split_cost(0.3, 0.3) - 1.0).abs() < 1e-9);
        // No overlap costs strictly less than 1 and decreases with s.
        let c_small = split_cost(0.0, 0.1);
        let c_big = split_cost(0.0, 0.9);
        assert!(c_small < 1.0 && c_big < c_small);
        // Monotone in w.
        assert!(split_cost(0.05, 0.5) < split_cost(0.25, 0.5));
    }

    #[test]
    fn split_cost_agrees_with_numeric_integral() {
        let (w, s) = (0.07, 0.42);
        let n = 100_000;
        let numeric: f64 = (0..n)
            .map(|i| {
                let r = (i as f64 + 0.5) / n as f64;
                (w + r) / (s + r)
            })
            .sum::<f64>()
            / n as f64;
        assert!((split_cost(w, s) - numeric).abs() < 1e-6);
    }

    #[test]
    fn degenerate_extent_scores_worst() {
        assert_eq!(split_cost(0.0, 0.0), 1.0);
    }

    #[test]
    fn index_split_prefers_clean_dimension() {
        // Along dim 0 the children separate cleanly; along dim 1 they all
        // span the node. The EDA score must choose dim 0.
        let children = vec![
            child(1, vec![0.0, 0.0], vec![0.25, 1.0]),
            child(2, vec![0.25, 0.0], vec![0.5, 1.0]),
            child(3, vec![0.5, 0.0], vec![0.75, 1.0]),
            child(4, vec![0.75, 0.0], vec![1.0, 1.0]),
        ];
        let region = Rect::unit(2);
        let s = split_index(&children, &region, &[0, 1], 2).unwrap();
        assert_eq!(s.dim, 0);
        assert!(s.lsp <= s.rsp, "clean split expected");
        assert_eq!(s.left.len(), 2);
        assert_eq!(s.right.len(), 2);
    }

    #[test]
    fn index_split_restricted_to_candidate_dims() {
        // Dim 1 separates best but is not a candidate (Lemma 1 restriction).
        let children = vec![
            child(1, vec![0.0, 0.0], vec![1.0, 0.5]),
            child(2, vec![0.0, 0.5], vec![1.0, 1.0]),
            child(3, vec![0.0, 0.0], vec![0.6, 0.5]),
            child(4, vec![0.4, 0.5], vec![1.0, 1.0]),
        ];
        let region = Rect::unit(2);
        let s = split_index(&children, &region, &[0], 2).unwrap();
        assert_eq!(s.dim, 0);
    }

    #[test]
    fn index_split_allows_overlap_to_preserve_utilization() {
        // Three children span nearly everything along the only dimension;
        // a clean split is impossible, so lsp > rsp.
        let children = vec![
            child(1, vec![0.0], vec![0.9]),
            child(2, vec![0.1], vec![1.0]),
            child(3, vec![0.0], vec![1.0]),
            child(4, vec![0.05], vec![0.95]),
        ];
        let region = Rect::unit(1);
        let s = split_index(&children, &region, &[0], 2).unwrap();
        assert!(s.lsp > s.rsp, "overlap is the price of utilization");
        assert_eq!(s.left.len() + s.right.len(), 4);
        assert!(s.left.len() >= 2 && s.right.len() >= 2);
    }

    #[test]
    fn build_kd_covers_all_children_exactly_once() {
        let children = vec![
            child(1, vec![0.0, 0.0], vec![0.5, 0.5]),
            child(2, vec![0.5, 0.0], vec![1.0, 0.5]),
            child(3, vec![0.0, 0.5], vec![0.5, 1.0]),
            child(4, vec![0.5, 0.5], vec![1.0, 1.0]),
            child(5, vec![0.25, 0.25], vec![0.75, 0.75]),
        ];
        let kd = build_kd(&children).unwrap();
        assert_eq!(kd.fanout(), 5);
        let mut ids: Vec<u32> = kd.child_ids().iter().map(|p| p.0).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn build_kd_regions_contain_original_regions() {
        // The kd mapping applied to the rebuilt tree must assign each
        // child a region containing its original region (no clipping of
        // live data space).
        let children = vec![
            child(1, vec![0.0, 0.0], vec![0.3, 1.0]),
            child(2, vec![0.3, 0.0], vec![0.6, 1.0]),
            child(3, vec![0.55, 0.0], vec![1.0, 0.5]),
            child(4, vec![0.6, 0.5], vec![1.0, 1.0]),
        ];
        let region = Rect::unit(2);
        let kd = build_kd(&children).unwrap();
        let mapped = kd.children_with_regions(&region);
        for (pid, mapped_region) in mapped {
            let original = &children.iter().find(|(p, _)| *p == pid).unwrap().1;
            assert!(
                mapped_region.contains_rect(original),
                "{pid}: {mapped_region:?} must contain {original:?}"
            );
        }
    }

    #[test]
    fn build_kd_is_reasonably_balanced() {
        let children: Vec<(PageId, Rect)> = (0..64)
            .map(|i| {
                let lo = i as f32 / 64.0;
                child(i, vec![lo], vec![lo + 1.0 / 64.0])
            })
            .collect();
        let kd = build_kd(&children).unwrap();
        assert_eq!(kd.fanout(), 64);
        // Balanced bipartition gives logarithmic depth (6 for 64 leaves);
        // allow slack but reject linear chains.
        assert!(kd.depth() <= 10, "depth {} too deep", kd.depth());
    }

    #[test]
    fn build_kd_handles_identical_regions() {
        let children: Vec<(PageId, Rect)> = (0..5)
            .map(|i| child(i, vec![0.2, 0.2], vec![0.8, 0.8]))
            .collect();
        let kd = build_kd(&children).unwrap();
        assert_eq!(kd.fanout(), 5);
    }
}
