//! Encoded Live Space (ELS) — dead-space elimination (paper §3.4).
//!
//! Space-partitioning structures index *dead space*: regions that contain
//! no data. The hybrid tree removes most of it by remembering, per child,
//! the bounding box of the data actually beneath the child (its *live
//! space*), quantized relative to the child's kd-region using a small
//! number of bits per boundary. At query time the kd-region is checked
//! first and the live-space BR is consulted only if the kd-region
//! qualifies (§3.4).
//!
//! The paper stores the encoded table in memory ("for 8K page, 4 bit
//! precision and 64-d space, the overhead is less than 1% of the database
//! size and can be stored in memory"). This implementation keeps, per
//! child, both the *exact* live BR (needed to re-derive live space after
//! splits) and the `bits`-precision *quantized* BR in absolute
//! coordinates. Quantization happens at update time, against the child's
//! kd-region of that moment; the quantized box conservatively contains
//! the live space forever after (regions only ever grow), so queries can
//! prune with it directly — no kd-region needed on the hot path.
//! [`ElsTable::encoded_bytes`] reports the size the table would occupy at
//! the configured precision, which is what the paper's <1% figure
//! measures.

use hyt_geom::{Coord, Point, Rect};
use hyt_page::PageId;
use std::collections::HashMap;

struct LiveEntry {
    exact_lo: Vec<Coord>,
    exact_hi: Vec<Coord>,
    quant: Rect,
}

/// Memory-resident live-space table, keyed by child page id.
pub struct ElsTable {
    bits: u8,
    dim: usize,
    live: HashMap<PageId, LiveEntry>,
}

impl ElsTable {
    /// Creates a table with the given precision; `bits == 0` disables ELS
    /// (every lookup falls back to the kd-region).
    pub fn new(dim: usize, bits: u8) -> Self {
        assert!(bits <= 16, "ELS precision is capped at 16 bits");
        Self {
            bits,
            dim,
            live: HashMap::new(),
        }
    }

    /// Precision in bits per boundary.
    pub fn bits(&self) -> u8 {
        self.bits
    }

    /// Whether ELS is enabled.
    pub fn enabled(&self) -> bool {
        self.bits > 0
    }

    /// Number of children tracked.
    pub fn len(&self) -> usize {
        self.live.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.live.is_empty()
    }

    /// Bytes the quantized table would occupy: `2 * dim * bits` bits per
    /// child (the paper's overhead accounting).
    pub fn encoded_bytes(&self) -> usize {
        if !self.enabled() {
            return 0;
        }
        let bits_per_child = 2 * self.dim * self.bits as usize;
        (self.live.len() * bits_per_child).div_ceil(8)
    }

    /// Quantizes `(lo, hi)` to the table's precision relative to
    /// `region`, rounding outward (conservative).
    fn quantize(&self, lo: &[Coord], hi: &[Coord], region: &Rect) -> (Vec<Coord>, Vec<Coord>) {
        let levels = f64::from(1u32 << self.bits);
        let mut qlo = Vec::with_capacity(self.dim);
        let mut qhi = Vec::with_capacity(self.dim);
        for d in 0..self.dim {
            let rmin = f64::from(region.lo(d));
            let rmax = f64::from(region.hi(d));
            let ext = rmax - rmin;
            if ext <= 0.0 {
                qlo.push(lo[d].min(region.lo(d)));
                qhi.push(hi[d].max(region.hi(d)));
                continue;
            }
            let l = f64::from(lo[d]).clamp(rmin, rmax);
            let h = f64::from(hi[d]).clamp(rmin, rmax);
            let lcode = (((l - rmin) / ext) * levels).floor().min(levels - 1.0);
            let hcode = (((h - rmin) / ext) * levels).ceil().max(1.0).min(levels);
            qlo.push((rmin + lcode / levels * ext) as Coord);
            qhi.push((rmin + hcode / levels * ext) as Coord);
        }
        (qlo, qhi)
    }

    fn store(&mut self, child: PageId, lo: Vec<Coord>, hi: Vec<Coord>, region: &Rect) {
        let (quant_lo, quant_hi) = self.quantize(&lo, &hi, region);
        self.live.insert(
            child,
            LiveEntry {
                exact_lo: lo,
                exact_hi: hi,
                quant: Rect::new(quant_lo, quant_hi),
            },
        );
    }

    /// Replaces the live BR of `child` with the bounding box of `points`,
    /// quantized against the child's current kd-region.
    pub fn set_from_points<'a, I: IntoIterator<Item = &'a Point>>(
        &mut self,
        child: PageId,
        points: I,
        region: &Rect,
    ) {
        if !self.enabled() {
            return;
        }
        let mut it = points.into_iter();
        let Some(first) = it.next() else {
            self.live.remove(&child);
            return;
        };
        let mut lo: Vec<Coord> = first.coords().to_vec();
        let mut hi = lo.clone();
        for p in it {
            for d in 0..self.dim {
                lo[d] = lo[d].min(p.coord(d));
                hi[d] = hi[d].max(p.coord(d));
            }
        }
        self.store(child, lo, hi, region);
    }

    /// Replaces the live BR of `child` with the union of `rects`.
    pub fn set_from_rects<'a, I: IntoIterator<Item = &'a Rect>>(
        &mut self,
        child: PageId,
        rects: I,
        region: &Rect,
    ) {
        if !self.enabled() {
            return;
        }
        let mut acc: Option<Rect> = None;
        for r in rects {
            acc = Some(match acc {
                None => r.clone(),
                Some(a) => a.union(r),
            });
        }
        match acc {
            Some(r) => {
                let lo: Vec<Coord> = (0..self.dim).map(|d| r.lo(d)).collect();
                let hi: Vec<Coord> = (0..self.dim).map(|d| r.hi(d)).collect();
                self.store(child, lo, hi, region);
            }
            None => {
                self.live.remove(&child);
            }
        }
    }

    /// Grows the live BR of `child` to cover `p` (insertion path),
    /// re-quantizing against the child's current kd-region.
    pub fn extend(&mut self, child: PageId, p: &Point, region: &Rect) {
        if !self.enabled() {
            return;
        }
        match self.live.remove(&child) {
            Some(mut e) => {
                for d in 0..self.dim {
                    e.exact_lo[d] = e.exact_lo[d].min(p.coord(d));
                    e.exact_hi[d] = e.exact_hi[d].max(p.coord(d));
                }
                self.store(child, e.exact_lo, e.exact_hi, region);
            }
            None => {
                self.store(child, p.coords().to_vec(), p.coords().to_vec(), region);
            }
        }
    }

    /// Drops the entry for a freed page.
    pub fn remove(&mut self, child: PageId) {
        self.live.remove(&child);
    }

    /// The quantized live BR of `child` (absolute coordinates), if any.
    /// This is the allocation-free pruning surface for distance queries.
    #[inline]
    pub fn quant_rect(&self, child: PageId) -> Option<&Rect> {
        self.live.get(&child).map(|e| &e.quant)
    }

    /// The exact (unquantized) live BR recorded for `child`, if any.
    pub fn exact_live(&self, child: PageId) -> Option<Rect> {
        self.live
            .get(&child)
            .map(|e| Rect::new(e.exact_lo.clone(), e.exact_hi.clone()))
    }

    /// Whether the quantized live BR of `child` intersects the query box;
    /// `true` when unknown (no false dismissals).
    #[inline]
    pub fn may_intersect(&self, child: PageId, query: &Rect) -> bool {
        let Some(e) = self.live.get(&child) else {
            return true;
        };
        e.quant.intersects(query)
    }

    /// Whether the quantized live BR of `child` contains the point;
    /// `true` when unknown.
    #[inline]
    pub fn may_contain(&self, child: PageId, p: &Point) -> bool {
        let Some(e) = self.live.get(&child) else {
            return true;
        };
        e.quant.contains_point(p)
    }

    /// The pruning region for `child`: its quantized live BR intersected
    /// with the supplied kd-region (which also serves as the fallback when
    /// the child is untracked or ELS is disabled).
    pub fn effective_region(&self, child: PageId, kd_region: &Rect) -> Rect {
        if !self.enabled() {
            return kd_region.clone();
        }
        let Some(e) = self.live.get(&child) else {
            return kd_region.clone();
        };
        // Intersect (the quantized box may poke outside a region that was
        // smaller at quantization time than the kd-region is now — both
        // contain the live space, so the intersection does too).
        let lo: Vec<Coord> = (0..self.dim)
            .map(|d| e.quant.lo(d).max(kd_region.lo(d)).min(kd_region.hi(d)))
            .collect();
        let hi: Vec<Coord> = (0..self.dim)
            .map(|d| e.quant.hi(d).min(kd_region.hi(d)).max(lo[d]))
            .collect();
        Rect::new(lo, hi)
    }
}

impl ElsTable {
    /// Serializes the table (for [`HybridTree::persist`]).
    ///
    /// [`HybridTree::persist`]: crate::HybridTree::persist
    pub fn encode(&self, w: &mut hyt_page::ByteWriter) {
        w.put_u8(self.bits);
        w.put_u32(self.dim as u32);
        w.put_u32(self.live.len() as u32);
        let mut ids: Vec<&PageId> = self.live.keys().collect();
        ids.sort();
        for pid in ids {
            let e = &self.live[pid];
            w.put_u32(pid.0);
            for d in 0..self.dim {
                w.put_f32(e.exact_lo[d]);
                w.put_f32(e.exact_hi[d]);
                w.put_f32(e.quant.lo(d));
                w.put_f32(e.quant.hi(d));
            }
        }
    }

    /// Parses a table serialized by [`encode`](Self::encode).
    pub fn decode(r: &mut hyt_page::ByteReader<'_>) -> hyt_page::PageResult<Self> {
        let bits = r.get_u8()?;
        if bits > 16 {
            return Err(hyt_page::PageError::Corrupt(format!(
                "ELS bits {bits} out of range"
            )));
        }
        let dim = r.get_u32()? as usize;
        if dim == 0 || dim > u16::MAX as usize {
            return Err(hyt_page::PageError::Corrupt(format!(
                "ELS dimensionality {dim} out of range"
            )));
        }
        let n = r.get_u32()? as usize;
        // Checked: a hostile header must not overflow the size estimate.
        let need = n
            .checked_mul(dim)
            .and_then(|v| v.checked_mul(16))
            .filter(|&need| need <= r.remaining());
        if need.is_none() {
            return Err(hyt_page::PageError::Corrupt(
                "ELS table claims more entries than the buffer holds".into(),
            ));
        }
        let mut live = HashMap::with_capacity(n);
        for _ in 0..n {
            let pid = PageId(r.get_u32()?);
            let mut exact_lo = Vec::with_capacity(dim);
            let mut exact_hi = Vec::with_capacity(dim);
            let mut qlo = Vec::with_capacity(dim);
            let mut qhi = Vec::with_capacity(dim);
            for _ in 0..dim {
                exact_lo.push(r.get_f32()?);
                exact_hi.push(r.get_f32()?);
                qlo.push(r.get_f32()?);
                qhi.push(r.get_f32()?);
            }
            // `Rect::new` asserts what a damaged catalog can break: check
            // both boxes here and report them typed.
            let ordered = |lo: &[Coord], hi: &[Coord]| {
                lo.iter()
                    .zip(hi)
                    .all(|(l, h)| l.is_finite() && h.is_finite() && l <= h)
            };
            if !ordered(&exact_lo, &exact_hi) || !ordered(&qlo, &qhi) {
                return Err(hyt_page::PageError::Corrupt(format!(
                    "ELS entry for {pid}: live box bounds not finite and ordered"
                )));
            }
            live.insert(
                pid,
                LiveEntry {
                    exact_lo,
                    exact_hi,
                    quant: Rect::new(qlo, qhi),
                },
            );
        }
        Ok(Self { bits, dim, live })
    }
}

impl std::fmt::Debug for ElsTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ElsTable")
            .field("bits", &self.bits)
            .field("dim", &self.dim)
            .field("children", &self.live.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pid(n: u32) -> PageId {
        PageId(n)
    }

    #[test]
    fn decode_rejects_an_inverted_quantized_box() {
        // A CRC-valid 1-d table, 4 bits, one entry whose exact box is
        // sound but whose quantized box runs from 1.0 down to 0.0.
        let mut w = hyt_page::ByteWriter::new();
        w.put_u8(4);
        w.put_u32(1);
        w.put_u32(1);
        w.put_u32(7);
        for x in [0.25f32, 0.5, 1.0, 0.0] {
            w.put_f32(x);
        }
        let bytes = w.into_inner();
        let got = ElsTable::decode(&mut hyt_page::ByteReader::new(&bytes));
        assert!(matches!(got, Err(hyt_page::PageError::Corrupt(_))));
    }

    #[test]
    fn disabled_table_is_passthrough() {
        let mut t = ElsTable::new(2, 0);
        let region = Rect::unit(2);
        t.extend(pid(1), &Point::new(vec![0.5, 0.5]), &region);
        assert!(t.is_empty());
        assert_eq!(t.effective_region(pid(1), &region), region);
        assert!(t.may_intersect(pid(1), &region));
        assert_eq!(t.encoded_bytes(), 0);
    }

    #[test]
    fn effective_region_contains_live_space() {
        let mut t = ElsTable::new(2, 4);
        let pts = vec![Point::new(vec![0.30, 0.30]), Point::new(vec![0.40, 0.60])];
        let region = Rect::unit(2);
        t.set_from_points(pid(1), pts.iter(), &region);
        let eff = t.effective_region(pid(1), &region);
        for p in &pts {
            assert!(eff.contains_point(p), "quantization must be conservative");
            assert!(t.may_contain(pid(1), p));
        }
        assert!(eff.volume() < region.volume());
        assert!(region.contains_rect(&eff));
    }

    #[test]
    fn may_intersect_prunes_disjoint_boxes() {
        let mut t = ElsTable::new(2, 8);
        let region = Rect::unit(2);
        t.set_from_points(pid(1), [Point::new(vec![0.1, 0.1])].iter(), &region);
        assert!(t.may_intersect(pid(1), &Rect::new(vec![0.0, 0.0], vec![0.2, 0.2])));
        assert!(!t.may_intersect(pid(1), &Rect::new(vec![0.8, 0.8], vec![0.9, 0.9])));
    }

    #[test]
    fn more_bits_means_tighter_regions() {
        let pts = [
            Point::new(vec![0.301, 0.299]),
            Point::new(vec![0.302, 0.301]),
        ];
        let region = Rect::unit(2);
        let mut vol_prev = f64::INFINITY;
        for bits in [1u8, 2, 4, 8, 12] {
            let mut t = ElsTable::new(2, bits);
            t.set_from_points(pid(1), pts.iter(), &region);
            let v = t.effective_region(pid(1), &region).volume();
            assert!(v <= vol_prev + 1e-12, "bits={bits} gave looser region");
            vol_prev = v;
        }
        assert!(vol_prev < 1e-3);
    }

    #[test]
    fn extend_grows_monotonically() {
        let mut t = ElsTable::new(2, 8);
        let region = Rect::unit(2);
        t.extend(pid(1), &Point::new(vec![0.5, 0.5]), &region);
        t.extend(pid(1), &Point::new(vec![0.8, 0.2]), &region);
        assert!(t.may_contain(pid(1), &Point::new(vec![0.5, 0.5])));
        assert!(t.may_contain(pid(1), &Point::new(vec![0.8, 0.2])));
    }

    #[test]
    fn survives_region_enlargement() {
        // A live BR quantized against a small region must stay valid when
        // the kd-region is later enlarged (the gap-insertion case).
        let mut t = ElsTable::new(1, 4);
        let small = Rect::new(vec![0.4], vec![0.5]);
        t.set_from_points(pid(1), [Point::new(vec![0.45])].iter(), &small);
        let grown = Rect::new(vec![0.2], vec![0.5]);
        assert!(t
            .effective_region(pid(1), &small)
            .contains_point(&Point::new(vec![0.45])));
        assert!(t
            .effective_region(pid(1), &grown)
            .contains_point(&Point::new(vec![0.45])));
        assert!(t.may_contain(pid(1), &Point::new(vec![0.45])));
    }

    #[test]
    fn set_from_rects_unions() {
        let mut t = ElsTable::new(2, 8);
        let region = Rect::unit(2);
        let a = Rect::new(vec![0.1, 0.1], vec![0.2, 0.2]);
        let b = Rect::new(vec![0.5, 0.5], vec![0.6, 0.9]);
        t.set_from_rects(pid(3), [a.clone(), b.clone()].iter(), &region);
        let eff = t.effective_region(pid(3), &region);
        assert!(eff.contains_rect(&a));
        assert!(eff.contains_rect(&b));
    }

    #[test]
    fn encoded_bytes_matches_paper_accounting() {
        let mut t = ElsTable::new(64, 4);
        let region = Rect::unit(64);
        for i in 0..100 {
            t.extend(pid(i), &Point::new(vec![0.5; 64]), &region);
        }
        // 2 * 64 * 4 bits = 64 bytes per child.
        assert_eq!(t.encoded_bytes(), 6400);
    }

    #[test]
    fn remove_clears_entry() {
        let mut t = ElsTable::new(2, 4);
        let region = Rect::unit(2);
        t.extend(pid(1), &Point::new(vec![0.5, 0.5]), &region);
        assert_eq!(t.len(), 1);
        t.remove(pid(1));
        assert!(t.is_empty());
        assert_eq!(t.effective_region(pid(1), &region), region);
    }

    #[test]
    fn degenerate_region_extent_is_handled() {
        let mut t = ElsTable::new(2, 4);
        let region = Rect::new(vec![0.5, 0.0], vec![0.5, 1.0]);
        t.set_from_points(pid(1), [Point::new(vec![0.5, 0.3])].iter(), &region);
        let eff = t.effective_region(pid(1), &region);
        assert!(eff.contains_point(&Point::new(vec![0.5, 0.3])));
    }
}
