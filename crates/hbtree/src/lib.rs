//! hB-tree baseline (Lomet & Salzberg, TODS 1990).
//!
//! The hB-tree ("holey brick" B-tree) is the paper's representative
//! *space-partitioning* competitor (§4). Its nodes organize space with
//! intra-node kd-trees, like the hybrid tree, but its splits stay clean
//! by using **multiple dimensions per split**: an overflowing node sheds
//! a *corner* — the intersection of several half-space constraints
//! holding between 1/3 and 2/3 of its content — leaving the node
//! responsible for a rectangle with a rectangular hole (a holey brick).
//! The kd-path describing the extracted corner is replicated into the
//! parent (**path posting**) — the storage redundancy the hybrid tree
//! paper holds against the hB-tree in Table 1 — and multi-dimensional
//! corners have larger surface area than 1-d slabs, costing disk
//! accesses (§3.6).
//!
//! ### Fidelity notes (also recorded in DESIGN.md)
//!
//! Lomet–Salzberg's full posting protocol (decorations resolving which
//! parent fragment owns a multiply-referenced child) is notoriously
//! subtle; this implementation uses an equivalent-but-simpler scheme
//! that preserves correctness and the performance-relevant redundancy:
//!
//! * a posted path is grafted at exactly **one** parent fragment;
//! * the splitting node keeps a **sibling redirect** for the extracted
//!   corner (a `Kd::Sibling` leaf for index corners; a constraint list
//!   in data pages for data corners), so traffic arriving through any
//!   other fragment still reaches the moved content — at the price of an
//!   extra page access, which the I/O counters measure honestly;
//! * deletion removes entries without node merging;
//! * per the paper's §4 footnote 2, distance-based queries are
//!   unsupported.

// Page bytes are untrusted: a damaged page must surface as an error on
// every path, never as a panic.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use hyt_exec::{Child, EntrySink, NearQuery, NodeExpand};
use hyt_geom::{Coord, Metric, Point, Rect};
use hyt_index::{
    check_dim, leaf, Answer, IndexError, IndexResult, MultidimIndex, Query, QueryContext,
    QueryOutcome, StatsTally, StructureStats,
};
use hyt_page::{
    BufferPool, ByteReader, ByteWriter, IoStats, MemStorage, PageError, PageId, PageResult, Storage,
};
use std::collections::HashSet;

const TAG_DATA: u8 = 0;
const TAG_INDEX: u8 = 1;
const KD_CHILD: u8 = 0;
const KD_INTERNAL: u8 = 1;
const KD_SIBLING: u8 = 2;

/// Which side of a split a constraint keeps.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Side {
    /// `x < pos`.
    Lower,
    /// `x >= pos`.
    Upper,
}

/// One half-space constraint of a posted corner path.
#[derive(Clone, Debug)]
struct Constraint {
    dim: u16,
    pos: Coord,
    side: Side,
}

impl Constraint {
    fn admits_point(&self, p: &Point) -> bool {
        let x = p.coord(self.dim as usize);
        match self.side {
            Side::Lower => x < self.pos,
            Side::Upper => x >= self.pos,
        }
    }

    /// Closed-region overlap test against a query box.
    fn admits_box(&self, q: &Rect) -> bool {
        let d = self.dim as usize;
        match self.side {
            Side::Lower => q.lo(d) <= self.pos,
            Side::Upper => q.hi(d) >= self.pos,
        }
    }

    const ENCODED: usize = 2 + 4 + 1;

    fn encode(&self, w: &mut ByteWriter) {
        w.put_u16(self.dim);
        w.put_f32(self.pos);
        w.put_u8(match self.side {
            Side::Lower => 0,
            Side::Upper => 1,
        });
    }

    /// Decodes a constraint of a `dims`-dimensional tree.
    fn decode(r: &mut ByteReader<'_>, dims: usize) -> PageResult<Self> {
        let (dim, pos) = decode_split(r, dims)?;
        let side = match r.get_u8()? {
            0 => Side::Lower,
            1 => Side::Upper,
            t => return Err(PageError::Corrupt(format!("bad side tag {t}"))),
        };
        Ok(Constraint { dim, pos, side })
    }
}

/// Reads a split's `(dimension, position)` for a `dims`-dimensional
/// tree: a dimension past it or a non-finite position is corruption.
fn decode_split(r: &mut ByteReader<'_>, dims: usize) -> PageResult<(u16, Coord)> {
    let dim = r.get_u16()?;
    let pos = r.get_f32()?;
    if usize::from(dim) >= dims || !pos.is_finite() {
        return Err(PageError::Corrupt(format!(
            "hB split on dim {dim} at {pos} in a {dims}-d tree"
        )));
    }
    Ok((dim, pos))
}

/// A redirect left behind by a data-corner extraction: entries matching
/// every constraint now live in (or beyond) `target`.
#[derive(Clone, Debug)]
struct Redirect {
    constraints: Vec<Constraint>,
    target: PageId,
}

impl Redirect {
    fn encoded_size(&self) -> usize {
        1 + self.constraints.len() * Constraint::ENCODED + 4
    }
}

/// Bytes of a data node other than its leaf entries: the tag and entry
/// count before them, the redirect count and redirects after them.
fn data_overhead(redirects: &[Redirect]) -> usize {
    1 + 4 + 2 + redirects.iter().map(Redirect::encoded_size).sum::<usize>()
}

/// Intra-node kd-tree. `Sibling` marks an extracted corner whose
/// contents moved to a same-level node.
#[derive(Clone, Debug, PartialEq)]
enum Kd {
    Child(PageId),
    Sibling(PageId),
    Internal {
        dim: u16,
        pos: Coord,
        left: Box<Kd>,
        right: Box<Kd>,
    },
}

/// Where a point's descent through a node's kd-tree lands.
enum Route {
    Child(PageId),
    Sibling(PageId),
}

impl Kd {
    fn encoded_size(&self) -> usize {
        match self {
            Kd::Child(_) | Kd::Sibling(_) => 5,
            Kd::Internal { left, right, .. } => 7 + left.encoded_size() + right.encoded_size(),
        }
    }

    fn encode(&self, w: &mut ByteWriter) {
        match self {
            Kd::Child(pid) => {
                w.put_u8(KD_CHILD);
                w.put_u32(pid.0);
            }
            Kd::Sibling(pid) => {
                w.put_u8(KD_SIBLING);
                w.put_u32(pid.0);
            }
            Kd::Internal {
                dim,
                pos,
                left,
                right,
            } => {
                w.put_u8(KD_INTERNAL);
                w.put_u16(*dim);
                w.put_f32(*pos);
                left.encode(w);
                right.encode(w);
            }
        }
    }

    /// Decodes the kd-tree of a `dims`-dimensional tree's index page.
    fn decode(r: &mut ByteReader<'_>, dims: usize) -> PageResult<Self> {
        match r.get_u8()? {
            KD_CHILD => Ok(Kd::Child(PageId(r.get_u32()?))),
            KD_SIBLING => Ok(Kd::Sibling(PageId(r.get_u32()?))),
            KD_INTERNAL => {
                let (dim, pos) = decode_split(r, dims)?;
                let left = Box::new(Kd::decode(r, dims)?);
                let right = Box::new(Kd::decode(r, dims)?);
                Ok(Kd::Internal {
                    dim,
                    pos,
                    left,
                    right,
                })
            }
            t => Err(PageError::Corrupt(format!("bad hB kd tag {t}"))),
        }
    }

    /// Number of `Child` leaves (sibling redirects excluded).
    fn weight(&self) -> usize {
        match self {
            Kd::Child(_) => 1,
            Kd::Sibling(_) => 0,
            Kd::Internal { left, right, .. } => left.weight() + right.weight(),
        }
    }

    fn children(&self, out: &mut Vec<PageId>) {
        match self {
            Kd::Child(pid) => out.push(*pid),
            Kd::Sibling(_) => {}
            Kd::Internal { left, right, .. } => {
                left.children(out);
                right.children(out);
            }
        }
    }

    fn siblings(&self, out: &mut Vec<PageId>) {
        match self {
            Kd::Child(_) => {}
            Kd::Sibling(pid) => out.push(*pid),
            Kd::Internal { left, right, .. } => {
                left.siblings(out);
                right.siblings(out);
            }
        }
    }

    /// Pages overlapping a query box (children and sibling redirects).
    fn collect_box(&self, query: &Rect, out: &mut Vec<PageId>) {
        match self {
            Kd::Child(pid) | Kd::Sibling(pid) => out.push(*pid),
            Kd::Internal {
                dim,
                pos,
                left,
                right,
            } => {
                let d = *dim as usize;
                if query.lo(d) <= *pos {
                    left.collect_box(query, out);
                }
                if query.hi(d) >= *pos {
                    right.collect_box(query, out);
                }
            }
        }
    }

    /// Strict routing for a point insert: `x < pos` left, else right.
    fn route(&self, p: &Point) -> Route {
        match self {
            Kd::Child(pid) => Route::Child(*pid),
            Kd::Sibling(pid) => Route::Sibling(*pid),
            Kd::Internal {
                dim,
                pos,
                left,
                right,
            } => {
                if p.coord(*dim as usize) < *pos {
                    left.route(p)
                } else {
                    right.route(p)
                }
            }
        }
    }

    /// Replaces the first `Child(old)` leaf with `replacement`; returns
    /// whether one was found (a page has exactly one `Child` reference in
    /// the tree; extra fragments are `Sibling` redirects).
    fn graft_first(&mut self, old: PageId, replacement: &Kd) -> bool {
        match self {
            Kd::Child(pid) if *pid == old => {
                *self = replacement.clone();
                true
            }
            Kd::Child(_) | Kd::Sibling(_) => false,
            Kd::Internal { left, right, .. } => {
                left.graft_first(old, replacement) || right.graft_first(old, replacement)
            }
        }
    }

    fn split_dims(&self, out: &mut HashSet<u16>) {
        if let Kd::Internal {
            dim, left, right, ..
        } = self
        {
            out.insert(*dim);
            left.split_dims(out);
            right.split_dims(out);
        }
    }

    fn count_siblings(&self) -> usize {
        match self {
            Kd::Child(_) => 0,
            Kd::Sibling(_) => 1,
            Kd::Internal { left, right, .. } => left.count_siblings() + right.count_siblings(),
        }
    }
}

/// A deserialized hB-tree node.
#[derive(Clone, Debug)]
enum HbNode {
    Data {
        entries: Vec<(Point, u64)>,
        redirects: Vec<Redirect>,
    },
    Index {
        level: u16,
        kd: Kd,
    },
}

impl HbNode {
    fn encoded_size(&self, dim: usize) -> usize {
        match self {
            HbNode::Data { entries, redirects } => {
                data_overhead(redirects) + entries.len() * leaf::entry_bytes(dim)
            }
            HbNode::Index { kd, .. } => 3 + kd.encoded_size(),
        }
    }

    fn encode(&self, dim: usize) -> Vec<u8> {
        let mut w = ByteWriter::with_capacity(self.encoded_size(dim));
        match self {
            HbNode::Data { entries, redirects } => {
                w.put_u8(TAG_DATA);
                leaf::encode(&mut w, dim, entries.iter().map(|(p, oid)| (p, *oid)));
                w.put_u16(redirects.len() as u16);
                for r in redirects {
                    w.put_u8(r.constraints.len() as u8);
                    for c in &r.constraints {
                        c.encode(&mut w);
                    }
                    w.put_u32(r.target.0);
                }
            }
            HbNode::Index { level, kd } => {
                w.put_u8(TAG_INDEX);
                w.put_u16(*level);
                kd.encode(&mut w);
            }
        }
        w.into_inner()
    }

    fn decode(buf: &[u8], dim: usize) -> PageResult<Self> {
        let mut r = ByteReader::new(buf);
        match r.get_u8()? {
            TAG_DATA => {
                let entries = leaf::decode(&mut r, dim, |p, oid| (p, oid))?;
                let nr = r.get_u16()? as usize;
                let mut redirects = Vec::with_capacity(nr);
                for _ in 0..nr {
                    let nc = r.get_u8()? as usize;
                    let mut constraints = Vec::with_capacity(nc);
                    for _ in 0..nc {
                        constraints.push(Constraint::decode(&mut r, dim)?);
                    }
                    let target = PageId(r.get_u32()?);
                    redirects.push(Redirect {
                        constraints,
                        target,
                    });
                }
                Ok(HbNode::Data { entries, redirects })
            }
            TAG_INDEX => {
                let level = r.get_u16()?;
                let kd = Kd::decode(&mut r, dim)?;
                Ok(HbNode::Index { level, kd })
            }
            t => Err(PageError::Corrupt(format!("bad hB node tag {t}"))),
        }
    }
}

/// `(constraint path, inside entries, outside entries)` of a data-corner
/// extraction.
type CornerSplit = (Vec<Constraint>, Vec<(Point, u64)>, Vec<(Point, u64)>);

/// A corner split bubbling up: the constraint path plus the new page.
struct SplitPost {
    path: Vec<Constraint>,
    new_page: PageId,
}

/// Outcome of inserting into one child.
enum ChildInsert {
    Done(Vec<SplitPost>),
    /// The point belongs to an extracted corner; retry at `PageId`.
    Forward(PageId),
}

/// A disk-based hB-tree over k-dimensional `f32` points.
pub struct HbTree<S: Storage = MemStorage> {
    pool: BufferPool<S>,
    root: PageId,
    height: usize,
    dim: usize,
    len: usize,
    data_cap: usize,
    /// Posts that could not be grafted because the child's Child-leaf
    /// migrated to another parent during an index split (reachability is
    /// preserved by sibling redirects; counted for transparency).
    posts_dropped: u64,
}

impl HbTree<MemStorage> {
    /// Creates an empty hB-tree over in-memory pages of `page_size` bytes
    /// (the paper's is [`hyt_page::DEFAULT_PAGE_SIZE`]).
    pub fn new(dim: usize, page_size: usize) -> IndexResult<Self> {
        Self::with_storage(dim, MemStorage::with_page_size(page_size))
    }
}

impl<S: Storage> HbTree<S> {
    /// Creates an empty hB-tree over the given page store.
    pub fn with_storage(dim: usize, storage: S) -> IndexResult<Self> {
        let page_size = storage.page_size();
        let data_cap = page_size.saturating_sub(data_overhead(&[])) / leaf::entry_bytes(dim);
        if data_cap < 3 {
            return Err(IndexError::Internal(format!(
                "page size {page_size} too small for dimension {dim} (need 3 entries for 1/3 splits)"
            )));
        }
        let pool = BufferPool::new(storage);
        let root = pool.allocate()?;
        pool.write(
            root,
            &HbNode::Data {
                entries: Vec::new(),
                redirects: Vec::new(),
            }
            .encode(dim),
        )?;
        Ok(Self {
            pool,
            root,
            height: 1,
            dim,
            len: 0,
            data_cap,
            posts_dropped: 0,
        })
    }

    /// Height in levels.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Posts that lost their parent graft (served via redirects instead).
    pub fn posts_dropped(&self) -> u64 {
        self.posts_dropped
    }

    fn read_node(&self, pid: PageId) -> IndexResult<HbNode> {
        self.read_node_ctx(pid, &mut IoStats::default(), QueryContext::unlimited())
    }

    /// Governed node read: `ctx` admits the fetch, `io` is charged one
    /// logical read, and the page is decoded in place from the pool.
    fn read_node_ctx(
        &self,
        pid: PageId,
        io: &mut IoStats,
        ctx: &QueryContext,
    ) -> IndexResult<HbNode> {
        Ok(self
            .pool
            .read_with(pid, false, io, ctx, |buf| HbNode::decode(buf, self.dim))??)
    }

    fn write_node(&mut self, pid: PageId, node: &HbNode) -> IndexResult<()> {
        let buf = node.encode(self.dim);
        if buf.len() > self.pool.page_size() {
            return Err(IndexError::Internal(format!(
                "hB node for {pid} overflows page ({} bytes)",
                buf.len()
            )));
        }
        self.pool.write(pid, &buf)?;
        Ok(())
    }

    /// Extracts a corner of roughly 1/3–2/3 of the entries via repeated
    /// median halving along maximum-extent dimensions. Returns the
    /// constraint path, the extracted (inside) entries, and the rest.
    fn extract_data_corner(entries: Vec<(Point, u64)>) -> CornerSplit {
        let n = entries.len();
        let hi_quota = 2 * n / 3;
        let mut constraints = Vec::new();
        let mut inside = entries;
        let mut outside: Vec<(Point, u64)> = Vec::new();
        while inside.len() > hi_quota.max(1) {
            let pts: Vec<Point> = inside.iter().map(|(p, _)| p.clone()).collect();
            let live = Rect::bounding(&pts);
            let d = live.max_extent_dim();
            inside.sort_by(|a, b| a.0.coord(d).total_cmp(&b.0.coord(d)));
            let mid = inside.len() / 2;
            let pos = inside[mid].0.coord(d);
            let j = inside.partition_point(|(p, _)| p.coord(d) < pos);
            if j == 0 || j == inside.len() {
                // Degenerate duplicates: keep the upper half by rank
                // (boundary points legitimately satisfy `x >= pos`).
                let lower = inside.drain(..mid).collect::<Vec<_>>();
                constraints.push(Constraint {
                    dim: d as u16,
                    pos,
                    side: Side::Upper,
                });
                outside.extend(lower);
                continue;
            }
            // Keep the larger strict half so the loop converges.
            if j >= inside.len() - j {
                let upper = inside.split_off(j);
                constraints.push(Constraint {
                    dim: d as u16,
                    pos,
                    side: Side::Lower,
                });
                outside.extend(upper);
            } else {
                let upper = inside.split_off(j);
                constraints.push(Constraint {
                    dim: d as u16,
                    pos,
                    side: Side::Upper,
                });
                outside.extend(inside);
                inside = upper;
            }
        }
        (constraints, inside, outside)
    }

    /// Extracts a kd-subtree holding 1/3–2/3 of an index node's bytes,
    /// bounded above by `byte_budget` so the extract fits a fresh page.
    fn extract_index_corner(kd: &mut Kd, byte_budget: usize) -> (Vec<Constraint>, Kd) {
        let total = kd.encoded_size();
        let hi_quota = ((2 * total).div_ceil(3)).min(byte_budget);
        let mut constraints = Vec::new();
        let mut cur: &mut Kd = kd;
        loop {
            if cur.encoded_size() <= hi_quota {
                break;
            }
            match cur {
                Kd::Internal {
                    dim,
                    pos,
                    left,
                    right,
                } => {
                    let (d, p) = (*dim, *pos);
                    if left.encoded_size() >= right.encoded_size() {
                        constraints.push(Constraint {
                            dim: d,
                            pos: p,
                            side: Side::Lower,
                        });
                        cur = left;
                    } else {
                        constraints.push(Constraint {
                            dim: d,
                            pos: p,
                            side: Side::Upper,
                        });
                        cur = right;
                    }
                }
                _ => break,
            }
        }
        let new_page_marker = Kd::Sibling(PageId::INVALID); // patched by caller
        let extracted = std::mem::replace(cur, new_page_marker);
        (constraints, extracted)
    }

    /// Builds the kd-path posted into a parent: constraints leading to
    /// the new sibling; excluded sides keep pointing at the old child.
    fn build_path(path: &[Constraint], old: PageId, new: PageId) -> Kd {
        match path.split_first() {
            None => Kd::Child(new),
            Some((c, rest)) => {
                let inner = Self::build_path(rest, old, new);
                // Only the innermost position references `new`; every
                // excluded side re-references `old` as a *sibling* so the
                // single Child reference invariant holds.
                let excluded = Kd::Sibling(old);
                match c.side {
                    Side::Lower => Kd::Internal {
                        dim: c.dim,
                        pos: c.pos,
                        left: Box::new(inner),
                        right: Box::new(excluded),
                    },
                    Side::Upper => Kd::Internal {
                        dim: c.dim,
                        pos: c.pos,
                        left: Box::new(excluded),
                        right: Box::new(inner),
                    },
                }
            }
        }
    }

    /// Grafts a child's posted path into this node's kd-tree. The leaf
    /// `Child(child)` is replaced by `path -> Child(new)` with excluded
    /// sides as `Sibling(child)`; the single `Child(child)` reference is
    /// then restored at the first excluded side (or the whole graft is
    /// just `Child(new)` for an empty path — impossible since paths are
    /// non-empty).
    fn graft(kd: &mut Kd, child: PageId, post: &SplitPost) -> bool {
        let mut replacement = Self::build_path(&post.path, child, post.new_page);
        // Restore exactly one Child(child) reference: turn the first
        // Sibling(child) in the replacement into Child(child).
        fn promote_first(kd: &mut Kd, target: PageId) -> bool {
            match kd {
                Kd::Sibling(pid) if *pid == target => {
                    *kd = Kd::Child(target);
                    true
                }
                Kd::Child(_) | Kd::Sibling(_) => false,
                Kd::Internal { left, right, .. } => {
                    promote_first(left, target) || promote_first(right, target)
                }
            }
        }
        promote_first(&mut replacement, child);
        kd.graft_first(child, &replacement)
    }

    /// Inserts into child `pid`; the caller re-dispatches on `Forward`.
    fn insert_child(&mut self, pid: PageId, p: &Point, oid: u64) -> IndexResult<ChildInsert> {
        match self.read_node(pid)? {
            HbNode::Data {
                mut entries,
                mut redirects,
            } => {
                // A point inside an extracted corner lives beyond the
                // redirect, never here.
                if let Some(r) = redirects
                    .iter()
                    .find(|r| r.constraints.iter().all(|c| c.admits_point(p)))
                {
                    return Ok(ChildInsert::Forward(r.target));
                }
                entries.push((p.clone(), oid));
                // Shed corners until the page fits (accumulated redirects
                // shrink the effective capacity, so one shed may not do).
                let mut posts = Vec::new();
                loop {
                    let size =
                        data_overhead(&redirects) + entries.len() * leaf::entry_bytes(self.dim);
                    if entries.len() <= self.data_cap && size <= self.pool.page_size() {
                        break;
                    }
                    if entries.len() < 3 {
                        return Err(IndexError::Internal(
                            "data page overflow not resolvable by splitting".into(),
                        ));
                    }
                    let (path, inside, outside) = Self::extract_data_corner(entries);
                    if path.is_empty() {
                        return Err(IndexError::Internal(
                            "corner extraction produced no constraints".into(),
                        ));
                    }
                    let new_pid = self.pool.allocate()?;
                    self.write_node(
                        new_pid,
                        &HbNode::Data {
                            entries: inside,
                            redirects: Vec::new(),
                        },
                    )?;
                    redirects.push(Redirect {
                        constraints: path.clone(),
                        target: new_pid,
                    });
                    posts.push(SplitPost {
                        path,
                        new_page: new_pid,
                    });
                    entries = outside;
                }
                self.write_node(pid, &HbNode::Data { entries, redirects })?;
                Ok(ChildInsert::Done(posts))
            }
            HbNode::Index { level, mut kd } => {
                // Route within this node. Landing on a sibling redirect
                // means the corner moved to a same-level peer: forward
                // the whole insert there.
                let child = match kd.route(p) {
                    Route::Child(c) => c,
                    Route::Sibling(s) => return Ok(ChildInsert::Forward(s)),
                };
                let mut next = child;
                let grand_posts = loop {
                    match self.insert_child(next, p, oid)? {
                        ChildInsert::Done(posts) => break posts,
                        ChildInsert::Forward(f) => next = f,
                    }
                };
                // Graft each post at the (unique) Child leaf of the page
                // that split. Drop the post if that leaf lives elsewhere.
                for post in &grand_posts {
                    if !Self::graft(&mut kd, next, post) {
                        self.posts_dropped += 1;
                    }
                }
                // Shed corners until this node fits again.
                let mut posts = Vec::new();
                while 3 + kd.encoded_size() > self.pool.page_size() {
                    let (path, extracted) =
                        Self::extract_index_corner(&mut kd, self.pool.page_size() - 3);
                    if path.is_empty() {
                        return Err(IndexError::Internal(
                            "index corner extraction produced no constraints".into(),
                        ));
                    }
                    let new_pid = self.pool.allocate()?;
                    // Patch the placeholder left by the extraction.
                    patch_invalid_sibling(&mut kd, new_pid);
                    self.write_node(
                        new_pid,
                        &HbNode::Index {
                            level,
                            kd: extracted,
                        },
                    )?;
                    posts.push(SplitPost {
                        path,
                        new_page: new_pid,
                    });
                }
                self.write_node(pid, &HbNode::Index { level, kd })?;
                Ok(ChildInsert::Done(posts))
            }
        }
    }
}

fn patch_invalid_sibling(kd: &mut Kd, new_pid: PageId) -> bool {
    match kd {
        Kd::Sibling(pid) if pid.is_invalid() => {
            *pid = new_pid;
            true
        }
        Kd::Child(_) | Kd::Sibling(_) => false,
        Kd::Internal { left, right, .. } => {
            patch_invalid_sibling(left, new_pid) || patch_invalid_sibling(right, new_pid)
        }
    }
}

/// [`NodeExpand`] adapter for the hB-tree's box search. The redirect
/// graph sets it apart from the other engines: the same page is
/// reachable along several paths (`dedup_visits`), and a data page may
/// emit children (its admitted redirects).
struct HbExpand<'t, S: Storage> {
    tree: &'t HbTree<S>,
}

impl<S: Storage> NodeExpand for HbExpand<'_, S> {
    type Ref = PageId;

    fn node_id(&self, r: &PageId) -> u64 {
        u64::from(r.0)
    }

    fn roots(&self) -> Vec<PageId> {
        if self.tree.len == 0 {
            return Vec::new();
        }
        vec![self.tree.root]
    }

    fn dedup_visits(&self) -> bool {
        true
    }

    fn expand_box(
        &self,
        pid: PageId,
        rect: &Rect,
        io: &mut IoStats,
        ctx: &QueryContext,
        out: &mut Vec<u64>,
        children: &mut Vec<PageId>,
    ) -> IndexResult<()> {
        match &self.tree.read_node_ctx(pid, io, ctx)? {
            HbNode::Data { entries, redirects } => {
                out.extend(
                    entries
                        .iter()
                        .filter(|(p, _)| rect.contains_point(p))
                        .map(|(_, oid)| *oid),
                );
                children.extend(
                    redirects
                        .iter()
                        .filter(|r| r.constraints.iter().all(|c| c.admits_box(rect)))
                        .map(|r| r.target),
                );
                Ok(())
            }
            HbNode::Index { kd, .. } => {
                kd.collect_box(rect, children);
                Ok(())
            }
        }
    }

    fn expand_near(
        &self,
        _r: PageId,
        _nq: NearQuery<'_>,
        _io: &mut IoStats,
        _ctx: &QueryContext,
        _sink: &mut dyn EntrySink,
        _children: &mut Vec<Child<PageId>>,
    ) -> IndexResult<()> {
        Err(IndexError::Unsupported(
            "hB-tree does not support distance-based search (paper §4)",
        ))
    }
}

impl<S: Storage> MultidimIndex for HbTree<S> {
    fn name(&self) -> &'static str {
        "hb-tree"
    }

    fn dim(&self) -> usize {
        self.dim
    }

    fn len(&self) -> usize {
        self.len
    }

    fn insert(&mut self, point: Point, oid: u64) -> IndexResult<()> {
        check_dim(self.dim, point.dim())?;
        let mut target = self.root;
        let mut posts = loop {
            match self.insert_child(target, &point, oid)? {
                ChildInsert::Done(posts) => break posts,
                ChildInsert::Forward(f) => target = f,
            }
        };
        // Root splits grow the tree; a flood of posts can force more than
        // one new level.
        while !posts.is_empty() {
            if target != self.root {
                // The split page was reached through redirects; its posts
                // have no graft point (reachability holds via redirects).
                self.posts_dropped += posts.len() as u64;
                break;
            }
            let old_root = self.root;
            let mut kd = Kd::Child(old_root);
            let mut remaining = posts.into_iter();
            let Some(first) = remaining.next() else {
                break;
            };
            let grafted = Self::graft(&mut kd, old_root, &first);
            debug_assert!(grafted);
            let mut dropped = 0;
            for post in remaining {
                if !Self::graft(&mut kd, old_root, &post) {
                    dropped += 1;
                }
            }
            self.posts_dropped += dropped;
            let level = self.height as u16;
            let mut next_posts = Vec::new();
            while 3 + kd.encoded_size() > self.pool.page_size() {
                let (path, extracted) =
                    Self::extract_index_corner(&mut kd, self.pool.page_size() - 3);
                if path.is_empty() {
                    return Err(IndexError::Internal(
                        "root corner extraction produced no constraints".into(),
                    ));
                }
                let new_pid = self.pool.allocate()?;
                patch_invalid_sibling(&mut kd, new_pid);
                self.write_node(
                    new_pid,
                    &HbNode::Index {
                        level,
                        kd: extracted,
                    },
                )?;
                next_posts.push(SplitPost {
                    path,
                    new_page: new_pid,
                });
            }
            let new_root = self.pool.allocate()?;
            self.write_node(new_root, &HbNode::Index { level, kd })?;
            self.root = new_root;
            target = new_root;
            self.height += 1;
            posts = next_posts;
        }
        self.len += 1;
        Ok(())
    }

    fn delete(&mut self, point: &Point, oid: u64) -> IndexResult<bool> {
        check_dim(self.dim, point.dim())?;
        if self.len == 0 {
            return Ok(false);
        }
        let probe = Rect::from_point(point);
        let mut stack = vec![self.root];
        let mut visited = HashSet::new();
        while let Some(pid) = stack.pop() {
            if !visited.insert(pid) {
                continue;
            }
            match self.read_node(pid)? {
                HbNode::Data {
                    mut entries,
                    redirects,
                } => {
                    if let Some(i) = entries
                        .iter()
                        .position(|(p, o)| *o == oid && p.same_coords(point))
                    {
                        entries.swap_remove(i);
                        self.write_node(pid, &HbNode::Data { entries, redirects })?;
                        self.len -= 1;
                        return Ok(true);
                    }
                    for r in &redirects {
                        if r.constraints.iter().all(|c| c.admits_box(&probe)) {
                            stack.push(r.target);
                        }
                    }
                }
                HbNode::Index { kd, .. } => {
                    let mut pages = Vec::new();
                    kd.collect_box(&probe, &mut pages);
                    stack.extend(pages);
                }
            }
        }
        Ok(false)
    }

    fn execute(
        &self,
        query: &Query,
        metric: &dyn Metric,
        ctx: &QueryContext,
    ) -> IndexResult<(QueryOutcome<Answer>, IoStats)> {
        match query {
            Query::Box(_) => {
                check_dim(self.dim, query.dim())?;
                hyt_exec::execute(HbExpand { tree: self }, query, metric, ctx)
            }
            // Paper §4, footnote 2: the hB-tree is excluded from the
            // distance-query experiments because it does not support them.
            Query::Range { .. } | Query::Knn { .. } => Err(IndexError::Unsupported(
                "hB-tree does not support distance-based search (paper §4)",
            )),
        }
    }

    fn knn_stream<'a>(
        &'a self,
        _q: &Point,
        _metric: &'a dyn Metric,
        _ctx: &QueryContext,
    ) -> IndexResult<Box<dyn hyt_index::KnnStream + 'a>> {
        Err(IndexError::Unsupported(
            "hB-tree does not support distance-based search (paper §4)",
        ))
    }

    fn io_stats(&self) -> IoStats {
        self.pool.stats()
    }

    fn reset_io_stats(&self) {
        self.pool.reset_stats();
    }

    fn structure_stats(&self) -> IndexResult<StructureStats> {
        let mut tally = StatsTally::new(self.height, self.pool.page_size(), self.dim);
        if self.len == 0 {
            return Ok(tally.finish());
        }
        let mut dims = HashSet::new();
        let mut redundant = 0usize;
        let mut stack = vec![self.root];
        let mut visited = HashSet::new();
        while let Some(pid) = stack.pop() {
            if !visited.insert(pid) {
                continue;
            }
            match self.read_node(pid)? {
                HbNode::Data { entries, redirects } => {
                    tally.data_node(data_overhead(&redirects), entries.len());
                    // Redirects are pure routing redundancy.
                    redundant += redirects.iter().map(Redirect::encoded_size).sum::<usize>();
                    stack.extend(redirects.iter().map(|r| r.target));
                }
                HbNode::Index { kd, .. } => {
                    tally.index_node(kd.weight());
                    // Posted-path redundancy: sibling references plus the
                    // kd internals that route to them (~12 bytes each).
                    redundant += kd.count_siblings() * 12;
                    kd.split_dims(&mut dims);
                    let mut kids = Vec::new();
                    kd.children(&mut kids);
                    kd.siblings(&mut kids);
                    stack.extend(kids);
                }
            }
        }
        Ok(StructureStats {
            avg_overlap_fraction: 0.0, // clean (holey) partitions
            distinct_split_dims: dims.len(),
            redundant_bytes: redundant,
            ..tally.finish()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;
    use rand::rngs::StdRng;

    const PAGE: usize = 256;

    fn points(n: usize, dim: usize, seed: u64) -> Vec<Point> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| Point::new((0..dim).map(|_| rng.gen::<f32>()).collect()))
            .collect()
    }

    fn build(pts: &[Point]) -> HbTree {
        let mut t = HbTree::new(pts[0].dim(), PAGE).unwrap();
        for (i, p) in pts.iter().enumerate() {
            t.insert(p.clone(), i as u64).unwrap();
        }
        t
    }

    fn brute(pts: &[Point], rect: &Rect) -> Vec<u64> {
        let mut v: Vec<u64> = pts
            .iter()
            .enumerate()
            .filter(|(_, p)| rect.contains_point(p))
            .map(|(i, _)| i as u64)
            .collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn corner_extraction_respects_quota() {
        let entries: Vec<(Point, u64)> = (0..30)
            .map(|i| {
                (
                    Point::new(vec![(i % 6) as f32 / 6.0, (i / 6) as f32 / 5.0]),
                    i,
                )
            })
            .collect();
        let n = entries.len();
        let (path, inside, outside) = HbTree::<MemStorage>::extract_data_corner(entries);
        assert!(!path.is_empty());
        assert_eq!(inside.len() + outside.len(), n);
        assert!(inside.len() >= n / 3, "inside {} < n/3", inside.len());
        assert!(inside.len() <= 2 * n / 3, "inside {} > 2n/3", inside.len());
        // Every inside point satisfies every constraint; no outside point
        // satisfies all of them.
        for (p, _) in &inside {
            assert!(path.iter().all(|c| c.admits_point(p)));
        }
        for (p, _) in &outside {
            assert!(!path.iter().all(|c| c.admits_point(p)));
        }
    }

    #[test]
    fn box_query_matches_brute_force() {
        let pts = points(700, 3, 1);
        let t = build(&pts);
        assert!(t.height() > 1);
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..30 {
            let lo: Vec<f32> = (0..3).map(|_| rng.gen::<f32>() * 0.7).collect();
            let hi: Vec<f32> = lo.iter().map(|l| l + 0.25).collect();
            let rect = Rect::new(lo, hi);
            let mut got = t.box_query(&rect).unwrap();
            got.sort_unstable();
            assert_eq!(got, brute(&pts, &rect));
        }
    }

    #[test]
    fn every_point_reachable_after_holey_splits() {
        let pts = points(1200, 4, 3);
        let t = build(&pts);
        for (i, p) in pts.iter().enumerate().step_by(13) {
            let hits = t.box_query(&Rect::from_point(p)).unwrap();
            assert!(
                hits.contains(&(i as u64)),
                "point {i} unreachable after corner splits"
            );
        }
    }

    #[test]
    fn clustered_data_still_correct() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut pts = Vec::new();
        for c in 0..6 {
            for _ in 0..200 {
                let base = c as f32 / 6.0;
                pts.push(Point::new(
                    (0..3).map(|_| base + rng.gen::<f32>() * 0.02).collect(),
                ));
            }
        }
        let t = build(&pts);
        let rect = Rect::new(vec![0.0; 3], vec![0.5; 3]);
        let mut got = t.box_query(&rect).unwrap();
        got.sort_unstable();
        assert_eq!(got, brute(&pts, &rect));
    }

    #[test]
    fn distance_queries_are_unsupported() {
        let pts = points(50, 2, 5);
        let t = build(&pts);
        let q = Point::new(vec![0.5, 0.5]);
        assert!(matches!(
            t.distance_range(&q, 0.5, &hyt_geom::L1),
            Err(IndexError::Unsupported(_))
        ));
        assert!(matches!(
            t.knn(&q, 3, &hyt_geom::L2),
            Err(IndexError::Unsupported(_))
        ));
    }

    #[test]
    fn delete_without_merging() {
        let pts = points(400, 2, 6);
        let mut t = build(&pts);
        for i in (0..400).step_by(3) {
            assert!(t.delete(&pts[i], i as u64).unwrap(), "delete {i}");
        }
        assert_eq!(t.len(), 400 - 134);
        let got = t.box_query(&Rect::unit(2)).unwrap();
        assert_eq!(got.len(), t.len());
        assert!(!t.delete(&pts[0], 0).unwrap());
    }

    #[test]
    fn path_posting_redundancy_is_measured() {
        let pts = points(1500, 3, 7);
        let t = build(&pts);
        let st = t.structure_stats().unwrap();
        assert!(st.index_nodes >= 1);
        assert!(
            st.redundant_bytes > 0,
            "hB path posting should produce measurable redundancy"
        );
        assert!(st.avg_leaf_utilization > 0.25, "1/3 splits guarantee fill");
    }

    #[test]
    fn duplicate_points_handled() {
        let mut t = HbTree::new(2, PAGE).unwrap();
        let p = Point::new(vec![0.5, 0.5]);
        for i in 0..60 {
            t.insert(p.clone(), i).unwrap();
        }
        let mut got = t.box_query(&Rect::from_point(&p)).unwrap();
        got.sort_unstable();
        assert_eq!(got, (0..60).collect::<Vec<_>>());
    }

    #[test]
    fn interleaved_insert_delete_query() {
        let pts = points(900, 3, 8);
        let mut t = HbTree::new(3, PAGE).unwrap();
        let mut live = vec![false; pts.len()];
        let mut rng = StdRng::seed_from_u64(9);
        for i in 0..600 {
            t.insert(pts[i].clone(), i as u64).unwrap();
            live[i] = true;
            if i % 3 == 0 {
                let v = rng.gen_range(0..=i);
                if live[v] {
                    assert!(t.delete(&pts[v], v as u64).unwrap());
                    live[v] = false;
                }
            }
        }
        let rect = Rect::new(vec![0.2; 3], vec![0.8; 3]);
        let mut got = t.box_query(&rect).unwrap();
        got.sort_unstable();
        let mut want: Vec<u64> = pts
            .iter()
            .enumerate()
            .filter(|(i, p)| live[*i] && rect.contains_point(p))
            .map(|(i, _)| i as u64)
            .collect();
        want.sort_unstable();
        assert_eq!(got, want);
    }
}
