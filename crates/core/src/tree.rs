//! The hybrid tree proper: construction, insertion, deletion, and search.

use crate::cache::{Leaf, LeafCache};
use crate::config::HybridTreeConfig;
use crate::els::ElsTable;
use crate::kdtree::KdTree;
use crate::node::{data_capacity, min_entries, DataEntry, Node, INDEX_HEADER_BYTES};
use crate::split::{build_kd, split_data, split_index};
use crate::verify::{Els, Issue};
use crate::view::{InsertPath, NodeView};
use hyt_exec::{Child, EntrySink, KnnCursor, NearQuery, NodeExpand};
use hyt_geom::{Coord, Metric, Point, Rect};
use hyt_index::{
    check_dim, Answer, IndexError, IndexResult, KnnStream, MultidimIndex, NodeCacheStats, Query,
    QueryContext, QueryOutcome, StructureStats,
};
use hyt_page::{BufferPool, IoStats, MemStorage, PageError, PageId, PageResult, Storage};
use std::sync::Arc;

/// A split propagating up from a child: the child kept the lower half and
/// `new_page` received the upper half, separated along `dim` with split
/// positions `lsp`/`rsp`.
struct SplitPost {
    dim: u16,
    lsp: Coord,
    rsp: Coord,
    new_page: PageId,
}

/// Outcome of a recursive delete.
enum DelOutcome {
    /// No matching entry beneath this node.
    NotFound,
    /// Entry removed; carries data entries orphaned by eliminated nodes.
    Done(Vec<DataEntry>),
    /// Entry removed *and* this node fell below utilization and was
    /// dissolved; the caller must unlink and free it.
    Eliminated(Vec<DataEntry>),
}

/// What an insert learns from one page, read in place.
enum InsertStep {
    /// A data page with room: its bytes with the new entry appended.
    Append(Vec<u8>),
    /// A full data page: its entries, to split.
    Split(Vec<DataEntry>),
    /// An index page: a copy of its bytes, with the path's enlargements
    /// patched in, and the path.
    Descend(Vec<u8>, InsertPath),
}

/// What a delete learns from one page, read in place.
enum DeleteStep {
    /// A data page without the entry.
    Absent,
    /// The data page holding the entry: its entries and the entry's index.
    Found(Vec<DataEntry>, usize),
    /// An index page: a copy of its bytes and the children whose
    /// kd-regions contain the point, in kd order, with their regions when
    /// the walk carries them.
    Children(Vec<u8>, Vec<(PageId, Option<Rect>)>),
}

/// The root's kd-region: the bounding box of everything ever inserted,
/// or the origin while the tree has never held a point.
pub(crate) fn root_region_of(global_br: Option<&Rect>, dim: usize) -> Rect {
    global_br
        .cloned()
        .unwrap_or_else(|| Rect::from_point(&Point::origin(dim)))
}

/// The hybrid tree (paper §3): a paged feature-space index with 1-d
/// splits, kd-tree intra-node organization, overlapping partitions when
/// clean splits would cascade, EDA-optimal split selection, and encoded
/// live space dead-space elimination.
///
/// See the [crate docs](crate) for an overview and example.
pub struct HybridTree<S: Storage = MemStorage> {
    pub(crate) pool: BufferPool<S>,
    /// Decoded data pages (`cfg.node_cache_entries` of them), dropped
    /// page by page by the tree's own writes and frees.
    cache: LeafCache,
    pub(crate) root: PageId,
    /// Number of levels; 1 means the root is a data node.
    pub(crate) height: usize,
    pub(crate) dim: usize,
    pub(crate) len: usize,
    pub(crate) cfg: HybridTreeConfig,
    /// Max entries per data node (derived from the page size).
    pub(crate) data_cap: usize,
    /// Utilization quota for data nodes.
    pub(crate) data_min: usize,
    /// Bounding box of everything ever inserted (the root's region).
    pub(crate) global_br: Option<Rect>,
    pub(crate) els: ElsTable,
    rr_state: usize,
}

impl HybridTree<MemStorage> {
    /// Creates an empty tree over in-memory pages.
    pub fn new(dim: usize, cfg: HybridTreeConfig) -> IndexResult<Self> {
        let storage = MemStorage::with_page_size(cfg.page_size);
        Self::with_storage(dim, cfg, storage)
    }
}

impl<S: Storage> HybridTree<S> {
    /// Creates an empty tree over the given page store (e.g. a
    /// [`FileStorage`](hyt_page::FileStorage) for an on-disk index).
    pub fn with_storage(dim: usize, cfg: HybridTreeConfig, storage: S) -> IndexResult<Self> {
        cfg.validate().map_err(IndexError::Internal)?;
        if dim == 0 || dim > u16::MAX as usize {
            return Err(IndexError::Internal(format!(
                "unsupported dimensionality {dim}"
            )));
        }
        if storage.page_size() != cfg.page_size {
            return Err(IndexError::Internal(format!(
                "storage page size {} != configured {}",
                storage.page_size(),
                cfg.page_size
            )));
        }
        let data_cap = data_capacity(cfg.page_size, dim);
        if data_cap < 2 {
            return Err(IndexError::Internal(format!(
                "page size {} cannot hold 2 entries of dimension {dim}",
                cfg.page_size
            )));
        }
        let els = ElsTable::new(dim, cfg.els_bits);
        let mut tree = Self::assemble(storage, PageId::INVALID, 1, dim, 0, cfg, None, els);
        tree.root = tree.pool.allocate()?;
        tree.write_node(tree.root, &Node::Data(Vec::new()))?;
        Ok(tree)
    }

    /// Assembles a tree over `storage`, building its buffer pool, and its
    /// decoded-page cache from `cfg`: the one place either is made. The
    /// bulk loader and `open` pass parts already written to storage;
    /// their invariants are the caller's responsibility and are checked
    /// by its tests.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn assemble(
        storage: S,
        root: PageId,
        height: usize,
        dim: usize,
        len: usize,
        cfg: HybridTreeConfig,
        global_br: Option<Rect>,
        els: ElsTable,
    ) -> Self {
        let data_cap = data_capacity(cfg.page_size, dim);
        Self {
            data_min: min_entries(data_cap),
            pool: BufferPool::new(storage),
            cache: LeafCache::new(cfg.node_cache_entries),
            root,
            height,
            dim,
            len,
            cfg,
            data_cap,
            global_br,
            els,
            rr_state: 0,
        }
    }

    /// The tree's configuration.
    pub fn config(&self) -> &HybridTreeConfig {
        &self.cfg
    }

    /// Height in levels (1 = the root is a data node).
    pub fn height(&self) -> usize {
        self.height
    }

    /// Max entries per data page (the paper's dimensionality-dependent
    /// leaf capacity; e.g. 15 for 64-d vectors on 4 KiB pages).
    pub fn data_capacity(&self) -> usize {
        self.data_cap
    }

    /// Bytes the memory-resident ELS table would occupy when quantized
    /// (the paper's <1%-of-database overhead figure).
    pub fn els_overhead_bytes(&self) -> usize {
        self.els.encoded_bytes()
    }

    /// Runs the full structural invariant checker (containment,
    /// utilization, page-size, ELS conservativeness, level consistency,
    /// entry count) and returns the first rule it finds broken. Intended
    /// for tests; `O(size of tree)`.
    pub fn check_invariants(&self) -> IndexResult<()> {
        let core = self.catalog_core();
        let walked = crate::verify::walk(&core, Els::Check(&self.els), |pid| {
            self.read_node_owned(pid)
        });
        match walked.issues.into_iter().next() {
            Some(Issue::Read(_, e)) => Err(IndexError::Storage(e)),
            Some(Issue::Rule(msg)) => Err(IndexError::Internal(msg)),
            None => Ok(()),
        }
    }

    /// Fsyncs the store without committing a catalog — simulates the
    /// crash window between page writes and the next
    /// [`persist`](Self::persist).
    #[cfg(test)]
    pub(crate) fn sync_for_test(&self) {
        self.pool.sync_storage().expect("sync");
    }

    /// Allocates (and abandons) a page, simulating a crash between an
    /// allocation and the commit that would have referenced it.
    #[cfg(test)]
    pub(crate) fn leak_page_for_test(&self) {
        self.pool.allocate().expect("allocate");
        self.pool.sync_storage().expect("sync");
    }

    /// Live page count as seen by the backing store.
    #[cfg(test)]
    pub(crate) fn pool_live_pages_for_test(&self) -> usize {
        self.pool.live_pages()
    }

    // ------------------------------------------------------------------
    // internals
    // ------------------------------------------------------------------

    pub(crate) fn root_region(&self) -> Rect {
        root_region_of(self.global_br.as_ref(), self.dim)
    }

    /// Ungoverned page read for the write paths and the whole-tree walks:
    /// runs `f` on the borrowed page bytes, counted in the pool's totals.
    fn read_page<R>(&self, pid: PageId, f: impl FnOnce(&[u8]) -> PageResult<R>) -> PageResult<R> {
        let mut io = IoStats::default();
        self.pool
            .read_with(pid, false, &mut io, QueryContext::unlimited(), f)?
    }

    /// Owned node read for the invariant walk and the statistics: decodes
    /// straight from the borrowed page bytes (no payload copy before
    /// decode).
    pub(crate) fn read_node_owned(&self, pid: PageId) -> PageResult<Node> {
        self.read_page(pid, |buf| Node::decode(buf, self.dim))
    }

    /// Governed data-page read: `ctx` must admit the fetch (cancel,
    /// deadline, read budget) or this fails with an interrupt before
    /// touching the pool. Returns the shared decoded entries: a visit
    /// the cache serves skips `Node::decode` but still counts one
    /// logical read. Directory pages are walked in place ([`NodeView`])
    /// and never come through here; an index page is reported as corrupt.
    pub(crate) fn read_leaf(
        &self,
        pid: PageId,
        io: &mut IoStats,
        ctx: &QueryContext,
    ) -> IndexResult<Leaf> {
        ctx.admit_read(io).map_err(PageError::Interrupted)?;
        if let Some(leaf) = self.cache.get(pid) {
            self.pool.account_cached(io);
            return Ok(leaf);
        }
        // Admitted above: the pool read itself runs unlimited.
        let leaf = self
            .pool
            .read_with(pid, false, io, QueryContext::unlimited(), |buf| {
                Node::decode_data(buf, self.dim).map(Arc::new)
            })??;
        self.cache.insert(pid, Arc::clone(&leaf));
        Ok(leaf)
    }

    /// Frees a page and drops its cached decode.
    fn free_page(&mut self, pid: PageId) -> IndexResult<()> {
        self.cache.invalidate(pid);
        self.pool.free(pid)?;
        Ok(())
    }

    fn write_node(&mut self, pid: PageId, node: &Node) -> IndexResult<()> {
        self.write_page(pid, &node.encode(self.dim))
    }

    /// Writes encoded node bytes and drops the page's cached decode.
    fn write_page(&mut self, pid: PageId, buf: &[u8]) -> IndexResult<()> {
        if buf.len() > self.cfg.page_size {
            return Err(IndexError::Internal(format!(
                "node for {pid} is {} bytes, page is {} — missing split",
                buf.len(),
                self.cfg.page_size
            )));
        }
        self.cache.invalidate(pid);
        self.pool.write(pid, buf)?;
        Ok(())
    }

    fn insert_entry(&mut self, point: Point, oid: u64) -> IndexResult<()> {
        match &mut self.global_br {
            Some(r) => r.extend_to_point(&point),
            None => self.global_br = Some(Rect::from_point(&point)),
        }
        let region = self.root_region();
        if let Some(post) = self.insert_rec(self.root, &region, &point, oid)? {
            // Root split: grow the tree by one level.
            let new_level = self.height as u16;
            let kd = KdTree::split(
                post.dim,
                post.lsp,
                post.rsp,
                KdTree::leaf(self.root),
                KdTree::leaf(post.new_page),
            );
            let new_root = self.pool.allocate()?;
            self.write_node(
                new_root,
                &Node::Index {
                    level: new_level,
                    kd,
                },
            )?;
            self.root = new_root;
            self.height += 1;
        }
        Ok(())
    }

    /// Inserts beneath `pid`, whose kd-region is `region`. Index pages
    /// are routed in place; a page is decoded only when this insert
    /// rewrites it, and from the bytes already read.
    fn insert_rec(
        &mut self,
        pid: PageId,
        region: &Rect,
        p: &Point,
        oid: u64,
    ) -> IndexResult<Option<SplitPost>> {
        let (dim, data_cap) = (self.dim, self.data_cap);
        let step = self.read_page(pid, |buf| {
            Ok(match NodeView::parse(buf, dim)? {
                NodeView::Data(view) if view.len() < data_cap => {
                    InsertStep::Append(view.appended(p, oid)?)
                }
                NodeView::Data(_) => InsertStep::Split(Node::decode_data(buf, dim)?),
                NodeView::Index(view) => {
                    let path = view.insert_path(region, p)?;
                    let mut page = buf.to_vec();
                    path.patch(&mut page);
                    InsertStep::Descend(page, path)
                }
            })
        })?;
        match step {
            InsertStep::Append(page) => {
                self.write_page(pid, &page)?;
                Ok(None)
            }
            InsertStep::Split(mut entries) => {
                entries.push(DataEntry {
                    point: p.clone(),
                    oid,
                });
                let ds = split_data(
                    entries,
                    region,
                    self.dim,
                    self.data_min,
                    self.cfg.split_policy,
                    &mut self.rr_state,
                );
                let new_pid = self.pool.allocate()?;
                let d = ds.dim as usize;
                self.els.set_from_points(
                    pid,
                    ds.left.iter().map(|e| &e.point),
                    &region.clamp_above(d, ds.pos),
                );
                self.els.set_from_points(
                    new_pid,
                    ds.right.iter().map(|e| &e.point),
                    &region.clamp_below(d, ds.pos),
                );
                self.write_node(pid, &Node::Data(ds.left))?;
                self.write_node(new_pid, &Node::Data(ds.right))?;
                Ok(Some(SplitPost {
                    dim: ds.dim,
                    lsp: ds.pos,
                    rsp: ds.pos,
                    new_page: new_pid,
                }))
            }
            InsertStep::Descend(page, path) => {
                // An enlarged page is rewritten whatever happens below:
                // decoding it first validates the whole page before
                // anything beneath it is written.
                let enlarged = if path.enlarged.is_empty() {
                    None
                } else {
                    Some(Node::decode_index(&page, dim)?)
                };
                match self.insert_rec(path.child, &path.region, p, oid)? {
                    Some(post) => {
                        // Post the child split: the kd leaf becomes an
                        // internal kd node over the two halves.
                        let (level, mut kd) = match enlarged {
                            Some(node) => node,
                            None => Node::decode_index(&page, dim)?,
                        };
                        let replaced = kd.replace_leaf(
                            path.child,
                            KdTree::split(
                                post.dim,
                                post.lsp,
                                post.rsp,
                                KdTree::leaf(path.child),
                                KdTree::leaf(post.new_page),
                            ),
                        );
                        debug_assert!(replaced, "split child not found in parent kd-tree");
                        if INDEX_HEADER_BYTES + kd.encoded_size() > self.cfg.page_size {
                            self.split_index_node(pid, level, kd, region).map(Some)
                        } else {
                            self.write_node(pid, &Node::Index { level, kd })?;
                            Ok(None)
                        }
                    }
                    None => {
                        self.els.extend(path.child, p, &path.region);
                        if let Some((level, kd)) = enlarged {
                            self.write_node(pid, &Node::Index { level, kd })?;
                        }
                        Ok(None)
                    }
                }
            }
        }
    }

    fn split_index_node(
        &mut self,
        pid: PageId,
        level: u16,
        kd: KdTree,
        region: &Rect,
    ) -> IndexResult<SplitPost> {
        let children = kd.children_with_regions(region);
        let candidates = kd.split_dims();
        let m = min_entries(children.len());
        let is = if self.cfg.split_policy == crate::config::SplitPolicy::Vam {
            // Figure 5(a,b) comparator: VAMSplit at every level.
            crate::split::split_index_vam(&children, m)
        } else {
            split_index(&children, region, &candidates, m)?
        };
        // Each side keeps the pruned original kd structure (no rebuild —
        // rebuilding would manufacture overlap the incremental structure
        // never had). Fall back to a fresh build only if pruning fails.
        let keep_left: std::collections::HashSet<_> = is.left.iter().map(|(p, _)| *p).collect();
        let keep_right: std::collections::HashSet<_> = is.right.iter().map(|(p, _)| *p).collect();
        let kd_left = kd
            .restricted_to(&keep_left)
            .map_or_else(|| build_kd(&is.left), Ok)?;
        let kd_right = kd
            .restricted_to(&keep_right)
            .map_or_else(|| build_kd(&is.right), Ok)?;
        let new_pid = self.pool.allocate()?;

        // Live space of each half = union of its children's live spaces.
        let live_of = |els: &ElsTable, group: &[(PageId, Rect)]| -> Vec<Rect> {
            group
                .iter()
                .map(|(cpid, creg)| els.exact_live(*cpid).unwrap_or_else(|| creg.clone()))
                .collect()
        };
        let left_live = live_of(&self.els, &is.left);
        let right_live = live_of(&self.els, &is.right);
        let d = is.dim as usize;
        self.els
            .set_from_rects(pid, left_live.iter(), &region.clamp_above(d, is.lsp));
        self.els
            .set_from_rects(new_pid, right_live.iter(), &region.clamp_below(d, is.rsp));

        self.write_node(pid, &Node::Index { level, kd: kd_left })?;
        self.write_node(
            new_pid,
            &Node::Index {
                level,
                kd: kd_right,
            },
        )?;
        Ok(SplitPost {
            dim: is.dim,
            lsp: is.lsp,
            rsp: is.rsp,
            new_page: new_pid,
        })
    }

    /// Deletes `(p, oid)` beneath `pid`. `region` is the page's
    /// kd-region when ELS is on, the only use of it being to requantize
    /// the live box of the data page that loses the entry; with ELS off
    /// no region is carried. Pages are searched in place; a page is
    /// decoded only when this delete rewrites it.
    fn delete_rec(
        &mut self,
        pid: PageId,
        region: Option<&Rect>,
        p: &Point,
        oid: u64,
        is_root: bool,
    ) -> IndexResult<DelOutcome> {
        let dim = self.dim;
        let step = self.read_page(pid, |buf| {
            Ok(match NodeView::parse(buf, dim)? {
                NodeView::Data(view) => match view.position(p, oid) {
                    Some(i) => DeleteStep::Found(Node::decode_data(buf, dim)?, i),
                    None => DeleteStep::Absent,
                },
                NodeView::Index(view) => {
                    let mut kids = Vec::new();
                    view.children_containing_point(p, region, &mut |child, r| {
                        kids.push((child, r.cloned()));
                    })?;
                    DeleteStep::Children(buf.to_vec(), kids)
                }
            })
        })?;
        match step {
            DeleteStep::Absent => Ok(DelOutcome::NotFound),
            DeleteStep::Found(mut entries, i) => {
                entries.swap_remove(i);
                if !is_root && entries.len() < self.data_min {
                    // Eliminate-and-reinsert (paper §3.5, after [11]).
                    return Ok(DelOutcome::Eliminated(entries));
                }
                if let Some(region) = region {
                    self.els
                        .set_from_points(pid, entries.iter().map(|e| &e.point), region);
                }
                self.write_node(pid, &Node::Data(entries))?;
                Ok(DelOutcome::Done(Vec::new()))
            }
            DeleteStep::Children(page, kids) => {
                for (child, child_region) in kids {
                    if !self.els.may_contain(child, p) {
                        continue;
                    }
                    match self.delete_rec(child, child_region.as_ref(), p, oid, false)? {
                        DelOutcome::NotFound => continue,
                        DelOutcome::Done(orphans) => return Ok(DelOutcome::Done(orphans)),
                        DelOutcome::Eliminated(mut orphans) => {
                            // This page loses a child: decode the bytes the
                            // walk read.
                            let (level, mut kd) = Node::decode_index(&page, dim)?;
                            self.free_page(child)?;
                            self.els.remove(child);
                            if !kd.remove_leaf(child) {
                                // kd was a single leaf: this node is empty.
                                debug_assert_eq!(kd.fanout(), 1);
                                if is_root {
                                    self.write_node(pid, &Node::Data(Vec::new()))?;
                                    self.height = 1;
                                    return Ok(DelOutcome::Done(orphans));
                                }
                                return Ok(DelOutcome::Eliminated(orphans));
                            }
                            if kd.fanout() < 2 && !is_root {
                                // Dissolve the underflowing directory node;
                                // its remaining subtree reinserts from data.
                                let rest = kd.child_ids()[0];
                                orphans.extend(self.collect_and_free(rest)?);
                                return Ok(DelOutcome::Eliminated(orphans));
                            }
                            self.write_node(pid, &Node::Index { level, kd })?;
                            return Ok(DelOutcome::Done(orphans));
                        }
                    }
                }
                Ok(DelOutcome::NotFound)
            }
        }
    }

    /// Frees an entire subtree, returning its data entries for reinsertion.
    fn collect_and_free(&mut self, pid: PageId) -> IndexResult<Vec<DataEntry>> {
        let mut out = Vec::new();
        let mut stack = vec![pid];
        while let Some(pid) = stack.pop() {
            match self.read_node_owned(pid)? {
                Node::Data(entries) => out.extend(entries),
                Node::Index { kd, .. } => stack.extend(kd.child_ids()),
            }
            self.free_page(pid)?;
            self.els.remove(pid);
        }
        Ok(out)
    }

    /// Drops root directory pages that are left with a single child,
    /// reading each root's first kd tag in place.
    fn maybe_shrink_root(&mut self) -> IndexResult<()> {
        let dim = self.dim;
        while self.height > 1 {
            let sole = self.read_page(self.root, |buf| match NodeView::parse(buf, dim)? {
                NodeView::Index(view) => view.sole_child(),
                NodeView::Data(_) => Ok(None),
            })?;
            let Some(child) = sole else { break };
            self.free_page(self.root)?;
            self.els.remove(self.root);
            self.els.remove(child); // the new root needs no entry
            self.root = child;
            self.height -= 1;
        }
        Ok(())
    }
}

/// [`NodeExpand`] node reference for the hybrid tree. Box queries need
/// only the page id. Distance-bounded traversal tracks the node's depth
/// (in the balanced tree depth alone tells data and index pages apart)
/// and, with ELS disabled, the kd-region handed down from the parent;
/// with ELS enabled, quantized live-space boxes bound children in
/// absolute coordinates and no region is needed.
struct HyRef {
    pid: PageId,
    depth: usize,
    region: Option<Rect>,
}

/// [`NodeExpand`] adapter for the hybrid tree. Every query navigates
/// directory pages in place (paper §3.1: kd-based intra-node search,
/// zero-copy). Box queries filter data pages in place too; distance
/// queries read data pages through the governed decoded-node path,
/// because the metric takes each entry as a `&Point`.
struct HyExpand<'t, S: Storage> {
    tree: &'t HybridTree<S>,
}

impl<S: Storage> NodeExpand for HyExpand<'_, S> {
    type Ref = HyRef;

    fn node_id(&self, r: &HyRef) -> u64 {
        u64::from(r.pid.0)
    }

    fn roots(&self) -> Vec<HyRef> {
        if self.tree.len == 0 {
            return Vec::new();
        }
        vec![HyRef {
            pid: self.tree.root,
            depth: 0,
            region: if self.tree.els.enabled() {
                None
            } else {
                Some(self.tree.root_region())
            },
        }]
    }

    fn expand_box(
        &self,
        r: HyRef,
        rect: &Rect,
        io: &mut IoStats,
        ctx: &QueryContext,
        out: &mut Vec<u64>,
        children: &mut Vec<HyRef>,
    ) -> IndexResult<()> {
        let t = self.tree;
        let mut kids: Vec<PageId> = Vec::new();
        // Navigate the serialized node in place (paper §3.1: kd-based
        // intra-node search beats scanning an array of BRs) on the
        // borrowed page bytes, without decoding it. A data page emits no
        // children.
        t.pool
            .read_with(r.pid, false, io, ctx, |buf| -> PageResult<()> {
                match NodeView::parse(buf, t.dim)? {
                    NodeView::Data(view) => view.filter_box(rect, out),
                    // Two-step overlap check (paper §3.4): the kd split
                    // positions prune first; the quantized live-space BR
                    // is consulted only for children that survive.
                    NodeView::Index(view) => view.children_overlapping_box(rect, &mut kids)?,
                }
                Ok(())
            })
            .and_then(|r| r)?;
        children.extend(
            kids.into_iter()
                .filter(|c| t.els.may_intersect(*c, rect))
                .map(|pid| HyRef {
                    pid,
                    depth: 0,
                    region: None,
                }),
        );
        Ok(())
    }

    fn expand_near(
        &self,
        r: HyRef,
        nq: NearQuery<'_>,
        io: &mut IoStats,
        ctx: &QueryContext,
        sink: &mut dyn EntrySink,
        children: &mut Vec<Child<HyRef>>,
    ) -> IndexResult<()> {
        let t = self.tree;
        if r.depth == t.height - 1 {
            // Data pages are decoded (shared, cacheable): the metric
            // reads every entry as a `&Point`.
            let entries = t.read_leaf(r.pid, io, ctx)?;
            for e in entries.iter() {
                sink.offer(e.oid, &e.point);
            }
            return Ok(());
        }
        // Directory pages are walked in place, skipping kd subtrees beyond
        // the kernel's bound. Before a bound exists (kNN's first
        // expansions) a child whose kd path lies away from the query is
        // keyed by its path's gap sum, relaxed as the walk relaxes its
        // limit, and bounded only if it reaches the front of the queue.
        // Every other child is bounded after the frame is released.
        let defer = nq.bound == f64::INFINITY;
        let depth = r.depth + 1;
        let first = children.len();
        t.pool
            .read_with(r.pid, false, io, ctx, |buf| -> PageResult<()> {
                let NodeView::Index(view) = NodeView::parse(buf, t.dim)? else {
                    return Err(PageError::Corrupt(format!(
                        "{}: expected an index node above the leaf level",
                        r.pid
                    )));
                };
                view.children_near(nq, r.region.as_ref(), &mut |pid, region, sum| {
                    let provisional = defer && sum > 0.0;
                    children.push(Child {
                        bound: if provisional {
                            sum * (1.0 - 1e-12)
                        } else {
                            0.0
                        },
                        provisional,
                        node: HyRef {
                            pid,
                            depth,
                            region: region.cloned(),
                        },
                    });
                })
            })
            .and_then(|x| x)?;
        for c in &mut children[first..] {
            if !c.provisional {
                c.bound = self.settle_bound(&c.node, nq);
            }
        }
        Ok(())
    }

    /// A child's bound: with ELS on by its quantized live box, with ELS
    /// off by its kd-region, handed down the tree. Both are in memory.
    fn settle_bound(&self, r: &HyRef, nq: NearQuery<'_>) -> f64 {
        let rect = r
            .region
            .as_ref()
            .or_else(|| self.tree.els.quant_rect(r.pid));
        rect.map_or(0.0, |b| nq.metric.min_dist_rect_sq(nq.q, b))
    }
}

impl<S: Storage> MultidimIndex for HybridTree<S> {
    fn name(&self) -> &'static str {
        "hybrid"
    }

    fn dim(&self) -> usize {
        self.dim
    }

    fn len(&self) -> usize {
        self.len
    }

    fn insert(&mut self, point: Point, oid: u64) -> IndexResult<()> {
        check_dim(self.dim, point.dim())?;
        self.insert_entry(point, oid)?;
        self.len += 1;
        Ok(())
    }

    fn delete(&mut self, point: &Point, oid: u64) -> IndexResult<bool> {
        check_dim(self.dim, point.dim())?;
        if self.len == 0 {
            return Ok(false);
        }
        let region = self.root_region();
        let region = self.els.enabled().then_some(&region);
        match self.delete_rec(self.root, region, point, oid, true)? {
            DelOutcome::NotFound => Ok(false),
            DelOutcome::Done(orphans) => {
                self.len -= 1;
                self.maybe_shrink_root()?;
                for e in orphans {
                    self.insert_entry(e.point, e.oid)?;
                }
                Ok(true)
            }
            DelOutcome::Eliminated(_) => Err(IndexError::Internal(
                "root node cannot be eliminated".into(),
            )),
        }
    }

    fn execute(
        &self,
        query: &Query,
        metric: &dyn Metric,
        ctx: &QueryContext,
    ) -> IndexResult<(QueryOutcome<Answer>, IoStats)> {
        check_dim(self.dim, query.dim())?;
        hyt_exec::execute(HyExpand { tree: self }, query, metric, ctx)
    }

    fn knn_stream<'a>(
        &'a self,
        q: &Point,
        metric: &'a dyn Metric,
        ctx: &QueryContext,
    ) -> IndexResult<Box<dyn KnnStream + 'a>> {
        check_dim(self.dim, q.dim())?;
        Ok(Box::new(KnnCursor::new(
            HyExpand { tree: self },
            q.clone(),
            metric,
            ctx.clone(),
        )))
    }

    fn io_stats(&self) -> IoStats {
        self.pool.stats()
    }

    fn reset_io_stats(&self) {
        self.pool.reset_stats();
        self.cache.reset_stats();
    }

    fn cache_stats(&self) -> NodeCacheStats {
        self.cache.stats()
    }

    fn structure_stats(&self) -> IndexResult<StructureStats> {
        crate::stats::compute(self)
    }
}

/// Compile-time proof that a built tree can be shared across query
/// threads: `&HybridTree<S>` is the read-only search handle.
#[allow(dead_code)]
fn _assert_thread_safe<S: Storage>() {
    fn check<T: Send + Sync>() {}
    check::<HybridTree<S>>();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SplitPolicy;
    use hyt_geom::{L1, L2};
    use rand::prelude::*;
    use rand::rngs::StdRng;

    fn small_cfg() -> HybridTreeConfig {
        HybridTreeConfig {
            page_size: 256, // tiny pages force deep trees in tests
            ..HybridTreeConfig::default()
        }
    }

    fn rand_points(n: usize, dim: usize, seed: u64) -> Vec<Point> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| Point::new((0..dim).map(|_| rng.gen::<f32>()).collect()))
            .collect()
    }

    fn build(points: &[Point], cfg: HybridTreeConfig) -> HybridTree {
        let dim = points[0].dim();
        let mut t = HybridTree::new(dim, cfg).unwrap();
        for (i, p) in points.iter().enumerate() {
            t.insert(p.clone(), i as u64).unwrap();
        }
        t
    }

    fn brute_box(points: &[Point], rect: &Rect) -> Vec<u64> {
        let mut v: Vec<u64> = points
            .iter()
            .enumerate()
            .filter(|(_, p)| rect.contains_point(p))
            .map(|(i, _)| i as u64)
            .collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn empty_tree_queries() {
        let mut t = HybridTree::new(3, small_cfg()).unwrap();
        assert!(t.is_empty());
        assert_eq!(t.box_query(&Rect::unit(3)).unwrap(), Vec::<u64>::new());
        assert_eq!(t.knn(&Point::origin(3), 5, &L2).unwrap().len(), 0);
        assert!(!t.delete(&Point::origin(3), 0).unwrap());
        t.check_invariants().unwrap();
    }

    #[test]
    fn single_insert_and_point_query() {
        let mut t = HybridTree::new(2, small_cfg()).unwrap();
        let p = Point::new(vec![0.25, 0.75]);
        t.insert(p.clone(), 7).unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t.box_query(&Rect::from_point(&p)).unwrap(), vec![7]);
        assert!(t
            .box_query(&Rect::from_point(&Point::new(vec![0.5, 0.5])))
            .unwrap()
            .is_empty());
        t.check_invariants().unwrap();
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let mut t = HybridTree::new(2, small_cfg()).unwrap();
        assert!(matches!(
            t.insert(Point::origin(3), 0),
            Err(IndexError::DimensionMismatch { .. })
        ));
        assert!(t.box_query(&Rect::unit(3)).is_err());
    }

    #[test]
    fn page_too_small_for_dimension_rejected() {
        let cfg = HybridTreeConfig {
            page_size: 64,
            ..HybridTreeConfig::default()
        };
        // 64-byte pages cannot hold two 32-d entries (136 bytes each).
        assert!(HybridTree::new(32, cfg).is_err());
    }

    #[test]
    fn splits_grow_tree_and_preserve_entries() {
        let pts = rand_points(500, 2, 1);
        let t = build(&pts, small_cfg());
        assert!(t.height() > 1, "500 points on 256-byte pages must split");
        t.check_invariants().unwrap();
        for (i, p) in pts.iter().enumerate() {
            assert!(
                t.box_query(&Rect::from_point(p))
                    .unwrap()
                    .contains(&(i as u64)),
                "point {i} lost after splits"
            );
        }
    }

    #[test]
    fn box_query_matches_brute_force() {
        let pts = rand_points(800, 3, 2);
        let t = build(&pts, small_cfg());
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..40 {
            let lo: Vec<f32> = (0..3).map(|_| rng.gen::<f32>() * 0.8).collect();
            let hi: Vec<f32> = lo.iter().map(|l| l + 0.2).collect();
            let rect = Rect::new(lo, hi);
            let mut got = t.box_query(&rect).unwrap();
            got.sort_unstable();
            assert_eq!(got, brute_box(&pts, &rect));
        }
    }

    #[test]
    fn distance_range_matches_brute_force() {
        let pts = rand_points(600, 4, 4);
        let t = build(&pts, small_cfg());
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..25 {
            let q = Point::new((0..4).map(|_| rng.gen::<f32>()).collect());
            for metric in [&L1 as &dyn Metric, &L2] {
                let radius = 0.4;
                let mut got = t.distance_range(&q, radius, metric).unwrap();
                got.sort_unstable();
                let mut want: Vec<u64> = pts
                    .iter()
                    .enumerate()
                    .filter(|(_, p)| metric.distance(&q, p) <= radius)
                    .map(|(i, _)| i as u64)
                    .collect();
                want.sort_unstable();
                assert_eq!(got, want, "metric {}", metric.name());
            }
        }
    }

    #[test]
    fn knn_matches_brute_force() {
        let pts = rand_points(400, 3, 6);
        let t = build(&pts, small_cfg());
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..25 {
            let q = Point::new((0..3).map(|_| rng.gen::<f32>()).collect());
            let k = rng.gen_range(1..20);
            let got = t.knn(&q, k, &L2).unwrap();
            assert_eq!(got.len(), k.min(pts.len()));
            let mut want: Vec<f64> = pts.iter().map(|p| L2.distance(&q, p)).collect();
            want.sort_by(f64::total_cmp);
            for (i, (_, d)) in got.iter().enumerate() {
                assert!(
                    (d - want[i]).abs() < 1e-9,
                    "k={k} neighbor {i}: got {d}, want {}",
                    want[i]
                );
            }
            // Distances must be non-decreasing.
            for w in got.windows(2) {
                assert!(w[0].1 <= w[1].1);
            }
        }
    }

    #[test]
    fn knn_with_k_larger_than_n() {
        let pts = rand_points(10, 2, 8);
        let t = build(&pts, small_cfg());
        let got = t.knn(&Point::new(vec![0.5, 0.5]), 50, &L2).unwrap();
        assert_eq!(got.len(), 10);
    }

    #[test]
    fn duplicate_points_are_all_retrievable() {
        let mut t = HybridTree::new(2, small_cfg()).unwrap();
        let p = Point::new(vec![0.5, 0.5]);
        for i in 0..100 {
            t.insert(p.clone(), i).unwrap();
        }
        let mut got = t.box_query(&Rect::from_point(&p)).unwrap();
        got.sort_unstable();
        assert_eq!(got, (0..100).collect::<Vec<_>>());
        t.check_invariants().unwrap();
    }

    #[test]
    fn delete_removes_exactly_one_entry() {
        let pts = rand_points(300, 2, 9);
        let mut t = build(&pts, small_cfg());
        assert!(t.delete(&pts[42], 42).unwrap());
        assert_eq!(t.len(), 299);
        assert!(t.box_query(&Rect::from_point(&pts[42])).unwrap().is_empty());
        // Deleting again reports absence.
        assert!(!t.delete(&pts[42], 42).unwrap());
        // Mismatched oid does not delete.
        assert!(!t.delete(&pts[43], 999).unwrap());
        t.check_invariants().unwrap();
    }

    #[test]
    fn delete_everything_then_reuse() {
        let pts = rand_points(400, 2, 10);
        let mut t = build(&pts, small_cfg());
        let mut order: Vec<usize> = (0..pts.len()).collect();
        let mut rng = StdRng::seed_from_u64(11);
        order.shuffle(&mut rng);
        for (step, &i) in order.iter().enumerate() {
            assert!(t.delete(&pts[i], i as u64).unwrap(), "delete {i}");
            if step % 57 == 0 {
                t.check_invariants().unwrap();
            }
        }
        assert!(t.is_empty());
        t.check_invariants().unwrap();
        // The tree remains usable after total deletion.
        t.insert(Point::new(vec![0.3, 0.3]), 1).unwrap();
        let p = Point::new(vec![0.3, 0.3]);
        assert_eq!(t.box_query(&Rect::from_point(&p)).unwrap(), vec![1]);
    }

    #[test]
    fn interleaved_inserts_deletes_queries() {
        let pts = rand_points(600, 3, 12);
        let mut t = HybridTree::new(3, small_cfg()).unwrap();
        let mut live: Vec<bool> = vec![false; pts.len()];
        let mut rng = StdRng::seed_from_u64(13);
        // Insert the first half.
        for i in 0..300 {
            t.insert(pts[i].clone(), i as u64).unwrap();
            live[i] = true;
        }
        // Interleave.
        for i in 300..600 {
            t.insert(pts[i].clone(), i as u64).unwrap();
            live[i] = true;
            let victim = rng.gen_range(0..i);
            if live[victim] {
                assert!(t.delete(&pts[victim], victim as u64).unwrap());
                live[victim] = false;
            }
        }
        t.check_invariants().unwrap();
        let rect = Rect::new(vec![0.2; 3], vec![0.7; 3]);
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

    #[test]
    fn clustered_data_exercises_overlap_splits() {
        // Tight clusters force overlapping index splits; correctness must
        // be unaffected.
        let mut rng = StdRng::seed_from_u64(14);
        let mut pts = Vec::new();
        for c in 0..5 {
            let center: Vec<f32> = (0..4).map(|_| 0.2 * c as f32 + 0.1).collect();
            for _ in 0..150 {
                pts.push(Point::new(
                    center
                        .iter()
                        .map(|&x| x + rng.gen::<f32>() * 0.01)
                        .collect(),
                ));
            }
        }
        let t = build(&pts, small_cfg());
        t.check_invariants().unwrap();
        for (i, p) in pts.iter().enumerate().step_by(17) {
            assert!(t
                .box_query(&Rect::from_point(p))
                .unwrap()
                .contains(&(i as u64)));
        }
    }

    #[test]
    fn els_disabled_still_correct() {
        let cfg = HybridTreeConfig {
            els_bits: 0,
            ..small_cfg()
        };
        let pts = rand_points(500, 3, 15);
        let t = build(&pts, cfg);
        t.check_invariants().unwrap();
        let rect = Rect::new(vec![0.1; 3], vec![0.4; 3]);
        let mut got = t.box_query(&rect).unwrap();
        got.sort_unstable();
        assert_eq!(got, brute_box(&pts, &rect));
        assert_eq!(t.els_overhead_bytes(), 0);
    }

    #[test]
    fn invariant_check_catches_an_els_entry_below_its_data() {
        let dir = std::env::temp_dir().join(format!("hyt_tree_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (pages, meta) = (dir.join("els_below.pages"), dir.join("els_below.meta"));
        let mut t = HybridTree::create_durable(2, small_cfg(), &pages).unwrap();
        for (i, p) in rand_points(1500, 2, 17).into_iter().enumerate() {
            t.insert(p, i as u64).unwrap();
        }
        t.check_invariants().unwrap();
        let Node::Index { kd, .. } = t.read_node_owned(t.root).unwrap() else {
            panic!("expected an index root");
        };
        let (child, region) = kd.children_with_regions(&t.root_region()).remove(0);
        // Shrink the child's live box to its region's lower corner.
        let corner = Rect::from_point(&region.lo_point());
        t.els.set_from_rects(child, [&corner], &region);
        let err = t.check_invariants().unwrap_err().to_string();
        assert!(err.contains("ELS region"), "{err}");

        // Scrub applies the same rule to the persisted table, and recovery
        // heals it by rebuilding the table from the pages.
        t.persist(&meta).unwrap();
        drop(t);
        let report = crate::scrub_index(&pages, &meta).unwrap();
        let issues = &report.catalog.as_ref().unwrap().issues;
        assert!(
            issues
                .iter()
                .any(|i| i.starts_with(&format!("{child}: ELS region"))),
            "{issues:?}"
        );
        let healed = HybridTree::recover(&pages, &meta).unwrap();
        healed.check_invariants().unwrap();
        assert_eq!(healed.len(), 1500);
        std::fs::remove_file(&pages).ok();
        std::fs::remove_file(&meta).ok();
    }

    #[test]
    fn els_reduces_accesses_on_clustered_data() {
        // Clustered data leaves much dead space; ELS should prune it.
        let mut rng = StdRng::seed_from_u64(16);
        let mut pts = Vec::new();
        for c in 0..8 {
            for _ in 0..100 {
                let base = c as f32 / 8.0;
                pts.push(Point::new(
                    (0..4).map(|_| base + rng.gen::<f32>() * 0.02).collect(),
                ));
            }
        }
        let queries: Vec<Rect> = (0..30)
            .map(|_| {
                let lo: Vec<f32> = (0..4).map(|_| rng.gen::<f32>() * 0.9).collect();
                let hi: Vec<f32> = lo.iter().map(|l| l + 0.1).collect();
                Rect::new(lo, hi)
            })
            .collect();
        let run = |bits: u8| -> u64 {
            let cfg = HybridTreeConfig {
                els_bits: bits,
                ..small_cfg()
            };
            let t = build(&pts, cfg);
            t.reset_io_stats();
            for q in &queries {
                t.box_query(q).unwrap();
            }
            t.io_stats().logical_reads
        };
        let without = run(0);
        let with = run(4);
        assert!(
            with <= without,
            "ELS must not increase accesses: {with} vs {without}"
        );
    }

    #[test]
    fn vam_and_round_robin_policies_remain_correct() {
        for policy in [SplitPolicy::Vam, SplitPolicy::RoundRobin] {
            let cfg = HybridTreeConfig {
                split_policy: policy,
                ..small_cfg()
            };
            let pts = rand_points(400, 3, 17);
            let t = build(&pts, cfg);
            t.check_invariants().unwrap();
            let rect = Rect::new(vec![0.3; 3], vec![0.6; 3]);
            let mut got = t.box_query(&rect).unwrap();
            got.sort_unstable();
            assert_eq!(got, brute_box(&pts, &rect), "{policy:?}");
        }
    }

    #[test]
    fn io_stats_count_queries() {
        let pts = rand_points(500, 2, 18);
        let t = build(&pts, small_cfg());
        t.reset_io_stats();
        assert_eq!(t.io_stats().logical_reads, 0);
        let (_, io) = t
            .box_query_counted(&Rect::new(vec![0.4, 0.4], vec![0.6, 0.6]))
            .unwrap();
        let s = t.io_stats();
        assert!(s.logical_reads > 0);
        // The pool-global counters are exactly this query's own, and with
        // no leaf cache no visit was served without a read.
        assert_eq!(s, io);
        assert_eq!(t.cache_stats().hits, 0);
    }

    #[test]
    fn structure_stats_are_plausible() {
        let pts = rand_points(1000, 4, 20);
        let t = build(&pts, small_cfg());
        let st = t.structure_stats().unwrap();
        assert_eq!(st.height, t.height());
        assert!(st.data_nodes > 1);
        assert_eq!(st.total_nodes, st.data_nodes + st.index_nodes);
        assert!(st.avg_fanout >= 2.0);
        assert!(st.avg_leaf_utilization > 0.3 && st.avg_leaf_utilization <= 1.0);
        assert!(st.distinct_split_dims >= 1 && st.distinct_split_dims <= 4);
        assert_eq!(st.redundant_bytes, 0);
    }

    #[test]
    fn file_backed_tree_works() {
        use hyt_page::FileStorage;
        let dir = std::env::temp_dir().join(format!("hyt_tree_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tree.pages");
        let storage = FileStorage::create(&path, 256).unwrap();
        let cfg = small_cfg();
        let mut t = HybridTree::with_storage(2, cfg, storage).unwrap();
        let pts = rand_points(200, 2, 21);
        for (i, p) in pts.iter().enumerate() {
            t.insert(p.clone(), i as u64).unwrap();
        }
        t.check_invariants().unwrap();
        let rect = Rect::new(vec![0.2, 0.2], vec![0.8, 0.8]);
        let mut got = t.box_query(&rect).unwrap();
        got.sort_unstable();
        assert_eq!(got, brute_box(&pts, &rect));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn high_dimensional_tree_fanout_is_dimension_independent() {
        // The defining property: index-node fanout does not collapse with
        // dimensionality (paper Table 1). Compare 4-d and 32-d trees.
        let cfg = HybridTreeConfig::default(); // 4 KiB pages
        let fanout_at = |dim: usize| -> f64 {
            let pts = rand_points(3000, dim, 22);
            let mut t = HybridTree::new(dim, cfg.clone()).unwrap();
            for (i, p) in pts.iter().enumerate() {
                t.insert(p.clone(), i as u64).unwrap();
            }
            t.structure_stats().unwrap().avg_fanout
        };
        let f4 = fanout_at(4);
        let f32d = fanout_at(32);
        // An R-tree's fanout would shrink ~8x; the hybrid tree's barely
        // moves (data-node count differs, so allow generous slack).
        assert!(
            f32d > f4 * 0.5,
            "fanout collapsed with dimensionality: {f4} -> {f32d}"
        );
    }

    #[test]
    fn weighted_metric_at_query_time() {
        use hyt_geom::WeightedEuclidean;
        let pts = rand_points(300, 4, 23);
        let t = build(&pts, small_cfg());
        let q = Point::new(vec![0.5; 4]);
        // Two different relevance-feedback weightings, same index.
        let m1 = WeightedEuclidean::new(vec![1.0, 1.0, 1.0, 1.0]);
        let m2 = WeightedEuclidean::new(vec![10.0, 0.1, 0.1, 0.1]);
        for m in [&m1, &m2] {
            let got = t.knn(&q, 5, m).unwrap();
            let mut want: Vec<(u64, f64)> = pts
                .iter()
                .enumerate()
                .map(|(i, p)| (i as u64, m.distance(&q, p)))
                .collect();
            want.sort_by(|a, b| a.1.total_cmp(&b.1));
            for (i, (_, d)) in got.iter().enumerate() {
                assert!((d - want[i].1).abs() < 1e-9);
            }
        }
    }
}
