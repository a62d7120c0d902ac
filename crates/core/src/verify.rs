//! The hybrid tree's structural rules, applied by one walk.
//!
//! [`walk`] is the only place the rules live. Its three callers differ
//! only in how they read a page and what they do with the ELS table:
//!
//! * [`HybridTree::check_invariants`] reads through the buffer pool,
//!   checks the in-memory table, and reports the first issue;
//! * recovery ([`HybridTree::recover`]) reads raw storage, rebuilds the
//!   table in the same pass, and frees the pages the walk never reached;
//! * [`scrub_index`] reads the verified page payloads and lists every
//!   issue.
//!
//! [`HybridTree::check_invariants`]: crate::HybridTree::check_invariants
//! [`HybridTree::recover`]: crate::HybridTree::recover
//! [`scrub_index`]: crate::scrub_index

use crate::els::ElsTable;
use crate::node::{data_capacity, min_entries, Node};
use crate::persist::CatalogCore;
use crate::tree::root_region_of;
use hyt_geom::Rect;
use hyt_page::{PageError, PageId};
use std::collections::HashSet;
use std::fmt;

/// What the walk does with the ELS table.
pub(crate) enum Els<'a> {
    /// Check every non-empty child against the table.
    Check(&'a ElsTable),
    /// Set each non-empty child's entry from its live box, then check it.
    Rebuild(&'a mut ElsTable),
}

/// One broken rule.
pub(crate) enum Issue {
    /// The page could not be read or decoded.
    Read(PageId, PageError),
    /// A structural rule failed; the message starts with the page.
    Rule(String),
}

impl fmt::Display for Issue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Issue::Read(pid, e) => write!(f, "{pid}: unreadable node: {e}"),
            Issue::Rule(msg) => f.write_str(msg),
        }
    }
}

/// What a walk found.
pub(crate) struct Walked {
    /// Every page the tree references, whether or not it could be read.
    pub seen: HashSet<PageId>,
    /// Broken rules, in walk order.
    pub issues: Vec<Issue>,
}

/// Walks the tree `core` describes from its root, reading each page it
/// references once through `read`, and collects every broken rule:
///
/// 1. every page decodes, and no page is referenced twice;
/// 2. node levels decrease by exactly one per tree level, data nodes at
///    level 0;
/// 3. data nodes respect the capacity and, below the root, the
///    utilization quota;
/// 4. non-root index nodes have fanout >= 2;
/// 5. every node fits in a page;
/// 6. every child's kd-region lies inside its parent's, and every point
///    inside its node's kd-region;
/// 7. for every non-empty child, the ELS effective region covers the live
///    box (no false dismissals) and, with ELS enabled, the child's entry
///    records an exact box that covers it;
/// 8. the number of reachable entries equals the recorded length.
pub(crate) fn walk(
    core: &CatalogCore,
    els: Els<'_>,
    read: impl FnMut(PageId) -> Result<Node, PageError>,
) -> Walked {
    let data_cap = data_capacity(core.cfg.page_size, core.dim);
    let mut w = Walker {
        read,
        els,
        dim: core.dim,
        page_size: core.cfg.page_size,
        data_cap,
        data_min: min_entries(data_cap),
        seen: HashSet::new(),
        issues: Vec::new(),
    };
    let region = root_region_of(core.global_br.as_ref(), core.dim);
    let (total, _) = w.visit(core.root, &region, core.height - 1, true);
    if total != core.len {
        w.issues.push(Issue::Rule(format!(
            "reachable entries {total} != len {}",
            core.len
        )));
    }
    Walked {
        seen: w.seen,
        issues: w.issues,
    }
}

struct Walker<'a, R> {
    read: R,
    els: Els<'a>,
    dim: usize,
    page_size: usize,
    data_cap: usize,
    data_min: usize,
    seen: HashSet<PageId>,
    issues: Vec<Issue>,
}

impl<R: FnMut(PageId) -> Result<Node, PageError>> Walker<'_, R> {
    /// Checks the subtree at `pid` in one pass and returns its entry count
    /// and live bounding box (`None` when it holds no entries). Nothing
    /// below a page that cannot be read, or sits at the wrong level, is
    /// counted or checked.
    fn visit(
        &mut self,
        pid: PageId,
        region: &Rect,
        level: usize,
        is_root: bool,
    ) -> (usize, Option<Rect>) {
        if !self.seen.insert(pid) {
            self.issues.push(Issue::Rule(format!(
                "{pid}: page referenced more than once"
            )));
            return (0, None);
        }
        let node = match (self.read)(pid) {
            Ok(node) => node,
            Err(e) => {
                self.issues.push(Issue::Read(pid, e));
                return (0, None);
            }
        };
        let size = node.encoded_size(self.dim);
        if size > self.page_size {
            self.issues.push(Issue::Rule(format!(
                "{pid}: encoded size {size} exceeds page"
            )));
        }
        match node {
            Node::Data(entries) => {
                if level != 0 {
                    self.issues
                        .push(Issue::Rule(format!("{pid}: data node at level {level}")));
                    return (0, None);
                }
                let n = entries.len();
                if n > self.data_cap {
                    self.issues
                        .push(Issue::Rule(format!("{pid}: over capacity: {n}")));
                }
                if !is_root && n < self.data_min {
                    self.issues.push(Issue::Rule(format!(
                        "{pid}: utilization violated: {n} < {}",
                        self.data_min
                    )));
                }
                if let Some(e) = entries.iter().find(|e| !region.contains_point(&e.point)) {
                    let p = &e.point;
                    self.issues.push(Issue::Rule(format!(
                        "{pid}: point {p:?} outside region {region:?}"
                    )));
                }
                let mut live: Option<Rect> = None;
                for e in &entries {
                    match &mut live {
                        Some(r) => r.extend_to_point(&e.point),
                        None => live = Some(Rect::from_point(&e.point)),
                    }
                }
                (n, live)
            }
            Node::Index { level: got, kd } => {
                if usize::from(got) != level || level == 0 {
                    self.issues.push(Issue::Rule(format!(
                        "{pid}: index node at level {got}, expected {level}"
                    )));
                    return (0, None);
                }
                let fanout = kd.fanout();
                if fanout < 2 && !is_root {
                    self.issues
                        .push(Issue::Rule(format!("{pid}: fanout {fanout} < 2")));
                }
                let mut total = 0usize;
                let mut live: Option<Rect> = None;
                for (child, child_region) in kd.children_with_regions(region) {
                    if !region.contains_rect(&child_region) {
                        self.issues.push(Issue::Rule(format!(
                            "{pid}: child region {child_region:?} escapes {region:?}"
                        )));
                    }
                    let (count, child_live) = self.visit(child, &child_region, level - 1, false);
                    total += count;
                    if let Some(child_live) = child_live {
                        self.check_els(child, &child_region, &child_live);
                        match &mut live {
                            Some(r) => r.extend_to_rect(&child_live),
                            None => live = Some(child_live),
                        }
                    }
                }
                (total, live)
            }
        }
    }

    /// ELS conservativeness for the non-empty `child`: its effective
    /// region holds every point beneath it exactly when it holds their
    /// bounding box `live`.
    fn check_els(&mut self, child: PageId, region: &Rect, live: &Rect) {
        let table: &ElsTable = match &mut self.els {
            Els::Check(table) => table,
            Els::Rebuild(table) => {
                table.set_from_rects(child, [live], region);
                table
            }
        };
        let eff = table.effective_region(child, region);
        if !eff.contains_rect(live) {
            self.issues.push(Issue::Rule(format!(
                "{child}: ELS region {eff:?} misses live box {live:?}"
            )));
        }
        if table.enabled() {
            match table.exact_live(child) {
                Some(exact) if exact.contains_rect(live) => {}
                Some(exact) => self.issues.push(Issue::Rule(format!(
                    "{child}: ELS entry {exact:?} misses live box {live:?}"
                ))),
                None => self.issues.push(Issue::Rule(format!(
                    "{child}: non-empty subtree missing from ELS"
                ))),
            }
        }
    }
}
