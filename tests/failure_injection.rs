//! Failure injection: storage faults must surface as errors, never as
//! panics, silent corruption, or wrong query results.

use hybridtree_repro::page::{PageError, PageId, PageResult, Storage, DEFAULT_PAGE_SIZE};
use hybridtree_repro::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Remote control for a [`FlakyStorage`]: `u64::MAX` means "never fail";
/// any other value is the number of further reads allowed before faults.
struct FailKnob(AtomicU64);

impl FailKnob {
    fn set(&self, limit: Option<u64>) {
        self.0.store(limit.unwrap_or(u64::MAX), Ordering::SeqCst);
    }

    fn get(&self) -> Option<u64> {
        match self.0.load(Ordering::SeqCst) {
            u64::MAX => None,
            n => Some(n),
        }
    }
}

/// A wrapper storage that starts failing reads/writes on command.
/// `Storage` is `Send + Sync`, so the knob and counter are atomics.
struct FlakyStorage<S: Storage> {
    inner: S,
    fail_reads_after: Arc<FailKnob>,
    reads: AtomicU64,
}

impl<S: Storage> FlakyStorage<S> {
    fn new(inner: S) -> (Self, Arc<FailKnob>) {
        let knob = Arc::new(FailKnob(AtomicU64::new(u64::MAX)));
        (
            Self {
                inner,
                fail_reads_after: Arc::clone(&knob),
                reads: AtomicU64::new(0),
            },
            knob,
        )
    }
}

impl<S: Storage> Storage for FlakyStorage<S> {
    fn page_size(&self) -> usize {
        self.inner.page_size()
    }

    fn allocate(&mut self) -> PageResult<PageId> {
        self.inner.allocate()
    }

    fn read(&self, id: PageId, buf: &mut [u8]) -> PageResult<()> {
        let done = self.reads.fetch_add(1, Ordering::SeqCst) + 1;
        if let Some(limit) = self.fail_reads_after.get() {
            if done > limit {
                return Err(PageError::Io(std::io::Error::other("injected read fault")));
            }
        }
        self.inner.read(id, buf)
    }

    fn write(&mut self, id: PageId, data: &[u8]) -> PageResult<()> {
        self.inner.write(id, data)
    }

    fn free(&mut self, id: PageId) -> PageResult<()> {
        self.inner.free(id)
    }

    fn live_pages(&self) -> usize {
        self.inner.live_pages()
    }
}

fn build_points(n: usize, dim: usize, seed: u64) -> Vec<Point> {
    use rand::prelude::*;
    use rand::rngs::StdRng;
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| Point::new((0..dim).map(|_| rng.gen::<f32>()).collect()))
        .collect()
}

#[test]
fn read_faults_surface_as_errors_not_panics() {
    use hybridtree_repro::page::MemStorage;
    let cfg = HybridTreeConfig {
        page_size: 256,
        ..HybridTreeConfig::default()
    };
    let (storage, knob) = FlakyStorage::new(MemStorage::with_page_size(256));
    let mut tree = HybridTree::with_storage(3, cfg, storage).unwrap();
    for (i, p) in build_points(500, 3, 1).iter().enumerate() {
        tree.insert(p.clone(), i as u64).unwrap();
    }
    // Let exactly one more read through, then fail everything.
    knob.set(Some(1));
    tree.reset_io_stats();
    let err = tree
        .box_query(&Rect::unit(3))
        .expect_err("query across faulted storage must fail");
    assert!(matches!(err, IndexError::Storage(PageError::Io(_))));
    // Recovery: lifting the fault restores full service.
    knob.set(None);
    let hits = tree.box_query(&Rect::unit(3)).unwrap();
    assert_eq!(hits.len(), 500);
}

#[test]
fn insert_faults_do_not_corrupt_len() {
    use hybridtree_repro::page::MemStorage;
    let cfg = HybridTreeConfig {
        page_size: 256,
        ..HybridTreeConfig::default()
    };
    let (storage, knob) = FlakyStorage::new(MemStorage::with_page_size(256));
    let mut tree = HybridTree::with_storage(2, cfg, storage).unwrap();
    let pts = build_points(300, 2, 2);
    for (i, p) in pts.iter().enumerate().take(200) {
        tree.insert(p.clone(), i as u64).unwrap();
    }
    knob.set(Some(0));
    let before = tree.len();
    assert!(tree.insert(pts[200].clone(), 200).is_err());
    assert_eq!(tree.len(), before, "failed insert must not count");
    knob.set(None);
    // The tree remains structurally sound afterwards.
    tree.check_invariants().unwrap();
}

#[test]
fn corrupt_pages_decode_to_errors() {
    use hybridtree_repro::core::Node;
    // Truncated, garbage-tagged, and over-claiming payloads must all be
    // rejected cleanly.
    for buf in [
        vec![],
        vec![7u8, 1, 2, 3],
        vec![0u8, 255, 255, 255, 255], // data node claiming 4B entries
        vec![1u8, 0],                  // index node with truncated level
    ] {
        assert!(
            Node::decode(&buf, 4).is_err(),
            "buffer {buf:?} should not decode"
        );
    }
}

#[test]
fn unsupported_operations_are_clean_errors() {
    use hybridtree_repro::hbtree::HbTree;
    let mut t = HbTree::new(3, DEFAULT_PAGE_SIZE).unwrap();
    t.insert(Point::new(vec![0.1, 0.2, 0.3]), 1).unwrap();
    let q = Point::new(vec![0.1, 0.2, 0.3]);
    match t.knn(&q, 1, &L2) {
        Err(IndexError::Unsupported(msg)) => assert!(msg.contains("distance")),
        other => panic!("expected Unsupported, got {other:?}"),
    }
    // The error carries a Display impl suitable for users.
    let e = t.distance_range(&q, 1.0, &L2).unwrap_err();
    assert!(e.to_string().contains("unsupported"));
}
