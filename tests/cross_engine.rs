//! Cross-engine integration tests: every index structure must return
//! exactly the same answers as a brute-force oracle, on every dataset
//! family the paper uses, for every query kind it supports.

use hybridtree_repro::data::{clustered, colhist, fourier, uniform};
use hybridtree_repro::eval::{build_engine, Engine};
use hybridtree_repro::kdbtree::KdbTree;
use hybridtree_repro::prelude::*;
use hybridtree_repro::scan::SeqScan;
use hybridtree_repro::srtree::SrTree;
use rand::prelude::*;
use rand::rngs::StdRng;

const ENGINES: [Engine; 5] = [
    Engine::Hybrid,
    Engine::Hb,
    Engine::Sr,
    Engine::Kdb,
    Engine::Scan,
];

fn datasets() -> Vec<(&'static str, Vec<Point>)> {
    vec![
        ("uniform-4d", uniform(1_500, 4, 11)),
        ("clustered-6d", clustered(1_500, 6, 5, 0.02, 12)),
        ("colhist-16d", colhist(1_200, 16, 13)),
        ("fourier-8d", fourier(1_200, 8, 14)),
    ]
}

fn brute_box(data: &[Point], rect: &Rect) -> Vec<u64> {
    let mut v: Vec<u64> = data
        .iter()
        .enumerate()
        .filter(|(_, p)| rect.contains_point(p))
        .map(|(i, _)| i as u64)
        .collect();
    v.sort_unstable();
    v
}

fn query_boxes(data: &[Point], n: usize, seed: u64) -> Vec<Rect> {
    let mut rng = StdRng::seed_from_u64(seed);
    let _dim = data[0].dim();
    (0..n)
        .map(|_| {
            let c = &data[rng.gen_range(0..data.len())];
            let h = rng.gen_range(0.02..0.3f32);
            Rect::new(
                c.coords().iter().map(|x| x - h).collect(),
                c.coords().iter().map(|x| x + h).collect(),
            )
        })
        .collect()
}

#[test]
fn box_queries_agree_with_brute_force_on_all_engines() {
    for (name, data) in datasets() {
        let queries = query_boxes(&data, 12, 21);
        let expected: Vec<Vec<u64>> = queries.iter().map(|q| brute_box(&data, q)).collect();
        for engine in ENGINES {
            let (idx, _) = build_engine(engine, &data).unwrap();
            for (q, want) in queries.iter().zip(&expected) {
                let mut got = idx.box_query(q).unwrap();
                got.sort_unstable();
                assert_eq!(&got, want, "{} on {name}", engine.name());
            }
        }
    }
}

#[test]
fn distance_queries_agree_where_supported() {
    for (name, data) in datasets() {
        let dim = data[0].dim();
        let mut rng = StdRng::seed_from_u64(31);
        let centers: Vec<Point> = (0..8)
            .map(|_| data[rng.gen_range(0..data.len())].clone())
            .collect();
        for engine in [Engine::Hybrid, Engine::Sr, Engine::Kdb, Engine::Scan] {
            let (idx, _) = build_engine(engine, &data).unwrap();
            for metric in [&L1 as &dyn Metric, &L2] {
                for c in &centers {
                    let radius = 0.2 * (dim as f64).sqrt() * 0.3;
                    let mut got = idx.distance_range(c, radius, metric).unwrap();
                    got.sort_unstable();
                    let mut want: Vec<u64> = data
                        .iter()
                        .enumerate()
                        .filter(|(_, p)| metric.distance(c, p) <= radius)
                        .map(|(i, _)| i as u64)
                        .collect();
                    want.sort_unstable();
                    assert_eq!(
                        got,
                        want,
                        "{} on {name} under {}",
                        engine.name(),
                        metric.name()
                    );
                }
            }
        }
    }
}

#[test]
fn knn_distances_agree_where_supported() {
    for (name, data) in datasets() {
        let mut rng = StdRng::seed_from_u64(41);
        let q = data[rng.gen_range(0..data.len())].clone();
        let mut want: Vec<f64> = data.iter().map(|p| L2.distance(&q, p)).collect();
        want.sort_by(f64::total_cmp);
        for engine in [Engine::Hybrid, Engine::Sr, Engine::Kdb, Engine::Scan] {
            let (idx, _) = build_engine(engine, &data).unwrap();
            let got = idx.knn(&q, 15, &L2).unwrap();
            assert_eq!(got.len(), 15);
            for (i, (_, d)) in got.iter().enumerate() {
                assert!(
                    (d - want[i]).abs() < 1e-9,
                    "{} on {name}: rank {i} dist {d} != {}",
                    engine.name(),
                    want[i]
                );
            }
        }
    }
}

#[test]
fn deletes_are_respected_by_all_engines() {
    let data = uniform(800, 3, 51);
    let mut rng = StdRng::seed_from_u64(52);
    let mut dead = vec![false; data.len()];
    for _ in 0..250 {
        dead[rng.gen_range(0..data.len())] = true;
    }
    let rect = Rect::new(vec![0.15; 3], vec![0.85; 3]);
    let mut want: Vec<u64> = data
        .iter()
        .enumerate()
        .filter(|(i, p)| !dead[*i] && rect.contains_point(p))
        .map(|(i, _)| i as u64)
        .collect();
    want.sort_unstable();
    for engine in ENGINES {
        let (mut idx, _) = build_engine(engine, &data).unwrap();
        for (i, p) in data.iter().enumerate() {
            if dead[i] {
                assert!(
                    idx.delete(p, i as u64).unwrap(),
                    "{}: delete {i}",
                    engine.name()
                );
            }
        }
        assert_eq!(idx.len(), data.len() - dead.iter().filter(|d| **d).count());
        let mut got = idx.box_query(&rect).unwrap();
        got.sort_unstable();
        assert_eq!(got, want, "{} after deletes", engine.name());
    }
}

#[test]
fn dimension_mismatch_rejected_everywhere() {
    let data = uniform(50, 4, 61);
    for engine in ENGINES {
        let (mut idx, _) = build_engine(engine, &data).unwrap();
        assert!(matches!(
            idx.insert(Point::origin(5), 0),
            Err(IndexError::DimensionMismatch { .. })
        ));
        assert!(idx.box_query(&Rect::unit(3)).is_err(), "{}", engine.name());
    }
}

#[test]
fn empty_query_results_are_empty_not_errors() {
    let data = uniform(300, 3, 71);
    for engine in ENGINES {
        let (idx, _) = build_engine(engine, &data).unwrap();
        // A window far outside the data.
        let rect = Rect::new(vec![5.0; 3], vec![6.0; 3]);
        assert!(
            idx.box_query(&rect).unwrap().is_empty(),
            "{}",
            engine.name()
        );
    }
}

// ---------------------------------------------------------------------
// (1 + ε)-approximate kNN on every engine with distance search, through
// `MultidimIndex::execute`.
// ---------------------------------------------------------------------

/// Tiny pages force deep trees from a few hundred points.
const EPS_PAGE: usize = 256;

fn rand_points(n: usize, dim: usize, seed: u64) -> Vec<Point> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| Point::new((0..dim).map(|_| rng.gen::<f32>()).collect()))
        .collect()
}

/// Every distance engine configuration — the hybrid tree with ELS on and
/// off, the SR-tree, the kDB-tree and the scan — holding `points` under
/// oids `0..n`.
fn distance_engines(points: &[Point]) -> Vec<(&'static str, Box<dyn MultidimIndex>)> {
    let dim = points[0].dim();
    let hybrid = |els_bits| HybridTreeConfig {
        page_size: EPS_PAGE,
        els_bits,
        ..HybridTreeConfig::default()
    };
    let mut engines: Vec<(&'static str, Box<dyn MultidimIndex>)> = vec![
        ("hybrid", Box::new(HybridTree::new(dim, hybrid(4)).unwrap())),
        (
            "hybrid-els0",
            Box::new(HybridTree::new(dim, hybrid(0)).unwrap()),
        ),
        ("sr-tree", Box::new(SrTree::new(dim, EPS_PAGE).unwrap())),
        ("kdb-tree", Box::new(KdbTree::new(dim, EPS_PAGE).unwrap())),
        ("seq-scan", Box::new(SeqScan::new(dim, EPS_PAGE).unwrap())),
    ];
    for (_, idx) in &mut engines {
        for (i, p) in points.iter().enumerate() {
            idx.insert(p.clone(), i as u64).unwrap();
        }
    }
    engines
}

/// An ungoverned kNN query with the given `epsilon`, as `(oid, distance)`
/// pairs.
fn knn_eps(
    t: &dyn MultidimIndex,
    q: &Point,
    k: usize,
    epsilon: f64,
    metric: &dyn Metric,
) -> IndexResult<Vec<(u64, f64)>> {
    let query = Query::Knn {
        q: q.clone(),
        k,
        epsilon,
    };
    let (outcome, _) = t.execute(&query, metric, QueryContext::unlimited())?;
    Ok(outcome.into_results().into_hits())
}

#[test]
fn approximate_with_zero_epsilon_is_exact() {
    for (_, t) in distance_engines(&rand_points(600, 3, 3)) {
        let q = Point::new(vec![0.7, 0.1, 0.5]);
        let exact = t.knn(&q, 10, &L2).unwrap();
        let approx = knn_eps(&*t, &q, 10, 0.0, &L2).unwrap();
        for (a, e) in approx.iter().zip(&exact) {
            assert!((a.1 - e.1).abs() < 1e-12);
        }
    }
}

#[test]
fn approximate_at_zero_epsilon_equals_knn_exactly() {
    let pts = rand_points(800, 4, 24);
    for (name, t) in distance_engines(&pts) {
        let mut rng = StdRng::seed_from_u64(25);
        for _ in 0..10 {
            let q = Point::new((0..4).map(|_| rng.gen::<f32>()).collect());
            for metric in [&L1 as &dyn Metric, &L2] {
                t.reset_io_stats();
                let exact = t.knn(&q, 8, metric).unwrap();
                let exact_reads = t.io_stats().logical_reads;
                t.reset_io_stats();
                let approx = knn_eps(&*t, &q, 8, 0.0, metric).unwrap();
                // Same oids, same order, same distances, same pages.
                assert_eq!(approx, exact, "{name}");
                assert_eq!(t.io_stats().logical_reads, exact_reads);
            }
        }
    }
}

#[test]
fn approximate_respects_the_epsilon_guarantee() {
    for (_, t) in distance_engines(&rand_points(800, 4, 4)) {
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..10 {
            let q = Point::new((0..4).map(|_| rng.gen::<f32>()).collect());
            let exact = t.knn(&q, 8, &L2).unwrap();
            for eps in [0.1, 0.5, 2.0] {
                let approx = knn_eps(&*t, &q, 8, eps, &L2).unwrap();
                assert_eq!(approx.len(), 8);
                for (rank, (_, d)) in approx.iter().enumerate() {
                    let bound = exact[rank].1 * (1.0 + eps) + 1e-9;
                    assert!(
                        *d <= bound,
                        "eps={eps} rank={rank}: {d} > (1+eps)*{}",
                        exact[rank].1
                    );
                }
            }
        }
    }
}

#[test]
fn larger_epsilon_reads_fewer_pages() {
    for (_, t) in distance_engines(&rand_points(3000, 6, 6)) {
        let q = Point::new(vec![0.5; 6]);
        let mut accesses = Vec::new();
        for eps in [0.0, 0.5, 2.0] {
            t.reset_io_stats();
            knn_eps(&*t, &q, 10, eps, &L2).unwrap();
            accesses.push(t.io_stats().logical_reads);
        }
        assert!(
            accesses[2] <= accesses[0],
            "eps=2 must not read more pages than exact: {accesses:?}"
        );
    }
}

/// A negative or non-finite ε is a typed error on every distance engine,
/// never a panic; below −1 it would turn the kNN prune bound negative.
#[test]
fn invalid_epsilon_is_an_error_on_every_distance_engine() {
    let pts = rand_points(300, 3, 7);
    let q = Point::new(vec![0.5; 3]);
    for (name, t) in distance_engines(&pts) {
        for eps in [-0.5, -2.0, f64::NAN, f64::INFINITY] {
            let err = knn_eps(&*t, &q, 5, eps, &L2).unwrap_err();
            assert!(
                matches!(err, IndexError::InvalidQuery(_)),
                "{name}: eps={eps}: {err}"
            );
        }
    }
}

#[test]
fn invalid_radius_is_an_error_on_every_distance_engine() {
    let pts = rand_points(300, 3, 8);
    let q = Point::new(vec![0.5; 3]);
    let range = |t: &dyn MultidimIndex, radius| {
        let query = Query::Range {
            q: q.clone(),
            radius,
        };
        t.execute(&query, &L2, QueryContext::unlimited())
    };
    for (name, t) in distance_engines(&pts) {
        for radius in [-0.5, -f64::MIN_POSITIVE, f64::NEG_INFINITY, f64::NAN] {
            let err = range(&*t, radius).unwrap_err();
            assert!(
                matches!(err, IndexError::InvalidQuery(_)),
                "{name}: radius={radius}: {err}"
            );
        }
        // An infinite radius is legal: it matches every entry.
        let (outcome, _) = range(&*t, f64::INFINITY).unwrap();
        assert_eq!(outcome.into_results().oids.len(), pts.len(), "{name}");
    }
}

/// A `k` beyond any index's size — up to `usize::MAX` — is legal: every
/// distance engine returns every point, nearest first, as a complete
/// answer instead of reserving room for `k` hits up front.
#[test]
fn huge_k_returns_every_point_on_every_distance_engine() {
    let pts = rand_points(400, 3, 9);
    let q = Point::new(vec![0.5; 3]);
    let query = Query::Knn {
        q: q.clone(),
        k: usize::MAX,
        epsilon: 0.0,
    };
    let mut want: Vec<f64> = pts.iter().map(|p| L2.distance(&q, p)).collect();
    want.sort_by(f64::total_cmp);
    for (name, t) in distance_engines(&pts) {
        let (outcome, _) = t.execute(&query, &L2, QueryContext::unlimited()).unwrap();
        assert!(outcome.is_complete(), "{name}");
        let hits = outcome.into_results().into_hits();
        let mut oids: Vec<u64> = hits.iter().map(|h| h.0).collect();
        oids.sort_unstable();
        assert_eq!(oids, (0..pts.len() as u64).collect::<Vec<_>>(), "{name}");
        for (rank, (_, d)) in hits.iter().enumerate() {
            assert!((d - want[rank]).abs() < 1e-9, "{name}: rank {rank}");
        }
    }
}
