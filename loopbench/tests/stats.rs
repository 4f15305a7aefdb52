//! The harness's statistics: exact nearest-rank quantiles, tail
//! support, and span self time.

use exbox_loopbench::stats::{beyond, nearest_rank, Samples, TAIL_SUPPORT};
use exbox_loopbench::trace::{layer_totals, Span, NO_PARENT};

fn one_to(n: usize) -> Vec<f64> {
    (1..=n).map(|v| v as f64).collect()
}

#[test]
fn nearest_rank_matches_the_definition() {
    let v = one_to(100);
    assert_eq!(nearest_rank(&v, 0.0), Some(1.0));
    assert_eq!(nearest_rank(&v, 0.01), Some(1.0));
    assert_eq!(nearest_rank(&v, 0.5), Some(50.0));
    assert_eq!(nearest_rank(&v, 0.505), Some(51.0));
    assert_eq!(nearest_rank(&v, 0.99), Some(99.0));
    assert_eq!(nearest_rank(&v, 1.0), Some(100.0));
    // Out-of-range levels clamp.
    assert_eq!(nearest_rank(&v, 1.5), Some(100.0));
    assert_eq!(nearest_rank(&v, -1.0), Some(1.0));
}

#[test]
fn nearest_rank_returns_a_sample_never_an_interpolation() {
    let v = vec![10.0, 20.0];
    assert_eq!(nearest_rank(&v, 0.5), Some(10.0));
    assert_eq!(nearest_rank(&v, 0.51), Some(20.0));
    assert_eq!(nearest_rank(&[7.0], 0.99), Some(7.0));
    assert_eq!(nearest_rank(&[], 0.5), None);
}

#[test]
fn samples_sort_before_ranking() {
    let mut s = Samples::new();
    for v in [5.0, 1.0, 4.0, 2.0, 3.0] {
        s.push(v);
    }
    assert_eq!(s.median(), Some(3.0));
    assert_eq!(s.quantile(1.0), Some(5.0));
    s.push(0.0);
    assert_eq!(s.quantile(0.0), Some(0.0));
    assert_eq!(s.len(), 6);
}

#[test]
fn beyond_counts_samples_strictly_above_the_rank() {
    assert_eq!(beyond(1000, 0.99), 10);
    assert_eq!(beyond(999, 0.99), 9);
    assert_eq!(beyond(100, 0.5), 50);
    assert_eq!(beyond(0, 0.5), 0);
}

#[test]
fn p99_needs_ten_samples_beyond_it() {
    let mut s = Samples::new();
    for v in one_to(1000) {
        s.push(v);
    }
    let t = s.tail(0.99).expect("1000 samples support p99");
    assert!(t.exact_level);
    assert_eq!(t.value, 990.0);
    assert_eq!(t.label(), "p99");
}

#[test]
fn small_samples_fall_back_to_the_highest_supported_percentile() {
    let mut s = Samples::new();
    for v in one_to(500) {
        s.push(v);
    }
    let t = s.tail(0.99).expect("500 samples support p98");
    assert!(!t.exact_level);
    assert_eq!(t.value, (500 - TAIL_SUPPORT) as f64);
    assert_eq!(t.label(), "p98");
    assert_eq!(beyond(500, t.q), TAIL_SUPPORT);

    let mut tiny = Samples::new();
    for v in one_to(2 * TAIL_SUPPORT - 1) {
        tiny.push(v);
    }
    assert!(tiny.tail(0.99).is_none());
}

#[test]
fn self_time_subtracts_direct_children_only() {
    let span = |name, start_ns, end_ns, parent| Span {
        name,
        start_ns,
        end_ns,
        parent,
        tick: 0,
        items: 1,
    };
    let spans = [
        span("tick", 0, 100, NO_PARENT),
        span("phase", 10, 60, 0),
        span("call", 20, 30, 1),
        span("call", 40, 45, 1),
        span("poll", 70, 90, 0),
    ];
    let t = layer_totals(&spans);
    assert_eq!(t["tick"].total_ns, 100);
    assert_eq!(t["tick"].self_ns, 100 - 50 - 20);
    assert_eq!(t["phase"].self_ns, 50 - 10 - 5);
    assert_eq!(t["call"].count, 2);
    assert_eq!(t["call"].self_ns, 15);
    assert_eq!(t["poll"].self_ns, 20);
}
