//! Seed → workload determinism: the same seed gives the same ticks,
//! another seed gives other ticks.

use exbox_loopbench::workload::{Kind, TickInput, Ticks};

fn first(kind: Kind, seed: u64, n: usize) -> Vec<TickInput> {
    Ticks::new(kind, seed, true).take(n).collect()
}

fn ticks_to_check(kind: Kind) -> usize {
    match kind {
        Kind::Storm => 2,
        Kind::Drift | Kind::FlashCrowd => 120,
    }
}

#[test]
fn equal_seeds_give_equal_workloads() {
    for kind in Kind::ALL {
        let n = ticks_to_check(kind);
        let a = first(kind, 7, n);
        let b = first(kind, 7, n);
        assert_eq!(a.len(), n, "{}: too few ticks", kind.name());
        assert_eq!(a, b, "{}: same seed, different ticks", kind.name());
        let packets: usize = a.iter().map(|t| t.packets.len()).sum();
        assert!(packets > 0, "{}: no packets", kind.name());
    }
}

#[test]
fn other_seeds_give_other_workloads() {
    for kind in Kind::ALL {
        let n = ticks_to_check(kind);
        assert_ne!(
            first(kind, 7, n),
            first(kind, 8, n),
            "{}: seed does not reach the workload",
            kind.name()
        );
    }
}

#[test]
fn ticks_are_time_ordered_and_polled_at_their_end() {
    for kind in Kind::ALL {
        for t in first(kind, 3, ticks_to_check(kind)) {
            assert!(
                t.packets
                    .windows(2)
                    .all(|w| w[0].0.timestamp <= w[1].0.timestamp),
                "{}: tick {} packets out of time order",
                kind.name(),
                t.index
            );
        }
    }
}

#[test]
fn drift_throttles_once_mid_episode() {
    let ticks: Vec<TickInput> = Ticks::new(Kind::Drift, 5, true).collect();
    let throttles: Vec<u32> = ticks
        .iter()
        .filter(|t| t.throttle)
        .map(|t| t.index)
        .collect();
    assert_eq!(throttles, vec![ticks.len() as u32 / 3]);
}

#[test]
fn workload_names_round_trip() {
    for kind in Kind::ALL {
        assert_eq!(Kind::parse(kind.name()), Some(kind));
    }
    assert_eq!(Kind::parse("hit"), None);
}
