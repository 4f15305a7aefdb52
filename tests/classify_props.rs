//! Equivalence properties for the early classifier (`exbox-net::classify`).
//!
//! [`RefClassifier`] is the classifier as it stood with two SipHash maps
//! (`pending: FlowKey → Vec`, `decided: FlowKey → class`), a vector-
//! collecting `from_packets` and a `HashMap`-accumulating `train`, copied
//! verbatim in behaviour. The production classifier keeps one FxHash map
//! and computes features without temporaries; under any interleaving of
//! packets from many flows, endpoint hints, `forget` calls and windows
//! 2–16 it must return the same `observe` result and `class_of` at every
//! step, and `FlowFeatures::from_packets` must equal the reference bit
//! for bit.

use std::collections::HashMap;
use std::net::Ipv4Addr;

use exbox::net::classify::PacketRecord;
use exbox::net::{
    AppClass, Direction, EarlyClassifier, FlowFeatures, FlowKey, Instant, Packet, Protocol,
};
use proptest::prelude::*;

/// `FlowFeatures::from_packets` before it went allocation-free.
fn ref_features(packets: &[PacketRecord]) -> FlowFeatures {
    assert!(!packets.is_empty(), "need at least one packet");
    let down: Vec<f64> = packets
        .iter()
        .filter(|(_, _, d)| *d == Direction::Downlink)
        .map(|(_, s, _)| *s as f64)
        .collect();
    let (mean_down_size, std_down_size) = if down.is_empty() {
        (0.0, 0.0)
    } else {
        let m = down.iter().sum::<f64>() / down.len() as f64;
        let v = down.iter().map(|s| (s - m) * (s - m)).sum::<f64>() / down.len() as f64;
        (m, v.sqrt())
    };
    let mut iats = Vec::new();
    for w in packets.windows(2) {
        iats.push(w[1].0.saturating_since(w[0].0).as_secs_f64() * 1e3);
    }
    let (mean_iat_ms, iat_cov) = if iats.is_empty() {
        (0.0, 0.0)
    } else {
        let m = iats.iter().sum::<f64>() / iats.len() as f64;
        let var = iats.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / iats.len() as f64;
        let cov = if m > 1e-9 { var.sqrt() / m } else { 0.0 };
        (m, cov)
    };
    let ups = packets
        .iter()
        .filter(|(_, _, d)| *d == Direction::Uplink)
        .count();
    FlowFeatures {
        mean_down_size,
        std_down_size,
        mean_iat_ms,
        uplink_ratio: ups as f64 / packets.len() as f64,
        iat_cov,
    }
}

fn as_vector(f: &FlowFeatures) -> [f64; 5] {
    [
        f.mean_down_size / 1500.0,
        f.std_down_size / 1500.0,
        f.mean_iat_ms / 100.0,
        f.uplink_ratio,
        f.iat_cov / 4.0,
    ]
}

fn bits(f: &FlowFeatures) -> [u64; 5] {
    [
        f.mean_down_size.to_bits(),
        f.std_down_size.to_bits(),
        f.mean_iat_ms.to_bits(),
        f.uplink_ratio.to_bits(),
        f.iat_cov.to_bits(),
    ]
}

/// The two-map classifier the production one must match.
struct RefClassifier {
    window: usize,
    profiles: Vec<(AppClass, [f64; 5])>,
    server_hints: HashMap<Ipv4Addr, AppClass>,
    pending: HashMap<FlowKey, Vec<PacketRecord>>,
    decided: HashMap<FlowKey, AppClass>,
}

impl RefClassifier {
    fn with_profiles(window: usize, profiles: Vec<(AppClass, [f64; 5])>) -> Self {
        RefClassifier {
            window,
            profiles,
            server_hints: HashMap::new(),
            pending: HashMap::new(),
            decided: HashMap::new(),
        }
    }

    fn with_default_profiles(window: usize) -> Self {
        Self::with_profiles(
            window,
            vec![
                (
                    AppClass::Web,
                    [700.0 / 1500.0, 450.0 / 1500.0, 12.0 / 100.0, 0.30, 0.5],
                ),
                (
                    AppClass::Streaming,
                    [1400.0 / 1500.0, 120.0 / 1500.0, 3.0 / 100.0, 0.05, 0.5],
                ),
                (
                    AppClass::Conferencing,
                    [1000.0 / 1500.0, 220.0 / 1500.0, 25.0 / 100.0, 0.10, 0.5],
                ),
            ],
        )
    }

    fn train(window: usize, examples: &[(AppClass, Vec<PacketRecord>)]) -> Self {
        let mut sums: HashMap<AppClass, ([f64; 5], usize)> = HashMap::new();
        for (class, pkts) in examples {
            let truncated: Vec<_> = pkts.iter().copied().take(window).collect();
            let v = as_vector(&ref_features(&truncated));
            let entry = sums.entry(*class).or_insert(([0.0; 5], 0));
            for (acc, x) in entry.0.iter_mut().zip(v) {
                *acc += x;
            }
            entry.1 += 1;
        }
        let mut profiles = Vec::new();
        for class in AppClass::ALL {
            let (sum, n) = sums[&class];
            let mut centroid = [0.0; 5];
            for k in 0..5 {
                centroid[k] = sum[k] / n as f64;
            }
            profiles.push((class, centroid));
        }
        Self::with_profiles(window, profiles)
    }

    fn classify_features(&self, feats: &FlowFeatures) -> AppClass {
        let v = as_vector(feats);
        self.profiles
            .iter()
            .min_by(|a, b| {
                let da: f64 = a.1.iter().zip(&v).map(|(c, x)| (c - x) * (c - x)).sum();
                let db: f64 = b.1.iter().zip(&v).map(|(c, x)| (c - x) * (c - x)).sum();
                da.partial_cmp(&db).expect("finite distances")
            })
            .expect("profiles non-empty")
            .0
    }

    /// Returns the verdict plus the window it classified, if any.
    fn observe(&mut self, pkt: &Packet) -> (Option<AppClass>, Option<Vec<PacketRecord>>) {
        if self.decided.contains_key(&pkt.flow) {
            return (None, None);
        }
        if let Some(&class) = self.server_hints.get(&pkt.flow.server_ip) {
            self.pending.remove(&pkt.flow);
            self.decided.insert(pkt.flow, class);
            return (Some(class), None);
        }
        let buf = self.pending.entry(pkt.flow).or_default();
        buf.push((pkt.timestamp, pkt.size, pkt.direction));
        if buf.len() < self.window {
            return (None, None);
        }
        let feats = ref_features(buf);
        let class = self.classify_features(&feats);
        let window = self.pending.remove(&pkt.flow);
        self.decided.insert(pkt.flow, class);
        (Some(class), window)
    }

    fn class_of(&self, key: &FlowKey) -> Option<AppClass> {
        self.decided.get(key).copied()
    }

    fn forget(&mut self, key: &FlowKey) {
        self.pending.remove(key);
        self.decided.remove(key);
    }
}

const FLOWS: u32 = 24;
const SERVERS: u8 = 6;

fn flow_key(id: u32) -> FlowKey {
    let proto = if id & 1 == 0 {
        Protocol::Tcp
    } else {
        Protocol::Udp
    };
    FlowKey::synthetic(id, id, (id % SERVERS as u32) as u8 + 1, proto)
}

fn server_ip(s: u8) -> Ipv4Addr {
    Ipv4Addr::new(192, 168, 1, s + 1)
}

/// Record list with frequent zero and backward steps in time, so the
/// zero-IAT and saturating branches are exercised.
fn records(raw: &[(u32, u32, bool)]) -> Vec<PacketRecord> {
    let mut t = 0i64;
    raw.iter()
        .map(|&(step, size, up)| {
            t += match step {
                0..=19 => 0,
                20..=24 => -(step as i64),
                s => s as i64 * 97,
            };
            t = t.max(0);
            let dir = if up {
                Direction::Uplink
            } else {
                Direction::Downlink
            };
            (Instant::from_micros(t as u64), size, dir)
        })
        .collect()
}

fn raw_records(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<(u32, u32, bool)>> {
    prop::collection::vec((0u32..400, 40u32..1501, any::<bool>()), len)
}

/// One op: `(kind, flow, server, step, size, uplink)`. Kinds 0..=11 are
/// packets, 12..=13 `forget`, 14 `learn_server_hint`.
type Op = (u8, u32, u8, u32, u32, bool);

fn ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        (
            0u8..15,
            0u32..FLOWS,
            0u8..SERVERS,
            0u32..400,
            40u32..1501,
            any::<bool>(),
        ),
        1..400,
    )
}

fn check_equivalent(
    mut real: EarlyClassifier,
    mut model: RefClassifier,
    ops: &[Op],
) -> Result<(), TestCaseError> {
    let mut t = 0u64;
    for (step, &(kind, id, server, dt, size, up)) in ops.iter().enumerate() {
        let key = flow_key(id);
        match kind {
            0..=11 => {
                t += if dt < 200 { 0 } else { dt as u64 * 131 };
                let dir = if up {
                    Direction::Uplink
                } else {
                    Direction::Downlink
                };
                let pkt = Packet::new(Instant::from_micros(t), size, key, dir, step as u64);
                let (want, window) = model.observe(&pkt);
                let got = real.observe(&pkt);
                prop_assert_eq!(got, want, "observe diverged at step {}", step);
                if let Some(w) = window {
                    let feats = FlowFeatures::from_packets(&w);
                    prop_assert_eq!(bits(&feats), bits(&ref_features(&w)));
                    prop_assert_eq!(real.classify_features(&feats), want.unwrap());
                }
            }
            12..=13 => {
                model.forget(&key);
                real.forget(&key);
            }
            _ => {
                let class = AppClass::from_index((id % 3) as usize);
                model.server_hints.insert(server_ip(server), class);
                real.learn_server_hint(server_ip(server), class);
            }
        }
        for other in 0..FLOWS {
            let k = flow_key(other);
            prop_assert_eq!(
                real.class_of(&k),
                model.class_of(&k),
                "class_of at step {}",
                step
            );
        }
        prop_assert_eq!(real.num_server_hints(), model.server_hints.len());
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Default profiles: same verdict and `class_of` at every step.
    #[test]
    fn default_classifier_matches_two_map_model(window in 2usize..17, ops in ops()) {
        check_equivalent(
            EarlyClassifier::with_default_profiles(window),
            RefClassifier::with_default_profiles(window),
            &ops,
        )?;
    }

    /// Trained profiles (random examples, some longer than the window):
    /// the centroids and every verdict agree.
    #[test]
    fn trained_classifier_matches_two_map_model(
        window in 2usize..17,
        raw in prop::collection::vec((0u8..3, raw_records(1..24)), 3..12),
        ops in ops(),
    ) {
        let mut examples: Vec<(AppClass, Vec<PacketRecord>)> = raw
            .iter()
            .map(|(c, r)| (AppClass::from_index(*c as usize), records(r)))
            .collect();
        // Every class needs at least one example.
        for (i, class) in AppClass::ALL.into_iter().enumerate() {
            examples[i].0 = class;
        }
        check_equivalent(
            EarlyClassifier::train(window, &examples),
            RefClassifier::train(window, &examples),
            &ops,
        )?;
    }

    /// `from_packets` is bit-identical to the collecting reference.
    #[test]
    fn features_are_bit_identical(raw in raw_records(1..40)) {
        let recs = records(&raw);
        prop_assert_eq!(bits(&FlowFeatures::from_packets(&recs)), bits(&ref_features(&recs)));
    }
}
