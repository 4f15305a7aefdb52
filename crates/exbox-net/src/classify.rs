//! Early traffic classification.
//!
//! ExBox "assumes a priori knowledge of the application class to which
//! a flow belongs" (paper §7) and leans on the early-classification
//! literature (their refs 41, 58, 69, 47, 42, 67, 54, 32, 33):
//! the first few packets of a flow are enough to identify the
//! application, even for encrypted traffic, because sizes, directions
//! and timing leak the application's shape. This module implements
//! such a classifier: a server-endpoint hint map (the DNS/SNI prior
//! every production classifier leans on — video CDNs, conferencing
//! relays and web origins are disjoint endpoint sets) backed by
//! statistical features over the first `N` packets fed to a
//! nearest-centroid model for unknown endpoints.
//!
//! §4.2 of the paper: "a flow needs to be admitted briefly before any
//! admission control decision is made" — mirrored here by
//! [`EarlyClassifier::observe`] returning `None` until it has seen
//! enough packets and `Some(class)` exactly once thereafter.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::net::Ipv4Addr;

use crate::packet::{Direction, FlowKey, FxHasher, Packet};

type FxMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// Lazily-bound global counters (classification fires once per flow,
/// so a relaxed atomic behind a `OnceLock` is plenty).
mod metrics {
    use std::sync::{Arc, OnceLock};

    use exbox_obs::Counter;

    /// `net.flows_classified` — flows that received a class.
    pub fn classified() -> &'static Arc<Counter> {
        static C: OnceLock<Arc<Counter>> = OnceLock::new();
        C.get_or_init(|| exbox_obs::global().counter("net.flows_classified"))
    }

    /// `net.hint_classified` — flows classified via the endpoint prior.
    pub fn hint_classified() -> &'static Arc<Counter> {
        static C: OnceLock<Arc<Counter>> = OnceLock::new();
        C.get_or_init(|| exbox_obs::global().counter("net.hint_classified"))
    }
}
use crate::time::Instant;

/// Application classes used throughout the reproduction — the three
/// classes the paper evaluates (§5.2): their QoE depends on different
/// underlying network attributes (latency for web, throughput for
/// streaming, both for conferencing).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AppClass {
    /// Web browsing; QoE metric: page load time.
    Web,
    /// Video streaming (YouTube-like); QoE metric: startup delay.
    Streaming,
    /// Video conferencing (Skype/Hangouts-like); QoE metric: PSNR.
    Conferencing,
}

impl AppClass {
    /// All classes in canonical order (matches the paper's traffic
    /// matrix ordering `<a_web, a_streaming, a_conferencing>`).
    pub const ALL: [AppClass; 3] = [AppClass::Web, AppClass::Streaming, AppClass::Conferencing];

    /// Number of application classes (`k` in the paper's notation).
    pub const COUNT: usize = 3;

    /// Canonical index in `0..COUNT`.
    pub const fn index(self) -> usize {
        match self {
            AppClass::Web => 0,
            AppClass::Streaming => 1,
            AppClass::Conferencing => 2,
        }
    }

    /// Inverse of [`AppClass::index`].
    ///
    /// # Panics
    /// Panics if `i >= COUNT`.
    pub fn from_index(i: usize) -> AppClass {
        Self::ALL[i]
    }

    /// Short lowercase name (stable; used in CSV output).
    pub const fn name(self) -> &'static str {
        match self {
            AppClass::Web => "web",
            AppClass::Streaming => "streaming",
            AppClass::Conferencing => "conferencing",
        }
    }
}

impl std::fmt::Display for AppClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Statistical features over the first packets of a flow.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowFeatures {
    /// Mean downlink packet size in bytes.
    pub mean_down_size: f64,
    /// Standard deviation of downlink packet sizes.
    pub std_down_size: f64,
    /// Mean inter-arrival time between consecutive packets, ms.
    pub mean_iat_ms: f64,
    /// Uplink-to-total packet-count ratio in `[0, 1]`.
    pub uplink_ratio: f64,
    /// Coefficient of variation of inter-arrival times (std/mean) —
    /// the burstiness signature that separates paced media streams
    /// (≈0) from request/response traffic and framed video (≫1).
    pub iat_cov: f64,
}

/// One observed packet: arrival time, size in bytes, direction.
pub type PacketRecord = (Instant, u32, Direction);

impl FlowFeatures {
    /// Compute features from packet records (any direction mix).
    /// Allocation-free: each statistic re-walks the records instead of
    /// collecting them, summing in the same order as the textbook
    /// two-pass mean/variance over a collected vector, so the result is
    /// bit-for-bit the same.
    ///
    /// # Panics
    /// Panics if `packets` is empty.
    pub fn from_packets(packets: &[PacketRecord]) -> FlowFeatures {
        assert!(!packets.is_empty(), "need at least one packet");
        let down = || {
            packets
                .iter()
                .filter(|(_, _, d)| *d == Direction::Downlink)
                .map(|(_, s, _)| *s as f64)
        };
        let iats = || {
            packets
                .windows(2)
                .map(|w| w[1].0.saturating_since(w[0].0).as_secs_f64() * 1e3)
        };
        let (mean_down_size, std_down_size) =
            mean_var(down).map_or((0.0, 0.0), |(m, v)| (m, v.sqrt()));
        let (mean_iat_ms, iat_cov) = mean_var(iats).map_or((0.0, 0.0), |(m, v)| {
            (m, if m > 1e-9 { v.sqrt() / m } else { 0.0 })
        });
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

    /// Feature vector used for centroid distance (normalised scales:
    /// sizes /1500, IAT /100 ms, CoV /4 so all coordinates are O(1)).
    fn as_vector(&self) -> [f64; 5] {
        [
            self.mean_down_size / 1500.0,
            self.std_down_size / 1500.0,
            self.mean_iat_ms / 100.0,
            self.uplink_ratio,
            self.iat_cov / 4.0,
        ]
    }
}

/// Population mean and variance of a re-iterable sequence (`None` if
/// it is empty), without buffering it.
fn mean_var<I: Iterator<Item = f64>>(xs: impl Fn() -> I) -> Option<(f64, f64)> {
    let n = xs().count();
    if n == 0 {
        return None;
    }
    let m = xs().sum::<f64>() / n as f64;
    let var = xs().map(|x| (x - m) * (x - m)).sum::<f64>() / n as f64;
    Some((m, var))
}

/// Per-class centroid in normalised feature space.
#[derive(Debug, Clone, Copy)]
struct Profile {
    class: AppClass,
    centroid: [f64; 5],
}

/// What the classifier holds for one flow.
#[derive(Debug)]
enum FlowState {
    /// Inside the statistical window: the packets seen so far, in a
    /// buffer allocated once with capacity `window`.
    Pending(Vec<PacketRecord>),
    /// Classified; further packets are ignored until `forget`.
    Decided(AppClass),
}

/// Early flow classifier: buffers the first `window` packets of each
/// flow, then emits a one-shot classification.
///
/// Every packet of a not-yet-admitted flow passes through
/// [`EarlyClassifier::observe`], so its per-flow state is one map,
/// `FlowKey → Pending(buffer) | Decided(class)`, on the seedless
/// [`FxHasher`] (the fold behind
/// [`hash_flow_key`](crate::packet::hash_flow_key)): one map probe per
/// packet, one buffer allocation per statistically classified flow
/// (none for flows classified by endpoint), and the endpoint hints
/// are probed only when some are registered.
#[derive(Debug)]
pub struct EarlyClassifier {
    window: usize,
    profiles: Vec<Profile>,
    /// Server-endpoint prior learned at training time: flows to a
    /// known video CDN / conferencing relay / web origin classify by
    /// endpoint, as production classifiers do via DNS/SNI.
    server_hints: FxMap<Ipv4Addr, AppClass>,
    flows: FxMap<FlowKey, FlowState>,
}

impl EarlyClassifier {
    /// Classifier with hand-built default profiles matched to the
    /// three workload generators in `exbox-traffic`:
    ///
    /// * web — mixed sizes, bursty, notable uplink share (requests),
    /// * streaming — MTU-sized downlink, tight spacing within chunks,
    /// * conferencing — mid-size frames at a steady ≈20–30 ms cadence.
    pub fn with_default_profiles(window: usize) -> Self {
        assert!(window >= 2, "classification window needs >= 2 packets");
        EarlyClassifier {
            window,
            profiles: vec![
                Profile {
                    class: AppClass::Web,
                    // The burstiness coordinate is window-length dependent, so the
                    // hand-built defaults keep it neutral; trained centroids use it.
                    centroid: [700.0 / 1500.0, 450.0 / 1500.0, 12.0 / 100.0, 0.30, 0.5],
                },
                Profile {
                    class: AppClass::Streaming,
                    centroid: [1400.0 / 1500.0, 120.0 / 1500.0, 3.0 / 100.0, 0.05, 0.5],
                },
                Profile {
                    class: AppClass::Conferencing,
                    centroid: [1000.0 / 1500.0, 220.0 / 1500.0, 25.0 / 100.0, 0.10, 0.5],
                },
            ],
            server_hints: FxMap::default(),
            flows: FxMap::default(),
        }
    }

    /// Train centroids from labelled example flows, replacing the
    /// defaults. Each example is (class, packets-of-one-flow).
    /// Endpoint hints are *not* learnt through this entry point (the
    /// tuples carry no addresses); see
    /// [`EarlyClassifier::learn_server_hint`].
    ///
    /// # Panics
    /// Panics if any class has no examples or any example is empty.
    pub fn train(window: usize, examples: &[(AppClass, Vec<PacketRecord>)]) -> Self {
        assert!(window >= 2, "classification window needs >= 2 packets");
        let mut sums: HashMap<AppClass, ([f64; 5], usize)> = HashMap::new();
        for (class, pkts) in examples {
            let truncated: Vec<_> = pkts.iter().copied().take(window).collect();
            let v = FlowFeatures::from_packets(&truncated).as_vector();
            let entry = sums.entry(*class).or_insert(([0.0; 5], 0));
            for (acc, x) in entry.0.iter_mut().zip(v) {
                *acc += x;
            }
            entry.1 += 1;
        }
        let mut profiles = Vec::new();
        for class in AppClass::ALL {
            let (sum, n) = sums
                .get(&class)
                .unwrap_or_else(|| panic!("no training examples for {class}"));
            let mut centroid = [0.0; 5];
            for k in 0..5 {
                centroid[k] = sum[k] / *n as f64;
            }
            profiles.push(Profile { class, centroid });
        }
        EarlyClassifier {
            window,
            profiles,
            server_hints: FxMap::default(),
            flows: FxMap::default(),
        }
    }

    /// Register a known server endpoint (the DNS/SNI prior): flows to
    /// this address classify by endpoint without waiting for the full
    /// statistical window.
    pub fn learn_server_hint(&mut self, server: Ipv4Addr, class: AppClass) {
        self.server_hints.insert(server, class);
    }

    /// Number of registered endpoint hints.
    pub fn num_server_hints(&self) -> usize {
        self.server_hints.len()
    }

    /// Feed one packet. Returns `Some(class)` exactly once per flow —
    /// immediately for known endpoints, otherwise on the packet that
    /// completes its statistical window.
    pub fn observe(&mut self, pkt: &Packet) -> Option<AppClass> {
        let hints = &self.server_hints;
        let hint = || {
            if hints.is_empty() {
                None
            } else {
                hints.get(&pkt.flow.server_ip).copied()
            }
        };
        let record = (pkt.timestamp, pkt.size, pkt.direction);
        let class = match self.flows.entry(pkt.flow) {
            Entry::Occupied(e) => {
                let state = e.into_mut();
                let FlowState::Pending(buf) = state else {
                    return None;
                };
                let class = match hint() {
                    Some(class) => {
                        metrics::hint_classified().inc();
                        class
                    }
                    None => {
                        buf.push(record);
                        if buf.len() < self.window {
                            return None;
                        }
                        nearest(&self.profiles, &FlowFeatures::from_packets(buf))
                    }
                };
                *state = FlowState::Decided(class);
                class
            }
            Entry::Vacant(e) => match hint() {
                Some(class) => {
                    e.insert(FlowState::Decided(class));
                    metrics::hint_classified().inc();
                    class
                }
                None => {
                    // `window >= 2`, so a first packet never completes it.
                    let mut buf = Vec::with_capacity(self.window);
                    buf.push(record);
                    e.insert(FlowState::Pending(buf));
                    return None;
                }
            },
        };
        metrics::classified().inc();
        Some(class)
    }

    /// Classify a feature vector directly (nearest centroid).
    pub fn classify_features(&self, feats: &FlowFeatures) -> AppClass {
        nearest(&self.profiles, feats)
    }

    /// The class previously decided for a flow, if any.
    pub fn class_of(&self, key: &FlowKey) -> Option<AppClass> {
        match self.flows.get(key) {
            Some(FlowState::Decided(class)) => Some(*class),
            _ => None,
        }
    }

    /// Drop state for a finished flow.
    pub fn forget(&mut self, key: &FlowKey) {
        self.flows.remove(key);
    }

    /// Number of packets buffered before deciding.
    pub fn window(&self) -> usize {
        self.window
    }
}

/// Nearest-centroid class of `feats` (the first profile wins ties).
fn nearest(profiles: &[Profile], feats: &FlowFeatures) -> AppClass {
    let v = feats.as_vector();
    let dist = |p: &Profile| -> f64 {
        p.centroid
            .iter()
            .zip(&v)
            .map(|(c, x)| (c - x) * (c - x))
            .sum()
    };
    profiles
        .iter()
        .min_by(|a, b| dist(a).partial_cmp(&dist(b)).expect("finite distances"))
        .expect("profiles non-empty")
        .class
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::Protocol;

    fn mk_pkt(key: FlowKey, ms: u64, size: u32, dir: Direction) -> Packet {
        Packet::new(Instant::from_millis(ms), size, key, dir, 0)
    }

    /// Streaming-shaped flow: MTU downlink packets, 2 ms apart.
    fn streaming_packets(key: FlowKey, n: usize) -> Vec<Packet> {
        (0..n)
            .map(|i| mk_pkt(key, 2 * i as u64, 1400, Direction::Downlink))
            .collect()
    }

    /// Conferencing-shaped flow: ~1000 B frames, 25 ms apart.
    fn conferencing_packets(key: FlowKey, n: usize) -> Vec<Packet> {
        (0..n)
            .map(|i| mk_pkt(key, 25 * i as u64, 1000, Direction::Downlink))
            .collect()
    }

    /// Web-shaped flow: small uplink requests then mixed responses.
    fn web_packets(key: FlowKey, n: usize) -> Vec<Packet> {
        (0..n)
            .map(|i| {
                if i % 3 == 0 {
                    mk_pkt(key, 12 * i as u64, 250, Direction::Uplink)
                } else {
                    mk_pkt(
                        key,
                        12 * i as u64,
                        300 + 700 * (i as u32 % 2),
                        Direction::Downlink,
                    )
                }
            })
            .collect()
    }

    #[test]
    fn app_class_index_roundtrip() {
        for c in AppClass::ALL {
            assert_eq!(AppClass::from_index(c.index()), c);
        }
        assert_eq!(AppClass::COUNT, 3);
    }

    #[test]
    fn classifies_each_default_shape() {
        let mut clf = EarlyClassifier::with_default_profiles(8);
        let cases = [
            (
                streaming_packets(FlowKey::synthetic(1, 1, 1, Protocol::Tcp), 8),
                AppClass::Streaming,
            ),
            (
                conferencing_packets(FlowKey::synthetic(2, 2, 2, Protocol::Udp), 8),
                AppClass::Conferencing,
            ),
            (
                web_packets(FlowKey::synthetic(3, 3, 3, Protocol::Tcp), 8),
                AppClass::Web,
            ),
        ];
        for (pkts, expect) in cases {
            let mut decided = None;
            for p in &pkts {
                if let Some(c) = clf.observe(p) {
                    decided = Some(c);
                }
            }
            assert_eq!(decided, Some(expect));
        }
    }

    #[test]
    fn decision_is_one_shot_per_flow() {
        let key = FlowKey::synthetic(1, 1, 1, Protocol::Tcp);
        let mut clf = EarlyClassifier::with_default_profiles(4);
        let pkts = streaming_packets(key, 10);
        let decisions: Vec<_> = pkts.iter().filter_map(|p| clf.observe(p)).collect();
        assert_eq!(decisions.len(), 1);
        assert_eq!(clf.class_of(&key), Some(AppClass::Streaming));
    }

    #[test]
    fn no_decision_before_window_fills() {
        let key = FlowKey::synthetic(1, 1, 1, Protocol::Tcp);
        let mut clf = EarlyClassifier::with_default_profiles(6);
        for p in streaming_packets(key, 5) {
            assert_eq!(clf.observe(&p), None);
        }
        assert_eq!(clf.class_of(&key), None);
    }

    #[test]
    fn trained_profiles_beat_arbitrary_shapes() {
        // Train on deliberately odd shapes the defaults would confuse.
        let mk = |ms_step: u64, size: u32| -> Vec<PacketRecord> {
            (0..8)
                .map(|i| (Instant::from_millis(ms_step * i), size, Direction::Downlink))
                .collect()
        };
        let examples = vec![
            (AppClass::Web, mk(1, 60)),
            (AppClass::Streaming, mk(50, 600)),
            (AppClass::Conferencing, mk(200, 1500)),
        ];
        let clf = EarlyClassifier::train(8, &examples);
        let f = FlowFeatures::from_packets(&mk(200, 1500));
        assert_eq!(clf.classify_features(&f), AppClass::Conferencing);
        let f = FlowFeatures::from_packets(&mk(1, 60));
        assert_eq!(clf.classify_features(&f), AppClass::Web);
    }

    #[test]
    fn forget_allows_reclassification() {
        let key = FlowKey::synthetic(1, 1, 1, Protocol::Tcp);
        let mut clf = EarlyClassifier::with_default_profiles(4);
        for p in streaming_packets(key, 4) {
            clf.observe(&p);
        }
        assert!(clf.class_of(&key).is_some());
        clf.forget(&key);
        assert_eq!(clf.class_of(&key), None);
    }

    #[test]
    fn features_from_mixed_directions() {
        let key = FlowKey::synthetic(1, 1, 1, Protocol::Tcp);
        let pkts = vec![
            (Instant::from_millis(0), 100u32, Direction::Uplink),
            (Instant::from_millis(10), 1000, Direction::Downlink),
            (Instant::from_millis(20), 1000, Direction::Downlink),
            (Instant::from_millis(30), 100, Direction::Uplink),
        ];
        let _ = key;
        let f = FlowFeatures::from_packets(&pkts);
        assert_eq!(f.mean_down_size, 1000.0);
        assert_eq!(f.uplink_ratio, 0.5);
        assert!((f.mean_iat_ms - 10.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "at least one packet")]
    fn empty_features_panic() {
        let _ = FlowFeatures::from_packets(&[]);
    }
}
