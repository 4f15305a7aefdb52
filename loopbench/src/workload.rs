//! Seeded workload generation: seed → a deterministic stream of ticks.
//!
//! A tick is one `poll_interval` of simulated time. Its input is the
//! tick's packets (merged in time order), the flows whose sessions end
//! during it, and — on `drift` — whether the cell is throttled before
//! its reports. Delivery reports are *not* part of the input: they
//! depend on which flows the gateway admitted, so the driver
//! synthesises them from the cell model at run time.
//!
//! Generation is lazy (one tick at a time), so memory stays O(live
//! flows + one tick of packets) however long an episode is.

use std::collections::{HashMap, VecDeque};

use exbox_core::matrix::SnrLevel;
use exbox_net::{AppClass, Direction, Duration, FlowKey, Instant, Packet, Protocol};
use exbox_testbed::cell::AppModelSet;
use exbox_traffic::{LiveLabGenerator, Regime, ScaledWorkload, TrafficModel, WorkloadEvent};

/// One simulated tick = the gateway's default poll interval.
pub const TICK: Duration = Duration::from_secs(2);

/// Packets of a new flow's classification window (the gateway's
/// default `classify_window`).
pub const CLASSIFY_WINDOW: usize = 8;

/// Upper bound on the packets one `storm` flow replays per tick (a
/// 40 ms window of the busiest class trace carries about 40).
const STORM_MAX_PACKETS_PER_FLOW: usize = 128;

/// The three benchmark workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Packet read path at saturation (serving-only gateway).
    Storm,
    /// Learning loop under a mid-run cell throttle (live trainer).
    Drift,
    /// Flow-state churn under a flash crowd (bootstrap gateway).
    FlashCrowd,
}

impl Kind {
    /// Every workload, in documentation order.
    pub const ALL: [Kind; 3] = [Kind::Storm, Kind::Drift, Kind::FlashCrowd];

    /// Command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Storm => "storm",
            Kind::Drift => "drift",
            Kind::FlashCrowd => "flash_crowd",
        }
    }

    /// Parse a command-line name.
    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }
}

/// Size knobs of one workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Params {
    /// `storm` sizes.
    Storm {
        /// Concurrent flows kept alive.
        flows: usize,
        /// Flow lifetime range in ticks (inclusive).
        life: (u32, u32),
        /// Length of the class-trace window each live flow replays per tick.
        burst: Duration,
        /// Ticks per episode.
        ticks: u32,
    },
    /// `drift` and `flash_crowd` sizes.
    Sessions(SessionParams),
}

/// Sizes of a LiveLab-session workload (`drift`, `flash_crowd`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SessionParams {
    /// LiveLab population.
    pub users: usize,
    /// Multiplier on LiveLab's mean session lengths.
    pub session_scale: f64,
    /// Arrival regime.
    pub regime: Regime,
    /// Simulated time of the first tick, seconds from midnight.
    pub start_secs: u64,
    /// Ticks per episode.
    pub ticks: u32,
    /// Keep-alive packets each open session sends per tick.
    pub keepalive: u32,
    /// Tick before whose reports the cell is throttled.
    pub throttle_at: Option<u32>,
}

impl Params {
    /// Sizes for `kind`; `quick` is the kick-the-tires subset.
    pub fn for_kind(kind: Kind, quick: bool) -> Params {
        match kind {
            Kind::Storm => Params::Storm {
                flows: if quick { 2_000 } else { 8_000 },
                life: (1, 4),
                burst: Duration::from_millis(40),
                ticks: if quick { 4 } else { 20 },
            },
            Kind::Drift => {
                // Ten times LiveLab's arrival rate with sessions a tenth
                // as long: the same concurrency near the region
                // boundary, ten times the admission decisions.
                let ticks = if quick { 600 } else { 5_400 };
                Params::Sessions(SessionParams {
                    users: 6_000,
                    session_scale: 0.1,
                    regime: Regime::Steady,
                    start_secs: 18 * 3_600,
                    ticks,
                    keepalive: 8,
                    throttle_at: Some(ticks / 3),
                })
            }
            Kind::FlashCrowd => Params::Sessions(SessionParams {
                users: if quick { 5_000 } else { 30_000 },
                session_scale: 1.0,
                regime: Regime::FlashCrowd {
                    start_secs: 12.0 * 3_600.0,
                    duration_secs: 1_800.0,
                    boost: 8.0,
                },
                // Two quiet minutes, then the crowd's first eighteen.
                start_secs: 11 * 3_600 + 58 * 60,
                ticks: if quick { 150 } else { 600 },
                keepalive: 0,
                throttle_at: None,
            }),
        }
    }
}

/// One tick's input.
#[derive(Debug, Clone, PartialEq)]
pub struct TickInput {
    /// Tick number within the episode.
    pub index: u32,
    /// Poll time: the tick's end.
    pub now: Instant,
    /// Packets, in time order.
    pub packets: Vec<(Packet, SnrLevel)>,
    /// Flows whose sessions ended during the tick.
    pub departures: Vec<FlowKey>,
    /// Throttle the cell before this tick's reports.
    pub throttle: bool,
}

/// splitmix64: small, seedable, good enough for workload draws.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// Seeded generator.
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// True with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64 + f64::EPSILON <= p
    }
}

/// Mix a workload seed with a stream id.
pub fn derive(seed: u64, stream: u64) -> u64 {
    Rng::new(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03)).next_u64()
}

/// The `id`-th flow's key: unique for any id below 65 536 × 20 000
/// (`FlowKey::synthetic` keeps 16 bits of client id and a 20 000-port
/// range).
pub fn flow_key(id: u64, class: AppClass) -> FlowKey {
    let proto = if class == AppClass::Conferencing {
        Protocol::Udp
    } else {
        Protocol::Tcp
    };
    FlowKey::synthetic(
        (id % 65_536) as u32,
        (id / 65_536) as u32,
        class.index() as u8 + 1,
        proto,
    )
}

fn model(models: &AppModelSet, class: AppClass) -> &dyn TrafficModel {
    match class {
        AppClass::Web => &models.web,
        AppClass::Streaming => &models.streaming,
        AppClass::Conferencing => &models.conferencing,
    }
}

fn draw_snr(rng: &mut Rng) -> SnrLevel {
    if rng.chance(0.25) {
        SnrLevel::Low
    } else {
        SnrLevel::High
    }
}

/// Time-order merge. The key is total for the keys this module makes
/// (flow ids live in the client address and port), and the sort works
/// in place, so no scratch buffer shows up in peak memory.
fn sort_by_time(pkts: &mut [(Packet, SnrLevel)]) {
    pkts.sort_unstable_by_key(|(p, _)| (p.timestamp, p.flow.client_ip, p.flow.client_port, p.seq));
}

/// A workload's tick stream. Equal `(kind, seed, quick)` give equal
/// streams.
#[derive(Debug)]
pub enum Ticks {
    /// `storm` generator.
    Storm(Box<StormTicks>),
    /// `drift` / `flash_crowd` generator.
    Sessions(Box<SessionTicks>),
}

impl Ticks {
    /// The tick stream of `kind` for `seed`.
    pub fn new(kind: Kind, seed: u64, quick: bool) -> Ticks {
        match Params::for_kind(kind, quick) {
            Params::Storm {
                flows,
                life,
                burst,
                ticks,
            } => Ticks::Storm(Box::new(StormTicks::new(seed, flows, life, burst, ticks))),
            Params::Sessions(p) => Ticks::Sessions(Box::new(SessionTicks::new(seed, p))),
        }
    }
}

impl Iterator for Ticks {
    type Item = TickInput;

    fn next(&mut self) -> Option<TickInput> {
        match self {
            Ticks::Storm(s) => s.next(),
            Ticks::Sessions(s) => s.next(),
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct StormFlow {
    id: u64,
    class: AppClass,
    snr: SnrLevel,
    /// Last tick the flow sends in; it departs at that tick's end.
    last_tick: u32,
}

/// `storm`: a steady population of concurrent flows, each replaying a
/// short window of its class's generated trace every tick, with
/// arrivals replacing departures across ticks.
#[derive(Debug)]
pub struct StormTicks {
    rng: Rng,
    seed: u64,
    models: AppModelSet,
    flows: usize,
    life: (u32, u32),
    burst: Duration,
    ticks: u32,
    tick: u32,
    live: Vec<StormFlow>,
    next_id: u64,
}

impl StormTicks {
    fn new(seed: u64, flows: usize, life: (u32, u32), burst: Duration, ticks: u32) -> Self {
        let mut s = StormTicks {
            rng: Rng::new(derive(seed, 0x5709)),
            seed,
            models: AppModelSet::testbed(),
            flows,
            life,
            burst,
            ticks,
            tick: 0,
            live: Vec::with_capacity(flows),
            next_id: 0,
        };
        // Tick 0 starts mid-stream: remaining lives are spread over the
        // whole range so departures are steady from the first tick.
        for _ in 0..flows {
            let remaining = s.rng.below(u64::from(life.1)) as u32;
            s.spawn(remaining);
        }
        s
    }

    fn spawn(&mut self, last_tick: u32) {
        let class = match self.rng.below(10) {
            0..=4 => AppClass::Web,
            5..=7 => AppClass::Streaming,
            _ => AppClass::Conferencing,
        };
        let snr = draw_snr(&mut self.rng);
        self.live.push(StormFlow {
            id: self.next_id,
            class,
            snr,
            last_tick,
        });
        self.next_id += 1;
    }
}

impl Iterator for StormTicks {
    type Item = TickInput;

    fn next(&mut self) -> Option<TickInput> {
        if self.tick >= self.ticks {
            return None;
        }
        let tick = self.tick;
        let start = Instant::from_nanos(u64::from(tick) * TICK.as_nanos());
        let span = TICK.as_nanos() - self.burst.as_nanos();
        // Reserved generously up front: untouched capacity is never
        // resident, and the buffer never doubles, so peak memory tracks
        // the packets actually generated.
        let mut packets = Vec::with_capacity(self.flows * STORM_MAX_PACKETS_PER_FLOW);
        for f in &self.live {
            let offset = Duration::from_nanos(self.rng.below(span));
            let key = flow_key(f.id, f.class);
            let trace = model(&self.models, f.class).generate(
                key,
                start + offset,
                self.burst,
                derive(self.seed, (f.id << 20) ^ u64::from(tick)),
            );
            packets.extend(trace.into_iter().map(|p| (p, f.snr)));
        }
        sort_by_time(&mut packets);

        let mut departures = Vec::new();
        self.live.retain(|f| {
            if f.last_tick <= tick {
                departures.push(flow_key(f.id, f.class));
                false
            } else {
                true
            }
        });
        while self.live.len() < self.flows {
            let span = u64::from(self.life.1 - self.life.0 + 1);
            let life = self.life.0 + self.rng.below(span) as u32;
            self.spawn(tick + life);
        }
        self.tick += 1;
        Some(TickInput {
            index: tick,
            now: start + TICK,
            packets,
            departures,
            throttle: false,
        })
    }
}

/// `drift` / `flash_crowd`: LiveLab sessions streamed through
/// [`ScaledWorkload`]. Each arrival sends its class trace's first
/// [`CLASSIFY_WINDOW`] packets; open sessions send `keepalive` packets
/// per tick; a departure ends the class's oldest open session (the
/// event carries only the class, as in `exbox_bench::run_soak`).
#[derive(Debug)]
pub struct SessionTicks {
    seed: u64,
    models: AppModelSet,
    rng: Rng,
    stream: std::iter::Peekable<exbox_traffic::EventStream>,
    /// Open sessions per class, oldest first; `None` marks a session
    /// opened before the episode started (never seen by the gateway).
    open: [VecDeque<Option<FlowKey>>; 3],
    /// Open sessions the gateway has seen, in a stable order.
    live: Vec<(FlowKey, AppClass, SnrLevel)>,
    live_idx: HashMap<FlowKey, usize>,
    start: Instant,
    ticks: u32,
    tick: u32,
    keepalive: u32,
    throttle_at: Option<u32>,
    next_id: u64,
    keepalive_seq: u64,
}

impl SessionTicks {
    fn new(seed: u64, p: SessionParams) -> Self {
        let end_secs = p.start_secs + u64::from(p.ticks) * TICK.as_nanos() / 1_000_000_000;
        let generator = LiveLabGenerator {
            users: p.users,
            days: end_secs.div_ceil(86_400).max(1) as u32,
            session_length_scale: p.session_scale,
            seed: derive(seed, 0x11FE),
            ..LiveLabGenerator::default()
        };
        let mut s = SessionTicks {
            seed,
            models: AppModelSet::testbed(),
            rng: Rng::new(derive(seed, 0x5E55)),
            stream: ScaledWorkload::new(generator, p.regime).stream().peekable(),
            open: [VecDeque::new(), VecDeque::new(), VecDeque::new()],
            live: Vec::new(),
            live_idx: HashMap::new(),
            start: Instant::from_secs(p.start_secs),
            ticks: p.ticks,
            tick: 0,
            keepalive: p.keepalive,
            throttle_at: p.throttle_at,
            next_id: 0,
            keepalive_seq: 0,
        };
        // Pre-roll: sessions opened before the first tick exist in the
        // cell's history only, so their departures consume placeholders.
        while let Some(&(t, ev)) = s.stream.peek() {
            if t >= s.start {
                break;
            }
            s.stream.next();
            match ev {
                WorkloadEvent::Arrival(c) => s.open[c.index()].push_back(None),
                WorkloadEvent::Departure(c) => {
                    s.open[c.index()].pop_front();
                }
            }
        }
        s
    }

    fn close(&mut self, key: FlowKey) {
        if let Some(i) = self.live_idx.remove(&key) {
            self.live.swap_remove(i);
            if let Some(moved) = self.live.get(i) {
                self.live_idx.insert(moved.0, i);
            }
        }
    }
}

impl Iterator for SessionTicks {
    type Item = TickInput;

    fn next(&mut self) -> Option<TickInput> {
        if self.tick >= self.ticks {
            return None;
        }
        let tick = self.tick;
        let start = self.start + Duration::from_nanos(u64::from(tick) * TICK.as_nanos());
        let end = start + TICK;
        let mut packets = Vec::new();
        // Keep-alives of sessions open at the tick's start, evenly spaced.
        let step = TICK.as_nanos() / (u64::from(self.keepalive) + 1);
        for &(key, class, snr) in &self.live {
            for j in 1..=u64::from(self.keepalive) {
                let size = match class {
                    AppClass::Web => 900,
                    AppClass::Streaming => 1400,
                    AppClass::Conferencing => 1000,
                };
                let jitter = self.rng.below(step / 2);
                self.keepalive_seq += 1;
                packets.push((
                    Packet::new(
                        start + Duration::from_nanos(j * step + jitter),
                        size,
                        key,
                        Direction::Downlink,
                        self.keepalive_seq,
                    ),
                    snr,
                ));
            }
        }
        let mut departures = Vec::new();
        while let Some(&(t, ev)) = self.stream.peek() {
            if t >= end {
                break;
            }
            self.stream.next();
            match ev {
                WorkloadEvent::Arrival(class) => {
                    let id = self.next_id;
                    self.next_id += 1;
                    let key = flow_key(id, class);
                    let snr = draw_snr(&mut self.rng);
                    let trace = model(&self.models, class).generate(
                        key,
                        t,
                        TICK,
                        derive(self.seed, id << 8),
                    );
                    packets.extend(trace.into_iter().take(CLASSIFY_WINDOW).map(|p| (p, snr)));
                    self.open[class.index()].push_back(Some(key));
                    self.live_idx.insert(key, self.live.len());
                    self.live.push((key, class, snr));
                }
                WorkloadEvent::Departure(class) => {
                    if let Some(Some(key)) = self.open[class.index()].pop_front() {
                        departures.push(key);
                        self.close(key);
                    }
                }
            }
        }
        sort_by_time(&mut packets);
        self.tick += 1;
        Some(TickInput {
            index: tick,
            now: end,
            packets,
            departures,
            throttle: self.throttle_at == Some(tick),
        })
    }
}
