//! In-memory span recorder for the traced run.
//!
//! The driver opens a span around every gateway call it makes (and
//! around its own bench-side work), so each per-layer number can be
//! traced back to raw spans. Spans stay in memory and are written as
//! JSONL once the run ends. With recording off, [`Tracer::open`] and
//! [`Tracer::close`] still read the clock — the untraced run needs the
//! same phase timings — but store nothing.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::Instant;

/// Sentinel parent of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer boundary name, e.g. `pipeline.ingest`.
    pub name: &'static str,
    /// Start, ns since the tracer's origin.
    pub start_ns: u64,
    /// End, ns since the tracer's origin.
    pub end_ns: u64,
    /// Index of the enclosing span, or [`NO_PARENT`].
    pub parent: u32,
    /// Episode-global tick the span belongs to.
    pub tick: u32,
    /// Work items the call handled (packets, reports, ...).
    pub items: u32,
}

impl Span {
    /// Duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle of an open span.
#[derive(Debug, Clone, Copy)]
pub struct Open {
    name: &'static str,
    start_ns: u64,
    /// Recorded index, or [`NO_PARENT`] when recording is off.
    idx: u32,
}

/// The span recorder.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    record: bool,
    spans: Vec<Span>,
    /// Currently open spans (their recorded indices).
    stack: Vec<u32>,
    tick: u32,
}

impl Tracer {
    /// A tracer; `record` keeps spans, otherwise only times are read.
    pub fn new(record: bool) -> Self {
        Tracer {
            origin: Instant::now(),
            record,
            spans: Vec::new(),
            stack: Vec::new(),
            tick: 0,
        }
    }

    /// True when spans are being kept.
    pub fn recording(&self) -> bool {
        self.record
    }

    /// Switch recording on or off (between episodes only).
    pub fn set_recording(&mut self, on: bool) {
        debug_assert!(self.stack.is_empty(), "toggle with spans open");
        self.record = on;
    }

    /// Tick id stamped on spans opened from now on.
    pub fn set_tick(&mut self, tick: u32) {
        self.tick = tick;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span nested in the innermost open one.
    pub fn open(&mut self, name: &'static str) -> Open {
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        let start_ns = self.now_ns();
        let idx = if self.record {
            let idx = self.spans.len() as u32;
            self.spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent,
                tick: self.tick,
                items: 0,
            });
            self.stack.push(idx);
            idx
        } else {
            NO_PARENT
        };
        Open {
            name,
            start_ns,
            idx,
        }
    }

    /// Close `open` (spans close innermost-first), recording `items`.
    /// Returns the span's duration in ns.
    pub fn close(&mut self, open: Open, items: u32) -> u64 {
        let end_ns = self.now_ns();
        if open.idx != NO_PARENT {
            let popped = self.stack.pop();
            debug_assert_eq!(
                popped,
                Some(open.idx),
                "span {} closed out of order",
                open.name
            );
            let span = &mut self.spans[open.idx as usize];
            span.end_ns = end_ns;
            span.items = items;
        }
        end_ns.saturating_sub(open.start_ns)
    }

    /// Every recorded span, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Per-name aggregate over a span set.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTotals {
    /// Spans with this name.
    pub count: u64,
    /// Summed duration, ns.
    pub total_ns: u64,
    /// Summed self time (duration minus child-covered time), ns.
    pub self_ns: u64,
    /// Summed `items`.
    pub items: u64,
}

/// Aggregate spans per name. Self time is each span's duration minus
/// the time its direct children cover; children of one span never
/// overlap (the driver is single-threaded), so the subtraction is
/// exact.
pub fn layer_totals(spans: &[Span]) -> BTreeMap<&'static str, LayerTotals> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            child_ns[s.parent as usize] += s.dur_ns();
        }
    }
    let mut out: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
    for (s, child) in spans.iter().zip(&child_ns) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.dur_ns();
        t.self_ns += s.dur_ns().saturating_sub(*child);
        t.items += u64::from(s.items);
    }
    out
}

/// Write spans as JSON lines: `{"i":..,"name":..,"start_ns":..,
/// "end_ns":..,"parent":..,"tick":..,"items":..}`; a root's parent is
/// `null`.
pub fn write_jsonl(spans: &[Span], out: &mut impl Write) -> io::Result<()> {
    for (i, s) in spans.iter().enumerate() {
        let parent = if s.parent == NO_PARENT {
            "null".to_string()
        } else {
            s.parent.to_string()
        };
        writeln!(
            out,
            "{{\"i\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"tick\":{},\"items\":{}}}",
            s.name, s.start_ns, s.end_ns, s.tick, s.items
        )?;
    }
    Ok(())
}
